"""Error and warning types shared across the library; an error's class
gives the CLI's exit code."""


class TotalEscapeError(RuntimeError):
    """All mass has escaped; a normalized density no longer exists.
    The CLI exits 2."""


class CertificateError(RuntimeError):
    """A hypothesis fails or cannot be certified: no admissible
    certificate or cone selection on the searched lattice, or a certified
    precondition (cone membership, mixing window, parameter audit) that
    does not hold.  The CLI exits 2."""


class ConfigError(ValueError):
    """A run configuration, or an argument of a library call, is
    malformed or outside its admissible range.  The CLI exits 1."""


class DegenerateParametersWarning(UserWarning):
    """A certified bound holds only trivially for the supplied parameters."""
