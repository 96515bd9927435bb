"""Error and warning types shared across the library."""


class TotalEscapeError(RuntimeError):
    """All mass has escaped; a normalized density no longer exists."""


class ParameterError(ValueError):
    """Cone/contraction parameters violate one of the admissibility checks."""


class PreconditionError(ValueError):
    """A certified precondition (cone membership, mixing window) fails."""


class CertificateError(RuntimeError):
    """No admissible certificate or cone selection on the searched lattice."""


class ConfigError(ValueError):
    """A run configuration is malformed or inconsistent."""


class DegenerateParametersWarning(UserWarning):
    """A certified bound holds only trivially for the supplied parameters."""
