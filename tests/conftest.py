import contextlib
import signal

import pytest


class Overrun(Exception):
    """A guarded block ran past its deadline."""


@pytest.fixture
def deadline():
    """deadline(seconds) guards a block with SIGALRM: past `seconds` it
    raises Overrun inside the block, so a call that would spin fails the
    test at once instead of stalling the suite."""
    @contextlib.contextmanager
    def guard(seconds: int):
        def expire(signum, frame):
            raise Overrun(f"still running after {seconds} s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    return guard
