import os
import signal

import pytest

from cevlab import CevParams


@pytest.fixture(autouse=True)
def every_child_reaped():
    """No test leaves a child process behind, running or unreaped: a worker
    that outlives its run would go on using the machine unseen."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """Fail a test that would otherwise wait forever for a worker."""

    def expire(signum, frame):
        raise TimeoutError("no result within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def standard_params() -> CevParams:
    """Reference configuration used throughout: k=1, l=1, sigma=1, a=0.75, x0=1."""
    return CevParams(k=1.0, l=1.0, sigma=1.0, a=0.75, x0=1.0)


@pytest.fixture
def shifted_params() -> CevParams:
    """Same dynamics started away from the long-run level (x0=2)."""
    return CevParams(k=1.0, l=1.0, sigma=1.0, a=0.75, x0=2.0)


@pytest.fixture
def noiseless_params() -> CevParams:
    """sigma=0 degenerate model; every scheme collapses to deterministic Euler."""
    return CevParams(k=1.0, l=1.0, sigma=0.0, a=0.75, x0=2.0)
