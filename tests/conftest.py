"""Shared test fixtures."""
from __future__ import annotations

import os
import signal

import pytest

TEST_SECONDS = 120  # per-test wall-clock limit; the slowest test takes about 5 s


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past TEST_SECONDS instead of hanging the run:
    a real-time interval timer raises in the test when it expires.  The
    previous SIGALRM handler is put back afterwards."""
    def expire(signum, frame):
        raise TimeoutError(f"test ran past {TEST_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def src_env() -> dict:
    """The environment for a child Python that must import this checkout's
    lie2: the current one with the package's source root put first on
    PYTHONPATH, so the child finds lie2 the way the test run does even
    when the package is not installed."""
    import lie2
    src = os.path.dirname(os.path.dirname(os.path.abspath(lie2.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
