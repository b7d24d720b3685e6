"""Shared test fixtures."""
from __future__ import annotations

import os

import pytest


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
