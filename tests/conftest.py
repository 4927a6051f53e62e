"""Shared fixtures."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def traced_peak():
    """Call fn() under tracemalloc; return (its result, the peak bytes that
    Python and numpy allocated during the call, above what was live before)."""

    def measure(fn):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = fn()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        return result, peak

    return measure


@pytest.fixture
def python_with_src():
    """Run python -c code in a fresh process, with this checkout's src first
    on the path; return the completed process, which must exit 0.  A fresh
    process shows what the package loads, whatever this one has imported."""

    def run(code):
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        return subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
        )

    return run
