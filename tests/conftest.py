"""Shared fixtures."""

import tracemalloc

import pytest


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
