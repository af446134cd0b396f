"""Shared test helpers."""

import tracemalloc

import pytest


def _traced_peak(fn):
    """(fn(), peak bytes traced while fn ran); numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def traced_peak():
    """The `traced_peak(fn)` helper: fn's result and the peak memory it allocated."""
    return _traced_peak
