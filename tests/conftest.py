import concurrent.futures
import os

import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace ProcessPoolExecutor with an inline stand-in on a 3-CPU host.

    Returns the list of ``max_workers`` values pools were created with, so a
    test can check a pool size without starting any process.
    """
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    return sizes
