import concurrent.futures
import os

import pytest


def pytest_configure(config):
    # The CLI tests run `python -m pavekit` in a child process, which reads
    # PYTHONPATH but not pytest's `pythonpath` setting; putting src/ on it
    # lets a plain `python -m pytest` test this checkout.
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )


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
