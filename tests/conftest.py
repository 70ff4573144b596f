"""Test-session settings and fixtures shared by every test module."""

import pytest
from hypothesis import settings

from pddiag import forkmap

# Property tests draw the same examples on every run, so a pass or a failure
# repeats exactly; each test's own max_examples and deadline still apply.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def split_into(monkeypatch):
    """``split_into(k)`` makes ``forkmap.worker_count`` give k workers to any k or more items, and lets them fork.

    ``predict`` then screens, and ``pddiag synth`` writes, in k processes.
    The test process may hold OpenBLAS's default thread pool, which
    ``forkmap.fork_usable`` refuses; its fork handler stops the pool before
    each fork, so the split runs here as it would in a process of one thread.
    """

    def split(k: int) -> None:
        monkeypatch.setattr(forkmap, "_MIN_VOXELS_PER_WORKER", 1)
        monkeypatch.setattr(forkmap, "usable_cpus", lambda: k)
        monkeypatch.setattr(forkmap, "fork_usable", lambda: True)

    return split
