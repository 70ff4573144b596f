import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from pddiag import forkmap

SRC = str(Path(forkmap.__file__).parents[1])

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forkmap forks only on Linux")

# Each chunk reports the pid it ran in: three pids, then, with a second
# thread alive, the caller's pid alone.
THREAD_RULE = textwrap.dedent(
    """
    import os, threading
    from pddiag import forkmap

    def pids(chunk):
        return [os.getpid() for _ in chunk]

    def report():
        got = forkmap.map_chunks(pids, list(range(6)), 3)
        print(forkmap.fork_usable(), len(set(got)), got[0] == os.getpid())

    report()
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    report()
    release.set()
    """
)

# Chunk 0 sleeps in the parent; chunks 1 and 2 each print their pid and
# return 1 MiB, more than a pipe holds, so they block writing it.
ORPHANS = textwrap.dedent(
    """
    import os, time
    from pddiag.forkmap import map_chunks

    def fn(chunk):
        if chunk == [0]:
            time.sleep(600)
        os.write(1, b"%d\\n" % os.getpid())  # one write, so the two children's lines cannot interleave
        return [bytes(1 << 20)]

    map_chunks(fn, [0, 1, 2], 3)
    """
)


def _state(pid: int) -> str:
    """The process's state letter from /proc, or "gone"."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return "gone"


def _wait_for(pids, states, timeout=30.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        now = {pid: _state(pid) for pid in pids}
        if all(s in states for s in now.values()):
            return now
        time.sleep(0.02)
    return now


def test_fork_needs_a_one_thread_process():
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, "-c", THREAD_RULE], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["True 3 True", "False 1 True"]


def test_children_of_a_killed_parent_exit():
    env = {**os.environ, "PYTHONPATH": SRC}
    parent = subprocess.Popen([sys.executable, "-c", ORPHANS], env=env, stdout=subprocess.PIPE, text=True)
    try:
        children = [int(parent.stdout.readline()) for _ in range(2)]
        # both children asleep: blocked writing their payload into a full pipe
        assert set(_wait_for(children, {"S"}).values()) == {"S"}
    finally:
        parent.kill()
        parent.wait(timeout=60)
        parent.stdout.close()
    # with no reader left, each write fails and the child exits; its zombie is init's to reap
    left = _wait_for(children, {"gone", "Z"})
    for pid, state in left.items():
        if state not in ("gone", "Z"):
            os.kill(pid, signal.SIGKILL)
    assert set(left.values()) <= {"gone", "Z"}, left
