"""Map a function over contiguous chunks of a list, one chunk per forked process.

Two callers use it: ``training.predict`` screens a cohort's subjects and
``synth.write_cohort`` writes a synth cohort's volumes, each over
``worker_count(n, voxels)`` chunks: one per CPU of the affinity mask, one
item and ``_MIN_VOXELS_PER_WORKER`` voxels each.

``map_chunks(fn, items, k)`` splits ``items`` into k contiguous chunks of
near-equal size. The calling process runs ``fn`` on chunk 0; each other
chunk runs in a child made by ``os.fork()``, which inherits everything the
parent holds without pickling it. A child sends back ``pickle.dumps(("ok",
result))``, or the exception it raised with its formatted traceback, through
its own pipe, and leaves by ``os._exit``, so no atexit handler, buffered
output or test finalizer of the parent runs in it. The parent reads the
pipes in chunk order and joins the results in that order. It raises the
first failure in item order with the type and message the child saw, and it
reaps every child on every path: on an exception of its own, KeyboardInterrupt
included, it kills the children left and waits for them before it re-raises.

Fork copies only the calling thread, so a child of a process with another
thread running could inherit a lock that thread held, and each worker would
start its own copy of any thread pool. ``fork_usable()`` is therefore True
only on Linux in a process of one OS thread, on every Python version, and
where it is False ``map_chunks`` runs ``fn`` on all the items in the calling
process. On a machine of several CPUs numpy's OpenBLAS starts a thread pool
at import unless ``OPENBLAS_NUM_THREADS=1``, so with its default pool the
caller stays in one process.

``concurrent.futures.ProcessPoolExecutor`` with a fork context is not used:
it pickles each call's function and arguments even under fork (so a closure
fails and an in-memory cohort's volumes would be copied through a pipe), it
reports a dead worker as ``BrokenProcessPool`` without its items or wait
status, its ``shutdown`` waits for running calls rather than killing them,
and with the function passed through a module global it took 5–8 ms (6–9%)
more per 32-subject 64³ pass than this module (medians of 60 alternating
passes, 2 vCPUs).
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import traceback
from typing import Callable


def fork_usable() -> bool:
    """Whether ``map_chunks`` may fork here: Linux, and this process has one OS thread."""
    if not (hasattr(os, "fork") and sys.platform.startswith("linux")):
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def usable_cpus() -> int:
    """The CPUs this process may run on: the affinity mask that ``taskset`` sets."""
    return len(os.sched_getaffinity(0))


# A worker gets at least this many voxels: at ~13–19 ns a voxel to screen and
# ~20 ns to draw and write, that is ~15–20 ms of work, against ~2 ms to fork,
# exit and reap a process.
_MIN_VOXELS_PER_WORKER = 1 << 20


def worker_count(n_items: int, voxels_per_item: int) -> int:
    """Processes for ``n_items`` volumes: one per usable CPU, one item and ``_MIN_VOXELS_PER_WORKER`` voxels each."""
    return max(1, min(usable_cpus(), n_items, n_items * voxels_per_item // _MIN_VOXELS_PER_WORKER))


class _RemoteTraceback(Exception):
    """The formatted traceback of a child's exception, chained as the re-raised exception's cause."""

    def __str__(self):
        return self.args[0]


def _child_payload(fn, chunk) -> bytes:
    try:
        return pickle.dumps(("ok", fn(chunk)))
    except BaseException as exc:  # sent to the parent, which re-raises it
        tb = traceback.format_exc()
        try:
            payload = pickle.dumps(("error", exc, tb))
            pickle.loads(payload)  # an exception class pickle cannot rebuild
        except Exception:
            payload = pickle.dumps(("error", RuntimeError(f"{type(exc).__name__}: {exc}"), tb))
        return payload


def _run_child(fn, chunk, fd: int, inherited: list[int]) -> None:
    """The body of a child process: run ``fn``, write its outcome to ``fd`` and exit without unwinding.

    It first closes the read ends it inherited, its own and its elder
    siblings', so once the parent is gone no reader is left and a write
    fails with EPIPE instead of blocking on a full pipe.
    """
    code = 1
    try:
        for read_fd in inherited:
            os.close(read_fd)
        view = memoryview(_child_payload(fn, chunk))
        while view:
            view = view[os.write(fd, view) :]
        code = 0
    finally:
        os._exit(code)


class _Child:
    def __init__(self, pid: int, fd: int, start: int, stop: int):
        self.pid, self.fd, self.start, self.stop = pid, fd, start, stop

    def result(self):
        """Read the child's outcome and reap it; return its result or raise its exception."""
        parts = []
        while part := os.read(self.fd, 1 << 16):
            parts.append(part)
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if status != 0 or not parts:  # a child exits 0 only once its whole outcome is written
            raise RuntimeError(
                f"the worker for items {self.start}..{self.stop - 1} ended without a result "
                f"(wait status {status}, exit code {os.waitstatus_to_exitcode(status)})"
            )
        kind, *outcome = pickle.loads(b"".join(parts))
        if kind == "ok":
            return outcome[0]
        exc, tb = outcome
        raise exc from _RemoteTraceback(tb)

    def close(self) -> None:
        """Kill and reap the child if it is still unreaped, and close its pipe."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        os.close(self.fd)


def map_chunks(fn: Callable[[list], list], items: list, workers: int) -> list:
    """``fn`` over ``workers`` contiguous chunks of ``items``, joined in order; chunk 0 runs in this process.

    ``fn`` takes a list and returns a list. Where ``fork_usable()`` is False
    it runs once, on all of ``items``, in this process. A child that ends
    without a result raises RuntimeError naming its range of item indices
    and its wait status.
    """
    if workers == 1 or not fork_usable():
        return list(fn(items))
    bounds = [len(items) * i // workers for i in range(workers + 1)]
    children: list[_Child] = []
    try:
        for i in range(1, workers):
            start, stop = bounds[i], bounds[i + 1]
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _run_child(fn, items[start:stop], write_fd, [read_fd] + [c.fd for c in children])
            os.close(write_fd)
            children.append(_Child(pid, read_fd, start, stop))
        out = list(fn(items[: bounds[1]]))
        for child in children:
            out.extend(child.result())
        return out
    finally:
        for child in children:
            child.close()
