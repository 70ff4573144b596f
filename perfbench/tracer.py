"""Per-layer tracing of pddiag from outside the program.

Nothing in ``src/`` knows about this module. ``Tracer.installed()`` replaces
each traced function under every name a pddiag module looks it up by, and
puts the originals back on exit:

- ``pddiag.training`` imports ``encode_dense``, ``classify``, ``total_loss``
  and others by name, so the wrapper is bound into ``pddiag.training`` (and
  into ``pddiag.diagnoser``, whose ``total_loss`` calls ``classify``).
- autodiff ops are looked up as ``ad.<op>`` at call time, so patching the
  attribute of ``pddiag.autodiff`` is enough.
- conv backward time is taken by wrapping the ``_backward`` closure of each
  tensor that ``conv3d_down`` returns.
- tool time is taken by giving ``pddiag.preprocess`` a ``subprocess`` whose
  ``run`` is timed; the real module stays untouched for everyone else.

Every span records its total and its self time (total minus the time of the
traced spans it encloses), per thread, because ``run_pipeline`` calls tools
from worker threads.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import threading
import time
from dataclasses import dataclass


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    amount: float = 0.0  # bytes, computed FLOPs or graph nodes, by span

    def merged(self, other: "Stat") -> "Stat":
        return Stat(
            self.calls + other.calls,
            self.total_s + other.total_s,
            self.self_s + other.self_s,
            self.amount + other.amount,
        )


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def take(self) -> dict[str, Stat]:
        """Return the statistics gathered so far and start afresh."""
        with self._lock:
            stats, self.stats = self.stats, {}
        return stats

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.stats.setdefault(name, Stat()).amount += amount

    def timed(self, name: str, fn, *args, **kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = stack.pop()
            if stack:
                stack[-1] += dt
            with self._lock:
                s = self.stats.setdefault(name, Stat())
                s.calls += 1
                s.total_s += dt
                s.self_s += dt - child

    @contextlib.contextmanager
    def installed(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "pddiag" or n.startswith("pddiag.")]
        try:
            for modname, attr, make in _TARGETS:
                original = getattr(sys.modules[modname], attr)
                wrapper = make(self, f"{modname.rsplit('.', 1)[-1]}.{attr}", original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._undo.append((m, key, value))
                            setattr(m, key, wrapper)
            prep = sys.modules["pddiag.preprocess"]
            self._undo.append((prep, "subprocess", prep.subprocess))
            prep.subprocess = _TimedSubprocess(self, prep.subprocess)
            yield self
        finally:
            while self._undo:
                m, key, value = self._undo.pop()
                setattr(m, key, value)


class _TimedSubprocess:
    """Stands in for the ``subprocess`` module inside ``pddiag.preprocess`` only."""

    def __init__(self, tracer: Tracer, real):
        self._tracer = tracer
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)

    def run(self, *args, **kwargs):
        return self._tracer.timed("preprocess.tool", self._real.run, *args, **kwargs)


def _plain(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.timed(name, fn, *args, **kwargs)

    return wrapper


def _file_bytes(tracer: Tracer, name: str, fn):
    """Time a volume read or write and count the size of the file it touched."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = tracer.timed(name, fn, *args, **kwargs)
        tracer.count(name, os.path.getsize(sig.bind(*args, **kwargs).arguments["path"]))
        return out

    return wrapper


def conv_name(cin: int, cout: int, edge: int) -> str:
    return f"autodiff.conv3d_down.{cin}-{cout}-d{edge}"


def _conv(tracer: Tracer, _name: str, fn):
    @functools.wraps(fn)
    def conv3d_down(x, w, b):
        cout, cin = w.data.shape[:2]
        name = conv_name(cin, cout, x.data.shape[1])
        out = tracer.timed(name + ".fwd", fn, x, w, b)
        # computed, not counted: one multiply-add per weight per output voxel
        flops = 2 * w.data.size * (out.data.size // cout)
        tracer.count(name + ".fwd", flops)
        back = out._backward
        # the weight gradient always, the input gradient only when x needs one
        back_flops = flops * (2 if x.requires_grad else 1)

        def timed_back(g):
            tracer.count(name + ".bwd", back_flops)
            return tracer.timed(name + ".bwd", back, g)

        out._backward = timed_back
        return out

    return conv3d_down


def graph_nodes(root) -> int:
    """Number of distinct tensors reachable from ``root`` through ``_parents``."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def _backward(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def backward(root, *args, **kwargs):
        tracer.count(name, graph_nodes(root))
        return tracer.timed(name, fn, root, *args, **kwargs)

    return backward


AGGREGATOR_FNS = ("encode_dense", "region_average_pool", "weighted_aggregate", "upsample_fuse")
DIAGNOSER_FNS = ("classify", "predict_brain_age", "total_loss", "ce_loss_node")

_TARGETS = (
    [("pddiag.autodiff", "conv3d_down", _conv), ("pddiag.autodiff", "backward", _backward)]
    + [("pddiag.aggregator", fn, _plain) for fn in AGGREGATOR_FNS]
    + [("pddiag.diagnoser", fn, _plain) for fn in DIAGNOSER_FNS]
    + [("pddiag.training", fn, _plain) for fn in ("adamw_step", "save_checkpoint", "load_checkpoint")]
    + [("pddiag.volume_io", fn, _file_bytes) for fn in ("read_volume", "write_volume")]
    + [("pddiag.cohort", "read_manifest", _plain)]
)
