"""Helpers the test modules share: finite-difference gradient checks, reference formulas and small fixtures."""

import math

import numpy as np

import dataclasses

from pddiag import autodiff as ad
from pddiag.aggregator import FusionProjection
from pddiag.autodiff import Tensor


def tsum(a: Tensor) -> Tensor:
    """Sum of every element, as a scalar graph node."""
    return Tensor(np.sum(a.data), parents=(a,), backward=lambda g: (np.broadcast_to(g, a.data.shape).copy(),))


def tdot(a: Tensor, coeff) -> Tensor:
    """Sum of every element of ``a`` weighted by the array ``coeff``, as a scalar graph node."""
    return Tensor(np.sum(a.data * coeff), parents=(a,), backward=lambda g: (g * coeff,))


def graph_nodes(root: Tensor) -> int:
    """Number of distinct tensors reachable from ``root`` through ``_parents``, root included."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def param_tensors(*parts) -> list[Tensor]:
    """The tensors of model parts (encoder, fusion, branch), in field order."""
    return [getattr(p, f.name) for p in parts for f in dataclasses.fields(p)]


def zero_fusion(channels: int) -> FusionProjection:
    """A fusion projection that adds nothing to the dense feature."""
    return FusionProjection(weight=ad.parameter(np.zeros((channels, 2))), bias=ad.parameter(np.zeros(channels)))


def softplus_pair(x):
    """The paper's softplus(x) - softplus(-x), evaluated term by term."""
    return np.logaddexp(0.0, x) - np.logaddexp(0.0, -x)


def gradient_check(loss_fn, params: list[Tensor], probe_count: int = 50, h: float = 1e-5, seed: int = 0) -> float:
    """Compare analytic gradients against central differences at random coordinates.

    loss_fn() must rebuild and return the scalar loss Tensor from scratch.
    Returns the max of |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    ad.zero_grads(params)
    root = loss_fn()
    if not np.isfinite(root.data):
        raise ValueError("loss is not finite")
    ad.backward(root)
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]

    sizes = np.array([p.data.size for p in params])
    offsets = np.cumsum(sizes)
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, int(sizes.sum()), size=probe_count)

    worst = 0.0
    for c in coords:
        k = int(np.searchsorted(offsets, c, side="right"))
        i = int(c - (offsets[k - 1] if k else 0))
        p = params[k]
        orig = p.data.flat[i]
        p.data.flat[i] = orig + h
        f_plus = float(loss_fn().data)
        p.data.flat[i] = orig - h
        f_minus = float(loss_fn().data)
        p.data.flat[i] = orig
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise ValueError("loss is not finite during probing")
        numeric = (f_plus - f_minus) / (2.0 * h)
        a = float(analytic[k].flat[i])
        rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
        worst = max(worst, rel)
    return worst
