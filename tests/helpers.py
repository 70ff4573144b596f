"""Helpers the test modules share: finite-difference gradient checks, reference formulas and small fixtures."""

import math

import numpy as np

import dataclasses

from pddiag import autodiff as ad
from pddiag.aggregator import FusionProjection, encode_dense, region_average_pool, upsample_fuse, weighted_aggregate
from pddiag.autodiff import Tensor
from pddiag.diagnoser import ce_loss_node, classify, predict_brain_age, squared_error, total_loss
from pddiag.priors import AgingPriorParams
from pddiag.training import ModelParams


def tsum(a: Tensor) -> Tensor:
    """Sum of every element, as a scalar graph node."""
    return Tensor(np.sum(a.data), parents=(a,), backward=lambda g: (np.broadcast_to(g, a.data.shape).copy(),))


def tdot(a: Tensor, coeff) -> Tensor:
    """Sum of every element of ``a`` weighted by the array ``coeff``, as a scalar graph node."""
    return Tensor(np.sum(a.data * coeff), parents=(a,), backward=lambda g: (g * coeff,))


def linear(w: Tensor, x: Tensor, b: Tensor) -> Tensor:
    """w @ x + b for w (m, n), x (n,), b (m,), as one node with a gradient for each of w, x and b."""
    out = w.data @ x.data + b.data

    def back(g):
        return np.outer(g, x.data), w.data.T @ g, g.copy()

    return Tensor(out, parents=(w, x, b), backward=back)


def pick(a: Tensor, index: int) -> Tensor:
    """Element ``index`` of ``a``, as a scalar node; with composed_branch, the age head node by node."""

    def back(g):
        ga = np.zeros_like(a.data)
        ga[index] = g
        return (ga,)

    return Tensor(a.data[index], parents=(a,), backward=back)


def composed_upsample_fuse(agg, dense: Tensor, proj: FusionProjection) -> Tensor:
    """upsample_fuse node by node: a constant aggregate, a linear node, then a channel-broadcast add node."""
    vec = linear(proj.weight, ad.constant(agg.as_vector()), proj.bias)
    out = dense.data + vec.data[:, None, None, None]
    return Tensor(out, parents=(dense, vec), backward=lambda g: (g, g.sum(axis=(1, 2, 3))))


def composed_branch(fused: Tensor, params) -> Tensor:
    """A branch's output node by node: conv_relu, a global-average-pool node, then a linear node."""
    h = ad.conv_relu(fused, params.conv_w, params.conv_b)
    c = h.data.shape[0]
    n = h.data.size // c
    pooled = Tensor(
        h.data.reshape(c, n).mean(axis=1),
        parents=(h,),
        backward=lambda g: (np.broadcast_to(g[:, None, None, None] / n, h.data.shape).copy(),),
    )
    return linear(params.head_w, pooled, params.head_b)


def copy_params(params):
    """An independent, trainable copy of a ModelParams: fresh parameter arrays with equal values."""
    return params.rebuilt(lambda _, t: ad.parameter(t.data))


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


def stage_graph_nodes(record, synth_atlas) -> tuple[int, int, int]:
    """Nodes of one subject's stage-1, stage-2 and stage-3 loss graphs, counted as the backward engine walks them."""
    params = ModelParams.init(4, seed=0)
    agg = weighted_aggregate(region_average_pool(record.volume, synth_atlas.atlas), synth_atlas.table)

    def fused(model):
        return upsample_fuse(agg, encode_dense(record.volume, model.encoder), model.fusion)

    stage1 = ce_loss_node(classify(fused(params), params.branch1), record.label)
    # stage 2 fits the age branch on fixed features, as train_stage does
    stage2 = squared_error(predict_brain_age(fused(params.frozen()), params.branch2), record.age)
    prior = AgingPriorParams()
    stage3 = total_loss(fused(params), record.age, record.label, params.branch1, params.branch2, prior).node
    return graph_nodes(stage1), graph_nodes(stage2), graph_nodes(stage3)


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
