"""Dual-branch diagnosis head: classification, brain-age regression, losses.

Branch 1 maps the fused feature to two logits (PD, other); branch 2 has the
same architecture with its own parameters and regresses brain age. The age
gap delta (predicted minus chronological) feeds a two-sided hinge loss and
an additive correction of the logits before cross entropy. The paper writes
the correction as alpha * (softplus(delta - tau) - softplus(tau - delta));
that difference is exactly delta - tau, so ``phi`` computes it in that
closed form. ``head`` is the one forward through both branches and the
correction, shared by ``total_loss`` and ``training.predict``.

Each branch is two graph nodes: a ``conv_relu`` and one node for the global
average pooling and the affine head, with its backward written out in
``_branch``, in the head's own shape: (2,) logits or a 0-d age. Each stage's
objective is one node with its own backward, beside the head: ``ce_loss_node``,
``squared_error`` and ``total_loss`` for stages 1, 2 and 3.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .priors import AgingPriorParams


class ShapeMismatch(ValueError):
    pass


class Label(enum.Enum):
    PD = "pd"
    OTHER = "other"


@dataclass
class BranchParams:
    """One stride-2 conv block, global average pooling, and an affine head."""

    conv_w: Tensor
    conv_b: Tensor
    head_w: Tensor  # (outputs, C)
    head_b: Tensor  # (outputs,)

    # Small head weights keep the initial outputs near ``head_bias``.
    HEAD_INIT_SCALE = 0.01

    @classmethod
    def init(cls, channels: int, outputs: int, rng: np.random.Generator, head_bias: float = 0.0) -> "BranchParams":
        fan_in = 27.0 * channels
        return cls(
            conv_w=ad.parameter(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(channels, channels, 3, 3, 3))),
            conv_b=ad.parameter(np.zeros(channels)),
            head_w=ad.parameter(rng.normal(0.0, cls.HEAD_INIT_SCALE, size=(outputs, channels))),
            head_b=ad.parameter(np.full(outputs, head_bias, dtype=np.float64)),
        )

    @property
    def outputs(self) -> int:
        return self.head_w.data.shape[0]


def _branch(fused: Tensor, params: BranchParams, shape: tuple[int, ...]) -> Tensor:
    """head_w @ mean(h) + head_b as ``shape``, h = conv_relu(fused); pooling and head are one node over h and the head."""
    if params.conv_w.data.shape[1] != fused.data.shape[0]:
        raise ShapeMismatch(f"branch expects {params.conv_w.data.shape[1]} channels, fused has {fused.data.shape[0]}")
    h = ad.conv_relu(fused, params.conv_w, params.conv_b)
    c = h.data.shape[0]
    n = h.data.size // c
    pooled = h.data.reshape(c, n).mean(axis=1)
    w = params.head_w.data

    def back(g):
        g = np.reshape(g, -1)  # the head's (outputs,)
        gp = w.T @ g
        return np.broadcast_to(gp[:, None, None, None] / n, h.data.shape).copy(), np.outer(g, pooled), g.copy()

    out = (w @ pooled + params.head_b.data).reshape(shape)
    return Tensor(out, parents=(h, params.head_w, params.head_b), backward=back)


def classify(fused: Tensor, params: BranchParams) -> Tensor:
    """The (2,) logits (z_pd, z_ot) from the fused feature."""
    if params.outputs != 2:
        raise ShapeMismatch(f"classifier head must emit 2 logits, emits {params.outputs}")
    return _branch(fused, params, (2,))


def predict_brain_age(fused: Tensor, params: BranchParams) -> Tensor:
    """0-d brain-age estimate in years (differentiable; .item() for the float)."""
    if params.outputs != 1:
        raise ShapeMismatch(f"age head must emit 1 output, emits {params.outputs}")
    # the head is (1, C), as checkpoints store it; its one output is the 0-d node
    return _branch(fused, params, ())


def phi(delta: float, tau: float) -> float:
    """The paper's softplus(delta - tau) - softplus(tau - delta), in its closed form delta - tau."""
    return delta - tau


def age_loss(delta: float, label: Label, prior: AgingPriorParams) -> float:
    """Hinge penalty: PD below zeta, others above tau; a NaN gap scores 0, as a ReLU maps it."""
    gap = prior.zeta - delta if label is Label.PD else delta - prior.tau
    return gap if gap > 0.0 else 0.0


def decide(z_tilde: np.ndarray) -> tuple[Label, float]:
    """Softmax readout of (2,) logits; PD iff p_pd > 0.5, exact ties go to OTHER."""
    d = float(z_tilde[0]) - float(z_tilde[1])
    if d >= 0:
        p_pd = 1.0 / (1.0 + math.exp(-d))
    else:
        e = math.exp(d)
        p_pd = e / (1.0 + e)
    return (Label.PD if p_pd > 0.5 else Label.OTHER), p_pd


def _cross_entropy(logits: np.ndarray, label: Label) -> tuple:
    """logsumexp(logits) - logits[label's index], and the map from its upstream gradient g to d/d(logits)."""
    index = 0 if label is Label.PD else 1
    m = np.max(logits)
    lse = np.log(np.sum(np.exp(logits - m))) + m

    def grad(g):
        ga = g * np.exp(logits - lse)
        ga[index] -= g
        return ga

    return lse - logits[index], grad


def ce_loss_node(logits: Tensor, label: Label) -> Tensor:
    """Stage 1's objective: the two-class cross entropy of (2,) logits, as one node."""
    value, grad = _cross_entropy(logits.data, label)
    return Tensor(value, parents=(logits,), backward=lambda g: (grad(g),))


def squared_error(age: Tensor, target: float) -> Tensor:
    """Stage 2's objective: (age - target)², as one node; 2 * (g * err) is bitwise g * err + g * err."""
    err = age.data - target
    return Tensor(err * err, parents=(age,), backward=lambda g: (2.0 * (g * err),))


@dataclass
class HeadOutput:
    z: Tensor  # (2,) logits of branch 1
    predicted_age: Tensor  # scalar, years
    delta: float  # age gap: predicted minus chronological
    corrected: np.ndarray  # (2,) logits z + [alpha, -alpha] * phi(delta, tau)


def head(
    fused: Tensor,
    age_chrono: float,
    branch1: BranchParams,
    branch2: BranchParams,
    prior: AgingPriorParams,
) -> HeadOutput:
    """Both branches and the age-corrected logits: the one diagnosis forward.

    Training builds its loss on top of it; prediction runs it on constant
    parameters and reads the corrected logits with decide().
    """
    pred = predict_brain_age(fused, branch2)
    delta = pred.item() - age_chrono
    z = classify(fused, branch1)
    corrected = z.data + np.array([prior.alpha, -prior.alpha]) * phi(delta, prior.tau)
    return HeadOutput(z=z, predicted_age=pred, delta=delta, corrected=corrected)


@dataclass
class LossBreakdown(HeadOutput):
    node: Tensor  # scalar total-loss graph root
    age: float
    cls: float


def total_loss(
    fused: Tensor,
    age_chrono: float,
    label: Label,
    branch1: BranchParams,
    branch2: BranchParams,
    prior: AgingPriorParams,
) -> LossBreakdown:
    """Hinge age loss plus corrected cross entropy, as one node over z and the predicted age.

    The predicted age's gradient sums the correction's sum(gz * [alpha, -alpha])
    and the hinge's slope times g; an inactive hinge's slope is a zero of the
    active slope's sign, so each gradient is bitwise the node-by-node one.
    """
    out = head(fused, age_chrono, branch1, branch2, prior)
    l_age = age_loss(out.delta, label, prior)
    l_cls, cls_grad = _cross_entropy(out.corrected, label)
    slope = (-1.0 if label is Label.PD else 1.0) * (1.0 if l_age > 0.0 else 0.0)
    shift = np.array([prior.alpha, -prior.alpha])

    def back(g):
        gz = cls_grad(g)
        return gz, np.sum(gz * shift) + slope * g

    return LossBreakdown(
        **vars(out),
        node=Tensor(l_age + l_cls, parents=(out.z, out.predicted_age), backward=back),
        age=l_age,
        cls=float(l_cls),
    )
