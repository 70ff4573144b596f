"""Relevance-guided feature aggregation.

Pipeline: a small two-block 3-D encoder downsamples the volume, a (D, H, W)
float64 array, by 4x, per-region average pooling reduces the same volume to
one value per atlas region, the relevance weights collapse those into a
weighted (mean, std) pair, and a learned 2->C projection broadcasts that pair
back over the encoder grid and adds it in. The encoder is two ``conv_relu``
graph nodes and the fusion is one node over (dense, projection weight,
projection bias) with its backward written out in ``upsample_fuse``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .priors import RelevanceTable
from .volume_io import AtlasVolume, DimMismatch


class ChannelMismatch(ValueError):
    pass


class LengthMismatch(ValueError):
    pass


@dataclass(frozen=True)
class AggregatedFeature:
    mean: float
    std: float

    def as_vector(self) -> np.ndarray:
        return np.array([self.mean, self.std], dtype=np.float64)


@dataclass
class EncoderParams:
    """Two stride-2 conv blocks, widths 1 -> C/2 -> C, with ReLU after each."""

    conv1_w: Tensor
    conv1_b: Tensor
    conv2_w: Tensor
    conv2_b: Tensor

    @classmethod
    def init(cls, channels: int, rng: np.random.Generator) -> "EncoderParams":
        if channels < 2 or channels % 2:
            raise ValueError(f"channel width must be even and >= 2, got {channels}")
        mid = channels // 2
        w1 = rng.normal(0.0, np.sqrt(2.0 / 27.0), size=(mid, 1, 3, 3, 3))
        w2 = rng.normal(0.0, np.sqrt(2.0 / (27.0 * mid)), size=(channels, mid, 3, 3, 3))
        return cls(
            conv1_w=ad.parameter(w1),
            conv1_b=ad.parameter(np.zeros(mid)),
            conv2_w=ad.parameter(w2),
            conv2_b=ad.parameter(np.zeros(channels)),
        )

    @property
    def channels(self) -> int:
        return self.conv2_w.data.shape[0]


@dataclass
class FusionProjection:
    """Linear lift of the (mean, std) aggregate into channel space."""

    weight: Tensor  # (C, 2)
    bias: Tensor  # (C,)

    # Generous init scale: the aggregate is the prior signal and starts life
    # commensurate with the dense features instead of vanishing next to them.
    INIT_SCALE = 3.0

    @classmethod
    def init(cls, channels: int, rng: np.random.Generator) -> "FusionProjection":
        return cls(
            weight=ad.parameter(rng.normal(0.0, cls.INIT_SCALE, size=(channels, 2))),
            bias=ad.parameter(np.zeros(channels)),
        )

    @property
    def channels(self) -> int:
        return self.weight.data.shape[0]


def encode_dense(volume: np.ndarray, params: EncoderParams) -> Tensor:
    """Encode a (D, H, W) volume to a (C, ⌈D/4⌉, ⌈H/4⌉, ⌈W/4⌉) feature tensor."""
    x = ad.constant(volume[None, :, :, :])
    h1 = ad.conv_relu(x, params.conv1_w, params.conv1_b)
    return ad.conv_relu(h1, params.conv2_w, params.conv2_b)


def region_average_pool(volume: np.ndarray, atlas: AtlasVolume) -> np.ndarray:
    """(R,) mean intensity over each region's voxel set of the (D, H, W) volume, regions 1..R."""
    if volume.shape != atlas.dims:
        raise DimMismatch(f"volume dims {volume.shape} != atlas dims {atlas.dims}")
    sums = np.bincount(atlas.labels.ravel(), weights=volume.ravel(), minlength=atlas.region_count + 1)
    # region_sizes > 0 is an AtlasVolume invariant
    return sums[1:] / atlas.region_sizes


def weighted_aggregate(pooled: np.ndarray, table) -> AggregatedFeature:
    """Relevance-weighted mean and population-style std of the (R,) pooled values.

    ``table`` is a RelevanceTable or any array of strictly positive weights;
    only the relative scale of the weights matters.
    """
    theta = table.weights() if isinstance(table, RelevanceTable) else np.asarray(table, dtype=np.float64)
    if pooled.shape[0] != theta.shape[0]:
        raise LengthMismatch(f"pooled has {pooled.shape[0]} regions, weights have {theta.shape[0]}")
    if (theta <= 0).any():
        raise ValueError("region weights must be strictly positive")
    total = theta.sum()
    mean = float(np.dot(theta, pooled) / total)
    var = float(np.dot(theta, (pooled - mean) ** 2) / total)
    return AggregatedFeature(mean=mean, std=float(np.sqrt(var)))


def upsample_fuse(agg: AggregatedFeature, dense: Tensor, proj: FusionProjection) -> Tensor:
    """Broadcast proj @ (mean, std) + bias over the grid and add it to the (C, ...) dense tensor, as one node.

    The aggregate is data, so the node's parents are the dense tensor and the projection.
    """
    channels = dense.data.shape[0]
    if proj.channels != channels:
        raise ChannelMismatch(f"projection emits {proj.channels} channels, dense has {channels}")
    a = agg.as_vector()
    out = dense.data + (proj.weight.data @ a + proj.bias.data)[:, None, None, None]

    def back(g):
        gv = g.sum(axis=(1, 2, 3))
        return g, np.outer(gv, a), gv

    return Tensor(out, parents=(dense, proj.weight, proj.bias), backward=back)
