import numpy as np
import pytest

from helpers import gradient_check, param_tensors, tdot, zero_fusion
from pddiag.aggregator import (
    AggregatedFeature,
    ChannelMismatch,
    EncoderParams,
    FusionProjection,
    LengthMismatch,
    encode_dense,
    region_average_pool,
    upsample_fuse,
    weighted_aggregate,
)
from pddiag.priors import RegionEntry, RelevanceClass, RelevanceTable
from pddiag.volume_io import AtlasVolume, DimMismatch, read_volume, write_volume


def random_atlas(rng, dims, regions):
    labels = rng.integers(1, regions + 1, size=dims)
    labels.flat[:regions] = np.arange(1, regions + 1)  # every region nonempty
    return AtlasVolume(labels=labels, region_count=regions)


def uniform_table(r):
    return RelevanceTable(tuple(RegionEntry(i, f"r{i}", RelevanceClass.STRONG) for i in range(1, r + 1)))


class TestEncodeDense:
    def test_output_shape(self):
        params = EncoderParams.init(8, np.random.default_rng(0))
        out = encode_dense(np.zeros((32, 32, 32)), params)
        assert out.data.shape == (8, 8, 8, 8)
        assert encode_dense(np.zeros((7, 9, 5)), params).data.shape == (8, 2, 3, 2)  # ceil(d / 4) per axis

    def test_zero_input_zero_bias_gives_zero(self):
        params = EncoderParams.init(6, np.random.default_rng(1))
        out = encode_dense(np.zeros((8, 8, 8)), params)
        assert (out.data == 0.0).all()

    def test_accepts_a_read_volume(self, tmp_path):
        params = EncoderParams.init(4, np.random.default_rng(3))
        write_volume(np.ones((8, 8, 8)), tmp_path / "v.nii")
        assert encode_dense(read_volume(tmp_path / "v.nii"), params).data.shape == (4, 2, 2, 2)

    def test_gradient_check(self):
        rng = np.random.default_rng(4)
        params = EncoderParams.init(4, rng)
        vol = rng.standard_normal((8, 8, 8))
        coeff = rng.standard_normal((4, 2, 2, 2))

        def loss():
            return tdot(encode_dense(vol, params), coeff)

        tensors = param_tensors(params)
        assert gradient_check(loss, tensors, probe_count=60, seed=5) < 1e-4

    def test_channels_must_be_even(self):
        with pytest.raises(ValueError, match="even"):
            EncoderParams.init(5, np.random.default_rng(0))


class TestRegionPool:
    def test_constant_volume(self):
        rng = np.random.default_rng(5)
        atlas = random_atlas(rng, (4, 4, 4), 3)
        pooled = region_average_pool(np.full((4, 4, 4), 7.3), atlas)
        np.testing.assert_allclose(pooled, 7.3, rtol=0, atol=1e-12)

    def test_single_region_is_global_mean(self):
        rng = np.random.default_rng(6)
        vol = rng.standard_normal((4, 4, 4))
        atlas = AtlasVolume(labels=np.ones((4, 4, 4), dtype=np.int64), region_count=1)
        pooled = region_average_pool(vol, atlas)
        assert pooled[0] == pytest.approx(vol.mean(), abs=1e-14)

    def test_matches_bruteforce_voxel_loop(self):
        rng = np.random.default_rng(7)
        vol = rng.standard_normal((4, 4, 4))
        atlas = random_atlas(rng, (4, 4, 4), 3)
        pooled = region_average_pool(vol, atlas)
        sums = np.zeros(3)
        counts = np.zeros(3)
        for d in range(4):
            for h in range(4):
                for w in range(4):
                    r = atlas.labels[d, h, w]
                    sums[r - 1] += vol[d, h, w]
                    counts[r - 1] += 1
        np.testing.assert_allclose(pooled, sums / counts, rtol=0, atol=1e-12)

    def test_dim_mismatch(self):
        atlas = AtlasVolume(labels=np.ones((4, 4, 4), dtype=np.int64), region_count=1)
        with pytest.raises(DimMismatch):
            region_average_pool(np.zeros((4, 4, 8)), atlas)

    def test_linearity(self):
        rng = np.random.default_rng(8)
        atlas = random_atlas(rng, (6, 6, 6), 4)
        v1, v2 = rng.standard_normal((2, 6, 6, 6))
        a, b = 2.5, -1.25
        combo = region_average_pool(a * v1 + b * v2, atlas)
        parts = a * region_average_pool(v1, atlas) + b * region_average_pool(v2, atlas)
        np.testing.assert_allclose(combo, parts, atol=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            vol = rng.standard_normal((4, 4, 4))
            atlas = random_atlas(rng, (4, 4, 4), 5)
            pooled = region_average_pool(vol, atlas)
            assert (pooled >= vol.min() - 1e-12).all()
            assert (pooled <= vol.max() + 1e-12).all()


class TestWeightedAggregate:
    def test_constant_pooled_zero_std(self):
        pooled = np.full(48, 3.25)
        from pddiag.priors import default_relevance_table

        agg = weighted_aggregate(pooled, default_relevance_table())
        assert agg.mean == pytest.approx(3.25, abs=1e-14)
        assert agg.std == pytest.approx(0.0, abs=1e-12)

    def test_uniform_weights_example(self):
        # mean 2, population std sqrt(2/3) for [1, 2, 3]
        agg = weighted_aggregate(np.array([1.0, 2.0, 3.0]), uniform_table(3))
        assert agg.mean == pytest.approx(2.0, abs=1e-15)
        assert agg.std == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-15)

    def test_weight_rescaling_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            pooled = rng.standard_normal(7)
            theta = rng.uniform(0.1, 5.0, size=7)
            a = weighted_aggregate(pooled, theta)
            b = weighted_aggregate(pooled, theta * 10.0)
            assert a.mean == pytest.approx(b.mean, rel=1e-12)
            assert a.std == pytest.approx(b.std, rel=1e-12, abs=1e-12)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(11)
        pooled = rng.standard_normal(5)
        theta = rng.uniform(0.5, 2.0, size=5)
        a, b = -2.0, 7.5
        base = weighted_aggregate(pooled, theta)
        moved = weighted_aggregate(a * pooled + b, theta)
        assert moved.mean == pytest.approx(a * base.mean + b, rel=1e-12)
        assert moved.std == pytest.approx(abs(a) * base.std, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            weighted_aggregate(np.zeros(3), uniform_table(4))

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            weighted_aggregate(np.zeros(2), np.array([1.0, 0.0]))


class TestUpsampleFuse:
    def test_zero_projection_is_identity(self):
        rng = np.random.default_rng(12)
        params = EncoderParams.init(4, rng)
        dense = encode_dense(rng.standard_normal((8, 8, 8)), params)
        fused = upsample_fuse(AggregatedFeature(5.0, 2.0), dense, zero_fusion(4))
        np.testing.assert_array_equal(fused.data, dense.data)

    def test_column_selector_construction(self):
        rng = np.random.default_rng(13)
        dense = encode_dense(rng.standard_normal((8, 8, 8)), EncoderParams.init(4, rng))
        proj = zero_fusion(4)
        proj.weight.data[0, 0] = 1.0  # channel 0 <- mean with weight 1
        fused = upsample_fuse(AggregatedFeature(1.0, 0.0), dense, proj)
        # per-voxel oracle loop
        for c in range(4):
            for d in range(2):
                for h in range(2):
                    for w in range(2):
                        expected = dense.data[c, d, h, w] + (1.0 if c == 0 else 0.0)
                        assert fused.data[c, d, h, w] == expected

    def test_shape_preserved(self):
        rng = np.random.default_rng(14)
        dense = encode_dense(rng.standard_normal((8, 8, 8)), EncoderParams.init(6, rng))
        fused = upsample_fuse(AggregatedFeature(0.3, 0.1), dense, FusionProjection.init(6, rng))
        assert fused.data.shape == dense.data.shape

    def test_channel_mismatch(self):
        rng = np.random.default_rng(15)
        dense = encode_dense(np.zeros((8, 8, 8)), EncoderParams.init(4, rng))
        with pytest.raises(ChannelMismatch):
            upsample_fuse(AggregatedFeature(0.0, 0.0), dense, FusionProjection.init(6, rng))

    def test_gradient_check(self):
        rng = np.random.default_rng(16)
        enc = EncoderParams.init(4, rng)
        proj = FusionProjection.init(4, rng)
        vol = rng.standard_normal((8, 8, 8))
        coeff = rng.standard_normal((4, 2, 2, 2))

        def loss():
            dense = encode_dense(vol, enc)
            fused = upsample_fuse(AggregatedFeature(0.7, 0.4), dense, proj)
            return tdot(fused, coeff)

        tensors = param_tensors(proj, enc)
        assert gradient_check(loss, tensors, probe_count=60, seed=17) < 1e-4

    def test_zero_fusion_blocks_prior_path(self):
        # with a zero projection the output cannot depend on the aggregate
        rng = np.random.default_rng(18)
        dense = encode_dense(rng.standard_normal((8, 8, 8)), EncoderParams.init(4, rng))
        proj = zero_fusion(4)
        a = upsample_fuse(AggregatedFeature(123.0, 45.0), dense, proj)
        b = upsample_fuse(AggregatedFeature(-7.0, 0.0), dense, proj)
        np.testing.assert_array_equal(a.data, b.data)
