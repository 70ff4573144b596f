import numpy as np
import pytest

from pddiag.aggregator import region_average_pool
from pddiag.diagnoser import Label
from pddiag.priors import RelevanceClass
from pddiag.synth import (
    SynthConfig,
    effective_region_ages,
    generate_cohort,
    make_synth_atlas,
    split_cohort,
    synth_volume,
)


class TestConfig:
    def test_defaults_valid(self):
        cfg = SynthConfig()
        assert cfg.dims == (32, 32, 32)
        assert cfg.pd_fraction == 0.5

    def test_indivisible_dims_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            SynthConfig(dims=(30, 32, 32))

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(pd_fraction=1.5)

    def test_small_acceleration_warns(self):
        with pytest.warns(UserWarning, match="hinge"):
            SynthConfig(acceleration=4.0)

    def test_negative_subjects_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(n_subjects=-1)


class TestAtlasLayout:
    def test_blocks_partition_volume(self):
        sa = make_synth_atlas((32, 32, 32), 48)
        labels = sa.atlas.labels
        assert labels.min() == 1  # no background
        assert labels.max() == 48
        counts = np.bincount(labels.ravel(), minlength=49)[1:]
        assert (counts > 0).all()
        assert counts.sum() == 32**3

    def test_mirrors_default_table_at_48(self):
        sa = make_synth_atlas((32, 32, 32), 48)
        strong = {e.region_id for e in sa.table.entries if e.relevance is RelevanceClass.STRONG}
        assert strong == {3, 4, 7, 26}
        n_by_class = {
            cls: sum(1 for e in sa.table.entries if e.relevance is cls)
            for cls in RelevanceClass
        }
        assert n_by_class[RelevanceClass.STRONG] == 4
        assert n_by_class[RelevanceClass.POTENTIAL] == 9
        assert n_by_class[RelevanceClass.NONE] == 35

    def test_custom_region_count_proportions(self):
        sa = make_synth_atlas((24, 24, 24), 12)
        n_strong = sum(1 for e in sa.table.entries if e.relevance is RelevanceClass.STRONG)
        assert n_strong == max(1, round(12 * 4 / 48))

    def test_blocks_are_contiguous_slabs(self):
        sa = make_synth_atlas((8, 8, 8), 8)
        # 8 = 2x2x2 grid; first block occupies the first octant
        assert (sa.atlas.labels[:4, :4, :4] == 1).all()

    def test_too_many_regions_rejected(self):
        with pytest.raises(ValueError, match="tile"):
            make_synth_atlas((4, 4, 4), 1000)


class TestGeneration:
    def test_same_seed_byte_identical(self):
        a, _ = generate_cohort(SynthConfig(n_subjects=4, dims=(8, 8, 8), seed=5))
        b, _ = generate_cohort(SynthConfig(n_subjects=4, dims=(8, 8, 8), seed=5))
        for sa, sb in zip(a, b):
            assert sa.age == sb.age
            assert sa.label == sb.label
            assert sa.volume.data.tobytes() == sb.volume.data.tobytes()

    def test_different_seed_differs(self):
        a, _ = generate_cohort(SynthConfig(n_subjects=2, dims=(8, 8, 8), seed=5))
        b, _ = generate_cohort(SynthConfig(n_subjects=2, dims=(8, 8, 8), seed=6))
        assert a[0].volume.data.tobytes() != b[0].volume.data.tobytes()

    def test_empty_cohort_valid_atlas(self):
        cohort, sa = generate_cohort(SynthConfig(n_subjects=0, dims=(8, 8, 8)))
        assert len(cohort) == 0
        assert sa.atlas.region_count == 48

    def test_label_and_healthy_bookkeeping(self):
        cohort, _ = generate_cohort(SynthConfig(n_subjects=10, dims=(8, 8, 8), pd_fraction=0.4, healthy_fraction=0.5))
        n_pd = sum(1 for s in cohort if s.label is Label.PD)
        n_other = sum(1 for s in cohort if s.label is Label.OTHER)
        n_healthy = sum(1 for s in cohort if s.is_healthy)
        assert (n_pd, n_other) == (4, 6)
        assert n_healthy == 3
        assert all(s.label is Label.OTHER for s in cohort if s.is_healthy)

    def test_noise_free_closed_form_recoverability(self):
        cfg = SynthConfig(n_subjects=1, dims=(16, 16, 16), noise_std=0.0, seed=1)
        sa = make_synth_atlas(cfg.dims, cfg.region_count)
        rng = np.random.default_rng(0)
        vol = synth_volume(sa, age=61.0, is_pd=True, cfg=cfg, rng=rng)
        pooled = region_average_pool(vol, sa.atlas)
        expected = cfg.baseline + cfg.signal_gain * effective_region_ages(61.0, True, sa.table, cfg.acceleration)
        np.testing.assert_allclose(pooled, expected, rtol=0, atol=1e-12)

    def test_age_matched_strong_region_contrast(self):
        cfg = SynthConfig(n_subjects=1, dims=(16, 16, 16), noise_std=0.0)
        sa = make_synth_atlas(cfg.dims, cfg.region_count)
        rng = np.random.default_rng(0)
        pd_vol = synth_volume(sa, age=67.0, is_pd=True, cfg=cfg, rng=rng)
        ot_vol = synth_volume(sa, age=67.0, is_pd=False, cfg=cfg, rng=rng)
        pd_pool = region_average_pool(pd_vol, sa.atlas)
        ot_pool = region_average_pool(ot_vol, sa.atlas)
        strong = [e.region_id - 1 for e in sa.table.entries if e.relevance is RelevanceClass.STRONG]
        rest = [e.region_id - 1 for e in sa.table.entries if e.relevance is not RelevanceClass.STRONG]
        diff = pd_pool - ot_pool
        np.testing.assert_allclose(diff[strong], cfg.signal_gain * cfg.acceleration, atol=1e-12)
        np.testing.assert_allclose(diff[rest], 0.0, atol=1e-12)

    def test_separability_monotone_in_acceleration(self):
        sa = make_synth_atlas((16, 16, 16), 48)
        rng = np.random.default_rng(0)
        seps = []
        for accel in (4.0, 8.0, 16.0):
            with pytest.warns(UserWarning) if accel <= 5.0 else _nullcontext():
                cfg = SynthConfig(n_subjects=1, dims=(16, 16, 16), noise_std=0.0, acceleration=accel)
            pd_pool = region_average_pool(synth_volume(sa, 65.0, True, cfg, rng), sa.atlas)
            ot_pool = region_average_pool(synth_volume(sa, 65.0, False, cfg, rng), sa.atlas)
            seps.append(np.abs(pd_pool - ot_pool).max())
        assert seps[0] < seps[1] < seps[2]


class _nullcontext:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


class TestSplit:
    def _cohort(self, n_pd, n_other):
        cfg = SynthConfig(n_subjects=n_pd + n_other, dims=(8, 8, 8), pd_fraction=n_pd / (n_pd + n_other))
        cohort, _ = generate_cohort(cfg)
        return cohort

    def test_five_folds_of_ten(self):
        cohort = self._cohort(5, 5)
        splits = split_cohort(cohort, folds=5, seed=0)
        assert len(splits) == 5
        all_test = []
        for train, test in splits:
            assert len(test) == 2
            assert set(train) | set(test) == set(range(10))
            assert set(train) & set(test) == set()
            all_test.extend(test)
        assert sorted(all_test) == list(range(10))

    def test_stratification(self):
        cohort = self._cohort(6, 4)
        for train, test in split_cohort(cohort, folds=2, seed=1):
            test_labels = [cohort[i].label for i in test]
            assert sum(1 for l in test_labels if l is Label.PD) == 3
            assert sum(1 for l in test_labels if l is Label.OTHER) == 2

    def test_single_fold_rejected(self):
        with pytest.raises(ValueError, match="folds"):
            split_cohort(self._cohort(3, 3), folds=1, seed=0)

    def test_too_few_per_class(self):
        with pytest.raises(ValueError, match="fewer"):
            split_cohort(self._cohort(1, 9), folds=2, seed=0)

    def test_deterministic_per_seed(self):
        cohort = self._cohort(5, 5)
        assert split_cohort(cohort, 5, seed=3) == split_cohort(cohort, 5, seed=3)
        assert split_cohort(cohort, 5, seed=3) != split_cohort(cohort, 5, seed=4)
