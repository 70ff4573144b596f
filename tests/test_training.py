import contextlib
import json
import math
import os
import signal
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import copy_params, gradient_check, stage_graph_nodes
from pddiag import autodiff as ad
from pddiag import forkmap
from pddiag import training as tr
from pddiag.aggregator import encode_dense, region_average_pool, upsample_fuse, weighted_aggregate
from pddiag.cli import main as cli_main
from pddiag.cohort import Cohort, SubjectRecord, read_manifest
from pddiag.diagnoser import Label, decide, squared_error, total_loss
from pddiag.forkmap import usable_cpus
from pddiag.priors import AgingPriorParams, load_relevance_table
from pddiag.synth import SynthConfig, generate_cohort
from pddiag.volume_io import DimMismatch, NiftiFormatError, TruncatedData, TruncatedHeader, read_atlas


@pytest.fixture(scope="module")
def tiny_setup():
    cfg = SynthConfig(n_subjects=12, dims=(16, 16, 16), noise_std=1.0, seed=3)
    cohort, satlas = generate_cohort(cfg)
    return cohort, satlas


PRIOR = AgingPriorParams()


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert tr.cosine_lr(0, 100, 1e-3) == 1e-3
        assert tr.cosine_lr(100, 100, 1e-3) == pytest.approx(0.0, abs=1e-19)
        assert tr.cosine_lr(50, 100, 1e-3) == pytest.approx(5e-4, abs=1e-18)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            tr.cosine_lr(101, 100, 1e-3)
        with pytest.raises(ValueError):
            tr.cosine_lr(-1, 100, 1e-3)


def adamw_scalar_oracle(w, g, lrs, wd):
    """Independent reimplementation of the decoupled-decay update, one step per lr in ``lrs``."""
    m = v = 0.0
    for t, lr in enumerate(lrs, start=1):
        w = w * (1.0 - lr * wd)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1.0 - 0.9**t)
        v_hat = v / (1.0 - 0.999**t)
        w = w - lr * m_hat / (math.sqrt(v_hat) + 1e-8)
    return w


class TestAdamW:
    def _single(self, w0):
        p = ad.parameter(np.array(w0))
        state = tr.OptimState.init([p], base_lr=0.1, weight_decay=0.0, total_steps=10)
        return p, state

    def test_zero_grad_zero_decay_identity(self):
        p, state = self._single(1.5)
        p.grad = np.zeros(())
        tr.adamw_step([p], state)
        assert p.data == 1.5

    def test_matches_scalar_oracle_first_step(self):
        p, state = self._single(1.0)
        p.grad = np.asarray(1.0)
        tr.adamw_step([p], state)  # lr = cosine(0, 10) = base
        assert float(p.data) == pytest.approx(adamw_scalar_oracle(1.0, 1.0, [0.1], 0.0), abs=1e-12)

    def test_matches_scalar_oracle_many_steps(self):
        p = ad.parameter(np.array(0.7))
        state = tr.OptimState.init([p], base_lr=0.05, weight_decay=0.01, total_steps=100)
        for _ in range(7):
            p.grad = np.asarray(-0.3)
            tr.adamw_step([p], state)
        lrs = [0.05 * 0.5 * (1.0 + math.cos(math.pi * t / 100)) for t in range(7)]  # the cosine lr of each step
        assert float(p.data) == pytest.approx(adamw_scalar_oracle(0.7, -0.3, lrs, 0.01), abs=1e-12)

    def test_decoupled_decay_with_zero_grad(self):
        p = ad.parameter(np.array(2.0))
        state = tr.OptimState.init([p], base_lr=0.1, weight_decay=0.5, total_steps=10)
        p.grad = np.zeros(())
        tr.adamw_step([p], state)
        assert float(p.data) == pytest.approx(2.0 * (1.0 - 0.1 * 0.5), abs=1e-15)

    def test_lr_zero_is_identity(self):
        p = ad.parameter(np.array([1.0, -2.0]))
        state = tr.OptimState.init([p], base_lr=0.0, weight_decay=0.9, total_steps=10)
        p.grad = np.array([5.0, -7.0])
        tr.adamw_step([p], state)
        assert (p.data == [1.0, -2.0]).all()

    def test_nonfinite_gradient_fails_fast(self):
        p, state = self._single(1.0)
        p.grad = np.asarray(np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            tr.adamw_step([p], state)

    @pytest.mark.parametrize("bad", ["nan", "shape"])
    def test_refusal_leaves_params_and_state_unchanged(self, bad):
        params = tr.ModelParams.init(4, 0).params()
        state = tr.OptimState.init(params, base_lr=0.1, weight_decay=0.01, total_steps=10)
        for p in params:
            p.grad = np.ones_like(p.data)
        tr.adamw_step(params, state)  # m and v become nonzero
        params[-1].grad = np.full_like(params[-1].data, np.nan) if bad == "nan" else np.ones(7)
        before = ([p.data.copy() for p in params], [m.copy() for m in state.m], [v.copy() for v in state.v])
        with pytest.raises(tr.ShapeMismatch if bad == "shape" else ValueError):
            tr.adamw_step(params, state)
        assert state.step == 1
        for now, then in zip(([p.data for p in params], state.m, state.v), before):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(now, then))

    def test_schedule_used_when_lr_omitted(self):
        p = ad.parameter(np.array(1.0))
        state = tr.OptimState.init([p], base_lr=0.1, weight_decay=0.0, total_steps=2)
        p.grad = np.asarray(1.0)
        tr.adamw_step([p], state)  # lr = cosine(0, 2) = base
        assert float(p.data) == pytest.approx(adamw_scalar_oracle(1.0, 1.0, [0.1], 0.0), abs=1e-12)


class TestGradientCheck:
    def test_quadratic_exact(self):
        w = ad.parameter(np.array(3.0))

        def loss():
            return squared_error(w, 0.0)

        assert gradient_check(loss, [w], probe_count=5, seed=0) < 1e-10

    def test_nan_loss_rejected(self):
        w = ad.parameter(np.array(1.0))

        def loss():
            return ad.constant(np.nan)

        with pytest.raises(ValueError):
            gradient_check(loss, [w], probe_count=1)


class TestMetrics:
    def test_fixture_counts(self):
        m = tr.Metrics.from_counts(tp=3, tn=4, fp=1, fn=2)
        assert m.acc == pytest.approx(0.7)
        assert m.tpr == pytest.approx(0.6)
        assert m.fpr == pytest.approx(0.2)

    def test_all_correct(self):
        m = tr.Metrics.from_counts(tp=5, tn=5, fp=0, fn=0)
        assert m.acc == 1.0
        assert m.fpr == 0.0

    def test_undefined_ratios(self):
        m = tr.Metrics.from_counts(tp=0, tn=3, fp=1, fn=0)
        assert m.tpr is None
        assert "tpr=undefined" in m.to_kv_text()

    def test_identities(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            tp, tn, fp, fn = (int(x) for x in rng.integers(1, 20, size=4))
            m = tr.Metrics.from_counts(tp, tn, fp, fn)
            assert m.acc * (tp + tn + fp + fn) == pytest.approx(tp + tn)
            assert m.tpr * (tp + fn) == pytest.approx(tp)
            assert m.fpr * (fp + tn) == pytest.approx(fp)


def auc_pairwise_oracle(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    wins = sum(1 for p in pos for n in neg if p > n)
    ties = sum(1 for p in pos for n in neg if p == n)
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_separation(self):
        assert tr.roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert tr.roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == pytest.approx(0.5)

    def test_known_value(self):
        # pairwise oracle: 3 wins, 0 ties of 4 pairs
        assert tr.roc_auc([0.9, 0.4, 0.6, 0.1], [1, 1, 0, 0]) == pytest.approx(0.75)

    def test_sweep_equals_pairwise(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0], labels[-1] = 0, 1
            scores = np.round(rng.uniform(0, 1, size=n), 2)  # rounding forces ties
            assert tr.roc_auc(scores, labels) == pytest.approx(auc_pairwise_oracle(scores, labels), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            tr.roc_auc([0.5, 0.6], [1, 1])

    @pytest.mark.parametrize("where", [0, 1, 3])
    def test_nan_score_is_named(self, where):
        scores = [0.9, 0.4, 0.6, 0.1]
        scores[where] = math.nan
        records = [
            tr.PredictionRecord(f"s{i}", label, p, 0.0, 60.0, Label.OTHER)
            for i, (p, label) in enumerate(zip(scores, [Label.PD, Label.PD, Label.OTHER, Label.OTHER]))
        ]
        for compute in (
            lambda: tr.roc_points(scores, [1, 1, 0, 0]),
            lambda: tr.roc_auc(scores, [1, 1, 0, 0]),
            lambda: tr.metrics_from_records(records),
        ):
            with pytest.raises(ValueError, match=rf"scores\[{where}\] is NaN"):
                compute()

    @pytest.mark.parametrize("scores, labels", [([0.9, 0.1], [1, 0, 0]), ([0.9, 0.1, 0.5], [1, 0])])
    def test_scores_and_labels_of_different_lengths_rejected(self, scores, labels):
        # an extra label once counted as a negative never reached, and the area read 0.5
        with pytest.raises(ValueError, match=f"{len(scores)} scores but {len(labels)} labels"):
            tr.roc_auc(scores, labels)

    def test_roc_points_monotone(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(0, 1, 20)
        labels = rng.integers(0, 2, 20)
        labels[0], labels[1] = 0, 1
        pts = tr.roc_points(scores, labels)
        assert pts[0] == (0.0, 0.0, math.inf)
        assert pts[-1][0] == 1.0 and pts[-1][1] == 1.0
        fprs = [p[0] for p in pts]
        tprs = [p[1] for p in pts]
        assert fprs == sorted(fprs)
        assert tprs == sorted(tprs)

    # a few shared values force tie groups; "+ 0.0" turns -0.0 into the 0.0 it ties with
    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.1, 1 / 3, 0.5, 1.0, math.inf]) | st.floats(-1e3, 1e3).map(lambda x: x + 0.0),
                st.sampled_from([0, 1, Label.PD, Label.OTHER]),
            ),
            min_size=2,
            max_size=40,
        ).filter(lambda rows: {y in (1, Label.PD) for _, y in rows} == {True, False}),
    )
    def test_roc_points_equal_brute_force_thresholds(self, rows):
        scores = [s for s, _ in rows]
        positive = [y in (1, Label.PD) for _, y in rows]
        n_pos, n_neg = sum(positive), len(rows) - sum(positive)
        expected = [(0.0, 0.0, math.inf)]
        for t in sorted(set(scores), reverse=True):
            tp = sum(1 for s, p in zip(scores, positive) if s >= t and p)
            fp = sum(1 for s, p in zip(scores, positive) if s >= t and not p)
            expected.append((fp / n_neg, tp / n_pos, t))
        got = tr.roc_points(scores, [y for _, y in rows])
        assert got == expected
        assert all(type(v) is float for row in got for v in row)

    @pytest.mark.parametrize("bad", [2, -1, 0.5, "pd", None])
    def test_label_outside_binary_is_named(self, bad):
        # a label of 2 once counted twice: the sweep reached fpr 2.0 and the area read 1.0
        for compute in (tr.roc_points, tr.roc_auc):
            with pytest.raises(ValueError, match=r"labels\[0\] is not a Label or 0/1"):
                compute([0.9, 0.1, 0.5], [bad, 0, 1])


# numbers at the edges of what int(), math.prod and numpy accept, then any JSON value
JSON_VALUES = st.sampled_from([float("inf"), float("nan"), -1, 0, 2, 2**70, [0, 2**70]]) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


class TestCheckpoints:
    def test_round_trip_bit_identical(self, tmp_path):
        params = tr.ModelParams.init(8, seed=11)
        state = tr.OptimState.init(params.params(), 1e-3, 1e-3, 50)
        state.m[0] += 0.25
        state.step = 7
        path = tmp_path / "m.ckpt"
        tr.save_checkpoint(params, state, path, stage=2, config_hash="abc")
        loaded, lstate, meta = tr.load_checkpoint(path)
        for (name_a, a), (name_b, b) in zip(params.named_params(), loaded.named_params()):
            assert name_a == name_b
            assert a.data.tobytes() == b.data.tobytes()
        assert lstate.step == 7
        assert lstate.m[0].tobytes() == state.m[0].tobytes()
        assert meta["stage"] == 2 and meta["config_hash"] == "abc"

    def test_save_without_optimizer(self, tmp_path):
        params = tr.ModelParams.init(4, seed=0)
        tr.save_checkpoint(params, None, tmp_path / "m.ckpt")
        loaded, state, _ = tr.load_checkpoint(tmp_path / "m.ckpt")
        assert state is None
        assert loaded.channels == 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        tr.save_checkpoint(tr.ModelParams.init(4, seed=0), None, path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(tr.BadMagic):
            tr.load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        tr.save_checkpoint(tr.ModelParams.init(4, seed=0), None, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(tr.CheckpointError):
            tr.load_checkpoint(path)

    def test_shape_mismatch_vs_metadata(self, tmp_path):
        path = tmp_path / "m.ckpt"
        params = tr.ModelParams.init(4, seed=0)
        tr.save_checkpoint(params, None, path)
        raw = path.read_bytes()
        # metadata says channels=8 but arrays are 4-wide
        tampered = raw.replace(b'"channels": 4', b'"channels": 8')
        path.write_bytes(tampered)
        with pytest.raises(tr.ShapeMismatch):
            tr.load_checkpoint(path)

    def _rewrite_meta(self, path, edit):
        raw = path.read_bytes()
        n = int.from_bytes(raw[8:16], "little")
        blob = edit(raw[16 : 16 + n])
        path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + n :])

    def _saved(self, tmp_path):
        path = tmp_path / "m.ckpt"
        tr.save_checkpoint(tr.ModelParams.init(4, seed=0), None, path)
        return path

    def test_missing_channels_key(self, tmp_path):
        path = self._saved(tmp_path)
        self._rewrite_meta(path, lambda b: b.replace(b'"channels": 4, ', b""))
        with pytest.raises(tr.CheckpointError, match="channels"):
            tr.load_checkpoint(path)

    def test_ill_typed_metadata(self, tmp_path):
        path = self._saved(tmp_path)
        self._rewrite_meta(path, lambda b: b.replace(b'"shape": [2]', b'"shape": "two"'))
        with pytest.raises(tr.CheckpointError, match="metadata"):
            tr.load_checkpoint(path)

    def test_metadata_not_json(self, tmp_path):
        path = self._saved(tmp_path)
        self._rewrite_meta(path, lambda b: b"\xff" + b[1:])
        with pytest.raises(tr.CheckpointError):
            tr.load_checkpoint(path)

    def test_huge_metadata_length(self, tmp_path):
        path = self._saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:8] + (2**40).to_bytes(8, "little") + raw[16:])
        with pytest.raises(tr.CheckpointError, match="past the end"):
            tr.load_checkpoint(path)

    def test_huge_array_shape(self, tmp_path):
        path = self._saved(tmp_path)
        self._rewrite_meta(path, lambda b: b.replace(b'"shape": [2]', b'"shape": [1099511627776]', 1))
        with pytest.raises(tr.CheckpointError, match="truncated"):
            tr.load_checkpoint(path)

    def test_huge_channel_count(self, tmp_path):
        path = self._saved(tmp_path)
        self._rewrite_meta(path, lambda b: b.replace(b'"channels": 4', b'"channels": 1000000'))
        with pytest.raises(tr.ShapeMismatch, match="cannot hold"):
            tr.load_checkpoint(path)

    @pytest.mark.parametrize(
        "old, new",
        [
            (b'"channels": 4', b'"channels": 1e400'),
            (b'"shape": [2]', b'"shape": [1e400]'),
            (b'"shape": [2]', b'"shape": [0, 1000000000000000000000]'),
            (b'"shape": [2]', b'"shape": [' + b"0, " * 70 + b"0]"),
        ],
    )
    def test_numbers_json_holds_but_numpy_does_not(self, tmp_path, old, new):
        path = self._saved(tmp_path)
        self._rewrite_meta(path, lambda b: b.replace(old, new, 1))
        with pytest.raises(tr.CheckpointError):
            tr.load_checkpoint(path)

    @pytest.mark.parametrize("name", ["branch1.head_b", "branch2.head_w", "encoder.conv1_w"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_array_rejected(self, tmp_path, name, bad):
        params = tr.ModelParams.init(4, seed=0)
        dict(params.named_params())[name].data.flat[-1] = bad
        path = tmp_path / "m.ckpt"
        tr.save_checkpoint(params, None, path)
        with pytest.raises(tr.CheckpointError, match=f"array {name} holds NaN or Inf"):
            tr.load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(tr.CheckpointError, match="trailing"):
            tr.load_checkpoint(path)

    @settings(max_examples=300, deadline=None)
    @given(
        key=st.sampled_from(["channels", "arrays", "optim", "name", "shape", "dim"]),
        index=st.integers(0, 13),
        value=JSON_VALUES,
        with_optim=st.booleans(),
    )
    def test_only_checkpoint_errors_escape(self, tmp_path_factory, key, index, value, with_optim):
        # one metadata value (or one dimension of one array) replaced by arbitrary JSON
        params = tr.ModelParams.init(2, seed=0)
        state = tr.OptimState.init(params.params(), 1e-3, 0.0, 10) if with_optim else None
        path = tmp_path_factory.getbasetemp() / "fuzzed.ckpt"
        tr.save_checkpoint(params, state, path)

        def edit(blob):
            meta = json.loads(blob)
            entry = meta["arrays"][index]
            if key == "dim":
                entry["shape"] = [value, *entry["shape"][1:]]
            elif key in entry:
                entry[key] = value
            else:
                meta[key] = value
            return json.dumps(meta).encode()

        self._rewrite_meta(path, edit)
        with contextlib.suppress(tr.CheckpointError):
            tr.load_checkpoint(path)

    def test_atomic_save(self, tmp_path):
        params = tr.ModelParams.init(4, seed=0)
        path = tmp_path / "m.ckpt"
        tr.save_checkpoint_atomic(params, None, path)
        assert path.exists()
        assert not (tmp_path / "m.ckpt.tmp").exists()


def test_loss_trace_bytes(tmp_path):
    # built by hand, so the expected bytes hold whatever BLAS kernel runs the tests
    trace = [
        tr.EpochTrace(epoch=0, loss=0.1 + 0.2),
        tr.EpochTrace(epoch=1, loss=1e-300, age_loss=2.5, cls_loss=-0.0),
        tr.EpochTrace(epoch=2, loss=math.inf, age_loss=None, cls_loss=1 / 3),
    ]
    path = tmp_path / "trace.csv"
    tr.write_loss_trace(trace, path)
    assert path.read_bytes() == (
        b"epoch,loss,age_loss,cls_loss\n"
        b"0,0.30000000000000004,,\n"
        b"1,1e-300,2.5,-0.0\n"
        b"2,inf,,0.3333333333333333\n"
    )


class TestTrainConfig:
    @pytest.mark.parametrize(
        "setting, value",
        [
            ("epochs", 0), ("epochs", -1), ("batch", 0), ("batch", -4),
            ("lr", 0.0), ("lr", -1e-3), ("lr", math.nan), ("lr", math.inf),
            ("weight_decay", -1e-3), ("weight_decay", math.nan), ("weight_decay", math.inf), ("seed", -1),
        ],
    )  # fmt: skip
    def test_bad_setting_is_named(self, setting, value):
        with pytest.raises(ValueError, match=f"^{setting} must"):
            tr.TrainConfig(**{setting: value})

    def test_smallest_valid_settings(self):
        tr.TrainConfig(epochs=1, batch=1, lr=5e-324, weight_decay=0.0)


class TestTrainStage:
    def test_graph_nodes_per_sample(self, tiny_setup):
        """The per-sample loss graphs of stages 1-3: the declared layers, their parameter leaves and the input."""
        cohort, sa = tiny_setup
        assert stage_graph_nodes(cohort[0], sa) == (17, 8, 23)

    def test_invalid_stage(self, tiny_setup):
        cohort, sa = tiny_setup
        with pytest.raises(tr.InvalidStage):
            tr.train_stage(4, cohort, sa.atlas, sa.table, PRIOR, tr.TrainConfig(epochs=1), tr.ModelParams.init(4, 0))

    def test_empty_cohort(self, tiny_setup):
        _, sa = tiny_setup
        with pytest.raises(tr.EmptyCohort):
            tr.train_stage(1, Cohort([]), sa.atlas, sa.table, PRIOR, tr.TrainConfig(epochs=1), tr.ModelParams.init(4, 0))

    def test_stage2_requires_healthy(self, tiny_setup):
        cohort, sa = tiny_setup
        no_healthy = Cohort([s for s in cohort if s.label is Label.PD])
        with pytest.raises(tr.EmptyCohort, match="healthy"):
            tr.train_stage(2, no_healthy, sa.atlas, sa.table, PRIOR, tr.TrainConfig(epochs=1), tr.ModelParams.init(4, 0))

    def test_stage2_identity_at_exact_fit(self, tiny_setup):
        _, sa = tiny_setup
        subjects = [
            SubjectRecord(
                subject_id=f"h{i}",
                age=65.0,
                label=Label.OTHER,
                is_healthy=True,
                volume=np.random.default_rng(i).normal(1.0, 0.1, (16, 16, 16)),
            )
            for i in range(4)
        ]
        params = tr.ModelParams.init(4, seed=0)
        for t in (params.branch2.conv_w, params.branch2.conv_b, params.branch2.head_w):
            t.data[:] = 0.0
        params.branch2.head_b.data[:] = 65.0  # already exact: every subject is 65
        before = {n: t.data.copy() for n, t in params.named_params()}
        # every gradient is exactly 0, so without weight decay AdamW moves nothing
        _, trace = tr.train_stage(
            2, Cohort(subjects), sa.atlas, sa.table, PRIOR, tr.TrainConfig(epochs=2, weight_decay=0.0), params
        )
        assert trace[0].loss == 0.0
        for n, t in params.named_params():
            assert (t.data == before[n]).all()

    @pytest.mark.parametrize(
        "stage, parts",
        [(1, {"encoder", "fusion", "branch1"}), (2, {"branch2"}), (3, {"encoder", "fusion", "branch1", "branch2"})],
    )
    def test_stage_fits_only_its_parts(self, tiny_setup, stage, parts):
        cohort, sa = tiny_setup
        params = tr.ModelParams.init(4, seed=2)
        before = {n: t.data.copy() for n, t in params.named_params()}
        tr.train_stage(stage, cohort, sa.atlas, sa.table, PRIOR, tr.TrainConfig(epochs=1, batch=12), params)
        changed = {n.split(".")[0] for n, t in params.named_params() if not (t.data == before[n]).all()}
        assert changed == parts

    def test_stage1_loss_decreases_on_separable_cohort(self, tiny_setup):
        cohort, sa = tiny_setup
        params = tr.ModelParams.init(4, seed=1)
        _, trace = tr.train_stage(1, cohort, sa.atlas, sa.table, PRIOR, tr.TrainConfig(epochs=5, seed=1), params)
        assert trace[-1].loss < trace[0].loss

    def test_unlabeled_cohort_rejected(self, tiny_setup):
        cohort, sa = tiny_setup
        record = cohort[0]
        clone = SubjectRecord(record.subject_id, record.age, None, False, record.volume)
        bad = Cohort([clone] + cohort[1:])
        with pytest.raises(ValueError, match="labeled"):
            tr.train_stage(1, bad, sa.atlas, sa.table, PRIOR, tr.TrainConfig(epochs=1), tr.ModelParams.init(4, 0))

    def test_determinism_bitwise(self, tiny_setup):
        cohort, sa = tiny_setup

        def run():
            params = tr.ModelParams.init(4, seed=2)
            for stage in (1, 2, 3):
                params, _ = tr.train_stage(
                    stage, cohort, sa.atlas, sa.table, PRIOR, tr.TrainConfig(epochs=2, seed=2), params
                )
            return b"".join(t.data.tobytes() for _, t in params.named_params())

        assert run() == run()


class TestEvaluate:
    def test_counts_and_records(self, tiny_setup):
        cohort, sa = tiny_setup
        params = tr.ModelParams.init(4, seed=3)
        metrics, records = tr.evaluate(params, cohort, sa.atlas, sa.table, PRIOR)
        assert metrics.tp + metrics.tn + metrics.fp + metrics.fn == len(cohort)
        assert len(records) == len(cohort)
        for r in records:
            assert 0.0 <= r.p_pd <= 1.0
            assert r.delta == pytest.approx(r.predicted_age - cohort[[s.subject_id for s in cohort].index(r.subject_id)].age)

    def test_unlabeled_rejected(self, tiny_setup):
        cohort, sa = tiny_setup
        rec = cohort[0]
        unlabeled = Cohort([SubjectRecord(rec.subject_id, rec.age, None, False, rec.volume)])
        with pytest.raises(ValueError, match="predict"):
            tr.evaluate(tr.ModelParams.init(4, 0), unlabeled, sa.atlas, sa.table, PRIOR)

    def test_empty_cohort(self, tiny_setup):
        _, sa = tiny_setup
        with pytest.raises(tr.EmptyCohort):
            tr.predict(tr.ModelParams.init(4, 0), Cohort([]), sa.atlas, sa.table, PRIOR)

    def test_single_class_cohort_reports_undefined(self, tiny_setup):
        cohort, sa = tiny_setup
        others_only = Cohort([s for s in cohort if s.label is Label.OTHER])
        metrics, _ = tr.evaluate(tr.ModelParams.init(4, 0), others_only, sa.atlas, sa.table, PRIOR)
        assert metrics.tpr is None  # no PD subjects: 0/0, not 0
        assert metrics.auc is None
        assert "tpr=undefined" in metrics.to_kv_text()


class TestModelParams:
    def test_copy_is_an_independent_equal_model(self):
        params = tr.ModelParams.init(4, seed=5)
        clone = copy_params(params)
        for (na, a), (nb, b) in zip(params.named_params(), clone.named_params()):
            assert na == nb and b.requires_grad
            assert a.data.tobytes() == b.data.tobytes() and not np.shares_memory(a.data, b.data)

    def test_frozen_shares_arrays_and_needs_no_grad(self):
        params = tr.ModelParams.init(4, seed=5)
        frozen = params.frozen()
        for (na, a), (nb, b) in zip(params.named_params(), frozen.named_params()):
            assert na == nb and not b.requires_grad
            assert b.data is a.data

    def test_names_are_the_checkpoint_array_names_in_order(self):
        names = [n for n, _ in tr.ModelParams.init(4, seed=0).named_params()]
        assert names == [
            "encoder.conv1_w", "encoder.conv1_b", "encoder.conv2_w", "encoder.conv2_b",
            "fusion.weight", "fusion.bias",
            "branch1.conv_w", "branch1.conv_b", "branch1.head_w", "branch1.head_b",
            "branch2.conv_w", "branch2.conv_b", "branch2.head_w", "branch2.head_b",
        ]  # fmt: skip


@pytest.fixture(scope="module")
def manifest_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("scans")
    assert cli_main(["synth", "--out", str(root), "--n", "6", "--dims", "16", "--seed", "4"]) == 0
    table = load_relevance_table(root / "relevance.csv")
    atlas = read_atlas(root / "atlas.nii", region_count=table.region_count)
    return root / "manifest.csv", atlas, table


def test_train_stage_keeps_no_manifest_volume(manifest_setup):
    manifest, atlas, table = manifest_setup
    cohort = read_manifest(manifest)
    tr.train_stage(1, cohort, atlas, table, PRIOR, tr.TrainConfig(epochs=1), tr.ModelParams.init(4, seed=1))
    assert all(rec.volume is None for rec in cohort)


class TestStreamingPredict:
    def test_manifest_volumes_are_not_kept(self, manifest_setup):
        manifest, atlas, table = manifest_setup
        cohort = read_manifest(manifest)
        records = tr.predict(tr.ModelParams.init(4, seed=1), cohort, atlas, table, PRIOR)
        assert len(records) == len(cohort)
        assert all(rec.volume is None for rec in cohort)

    def test_agrees_with_total_loss_and_decide(self, manifest_setup):
        manifest, atlas, table = manifest_setup
        cohort = read_manifest(manifest)
        params = tr.ModelParams.init(4, seed=1)
        records = tr.predict(params, cohort, atlas, table, PRIOR)
        for rec, pred in list(zip(cohort, records))[:3]:
            vol = rec.load_volume()
            agg = weighted_aggregate(region_average_pool(vol, atlas), table)
            fused = upsample_fuse(agg, encode_dense(vol, params.encoder), params.fusion)
            loss = total_loss(fused, rec.age, rec.label, params.branch1, params.branch2, PRIOR)
            _, p_pd = decide(loss.corrected)
            assert pred.p_pd == p_pd
            assert pred.delta == loss.delta

    def test_two_threads_give_the_serial_results(self, manifest_setup):
        manifest, atlas, table = manifest_setup
        params = tr.ModelParams.init(4, seed=1)
        serial = tr.predict(params, read_manifest(manifest), atlas, table, PRIOR)
        results, start = {}, threading.Barrier(2)

        def screen(k):
            start.wait()
            results[k] = [tr.predict(params, read_manifest(manifest), atlas, table, PRIOR) for _ in range(3)]

        threads = [threading.Thread(target=screen, args=(k,)) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(results) == [0, 1]
        for runs in results.values():
            for records in runs:
                assert [(r.p_pd, r.delta) for r in records] == [(r.p_pd, r.delta) for r in serial]

    def test_record_without_volume_or_path(self, tiny_setup):
        _, sa = tiny_setup
        orphan = Cohort([SubjectRecord("s0", 60.0, Label.PD)])
        with pytest.raises(ValueError, match="no volume and no path"):
            tr.predict(tr.ModelParams.init(4, seed=0), orphan, sa.atlas, sa.table, PRIOR)


class TwoArgumentError(Exception):
    """An exception whose pickle cannot be loaded: its args hold one string, its __init__ takes two."""

    def __init__(self, subject_id, reason):
        super().__init__(f"{subject_id} {reason}")


def _record_bits(records) -> list[tuple]:
    """Every field of each record, floats as ``float.hex``, so equality is bitwise."""
    return [
        (r.subject_id, r.label, r.p_pd.hex(), r.delta.hex(), r.predicted_age.hex(), r.decision) for r in records
    ]


class TestForkedPredict:
    """``predict`` over k contiguous chunks, chunk 0 here and the rest in forked children."""

    def test_default_split(self):
        assert forkmap.worker_count(32, 64**3) == min(usable_cpus(), 8)
        assert forkmap.worker_count(40, 32**3) == 1  # train32's evaluate stays in one process
        assert forkmap.worker_count(1, 64**4) == 1

    @pytest.mark.parametrize("source", ["memory", "files"])
    def test_records_are_bitwise_equal_for_1_2_and_3_workers(self, source, tiny_setup, manifest_setup, split_into):
        if source == "memory":
            cohort, sa = tiny_setup
            atlas, table = sa.atlas, sa.table
        else:
            manifest, atlas, table = manifest_setup
            cohort = read_manifest(manifest)
        params = tr.ModelParams.init(4, seed=1)
        runs = {}
        for k in (1, 2, 3):
            split_into(k)
            assert forkmap.worker_count(len(cohort), atlas.labels.size) == k
            runs[k] = _record_bits(tr.predict(params, cohort, atlas, table, PRIOR))
        assert runs[1] == runs[2] == runs[3]
        assert [r[0] for r in runs[1]] == [s.subject_id for s in cohort]

    @pytest.mark.parametrize("first, second", [("data", "header"), ("header", "data")])
    def test_first_failure_in_cohort_order(self, first, second, manifest_setup, tmp_path, split_into):
        manifest, atlas, table = manifest_setup
        cohort = read_manifest(manifest)
        lengths = {"header": 100, "data": 1000}  # TruncatedHeader, TruncatedData
        for index, kind in ((3, first), (5, second)):  # chunks 1 and 2 of [0, 1] [2, 3] [4, 5]
            rec = cohort[index]
            cut = Path(rec.path).read_bytes()[: lengths[kind]]
            rec.path = str(tmp_path / f"{rec.subject_id}.nii")
            Path(rec.path).write_bytes(cut)
        params = tr.ModelParams.init(4, seed=1)
        with pytest.raises(NiftiFormatError) as serial:
            tr.predict(params, cohort, atlas, table, PRIOR)
        split_into(3)
        with pytest.raises(NiftiFormatError) as forked:
            tr.predict(params, cohort, atlas, table, PRIOR)
        assert type(forked.value) is type(serial.value) is {"header": TruncatedHeader, "data": TruncatedData}[first]
        assert str(forked.value) == str(serial.value)
        assert type(serial.value).__name__ in str(forked.value.__cause__)  # the child's traceback

    def test_killed_worker_names_its_subjects_and_status(self, manifest_setup, monkeypatch, split_into):
        manifest, atlas, table = manifest_setup
        cohort = read_manifest(manifest)
        real = tr._prepare_one

        def prepare(rec, *args):
            if rec.subject_id == cohort[4].subject_id:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(rec, *args)

        monkeypatch.setattr(tr, "_prepare_one", prepare)
        split_into(3)
        with pytest.raises(RuntimeError, match=r"worker for items 4\.\.5 ended without a result \(wait status 9, "):
            tr.predict(tr.ModelParams.init(4, seed=1), cohort, atlas, table, PRIOR)

    def test_exception_pickle_cannot_rebuild_arrives_as_runtime_error(self, manifest_setup, monkeypatch, split_into):
        manifest, atlas, table = manifest_setup
        cohort = read_manifest(manifest)
        parent, real = os.getpid(), tr._prepare_one

        def prepare(rec, *args):
            if os.getpid() != parent:
                raise TwoArgumentError(rec.subject_id, "unreadable")
            return real(rec, *args)

        monkeypatch.setattr(tr, "_prepare_one", prepare)
        split_into(2)
        with pytest.raises(RuntimeError, match=f"^TwoArgumentError: {cohort[3].subject_id} unreadable$"):
            tr.predict(tr.ModelParams.init(4, seed=1), cohort, atlas, table, PRIOR)

    @pytest.mark.parametrize("outcome", ["success", "error", "interrupt"])
    def test_every_child_is_reaped(self, outcome, manifest_setup, monkeypatch, split_into):
        manifest, atlas, table = manifest_setup
        cohort = read_manifest(manifest)
        parent, real = os.getpid(), tr._prepare_one

        def prepare(rec, *args):
            if outcome == "error" and rec.subject_id == cohort[2].subject_id:
                raise ValueError("bad subject")
            if outcome == "interrupt" and os.getpid() == parent:
                raise KeyboardInterrupt
            return real(rec, *args)

        monkeypatch.setattr(tr, "_prepare_one", prepare)
        split_into(3)
        expected = {"success": contextlib.nullcontext(), "error": pytest.raises(ValueError, match="bad subject")}
        with expected.get(outcome, pytest.raises(KeyboardInterrupt)):
            tr.predict(tr.ModelParams.init(4, seed=1), cohort, atlas, table, PRIOR)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def scan64(tmp_path_factory):
    root = tmp_path_factory.mktemp("scan64")
    assert cli_main(["synth", "--out", str(root), "--n", "2", "--dims", "64", "--seed", "3"]) == 0
    table = load_relevance_table(root / "relevance.csv")
    return read_manifest(root / "manifest.csv"), read_atlas(root / "atlas.nii", region_count=table.region_count), table


class TestPredictMemory:
    def test_peak_per_64_cube_subject(self, scan64):
        # about one 2 MB volume, the 1 MB first activation and the 0.26 MB
        # second; 4.3 MB with a ReLU mask and a second activation per conv
        cohort, atlas, table = scan64
        params = tr.ModelParams.init(8, seed=3)
        tr.predict(params, cohort, atlas, table, PRIOR)  # keeps the conv scratch of each shape
        tracemalloc.start()
        try:
            tr.predict(params, cohort.subset([1]), atlas, table, PRIOR)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5e6


def step_with_too_few_params(_):
    p = ad.parameter(np.zeros(2))
    tr.adamw_step([p], tr.OptimState.init([p, p], base_lr=0.1, weight_decay=0.0, total_steps=1))


def predict_off_grid(_):
    """Predict one in-memory subject whose volume is not on the atlas grid; the error names its subject_id."""
    cohort, satlas = generate_cohort(SynthConfig(n_subjects=1, dims=(16, 16, 16)))
    cohort[0].volume = np.zeros((8, 8, 8))
    tr.predict(tr.ModelParams.init(4, seed=0), cohort, satlas.atlas, satlas.table, PRIOR)


def load_magic_and(extra: int):
    """Load a checkpoint of the magic and ``extra`` zero bytes, written to the given path."""

    def load(path):
        path.write_bytes(tr.CHECKPOINT_MAGIC + bytes(extra))
        tr.load_checkpoint(path)

    return load


@pytest.mark.parametrize(
    "refused, error, message",
    [
        (lambda _: tr.cosine_lr(0, 0, 1e-3), ValueError, "total_steps must be >= 1, got 0"),
        (step_with_too_few_params, tr.ShapeMismatch, "optimizer tracks 2 params, got 1"),
        (load_magic_and(0), tr.CheckpointError, "truncated metadata length"),
        (load_magic_and(1), tr.CheckpointError, "truncated metadata length"),
        (load_magic_and(7), tr.CheckpointError, "truncated metadata length"),
        (predict_off_grid, DimMismatch, "s0000: volume dims (8, 8, 8) != atlas dims (16, 16, 16)"),
    ],
    ids=["cosine-no-steps", "optimizer-param-count", "checkpoint-8-bytes", "checkpoint-9-bytes", "checkpoint-15-bytes",
         "predict-off-grid"],
)  # fmt: skip
def test_documented_refusal(tmp_path, refused, error, message):
    with pytest.raises(error) as caught:
        refused(tmp_path / "m.ckpt")
    assert type(caught.value) is error and str(caught.value) == message
