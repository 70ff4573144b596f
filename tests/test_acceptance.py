"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The end-to-end criteria share one session fixture
that trains the full model on the standard synthetic cohort for three
training seeds.
"""

import hashlib
import json
import struct
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import copy_params, gradient_check, param_tensors, softplus_pair, tdot
from pddiag import training as tr
from pddiag import volume_io as vio
from pddiag.aggregator import (
    AggregatedFeature,
    EncoderParams,
    FusionProjection,
    encode_dense,
    region_average_pool,
    upsample_fuse,
    weighted_aggregate,
)
from pddiag.cli import main as cli_main
from pddiag.diagnoser import BranchParams, Label, age_loss, classify, phi, predict_brain_age, squared_error, total_loss
from pddiag.preprocess import ToolConfig, run_pipeline
from pddiag.priors import AgingPriorParams
from pddiag.synth import SynthConfig, generate_cohort, split_cohort
from pddiag.training import ModelParams, TrainConfig, evaluate, train_stage

PRIOR = AgingPriorParams(zeta=9.5, tau=4.5, alpha=1.0)


def report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:2d} PASS: {detail}")


@pytest.fixture(scope="session")
def e2e():
    """Standard synthetic cohort trained through stages 1-3 for three seeds."""
    t0 = time.time()
    cfg = SynthConfig(n_subjects=200, dims=(32, 32, 32), pd_fraction=0.5, seed=7)
    cohort, sa = generate_cohort(cfg)
    train_idx, test_idx = split_cohort(cohort, folds=5, seed=7)[0]
    train, test = cohort.subset(train_idx), cohort.subset(test_idx)
    models = {}
    seed0_runtime = None
    for seed in (0, 1, 2):
        params = ModelParams.init(8, seed=seed)
        tcfg = TrainConfig(epochs=30, batch=4, lr=1e-3, weight_decay=1e-3, seed=seed)
        for stage in (1, 2, 3):
            params, _ = train_stage(stage, train, sa.atlas, sa.table, PRIOR, tcfg, params)
        models[seed] = params
        if seed == 0:
            metrics, records = evaluate(params, test, sa.atlas, sa.table, PRIOR)
            seed0_runtime = time.time() - t0
            seed0 = (metrics, records)
    return {
        "atlas": sa.atlas,
        "table": sa.table,
        "train": train,
        "test": test,
        "models": models,
        "seed0_eval": seed0,
        "seed0_runtime": seed0_runtime,
    }


def test_criterion_01_phi_identity():
    t0 = time.time()
    worst = 0.0
    for tau in (0.0, 4.5, 10.0):
        for delta in np.arange(-50.0, 50.0 + 1e-9, 0.1):
            worst = max(worst, abs(phi(delta, tau) - softplus_pair(delta - tau)))
        for delta in (tau + 1000.0, tau - 1000.0):  # overflow-safe far path
            worst = max(worst, abs(phi(delta, tau) - softplus_pair(delta - tau)))
    elapsed = time.time() - t0
    assert worst < 1e-9
    assert elapsed < 1.0
    report(1, f"max |phi(d) - softplus pair| = {worst:.2e} over 3 taus x 1001-point grid in {elapsed:.2f}s")


def test_criterion_02_hinge_zones():
    for delta in np.linspace(9.5, 200.0, 25):
        assert age_loss(delta, Label.PD, PRIOR) == 0.0
    for delta in np.linspace(-200.0, 4.5, 25):
        assert age_loss(delta, Label.OTHER, PRIOR) == 0.0
    rng = np.random.default_rng(2)
    worst = 0.0
    for delta in rng.uniform(-40, 40, size=20):
        worst = max(worst, abs(age_loss(delta, Label.PD, PRIOR) - max(0.0, 9.5 - delta)))
        worst = max(worst, abs(age_loss(delta, Label.OTHER, PRIOR) - max(0.0, delta - 4.5)))
    assert worst < 1e-12
    report(2, f"hinges exactly zero on their zones; 20-point linear-penalty error {worst:.2e}")


def test_criterion_03_pooling_oracle():
    t0 = time.time()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        vol = rng.standard_normal((8, 8, 8))
        labels = rng.integers(1, 6, size=(8, 8, 8))
        labels.flat[:5] = np.arange(1, 6)
        atlas = vio.AtlasVolume(labels=labels, region_count=5)
        pooled = region_average_pool(vol, atlas)
        sums, counts = np.zeros(5), np.zeros(5)
        for d in range(8):
            for h in range(8):
                for w in range(8):
                    sums[labels[d, h, w] - 1] += vol[d, h, w]
                    counts[labels[d, h, w] - 1] += 1
        worst = max(worst, float(np.abs(pooled - sums / counts).max()))
    elapsed = time.time() - t0
    assert worst < 1e-12
    assert elapsed < 5.0
    report(3, f"50 random volumes vs brute-force accumulation, max |diff| = {worst:.2e} in {elapsed:.2f}s")


def test_criterion_04_aggregation_invariances():
    rng = np.random.default_rng(4)
    worst_scale, worst_affine = 0.0, 0.0
    for _ in range(100):
        r = int(rng.integers(2, 40))
        pooled = rng.standard_normal(r) * rng.uniform(0.1, 10)
        theta = rng.uniform(1e-3, 5.0, size=r)
        c = float(rng.uniform(0.01, 100))
        base = weighted_aggregate(pooled, theta)
        scaled = weighted_aggregate(pooled, theta * c)
        denom_m = max(1e-30, abs(base.mean))
        worst_scale = max(worst_scale, abs(base.mean - scaled.mean) / denom_m)
        worst_scale = max(worst_scale, abs(base.std - scaled.std) / max(1e-12, base.std))
        a, b = float(rng.normal(0, 3)), float(rng.normal(0, 20))
        moved = weighted_aggregate(a * pooled + b, theta)
        worst_affine = max(worst_affine, abs(moved.mean - (a * base.mean + b)) / max(1.0, abs(moved.mean)))
        worst_affine = max(worst_affine, abs(moved.std - abs(a) * base.std) / max(1.0, moved.std))
    assert worst_scale < 1e-12
    assert worst_affine < 1e-12
    report(4, f"100 instances: rescale rel diff {worst_scale:.2e}, affine equivariance {worst_affine:.2e}")


def test_criterion_05_gradient_checks():
    t0 = time.time()
    rng = np.random.default_rng(5)
    enc = EncoderParams.init(4, rng)
    proj = FusionProjection.init(4, rng)
    b1 = BranchParams.init(4, 2, rng)
    b2 = BranchParams.init(4, 1, rng, head_bias=65.0)
    vol = rng.standard_normal((8, 8, 8))
    agg = AggregatedFeature(0.8, 0.3)
    coeff_dense = rng.standard_normal((4, 2, 2, 2))
    coeff_z = rng.standard_normal(2)

    def fused():
        return upsample_fuse(agg, encode_dense(vol, enc), proj)

    checks = {
        "encode_dense": (
            lambda: tdot(encode_dense(vol, enc), coeff_dense),
            param_tensors(enc),
        ),
        "upsample_fuse": (
            lambda: tdot(fused(), coeff_dense),
            param_tensors(proj, enc),
        ),
        "classify": (
            lambda: tdot(classify(fused(), b1), coeff_z),
            param_tensors(b1),
        ),
        "predict_brain_age": (
            lambda: predict_brain_age(fused(), b2),
            param_tensors(b2),
        ),
        "stage2_objective": (
            lambda: squared_error(predict_brain_age(fused(), b2), 62.0),
            param_tensors(b2),
        ),
        "total_loss": (
            lambda: total_loss(fused(), 62.0, Label.PD, b1, b2, PRIOR).node,
            param_tensors(enc, proj, b1, b2),
        ),
    }
    results = {}
    for name, (loss_fn, params) in checks.items():
        results[name] = gradient_check(loss_fn, params, probe_count=50, h=1e-5, seed=55)
        assert results[name] < 1e-4, f"{name}: rel err {results[name]}"
    elapsed = time.time() - t0
    assert elapsed < 60.0
    detail = ", ".join(f"{k}={v:.1e}" for k, v in results.items())
    report(5, f"50-probe central differences in {elapsed:.1f}s: {detail}")


def test_criterion_06_metrics_and_auc():
    m = tr.Metrics.from_counts(tp=3, tn=4, fp=1, fn=2)
    assert m.acc == 0.7 and m.tpr == 0.6 and m.fpr == 0.2
    assert tr.roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert tr.roc_auc([0.4] * 6, [1, 0, 1, 0, 1, 0]) == 0.5
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 50))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0], labels[-1] = 0, 1
        scores = np.round(rng.uniform(0, 1, size=n), 2)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        pairwise = (np.sum(pos[:, None] > neg[None, :]) + 0.5 * np.sum(pos[:, None] == neg[None, :])) / (
            len(pos) * len(neg)
        )
        worst = max(worst, abs(tr.roc_auc(scores, labels) - pairwise))
    assert worst < 1e-12
    report(6, f"fixture metrics exact; sweep vs Mann-Whitney on 100 sets, max |diff| = {worst:.2e}")


def test_criterion_07_synthetic_end_to_end(e2e):
    metrics, records = e2e["seed0_eval"]
    runtime = e2e["seed0_runtime"]
    pd_deltas = [r.delta for r in records if r.label is Label.PD]
    ot_deltas = [r.delta for r in records if r.label is Label.OTHER]
    gap = float(np.mean(pd_deltas) - np.mean(ot_deltas))
    assert metrics.acc >= 0.90, f"held-out ACC {metrics.acc}"
    assert metrics.auc >= 0.95, f"held-out AUC {metrics.auc}"
    assert gap >= 3.0, f"age-gap separation {gap}"
    assert runtime < 600.0, f"runtime {runtime:.0f}s"
    # after stage 3 the margins are respected on average over the training data
    _, train_records = evaluate(e2e["models"][0], e2e["train"], e2e["atlas"], e2e["table"], PRIOR)
    hinge_pd = float(
        np.mean([age_loss(r.delta, Label.PD, PRIOR) for r in train_records if r.label is Label.PD])
    )
    hinge_ot = float(
        np.mean(
            [age_loss(r.delta, Label.OTHER, PRIOR) for r in train_records if r.label is Label.OTHER]
        )
    )
    assert hinge_pd < 0.5 and hinge_ot < 0.5, f"train hinge losses {hinge_pd}, {hinge_ot}"
    report(
        7,
        f"n=200 seed=7 stages 1-3 (C=8, 30 epochs): ACC={metrics.acc:.3f} AUC={metrics.auc:.3f} "
        f"delta-gap={gap:.1f}y train-hinges=({hinge_pd:.2f},{hinge_ot:.2f})y runtime={runtime:.0f}s",
    )


def test_criterion_08_ablation_directions(e2e):
    lines = []
    for seed, params in e2e["models"].items():
        full, _ = evaluate(params, e2e["test"], e2e["atlas"], e2e["table"], PRIOR)
        no_fusion = copy_params(params)
        no_fusion.fusion.weight.data[:] = 0.0
        no_fusion.fusion.bias.data[:] = 0.0
        agg_off, _ = evaluate(no_fusion, e2e["test"], e2e["atlas"], e2e["table"], PRIOR)
        age_off, _ = evaluate(params, e2e["test"], e2e["atlas"], e2e["table"], AgingPriorParams(alpha=0.0))
        assert agg_off.acc < full.acc, f"seed {seed}: no-aggregation ACC {agg_off.acc} !< full {full.acc}"
        assert age_off.acc < full.acc, f"seed {seed}: no-correction ACC {age_off.acc} !< full {full.acc}"
        lines.append(f"seed{seed} full={full.acc:.3f} no-agg={agg_off.acc:.3f} no-corr={age_off.acc:.3f}")
    report(8, "; ".join(lines))


COPY_MOCK = """\
import sys, pathlib
with open(sys.argv[1], "a") as fh:
    fh.write("call\\n")
pathlib.Path(sys.argv[3]).write_bytes(pathlib.Path(sys.argv[2]).read_bytes())
"""

DIE_ONCE_MOCK = """\
import sys, pathlib
with open(sys.argv[1], "a") as fh:
    fh.write("call\\n")
flag = pathlib.Path(sys.argv[1] + ".flag")
if not flag.exists():
    flag.write_text("died")
    sys.exit(137)
pathlib.Path(sys.argv[3]).write_bytes(pathlib.Path(sys.argv[2]).read_bytes())
"""


def test_criterion_09_orchestrator_idempotency(tmp_path):
    counts = tmp_path / "counts.txt"
    copy_tool = tmp_path / "copy.py"
    copy_tool.write_text(COPY_MOCK)
    die_tool = tmp_path / "die.py"
    die_tool.write_text(DIE_ONCE_MOCK)
    template = tmp_path / "tpl.nii"
    template.write_bytes(b"T")
    subjects = []
    for i in range(2):
        p = tmp_path / f"subj{i}.nii"
        p.write_bytes(f"RAW{i}".encode())
        subjects.append(p)

    def cfg(register_tool):
        return ToolConfig(
            strip_cmd=f"{sys.executable} {copy_tool} {counts} {{input}} {{output}}",
            bias_cmd=f"{sys.executable} {copy_tool} {counts} {{input}} {{output}}",
            register_cmd=f"{sys.executable} {register_tool} {counts} {{input}} {{output}} {{template}}",
            template_path=str(template),
            cache_dir=str(tmp_path / "cache"),
        )

    def calls():
        return len(counts.read_text().splitlines()) if counts.exists() else 0

    records = run_pipeline(subjects, cfg(copy_tool))
    assert calls() == 6, "3 invocations per subject on first run"
    assert all(r.ok for r in records)
    records = run_pipeline(subjects, cfg(copy_tool))
    assert calls() == 6, "0 invocations on immediate rerun"
    assert all(r.steps == {"strip": "skipped", "bias": "skipped", "register": "skipped"} for r in records)

    # killed-mid-run analogue: register dies once, then the rerun completes
    killed = tmp_path / "killsub.nii"
    killed.write_bytes(b"RAWK")
    first = run_pipeline([killed], cfg(die_tool))
    assert not first[0].ok
    manifest = Path(cfg(die_tool).cache_dir) / "manifest.jsonl"
    unfinished = [json.loads(l) for l in manifest.read_text().splitlines() if "killsub" in l]
    assert all(rec["output_path"] is None for rec in unfinished), "no completion claim after the kill"
    second = run_pipeline([killed], cfg(die_tool))
    assert second[0].ok
    finals = list((Path(cfg(die_tool).cache_dir) / "out").glob("killsub*"))
    assert len(finals) == 1, "no duplicate final outputs"
    report(9, "3 calls/subject, 0 on rerun, killed-run recovery left a single final output")


def test_criterion_10_format_round_trips(tmp_path):
    rng = np.random.default_rng(10)
    for i in range(20):
        dims = tuple(int(d) for d in rng.integers(2, 7, size=3))
        code = int(rng.choice([vio.DTYPE_UINT8, vio.DTYPE_INT16, vio.DTYPE_FLOAT32]))
        if code == vio.DTYPE_UINT8:
            data = rng.integers(0, 256, size=dims).astype(np.float64)
        elif code == vio.DTYPE_INT16:
            data = rng.integers(-32768, 32768, size=dims).astype(np.float64)
        else:
            data = rng.standard_normal(dims).astype(np.float32).astype(np.float64)
        vol = vio.Volume3D.from_array(data, datatype_code=code)
        path = tmp_path / f"v{i}.nii"
        vio.write_volume(vol, path)
        back = vio.read_volume(path)
        assert back.header.dims == dims and back.header.datatype_code == code
        assert back.data.tobytes() == data.tobytes(), "payload bits preserved"
    for i in range(20):
        channels = int(rng.choice([4, 8]))
        params = ModelParams.init(channels, seed=int(rng.integers(0, 1 << 31)))
        state = tr.OptimState.init(params.params(), 1e-3, 1e-3, 10)
        path = tmp_path / f"c{i}.ckpt"
        tr.save_checkpoint(params, state, path, stage=1)
        loaded, lstate, _ = tr.load_checkpoint(path)
        for (_, a), (_, b) in zip(params.named_params(), loaded.named_params()):
            assert a.data.tobytes() == b.data.tobytes()
        assert all(x.tobytes() == y.tobytes() for x, y in zip(state.m + state.v, lstate.m + lstate.v))

    # byte-swapped header accepted, bad magic rejected
    buf = bytearray(348)
    struct.pack_into(">i", buf, 0, 348)
    struct.pack_into(">8h", buf, 40, 3, 4, 5, 6, 1, 1, 1, 1)
    struct.pack_into(">h", buf, 70, 16)
    struct.pack_into(">f", buf, 108, 352.0)
    buf[344:348] = b"n+1\x00"
    hdr = vio.parse_header(bytes(buf))
    assert hdr.endianness == "big" and hdr.dims == (6, 5, 4)
    buf[344:348] = b"ni1\x00"
    with pytest.raises(vio.BadMagic):
        vio.parse_header(bytes(buf))
    report(10, "20 volume + 20 checkpoint round trips bit-identical; byte-swap accepted; bad magic rejected")


def test_criterion_11_full_pipeline_determinism(tmp_path):
    def one_run(root: Path) -> dict:
        data, out = root / "data", root / "run"
        assert cli_main(["synth", "--out", str(data), "--n", "12", "--dims", "16", "--seed", "5"]) == 0
        common = [
            "--manifest", str(data / "manifest.csv"),
            "--atlas", str(data / "atlas.nii"),
            "--relevance", str(data / "relevance.csv"),
        ]
        for stage in ("1", "2", "3"):
            code = cli_main(
                ["train", "--stage", stage, "--out-dir", str(out), "--epochs", "2", "--seed", "3", *common]
            )
            assert code == 0
        assert cli_main(["predict", "--checkpoint", str(out / "stage3.ckpt"), "--out", str(root / "pred.csv"), *common]) == 0
        wanted = [out / "stage1.ckpt", out / "stage2.ckpt", out / "stage3.ckpt", root / "pred.csv"]
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in wanted}

    a = one_run(tmp_path / "a")
    b = one_run(tmp_path / "b")
    assert a == b, f"run digests differ: {a} vs {b}"
    report(11, "two synth->train->predict runs produced bit-identical checkpoints and prediction CSVs")
