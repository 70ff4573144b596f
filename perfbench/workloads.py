"""The benchmark workloads: train32, screen64 and preprocess.

Each workload is one client in a closed loop: pddiag is a batch tool whose
caller waits for each result, so the next iteration starts when the last
one ends. A workload has a ``setup`` (timed as ``setup_s``), an iteration
``run`` that returns an ``Outcome``, a ``check`` that compares the outputs
of an iteration with the reference recorded at the seed commit, and a
``final_check`` made once after the timed loop.

The seed picks one of ``REFERENCE_SEEDS`` input sets (``seed % 16``) whose
outputs ``make_reference.py`` recorded, so that every seed the benchmark is
given can be checked against a stored reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pddiag import aggregator, cli, cohort, diagnoser, preprocess, synth, training, volume_io
from pddiag import autodiff as ad
from pddiag.config import RunConfig
from pddiag.diagnoser import Label
from pddiag.priors import load_relevance_table

REFERENCE_SEEDS = 16

# Relative tolerance on recorded losses, gradients and predictions.
# Reordering a float64 sum moves a result by about 1e-15 relative, and that
# stays below 1e-9 over the nine epochs train32 runs; a wrong conv moves the
# age gap by far more than 1e-9. AdamW is blind to a gradient that is off by
# a constant factor per coordinate, so train32 also checks the gradient
# itself, projected on a fixed random unit direction per parameter.
LOSS_RTOL = 1e-6
PREDICTION_RTOL = 1e-9
METRIC_ATOL = 1e-9

# Sizes by name; "tiny" keeps every layer and shape but cuts the counts, for
# the smoke test.
SIZES = {
    "full": {"train_n": 200, "train_epochs": 3, "screen_n": 32, "preprocess_n": 64, "cross_checks": 4},
    "tiny": {"train_n": 20, "train_epochs": 2, "screen_n": 3, "preprocess_n": 3, "cross_checks": 1},
}

CHANNELS = 8


@dataclass
class Outcome:
    wall_s: float  # the whole iteration
    rate: float  # the workload's subjects per second (see BENCHMARK.json)
    attempted: int
    problems: list[str]
    outputs: dict  # what check() compares with the reference
    details: dict = field(default_factory=dict)  # workload-specific timings


def _quiet_cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"pddiag {' '.join(argv)} exited {code}")


def _fused(vol, params, atlas, table):
    """The fused feature of one volume, built from the public aggregator functions."""
    dense = aggregator.encode_dense(vol, params.encoder)
    agg = aggregator.weighted_aggregate(aggregator.region_average_pool(vol, atlas), table)
    return aggregator.upsample_fuse(agg, dense, params.fusion)


def _close(got, want, rtol: float, atol: float = 0.0) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.allclose(got, want, rtol=rtol, atol=atol))


class _EpochClock:
    """Stamps the end of each epoch by wrapping the ``EpochTrace`` that train_stage builds."""

    def __init__(self):
        self.stamps: list[float] = []

    @contextlib.contextmanager
    def installed(self):
        real = training.EpochTrace

        def stamped(*args, **kwargs):
            self.stamps.append(time.perf_counter())
            return real(*args, **kwargs)

        training.EpochTrace = stamped
        try:
            yield self
        finally:
            training.EpochTrace = real


class Train32:
    """The acceptance workload: synth seed 7, n=200 at 32³, fold 0 of 5, stages 1→2→3, then evaluate.

    The seed picks the training seed (model init and shuffling). Epoch times
    skip each stage's first epoch, whose start train_stage does not mark.
    """

    name = "train32"

    def setup(self, work: Path, seed: int, size: str) -> dict:
        sz = SIZES[size]
        cohort_all, sa = synth.generate_cohort(synth.SynthConfig(n_subjects=sz["train_n"], dims=(32, 32, 32), seed=7))
        train_idx, test_idx = synth.split_cohort(cohort_all, folds=5, seed=7)[0]
        cfg = RunConfig()
        cfg.set("train", "epochs", sz["train_epochs"])
        cfg.set("train", "seed", seed % REFERENCE_SEEDS)
        train = cohort_all.subset(train_idx)
        healthy = sum(1 for s in train if s.label is Label.OTHER and s.is_healthy)
        work.mkdir(parents=True)
        return {
            "work": work,
            "train": train,
            "test": cohort_all.subset(test_idx),
            "atlas": sa.atlas,
            "table": sa.table,
            "prior": cfg.prior(),
            "tcfg": cfg.train_config(),
            "stage_subjects": {1: len(train), 2: healthy, 3: len(train)},
        }

    def run(self, st: dict) -> Outcome:
        t_start = time.perf_counter()
        tcfg = st["tcfg"]
        clock = _EpochClock()
        params = training.ModelParams.init(CHANNELS, seed=tcfg.seed)
        ckpt = None
        losses, age_losses, cls_losses = [], [], []
        epoch_s: dict[int, list[float]] = {}
        train_s = 0.0
        steps = 0
        with clock.installed():
            for stage in (1, 2, 3):
                if ckpt is not None:
                    params = training.load_checkpoint(ckpt)[0]
                clock.stamps.clear()
                t0 = time.perf_counter()
                params, trace = training.train_stage(
                    stage, st["train"], st["atlas"], st["table"], st["prior"], tcfg, params
                )
                train_s += time.perf_counter() - t0
                epoch_s[stage] = np.diff(clock.stamps).tolist()
                steps += st["stage_subjects"][stage] * tcfg.epochs
                ckpt = st["work"] / f"stage{stage}.ckpt"
                training.save_checkpoint_atomic(params, None, ckpt, stage=stage)
                losses += [t.loss for t in trace]
                age_losses += [t.age_loss for t in trace if t.age_loss is not None]
                cls_losses += [t.cls_loss for t in trace if t.cls_loss is not None]
        params = training.load_checkpoint(ckpt)[0]
        st["params"] = params
        metrics, _ = training.evaluate(params, st["test"], st["atlas"], st["table"], st["prior"])
        wall = time.perf_counter() - t_start
        outputs = {
            "loss": losses,
            "age_loss": age_losses,
            "cls_loss": cls_losses,
            "acc": metrics.acc,
            "auc": metrics.auc,
        }
        problems = [] if all(map(math.isfinite, losses + age_losses + cls_losses)) else ["non-finite loss"]
        return Outcome(
            wall_s=wall,
            rate=steps / train_s,
            attempted=1,
            problems=problems,
            outputs=outputs,
            details={f"stage{k}_epoch_s": v for k, v in epoch_s.items()},
        )

    def check(self, outputs: dict, reference: dict | None) -> list[str]:
        if reference is None:
            return ["no recorded reference for this seed and size"]
        tolerances = {"loss": LOSS_RTOL, "age_loss": LOSS_RTOL, "cls_loss": LOSS_RTOL, "acc": 0.0, "auc": 0.0}
        return [
            f"{key} differs from the reference"
            for key, rtol in tolerances.items()
            if not _close(outputs[key], reference[key], rtol, METRIC_ATOL if rtol == 0.0 else 0.0)
        ]

    def final_check(self, st: dict, reference: dict | None) -> tuple[int, list[str], dict]:
        """Gradient of the stage-3 loss of the first training subject at the trained parameters."""
        params, subject = st["params"], st["train"][0]
        ad.zero_grads(params.params())
        fused = _fused(subject.load_volume(), params, st["atlas"], st["table"])
        loss = diagnoser.total_loss(fused, subject.age, subject.label, params.branch1, params.branch2, st["prior"])
        ad.backward(loss.node)
        rng = np.random.default_rng(0)
        projections, norms = [], []
        for p in params.params():
            g = np.zeros_like(p.data) if p.grad is None else p.grad
            direction = rng.standard_normal(g.shape)
            projections.append(float(np.vdot(g, direction / np.linalg.norm(direction))))
            norms.append(float(np.linalg.norm(g)))
        outputs = {"grad_projection": projections, "grad_norm": norms}
        if reference is None:
            return 1, ["no recorded reference for this seed and size"], outputs
        # |projection| <= norm, so the reference norm scales both tolerances
        atol = LOSS_RTOL * np.asarray(reference["grad_norm"])
        ok = all(
            len(outputs[k]) == len(reference[k]) and bool(np.all(np.abs(np.subtract(outputs[k], reference[k])) <= atol))
            for k in outputs
        )
        return 1, [] if ok else ["gradient differs from the reference"], outputs


def _synth_scans(out: Path, n: int, seed: int) -> Path:
    """A 64³ synth cohort written by ``pddiag synth`` as float32 NIfTI; returns the manifest."""
    _quiet_cli("synth", "--out", str(out), "--n", str(n), "--seed", str(seed), "--dims", "64")
    return out / "manifest.csv"


class Screen64:
    """Forward-only ``predict`` over a 64³ cohort read from NIfTI files on every pass.

    The seed picks the synth seed and the model's init seed.
    """

    name = "screen64"

    def setup(self, work: Path, seed: int, size: str) -> dict:
        sz = SIZES[size]
        index = seed % REFERENCE_SEEDS
        manifest = _synth_scans(work, sz["screen_n"], index)
        table = load_relevance_table(work / "relevance.csv")
        atlas = volume_io.read_atlas(work / "atlas.nii", region_count=table.region_count)
        ckpt = work / "model.ckpt"
        training.save_checkpoint_atomic(training.ModelParams.init(CHANNELS, seed=index), None, ckpt)
        params = training.load_checkpoint(ckpt)[0]
        return {
            "manifest": manifest,
            "atlas": atlas,
            "table": table,
            "params": params,
            "prior": RunConfig().prior(),
            "cross_checks": sz["cross_checks"],
        }

    def run(self, st: dict) -> Outcome:
        t0 = time.perf_counter()
        subjects = cohort.read_manifest(st["manifest"])
        records = training.predict(st["params"], subjects, st["atlas"], st["table"], st["prior"])
        wall = time.perf_counter() - t0
        st["last"] = (subjects, records)
        return Outcome(
            wall_s=wall,
            rate=len(records) / wall,
            attempted=len(records),
            problems=[],
            outputs={"p_pd": [r.p_pd for r in records], "delta": [r.delta for r in records]},
        )

    def check(self, outputs: dict, reference: dict | None) -> list[str]:
        """One problem per subject whose p_pd or age gap differs from the reference."""
        if reference is None or len(reference["p_pd"]) != len(outputs["p_pd"]):
            return ["no recorded reference for this seed and size"] * len(outputs["p_pd"])
        return [
            f"subject {i}: prediction differs from the reference"
            for i, got in enumerate(zip(outputs["p_pd"], outputs["delta"]))
            if not _close(got, (reference["p_pd"][i], reference["delta"][i]), PREDICTION_RTOL, 1e-12)
        ]

    def final_check(self, st: dict, reference: dict | None) -> tuple[int, list[str], dict]:
        """Agree with the training graph: total_loss's corrected logits and age gap."""
        subjects, records = st["last"]
        params = st["params"]
        problems = []
        for rec, pred in list(zip(subjects, records))[: st["cross_checks"]]:
            fused = _fused(rec.load_volume(), params, st["atlas"], st["table"])
            loss = diagnoser.total_loss(fused, rec.age, rec.label, params.branch1, params.branch2, st["prior"])
            _, p_pd = diagnoser.decide(loss.corrected)
            if not (_close(p_pd, pred.p_pd, PREDICTION_RTOL, 1e-12) and _close(loss.delta, pred.delta, PREDICTION_RTOL, 1e-12)):
                problems.append(f"{rec.subject_id}: predict and total_loss disagree")
        return len(records[: st["cross_checks"]]), problems, {}


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# coreutils tools, so a step costs a process spawn and a copy and no
# interpreter start-up hides the orchestration cost; register goes through
# sh so that its template uses the {template} placeholder
COPY_CMD = "cp {input} {output}"
REGISTER_CMD = "sh -c 'cp \"$0\" \"$1\"' {input} {output} {template}"


def preprocess_jobs() -> int:
    return len(os.sched_getaffinity(0))


class Preprocess:
    """``run_pipeline`` over 64³ float32 NIfTI files: a cold pass into a fresh cache, then a warm rerun."""

    name = "preprocess"

    def setup(self, work: Path, seed: int, size: str) -> dict:
        manifest = _synth_scans(work, SIZES[size]["preprocess_n"], seed)
        paths = [s.path for s in cohort.read_manifest(manifest)]
        return {
            "work": work,
            "paths": paths,
            "digests": {Path(p).name.split(".")[0]: _sha256(p) for p in paths},
            "template": str(work / "atlas.nii"),
            "passes": 0,
        }

    def run(self, st: dict) -> Outcome:
        st["passes"] += 1
        cache = st["work"] / f"cache{st['passes']}"
        cfg = preprocess.ToolConfig(
            strip_cmd=COPY_CMD,
            bias_cmd=COPY_CMD,
            register_cmd=REGISTER_CMD,
            template_path=st["template"],
            cache_dir=str(cache),
            jobs=preprocess_jobs(),
        )
        t0 = time.perf_counter()
        cold = preprocess.run_pipeline(st["paths"], cfg)
        t1 = time.perf_counter()
        warm = preprocess.run_pipeline(st["paths"], cfg)
        t2 = time.perf_counter()
        problems = []  # at most one per record
        for recs, expected in ((cold, "ran"), (warm, "skipped")):
            for r in recs:
                want = st["digests"].get(r.subject_id)
                if not r.ok or r.steps != {s: expected for s in preprocess.STEPS}:
                    problems.append(f"{r.subject_id}: steps {r.steps}, error {r.error}")
                elif r.digest != want or (expected == "ran" and _sha256(r.output_path) != want):
                    problems.append(f"{r.subject_id}: output digest differs from the input's")
        shutil.rmtree(cache)
        n = len(st["paths"])
        hits = sum(1 for r in warm if all(v == "skipped" for v in r.steps.values()))
        return Outcome(
            wall_s=t2 - t0,
            rate=n / (t1 - t0),
            attempted=len(cold) + len(warm),
            problems=problems,
            outputs={},
            details={
                "cold_subjects_per_s": [n / (t1 - t0)],
                "warm_subjects_per_s": [n / (t2 - t1)],
                "cold_record_s": [sum(r.finished_at - r.started_at for r in cold)],
                "cold_records": [len(cold)],
                "cache_hits": [hits],
                "cache_lookups": [len(warm)],
            },
        )

    def check(self, outputs: dict, reference: dict | None) -> list[str]:
        return []

    def final_check(self, st: dict, reference: dict | None) -> tuple[int, list[str], dict]:
        return 0, [], {}


WORKLOADS = {w.name: w for w in (Train32(), Screen64(), Preprocess())}
