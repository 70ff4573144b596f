"""Three-stage training, AdamW with cosine schedule, metrics, checkpoints.

Stage 1 fits encoder + fusion + classifier with plain cross entropy.
Stage 2 freezes those and fits the age branch on healthy non-PD subjects,
taking chronological age as the regression target. Stage 3 fine-tunes
everything under the combined hinge + corrected-cross-entropy objective.
``STAGE_PARTS`` names the parts of ``ModelParams`` each stage fits. Training
runs in one process and is deterministic for a fixed seed: its per-sample
steps are too short to pay for a fork, and a worker pool forked during
training cost ~190k minor page faults per iteration.

The model's structure is declared once, by the fields of ``ModelParams`` and
of its four part dataclasses: a parameter is named ``part.field`` after the
two field names, and ``named_params``, ``rebuilt`` and the checkpoint arrays
all walk those fields in declaration order.

Stage 3's loss and ``predict`` run the same ``diagnoser.head``, so both read
its age gap delta and the corrected logits z + [alpha, -alpha] * (delta - tau),
the closed form of the paper's softplus-pair correction.

Forward passes that need no gradient (stage 2's fixed features and
``predict``) run on ``ModelParams.frozen()``, a constant view of the same
arrays, so they build no autodiff graph and ``conv3d_down`` takes its
cache-blocked path. ``predict`` streams the cohort: each subject's volume is
read, screened and dropped in turn, so a worker holds about one volume of
working memory however long the cohort is. It splits the cohort into
``forkmap.worker_count`` contiguous chunks, by the rule that
``synth.write_cohort`` follows too (one per CPU of the affinity mask, at
least 2²⁰ voxels each), and screens chunk 0 here and the others in
processes forked by ``forkmap.map_chunks``, which forks only on Linux and
only from a process of one OS thread (``forkmap.fork_usable``), so with
numpy's OpenBLAS pool on several CPUs screening needs
``OPENBLAS_NUM_THREADS=1``; otherwise it runs in one process, as under
``taskset -c 0``. The records are byte-identical for any worker count.
Both read a volume through ``SubjectRecord.load_volume``, which keeps none on
the record: ``train_stage`` holds its subjects' arrays only while it runs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .aggregator import (
    AggregatedFeature,
    EncoderParams,
    FusionProjection,
    encode_dense,
    region_average_pool,
    upsample_fuse,
    weighted_aggregate,
)
from .atomic import replacing
from .cohort import Cohort, SubjectRecord
from .csvtable import write_rows
from .diagnoser import BranchParams, Label, ce_loss_node, classify, decide, head, predict_brain_age, squared_error, total_loss
from .forkmap import map_chunks, worker_count
from .priors import AgingPriorParams, RelevanceTable
from .volume_io import AtlasVolume, DimMismatch

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Age-head bias starts at a typical screening-cohort age so the regression
# only has to learn the residual trend, not the absolute offset.
AGE_HEAD_BIAS_INIT = 65.0

CHECKPOINT_MAGIC = b"PDDN0001"


class InvalidStage(ValueError):
    pass


class EmptyCohort(ValueError):
    pass


class CheckpointError(ValueError):
    pass


class BadMagic(CheckpointError):
    pass


class ShapeMismatch(CheckpointError):
    pass


@dataclass
class ModelParams:
    """The four parts of the model; their field names name the checkpoint arrays."""

    encoder: EncoderParams
    fusion: FusionProjection
    branch1: BranchParams
    branch2: BranchParams

    @classmethod
    def init(cls, channels: int, seed: int) -> "ModelParams":
        rng = np.random.default_rng(seed)
        return cls(
            encoder=EncoderParams.init(channels, rng),
            fusion=FusionProjection.init(channels, rng),
            branch1=BranchParams.init(channels, 2, rng),
            branch2=BranchParams.init(channels, 1, rng, head_bias=AGE_HEAD_BIAS_INIT),
        )

    @property
    def channels(self) -> int:
        return self.encoder.channels

    def _parts(self) -> list[tuple[str, object]]:
        return [(f.name, getattr(self, f.name)) for f in dataclasses.fields(self)]

    def named_params(self) -> list[tuple[str, Tensor]]:
        """``part.field`` names with their tensors, in declaration order (the checkpoint's array order)."""
        return [
            (f"{name}.{f.name}", getattr(part, f.name))
            for name, part in self._parts()
            for f in dataclasses.fields(part)
        ]

    def params(self) -> list[Tensor]:
        return [t for _, t in self.named_params()]

    def rebuilt(self, make: Callable[[str, Tensor], Tensor]) -> "ModelParams":
        """The same structure with each named tensor ``t`` replaced by ``make(name, t)``."""

        def rebuild(name, part):
            return dataclasses.replace(
                part, **{f.name: make(f"{name}.{f.name}", getattr(part, f.name)) for f in dataclasses.fields(part)}
            )

        return ModelParams(**{name: rebuild(name, part) for name, part in self._parts()})

    def frozen(self) -> "ModelParams":
        """A constant view sharing these arrays: forward passes through it build no graph."""
        return self.rebuilt(lambda _, t: ad.constant(t.data))


# The model parts each training stage fits; the others stay fixed.
STAGE_PARTS = {
    1: ("encoder", "fusion", "branch1"),
    2: ("branch2",),
    3: tuple(f.name for f in dataclasses.fields(ModelParams)),
}


def check_stage(stage: int) -> None:
    """Raise InvalidStage unless ``stage`` is a key of ``STAGE_PARTS``."""
    if stage not in STAGE_PARTS:
        *first, last = STAGE_PARTS
        raise InvalidStage(f"stage must be {', '.join(map(str, first))}, or {last}, got {stage}")


@dataclass
class OptimState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int
    base_lr: float
    weight_decay: float
    total_steps: int

    @classmethod
    def init(cls, params: list[Tensor], base_lr: float, weight_decay: float, total_steps: int) -> "OptimState":
        return cls(
            m=[np.zeros_like(p.data) for p in params],
            v=[np.zeros_like(p.data) for p in params],
            step=0,
            base_lr=base_lr,
            weight_decay=weight_decay,
            total_steps=total_steps,
        )


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """Cosine annealing from base_lr at step 0 to 0 at total_steps."""
    if total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def adamw_step(params: list[Tensor], state: OptimState) -> None:
    """One decoupled-weight-decay Adam update at the cosine lr of ``state.step``; gradients read from param.grad.

    Every gradient is checked before anything changes: a wrong shape or a
    NaN or Inf in any of them raises and leaves params and state as they were.
    """
    if len(params) != len(state.m):
        raise ShapeMismatch(f"optimizer tracks {len(state.m)} params, got {len(params)}")
    grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
    for p, g in zip(params, grads):
        if g.shape != p.data.shape:
            raise ShapeMismatch(f"grad shape {g.shape} != param shape {p.data.shape}")
        if not np.isfinite(g).all():
            raise ValueError("non-finite gradient; refusing to step")
    lr = cosine_lr(state.step, state.total_steps, state.base_lr)
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for i, (p, g) in enumerate(zip(params, grads)):
        if state.weight_decay:
            p.data *= 1.0 - lr * state.weight_decay
        state.m[i] = ADAM_BETA1 * state.m[i] + (1.0 - ADAM_BETA1) * g
        state.v[i] = ADAM_BETA2 * state.v[i] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass
class TrainConfig:
    epochs: int = 30
    batch: int = 4
    lr: float = 1e-3
    weight_decay: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class EpochTrace:
    epoch: int
    loss: float
    age_loss: float | None = None
    cls_loss: float | None = None


@dataclass
class _Prepared:
    record: SubjectRecord
    array: np.ndarray
    agg: AggregatedFeature


def _prepare_one(rec: SubjectRecord, atlas: AtlasVolume, table: RelevanceTable) -> _Prepared:
    vol = rec.load_volume()
    if vol.shape != atlas.dims:
        raise DimMismatch(f"{rec.path or rec.subject_id}: volume dims {vol.shape} != atlas dims {atlas.dims}")
    return _Prepared(record=rec, array=vol, agg=weighted_aggregate(region_average_pool(vol, atlas), table))


def _fused(prep: _Prepared, model: ModelParams) -> Tensor:
    dense = encode_dense(prep.array, model.encoder)
    return upsample_fuse(prep.agg, dense, model.fusion)


def train_stage(
    stage: int,
    cohort: Cohort,
    atlas: AtlasVolume,
    table: RelevanceTable,
    prior: AgingPriorParams,
    config: TrainConfig,
    params: ModelParams,
) -> tuple[ModelParams, list[EpochTrace]]:
    """Run one training stage in place; returns the params and a loss trace."""
    check_stage(stage)
    if len(cohort) == 0:
        raise EmptyCohort("cannot train on an empty cohort")
    if not cohort.labeled():
        raise ValueError("training cohort must be fully labeled")

    subjects = [s for s in cohort if stage != 2 or (s.label is Label.OTHER and s.is_healthy)]
    if not subjects:
        raise EmptyCohort("stage 2 needs healthy non-PD subjects, found none")
    prepared = [_prepare_one(rec, atlas, table) for rec in subjects]
    if stage == 2:
        frozen = params.frozen()
        fixed = [_fused(p, frozen) for p in prepared]

    trainables = [t for name, t in params.named_params() if name.split(".")[0] in STAGE_PARTS[stage]]
    n = len(prepared)
    steps_per_epoch = math.ceil(n / config.batch)
    state = OptimState.init(trainables, config.lr, config.weight_decay, config.epochs * steps_per_epoch)
    rng = np.random.default_rng(config.seed)
    trace: list[EpochTrace] = []

    for epoch in range(config.epochs):
        order = rng.permutation(n)
        losses, ages, clss = [], [], []
        for start in range(0, n, config.batch):
            chunk = order[start : start + config.batch]
            ad.zero_grads(trainables)
            for idx in chunk:
                prep = prepared[idx]
                if stage == 1:
                    node = ce_loss_node(classify(_fused(prep, params), params.branch1), prep.record.label)
                elif stage == 2:
                    node = squared_error(predict_brain_age(fixed[idx], params.branch2), prep.record.age)
                else:
                    breakdown = total_loss(
                        _fused(prep, params), prep.record.age, prep.record.label, params.branch1, params.branch2, prior
                    )
                    node = breakdown.node
                    ages.append(breakdown.age)
                    clss.append(breakdown.cls)
                losses.append(node.item())
                ad.backward(node, seed=1.0 / len(chunk))
            adamw_step(trainables, state)
        trace.append(
            EpochTrace(
                epoch=epoch,
                loss=float(np.mean(losses)),
                age_loss=float(np.mean(ages)) if ages else None,
                cls_loss=float(np.mean(clss)) if clss else None,
            )
        )
    return params, trace


def write_loss_trace(trace: list[EpochTrace], path) -> None:
    """One LF-terminated row per epoch; a loss the stage does not compute is an empty field."""
    rows = ([t.epoch, t.loss, t.age_loss, t.cls_loss] for t in trace)
    write_rows(path, ["epoch", "loss", "age_loss", "cls_loss"], rows, lineterminator="\n")


@dataclass
class PredictionRecord:
    subject_id: str
    label: Label | None
    p_pd: float
    delta: float
    predicted_age: float
    decision: Label


@dataclass
class Metrics:
    tp: int
    tn: int
    fp: int
    fn: int
    acc: float | None
    tpr: float | None
    fpr: float | None
    auc: float | None = None

    RATES = ("acc", "tpr", "fpr", "auc")

    @classmethod
    def from_counts(cls, tp: int, tn: int, fp: int, fn: int, auc: float | None = None) -> "Metrics":
        total = tp + tn + fp + fn
        return cls(
            tp=tp,
            tn=tn,
            fp=fp,
            fn=fn,
            acc=(tp + tn) / total if total else None,
            tpr=tp / (tp + fn) if (tp + fn) else None,
            fpr=fp / (fp + tn) if (fp + tn) else None,
            auc=auc,
        )

    def to_kv_text(self) -> str:
        counts = [f"{k}={getattr(self, k)}" for k in ("tp", "tn", "fp", "fn")]
        return "\n".join(counts + [kv_rate(k, getattr(self, k)) for k in self.RATES]) + "\n"


def kv_rate(key: str, value: float | None) -> str:
    """The ``key=value`` line of a rate or AUC, "undefined" when it is None."""
    return f"{key}={'undefined' if value is None else repr(float(value))}"


def predict(
    params: ModelParams,
    cohort: Cohort,
    atlas: AtlasVolume,
    table: RelevanceTable,
    prior: AgingPriorParams,
) -> list[PredictionRecord]:
    """Full forward path per subject: encode, pool, aggregate, fuse, ``head``, decide.

    Subjects stream one at a time: a volume read from a record's path is
    dropped once the subject is decided, never kept on the record, and the
    forward pass runs on a constant view of ``params``, so it builds no graph.
    Contiguous chunks of the cohort run in forked workers (see the module
    docstring); the first failing subject in cohort order raises its error,
    and a worker that dies without a result raises RuntimeError naming its
    range of cohort indices and its wait status.
    """
    if len(cohort) == 0:
        raise EmptyCohort("cannot predict on an empty cohort")
    model = params.frozen()

    def screen(subjects: list[SubjectRecord]) -> list[PredictionRecord]:
        records = []
        for rec in subjects:
            fused = _fused(_prepare_one(rec, atlas, table), model)
            out = head(fused, rec.age, model.branch1, model.branch2, prior)
            decision, p_pd = decide(out.corrected)
            records.append(
                PredictionRecord(
                    subject_id=rec.subject_id,
                    label=rec.label,
                    p_pd=p_pd,
                    delta=out.delta,
                    predicted_age=out.predicted_age.item(),
                    decision=decision,
                )
            )
        return records

    return map_chunks(screen, cohort, worker_count(len(cohort), atlas.labels.size))


def metrics_from_records(records: list[PredictionRecord]) -> Metrics:
    counts = Counter((r.label, r.decision) for r in records)
    if any(label is None for label, _ in counts):
        raise ValueError("records include unlabeled subjects; use `pddiag predict` for label-free data")
    pd, other = Label.PD, Label.OTHER
    auc = None
    if {pd, other} <= {label for label, _ in counts}:
        auc = roc_auc([r.p_pd for r in records], [r.label for r in records])
    return Metrics.from_counts(counts[pd, pd], counts[other, other], counts[other, pd], counts[pd, other], auc=auc)


def evaluate(
    params: ModelParams,
    cohort: Cohort,
    atlas: AtlasVolume,
    table: RelevanceTable,
    prior: AgingPriorParams,
) -> tuple[Metrics, list[PredictionRecord]]:
    if not cohort.labeled():
        raise ValueError("cohort has unlabeled subjects; use predict() instead")
    records = predict(params, cohort, atlas, table, prior)
    return metrics_from_records(records), records


_BINARY_LABELS = {Label.PD: 1, Label.OTHER: 0, 1: 1, 0: 0}


def _roc_curve(scores, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fpr, tpr and threshold columns of ``roc_points``, one cumulative count per tie group."""
    y = np.array([_BINARY_LABELS.get(label, -1) for label in labels], dtype=np.int64)
    if (y < 0).any():
        raise ValueError(f"labels[{(y < 0).argmax()}] is not a Label or 0/1")
    s = np.asarray(scores, dtype=np.float64)
    if len(s) != len(y):
        raise ValueError(f"{len(s)} scores but {len(y)} labels")
    if np.isnan(s).any():
        raise ValueError(f"scores[{np.isnan(s).argmax()}] is NaN")
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs at least one positive and one negative")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    starts = np.flatnonzero(np.concatenate(([True], s_sorted[1:] != s_sorted[:-1])))  # first of each tie group
    seen = np.append(starts[1:], len(s))  # subjects scored at or above each group's score
    tp = np.cumsum(y[order])[seen - 1]
    return np.r_[0.0, (seen - tp) / n_neg], np.r_[0.0, tp / n_pos], np.r_[math.inf, s_sorted[starts]]


def roc_points(scores, labels) -> list[tuple[float, float, float]]:
    """(fpr, tpr, threshold) rows of a descending threshold sweep: (0, 0, inf), then one row per distinct score.

    A label is a ``Label`` (PD is positive) or 0/1 (1 is positive); a label
    of any other value, or a NaN score, raises ValueError naming its index.
    """
    return list(zip(*(column.tolist() for column in _roc_curve(scores, labels))))


def roc_auc(scores, labels) -> float:
    """Area under the ROC curve: trapezoidal integration of the ``roc_points`` sweep."""
    fpr, tpr, _ = _roc_curve(scores, labels)
    return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))


def save_checkpoint(
    params: ModelParams,
    optim_state: OptimState | None,
    path,
    stage: int | None = None,
    config_hash: str | None = None,
) -> None:
    """Magic, length-prefixed JSON metadata, then raw little-endian float64 arrays."""
    arrays: list[tuple[str, np.ndarray]] = [(name, t.data) for name, t in params.named_params()]
    if optim_state is not None:
        for i, m in enumerate(optim_state.m):
            arrays.append((f"optim.m.{i}", m))
        for i, v in enumerate(optim_state.v):
            arrays.append((f"optim.v.{i}", v))
    meta = {
        "channels": params.channels,
        "stage": stage,
        "config_hash": config_hash,
        "arrays": [{"name": name, "shape": list(a.shape)} for name, a in arrays],
        "optim": None
        if optim_state is None
        else {
            "step": optim_state.step,
            "base_lr": optim_state.base_lr,
            "weight_decay": optim_state.weight_decay,
            "total_steps": optim_state.total_steps,
        },
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[ModelParams, OptimState | None, dict]:
    """Read a checkpoint written by save_checkpoint.

    A file that is not a whole, well-formed checkpoint of this model, or an
    array that holds a NaN or Inf, raises CheckpointError (BadMagic,
    ShapeMismatch): every declared length is checked against the bytes left
    in the file before anything that long is read.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise BadMagic(f"bad checkpoint magic {magic!r}")
        head = fh.read(8)
        if len(head) < 8:
            raise CheckpointError("truncated metadata length")
        (meta_len,) = struct.unpack("<Q", head)
        if meta_len > size - fh.tell():
            raise CheckpointError(f"metadata length {meta_len} runs past the end of the file")
        try:
            meta = json.loads(fh.read(meta_len).decode("utf-8"))
            channels = int(meta["channels"])
            entries = [(str(e["name"]), tuple(int(n) for n in e["shape"])) for e in meta["arrays"]]
            optim_meta = meta["optim"]
        # JSON and UTF-8 errors are ValueErrors; int() of a JSON 1e400 (inf) overflows
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CheckpointError(f"malformed checkpoint metadata: {exc!r}") from exc
        named: dict[str, np.ndarray] = {}
        for name, shape in entries:
            count = math.prod(shape)
            if min(shape, default=0) < 0 or 8 * count > size - fh.tell():
                raise CheckpointError(f"truncated array {name}")
            try:
                named[name] = np.frombuffer(fh.read(8 * count), dtype="<f8").reshape(shape).copy()
            except ValueError as exc:  # an empty array with too many or too large dimensions
                raise CheckpointError(f"array {name}: shape {shape} is not a numpy shape") from exc
            if not np.isfinite(named[name]).all():
                raise CheckpointError(f"array {name} holds NaN or Inf")
        if fh.tell() != size:
            raise CheckpointError(f"{size - fh.tell()} trailing bytes after the last array")

    # each branch conv holds channels² × 27 float64s, so refuse a channel
    # count the file cannot hold before building a model that wide
    if 8 * 27 * channels**2 > size:
        raise ShapeMismatch(f"checkpoint of {size} bytes cannot hold a {channels}-channel model")
    try:
        expected = ModelParams.init(channels, seed=0)
    except ValueError as exc:
        raise CheckpointError(f"bad channel count in checkpoint: {exc}") from exc
    for name, t in expected.named_params():
        if name not in named:
            raise CheckpointError(f"checkpoint missing array {name}")
        if named[name].shape != t.data.shape:
            raise ShapeMismatch(f"{name}: checkpoint shape {named[name].shape} != expected {t.data.shape}")
    model = expected.rebuilt(lambda name, _: ad.parameter(named[name]))
    optim = None
    if optim_meta is not None:
        n = len(model.params())
        try:
            optim = OptimState(
                m=[named[f"optim.m.{i}"] for i in range(n)],
                v=[named[f"optim.v.{i}"] for i in range(n)],
                step=int(optim_meta["step"]),
                base_lr=float(optim_meta["base_lr"]),
                weight_decay=float(optim_meta["weight_decay"]),
                total_steps=int(optim_meta["total_steps"]),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CheckpointError(f"malformed optimizer state: {exc!r}") from exc
    return model, optim, meta


def save_checkpoint_atomic(params, optim_state, path, stage=None, config_hash=None) -> None:
    with replacing(path) as tmp:
        save_checkpoint(params, optim_state, tmp, stage=stage, config_hash=config_hash)
