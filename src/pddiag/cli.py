"""Command-line interface: synth, split, preprocess, train, predict, evaluate, report.

Every command reads an optional INI config (see config.SCHEMA for keys and
defaults); flags override file values. All randomness flows from explicit
seeds, never the clock, so identical invocations produce identical outputs.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import traceback
from pathlib import Path

from .atomic import replacing
from .cohort import Cohort, SubjectRecord, read_manifest, write_manifest
from .config import SCHEMA, RunConfig, load_config
from .csvtable import read_rows, write_rows
from .diagnoser import Label
from .forkmap import map_chunks, worker_count
from .preprocess import run_pipeline
from .priors import default_relevance_table, load_relevance_table, save_relevance_table
from .synth import make_synth_atlas, split_cohort, synth_subject
from .training import (
    STAGE_PARTS,
    Metrics,
    ModelParams,
    PredictionRecord,
    check_stage,
    evaluate,
    kv_rate,
    load_checkpoint,
    metrics_from_records,
    predict,
    roc_points,
    save_checkpoint_atomic,
    train_stage,
    write_loss_trace,
)
from .volume_io import read_atlas, write_atlas, write_volume

PREDICTION_FIELDS = ["subject_id", "label", "p_pd", "delta", "predicted_age", "decision"]


def _config_flag(parser, section: str, key: str, flag: str | None = None, **kwargs) -> None:
    """``--<key-with-dashes>`` (or ``--<flag>``) overriding ``[section] key``, typed like its default."""
    name = flag or key
    kwargs.setdefault("metavar", name.upper())
    option = f"--{name.replace('_', '-')}"
    parser.add_argument(option, dest=f"{section}.{key}", type=type(SCHEMA[section][key]), **kwargs)


def _data_flags(parser) -> None:
    """``--manifest``, ``--atlas`` and ``--relevance``, overriding the ``[data]`` paths."""
    for flag, key in (("manifest", "cohort_manifest"), ("atlas", "atlas_path"), ("relevance", "relevance_csv")):
        _config_flag(parser, "data", key, flag=flag)


def _config(args: argparse.Namespace) -> RunConfig:
    """The ``--config`` file with every given config flag (dest ``section.key``) applied over it."""
    cfg = load_config(args.config)
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            cfg.set(*dest.split("."), value)
    return cfg


def _read_cohort(cfg: RunConfig) -> Cohort:
    manifest = cfg.get("data", "cohort_manifest")
    if not manifest:
        raise ValueError("no cohort manifest given (flag --manifest or config data.cohort_manifest)")
    return read_manifest(manifest)


def _load_data(cfg: RunConfig):
    cohort = _read_cohort(cfg)
    atlas_path = cfg.get("data", "atlas_path")
    if not atlas_path:
        raise ValueError("no atlas given (flag --atlas or config data.atlas_path)")
    relevance = cfg.get("data", "relevance_csv")
    table = load_relevance_table(relevance) if relevance else default_relevance_table()
    return cohort, read_atlas(atlas_path, region_count=table.region_count), table


def write_predictions(records: list[PredictionRecord], path) -> None:
    def row(r: PredictionRecord) -> list:
        label = r.label.value if r.label else ""
        return [r.subject_id, label, repr(r.p_pd), repr(r.delta), repr(r.predicted_age), r.decision.value]

    write_rows(path, PREDICTION_FIELDS, map(row, records))


def read_predictions(path) -> list[PredictionRecord]:
    """Read a predictions CSV as ``write_predictions`` writes it.

    A malformed file raises ValueError naming the file and the line.
    """

    def parse(row) -> PredictionRecord:
        p_pd = float(row["p_pd"])
        if not 0.0 <= p_pd <= 1.0:
            raise ValueError(f"p_pd must lie in [0, 1], got {row['p_pd']!r}")
        return PredictionRecord(
            subject_id=row["subject_id"],
            label=Label(row["label"]) if row["label"] else None,
            p_pd=p_pd,
            delta=float(row["delta"]),
            predicted_age=float(row["predicted_age"]),
            decision=Label(row["decision"]),
        )

    return read_rows(path, PREDICTION_FIELDS, parse)


def cmd_synth(args) -> int:
    """Write a synth cohort one subject at a time, so memory peaks at about one volume per process whatever ``--n`` is.

    Subjects are drawn and written over ``forkmap.worker_count`` contiguous
    ranges of indices, one per CPU of the affinity mask: range 0 here, the
    others in processes forked by ``forkmap.map_chunks`` (only from a process
    of one OS thread, so on several CPUs under ``OPENBLAS_NUM_THREADS=1``).
    Subject i draws from its own stream, so the files are byte-identical for
    any split. The atlas, relevance table and manifest are written last, and
    a manifest left by an earlier run is removed first: a directory without
    ``manifest.csv`` is an incomplete cohort. If a writer fails, the
    ``s<digits>.nii.tmp`` files of writers cut short are removed. Volumes an
    earlier, larger run named ``s<digits>.nii`` are removed before the
    manifest is written; other files in ``volumes/`` are left alone.
    """
    scfg = _config(args).synth_config()
    satlas = make_synth_atlas(scfg.dims, scfg.region_count)
    out = Path(args.out)
    volumes = out / "volumes"
    volumes.mkdir(parents=True, exist_ok=True)
    (out / "manifest.csv").unlink(missing_ok=True)

    def write(indices: list[int]) -> list[SubjectRecord]:
        records = []
        for i in indices:
            rec = synth_subject(scfg, satlas, i)
            rec.path = f"volumes/{rec.subject_id}.nii"
            write_volume(rec.volume, out / rec.path)
            rec.volume = None
            records.append(rec)
        return records

    n = scfg.n_subjects
    try:
        subjects = map_chunks(write, list(range(n)), worker_count(n, math.prod(scfg.dims)))
    except BaseException:
        for tmp in volumes.iterdir():
            if re.fullmatch(r"s\d+\.nii\.tmp", tmp.name):
                tmp.unlink(missing_ok=True)
        raise
    written = {f"{rec.subject_id}.nii" for rec in subjects}
    for stale in volumes.iterdir():
        if re.fullmatch(r"s\d+\.nii", stale.name) and stale.name not in written:
            stale.unlink()
    write_atlas(satlas.atlas, out / "atlas.nii")
    save_relevance_table(satlas.table, out / "relevance.csv")
    write_manifest(Cohort(subjects), out / "manifest.csv")
    print(f"cohort: {out / 'manifest.csv'}")
    print(f"atlas: {out / 'atlas.nii'}")
    print(f"relevance: {out / 'relevance.csv'}")
    return 0


def cmd_split(args) -> int:
    cfg = _config(args)
    cohort = _read_cohort(cfg)
    for s in cohort:
        if s.path:
            s.path = str(Path(s.path).resolve())
    out = Path(args.out_dir)
    for k, (train_idx, test_idx) in enumerate(split_cohort(cohort, folds=args.folds, seed=args.seed)):
        write_manifest(cohort.subset(train_idx), out / f"fold{k}_train.csv")
        write_manifest(cohort.subset(test_idx), out / f"fold{k}_test.csv")
        print(f"fold {k}: {len(train_idx)} train / {len(test_idx)} test")
    print(f"fold manifests: {out}")
    return 0


def cmd_preprocess(args) -> int:
    cfg = _config(args)
    cohort = _read_cohort(cfg)
    pathless = [s.subject_id for s in cohort if s.path is None]
    if pathless:
        raise ValueError(f"manifest rows without a path cannot be preprocessed: {', '.join(pathless)}")
    records = run_pipeline([s.path for s in cohort], cfg.tool_config())
    for rec in records:
        status = "ok" if rec.ok else f"FAILED ({rec.error})"
        steps = ",".join(f"{k}={v}" for k, v in rec.steps.items())
        print(f"{rec.subject_id}: {status} [{steps}]")
    if args.out_manifest:
        survivors = [(s, r) for s, r in zip(cohort, records) if r.ok]
        for s, r in survivors:
            s.path = str(Path(r.output_path).resolve())
        write_manifest(Cohort([s for s, _ in survivors]), args.out_manifest)
        print(f"processed manifest: {args.out_manifest}")
    return 0 if all(r.ok for r in records) else 1


def cmd_train(args) -> int:
    cfg = _config(args)
    config = cfg.train_config()  # rejects bad settings before anything is written
    stage = int(cfg.get("train", "stage"))
    check_stage(stage)
    cohort, atlas, table = _load_data(cfg)
    out_dir = Path(args.out_dir)
    if stage == 1:
        params = ModelParams.init(int(cfg.get("model", "channels")), seed=int(cfg.get("train", "seed")))
    else:
        prev = out_dir / f"stage{stage - 1}.ckpt"
        if not prev.exists():
            raise FileNotFoundError(f"stage {stage} requires the stage {stage - 1} checkpoint at {prev}; train it first")
        params, _, meta = load_checkpoint(prev)
        # the config hash is not compared: [train] stage and epochs differ between stage runs
        if meta.get("stage") != stage - 1:
            raise ValueError(f"{prev} records stage {meta.get('stage')}, expected {stage - 1}")
        channels = int(cfg.get("model", "channels"))
        if params.channels != channels:
            raise ValueError(f"{prev} has {params.channels} channels, [model] channels is {channels}")
    params, trace = train_stage(stage, cohort, atlas, table, cfg.prior(), config, params)
    ckpt = out_dir / f"stage{stage}.ckpt"
    save_checkpoint_atomic(params, None, ckpt, stage=stage, config_hash=cfg.digest())
    trace_path = out_dir / f"stage{stage}_trace.csv"
    write_loss_trace(trace, trace_path)
    print(f"checkpoint: {ckpt}")
    print(f"trace: {trace_path}")
    print(f"final epoch loss: {trace[-1].loss!r}")
    return 0


def _model_and_data(cfg: RunConfig, checkpoint):
    """The ``(params, cohort, atlas, table, prior)`` that ``predict`` and ``evaluate`` take; data is read first."""
    cohort, atlas, table = _load_data(cfg)
    params, _, _ = load_checkpoint(checkpoint)
    return params, cohort, atlas, table, cfg.prior()


def cmd_predict(args) -> int:
    records = predict(*_model_and_data(_config(args), args.checkpoint))
    write_predictions(records, args.out)
    print(f"predictions: {args.out}")
    return 0


def _metrics_text(folds: list[list[PredictionRecord]]) -> str:
    """One fold's metrics, or per-fold metrics plus both aggregation rules: mean of folds and pooled counts."""
    per_fold = [metrics_from_records(records) for records in folds]
    if len(per_fold) == 1:
        return per_fold[0].to_kv_text()
    lines = []
    for k, m in enumerate(per_fold):
        lines.extend(f"fold{k}.{line}" for line in m.to_kv_text().splitlines())

    def mean_of(attr):
        vals = [getattr(m, attr) for m in per_fold if getattr(m, attr) is not None]
        return sum(vals) / len(vals) if vals else None

    for attr in Metrics.RATES:
        lines.append(kv_rate(f"mean.{attr}", mean_of(attr)))
    pooled = metrics_from_records([r for records in folds for r in records])
    lines.extend(f"pooled.{line}" for line in pooled.to_kv_text().splitlines())
    return "\n".join(lines) + "\n"


def cmd_evaluate(args) -> int:
    cfg = _config(args)
    if args.predictions:
        text = _metrics_text([read_predictions(p) for p in args.predictions])
    elif args.checkpoint:
        # evaluate() refuses an unlabeled cohort before it reads any subject
        text = evaluate(*_model_and_data(cfg, args.checkpoint))[0].to_kv_text()
    else:
        raise ValueError("evaluate needs --predictions or --checkpoint with cohort data")
    sys.stdout.write(text)
    if args.out:
        with replacing(args.out) as tmp, open(tmp, "w") as fh:
            fh.write(text)
        print(f"metrics: {args.out}")
    return 0


def cmd_report(args) -> int:
    cfg = _config(args)
    if args.out_roc and not args.predictions:
        raise ValueError("report --out-roc needs --predictions")
    if args.dump_config:
        sys.stdout.write(cfg.dump())
        if not args.predictions:
            return 0
    if not args.predictions:
        raise ValueError("report needs --predictions (or use --dump-config alone)")
    records = read_predictions(args.predictions)
    metrics = metrics_from_records(records)
    print("confusion matrix (rows: truth, cols: decision)")
    print("           pd    other")
    print(f"pd       {metrics.tp:4d}    {metrics.fn:4d}")
    print(f"other    {metrics.fp:4d}    {metrics.tn:4d}")
    if args.out_roc:
        rows = roc_points([r.p_pd for r in records], [r.label for r in records])
        with replacing(args.out_roc) as tmp, open(tmp, "w", newline="") as fh:
            fh.writelines(["fpr,tpr,threshold\n", *(",".join(map(repr, row)) + "\n" for row in rows)])
        print(f"roc: {args.out_roc}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pddiag", description="Prior-guided volumetric PD screening pipeline")
    parser.add_argument(
        "--debug", action="store_true", help="on an error, print its traceback (a worker's too) before the message"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)  # --config, the first option of every command
    config.add_argument("--config")

    p = sub.add_parser("synth", parents=[config], help="generate a synthetic cohort, atlas, and manifest")
    p.add_argument("--out", required=True, help="output directory")
    _config_flag(p, "synth", "n_subjects", flag="n", help="number of subjects")
    _config_flag(p, "synth", "seed")
    _config_flag(p, "synth", "dims", help="cube edge length (divisible by 4)")
    for key in ("pd_fraction", "noise_std", "signal_gain"):
        _config_flag(p, "synth", key)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", parents=[config], help="write stratified k-fold train/test manifests")
    _config_flag(p, "data", "cohort_manifest", flag="manifest")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser(
        "preprocess", parents=[config], help="run skull strip, bias correction, registration with caching"
    )
    _config_flag(p, "data", "cohort_manifest", flag="manifest", help="cohort manifest of raw scans")
    p.add_argument("--out-manifest", dest="out_manifest", help="write manifest of processed scans")
    for key in ("jobs", "cache_dir"):
        _config_flag(p, "preprocess", key)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", parents=[config], help="run one training stage")
    _config_flag(p, "train", "stage", choices=tuple(STAGE_PARTS), metavar=None)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    _data_flags(p)
    for key in ("epochs", "batch", "lr", "weight_decay", "seed"):
        _config_flag(p, "train", key)
    _config_flag(p, "model", "channels")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", parents=[config], help="write per-subject predictions CSV")
    p.add_argument("--checkpoint", required=True)
    _data_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", parents=[config], help="compute ACC/TPR/FPR/AUC and confusion counts")
    # metrics come from prediction files or from a model, never both
    source = p.add_mutually_exclusive_group()
    source.add_argument(
        "--predictions",
        action="append",
        help="existing predictions CSV; repeat for per-fold files to get mean and pooled summaries",
    )
    source.add_argument("--checkpoint")
    _data_flags(p)
    p.add_argument("--out", help="write metrics key-value document")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", parents=[config], help="confusion matrix, ROC point list, config dump")
    p.add_argument("--predictions")
    p.add_argument("--out-roc", dest="out_roc")
    p.add_argument("--dump-config", dest="dump_config", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        if args.debug:
            traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
