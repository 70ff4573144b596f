"""Command-line interface: synth, split, preprocess, train, predict, evaluate, report.

Every command reads an optional INI config (see config.SCHEMA for keys and
defaults); flags override file values. All randomness flows from explicit
seeds, never the clock, so identical invocations produce identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .atomic import replacing
from .cohort import Cohort, read_manifest, write_manifest
from .config import SCHEMA, RunConfig, load_config
from .diagnoser import Label
from .preprocess import run_pipeline
from .priors import RelevanceTable, default_relevance_table, load_relevance_table, save_relevance_table
from .synth import generate_cohort, split_cohort
from .training import (
    ModelParams,
    PredictionRecord,
    load_checkpoint,
    metrics_from_records,
    predict,
    roc_points,
    save_checkpoint_atomic,
    train_stage,
    write_loss_trace,
)
from .volume_io import DTYPE_FLOAT32, read_atlas, write_atlas, write_volume

PREDICTION_FIELDS = ["subject_id", "label", "p_pd", "delta", "predicted_age", "decision"]


def _config_flag(parser, section: str, key: str, flag: str | None = None, **kwargs) -> None:
    """``--<key-with-dashes>`` (or ``--<flag>``) overriding ``[section] key``, typed like its default."""
    name = flag or key
    kwargs.setdefault("metavar", name.upper())
    option = f"--{name.replace('_', '-')}"
    parser.add_argument(option, dest=f"{section}.{key}", type=type(SCHEMA[section][key]), **kwargs)


def _config(args: argparse.Namespace) -> RunConfig:
    """The ``--config`` file with every given config flag (dest ``section.key``) applied over it."""
    cfg = load_config(args.config)
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            cfg.set(*dest.split("."), value)
    return cfg


def _load_table(cfg: RunConfig, args) -> RelevanceTable:
    path = getattr(args, "relevance", None) or cfg.get("data", "relevance_csv")
    return load_relevance_table(path) if path else default_relevance_table()


def _load_data(cfg: RunConfig, args):
    manifest = getattr(args, "manifest", None) or cfg.get("data", "cohort_manifest")
    atlas_path = getattr(args, "atlas", None) or cfg.get("data", "atlas_path")
    if not manifest:
        raise ValueError("no cohort manifest given (flag --manifest or config data.cohort_manifest)")
    if not atlas_path:
        raise ValueError("no atlas given (flag --atlas or config data.atlas_path)")
    table = _load_table(cfg, args)
    atlas = read_atlas(atlas_path, region_count=table.region_count)
    return read_manifest(manifest), atlas, table


def write_predictions(records: list[PredictionRecord], path) -> None:
    with replacing(path) as tmp, open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PREDICTION_FIELDS)
        for r in records:
            writer.writerow(
                [
                    r.subject_id,
                    r.label.value if r.label else "",
                    repr(r.p_pd),
                    repr(r.delta),
                    repr(r.predicted_age),
                    r.decision.value,
                ]
            )


def read_predictions(path) -> list[PredictionRecord]:
    """Read a predictions CSV as ``write_predictions`` writes it.

    A malformed file raises ValueError naming the file and the line.
    """
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != PREDICTION_FIELDS:
                raise ValueError(f"expected header {','.join(PREDICTION_FIELDS)}, got {reader.fieldnames}")
            reader.fieldnames = PREDICTION_FIELDS
            for row in reader:
                if None in row or None in row.values():
                    raise ValueError(f"expected {len(PREDICTION_FIELDS)} fields, got {row}")
                p_pd = float(row["p_pd"])
                if not 0.0 <= p_pd <= 1.0:
                    raise ValueError(f"p_pd must lie in [0, 1], got {row['p_pd']!r}")
                records.append(
                    PredictionRecord(
                        subject_id=row["subject_id"],
                        label=Label(row["label"]) if row["label"] else None,
                        p_pd=p_pd,
                        delta=float(row["delta"]),
                        predicted_age=float(row["predicted_age"]),
                        decision=Label(row["decision"]),
                    )
                )
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from exc
    return records


def cmd_synth(args) -> int:
    scfg = _config(args).synth_config()
    cohort, satlas = generate_cohort(scfg)
    out = Path(args.out)
    (out / "volumes").mkdir(parents=True, exist_ok=True)
    for rec in cohort:
        rel = f"volumes/{rec.subject_id}.nii"
        write_volume(rec.volume, out / rel, datatype_code=DTYPE_FLOAT32)
        rec.path = rel
    write_atlas(satlas.atlas, out / "atlas.nii")
    save_relevance_table(satlas.table, out / "relevance.csv")
    write_manifest(cohort, out / "manifest.csv")
    print(f"cohort: {out / 'manifest.csv'}")
    print(f"atlas: {out / 'atlas.nii'}")
    print(f"relevance: {out / 'relevance.csv'}")
    return 0


def cmd_split(args) -> int:
    cfg = _config(args)
    manifest = args.manifest or cfg.get("data", "cohort_manifest")
    if not manifest:
        raise ValueError("no cohort manifest given (flag --manifest or config data.cohort_manifest)")
    cohort = read_manifest(manifest)
    for s in cohort:
        if s.path:
            s.path = str(Path(s.path).resolve())
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for k, (train_idx, test_idx) in enumerate(split_cohort(cohort, folds=args.folds, seed=args.seed)):
        write_manifest(cohort.subset(train_idx), out / f"fold{k}_train.csv")
        write_manifest(cohort.subset(test_idx), out / f"fold{k}_test.csv")
        print(f"fold {k}: {len(train_idx)} train / {len(test_idx)} test")
    print(f"fold manifests: {out}")
    return 0


def cmd_preprocess(args) -> int:
    cfg = _config(args)
    manifest = args.manifest or cfg.get("data", "cohort_manifest")
    if not manifest:
        raise ValueError("no cohort manifest given (flag --manifest or config data.cohort_manifest)")
    cohort = read_manifest(manifest)
    records = run_pipeline([s.path for s in cohort], cfg.tool_config())
    for rec in records:
        status = "ok" if rec.ok else f"FAILED ({rec.error})"
        steps = ",".join(f"{k}={v}" for k, v in rec.steps.items())
        print(f"{rec.subject_id}: {status} [{steps}]")
    if args.out_manifest:
        survivors = Cohort(
            subjects=[s for s, r in zip(cohort.subjects, records) if r.ok]
        )
        for s, r in zip(cohort.subjects, records):
            if r.ok:
                s.path = r.output_path
        write_manifest(survivors, args.out_manifest)
        print(f"processed manifest: {args.out_manifest}")
    return 0 if all(r.ok for r in records) else 1


def cmd_train(args) -> int:
    cfg = _config(args)
    config = cfg.train_config()  # rejects bad settings before anything is written
    cohort, atlas, table = _load_data(cfg, args)
    stage = int(cfg.get("train", "stage"))
    out_dir = Path(args.out_dir)
    if stage == 1:
        params = ModelParams.init(int(cfg.get("model", "channels")), seed=int(cfg.get("train", "seed")))
    elif stage in (2, 3):
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
    else:
        raise ValueError(f"stage must be 1, 2, or 3, got {stage}")
    out_dir.mkdir(parents=True, exist_ok=True)
    params, trace = train_stage(stage, cohort, atlas, table, cfg.prior(), config, params)
    ckpt = out_dir / f"stage{stage}.ckpt"
    save_checkpoint_atomic(params, None, ckpt, stage=stage, config_hash=cfg.digest())
    trace_path = out_dir / f"stage{stage}_trace.csv"
    write_loss_trace(trace, trace_path)
    print(f"checkpoint: {ckpt}")
    print(f"trace: {trace_path}")
    print(f"final epoch loss: {trace[-1].loss!r}")
    return 0


def _records_from_model(cfg, args) -> list[PredictionRecord]:
    cohort, atlas, table = _load_data(cfg, args)
    params, _, _ = load_checkpoint(args.checkpoint)
    return predict(params, cohort, atlas, table, cfg.prior())


def cmd_predict(args) -> int:
    cfg = _config(args)
    records = _records_from_model(cfg, args)
    write_predictions(records, args.out)
    print(f"predictions: {args.out}")
    return 0


def _fold_summary(folds: list[list[PredictionRecord]]) -> str:
    """Per-fold metrics plus both aggregation rules: mean of folds and pooled counts."""
    per_fold = [metrics_from_records(records) for records in folds]
    lines = []
    for k, m in enumerate(per_fold):
        lines.extend(f"fold{k}.{line}" for line in m.to_kv_text().splitlines())

    def mean_of(attr):
        vals = [getattr(m, attr) for m in per_fold if getattr(m, attr) is not None]
        return sum(vals) / len(vals) if vals else None

    def fmt(x):
        return "undefined" if x is None else repr(float(x))

    for attr in ("acc", "tpr", "fpr", "auc"):
        lines.append(f"mean.{attr}={fmt(mean_of(attr))}")
    pooled = metrics_from_records([r for records in folds for r in records])
    lines.extend(f"pooled.{line}" for line in pooled.to_kv_text().splitlines())
    return "\n".join(lines) + "\n"


def cmd_evaluate(args) -> int:
    cfg = _config(args)
    if args.predictions:
        folds = [read_predictions(p) for p in args.predictions]
    else:
        if not args.checkpoint:
            raise ValueError("evaluate needs --predictions or --checkpoint with cohort data")
        folds = [_records_from_model(cfg, args)]
    if any(r.label is None for records in folds for r in records):
        raise ValueError("cohort has unlabeled subjects; use `pddiag predict` for label-free data")
    if len(folds) == 1:
        text = metrics_from_records(folds[0]).to_kv_text()
    else:
        text = _fold_summary(folds)
    sys.stdout.write(text)
    if args.out:
        with replacing(args.out) as tmp, open(tmp, "w") as fh:
            fh.write(text)
        print(f"metrics: {args.out}")
    return 0


def cmd_report(args) -> int:
    cfg = _config(args)
    if args.dump_config:
        sys.stdout.write(cfg.dump())
        if not args.predictions:
            return 0
    if not args.predictions:
        raise ValueError("report needs --predictions (or use --dump-config alone)")
    records = read_predictions(args.predictions)
    if any(r.label is None for r in records):
        raise ValueError("predictions lack labels; a report needs labeled data")
    metrics = metrics_from_records(records)
    print("confusion matrix (rows: truth, cols: decision)")
    print("           pd    other")
    print(f"pd       {metrics.tp:4d}    {metrics.fn:4d}")
    print(f"other    {metrics.fp:4d}    {metrics.tn:4d}")
    if args.out_roc:
        pts = roc_points([r.p_pd for r in records], [r.label for r in records])
        with replacing(args.out_roc) as tmp, open(tmp, "w", newline="") as fh:
            fh.write("fpr,tpr,threshold\n")
            for fpr, tpr, thr in pts:
                fh.write(f"{fpr!r},{tpr!r},{thr!r}\n")
        print(f"roc: {args.out_roc}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pddiag", description="Prior-guided volumetric PD screening pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort, atlas, and manifest")
    p.add_argument("--config")
    p.add_argument("--out", required=True, help="output directory")
    _config_flag(p, "synth", "n_subjects", flag="n", help="number of subjects")
    _config_flag(p, "synth", "seed")
    _config_flag(p, "synth", "dims", help="cube edge length (divisible by 4)")
    for key in ("pd_fraction", "noise_std", "signal_gain"):
        _config_flag(p, "synth", key)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", help="write stratified k-fold train/test manifests")
    p.add_argument("--config")
    p.add_argument("--manifest")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("preprocess", help="run skull strip, bias correction, registration with caching")
    p.add_argument("--config")
    p.add_argument("--manifest", help="cohort manifest of raw scans")
    p.add_argument("--out-manifest", dest="out_manifest", help="write manifest of processed scans")
    for key in ("jobs", "cache_dir"):
        _config_flag(p, "preprocess", key)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="run one training stage")
    p.add_argument("--config")
    _config_flag(p, "train", "stage", choices=(1, 2, 3), metavar=None)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--manifest")
    p.add_argument("--atlas")
    p.add_argument("--relevance")
    for key in ("epochs", "batch", "lr", "weight_decay", "seed"):
        _config_flag(p, "train", key)
    _config_flag(p, "model", "channels")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="write per-subject predictions CSV")
    p.add_argument("--config")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest")
    p.add_argument("--atlas")
    p.add_argument("--relevance")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="compute ACC/TPR/FPR/AUC and confusion counts")
    p.add_argument("--config")
    p.add_argument(
        "--predictions",
        action="append",
        help="existing predictions CSV; repeat for per-fold files to get mean and pooled summaries",
    )
    p.add_argument("--checkpoint")
    p.add_argument("--manifest")
    p.add_argument("--atlas")
    p.add_argument("--relevance")
    p.add_argument("--out", help="write metrics key-value document")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="confusion matrix, ROC point list, config dump")
    p.add_argument("--config")
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
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
