"""Seeded synthetic cohorts for desk-scale end-to-end validation.

Volumes carry a linear intensity trend in effective age per atlas region,
where strongly relevant regions of PD subjects age faster by a fixed
acceleration. Pooling a noise-free subject therefore recovers
``baseline + gain * effective_age`` per region in closed form.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .cohort import Cohort, SubjectRecord, write_manifest
from .diagnoser import Label
from .forkmap import map_chunks, worker_count
from .priors import (
    AgingPriorParams, RegionEntry, RelevanceClass, RelevanceTable, default_relevance_table, save_relevance_table
)
from .volume_io import AtlasVolume, write_atlas, write_volume

# Margin the default aging prior expects between the PD and non-PD hinge zones.
_DEFAULT_HINGE_GAP = AgingPriorParams.zeta - AgingPriorParams.tau


@dataclass(frozen=True)
class SynthConfig:
    n_subjects: int = 200
    dims: tuple[int, int, int] = (32, 32, 32)
    pd_fraction: float = 0.5
    age_min: float = 50.0
    age_max: float = 80.0
    acceleration: float = 12.0  # extra effective-age years in strong regions of PD subjects
    signal_gain: float = 0.15  # intensity units per effective-age year
    noise_std: float = 10.0
    baseline: float = 1.0
    healthy_fraction: float = 0.5  # share of non-PD subjects flagged healthy
    region_count: int = 48
    seed: int = 7

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_subjects < 0:
            raise ValueError("n_subjects must be >= 0")
        if not 0.0 <= self.pd_fraction <= 1.0:
            raise ValueError("pd_fraction must lie in [0, 1]")
        if not 0.0 <= self.healthy_fraction <= 1.0:
            raise ValueError("healthy_fraction must lie in [0, 1]")
        if self.age_min <= 0 or self.age_max < self.age_min:
            raise ValueError(f"bad age range [{self.age_min}, {self.age_max}]")
        if self.region_count < 1:
            raise ValueError("region_count must be >= 1")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if self.acceleration <= _DEFAULT_HINGE_GAP:
            warnings.warn(
                f"acceleration {self.acceleration} <= hinge gap {_DEFAULT_HINGE_GAP}; "
                "both hinge margins may not be satisfiable at once",
                stacklevel=2,
            )


@dataclass
class SynthAtlas:
    atlas: AtlasVolume
    table: RelevanceTable


def _grid_factors(r: int) -> tuple[int, int, int]:
    """Factor r into three near-equal block counts a <= b <= c with a*b*c = r."""
    best = (1, 1, r)
    for a in range(1, int(round(r ** (1.0 / 3.0))) + 2):
        if r % a:
            continue
        rem = r // a
        for b in range(a, int(rem**0.5) + 1):
            if rem % b:
                continue
            c = rem // b
            if c - a < best[2] - best[0]:
                best = (a, b, c)
    return best


def make_synth_atlas(dims: tuple[int, int, int], region_count: int) -> SynthAtlas:
    """Axis-aligned blocks tiling the volume, one label per block, no background."""
    na, nb, nc = _grid_factors(region_count)
    d, h, w = dims
    if na > d or nb > h or nc > w:
        raise ValueError(f"cannot tile dims {dims} with {region_count} blocks ({na}x{nb}x{nc})")
    di = np.repeat(np.arange(na), np.diff(np.linspace(0, d, na + 1).astype(int)))
    hi = np.repeat(np.arange(nb), np.diff(np.linspace(0, h, nb + 1).astype(int)))
    wi = np.repeat(np.arange(nc), np.diff(np.linspace(0, w, nc + 1).astype(int)))
    labels = 1 + di[:, None, None] * (nb * nc) + hi[None, :, None] * nc + wi[None, None, :]
    atlas = AtlasVolume(labels=labels.astype(np.int64), region_count=region_count)
    if region_count == 48:
        table = default_relevance_table()
    else:
        n_strong = max(1, round(region_count * 4 / 48))
        n_potential = min(region_count - n_strong, round(region_count * 9 / 48))
        entries = []
        for i in range(1, region_count + 1):
            if i <= n_strong:
                cls = RelevanceClass.STRONG
            elif i <= n_strong + n_potential:
                cls = RelevanceClass.POTENTIAL
            else:
                cls = RelevanceClass.NONE
            entries.append(RegionEntry(i, f"Block {i}", cls))
        table = RelevanceTable(tuple(entries))
    return SynthAtlas(atlas=atlas, table=table)


def effective_region_ages(age: float, is_pd: bool, table: RelevanceTable, acceleration: float) -> np.ndarray:
    """Per-region effective age: chronological, plus acceleration in strong regions of PD subjects."""
    strong = np.array([e.relevance is RelevanceClass.STRONG for e in table.entries])
    return age + acceleration * (strong & is_pd)


def synth_volume(
    synth_atlas: SynthAtlas,
    age: float,
    is_pd: bool,
    cfg: SynthConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """The (D, H, W) volume: region values over the atlas (background label 0 reads 0.0) plus Gaussian noise."""
    eff = effective_region_ages(age, is_pd, synth_atlas.table, cfg.acceleration)
    region_value = cfg.baseline + cfg.signal_gain * eff
    data = np.concatenate(([0.0], region_value))[synth_atlas.atlas.labels]
    if cfg.noise_std > 0:
        data += rng.normal(0.0, cfg.noise_std, size=data.shape)
    return data


def synth_subject(cfg: SynthConfig, synth_atlas: SynthAtlas, i: int) -> SubjectRecord:
    """Subject i with its volume, drawn from its own stream ``default_rng([seed, i])``.

    The first ``round(n * pd_fraction)`` subjects are PD; of the rest, the first
    ``round(n_other * healthy_fraction)`` are flagged healthy. No subject's
    draw depends on another's, so any split of the indices draws the same
    subjects.
    """
    n_pd = round(cfg.n_subjects * cfg.pd_fraction)
    n_healthy = round((cfg.n_subjects - n_pd) * cfg.healthy_fraction)
    rng = np.random.default_rng([cfg.seed, i])
    age = float(rng.uniform(cfg.age_min, cfg.age_max))
    is_pd = i < n_pd
    label = Label.PD if is_pd else Label.OTHER
    healthy = not is_pd and i - n_pd < n_healthy
    volume = synth_volume(synth_atlas, age, is_pd, cfg, rng)
    return SubjectRecord(subject_id=f"s{i:04d}", age=age, label=label, is_healthy=healthy, volume=volume)


def generate_cohort(cfg: SynthConfig) -> tuple[Cohort, SynthAtlas]:
    """The whole cohort in memory, subject i drawn by ``synth_subject``, and its atlas."""
    synth_atlas = make_synth_atlas(cfg.dims, cfg.region_count)
    return Cohort(synth_subject(cfg, synth_atlas, i) for i in range(cfg.n_subjects)), synth_atlas


def write_cohort(cfg: SynthConfig, out) -> None:
    """Write ``volumes/s<i>.nii``, ``atlas.nii``, ``relevance.csv`` and ``manifest.csv`` under ``out``.

    It is what ``pddiag synth`` runs. Subjects are drawn and written one at
    a time, so memory peaks at about one volume per process whatever
    ``n_subjects`` is, over ``forkmap.worker_count`` contiguous ranges of
    indices: range 0 here, the others in processes forked by
    ``forkmap.map_chunks``. Subject i draws from its own stream, so the files
    are byte-identical for any split. A manifest left by an earlier run is
    removed first and the atlas, relevance table and manifest are written
    last: a directory without ``manifest.csv`` is an incomplete cohort. If a
    writer fails, the ``s<digits>.nii.tmp`` files of writers cut short are
    removed. Volumes an earlier, larger run named ``s<digits>.nii`` are
    removed before the manifest is written; other files in ``volumes/`` are
    left alone.
    """
    synth_atlas = make_synth_atlas(cfg.dims, cfg.region_count)
    out = Path(out)
    volumes = out / "volumes"
    volumes.mkdir(parents=True, exist_ok=True)
    (out / "manifest.csv").unlink(missing_ok=True)

    def write(i: int) -> SubjectRecord:
        rec = synth_subject(cfg, synth_atlas, i)
        rec.path = f"volumes/{rec.subject_id}.nii"
        write_volume(rec.volume, out / rec.path)
        rec.volume = None
        return rec

    n = cfg.n_subjects
    workers = worker_count(n, math.prod(cfg.dims))
    try:
        subjects = map_chunks(lambda chunk: [write(i) for i in chunk], list(range(n)), workers)
    except BaseException:
        for tmp in volumes.iterdir():
            if re.fullmatch(r"s\d+\.nii\.tmp", tmp.name):
                tmp.unlink(missing_ok=True)
        raise
    written = {f"{rec.subject_id}.nii" for rec in subjects}
    for stale in volumes.iterdir():
        if re.fullmatch(r"s\d+\.nii", stale.name) and stale.name not in written:
            stale.unlink()
    write_atlas(synth_atlas.atlas, out / "atlas.nii")
    save_relevance_table(synth_atlas.table, out / "relevance.csv")
    write_manifest(Cohort(subjects), out / "manifest.csv")


def split_cohort(cohort: Cohort, folds: int, seed: int) -> list[tuple[list[int], list[int]]]:
    """Label-stratified k-fold index split; disjoint test folds covering the cohort."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if len(cohort) < folds:
        raise ValueError(f"cohort of {len(cohort)} cannot fill {folds} folds")
    if not cohort.labeled():
        raise ValueError("split requires a labeled cohort")
    rng = np.random.default_rng(seed)
    by_class: dict[Label, list[int]] = {}
    for i, s in enumerate(cohort):
        by_class.setdefault(s.label, []).append(i)
    for label, idx in by_class.items():
        if len(idx) < folds:
            raise ValueError(f"class {label.value} has {len(idx)} subjects, fewer than {folds} folds")
    shuffled = {label: rng.permutation(idx) for label, idx in sorted(by_class.items(), key=lambda kv: kv[0].value)}
    splits = []
    all_indices = set(range(len(cohort)))
    for f in range(folds):
        test = sorted(int(i) for idx in shuffled.values() for i in idx[f::folds])
        train = sorted(all_indices - set(test))
        splits.append((train, test))
    return splits
