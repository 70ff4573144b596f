"""Subject records, cohorts, and the cohort manifest CSV; a record read from a manifest holds a path, not a volume.

A record's volume is its (D, H, W) float64 array. A ``Cohort`` is a list of
``SubjectRecord``s that can say whether every subject is labeled and take a
subset by index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .csvtable import read_rows, write_rows
from .diagnoser import Label
from .volume_io import read_volume


@dataclass
class SubjectRecord:
    subject_id: str
    age: float
    label: Label | None = None  # None for unlabeled (prediction-only) subjects
    is_healthy: bool = False
    volume: np.ndarray | None = None  # (D, H, W) float64
    path: str | None = None

    def __post_init__(self):
        if not (math.isfinite(self.age) and self.age > 0):
            raise ValueError(f"{self.subject_id}: age must be positive and finite, got {self.age}")
        if self.is_healthy and self.label is not Label.OTHER:
            raise ValueError(f"{self.subject_id}: is_healthy requires label 'other'")

    def load_volume(self) -> np.ndarray:
        """The in-memory volume, else a fresh read of ``path`` that the record does not keep."""
        if self.volume is not None:
            return self.volume
        if self.path is None:
            raise ValueError(f"{self.subject_id}: no volume and no path to load from")
        return read_volume(self.path)


class Cohort(list):
    def labeled(self) -> bool:
        return all(s.label is not None for s in self)

    def subset(self, indices) -> "Cohort":
        return Cohort(self[i] for i in indices)


MANIFEST_FIELDS = ["subject_id", "path", "age", "label", "is_healthy"]
# the is_healthy tokens a manifest may hold; any other token is an error
HEALTHY_TOKENS = {"1": True, "true": True, "True": True, "0": False, "false": False, "False": False, "": False}


def write_manifest(cohort: Cohort, path) -> None:
    def row(s: SubjectRecord) -> list:
        return [s.subject_id, s.path or "", float(s.age), s.label.value if s.label else "", int(s.is_healthy)]

    write_rows(path, MANIFEST_FIELDS, map(row, cohort))


def read_manifest(path) -> Cohort:
    """Read a manifest; relative volume paths resolve against the manifest's directory.

    A malformed manifest raises ValueError naming the file and the line.
    """
    base = Path(path).parent

    def parse(row) -> SubjectRecord:
        healthy = row["is_healthy"].strip()
        if healthy not in HEALTHY_TOKENS:
            raise ValueError(f"is_healthy must be 1/true/True or 0/false/False/empty, got {healthy!r}")
        vol_path = row["path"] or None
        if vol_path and not Path(vol_path).is_absolute():
            vol_path = str(base / vol_path)
        return SubjectRecord(
            subject_id=row["subject_id"],
            age=float(row["age"]),
            label=Label(row["label"]) if row["label"] else None,
            is_healthy=HEALTHY_TOKENS[healthy],
            path=vol_path,
        )

    return Cohort(read_rows(path, MANIFEST_FIELDS, parse))
