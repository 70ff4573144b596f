"""Clinical priors: per-region relevance weights and aging-prior margins.

The built-in table covers the 48 cortical regions of the Harvard-Oxford
parcellation. Regions are classed by their association with Parkinson's
disease and weighted 1 (strong), 1e-2 (potential), or 1e-3 (none). The
weights are kept unnormalized; the aggregation step divides by their sum,
so only relative scale matters.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .csvtable import read_rows, write_rows


class RelevanceClass(enum.Enum):
    STRONG = "strong"
    POTENTIAL = "potential"
    NONE = "none"


RELEVANCE_WEIGHTS = {
    RelevanceClass.STRONG: 1.0,
    RelevanceClass.POTENTIAL: 1e-2,
    RelevanceClass.NONE: 1e-3,
}

# Harvard-Oxford cortical regions with their PD relevance class.
_DEFAULT_REGIONS = [
    (1, "Frontal Pole", RelevanceClass.NONE),
    (2, "Insular Cortex", RelevanceClass.POTENTIAL),
    (3, "Superior Frontal Gyrus", RelevanceClass.STRONG),
    (4, "Middle Frontal Gyrus", RelevanceClass.STRONG),
    (5, "Inferior Frontal Gyrus, Triangular Part", RelevanceClass.POTENTIAL),
    (6, "Inferior Frontal Gyrus, Opercular Part", RelevanceClass.POTENTIAL),
    (7, "Precentral Gyrus", RelevanceClass.STRONG),
    (8, "Temporal Pole", RelevanceClass.NONE),
    (9, "Superior Temporal Gyrus, Anterior Division", RelevanceClass.NONE),
    (10, "Superior Temporal Gyrus, Posterior Division", RelevanceClass.NONE),
    (11, "Middle Temporal Gyrus, Anterior Division", RelevanceClass.NONE),
    (12, "Middle Temporal Gyrus, Posterior Division", RelevanceClass.NONE),
    (13, "Temporooccipital Middle Temporal Gyrus", RelevanceClass.NONE),
    (14, "Inferior Temporal Gyrus, Anterior Division", RelevanceClass.NONE),
    (15, "Inferior Temporal Gyrus, Posterior Division", RelevanceClass.NONE),
    (16, "Temporooccipital Inferior Temporal Gyrus", RelevanceClass.NONE),
    (17, "Postcentral Gyrus", RelevanceClass.POTENTIAL),
    (18, "Superior Parietal Lobule", RelevanceClass.POTENTIAL),
    (19, "Supramarginal Gyrus, Anterior Division", RelevanceClass.NONE),
    (20, "Supramarginal Gyrus, Posterior Division", RelevanceClass.NONE),
    (21, "Angular Gyrus", RelevanceClass.POTENTIAL),
    (22, "Lateral Occipital Cortex, Superior Division", RelevanceClass.NONE),
    (23, "Lateral Occipital Cortex, Inferior Division", RelevanceClass.NONE),
    (24, "Intracalcarine Cortex", RelevanceClass.NONE),
    (25, "Medial Frontal Cortex", RelevanceClass.POTENTIAL),
    (26, "Juxtapositional Lobule Cortex (SMA)", RelevanceClass.STRONG),
    (27, "Subcallosal Cortex", RelevanceClass.NONE),
    (28, "Paracingulate Gyrus", RelevanceClass.NONE),
    (29, "Anterior Cingulate Gyrus", RelevanceClass.NONE),
    (30, "Posterior Cingulate Gyrus", RelevanceClass.POTENTIAL),
    (31, "Precuneous Cortex", RelevanceClass.POTENTIAL),
    (32, "Cuneal Cortex", RelevanceClass.NONE),
    (33, "Orbitofrontal Cortex", RelevanceClass.NONE),
    (34, "Parahippocampal Gyrus, Anterior Division", RelevanceClass.NONE),
    (35, "Parahippocampal Gyrus, Posterior Division", RelevanceClass.NONE),
    (36, "Lingual Gyrus", RelevanceClass.NONE),
    (37, "Temporal Fusiform Cortex, Anterior Division", RelevanceClass.NONE),
    (38, "Temporal Fusiform Cortex, Posterior Division", RelevanceClass.NONE),
    (39, "Temporooccipital Fusiform Cortex", RelevanceClass.NONE),
    (40, "Occipital Fusiform Gyrus", RelevanceClass.NONE),
    (41, "Frontal Operculum Cortex", RelevanceClass.NONE),
    (42, "Central Opercular Cortex", RelevanceClass.NONE),
    (43, "Parietal Operculum Cortex", RelevanceClass.NONE),
    (44, "Planum Polare", RelevanceClass.NONE),
    (45, "Heschl's Gyrus", RelevanceClass.NONE),
    (46, "Planum Temporale", RelevanceClass.NONE),
    (47, "Supracalcarine Cortex", RelevanceClass.NONE),
    (48, "Occipital Pole", RelevanceClass.NONE),
]


@dataclass(frozen=True)
class RegionEntry:
    region_id: int
    region_name: str
    relevance: RelevanceClass


@dataclass(frozen=True)
class RelevanceTable:
    entries: tuple[RegionEntry, ...]
    # theta indexed by region_id - 1, read-only; set from entries
    _weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.entries:
            raise ValueError("relevance table has no entries")
        ids = [e.region_id for e in self.entries]
        expected = list(range(1, len(ids) + 1))
        if sorted(ids) != expected:
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            if dupes:
                raise ValueError(f"duplicate region ids: {dupes}")
            raise ValueError(f"region ids must be exactly 1..{len(ids)}, got {sorted(ids)}")
        if ids != expected:
            object.__setattr__(self, "entries", tuple(sorted(self.entries, key=lambda e: e.region_id)))
        weights = np.array([RELEVANCE_WEIGHTS[e.relevance] for e in self.entries], dtype=np.float64)
        weights.flags.writeable = False
        object.__setattr__(self, "_weights", weights)

    @property
    def region_count(self) -> int:
        return len(self.entries)

    def weights(self) -> np.ndarray:
        """Theta indexed by region_id - 1; strictly positive, read-only, the same array on every call."""
        return self._weights


def default_relevance_table() -> RelevanceTable:
    """The built-in 48-region table (4 strong, 9 potential, 35 none)."""
    return RelevanceTable(tuple(RegionEntry(i, name, cls) for i, name, cls in _DEFAULT_REGIONS))


RELEVANCE_FIELDS = ["region_id", "region_name", "relevance"]


def load_relevance_table(path) -> RelevanceTable:
    """Load a table from CSV with header ``region_id,region_name,relevance``.

    A malformed row raises ValueError naming the file and the line.
    """

    def parse(row) -> RegionEntry:
        token = row["relevance"].strip().lower()
        if token not in {c.value for c in RelevanceClass}:
            raise ValueError(f"unknown relevance token {row['relevance']!r} (want strong/potential/none)")
        return RegionEntry(int(row["region_id"]), row["region_name"], RelevanceClass(token))

    entries = read_rows(path, RELEVANCE_FIELDS, parse)
    if not entries:
        raise ValueError(f"{path}: empty relevance table")
    return RelevanceTable(tuple(entries))


def save_relevance_table(table: RelevanceTable, path) -> None:
    write_rows(path, RELEVANCE_FIELDS, ([e.region_id, e.region_name, e.relevance.value] for e in table.entries))


@dataclass(frozen=True)
class AgingPriorParams:
    """Margins (years) and calibration strength for the age-gap constraint.

    zeta: minimum acceptable age gap for PD subjects.
    tau: maximum acceptable age gap for everyone else.
    alpha: strength of the logit correction.
    """

    zeta: float = 9.5
    tau: float = 4.5
    alpha: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.zeta) and math.isfinite(self.tau) and math.isfinite(self.alpha)):
            raise ValueError("aging-prior parameters must be finite")
        if self.tau < 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")
        if self.zeta <= self.tau:
            raise ValueError(f"zeta ({self.zeta}) must exceed tau ({self.tau}); the two hinge zones would overlap")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
