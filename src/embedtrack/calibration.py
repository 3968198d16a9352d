"""Distance threshold calibration on labeled detection pairs.

Given cross-frame pairs labeled same / different identity, the tracker's
gate is the threshold h minimising

    fp / gn + fn / gp

where a pair is predicted "same" when its distance is strictly below h.
The objective is piecewise constant in h, so an exact sweep over one
candidate per plateau finds the global minimum. `sweep_threshold` is the
one place the counts and the objective are computed: its rows hold them
for every candidate.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Optional, Union

import numpy as np

__all__ = [
    "PairCounts",
    "ThresholdSweep",
    "DistanceHistogram",
    "DegenerateDevSetError",
    "sweep_threshold",
    "distance_histogram",
    "write_sweep_csv",
    "write_histogram_csv",
]


class DegenerateDevSetError(ValueError):
    """Raised when calibration data lacks same pairs, different pairs, or both."""


def _check_pairs(distances, is_same) -> tuple[np.ndarray, np.ndarray]:
    """Validate parallel pair arrays: one distance and one same-identity flag
    per cross-frame detection pair; distances finite and non-negative."""
    dist = np.asarray(distances, dtype=np.float64)
    same = np.asarray(is_same)
    if dist.ndim != 1 or same.shape != dist.shape:
        raise ValueError(
            f"distances and is_same must be 1-D of equal length, got {dist.shape} and {same.shape}"
        )
    if dist.size == 0:
        raise DegenerateDevSetError("no pairs")
    if same.dtype != bool:
        raise ValueError(f"is_same must be boolean, got dtype {same.dtype}")
    if not np.all(np.isfinite(dist)) or dist.min() < 0:
        raise ValueError("distances must be finite and non-negative")
    return dist, same


@dataclass(frozen=True)
class PairCounts:
    """Confusion counts over same/different pair predictions.

    gp and gn are the ground-truth positive and negative totals. They default
    to tp + fn and tn + fp, but can be supplied explicitly: published tallies
    sometimes keep pairs lost to missed detections in the ground-truth totals,
    making gp larger than tp + fn.
    """

    tp: int
    tn: int
    fp: int
    fn: int
    gp: Optional[int] = None
    gn: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("tp", "tn", "fp", "fn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.gp is None:
            object.__setattr__(self, "gp", self.tp + self.fn)
        if self.gn is None:
            object.__setattr__(self, "gn", self.tn + self.fp)
        if self.gp < 0 or self.gn < 0:
            raise ValueError("gp and gn must be non-negative")


@dataclass(frozen=True, eq=False)
class ThresholdSweep:
    """Result of an exact threshold sweep: the winning threshold, its
    objective, and every candidate evaluated, in increasing order of h, as
    one read-only record array with fields h, fp, fn, tp, tn, objective."""

    threshold: float
    objective: float
    rows: np.recarray


def _candidate_thresholds(distances: np.ndarray) -> np.ndarray:
    """One representative threshold per plateau of the objective.

    Prediction flips happen only when h crosses an observed distance, so the
    plateaus are 0 < h <= d_min ("call everything different"), a < h <= b
    between consecutive distinct distances a < b, and h > d_max ("call
    everything same"). They are represented by d_min / 2, (a + b) / 2 and
    d_max + 1. Where rounding puts one of these outside its plateau (b is
    the next float after a, a + b overflows, or d_max + 1 == d_max), the
    next float above the plateau's lower end stands in. When d_min is 0 the
    first plateau is empty: thresholds are positive, so a 0 distance is
    predicted same under any h.
    """
    uniq = np.unique(distances)
    lower = np.concatenate([[0.0], uniq])
    upper = np.concatenate([uniq, [np.inf]])
    with np.errstate(over="ignore"):
        mid = np.concatenate([uniq[:1] / 2.0, (uniq[:-1] + uniq[1:]) / 2.0, uniq[-1:] + 1.0])
        above = np.nextafter(lower, np.inf)
    inside = (lower < mid) & (mid <= upper)
    return np.where(inside, mid, above)[lower < upper]


def sweep_threshold(distances, is_same) -> ThresholdSweep:
    """Exact minimisation over all thresholds h of the objective

        fp / gn + fn / gp

    the sum of the false-positive and false-negative rates when pairs with
    distance < h are called same.

    `distances` and `is_same` are parallel 1-D arrays, one entry per pair.
    Requires at least one same pair and one different pair. Equal objectives
    resolve to the smallest candidate threshold, favouring fewer false
    merges.
    """
    dist, same = _check_pairs(distances, is_same)
    gp = int(same.sum())
    gn = same.size - gp
    if gp == 0 or gn == 0:
        raise DegenerateDevSetError(
            f"sweep needs both pair kinds, got {gp} same and {gn} different"
        )

    cands = _candidate_thresholds(dist)
    # Pairs with distance < h are predicted same; side="left" counts exactly
    # the strictly smaller entries.
    tp = np.searchsorted(np.sort(dist[same]), cands, side="left")
    fp = np.searchsorted(np.sort(dist[~same]), cands, side="left")
    fn = gp - tp
    tn = gn - fp
    objective = fp / gn + fn / gp
    rows = np.rec.fromarrays([cands, fp, fn, tp, tn, objective], names="h,fp,fn,tp,tn,objective")
    rows.flags.writeable = False

    best = int(np.argmin(objective))
    return ThresholdSweep(
        threshold=float(cands[best]), objective=float(objective[best]), rows=rows
    )


@dataclass(frozen=True)
class DistanceHistogram:
    """Same and different pair counts over shared bins on [0, max distance]."""

    bin_edges: tuple[float, ...]
    same_counts: tuple[int, ...]
    diff_counts: tuple[int, ...]


def distance_histogram(distances, is_same, bin_count: int = 50) -> DistanceHistogram:
    """Histogram both pair populations over identical bins, for eyeballing the
    separation that the swept threshold exploits."""
    dist, same = _check_pairs(distances, is_same)
    if bin_count < 1:
        raise ValueError(f"bin_count must be positive, got {bin_count}")
    hi = float(dist.max())
    if hi == 0.0:
        hi = 1.0
    edges = np.histogram_bin_edges(dist, bins=bin_count, range=(0.0, hi))
    same_counts, _ = np.histogram(dist[same], bins=edges)
    diff_counts, _ = np.histogram(dist[~same], bins=edges)
    return DistanceHistogram(
        bin_edges=tuple(float(e) for e in edges),
        same_counts=tuple(int(c) for c in same_counts),
        diff_counts=tuple(int(c) for c in diff_counts),
    )


_SWEEP_CHUNK_ROWS = 4096


def write_sweep_csv(path: Union[str, Path], sweep: ThresholdSweep) -> None:
    """One row per candidate threshold: h, fp, fn, tp, tn, objective.

    Writes the bytes `csv.writer(fh).writerows(sweep.rows.tolist())` would
    (floats as `repr`, CRLF line ends), one formatted string per chunk of
    rows, so that only one chunk's Python values and text are alive at a
    time."""
    rows = sweep.rows
    names = rows.dtype.names
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names) + "\r\n")
        for start in range(0, len(rows), _SWEEP_CHUNK_ROWS):
            part = rows[start : start + _SWEEP_CHUNK_ROWS]
            # The `%` exhausts `cells`, so no chunk's values outlive its write.
            cells = chain.from_iterable(zip(*[part[name].tolist() for name in names]))
            fh.write("%r,%d,%d,%d,%d,%r\r\n" * len(part) % tuple(cells))


def write_histogram_csv(path: Union[str, Path], hist: DistanceHistogram) -> None:
    """One row per bin: bin_lo, bin_hi, same_count, diff_count."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "same_count", "diff_count"])
        for k in range(len(hist.same_counts)):
            writer.writerow(
                [
                    repr(float(hist.bin_edges[k])),
                    repr(float(hist.bin_edges[k + 1])),
                    hist.same_counts[k],
                    hist.diff_counts[k],
                ]
            )
