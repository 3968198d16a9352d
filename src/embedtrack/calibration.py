"""Distance threshold calibration on labeled detection pairs.

Given cross-frame pairs labeled same / different identity, the tracker's
gate is the threshold h minimising

    fp / gn + fn / gp

where a pair is predicted "same" when its distance is strictly below h.
The objective is piecewise constant in h, so an exact sweep over one
candidate per plateau finds the global minimum. `sweep_threshold` is the
one place the counts and the objective are computed: its rows hold them
for every candidate.

Each table is one read-only record array (the sweep's rows, the distance
histogram's bins), and one writer turns any record array into CSV, the
sweep's, the histogram's and the training loss trace's.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Union

import numpy as np

from .core import _checked_array

__all__ = [
    "ThresholdSweep",
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
    dist = _checked_array(distances, "distances", "f", ndim=1, finite=True)
    same = _checked_array(is_same, "is_same", "b")
    if same.shape != dist.shape:
        raise ValueError(
            f"is_same must match distances, of shape {dist.shape}, got shape {same.shape}"
        )
    if dist.size == 0:
        raise DegenerateDevSetError("no pairs")
    if dist.min() < 0:
        raise ValueError("distances must be non-negative")
    return dist, same


@dataclass(frozen=True, eq=False)
class ThresholdSweep:
    """Result of an exact threshold sweep: the winning threshold, its
    objective, and every candidate evaluated, in increasing order of h, as
    one read-only record array with fields h, fp, fn, tp, tn, objective."""

    threshold: float
    objective: float
    rows: np.recarray


# Rows per step of a pass over a table (the sweep's counts, a CSV write), so
# that a step's temporaries stay small beside the table.
_CHUNK_ROWS = 4096

# One row of a sweep: a candidate threshold, its counts and its objective.
_SWEEP_DTYPE = np.dtype(
    [("h", "f8"), ("fp", "i8"), ("fn", "i8"), ("tp", "i8"), ("tn", "i8"), ("objective", "f8")]
)


def _candidate_thresholds(distances: np.ndarray) -> np.recarray:
    """Sweep rows with one representative threshold h per plateau of the
    objective, in increasing order; the other fields are left unset.

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
    edges = np.concatenate([[0.0], np.unique(distances), [np.inf]])
    empty = int(edges[1] == 0.0)
    lower, upper = edges[empty:-1], edges[1 + empty :]
    rows = np.recarray(lower.size, _SWEEP_DTYPE)
    h = rows.h
    with np.errstate(over="ignore"):
        # d_min / 2 is (0 + d_min) / 2, bit for bit
        np.add(lower, upper, out=h)
        h /= 2.0
        h[-1] = lower[-1] + 1.0
        outside = lower >= h
        outside |= h > upper
        h[outside] = np.nextafter(lower[outside], np.inf)
    return rows


def _count_below(values: np.ndarray, h: np.ndarray, out: np.ndarray) -> None:
    """Write the number of `values` strictly below h[i] to out[i]. `values`
    is sorted in place; the search runs one chunk of h at a time, so that
    its counts and its contiguous copy of h stay a chunk long."""
    values.sort()
    for start in range(0, h.size, _CHUNK_ROWS):
        part = slice(start, start + _CHUNK_ROWS)
        # side="left" counts exactly the strictly smaller entries
        out[part] = np.searchsorted(values, h[part], side="left")


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

    rows = _candidate_thresholds(dist)
    # Pairs with distance < h are predicted same.
    _count_below(dist[same], rows.h, out=rows.tp)
    _count_below(dist[~same], rows.h, out=rows.fp)
    np.subtract(gp, rows.tp, out=rows.fn)
    np.subtract(gn, rows.fp, out=rows.tn)
    objective = np.divide(rows.fp, gn, out=rows.objective)
    objective += rows.fn / gp
    rows.flags.writeable = False

    best = int(np.argmin(objective))
    return ThresholdSweep(
        threshold=float(rows.h[best]), objective=float(objective[best]), rows=rows
    )


def distance_histogram(distances, is_same, bin_count: int = 50) -> np.recarray:
    """Same and different pair counts over shared bins on [0, max distance],
    for eyeballing the separation that the swept threshold exploits: one
    read-only record array with a row per bin and fields bin_lo, bin_hi,
    same_count, diff_count."""
    dist, same = _check_pairs(distances, is_same)
    if bin_count < 1:
        raise ValueError(f"bin_count must be positive, got {bin_count}")
    hi = float(dist.max())
    if hi == 0.0:
        hi = 1.0
    edges = np.histogram_bin_edges(dist, bins=bin_count, range=(0.0, hi))
    same_counts, _ = np.histogram(dist[same], bins=edges)
    diff_counts, _ = np.histogram(dist[~same], bins=edges)
    rows = np.rec.fromarrays(
        [edges[:-1], edges[1:], same_counts, diff_counts],
        names="bin_lo,bin_hi,same_count,diff_count",
    )
    rows.flags.writeable = False
    return rows


def _write_csv(path: Union[str, Path], rows: np.ndarray, index=None) -> None:
    """Write the record array `rows`, or its rows at `index`, as the bytes
    `csv.writer(fh).writerows(...)` would: a header of the field names,
    floats as `repr`, integers as `%d`, CRLF line ends.

    One formatted string per chunk of rows, so that only one chunk's Python
    values and text are alive at a time."""
    names = rows.dtype.names
    line = ",".join("%r" if rows.dtype[name].kind == "f" else "%d" for name in names) + "\r\n"
    index = np.arange(len(rows)) if index is None else index
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names) + "\r\n")
        for start in range(0, len(index), _CHUNK_ROWS):
            part = rows[index[start : start + _CHUNK_ROWS]]
            # The `%` exhausts `cells`, so no chunk's values outlive its write.
            cells = chain.from_iterable(zip(*[part[name].tolist() for name in names]))
            fh.write(line * len(part) % tuple(cells))


def write_sweep_csv(path: Union[str, Path], sweep: ThresholdSweep) -> None:
    """The descent of the sweep: h, fp, fn, tp, tn, objective for each
    candidate whose objective is strictly below that of every smaller
    candidate, in increasing h. The last row is the chosen threshold;
    `sweep.rows` holds every candidate."""
    objective = sweep.rows.objective
    descent = np.ones(len(objective), dtype=bool)
    descent[1:] = objective[1:] < np.minimum.accumulate(objective)[:-1]
    _write_csv(path, sweep.rows, np.flatnonzero(descent))


def write_histogram_csv(path: Union[str, Path], hist: np.recarray) -> None:
    """One row per bin of `distance_histogram`: bin_lo, bin_hi, same_count,
    diff_count."""
    _write_csv(path, hist)
