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


# Rows per step of a pass over a table (the sweep's count gather, a CSV
# write), so that a step's temporaries stay small beside the table.
_CHUNK_ROWS = 4096

# One row of a sweep: a candidate threshold, its counts and its objective.
_SWEEP_DTYPE = np.dtype(
    [("h", "f8"), ("fp", "i8"), ("fn", "i8"), ("tp", "i8"), ("tn", "i8"), ("objective", "f8")]
)


def _candidate_thresholds(distances: np.ndarray, is_same: np.ndarray) -> np.recarray:
    """Sweep rows with one representative threshold h per plateau of the
    objective, in increasing order, and the counts tp and fp of the same
    and different pairs predicted same under it; fn, tn and the objective
    are left unset.

    Prediction flips happen only when h crosses an observed distance, so the
    plateaus are 0 < h <= d_min ("call everything different"), a < h <= b
    between consecutive distinct distances a < b, and h > d_max ("call
    everything same"). They are represented by d_min / 2, (a + b) / 2 and
    d_max + 1. Where rounding puts one of these outside its plateau (b is
    the next float after a, a + b overflows, or d_max + 1 == d_max), the
    next float above the plateau's lower end stands in. When d_min is 0 the
    first plateau is empty: thresholds are positive, so a 0 distance is
    predicted same under any h.

    The distinct distances and the counts come from one merge: each pair
    class is sorted, and a stable argsort of the two sorted runs merges
    them. The pairs below a plateau's h are those at or below its lower
    end, so a plateau's tp is the running count of "same" flags at the last
    index of its lower end, and fp that index plus one minus tp. Only the
    distinct distances and two flag arrays outlive the merge once the rows
    exist, and the counts are gathered `_CHUNK_ROWS` at a time.
    """
    gp = int(is_same.sum())
    merged = np.empty(distances.size)
    merged[:gp] = distances[is_same]
    merged[:gp].sort()
    merged[gp:] = distances[~is_same]
    merged[gp:].sort()
    order = merged.argsort(kind="stable")  # a linear merge of the two runs
    merged = merged[order]
    same = order < gp
    del order
    last = np.empty(merged.size, dtype=bool)  # the last index of each distinct distance
    np.not_equal(merged[1:], merged[:-1], out=last[:-1])
    last[-1] = True
    merged = merged[last]
    empty = int(merged[0] == 0.0)
    rows = np.recarray(merged.size + 1 - empty, _SWEEP_DTYPE)
    # The objective column holds the plateaus' lower ends until it is computed.
    lower, h = rows.objective, rows.h
    lower[0] = 0.0
    lower[1 - empty :] = merged
    del merged
    with np.errstate(over="ignore"):
        # d_min / 2 is (0 + d_min) / 2, bit for bit
        np.add(lower[:-1], lower[1:], out=h[:-1])
        h /= 2.0
        h[-1] = lower[-1] + 1.0
        outside = lower >= h
        outside[:-1] |= h[:-1] > lower[1:]
        h[outside] = np.nextafter(lower[outside], np.inf)
    rows.tp[0] = rows.fp[0] = 0  # the plateau below d_min, unless d_min is 0
    tp, fp = rows.tp[1 - empty :], rows.fp[1 - empty :]
    fp[:] = np.flatnonzero(last)
    del last
    running = same.astype(np.int64)
    del same
    np.cumsum(running, out=running)
    for start in range(0, tp.size, _CHUNK_ROWS):
        part = slice(start, start + _CHUNK_ROWS)
        tp[part] = running[fp[part]]
    fp += 1
    fp -= tp
    return rows


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

    # Pairs with distance < h are predicted same.
    rows = _candidate_thresholds(dist, same)
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
    if isinstance(bin_count, bool) or not isinstance(bin_count, (int, np.integer)) or bin_count < 1:
        raise ValueError(f"bin_count must be a positive integer, got {bin_count!r}")
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
