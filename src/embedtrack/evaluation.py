"""Detection and tracking metrics.

Covers three evaluation layers: identity assignment of predicted boxes to
ground truth (the labeling step everything else builds on), detection
AP / mAP, and tracking quality via MOTA counts and cross-frame pair
accuracy. `track_counts` scores one tracks array against one camera's
frames in a single call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    Frames,
    _broadcast_iou,
    _check_iou_min,
    _check_score_threshold,
    _check_sequence,
    _checked_array,
    _row_frames,
    neighbor_frames,
)

__all__ = [
    "AP_IOU_THRESHOLDS",
    "MotCounts",
    "PairCounts",
    "assign_predictions",
    "ground_truth_records",
    "mean_ap",
    "mota",
    "pair_accuracy",
    "track_counts",
]

AP_IOU_THRESHOLDS = (0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95)


@dataclass(frozen=True)
class MotCounts:
    """Per-sequence tallies of tracking errors against ground-truth boxes."""

    fp: int
    miss: int
    mismatch: int
    gt_total: int

    def __post_init__(self) -> None:
        for name in ("fp", "miss", "mismatch", "gt_total"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


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


def _claims(
    frame: np.ndarray,
    overlaps: np.ndarray,
    gt_offset: np.ndarray,
    iou_min: float,
    live: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Unique highest-IoU matching used by assignment, MOT and pair counting:
    the rows that keep a ground truth, increasing, and the flat index of each
    one's ground truth.

    Row r belongs to frame `frame[r]`, and `overlaps[r]` holds its IoU with
    each ground truth of that frame (padding columns read 0), the first at
    flat index `gt_offset[r]`. Each row in `live` (default every row) claims
    its first highest-IoU column when that IoU is strictly above iou_min. Of
    the claimants of one (frame, column), the highest IoU keeps it, ties to
    the lowest row; the rest keep nothing, with no second choice.
    """
    best = overlaps.argmax(axis=1)
    best_iou = np.take_along_axis(overlaps, best[:, None], axis=1)[:, 0]
    claiming = best_iou > iou_min
    if live is not None:
        claiming &= live
    rows = np.nonzero(claiming)[0]
    key = frame[rows] * overlaps.shape[1] + best[rows]
    # lexsort is stable, so equal IoUs keep the lower row first.
    order = np.lexsort((-best_iou[rows], key))
    key = key[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    winners = np.sort(rows[order[first]])
    return winners, gt_offset[winners] + best[winners]


def _overlaps(
    boxes: np.ndarray, frame: np.ndarray, frames: Frames
) -> tuple[np.ndarray, np.ndarray]:
    """(overlaps, gt_offset) of boxes at frame positions `frame`: each box's
    IoU with every (padded) ground truth of its frame of `frames`, and the
    flat index of that frame's first ground truth, for all frames at once."""
    offsets = frames.gt_offsets
    overlaps = _grouped_iou(boxes, frame, frames.gt_boxes["box"], np.diff(offsets))
    return overlaps, offsets[frame]


def assign_predictions(
    frames: Frames, score_threshold: float = 0.5, iou_min: float = 0.5
) -> np.ndarray:
    """The int64 ground-truth identity of every detection of `frames`, in
    table order, or -1 where it has none.

    Detections below `score_threshold` stay unlabeled. Every other one takes
    the highest-IoU ground truth of its frame when that IoU exceeds
    `iou_min`; a contested ground truth goes to the highest-IoU detection and
    the losers stay unlabeled, so each ground truth labels at most one
    detection. All frames are matched in one pass.
    """
    _check_score_threshold(score_threshold)
    _check_iou_min(iou_min)
    frame = _row_frames(frames.det_offsets)
    overlaps, gt_offset = _overlaps(frames.detections["box"], frame, frames)
    live = frames.detections["confidence"] >= score_threshold
    rows, gt_rows = _claims(frame, overlaps, gt_offset, iou_min, live)
    identities = np.full(frame.size, -1, dtype=np.int64)
    identities[rows] = frames.gt_boxes["id"][gt_rows]
    return identities


def _greedy_hits(
    predictions: np.ndarray, ground_truths: np.ndarray, thresholds: np.ndarray
) -> np.ndarray:
    """(T, P) bool: whether the prediction of each confidence rank (stable)
    is a true positive at each of the T IoU thresholds.

    Each ranked prediction takes the first highest-IoU ground truth of its
    image that is still unmatched, overlaps it and reaches the threshold.
    Predictions of different images never compete for a ground truth, so
    step s matches the s-th ranked prediction of every image at once, for
    all thresholds.
    """
    order = np.argsort(-predictions["confidence"], kind="stable")
    images, image = np.unique(predictions["frame_index"][order], return_inverse=True)
    hits = np.zeros((thresholds.size, order.size), dtype=bool)

    gt_frame = ground_truths["frame_index"]
    gt_image = np.minimum(np.searchsorted(images, gt_frame), images.size - 1)
    kept = np.nonzero(images[gt_image] == gt_frame)[0]
    if kept.size == 0:
        return hits
    kept = kept[np.argsort(gt_image[kept], kind="stable")]
    overlaps = _grouped_iou(
        predictions["box"][order],
        image,
        ground_truths["box"][kept],
        np.bincount(gt_image[kept], minlength=images.size),
    )
    matched = np.zeros((thresholds.size, images.size, overlaps.shape[1]), dtype=bool)

    step = np.empty_like(image)
    step[np.argsort(image, kind="stable")] = _within_group(np.bincount(image))
    by_step = np.argsort(step, kind="stable")
    for ranks in np.split(by_step, np.cumsum(np.bincount(step))[:-1]):
        images = image[ranks]
        ov = overlaps[ranks]
        eligible = np.where(~matched[:, images] & (ov >= thresholds[:, None, None]), ov, 0.0)
        best = eligible.argmax(axis=2)
        hit = np.take_along_axis(eligible, best[..., None], axis=2)[..., 0] > 0.0
        t, i = np.nonzero(hit)
        matched[t, images[i], best[t, i]] = True
        hits[:, ranks] = hit
    return hits


def _within_group(counts: np.ndarray) -> np.ndarray:
    """Position of each element within its group, for elements sorted by
    group with `counts[g]` elements in group g."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


# Cells per step of `_grouped_iou`: its gathered ground truths and IoU
# temporaries are arrays of about this many float64 cells (32 KB).
_IOU_CELLS = 4096


def _grouped_iou(
    boxes: np.ndarray, group: np.ndarray, gt_boxes: np.ndarray, gt_counts: np.ndarray
) -> np.ndarray:
    """(P, G) IoU of each box with every ground truth of its group.

    Box p belongs to group `group[p]`; `gt_boxes` are sorted by group, with
    `gt_counts[g]` of them in group g. Each group's ground truths are padded
    to the largest per-group count (at least one) with all-zero boxes, whose
    IoU is 0 and so never a match. The output is built a chunk of
    `_IOU_CELLS // G` boxes (at least one) at a time. A chunk's gathered
    ground truths are laid out coordinate-major, so that each coordinate
    `_broadcast_iou` reads of them is one contiguous (chunk, G) array.
    """
    width = max(int(gt_counts.max(initial=0)), 1)
    padded = np.zeros((4, gt_counts.size, width))
    rows = np.repeat(np.arange(gt_counts.size), gt_counts)
    padded[:, rows, _within_group(gt_counts)] = gt_boxes.T
    overlaps = np.empty((len(boxes), width))
    chunk = max(_IOU_CELLS // width, 1)
    for start in range(0, len(boxes), chunk):
        part = slice(start, start + chunk)
        gathered = padded.take(group[part], axis=1).transpose(1, 2, 0)
        overlaps[part] = _broadcast_iou(boxes[part, None], gathered)
    return overlaps


def _integrate(recall: np.ndarray, precision: np.ndarray) -> float:
    """Area under one threshold's precision/recall curve, with all-point
    interpolation."""
    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.maximum.accumulate(np.concatenate([[0.0], precision, [0.0]])[::-1])[::-1]
    change = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[change + 1] - mrec[change]) * mpre[change + 1]))


def ground_truth_records(frames: Frames) -> np.ndarray:
    """Every ground-truth box of `frames`, in table order, as one record
    array with fields `frame_index` and `box`: the ground truths `mean_ap`
    takes."""
    records = np.zeros(len(frames.gt_boxes), dtype=[("frame_index", "i8"), ("box", "f8", (4,))])
    records["frame_index"] = frames.frame_index[_row_frames(frames.gt_offsets)]
    records["box"] = frames.gt_boxes["box"]
    return records


def mean_ap(
    predictions: np.ndarray,
    ground_truths: np.ndarray,
    iou_thresholds: Sequence[float] = AP_IOU_THRESHOLDS,
) -> float:
    """Detection average precision, averaged over the given IoU thresholds;
    pass one threshold for the AP at that threshold.

    `predictions` is a record array with fields `frame_index`, `box` and
    `confidence` over any number of images (`eval` passes a view of the
    tracks array), `ground_truths` one with `frame_index` and `box`
    (`ground_truth_records`). The field order is fixed: a record read by
    position is the (image, box, confidence) or (image, box) tuple that the
    benchmark's traced run replays. Predictions are ranked by confidence
    (ties keep input order) and greedily matched to the best still-unmatched
    ground truth of their image at IoU >= the threshold. Each threshold's
    precision/recall curve is integrated exactly (all-point interpolation).
    Every threshold is matched in one greedy pass over within-image ranks.
    """
    thresholds = _checked_array(iou_thresholds, "iou_thresholds", "f", ndim=1, finite=True)
    if thresholds.size == 0:
        raise ValueError("at least one IoU threshold is required")
    if len(ground_truths) == 0:
        raise ValueError("average precision is undefined without ground truths")
    if len(predictions) == 0:
        return 0.0

    is_tp = _greedy_hits(predictions, ground_truths, thresholds)
    tp_cum = np.cumsum(is_tp, axis=1)
    recall = tp_cum / len(ground_truths)
    precision = tp_cum / np.arange(1, is_tp.shape[1] + 1)
    return float(np.mean([_integrate(rec, pre) for rec, pre in zip(recall, precision)]))


def mota(counts: MotCounts) -> float:
    """1 - (miss + fp + mismatch) / gt_total. May be negative."""
    if counts.gt_total == 0:
        raise ValueError("MOTA is undefined with no ground-truth objects")
    return 1.0 - (counts.miss + counts.fp + counts.mismatch) / counts.gt_total


class _FrameOverlaps(NamedTuple):
    """Tracks rows in frame order and their overlaps."""

    frame: np.ndarray  # (P,) frame position of each prediction
    confidence: np.ndarray  # (P,) confidence of each prediction
    track: np.ndarray  # (P,) track id of each prediction
    overlaps: np.ndarray  # (P, G) IoU with each (padded) ground truth of its frame
    gt_offset: np.ndarray  # (P,) flat index of the first ground truth of its frame
    gt_identity: np.ndarray  # (M,) dense code of every ground-truth identity, flat


def _frame_overlaps(tracks: np.ndarray, frames: Frames) -> _FrameOverlaps:
    """One IoU per (tracks row, ground truth of its frame), for every frame at
    once. Rows are sorted by frame and keep their order within a frame."""
    frame_index, track_id = tracks["frame_index"], tracks["track_id"]
    index = frames.frame_index
    known = np.isin(frame_index, index)
    if not known.all():
        unknown = np.unique(frame_index[~known])[:5].tolist()
        raise ValueError(f"track records reference unknown frames {unknown}")
    by_track = np.lexsort((track_id, frame_index))
    repeat = (np.diff(frame_index[by_track]) == 0) & (np.diff(track_id[by_track]) == 0)
    if repeat.any():
        t = int(frame_index[by_track][1:][repeat][0])
        track_ids = sorted(track_id[frame_index == t].tolist())
        raise ValueError(f"track records of frame {t} repeat a track id: {track_ids}")
    position = np.searchsorted(index, frame_index)
    order = np.argsort(position, kind="stable")
    frame = position[order]
    overlaps, gt_offset = _overlaps(tracks["box"][order], frame, frames)
    return _FrameOverlaps(
        frame=frame,
        confidence=tracks["confidence"][order],
        track=track_id[order],
        overlaps=overlaps,
        gt_offset=gt_offset,
        gt_identity=_codes(frames.gt_boxes["id"]),
    )


def _codes(values: np.ndarray) -> np.ndarray:
    """Dense int64 code of each value, equal values sharing one, so that any
    integer identities or track ids compare as small integers."""
    return np.unique(values, return_inverse=True)[1].reshape(-1)


def _mot_tally(fo: _FrameOverlaps, iou_min: float) -> MotCounts:
    track = _codes(fo.track)
    matched, gt_rows = _claims(fo.frame, fo.overlaps, fo.gt_offset, iou_min)
    identity = fo.gt_identity[gt_rows]
    # Matched rows stay in (frame, prediction) order within each identity.
    by_identity = np.argsort(identity, kind="stable")
    identity, track = identity[by_identity], track[matched][by_identity]
    mismatch = np.count_nonzero((np.diff(identity) == 0) & (np.diff(track) != 0))
    gt_total = fo.gt_identity.size
    return MotCounts(
        fp=fo.frame.size - matched.size,
        miss=gt_total - matched.size,
        mismatch=int(mismatch),
        gt_total=gt_total,
    )


def _pair_tally(
    fo: _FrameOverlaps, pairs: np.ndarray, score_threshold: float, iou_min: float
) -> PairCounts:
    live = fo.confidence >= score_threshold
    kept, gt_rows = _claims(fo.frame, fo.overlaps, fo.gt_offset, iou_min, live)
    frame = fo.frame[kept]
    identity = fo.gt_identity[gt_rows]
    track = _codes(fo.track[kept])
    both = identity * (int(track.max(initial=0)) + 1) + track

    total = _same_key_pairs(frame, np.zeros_like(frame), pairs)
    same_identity = _same_key_pairs(frame, identity, pairs)
    same_track = _same_key_pairs(frame, track, pairs)
    tp = _same_key_pairs(frame, both, pairs)
    return PairCounts(
        tp=tp,
        tn=total - same_identity - same_track + tp,
        fp=same_track - tp,
        fn=same_identity - tp,
    )


def _same_key_pairs(frame: np.ndarray, key: np.ndarray, pairs: np.ndarray) -> int:
    """Number of (row of frame t, row of frame u) with equal keys, summed
    over the (t, u) in `pairs`: the sum over keys k of c_t(k) * c_u(k), with
    c_t(k) the number of rows of frame t whose key is k."""
    if key.size == 0:
        return 0
    width = int(key.max()) + 1
    cells, counts = np.unique(frame * width + key, return_counts=True)
    cell_frame = cells // width
    # Expand each pair over the cells of its first frame, then look up the
    # cell with the same key in its second frame.
    start = np.searchsorted(cell_frame, pairs[:, 0])
    reps = np.searchsorted(cell_frame, pairs[:, 0], side="right") - start
    src = np.repeat(start, reps) + _within_group(reps)
    target = np.repeat(pairs[:, 1], reps) * width + cells[src] % width
    found = np.minimum(np.searchsorted(cells, target), cells.size - 1)
    return int(counts[src] @ np.where(cells[found] == target, counts[found], 0))


def track_counts(
    tracks: np.ndarray,
    frames: Frames,
    score_threshold: float = 0.5,
    iou_min: float = 0.5,
) -> tuple[MotCounts, PairCounts]:
    """CLEAR MOT tallies and cross-frame pair confusion counts of one
    tracker output.

    `tracks` is a tracks array (`TRACK_DTYPE`), its rows in any order across
    frames; within a frame, rows keep their order, and a track id may occur
    at most once. `frames` is one camera's sequence, frame indices
    increasing, and every row's `frame_index` must name one of them. Both
    tallies count from one IoU per (row, ground truth of its frame),
    computed for all frames at once, and match boxes per frame by the
    unique highest-IoU rule.

    MOT counting ignores the confidence. A false positive is an unmatched
    row and a miss an unmatched ground truth. A mismatch is a matched
    ground truth whose track id differs from the track id it was last
    matched with, however long ago that was.

    Pair counting first labels each frame's rows with ground-truth
    identities as `assign_predictions` labels them (rows below
    `score_threshold` stay unlabeled). Then for every frame pair
    (t, u) of `neighbor_frames(frames)`, where u directly follows t, every
    (labeled row in t) x (labeled row in u) combination is scored:
    actually-same means equal identities, predicted-same means equal track
    ids. Pairs involving an unlabeled row are skipped. The tracker ends
    every track at a missing frame, so no pair spans a gap.
    """
    _check_score_threshold(score_threshold)
    _check_iou_min(iou_min)
    _check_sequence(frames)
    fo = _frame_overlaps(tracks, frames)
    pairs = np.array(neighbor_frames(frames), dtype=np.int64).reshape(-1, 2)
    return _mot_tally(fo, iou_min), _pair_tally(fo, pairs, score_threshold, iou_min)


def pair_accuracy(counts: PairCounts) -> float:
    """(tp + tn) / (tp + tn + fp + fn)."""
    total = counts.tp + counts.tn + counts.fp + counts.fn
    if total == 0:
        raise ValueError("pair accuracy is undefined with no pairs")
    return (counts.tp + counts.tn) / total
