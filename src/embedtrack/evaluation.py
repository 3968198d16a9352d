"""Detection and tracking metrics.

Covers three evaluation layers: identity assignment of predicted boxes to
ground truth (the labeling step everything else builds on), detection
AP / mAP, and tracking quality via MOTA counts and cross-frame pair
accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .calibration import PairCounts
from .core import BoundingBox, _broadcast_iou, iou_matrix

__all__ = [
    "AP_IOU_THRESHOLDS",
    "MotCounts",
    "assign_predictions",
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


def _box_array(boxes: Sequence[BoundingBox]) -> np.ndarray:
    return np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=np.float64).reshape(-1, 4)


def _check_iou_min(iou_min: float) -> None:
    if not 0.0 < iou_min < 1.0:
        raise ValueError(f"iou_min must lie in (0, 1), got {iou_min}")


def _claims(
    frame: np.ndarray,
    overlaps: np.ndarray,
    iou_min: float,
    live: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Unique highest-IoU matching used by assignment, MOT and pair counting:
    the ground-truth column each row keeps, or -1.

    Row r belongs to frame `frame[r]`, and `overlaps[r]` holds its IoU with
    each ground truth of that frame (padding columns read 0). Each row in
    `live` (default every row) claims its first highest-IoU column when that
    IoU is strictly above iou_min. Of the claimants of one (frame, column),
    the highest IoU keeps it, ties to the lowest row; the rest keep nothing,
    with no second choice.
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
    winners = rows[order[first]]
    kept = np.full(best.size, -1)
    kept[winners] = best[winners]
    return kept


def assign_predictions(
    detections: np.ndarray,
    gt_boxes: np.ndarray,
    score_threshold: float = 0.5,
    iou_min: float = 0.5,
) -> np.ndarray:
    """Label one frame's detections with ground-truth identities.

    `detections` is a record array with `box` and `confidence` fields;
    rows below `score_threshold` are dropped. `gt_boxes` has `box` and `id`
    fields, as `FrameRecord.gt_boxes`. Each surviving row is paired with
    its highest-IoU ground truth when that IoU exceeds `iou_min`; contested
    ground truths go to the highest-IoU row and the losers are left
    unassigned, so every ground truth labels at most one row. Returns the
    int64 identity of every row, -1 when it has none.
    """
    _check_iou_min(iou_min)
    identities = np.full(len(detections), -1, dtype=np.int64)
    if len(gt_boxes) == 0:
        return identities
    overlaps = iou_matrix(detections["box"], gt_boxes["box"])
    live = detections["confidence"] >= score_threshold
    claims = _claims(np.zeros(live.size, dtype=np.int64), overlaps, iou_min, live)
    kept = claims >= 0
    identities[kept] = gt_boxes["id"][claims[kept]]
    return identities


def _greedy_hits(
    predictions: Sequence[tuple[int, BoundingBox, float]],
    ground_truths: Sequence[tuple[int, BoundingBox]],
    thresholds: np.ndarray,
) -> np.ndarray:
    """(T, P) bool: whether the prediction of each confidence rank (stable)
    is a true positive at each of the T IoU thresholds.

    Each ranked prediction takes the first highest-IoU ground truth of its
    image that is still unmatched, overlaps it and reaches the threshold.
    Predictions of different images never compete for a ground truth, so
    step s matches the s-th ranked prediction of every image at once, for
    all thresholds.
    """
    order = np.argsort(-np.array([c for _, _, c in predictions]), kind="stable")
    slot: dict[int, int] = {}
    image = np.array([slot.setdefault(predictions[k][0], len(slot)) for k in order])
    hits = np.zeros((thresholds.size, order.size), dtype=bool)

    gt_image = np.array([slot.get(img, -1) for img, _ in ground_truths])
    kept = np.nonzero(gt_image >= 0)[0]
    if kept.size == 0:
        return hits
    kept = kept[np.argsort(gt_image[kept], kind="stable")]
    overlaps = _grouped_iou(
        _box_array([predictions[k][1] for k in order]),
        image,
        _box_array([ground_truths[g][1] for g in kept]),
        np.bincount(gt_image[kept], minlength=len(slot)),
    )
    matched = np.zeros((thresholds.size, len(slot), overlaps.shape[1]), dtype=bool)

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


def _grouped_iou(
    boxes: np.ndarray, group: np.ndarray, gt_boxes: np.ndarray, gt_counts: np.ndarray
) -> np.ndarray:
    """(P, G) IoU of each box with every ground truth of its group.

    Box p belongs to group `group[p]`; `gt_boxes` are sorted by group, with
    `gt_counts[g]` of them in group g. Each group's ground truths are padded
    to the largest per-group count (at least one) with all-zero boxes, whose
    IoU is 0 and so never a match.
    """
    padded = np.zeros((gt_counts.size, max(int(gt_counts.max(initial=0)), 1), 4))
    padded[np.repeat(np.arange(gt_counts.size), gt_counts), _within_group(gt_counts)] = gt_boxes
    return _broadcast_iou(boxes[:, None], padded[group])


def _integrate(recall: np.ndarray, precision: np.ndarray) -> float:
    """Area under one threshold's precision/recall curve, with all-point
    interpolation."""
    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.maximum.accumulate(np.concatenate([[0.0], precision, [0.0]])[::-1])[::-1]
    change = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[change + 1] - mrec[change]) * mpre[change + 1]))


def mean_ap(
    predictions: Sequence[tuple[int, BoundingBox, float]],
    ground_truths: Sequence[tuple[int, BoundingBox]],
    iou_thresholds: Sequence[float] = AP_IOU_THRESHOLDS,
) -> float:
    """Detection average precision, averaged over the given IoU thresholds;
    pass one threshold for the AP at that threshold.

    Predictions are (image_id, box, confidence) across any number of images;
    ground truths are (image_id, box). Predictions are ranked by confidence
    (ties keep input order) and greedily matched to the best still-unmatched
    ground truth of their image at IoU >= the threshold. Each threshold's
    precision/recall curve is integrated exactly (all-point interpolation).
    Every threshold is matched in one greedy pass over within-image ranks.
    """
    thresholds = np.array(iou_thresholds, dtype=np.float64).reshape(-1)
    if thresholds.size == 0:
        raise ValueError("at least one IoU threshold is required")
    if not np.isfinite(thresholds).all():
        raise ValueError(f"IoU thresholds must be finite, got {thresholds.tolist()}")
    if not ground_truths:
        raise ValueError("average precision is undefined without ground truths")
    if not predictions:
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
    """Flattened predictions of aligned frames and their overlaps."""

    frame: np.ndarray  # (P,) frame position of each prediction
    confidence: np.ndarray  # (P,) confidence of each prediction
    track: np.ndarray  # (P,) track id of each prediction
    overlaps: np.ndarray  # (P, G) IoU with each (padded) ground truth of its frame
    gt_offset: np.ndarray  # (P,) flat index of the first ground truth of its frame
    gt_identity: np.ndarray  # (M,) dense code of every ground-truth identity, flat


def _column(frames: Sequence[np.ndarray], field: str, empty: tuple = (0,), dtype=np.float64):
    """One field of every frame's records, concatenated."""
    return np.concatenate([np.zeros(empty, dtype)] + [f[field] for f in frames])


def _frame_overlaps(
    pred_frames: Sequence[np.ndarray], gt_frames: Sequence[np.ndarray]
) -> _FrameOverlaps:
    """One IoU per (prediction, ground truth of its frame), for every frame at
    once."""
    if len(pred_frames) != len(gt_frames):
        raise ValueError(
            f"{len(pred_frames)} prediction frames vs {len(gt_frames)} ground-truth frames"
        )
    n_pred = np.array([len(preds) for preds in pred_frames], dtype=np.int64)
    n_gt = np.array([len(gts) for gts in gt_frames], dtype=np.int64)
    frame = np.repeat(np.arange(n_pred.size), n_pred)
    return _FrameOverlaps(
        frame=frame,
        confidence=_column(pred_frames, "confidence"),
        track=_column(pred_frames, "track_id", dtype=np.int64),
        overlaps=_grouped_iou(
            _column(pred_frames, "box", (0, 4)), frame, _column(gt_frames, "box", (0, 4)), n_gt
        ),
        gt_offset=(np.cumsum(n_gt) - n_gt)[frame],
        gt_identity=_codes(_column(gt_frames, "id", dtype=np.int64)),
    )


def _codes(values: np.ndarray) -> np.ndarray:
    """Dense int64 code of each value, equal values sharing one, so that any
    integer identities or track ids compare as small integers."""
    return np.unique(values, return_inverse=True)[1].reshape(-1)


def _frame_pairs(neighbors: Sequence[tuple[int, int]], frame_count: int) -> np.ndarray:
    pairs = np.array(neighbors).reshape(-1, 2)
    if pairs.size and pairs.dtype.kind not in "iu":
        raise ValueError(f"neighbors must hold integer frame positions, got {pairs.dtype}")
    pairs = pairs.astype(np.int64)
    outside = ((pairs < 0) | (pairs >= frame_count)).any(axis=1)
    if outside.any():
        raise ValueError(
            f"neighbors must index the {frame_count} frames, got {pairs[outside][0].tolist()}"
        )
    return pairs


def _mot_tally(fo: _FrameOverlaps, iou_min: float) -> MotCounts:
    track = _codes(fo.track)
    order = np.lexsort((track, fo.frame))
    repeat = (np.diff(fo.frame[order]) == 0) & (np.diff(track[order]) == 0)
    if repeat.any():
        t = int(fo.frame[order][1:][repeat][0])
        track_ids = fo.track[fo.frame == t].tolist()
        raise ValueError(f"prediction frame {t} repeats a track id: {sorted(track_ids)}")

    claims = _claims(fo.frame, fo.overlaps, iou_min)
    matched = np.nonzero(claims >= 0)[0]
    identity = fo.gt_identity[fo.gt_offset[matched] + claims[matched]]
    # Matched rows stay in (frame, prediction) order within each identity.
    by_identity = np.argsort(identity, kind="stable")
    identity, track = identity[by_identity], track[matched][by_identity]
    mismatch = np.count_nonzero((np.diff(identity) == 0) & (np.diff(track) != 0))
    gt_total = fo.gt_identity.size
    return MotCounts(
        fp=claims.size - matched.size,
        miss=gt_total - matched.size,
        mismatch=int(mismatch),
        gt_total=gt_total,
    )


def _pair_tally(
    fo: _FrameOverlaps, pairs: np.ndarray, score_threshold: float, iou_min: float
) -> PairCounts:
    claims = _claims(fo.frame, fo.overlaps, iou_min, fo.confidence >= score_threshold)
    kept = np.nonzero(claims >= 0)[0]
    frame = fo.frame[kept]
    identity = fo.gt_identity[fo.gt_offset[kept] + claims[kept]]
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
    pred_frames: Sequence[np.ndarray],
    gt_frames: Sequence[np.ndarray],
    neighbors: Sequence[tuple[int, int]],
    score_threshold: float = 0.5,
    iou_min: float = 0.5,
) -> tuple[MotCounts, PairCounts]:
    """CLEAR MOT tallies and cross-frame pair confusion counts of one
    tracker output.

    `pred_frames[t]` is a record array of tracker outputs with `box`,
    `confidence` and `track_id` fields (the per-frame slices of a tracks
    array, `datasets.tracks_by_frame`); `gt_frames[t]` has `box` and `id`
    fields, as `FrameRecord.gt_boxes`. The two sequences must be frame
    aligned, and a track id may occur at most once per frame. Both tallies
    count from one IoU per (prediction, ground truth of its frame), computed
    for all frames at once, and match boxes per frame by the unique
    highest-IoU rule.

    MOT counting ignores the confidence. A false positive is an unmatched
    prediction and a miss an unmatched ground truth. A mismatch is a matched
    ground truth whose track id differs from the track id it was last
    matched with, however long ago that was.

    Pair counting first labels each frame's predictions with ground-truth
    identities as `assign_predictions` labels them (predictions below
    `score_threshold` stay unlabeled). Then for every (t, u) in `neighbors`,
    every (labeled detection in t) x (labeled detection in u) combination
    is scored: actually-same means equal identities, predicted-same means
    equal track ids. Pairs involving an unlabeled detection are skipped.
    `neighbors` lists the (t, u) positions where frame u directly follows
    frame t, as `datasets.neighbor_frames` gives them; a tracker ends every
    track at a missing frame, so `neighbors` never spans a gap.
    """
    _check_iou_min(iou_min)
    pairs = _frame_pairs(neighbors, len(pred_frames))
    fo = _frame_overlaps(pred_frames, gt_frames)
    return _mot_tally(fo, iou_min), _pair_tally(fo, pairs, score_threshold, iou_min)


def pair_accuracy(counts: PairCounts) -> float:
    """(tp + tn) / (tp + tn + fp + fn)."""
    total = counts.tp + counts.tn + counts.fp + counts.fn
    if total == 0:
        raise ValueError("pair accuracy is undefined with no pairs")
    return (counts.tp + counts.tn) / total
