"""Detection and tracking metrics.

Covers three evaluation layers: identity assignment of predicted boxes to
ground truth (the labeling step everything else builds on), detection
AP / mAP, and tracking quality via MOTA counts and cross-frame pair
accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional, Sequence

import numpy as np

from .calibration import PairCounts
from .core import BoundingBox, _broadcast_iou, iou_matrix

__all__ = [
    "AP_IOU_THRESHOLDS",
    "AssignmentResult",
    "MotCounts",
    "assign_predictions",
    "average_precision",
    "mean_ap",
    "mota",
    "mot_counts",
    "pair_counts",
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
class AssignmentResult:
    """One entry per input prediction: the identity it was assigned, or None
    when filtered out, under the IoU floor, or outbid."""

    assignments: tuple[Optional[int], ...]


def _box_array(boxes: Sequence[BoundingBox]) -> np.ndarray:
    return np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=np.float64).reshape(-1, 4)


def _claim_best_gt(
    pred_boxes: Sequence[Optional[BoundingBox]],
    gt_boxes: Sequence[BoundingBox],
    iou_min: float,
) -> list[Optional[int]]:
    """Unique highest-IoU matching used by assignment and MOT counting.

    Each prediction claims its highest-IoU ground truth provided that IoU is
    strictly above iou_min; when several predictions claim the same ground
    truth, the highest-IoU claimant keeps it (ties to the lowest prediction
    index) and the rest end up unmatched, with no second choice. A None
    prediction never claims (placeholder for confidence-filtered entries).
    """
    claims: list[Optional[int]] = [None] * len(pred_boxes)
    live = [i for i, pb in enumerate(pred_boxes) if pb is not None]
    if not gt_boxes or not live:
        return claims
    overlaps = iou_matrix(_box_array([pred_boxes[i] for i in live]), _box_array(gt_boxes))
    best = overlaps.argmax(axis=1)
    best_iou = overlaps[np.arange(len(live)), best]
    winners: dict[int, int] = {}
    for row, i in enumerate(live):
        if best_iou[row] > iou_min:
            j = int(best[row])
            claims[i] = j
            if j not in winners or best_iou[row] > best_iou[winners[j]]:
                winners[j] = row
    return [
        j if j is not None and live[winners[j]] == i else None for i, j in enumerate(claims)
    ]


def assign_predictions(
    predictions: Sequence[tuple[BoundingBox, float]],
    ground_truths: Sequence[tuple[BoundingBox, int]],
    score_threshold: float = 0.5,
    iou_min: float = 0.5,
) -> AssignmentResult:
    """Label predicted boxes with ground-truth identities.

    Predictions are (box, confidence); those below `score_threshold` are
    dropped. Ground truths are (box, identity). Each surviving prediction is
    paired with its highest-IoU ground truth when that IoU exceeds
    `iou_min`; contested ground truths go to the highest-IoU prediction and
    the losers are left unassigned, so every ground truth labels at most one
    prediction.
    """
    if not 0.0 < iou_min < 1.0:
        raise ValueError(f"iou_min must lie in (0, 1), got {iou_min}")
    pred_boxes = [
        box if conf >= score_threshold else None for box, conf in predictions
    ]
    claims = _claim_best_gt(pred_boxes, [g[0] for g in ground_truths], iou_min)
    return AssignmentResult(
        assignments=tuple(ground_truths[j][1] if j is not None else None for j in claims)
    )


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
    all thresholds. Each image's ground truths are padded to the largest
    per-image count with all-zero boxes, whose IoU is 0 and so never a hit.
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
    gt_counts = np.bincount(gt_image[kept], minlength=len(slot))
    gt_boxes = np.zeros((len(slot), int(gt_counts.max()), 4))
    gt_boxes[gt_image[kept], _within_group(gt_counts)] = _box_array(
        [ground_truths[g][1] for g in kept]
    )
    overlaps = _broadcast_iou(
        _box_array([predictions[k][1] for k in order])[:, None], gt_boxes[image]
    )
    matched = np.zeros((thresholds.size,) + gt_boxes.shape[:2], dtype=bool)

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


def _integrate(recall: np.ndarray, precision: np.ndarray, interpolation: str) -> float:
    """Area under one threshold's precision/recall curve."""
    if interpolation == "eleven_point":
        levels = np.linspace(0.0, 1.0, 11)
        vals = [precision[recall >= r].max() if (recall >= r).any() else 0.0 for r in levels]
        return float(np.mean(vals))
    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.maximum.accumulate(np.concatenate([[0.0], precision, [0.0]])[::-1])[::-1]
    change = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[change + 1] - mrec[change]) * mpre[change + 1]))


def average_precision(
    predictions: Sequence[tuple[int, BoundingBox, float]],
    ground_truths: Sequence[tuple[int, BoundingBox]],
    iou_threshold: float,
    interpolation: Literal["all_point", "eleven_point"] = "all_point",
) -> float:
    """Detection average precision at one IoU threshold.

    Predictions are (image_id, box, confidence) across any number of images;
    ground truths are (image_id, box). Predictions are ranked by confidence
    (ties keep input order) and greedily matched to the best still-unmatched
    ground truth of their image at IoU >= iou_threshold. The default
    integration is exact all-point interpolation; "eleven_point" averages
    interpolated precision at recalls 0.0, 0.1, ..., 1.0 instead.
    """
    return mean_ap(predictions, ground_truths, (iou_threshold,), interpolation)


def mean_ap(
    predictions: Sequence[tuple[int, BoundingBox, float]],
    ground_truths: Sequence[tuple[int, BoundingBox]],
    iou_thresholds: Sequence[float] = AP_IOU_THRESHOLDS,
    interpolation: Literal["all_point", "eleven_point"] = "all_point",
) -> float:
    """Mean of `average_precision` over the given IoU thresholds; every
    threshold is matched in one greedy pass over within-image ranks."""
    thresholds = np.array(iou_thresholds, dtype=np.float64).reshape(-1)
    if thresholds.size == 0:
        raise ValueError("at least one IoU threshold is required")
    if not np.isfinite(thresholds).all():
        raise ValueError(f"IoU thresholds must be finite, got {thresholds.tolist()}")
    if interpolation not in ("all_point", "eleven_point"):
        raise ValueError(f"unknown interpolation {interpolation!r}")
    if not ground_truths:
        raise ValueError("average precision is undefined without ground truths")
    if not predictions:
        return 0.0

    is_tp = _greedy_hits(predictions, ground_truths, thresholds)
    tp_cum = np.cumsum(is_tp, axis=1)
    recall = tp_cum / len(ground_truths)
    precision = tp_cum / np.arange(1, is_tp.shape[1] + 1)
    return float(
        np.mean([_integrate(rec, pre, interpolation) for rec, pre in zip(recall, precision)])
    )


def mota(counts: MotCounts) -> float:
    """1 - (miss + fp + mismatch) / gt_total. May be negative."""
    if counts.gt_total == 0:
        raise ValueError("MOTA is undefined with no ground-truth objects")
    return 1.0 - (counts.miss + counts.fp + counts.mismatch) / counts.gt_total


def mot_counts(
    pred_frames: Sequence[Sequence[tuple[BoundingBox, int]]],
    gt_frames: Sequence[Sequence[tuple[BoundingBox, int]]],
    iou_min: float = 0.5,
) -> MotCounts:
    """Tally false positives, misses, and identity mismatches over a sequence.

    `pred_frames[t]` holds (box, track_id) tracker outputs, `gt_frames[t]`
    holds (box, identity) ground truths; the two sequences must be frame
    aligned. Boxes are matched per frame by the unique highest-IoU rule. A
    mismatch is a matched ground truth whose track id differs from the
    track id it was last matched with, however long ago that was. A track
    id may occur at most once per frame.
    """
    if len(pred_frames) != len(gt_frames):
        raise ValueError(
            f"{len(pred_frames)} prediction frames vs {len(gt_frames)} ground-truth frames"
        )
    fp = miss = mismatch = gt_total = 0
    last_track: dict[int, int] = {}
    for t, (preds, gts) in enumerate(zip(pred_frames, gt_frames)):
        track_ids = [track_id for _, track_id in preds]
        if len(set(track_ids)) != len(track_ids):
            raise ValueError(f"prediction frame {t} repeats a track id: {sorted(track_ids)}")
        gt_total += len(gts)
        claims = _claim_best_gt([b for b, _ in preds], [b for b, _ in gts], iou_min)
        matched_gts = set()
        for i, j in enumerate(claims):
            if j is None:
                fp += 1
                continue
            matched_gts.add(j)
            identity = gts[j][1]
            track_id = preds[i][1]
            if identity in last_track and last_track[identity] != track_id:
                mismatch += 1
            last_track[identity] = track_id
        miss += len(gts) - len(matched_gts)
    return MotCounts(fp=fp, miss=miss, mismatch=mismatch, gt_total=gt_total)


def pair_counts(
    pred_frames: Sequence[Sequence[tuple[BoundingBox, float, int]]],
    gt_frames: Sequence[Sequence[tuple[BoundingBox, int]]],
    neighbors: Sequence[tuple[int, int]],
    score_threshold: float = 0.5,
    iou_min: float = 0.5,
) -> PairCounts:
    """Confusion counts over all cross-frame detection pairs.

    `pred_frames[t]` holds (box, confidence, track_id). Each frame's
    predictions are first labeled with ground-truth identities via
    `assign_predictions`; then for every (t, u) in `neighbors`, every
    (labeled detection in t) x (labeled detection in u) combination is
    scored: actually-same means equal identities, predicted-same means equal
    track ids. Pairs involving an unlabeled detection are skipped.

    `neighbors` lists the (t, u) positions where frame u directly follows
    frame t, as `datasets.neighbor_frames` gives them; a tracker ends every
    track at a missing frame, so frames across a gap are not paired.
    """
    if len(pred_frames) != len(gt_frames):
        raise ValueError(
            f"{len(pred_frames)} prediction frames vs {len(gt_frames)} ground-truth frames"
        )
    labeled: list[list[tuple[int, int]]] = []
    for preds, gts in zip(pred_frames, gt_frames):
        result = assign_predictions(
            [(b, c) for b, c, _ in preds], gts, score_threshold=score_threshold, iou_min=iou_min
        )
        labeled.append(
            [
                (ident, preds[i][2])
                for i, ident in enumerate(result.assignments)
                if ident is not None
            ]
        )
    tp = tn = fp = fn = 0
    for t, u in neighbors:
        for ident_a, track_a in labeled[t]:
            for ident_b, track_b in labeled[u]:
                actual = ident_a == ident_b
                predicted = track_a == track_b
                if actual and predicted:
                    tp += 1
                elif actual:
                    fn += 1
                elif predicted:
                    fp += 1
                else:
                    tn += 1
    return PairCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def track_counts(
    pred_frames: Sequence[Sequence[tuple[BoundingBox, float, int]]],
    gt_frames: Sequence[Sequence[tuple[BoundingBox, int]]],
    neighbors: Sequence[tuple[int, int]],
    score_threshold: float = 0.5,
    iou_min: float = 0.5,
) -> tuple[MotCounts, PairCounts]:
    """`mot_counts` and `pair_counts` of one tracker output, from per-frame
    (box, confidence, track_id) rows; MOT counting ignores the confidence.
    `neighbors` is passed to `pair_counts`."""
    mot_pred = [[(box, track_id) for box, _, track_id in preds] for preds in pred_frames]
    return (
        mot_counts(mot_pred, gt_frames, iou_min=iou_min),
        pair_counts(
            pred_frames, gt_frames, neighbors, score_threshold=score_threshold, iou_min=iou_min
        ),
    )


def pair_accuracy(counts: PairCounts) -> float:
    """(tp + tn) / (tp + tn + fp + fn)."""
    total = counts.tp + counts.tn + counts.fp + counts.fn
    if total == 0:
        raise ValueError("pair accuracy is undefined with no pairs")
    return (counts.tp + counts.tn) / total
