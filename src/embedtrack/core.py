"""Geometric primitives and per-frame detection records."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "GT_DTYPE",
    "TRACK_DTYPE",
    "FrameRecord",
    "detection_dtype",
    "iou",
    "neighbor_frames",
]


def iou(a: Sequence[float], b: Sequence[float]) -> float:
    """Intersection over union of two boxes [x1, y1, x2, y2]; 0.0 when they
    are disjoint."""
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)


def _broadcast_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of float64 box arrays `a` and `b`, shaped (..., 4) and broadcast
    against each other; the same operations in the same order as `iou`."""
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = iw * ih
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    overlap = (iw > 0.0) & (ih > 0.0)
    return np.divide(inter, union, out=np.zeros_like(inter), where=overlap)


def detection_dtype(feature_dim: int) -> np.dtype:
    """Record of one detection: box [x1, y1, x2, y2], detector confidence,
    ROI feature vector, and annotated identity (-1 when unlabeled)."""
    fields = [("box", "f8", (4,)), ("confidence", "f8"), ("feature", "f8", (feature_dim,))]
    return np.dtype(fields + [("gt_id", "i8")])


# Record of one ground-truth box: [x1, y1, x2, y2] and its identity.
GT_DTYPE = np.dtype([("box", "f8", (4,)), ("id", "i8")])

# Record of one tracked detection: where, when, which track, how confident.
TRACK_DTYPE = np.dtype(
    [("frame_index", "i8"), ("track_id", "i8"), ("box", "f8", (4,)), ("confidence", "f8")]
)


@dataclass(frozen=True, eq=False)
class FrameRecord:
    """All detections (a `detection_dtype` record array) and ground-truth
    boxes (a `GT_DTYPE` one) of one video frame. `datasets.load_frames` and
    `datasets.simulate` give read-only slices of one array per file."""

    frame_index: int
    camera_id: int
    detections: np.ndarray
    gt_boxes: np.ndarray

    def follows(self, other: "FrameRecord") -> bool:
        """True when this frame is the next one after `other`: same camera,
        frame_index one higher. Training and calibration pairs and eval's
        pair counts take their frame pairs from `neighbor_frames`, and the
        tracker keeps its one-frame memory only across such a step, so all
        four stages share this rule."""
        return self.camera_id == other.camera_id and self.frame_index == other.frame_index + 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrameRecord):
            return NotImplemented
        return (
            self.frame_index == other.frame_index
            and self.camera_id == other.camera_id
            and self.detections.dtype == other.detections.dtype
            and np.array_equal(self.detections, other.detections)
            and np.array_equal(self.gt_boxes, other.gt_boxes)
        )


def neighbor_frames(frames: Sequence[FrameRecord]) -> list[tuple[int, int]]:
    """Index pairs (i, j) where frames[j] directly follows frames[i]
    (`FrameRecord.follows`): cameras in increasing id, input order within
    a camera."""
    by_camera: dict[int, list[int]] = {}
    for k, frame in enumerate(frames):
        by_camera.setdefault(frame.camera_id, []).append(k)
    return [
        (i, j)
        for camera in sorted(by_camera)
        for i, j in zip(by_camera[camera], by_camera[camera][1:])
        if frames[j].follows(frames[i])
    ]


def _check_sequence(frames: Sequence[FrameRecord]) -> None:
    """Refuse frames that are not one camera's sequence: a single camera,
    frame indices increasing."""
    cameras = {f.camera_id for f in frames}
    if len(cameras) > 1:
        raise ValueError(f"expected a single camera, got {sorted(cameras)}")
    for prev, cur in zip(frames, frames[1:]):
        if cur.frame_index <= prev.frame_index:
            raise ValueError(
                f"frame indices must increase: {prev.frame_index} then {cur.frame_index}"
            )


def _check_score_threshold(score_threshold: float) -> None:
    if not 0.0 <= score_threshold <= 1.0:  # NaN fails too
        raise ValueError(f"score_threshold must lie in [0, 1], got {score_threshold}")


def _check_iou_min(iou_min: float) -> None:
    if not 0.0 < iou_min < 1.0:
        raise ValueError(f"iou_min must lie in (0, 1), got {iou_min}")
