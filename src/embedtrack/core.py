"""Geometric primitives and per-frame detection records."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GT_DTYPE", "TRACK_DTYPE", "BoundingBox", "FrameRecord", "detection_dtype", "iou", "iou_matrix"
]


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned rectangle in pixel coordinates, corner form, x1 < x2 and y1 < y2."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        coords = (self.x1, self.y1, self.x2, self.y2)
        if not all(math.isfinite(c) for c in coords):
            raise ValueError(f"box coordinates must be finite, got {coords}")
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise ValueError(f"degenerate box (requires x1 < x2 and y1 < y2): {coords}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_list(self) -> list[float]:
        return [float(self.x1), float(self.y1), float(self.x2), float(self.y2)]


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; 0.0 when they are disjoint."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) IoU of every box of `a` (n, 4) against every box of `b` (m, 4),
    rows [x1, y1, x2, y2]; every entry equals `iou` of the two boxes exactly."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    return _broadcast_iou(a[:, None], b[None, :])


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
        frame_index one higher. Training pairs, calibration pairs, the
        tracker's one-frame memory and eval's pair counts all use this rule."""
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
