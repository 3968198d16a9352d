"""Geometric primitives and per-frame detection records."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = ["BoundingBox", "DetectionRecord", "FrameRecord", "iou", "iou_matrix"]


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

    def translate(self, dx: float = 0.0, dy: float = 0.0) -> "BoundingBox":
        return BoundingBox(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)

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


@dataclass(frozen=True, eq=False)
class DetectionRecord:
    """One detected object: box, detector confidence, and its ROI feature vector.

    `gt_identity` is the annotated object identity when known.
    """

    box: BoundingBox
    confidence: float
    feature: np.ndarray
    gt_identity: Optional[int] = None

    def __post_init__(self) -> None:
        feat = np.array(self.feature, dtype=np.float64, copy=True)
        if feat.ndim != 1:
            raise ValueError(f"feature must be a 1-D vector, got shape {feat.shape}")
        if not np.all(np.isfinite(feat)):
            raise ValueError("feature contains non-finite entries")
        feat.flags.writeable = False
        object.__setattr__(self, "feature", feat)
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence must lie in [0, 1], got {self.confidence}")
        if self.gt_identity is not None and not (
            isinstance(self.gt_identity, numbers.Integral)
            and not isinstance(self.gt_identity, bool)
            and self.gt_identity >= 0
        ):
            raise ValueError(
                f"gt_identity must be a non-negative integer, got {self.gt_identity!r}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DetectionRecord):
            return NotImplemented
        return (
            self.box == other.box
            and self.confidence == other.confidence
            and np.array_equal(self.feature, other.feature)
            and self.gt_identity == other.gt_identity
        )


@dataclass(frozen=True, eq=False)
class FrameRecord:
    """All detections and ground-truth boxes of one video frame."""

    frame_index: int
    camera_id: int
    detections: tuple[DetectionRecord, ...]
    gt_boxes: tuple[tuple[BoundingBox, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "detections", tuple(self.detections))
        object.__setattr__(self, "gt_boxes", tuple(tuple(g) for g in self.gt_boxes))
        if self.frame_index < 0:
            raise ValueError(f"frame_index must be non-negative, got {self.frame_index}")
        for _, identity in self.gt_boxes:
            if identity < 0:
                raise ValueError(f"ground-truth identity must be non-negative, got {identity}")
        dims = {d.feature.shape[0] for d in self.detections}
        if len(dims) > 1:
            raise ValueError(f"inconsistent feature dimensions within frame: {sorted(dims)}")

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
            and self.detections == other.detections
            and self.gt_boxes == other.gt_boxes
        )
