"""Geometric primitives and the frames table."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "GT_DTYPE",
    "TRACK_DTYPE",
    "FrameRecord",
    "Frames",
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
    """One video frame of a `Frames` table: read-only views of its
    detections (a `detection_dtype` record array) and ground-truth boxes
    (a `GT_DTYPE` one)."""

    frame_index: int
    camera_id: int
    detections: np.ndarray
    gt_boxes: np.ndarray


@dataclass(frozen=True, eq=False)
class Frames:
    """One frames file as a table of read-only arrays, as `load_frames` and
    `simulate` give it. Frame k has int64 `frame_index[k]` and
    `camera_id[k]`, and its rows of the file's `detections` and `gt_boxes`
    run from `det_offsets[k]` and `gt_offsets[k]` to the next offset (each
    offsets column has one entry more than there are frames). `frames[k]`,
    and so iteration, gives a `FrameRecord` view."""

    frame_index: np.ndarray
    camera_id: np.ndarray
    detections: np.ndarray
    gt_boxes: np.ndarray
    det_offsets: np.ndarray
    gt_offsets: np.ndarray

    def __len__(self) -> int:
        return self.frame_index.size

    def __getitem__(self, k: int) -> FrameRecord:
        k = range(len(self))[k]  # IndexError past the end, which ends iteration
        d, g = self.det_offsets, self.gt_offsets
        return FrameRecord(
            int(self.frame_index[k]), int(self.camera_id[k]),
            self.detections[d[k] : d[k + 1]], self.gt_boxes[g[k] : g[k + 1]],
        )


def _frames_table(heads: list[tuple], detections: np.ndarray, gt_boxes: np.ndarray) -> Frames:
    """The `Frames` of one (frame_index, camera_id, detection count, gt
    count) per frame of `heads` over the file's record arrays."""
    heads = np.array(heads, dtype=np.int64).reshape(-1, 4)
    offsets = np.zeros((len(heads) + 1, 2), dtype=np.int64)
    np.cumsum(heads[:, 2:], axis=0, out=offsets[1:])
    columns = (heads[:, 0], heads[:, 1], detections, gt_boxes, offsets[:, 0], offsets[:, 1])
    for column in columns:
        column.flags.writeable = False
    return Frames(*columns)


def _row_frames(offsets: np.ndarray) -> np.ndarray:
    """The frame position of every row, from a `Frames` offsets column."""
    return np.repeat(np.arange(offsets.size - 1), np.diff(offsets))


def _follows(frame_index: np.ndarray, camera_id: np.ndarray) -> np.ndarray:
    """(K-1,) bool: whether frame k+1 directly follows frame k (same camera,
    frame_index one higher), the next-frame rule of every stage. Exact up
    to the int64 maximum, where `index + 1` would wrap."""
    prev, cur = frame_index[:-1], frame_index[1:]
    return (camera_id[1:] == camera_id[:-1]) & (prev < cur) & (cur - 1 == prev)


def neighbor_frames(frames: Frames) -> list[tuple[int, int]]:
    """Index pairs (i, j) where frame j directly follows frame i
    (`_follows`): cameras in increasing id, input order within a camera.
    Training and calibration pairs and eval's pair counts take their frame
    pairs from here, and the tracker keeps its one-frame memory only across
    such a step, so all four stages share this rule."""
    order = np.argsort(frames.camera_id, kind="stable")
    step = _follows(frames.frame_index[order], frames.camera_id[order])
    return list(zip(order[:-1][step].tolist(), order[1:][step].tolist()))


def _check_sequence(frames: Frames) -> None:
    """Refuse frames that are not one camera's sequence: a single camera,
    frame indices increasing."""
    cameras = np.unique(frames.camera_id)
    if cameras.size > 1:
        raise ValueError(f"expected a single camera, got {cameras.tolist()}")
    index = frames.frame_index
    stalled = np.flatnonzero(index[1:] <= index[:-1])
    if stalled.size:
        prev, cur = index[stalled[0] : stalled[0] + 2].tolist()
        raise ValueError(f"frame indices must increase: {prev} then {cur}")


def _check_score_threshold(score_threshold: float) -> None:
    if not 0.0 <= score_threshold <= 1.0:  # NaN fails too
        raise ValueError(f"score_threshold must lie in [0, 1], got {score_threshold}")


def _check_iou_min(iou_min: float) -> None:
    if not 0.0 < iou_min < 1.0:
        raise ValueError(f"iou_min must lie in (0, 1), got {iou_min}")
