"""Record arrays for tests, built from plain rows: detections, ground
truths and tracker output in the layouts `FrameRecord` and the tracks
array use, the `Frames` table of a list of frames, and the two record
arrays `mean_ap` takes. A box is four numbers [x1, y1, x2, y2]."""

import dataclasses

import numpy as np

from embedtrack import (
    GT_DTYPE, TRACK_DTYPE, FrameRecord, Frames, detection_dtype, ground_truth_records,
)
from embedtrack.core import _frames_table


def detections(rows, feature_dim=None):
    """Rows (box, confidence, feature) or (box, confidence, feature, gt_id);
    a missing or None gt_id is unlabeled (-1)."""
    rows = [tuple(r) + (None,) * (4 - len(r)) for r in rows]
    if feature_dim is None:
        feature_dim = len(rows[0][2]) if rows else 0
    return np.array(
        [(list(b), c, list(f), -1 if g is None else g) for b, c, f, g in rows],
        dtype=detection_dtype(feature_dim),
    )


def gt_boxes(rows):
    """Rows (box, identity)."""
    return np.array([(list(b), i) for b, i in rows], dtype=GT_DTYPE)


def frame(index, dets=(), gts=(), camera=0, feature_dim=None):
    return FrameRecord(
        frame_index=index,
        camera_id=camera,
        detections=detections(dets, feature_dim),
        gt_boxes=gt_boxes(gts),
    )


def table(records):
    """The `Frames` table of `FrameRecord`s (from `frame`, or views of
    another table), in order. Its detection dtype is that of the first
    frame with detections, else of the first frame."""
    records = list(records)
    dets = [f.detections for f in records if len(f.detections)] or [
        f.detections for f in records[:1]
    ]
    return _frames_table(
        [(f.frame_index, f.camera_id, len(f.detections), len(f.gt_boxes)) for f in records],
        np.concatenate(dets or [np.zeros(0, detection_dtype(0))]),
        np.concatenate([f.gt_boxes for f in records] or [np.zeros(0, GT_DTYPE)]),
    )


def assert_same_frames(got, want):
    """Two `Frames` tables hold the same columns: equal dtypes, shapes and
    bytes."""
    for field in dataclasses.fields(Frames):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field.name


def tracks(rows, frame_index=0):
    """Tracker output rows (box, confidence, track_id), or (box, track_id)
    with confidence 1.0."""
    rows = [(r[0], 1.0, r[1]) if len(r) == 2 else tuple(r) for r in rows]
    return np.array(
        [(frame_index, t, list(b), c) for b, c, t in rows], dtype=TRACK_DTYPE
    )


def ap_inputs(predictions, ground_truths):
    """`mean_ap`'s predictions and ground truths from (frame_index, box,
    confidence) and (frame_index, box) rows: a view of a tracks array and a
    record array of the dtype `ground_truth_records` gives."""
    rows = [(i, 0, list(b), c) for i, b, c in predictions]
    gts = [(i, list(b)) for i, b in ground_truths]
    return (
        np.array(rows, dtype=TRACK_DTYPE)[["frame_index", "box", "confidence"]],
        np.array(gts, dtype=ground_truth_records(table([])).dtype),
    )
