"""Record arrays for tests, built from plain rows: detections, ground
truths and tracker output in the layouts `FrameRecord` and the tracks
array use. A box is a `BoundingBox` or four numbers."""

import numpy as np

from embedtrack import GT_DTYPE, TRACK_DTYPE, BoundingBox, FrameRecord, detection_dtype


def _box(box):
    return [box.x1, box.y1, box.x2, box.y2] if isinstance(box, BoundingBox) else list(box)


def detections(rows, feature_dim=None):
    """Rows (box, confidence, feature) or (box, confidence, feature, gt_id);
    a missing or None gt_id is unlabeled (-1)."""
    rows = [tuple(r) + (None,) * (4 - len(r)) for r in rows]
    if feature_dim is None:
        feature_dim = len(rows[0][2]) if rows else 0
    return np.array(
        [(_box(b), c, list(f), -1 if g is None else g) for b, c, f, g in rows],
        dtype=detection_dtype(feature_dim),
    )


def gt_boxes(rows):
    """Rows (box, identity)."""
    return np.array([(_box(b), i) for b, i in rows], dtype=GT_DTYPE)


def frame(index, dets=(), gts=(), camera=0, feature_dim=None):
    return FrameRecord(
        frame_index=index,
        camera_id=camera,
        detections=detections(dets, feature_dim),
        gt_boxes=gt_boxes(gts),
    )


def tracks(rows, frame_index=0):
    """Tracker output rows (box, confidence, track_id), or (box, track_id)
    with confidence 1.0."""
    rows = [(r[0], 1.0, r[1]) if len(r) == 2 else tuple(r) for r in rows]
    return np.array(
        [(frame_index, t, _box(b), c) for b, c, t in rows], dtype=TRACK_DTYPE
    )
