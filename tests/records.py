"""Record arrays for tests, built from plain rows: detections, ground
truths and tracker output in the layouts `FrameRecord` and the tracks
array use, and the two record arrays `mean_ap` takes. A box is four
numbers [x1, y1, x2, y2]."""

import numpy as np

from embedtrack import GT_DTYPE, TRACK_DTYPE, FrameRecord, detection_dtype, ground_truth_records


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
        np.array(gts, dtype=ground_truth_records([]).dtype),
    )
