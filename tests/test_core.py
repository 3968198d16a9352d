import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from embedtrack import BoundingBox, FrameParseError, iou, iou_matrix, load_frames
from records import frame
from strategies import any_boxes, boxes


def _translate(box, dx, dy):
    return BoundingBox(box.x1 + dx, box.y1 + dy, box.x2 + dx, box.y2 + dy)


class TestBoundingBox:
    def test_valid_construction(self):
        b = BoundingBox(1.0, 2.0, 4.0, 8.0)
        assert b.width == 3.0
        assert b.height == 6.0
        assert b.area == 18.0
        assert b.as_list() == [1.0, 2.0, 4.0, 8.0]

    @pytest.mark.parametrize(
        "coords",
        [
            (1.0, 0.0, 1.0, 5.0),  # zero width
            (0.0, 5.0, 5.0, 5.0),  # zero height
            (3.0, 0.0, 1.0, 5.0),  # inverted x
            (float("nan"), 0.0, 1.0, 1.0),
            (0.0, 0.0, float("inf"), 1.0),
        ],
    )
    def test_rejects_degenerate(self, coords):
        with pytest.raises(ValueError):
            BoundingBox(*coords)


class TestIou:
    def test_identical_boxes(self):
        b = BoundingBox(2.0, 3.0, 7.0, 9.0)
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(5, 5, 6, 6)) == 0.0

    def test_touching_boxes_are_disjoint(self):
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(1, 0, 2, 1)) == 0.0

    def test_hand_computed_overlap(self):
        # inter = 5 * 10 = 50, union = 100 + 100 - 50 = 150
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(5, 0, 15, 10)
        assert iou(a, b) == 50.0 / 150.0

    @given(boxes(), boxes())
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(boxes())
    def test_self_iou_is_one(self, b):
        assert iou(b, b) == 1.0

    @given(boxes(), boxes(), st.floats(-100, 100), st.floats(-100, 100))
    def test_translation_invariant(self, a, b, dx, dy):
        assert iou(_translate(a, dx, dy), _translate(b, dx, dy)) == pytest.approx(
            iou(a, b), abs=1e-9
        )


def _array(boxes):
    return np.array([b.as_list() for b in boxes]).reshape(-1, 4)


class TestIouMatrix:
    @given(st.lists(any_boxes, max_size=6), st.lists(any_boxes, max_size=6))
    def test_equals_scalar_iou(self, a, b):
        expected = np.array([[iou(x, y) for y in b] for x in a]).reshape(len(a), len(b))
        assert np.array_equal(iou_matrix(_array(a), _array(b)), expected)

    def test_identical_touching_and_disjoint(self):
        a = [BoundingBox(0, 0, 1, 1)]
        b = [BoundingBox(0, 0, 1, 1), BoundingBox(1, 0, 2, 1), BoundingBox(5, 5, 6, 6)]
        assert iou_matrix(_array(a), _array(b)).tolist() == [[1.0, 0.0, 0.0]]

    def test_empty_sides_give_empty_shapes(self):
        one = _array([BoundingBox(0, 0, 1, 1)])
        assert iou_matrix(one, np.zeros((0, 4))).shape == (1, 0)
        assert iou_matrix(np.zeros((0, 4)), one).shape == (0, 1)


def _load_one(tmp_path, detections=(), gt_boxes=(), frame_index=0):
    """load_frames of a file with one valid frame line, then one built
    from the given detection and gt objects."""
    good = {"frame_index": 0, "camera_id": 0, "detections": [], "gt_boxes": []}
    doc = dict(good, frame_index=frame_index + 1, detections=list(detections),
               gt_boxes=list(gt_boxes))
    path = tmp_path / "frames.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(doc) + "\n")
    return load_frames(path)


def _det(**kw):
    return {"box": [0, 0, 10, 10], "confidence": 0.9, "feature": [1.0, 2.0], **kw}


def _rejected(tmp_path, field, **kw):
    with pytest.raises(FrameParseError) as exc:
        _load_one(tmp_path, **kw)
    assert (exc.value.line_number, exc.value.field) == (2, field)


class TestDetectionRecord:
    """The rules each row of `FrameRecord.detections` obeys, enforced once
    by `load_frames`."""

    def test_feature_is_readonly_float64(self, tmp_path):
        _, loaded = _load_one(tmp_path, detections=[_det(feature=[1, 2])])
        features = loaded.detections["feature"]
        assert features.dtype == np.float64 and features.tolist() == [[1.0, 2.0]]
        with pytest.raises(ValueError):
            features[0, 0] = 99.0

    def test_rejects_bad_confidence(self, tmp_path):
        _rejected(tmp_path, "detections", detections=[_det(), _det(confidence=1.5)])

    def test_rejects_nan_feature(self, tmp_path):
        _rejected(tmp_path, "detections", detections=[_det(feature=[1.0, float("nan")])])

    def test_rejects_matrix_feature(self, tmp_path):
        _rejected(tmp_path, "detections", detections=[_det(feature=[[1.0], [2.0]])])

    def test_rejects_negative_identity(self, tmp_path):
        _rejected(tmp_path, "detections", detections=[_det(gt_id=-1)])

    def test_equality_compares_feature_values(self):
        dets = [((0, 0, 10, 10), 0.9, [1.0, 2.0], 1)]
        assert frame(0, dets) == frame(0, dets)
        assert frame(0, dets) != frame(0, [((0, 0, 10, 10), 0.9, [1.0, 3.0], 1)])
        assert frame(0, dets) != frame(0, [((0, 0, 10, 10), 0.9, [1.0, 2.0, 0.0], 1)])


class TestFrameRecord:
    def test_fields(self):
        dets = [((0, 0, 10, 10), 0.9, [1.0, 2.0], 7), ((5, 0, 9, 9), 0.4, [0.0, 1.0])]
        f = frame(3, dets, [((0, 0, 10, 10), 7)], camera=2)
        assert f.detections["box"].shape == (2, 4) and f.detections["feature"].shape == (2, 2)
        assert f.detections["gt_id"].tolist() == [7, -1]
        assert f.gt_boxes["id"].tolist() == [7]

    def test_follows_needs_same_camera_and_next_index(self):
        assert frame(4).follows(frame(3))
        assert not frame(5).follows(frame(3))
        assert not frame(4, camera=1).follows(frame(3))

    def test_rejects_negative_frame_index(self, tmp_path):
        _rejected(tmp_path, "frame", frame_index=-2)

    def test_rejects_negative_gt_identity(self, tmp_path):
        _rejected(tmp_path, "frame", gt_boxes=[{"box": [0, 0, 1, 1], "id": -2}])

    def test_rejects_mixed_feature_dims(self, tmp_path):
        dets = [_det(feature=[1.0]), _det(feature=[1.0, 2.0])]
        _rejected(tmp_path, "detections.feature", detections=dets)
