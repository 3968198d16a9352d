import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from embedtrack import BoundingBox, DetectionRecord, FrameRecord, iou, iou_matrix
from strategies import any_boxes, boxes


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

    def test_translate(self):
        b = BoundingBox(0.0, 0.0, 2.0, 3.0).translate(10.0, -1.0)
        assert b == BoundingBox(10.0, -1.0, 12.0, 2.0)


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
        assert iou(a.translate(dx, dy), b.translate(dx, dy)) == pytest.approx(
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


class TestDetectionRecord:
    def _record(self, **kw):
        defaults = dict(
            box=BoundingBox(0, 0, 10, 10),
            confidence=0.9,
            feature=np.array([1.0, 2.0]),
        )
        defaults.update(kw)
        return DetectionRecord(**defaults)

    def test_feature_is_readonly_float64(self):
        rec = self._record(feature=[1, 2, 3])
        assert rec.feature.dtype == np.float64
        with pytest.raises(ValueError):
            rec.feature[0] = 99.0

    def test_rejects_bad_confidence(self):
        with pytest.raises(ValueError):
            self._record(confidence=1.5)

    def test_rejects_nan_feature(self):
        with pytest.raises(ValueError):
            self._record(feature=[1.0, float("nan")])

    def test_rejects_matrix_feature(self):
        with pytest.raises(ValueError):
            self._record(feature=np.zeros((2, 2)))

    def test_rejects_negative_identity(self):
        with pytest.raises(ValueError):
            self._record(gt_identity=-1)

    def test_equality_compares_feature_values(self):
        assert self._record() == self._record()
        assert self._record() != self._record(feature=[1.0, 3.0])


class TestFrameRecord:
    def test_coerces_to_tuples(self):
        frame = FrameRecord(
            frame_index=0,
            camera_id=1,
            detections=[],
            gt_boxes=[(BoundingBox(0, 0, 1, 1), 3)],
        )
        assert isinstance(frame.detections, tuple)
        assert isinstance(frame.gt_boxes, tuple)

    def test_rejects_negative_frame_index(self):
        with pytest.raises(ValueError):
            FrameRecord(frame_index=-1, camera_id=0, detections=(), gt_boxes=())

    def test_rejects_negative_gt_identity(self):
        with pytest.raises(ValueError):
            FrameRecord(
                frame_index=0,
                camera_id=0,
                detections=(),
                gt_boxes=((BoundingBox(0, 0, 1, 1), -2),),
            )

    def test_rejects_mixed_feature_dims(self):
        d1 = DetectionRecord(box=BoundingBox(0, 0, 1, 1), confidence=0.9, feature=[1.0])
        d2 = DetectionRecord(
            box=BoundingBox(2, 2, 3, 3), confidence=0.9, feature=[1.0, 2.0]
        )
        with pytest.raises(ValueError):
            FrameRecord(frame_index=0, camera_id=0, detections=(d1, d2), gt_boxes=())
