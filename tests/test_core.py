import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from embedtrack import (
    FrameParseError, cross_camera_frames, iou, load_frames, load_track_records, neighbor_frames,
)
from embedtrack.core import _broadcast_iou, _check_sequence
from embedtrack.datasets import BOX_RULE
from oracles import loop_check_sequence, loop_cross_camera_frames, loop_neighbor_frames
from records import assert_same_frames, frame, table
from strategies import any_boxes, boxes


def _translate(box, dx, dy):
    x1, y1, x2, y2 = box
    return [x1 + dx, y1 + dy, x2 + dx, y2 + dy]


class TestIou:
    def test_identical_boxes(self):
        b = [2.0, 3.0, 7.0, 9.0]
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou([0, 0, 1, 1], [5, 5, 6, 6]) == 0.0

    def test_touching_boxes_are_disjoint(self):
        assert iou([0, 0, 1, 1], [1, 0, 2, 1]) == 0.0

    def test_hand_computed_overlap(self):
        # inter = 5 * 10 = 50, union = 100 + 100 - 50 = 150
        a = [0, 0, 10, 10]
        b = [5, 0, 15, 10]
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
    return np.array(boxes, dtype=float).reshape(-1, 4)


def iou_matrix(a, b):
    """(n, m) IoU of every box of `a` against every box of `b`, through the
    broadcast kernel that AP, MOT and assignment overlaps use."""
    return _broadcast_iou(a[:, None], b[None, :])


class TestIouMatrix:
    @given(st.lists(any_boxes, max_size=6), st.lists(any_boxes, max_size=6))
    def test_equals_scalar_iou(self, a, b):
        expected = np.array([[iou(x, y) for y in b] for x in a]).reshape(len(a), len(b))
        assert np.array_equal(iou_matrix(_array(a), _array(b)), expected)

    def test_identical_touching_and_disjoint(self):
        a = [[0, 0, 1, 1]]
        b = [[0, 0, 1, 1], [1, 0, 2, 1], [5, 5, 6, 6]]
        assert iou_matrix(_array(a), _array(b)).tolist() == [[1.0, 0.0, 0.0]]

    def test_empty_sides_give_empty_shapes(self):
        one = _array([[0, 0, 1, 1]])
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


BAD_BOXES = [
    [1.0, 0.0, 1.0, 5.0],  # zero width
    [0.0, 5.0, 5.0, 5.0],  # zero height
    [3.0, 0.0, 1.0, 5.0],  # inverted x
    [float("nan"), 0.0, 1.0, 1.0],
    [0.0, 0.0, float("inf"), 1.0],
]


class TestBoxRule:
    """A box is checked once, when its file loads: frames (detections and
    ground truths) and track records refuse the same boxes by one rule."""

    @pytest.mark.parametrize("box", BAD_BOXES)
    def test_load_frames_refuses_detection_box(self, tmp_path, box):
        with pytest.raises(FrameParseError, match=BOX_RULE) as exc:
            _load_one(tmp_path, detections=[_det(box=box)])
        assert (exc.value.line_number, exc.value.field) == (2, "detections.box")

    @pytest.mark.parametrize("box", BAD_BOXES)
    def test_load_frames_refuses_gt_box(self, tmp_path, box):
        with pytest.raises(FrameParseError, match=BOX_RULE) as exc:
            _load_one(tmp_path, gt_boxes=[{"box": box, "id": 1}])
        assert (exc.value.line_number, exc.value.field) == (2, "gt_boxes.box")

    @pytest.mark.parametrize("box", BAD_BOXES)
    def test_load_track_records_refuses(self, tmp_path, box):
        rows = [{"frame_index": k, "track_id": 0, "box": [0, 0, 1, 1], "confidence": 0.5}
                for k in range(2)]
        rows[1]["box"] = box
        path = tmp_path / "tracks.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(FrameParseError, match=BOX_RULE) as exc:
            load_track_records(path)
        assert (exc.value.line_number, exc.value.field) == (2, "box")


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
        assert_same_frames(table([frame(0, dets)]), table([frame(0, dets)]))
        for other in ([1.0, 3.0], [1.0, 2.0, 0.0]):
            with pytest.raises(AssertionError, match="detections"):
                assert_same_frames(
                    table([frame(0, dets)]), table([frame(0, [((0, 0, 10, 10), 0.9, other, 1)])])
                )


class TestFrameRecord:
    def test_fields(self):
        dets = [((0, 0, 10, 10), 0.9, [1.0, 2.0], 7), ((5, 0, 9, 9), 0.4, [0.0, 1.0])]
        f = frame(3, dets, [((0, 0, 10, 10), 7)], camera=2)
        assert f.detections["box"].shape == (2, 4) and f.detections["feature"].shape == (2, 2)
        assert f.detections["gt_id"].tolist() == [7, -1]
        assert f.gt_boxes["id"].tolist() == [7]

    def test_follows_needs_same_camera_and_next_index(self):
        assert neighbor_frames(table([frame(3), frame(4)])) == [(0, 1)]
        assert neighbor_frames(table([frame(3), frame(5)])) == []
        assert neighbor_frames(table([frame(3), frame(4, camera=1)])) == []

    def test_rejects_negative_frame_index(self, tmp_path):
        _rejected(tmp_path, "frame", frame_index=-2)

    def test_rejects_negative_gt_identity(self, tmp_path):
        _rejected(tmp_path, "frame", gt_boxes=[{"box": [0, 0, 1, 1], "id": -2}])

    def test_rejects_mixed_feature_dims(self, tmp_path):
        dets = [_det(feature=[1.0]), _det(feature=[1.0, 2.0])]
        _rejected(tmp_path, "detections.feature", detections=dets)


INT64_MAX = 2**63 - 1
# Frame indices near zero, near the int64 maximum (where index + 1 wraps to
# the minimum) and at the minimum, so that consecutive indices are common.
_frame_indices = st.one_of(
    st.integers(0, 4), st.integers(INT64_MAX - 2, INT64_MAX), st.just(-(2**63))
)


@st.composite
def _camera_frames(draw):
    """`FrameRecord`s of up to three interleaved cameras, with index gaps,
    repeated and decreasing indices, empty frames, and identities that
    several cameras see."""
    box = (0.0, 0.0, 1.0, 1.0)
    return [
        frame(
            draw(_frame_indices),
            [(box, 0.9, [1.0])] * draw(st.integers(0, 1)),
            [(box, i) for i in draw(st.lists(st.integers(0, 3), max_size=3, unique=True))],
            camera=draw(st.integers(0, 2)),
            feature_dim=1,
        )
        for _ in range(draw(st.integers(0, 8)))
    ]


def _refusal(check, frames):
    try:
        check(frames)
    except ValueError as exc:
        return str(exc)
    return None


class TestFrameRules:
    """The array forms of the frame rules against their loops over
    `FrameRecord` views (tests/oracles.py)."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(_camera_frames())
    # INT64_MAX + 1 wraps to the minimum; the rule must not pair them.
    @example([frame(INT64_MAX - 1), frame(0, camera=1), frame(INT64_MAX), frame(-(2**63))])
    def test_array_rules_equal_loops(self, records):
        frames = table(records)
        assert neighbor_frames(frames) == loop_neighbor_frames(frames)
        assert cross_camera_frames(frames) == loop_cross_camera_frames(frames)
        assert _refusal(_check_sequence, frames) == _refusal(loop_check_sequence, frames)
