import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from embedtrack import (
    AP_IOU_THRESHOLDS,
    BoundingBox,
    MotCounts,
    PairCounts,
    assign_predictions,
    iou,
    mean_ap,
    mota,
    pair_accuracy,
    track_counts,
)
from oracles import loop_mot_counts, loop_pair_counts, scalar_average_precision, scalar_claims
import records
from strategies import any_boxes, row_boxes


def _box(x1, y1=0.0, w=10.0, h=10.0):
    return BoundingBox(x1, y1, x1 + w, y1 + h)


def _row(x1, x2):
    return BoundingBox(x1, 0, x2, 1)


def _assign(preds, gts, **kw):
    """assign_predictions of (box, confidence) rows against (box, identity)
    rows, as a list."""
    dets = records.detections([(box, conf, ()) for box, conf in preds], feature_dim=0)
    ids = assign_predictions(dets, records.gt_boxes(gts), **kw)
    assert ids.dtype == np.int64
    return ids.tolist()


def _frames(pred_frames, gt_frames):
    """Per-frame record arrays of per-frame prediction and gt rows."""
    return [records.tracks(f) for f in pred_frames], [records.gt_boxes(f) for f in gt_frames]


def _track_counts(pred_frames, gt_frames, *args, **kw):
    return track_counts(*_frames(pred_frames, gt_frames), *args, **kw)


def _mot_counts(pred_frames, gt_frames, iou_min=0.5):
    """The MOT tallies of `track_counts`, which pair no frames."""
    return _track_counts(pred_frames, gt_frames, [], iou_min=iou_min)[0]


def _pair_counts(pred_frames, gt_frames, neighbors, score_threshold=0.5, iou_min=0.5):
    """The pair counts of `track_counts`."""
    return _track_counts(pred_frames, gt_frames, neighbors, score_threshold, iou_min)[1]


class TestAssignPredictions:
    def test_exact_match_assigned(self):
        gt = [(_box(0), 7)]
        assert _assign([(_box(0), 0.9)], gt) == [7]

    def test_confidence_filter(self):
        gt = [(_box(0), 7)]
        assert _assign([(_box(0), 0.4)], gt) == [-1]

    def test_low_iou_abandoned(self):
        gt = [(_box(0), 7)]
        # overlap 4x10 over union 160: iou = 0.25 < 0.5
        assert _assign([(_box(6), 0.9)], gt) == [-1]

    def test_highest_iou_wins_contested_gt(self):
        gt = [(_box(0), 7)]
        close = (_box(1), 0.9)  # iou 9/11
        closer = (_box(0), 0.8)  # iou 1.0
        assert _assign([close, closer], gt) == [-1, 7]

    def test_loser_gets_no_second_choice(self):
        """A prediction outbid on its best ground truth stays unassigned even
        when another compatible ground truth is free."""
        gt_a = (_box(0), 1)
        gt_b = (_box(3), 2)
        winner = (_box(0), 0.9)  # iou 1.0 with gt_a
        loser = (_box(1), 0.9)  # iou(gt_a) = 9/11 > iou(gt_b) = 8/12, loses gt_a
        assert iou(loser[0], gt_a[0]) > iou(loser[0], gt_b[0]) > 0.5
        assert _assign([winner, loser], [gt_a, gt_b]) == [1, -1]

    def test_each_gt_assigned_at_most_once(self):
        rng = np.random.default_rng(0)
        gt = [(_box(20.0 * k), k) for k in range(3)]
        preds = [(_box(20.0 * (k % 3) + rng.uniform(-2, 2)), 0.9) for k in range(6)]
        taken = [a for a in _assign(preds, gt) if a >= 0]
        assert len(taken) == len(set(taken))

    def test_rejects_bad_iou_min(self):
        with pytest.raises(ValueError):
            _assign([], [], iou_min=0.0)


detections = st.lists(
    st.tuples(st.integers(0, 2), any_boxes, st.sampled_from([0.3, 0.6, 0.6, 0.9])), max_size=10
)
annotations = st.lists(st.tuples(st.integers(0, 2), any_boxes), min_size=1, max_size=8)


class TestScalarOracles:
    """The vectorised IoU paths against scalar `iou` loops, exactly."""

    @given(
        st.lists(st.tuples(any_boxes, st.sampled_from([0.3, 0.9]))),
        st.lists(st.tuples(any_boxes, st.integers(0, 5)), max_size=6),
        st.sampled_from([0.1, 0.5, 0.9]),
    )
    def test_assignment_equals_scalar_claims(self, preds, gts, iou_min):
        claims = scalar_claims(
            [box if conf >= 0.5 else None for box, conf in preds], [b for b, _ in gts], iou_min
        )
        expected = [-1 if j is None else gts[j][1] for j in claims]
        assert _assign(preds, gts, iou_min=iou_min) == expected

    @given(
        detections,
        annotations,
        st.sampled_from([0.0, 0.3, 0.5, 0.75, 1.0]),
    )
    def test_average_precision_equals_scalar_loop(self, preds, gts, threshold):
        expected = scalar_average_precision(preds, gts, threshold)
        assert mean_ap(preds, gts, (threshold,)) == expected

    @given(detections, annotations)
    def test_mean_ap_equals_scalar_loop(self, preds, gts):
        expected = float(
            np.mean([scalar_average_precision(preds, gts, t) for t in AP_IOU_THRESHOLDS])
        )
        assert mean_ap(preds, gts) == expected

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3), st.one_of(row_boxes, any_boxes), st.sampled_from([0.3, 0.6, 0.9])
            ),
            max_size=30,
        ),
        st.lists(
            st.tuples(st.integers(0, 4), st.one_of(row_boxes, any_boxes)), min_size=1, max_size=10
        ),
        st.lists(
            st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=5,
        ),
    )
    @example(
        # the first ranked prediction overlaps both ground truths by 0.5; only
        # taking the first of the two leaves the second prediction unmatched
        [(0, _row(1, 2), 0.9), (0, _row(0, 1), 0.6)],
        [(0, _row(0, 2)), (0, _row(1, 3))],
        [0.5],
    )
    def test_mean_ap_matches_every_threshold_list(self, preds, gts, thresholds):
        """Many ranks per image, images with predictions but no ground truth,
        equal confidences across images, and thresholds in any order with
        repeats: the one-pass match equals the scalar loop per threshold."""
        expected = float(
            np.mean([scalar_average_precision(preds, gts, t) for t in thresholds])
        )
        assert mean_ap(preds, gts, thresholds) == expected


class TestAveragePrecision:
    def test_single_exact_prediction(self):
        gt = [(0, _box(0))]
        assert mean_ap([(0, _box(0), 0.9)], gt, (0.5,)) == 1.0

    def test_false_positive_ranked_first(self):
        gt = [(0, _box(0))]
        preds = [(0, _box(100), 0.9), (0, _box(0), 0.8)]
        assert mean_ap(preds, gt, (0.5,)) == 0.5

    def test_exact_predictions_at_every_threshold(self):
        gt = [(0, _box(0)), (0, _box(30)), (1, _box(0))]
        preds = [(img, box, 0.9) for img, box in gt]
        for t in AP_IOU_THRESHOLDS:
            assert mean_ap(preds, gt, (t,)) == 1.0

    def test_no_ground_truth_raises(self):
        with pytest.raises(ValueError):
            mean_ap([(0, _box(0), 0.9)], [], (0.5,))

    def test_no_predictions_is_zero(self):
        assert mean_ap([], [(0, _box(0))], (0.5,)) == 0.0

    def test_invariant_under_monotone_confidence_transform(self):
        rng = np.random.default_rng(1)
        gt = [(k % 2, _box(15.0 * k)) for k in range(6)]
        preds = [
            (k % 2, _box(15.0 * k + rng.uniform(-6, 6)), float(rng.uniform(0.1, 1.0)))
            for k in range(10)
        ]
        base = mean_ap(preds, gt, (0.5,))
        squashed = [(i, b, 0.001 + c**3 / 2) for i, b, c in preds]
        assert mean_ap(squashed, gt, (0.5,)) == base

    def test_confidence_ties_keep_input_order(self):
        gt = [(0, _box(0))]
        fp_first = [(0, _box(100), 0.9), (0, _box(0), 0.9)]
        tp_first = [(0, _box(0), 0.9), (0, _box(100), 0.9)]
        assert mean_ap(fp_first, gt, (0.5,)) == 0.5
        assert mean_ap(tp_first, gt, (0.5,)) == 1.0


class TestMeanAp:
    def test_exact_predictions(self):
        gt = [(0, _box(0)), (0, _box(30))]
        preds = [(img, box, 0.7) for img, box in gt]
        assert mean_ap(preds, gt) == 1.0

    def test_no_predictions(self):
        assert mean_ap([], [(0, _box(0))]) == 0.0

    @pytest.mark.parametrize("preds", [[], [(0, _box(0), 0.9)]])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_threshold(self, preds, bad):
        with pytest.raises(ValueError, match="finite"):
            mean_ap(preds, [(0, _box(0))], (0.5, bad))

    def test_thresholds_zero_and_one_are_legal(self):
        # both predictions are exact; in the last call the second one is
        # shifted by 1 px, so it overlaps its ground truth below 1.0
        preds = [(0, _box(0), 0.9), (0, _box(5), 0.8)]
        gts = [(0, _box(0)), (0, _box(5))]
        assert mean_ap(preds, gts, (0.0,)) == 1.0
        assert mean_ap(preds, gts, (1.0,)) == 1.0
        assert mean_ap(preds[:1] + [(0, _box(6), 0.8)], gts, (1.0,)) == 0.5

    def test_uses_ten_thresholds(self):
        assert len(AP_IOU_THRESHOLDS) == 10
        assert AP_IOU_THRESHOLDS[0] == 0.50
        assert AP_IOU_THRESHOLDS[-1] == 0.95


class TestMota:
    @pytest.mark.parametrize(
        "fp,miss,mm,expected",
        [(604, 8, 1, 8.10), (585, 8, 1, 10.94), (671, 7, 1, -1.80)],
    )
    def test_published_rows(self, fp, miss, mm, expected):
        value = mota(MotCounts(fp=fp, miss=miss, mismatch=mm, gt_total=667)) * 100
        assert abs(value - expected) < 0.005

    def test_perfect_is_one(self):
        assert mota(MotCounts(fp=0, miss=0, mismatch=0, gt_total=10)) == 1.0

    def test_strictly_decreasing_in_each_error(self):
        base = MotCounts(fp=2, miss=3, mismatch=1, gt_total=50)
        for field in ("fp", "miss", "mismatch"):
            kwargs = {"fp": base.fp, "miss": base.miss, "mismatch": base.mismatch}
            kwargs[field] += 1
            worse = MotCounts(gt_total=50, **kwargs)
            assert mota(worse) < mota(base)

    def test_zero_gt_raises(self):
        with pytest.raises(ValueError):
            mota(MotCounts(fp=0, miss=0, mismatch=0, gt_total=0))


class TestMotCounts:
    def test_perfect_tracking(self):
        gt = [[(_box(0), 5)], [(_box(2), 5)], [(_box(4), 5)]]
        preds = [[(frame[0][0], 0)] for frame in gt]
        c = _mot_counts(preds, gt)
        assert (c.fp, c.miss, c.mismatch) == (0, 0, 0)
        assert c.gt_total == 3
        assert mota(c) == 1.0

    def test_id_switch_counts_once(self):
        gt = [[(_box(0), 5)]] * 3
        preds = [[(_box(0), 0)], [(_box(0), 9)], [(_box(0), 9)]]
        c = _mot_counts(preds, gt)
        assert c.mismatch == 1
        assert c.fp == 0 and c.miss == 0

    def test_extra_box_every_frame(self):
        gt = [[(_box(0), 5)]] * 10
        preds = [[(_box(0), 0), (_box(500), 1)]] * 10
        assert _mot_counts(preds, gt).fp == 10

    def test_missed_frame_counts_as_miss(self):
        gt = [[(_box(0), 5)]] * 3
        preds = [[(_box(0), 0)], [], [(_box(0), 0)]]
        c = _mot_counts(preds, gt)
        assert c.miss == 1
        assert c.mismatch == 0  # same id after the gap: no switch

    def test_last_id_persists_through_gap(self):
        gt = [[(_box(0), 5)]] * 3
        preds = [[(_box(0), 0)], [], [(_box(0), 1)]]
        assert _mot_counts(preds, gt).mismatch == 1

    def test_rejects_misaligned_frames(self):
        with pytest.raises(ValueError):
            _mot_counts([[]], [[], []])

    def test_rejects_repeated_track_id_in_one_frame(self):
        # two boxes claiming track 7 in one frame would otherwise score MOTA 1.0
        gt = [[(_box(0), 1), (_box(50), 2)]]
        with pytest.raises(ValueError):
            _mot_counts([[(_box(0), 7), (_box(50), 7)]], gt)

    @pytest.mark.parametrize("iou_min", [-0.1, 0.0, 1.0, float("nan")])
    def test_rejects_iou_min_outside_open_interval(self, iou_min):
        # -0.1 once matched a disjoint box (MOTA 1.0); 1.0 never matched a
        # box to itself
        preds = [[(_box(0), 0)]]
        gt = [[(_box(500), 5)]]
        with pytest.raises(ValueError, match="iou_min"):
            _mot_counts(preds, gt, iou_min=iou_min)


class TestPairCountsMetric:
    def test_two_vehicles_tracked_perfectly(self):
        gt = [[(_box(0), 1), (_box(50), 2)]] * 2
        preds = [[(_box(0), 0.9, 10), (_box(50), 0.9, 20)]] * 2
        c = _pair_counts(preds, gt, [(0, 1)])
        assert (c.tp, c.tn, c.fp, c.fn) == (2, 2, 0, 0)
        assert c.gp == 2 and c.gn == 2

    def test_fresh_ids_every_frame(self):
        gt = [[(_box(0), 1), (_box(50), 2)]] * 3
        preds = [
            [(_box(0), 0.9, 2 * t), (_box(50), 0.9, 2 * t + 1)] for t in range(3)
        ]
        c = _pair_counts(preds, gt, [(0, 1), (1, 2)])
        assert c.tp == 0
        assert c.fn == c.gp

    def test_single_vehicle_correct_link(self):
        gt = [[(_box(0), 1)]] * 2
        preds = [[(_box(0), 0.9, 3)]] * 2
        c = _pair_counts(preds, gt, [(0, 1)])
        assert (c.tp, c.gp, c.gn) == (1, 1, 0)

    def test_unlabeled_detections_are_skipped(self):
        gt = [[(_box(0), 1)]] * 2
        preds = [
            [(_box(0), 0.9, 3), (_box(500), 0.9, 4)],  # second box matches no gt
            [(_box(0), 0.9, 3)],
        ]
        c = _pair_counts(preds, gt, [(0, 1)])
        assert c.tp + c.tn + c.fp + c.fn == 1

    def test_neighbors_skip_index_gap(self):
        # one object in frames 0, 1, 3: the tracker ends its track at the gap
        gt = [[(_box(0), 1)]] * 3
        preds = [[(_box(0), 0.9, 0)], [(_box(0), 0.9, 0)], [(_box(0), 0.9, 1)]]
        assert _pair_counts(preds, gt, [(0, 1)]) == PairCounts(tp=1, tn=0, fp=0, fn=0)

    def test_confidence_filter_applies(self):
        gt = [[(_box(0), 1)]] * 2
        preds = [[(_box(0), 0.3, 3)], [(_box(0), 0.9, 3)]]
        assert sum(
            getattr(_pair_counts(preds, gt, [(0, 1)]), f) for f in ("tp", "tn", "fp", "fn")
        ) == 0


@st.composite
def tracked_frames(draw):
    """Aligned (box, confidence, track_id) and (box, identity) frames, some
    empty or without ground truth, identities repeated within a frame, and
    frame pairs that repeat, skip frames or pair a frame with itself."""
    n = draw(st.integers(1, 4))
    pred_row = st.tuples(row_boxes, st.sampled_from([0.3, 0.5, 0.9, 0.9]), st.integers(0, 3))
    gt_row = st.tuples(row_boxes, st.integers(0, 2))
    preds, gts = [], []
    for _ in range(n):
        # Sizes drawn first, so that frames are not mostly empty.
        k = draw(st.integers(0, 4))
        preds.append(draw(st.lists(pred_row, min_size=k, max_size=k, unique_by=lambda r: r[2])))
        k = draw(st.integers(0, 4))
        gts.append(draw(st.lists(gt_row, min_size=k, max_size=k)))
    frame = st.integers(0, n - 1)
    neighbors = draw(st.lists(st.tuples(frame, frame), min_size=1, max_size=6))
    return preds, gts, neighbors


class TestTrackCounts:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(tracked_frames(), st.sampled_from([0.3, 0.5]))
    @example(
        # two predictions tie at IoU 1.0 for one ground truth: MOT gives it to
        # the first (track 1), pair labeling to the second (the first is
        # below the score threshold), so track 2 in frame 1 is a MOT switch
        # but a same-track pair
        (
            [[(_row(0, 1), 0.3, 1), (_row(0, 1), 0.9, 2)], [(_row(0, 1), 0.9, 2)]],
            [[(_row(0, 1), 7)], [(_row(0, 1), 7)]],
            [(0, 1)],
        ),
        0.5,
    )
    @example(
        # identity 5 is tracked as 3, unseen in frame 1, then tracked as 4
        (
            [[(_row(0, 1), 0.9, 3)], [], [(_row(0, 1), 0.9, 4)]],
            [[(_row(0, 1), 5)], [], [(_row(0, 1), 5)]],
            [(0, 1), (1, 2), (0, 2), (0, 2)],
        ),
        0.5,
    )
    def test_equals_loop_oracles(self, frames, iou_min):
        preds, gts, neighbors = frames
        mot_preds = [[(b, t) for b, _, t in f] for f in preds]
        expected_mot = loop_mot_counts(mot_preds, gts, iou_min)
        expected_pairs = loop_pair_counts(preds, gts, neighbors, iou_min=iou_min)
        mot, pairs = _track_counts(preds, gts, neighbors, iou_min=iou_min)
        assert (mot, pairs) == (expected_mot, expected_pairs)
        assert {type(v) for v in (*vars(mot).values(), *vars(pairs).values())} == {int}
        assert _mot_counts(mot_preds, gts, iou_min) == expected_mot
        assert _pair_counts(preds, gts, neighbors, iou_min=iou_min) == expected_pairs

    @pytest.mark.parametrize("iou_min", [-0.1, 1.0, float("nan")])
    def test_rejects_iou_min_before_any_work(self, iou_min):
        # misaligned frames would raise too; the iou_min check comes first
        for call in (
            lambda: _track_counts([[]], [[], []], [], iou_min=iou_min),
            lambda: _pair_counts([[]], [[], []], [], iou_min=iou_min),
            lambda: _mot_counts([[]], [[], []], iou_min=iou_min),
        ):
            with pytest.raises(ValueError, match="iou_min"):
                call()

    @pytest.mark.parametrize("neighbors", [[(0, 2)], [(-1, 0)], [(0, 1), (2, 0)], [(0.5, 1)]])
    def test_rejects_neighbors_outside_the_frames(self, neighbors):
        gt = [[(_box(0), 1)]] * 2
        preds = [[(_box(0), 0.9, 3)]] * 2
        with pytest.raises(ValueError, match="neighbors"):
            _pair_counts(preds, gt, neighbors)
        with pytest.raises(ValueError, match="neighbors"):
            _track_counts(preds, gt, neighbors)

    def test_equals_separate_counts(self):
        gt = [[(_box(0), 1), (_box(50), 2)]] * 3
        preds = [[(_box(0), 0.9, 0), (_box(50), 0.4, 1)], [(_box(0), 0.9, 0)], []]
        mot, pairs = _track_counts(preds, gt, [(0, 1), (1, 2)], score_threshold=0.5)
        assert mot == _mot_counts([[(b, t) for b, _, t in f] for f in preds], gt)
        assert pairs == _pair_counts(preds, gt, [(0, 1), (1, 2)], score_threshold=0.5)
        assert (mot.fp, mot.miss) == (0, 3)  # MOT counting keeps the 0.4 box
        _, gapped = _track_counts(preds, gt, [(0, 1)], score_threshold=0.5)
        assert gapped == _pair_counts(preds[:2], gt[:2], [(0, 1)], score_threshold=0.5)


class TestPairAccuracy:
    @pytest.mark.parametrize(
        "tp,tn,fp,fn,expected",
        [
            (5176, 6098, 2, 16, 99.84),
            (4989, 5700, 27, 34, 99.43),
            (5196, 6088, 1, 0, 99.99),
            (645, 4729, 1036, 432, 78.54),
            (575, 4350, 1496, 495, 71.21),
            (701, 4667, 1149, 366, 77.99),
        ],
    )
    def test_published_rows(self, tp, tn, fp, fn, expected):
        value = pair_accuracy(PairCounts(tp=tp, tn=tn, fp=fp, fn=fn)) * 100
        assert abs(value - expected) < 0.005

    def test_empty_counts_raise(self):
        with pytest.raises(ValueError):
            pair_accuracy(PairCounts(tp=0, tn=0, fp=0, fn=0))
