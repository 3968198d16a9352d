import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from embedtrack import (
    AP_IOU_THRESHOLDS,
    TRACK_DTYPE,
    MotCounts,
    PairCounts,
    SimConfig,
    assign_predictions,
    ground_truth_records,
    iou,
    mean_ap,
    mota,
    pair_accuracy,
    simulate,
    track_counts,
)
import embedtrack.evaluation
from embedtrack.core import _row_frames
from embedtrack.evaluation import _grouped_iou
from oracles import loop_mot_counts, loop_pair_counts, scalar_average_precision, scalar_claims
import records
from strategies import any_boxes, row_boxes


def _box(x1, y1=0.0, w=10.0, h=10.0):
    return [x1, y1, x1 + w, y1 + h]


def _row(x1, x2):
    return [x1, 0, x2, 1]


def _mean_ap(preds, gts, *thresholds):
    """mean_ap of (frame_index, box, confidence) and (frame_index, box) rows."""
    return mean_ap(*records.ap_inputs(preds, gts), *thresholds)


def _assign(preds, gts, **kw):
    """assign_predictions of a one-frame file of (box, confidence) rows
    against (box, identity) rows, as a list."""
    ids = assign_predictions(records.table([_assign_frame(0, preds, gts)]), **kw)
    assert ids.dtype == np.int64
    return ids.tolist()


def _assign_frame(index, preds, gts):
    return records.frame(index, [(box, conf, ()) for box, conf in preds], gts, feature_dim=0)


def _frames(pred_frames, gt_frames, indices=None):
    """The tracks array and `Frames` table of per-frame prediction and gt
    rows; frame k gets frame index `indices[k]`, by default k."""
    assert len(pred_frames) == len(gt_frames)
    indices = range(len(gt_frames)) if indices is None else indices
    tracks = np.concatenate(
        [records.tracks([])] + [records.tracks(f, i) for f, i in zip(pred_frames, indices)]
    )
    return tracks, records.table(records.frame(i, gts=g) for i, g in zip(indices, gt_frames))


def _track_counts(pred_frames, gt_frames, indices=None, **kw):
    return track_counts(*_frames(pred_frames, gt_frames, indices), **kw)


def _mot_counts(pred_frames, gt_frames, iou_min=0.5):
    """The MOT tallies of `track_counts`."""
    return _track_counts(pred_frames, gt_frames, iou_min=iou_min)[0]


def _pair_counts(pred_frames, gt_frames, indices=None, score_threshold=0.5, iou_min=0.5):
    """The pair counts of `track_counts`."""
    return _track_counts(
        pred_frames, gt_frames, indices, score_threshold=score_threshold, iou_min=iou_min
    )[1]


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

    @pytest.mark.parametrize("score_threshold", [-0.1, 1.5, float("nan")])
    def test_rejects_score_threshold_outside_unit_interval(self, score_threshold):
        # NaN once left every detection unlabeled
        with pytest.raises(ValueError, match="score_threshold must lie in"):
            _assign([(_box(0), 0.9)], [(_box(0), 7)], score_threshold=score_threshold)


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

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.tuples(st.one_of(row_boxes, any_boxes), st.sampled_from([0.3, 0.9]))),
                st.lists(st.tuples(st.one_of(row_boxes, any_boxes), st.integers(0, 5)), max_size=4),
            ),
            max_size=5,
        ),
        st.sampled_from([0.1, 0.5, 0.9]),
    )
    # One box in three frames, each claiming only its own frame's ground truth.
    @example([([(_box(0), 0.9)], [(_box(0), 7)]), ([(_box(0), 0.9)], []),
              ([(_box(0), 0.9)], [(_box(0), 8)])], 0.5)
    def test_file_assignment_equals_scalar_claims_per_frame(self, spec, iou_min):
        expected = []
        for preds, gts in spec:
            claims = scalar_claims(
                [box if conf >= 0.5 else None for box, conf in preds], [b for b, _ in gts], iou_min
            )
            expected += [-1 if j is None else gts[j][1] for j in claims]
        frames = records.table(_assign_frame(k, preds, gts) for k, (preds, gts) in enumerate(spec))
        assert assign_predictions(frames, iou_min=iou_min).tolist() == expected

    @given(
        detections,
        annotations,
        st.sampled_from([0.0, 0.3, 0.5, 0.75, 1.0]),
    )
    def test_average_precision_equals_scalar_loop(self, preds, gts, threshold):
        expected = scalar_average_precision(preds, gts, threshold)
        assert _mean_ap(preds, gts, (threshold,)) == expected

    @given(detections, annotations)
    def test_mean_ap_equals_scalar_loop(self, preds, gts):
        expected = float(
            np.mean([scalar_average_precision(preds, gts, t) for t in AP_IOU_THRESHOLDS])
        )
        assert _mean_ap(preds, gts) == expected

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
        assert _mean_ap(preds, gts, thresholds) == expected

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_grouped_iou_equals_scalar_iou_at_chunk_edges(self, offset):
        """One box short of, exactly at and one past a whole chunk of
        `_IOU_CELLS // G` boxes."""
        rng = np.random.default_rng(5)
        gt_counts = np.array([3, 0, 5, 1])
        chunk = embedtrack.evaluation._IOU_CELLS // 5
        group = rng.integers(0, gt_counts.size, chunk + offset)
        boxes, gt_boxes = (_random_boxes(rng, n) for n in (group.size, gt_counts.sum()))
        got = _grouped_iou(boxes, group, gt_boxes, gt_counts)
        starts = np.cumsum(gt_counts) - gt_counts
        want = np.zeros((group.size, 5))
        for p, g in enumerate(group.tolist()):
            for j in range(gt_counts[g]):
                want[p, j] = iou(boxes[p].tolist(), gt_boxes[starts[g] + j].tolist())
        assert got.tobytes() == want.tobytes()


def _random_boxes(rng, n):
    """n boxes inside a 30 x 30 square, so that many overlap."""
    corner = rng.uniform(0.0, 20.0, (n, 2))
    return np.hstack([corner, corner + rng.uniform(0.5, 10.0, (n, 2))])


@st.composite
def scored_frames(draw):
    """A tracks array in shuffled row order, the frames it is scored
    against, and both as the oracle's (frame_index, box, confidence) and
    (frame_index, box) rows. Frame indices have gaps; frames may have
    predictions but no ground truth or the reverse; confidences tie."""
    indices = sorted(draw(st.sets(st.integers(0, 12), min_size=1, max_size=5)))
    box = st.one_of(row_boxes, any_boxes)
    frames, rows, gts = [], [], []
    for index in indices:
        boxes = draw(st.lists(box, max_size=4))
        frames.append(records.frame(index, gts=[(b, k) for k, b in enumerate(boxes)]))
        gts += [(index, b) for b in boxes]
        preds = draw(st.lists(st.tuples(box, st.sampled_from([0.3, 0.6, 0.9])), max_size=5))
        rows += [(index, k, b, c) for k, (b, c) in enumerate(preds)]
    rows = draw(st.permutations(rows))
    tracks = np.array(rows, dtype=TRACK_DTYPE)
    return tracks, records.table(frames), [(i, b, c) for i, _, b, c in rows], gts


class TestTracksAgainstFrames:
    """`mean_ap` as `eval` calls it: a view of the tracks array and
    `ground_truth_records` of the frames, against the scalar loop."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(scored_frames())
    def test_equals_scalar_loop(self, scored):
        tracks, frames, preds, gts = scored
        predictions = tracks[["frame_index", "box", "confidence"]]
        ground_truths = ground_truth_records(frames)
        if not gts:
            with pytest.raises(ValueError, match="without ground truths"):
                mean_ap(predictions, ground_truths)
            return
        expected = float(
            np.mean([scalar_average_precision(preds, gts, t) for t in AP_IOU_THRESHOLDS])
        )
        assert mean_ap(predictions, ground_truths) == expected

    def test_ground_truth_records_keep_frame_order(self):
        frames = records.table([
            records.frame(4, gts=[(_box(0), 1), (_box(30), 2)]),
            records.frame(6),
            records.frame(7, gts=[(_box(5), 1)]),
        ])
        gts = ground_truth_records(frames)
        assert gts.dtype.names == ("frame_index", "box")
        assert gts["frame_index"].tolist() == [4, 4, 7]
        assert gts["box"].tolist() == [_box(0), _box(30), _box(5)]
        assert len(ground_truth_records(records.table([records.frame(0)]))) == 0


class TestAveragePrecision:
    def test_single_exact_prediction(self):
        gt = [(0, _box(0))]
        assert _mean_ap([(0, _box(0), 0.9)], gt, (0.5,)) == 1.0

    def test_false_positive_ranked_first(self):
        gt = [(0, _box(0))]
        preds = [(0, _box(100), 0.9), (0, _box(0), 0.8)]
        assert _mean_ap(preds, gt, (0.5,)) == 0.5

    def test_exact_predictions_at_every_threshold(self):
        gt = [(0, _box(0)), (0, _box(30)), (1, _box(0))]
        preds = [(img, box, 0.9) for img, box in gt]
        for t in AP_IOU_THRESHOLDS:
            assert _mean_ap(preds, gt, (t,)) == 1.0

    def test_no_ground_truth_raises(self):
        with pytest.raises(ValueError):
            _mean_ap([(0, _box(0), 0.9)], [], (0.5,))

    def test_no_predictions_is_zero(self):
        assert _mean_ap([], [(0, _box(0))], (0.5,)) == 0.0

    def test_invariant_under_monotone_confidence_transform(self):
        rng = np.random.default_rng(1)
        gt = [(k % 2, _box(15.0 * k)) for k in range(6)]
        preds = [
            (k % 2, _box(15.0 * k + rng.uniform(-6, 6)), float(rng.uniform(0.1, 1.0)))
            for k in range(10)
        ]
        base = _mean_ap(preds, gt, (0.5,))
        squashed = [(i, b, 0.001 + c**3 / 2) for i, b, c in preds]
        assert _mean_ap(squashed, gt, (0.5,)) == base

    def test_confidence_ties_keep_input_order(self):
        gt = [(0, _box(0))]
        fp_first = [(0, _box(100), 0.9), (0, _box(0), 0.9)]
        tp_first = [(0, _box(0), 0.9), (0, _box(100), 0.9)]
        assert _mean_ap(fp_first, gt, (0.5,)) == 0.5
        assert _mean_ap(tp_first, gt, (0.5,)) == 1.0


class TestMeanAp:
    def test_exact_predictions(self):
        gt = [(0, _box(0)), (0, _box(30))]
        preds = [(img, box, 0.7) for img, box in gt]
        assert _mean_ap(preds, gt) == 1.0

    def test_no_predictions(self):
        assert _mean_ap([], [(0, _box(0))]) == 0.0

    @pytest.mark.parametrize("preds", [[], [(0, _box(0), 0.9)]])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_threshold(self, preds, bad):
        with pytest.raises(ValueError, match="finite"):
            _mean_ap(preds, [(0, _box(0))], (0.5, bad))

    def test_thresholds_zero_and_one_are_legal(self):
        # both predictions are exact; in the last call the second one is
        # shifted by 1 px, so it overlaps its ground truth below 1.0
        preds = [(0, _box(0), 0.9), (0, _box(5), 0.8)]
        gts = [(0, _box(0)), (0, _box(5))]
        assert _mean_ap(preds, gts, (0.0,)) == 1.0
        assert _mean_ap(preds, gts, (1.0,)) == 1.0
        assert _mean_ap(preds[:1] + [(0, _box(6), 0.8)], gts, (1.0,)) == 0.5

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

    def test_rejects_repeated_track_id_in_one_frame(self):
        # two boxes claiming track 7 in one frame would otherwise score MOTA 1.0
        gt = [[(_box(0), 1), (_box(50), 2)]]
        with pytest.raises(ValueError):
            _mot_counts([[(_box(0), 7), (_box(50), 7)]], gt)
        with pytest.raises(ValueError, match=r"frame 5 repeat a track id: \[7, 7\]"):
            _track_counts([[], [(_box(0), 7), (_box(50), 7)]], [[], gt[0]], [0, 5])

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
        c = _pair_counts(preds, gt)
        assert (c.tp, c.tn, c.fp, c.fn) == (2, 2, 0, 0)
        assert c.gp == 2 and c.gn == 2

    def test_fresh_ids_every_frame(self):
        gt = [[(_box(0), 1), (_box(50), 2)]] * 3
        preds = [
            [(_box(0), 0.9, 2 * t), (_box(50), 0.9, 2 * t + 1)] for t in range(3)
        ]
        c = _pair_counts(preds, gt)
        assert c.tp == 0
        assert c.fn == c.gp

    def test_single_vehicle_correct_link(self):
        gt = [[(_box(0), 1)]] * 2
        preds = [[(_box(0), 0.9, 3)]] * 2
        c = _pair_counts(preds, gt)
        assert (c.tp, c.gp, c.gn) == (1, 1, 0)

    def test_unlabeled_detections_are_skipped(self):
        gt = [[(_box(0), 1)]] * 2
        preds = [
            [(_box(0), 0.9, 3), (_box(500), 0.9, 4)],  # second box matches no gt
            [(_box(0), 0.9, 3)],
        ]
        c = _pair_counts(preds, gt)
        assert c.tp + c.tn + c.fp + c.fn == 1

    def test_neighbors_skip_index_gap(self):
        # one object in frames 0, 1, 3: the tracker ends its track at the gap
        gt = [[(_box(0), 1)]] * 3
        preds = [[(_box(0), 0.9, 0)], [(_box(0), 0.9, 0)], [(_box(0), 0.9, 1)]]
        assert _pair_counts(preds, gt, [0, 1, 3]) == PairCounts(tp=1, tn=0, fp=0, fn=0)

    def test_confidence_filter_applies(self):
        gt = [[(_box(0), 1)]] * 2
        preds = [[(_box(0), 0.3, 3)], [(_box(0), 0.9, 3)]]
        assert sum(
            getattr(_pair_counts(preds, gt), f) for f in ("tp", "tn", "fp", "fn")
        ) == 0


@st.composite
def tracked_frames(draw):
    """Per-frame (box, confidence, track_id) and (box, identity) rows, some
    frames empty or without ground truth and identities repeated within a
    frame; increasing frame indices with gaps; and the frame of each tracks
    row in file order, which interleaves the frames."""
    n = draw(st.integers(0, 4))
    pred_row = st.tuples(row_boxes, st.sampled_from([0.3, 0.5, 0.9, 0.9]), st.integers(0, 3))
    gt_row = st.tuples(row_boxes, st.integers(0, 2))
    preds, gts = [], []
    for _ in range(n):
        # Sizes drawn first, so that frames are not mostly empty.
        k = draw(st.integers(0, 4))
        preds.append(draw(st.lists(pred_row, min_size=k, max_size=k, unique_by=lambda r: r[2])))
        k = draw(st.integers(0, 4))
        gts.append(draw(st.lists(gt_row, min_size=k, max_size=k)))
    steps = draw(st.lists(st.sampled_from([1, 1, 2, 3]), min_size=n, max_size=n))
    indices = (draw(st.integers(0, 2)) + np.cumsum(steps, dtype=int)).tolist()
    row_frames = draw(st.permutations([k for k, f in enumerate(preds) for _ in f]))
    return preds, gts, indices, row_frames


def _interleaved(preds, indices, row_frames):
    """One tracks array whose rows come from the frames in `row_frames`
    order, each frame's rows in their own order."""
    rows = [iter(f) for f in preds]
    return np.concatenate(
        [records.tracks([])] + [records.tracks([next(rows[k])], indices[k]) for k in row_frames]
    )


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
            [0, 1],
            [1, 0, 0],
        ),
        0.5,
    )
    @example(
        # identity 5 is tracked as 3, unseen in frame 1, then tracked as 4
        # after a gap
        (
            [[(_row(0, 1), 0.9, 3)], [], [(_row(0, 1), 0.9, 4)]],
            [[(_row(0, 1), 5)], [], [(_row(0, 1), 5)]],
            [0, 1, 3],
            [2, 0],
        ),
        0.5,
    )
    def test_equals_loop_oracles(self, frames, iou_min):
        preds, gts, indices, row_frames = frames
        sequence = records.table(records.frame(i, gts=g) for i, g in zip(indices, gts))
        neighbors = [
            (t, t + 1) for t in range(len(indices) - 1) if indices[t + 1] == indices[t] + 1
        ]
        mot_preds = [[(b, t) for b, _, t in f] for f in preds]
        expected_mot = loop_mot_counts(mot_preds, gts, iou_min)
        expected_pairs = loop_pair_counts(preds, gts, neighbors, iou_min=iou_min)
        tracks = _interleaved(preds, indices, row_frames)
        mot, pairs = track_counts(tracks, sequence, iou_min=iou_min)
        assert (mot, pairs) == (expected_mot, expected_pairs)
        assert {type(v) for v in (*vars(mot).values(), *vars(pairs).values())} == {int}

    def test_rows_in_any_frame_order(self):
        # frame 3's two rows tie for identity 7: the first, track 4, keeps
        # it, so identity 7 stays on track 4 and track 2 is a false positive
        box = (0, 0, 1, 1)
        frames = records.table(
            records.frame(k, gts=g) for k, g in ((0, [(box, 7)]), (1, []), (3, [(box, 7)]))
        )
        rows = np.concatenate(
            [records.tracks([(box, 0.9, t)], k) for k, t in ((3, 4), (0, 4), (3, 2))]
        )
        mot, pairs = track_counts(rows, frames)
        assert mot == MotCounts(fp=1, miss=0, mismatch=0, gt_total=2)
        in_order = rows[np.argsort(rows["frame_index"], kind="stable")]
        assert (mot, pairs) == track_counts(in_order, frames)
        empty = records.table([])
        assert track_counts(rows[:0], empty) == (MotCounts(0, 0, 0, 0), PairCounts(0, 0, 0, 0))

    @pytest.mark.parametrize("iou_min", [-0.1, 1.0, float("nan")])
    def test_rejects_iou_min_before_any_work(self, iou_min):
        # the frames would be refused too; the iou_min check comes first
        tracks = records.tracks([(_box(0), 0.9, 3)], frame_index=5)
        frames = records.table([records.frame(1, camera=1), records.frame(0)])
        with pytest.raises(ValueError, match="iou_min"):
            track_counts(tracks, frames, iou_min=iou_min)

    @pytest.mark.parametrize("score_threshold", [-0.1, 1.5, float("nan")])
    def test_rejects_score_threshold_before_any_work(self, score_threshold):
        tracks = records.tracks([(_box(0), 0.9, 3)], frame_index=5)
        frames = records.table([records.frame(1, camera=1), records.frame(0)])
        with pytest.raises(ValueError, match="score_threshold must lie in"):
            track_counts(tracks, frames, score_threshold=score_threshold)

    def test_rejects_multi_camera_frames(self):
        frames = records.table([records.frame(0), records.frame(1, camera=1)])
        with pytest.raises(ValueError, match=r"single camera, got \[0, 1\]"):
            track_counts(records.tracks([]), frames)

    @pytest.mark.parametrize("indices", [[1, 0], [0, 2, 2]])
    def test_rejects_non_increasing_frames(self, indices):
        with pytest.raises(ValueError, match="frame indices must increase"):
            track_counts(records.tracks([]), records.table(records.frame(i) for i in indices))

    def test_rejects_unknown_frames(self):
        rows = np.concatenate([records.tracks([((0, 0, 1, 1), 0.9, 4)], k) for k in (2, 0, 9)])
        with pytest.raises(ValueError, match=r"unknown frames \[2, 9\]"):
            track_counts(rows, records.table([records.frame(0), records.frame(1)]))
        with pytest.raises(ValueError, match=r"unknown frames \[0\]"):
            track_counts(rows[1:2], records.table([]))

    def test_equals_separate_counts(self):
        gt = [[(_box(0), 1), (_box(50), 2)]] * 3
        preds = [[(_box(0), 0.9, 0), (_box(50), 0.4, 1)], [(_box(0), 0.9, 0)], []]
        mot, pairs = _track_counts(preds, gt, score_threshold=0.5)
        assert mot == _mot_counts([[(b, t) for b, _, t in f] for f in preds], gt)
        assert pairs == _pair_counts(preds, gt, score_threshold=0.5)
        assert (mot.fp, mot.miss) == (0, 3)  # MOT counting keeps the 0.4 box
        _, gapped = _track_counts(preds, gt, [0, 1, 3], score_threshold=0.5)
        assert gapped == _pair_counts(preds[:2], gt[:2], score_threshold=0.5)

    def test_peak_memory_stays_below_one_whole_gather(self):
        # A crowd-shaped table: about 1 500 rows against up to 40 ground
        # truths per frame. Gathering every row's ground truths at once, with
        # the IoU temporaries beside them, peaked at 5.1 MB; one chunk of
        # rows at a time stays under 2 MB.
        frames = simulate(
            SimConfig(identity_count=40, frame_count=40, feature_dim=40, dropout=0.05)
        )
        det = frames.detections
        tracks = np.zeros(len(det), TRACK_DTYPE)
        tracks["frame_index"] = frames.frame_index[_row_frames(frames.det_offsets)]
        tracks["track_id"] = det["gt_id"]
        tracks["box"], tracks["confidence"] = det["box"], det["confidence"]
        track_counts(tracks, frames)
        tracemalloc.start()
        try:
            mot, _ = track_counts(tracks, frames)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mot.gt_total > 1_400
        assert peak < 2_000_000


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
