import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedtrack import (
    TRACK_DTYPE,
    EmbeddingHeadParams,
    distance_matrix,
    match_frames,
    track_sequence,
    update_tracks,
)
from oracles import loop_tracker, match_oracle
from records import frame, table


class TestDistanceMatrix:
    def test_identical_single_embedding(self):
        assert np.array_equal(distance_matrix([[1.0, 2.0]], [[1.0, 2.0]]), [[0.0]])

    def test_one_dimensional_arithmetic(self):
        d = distance_matrix([[0.0], [3.0]], [[1.0]])
        assert np.array_equal(d, [[1.0], [4.0]])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        cur = rng.normal(size=(3, 4))
        fmr = rng.normal(size=(2, 4))
        d = distance_matrix(cur, fmr)
        for i in range(3):
            for j in range(2):
                assert d[i, j] == pytest.approx(np.sum((cur[i] - fmr[j]) ** 2), abs=1e-12)

    def test_empty_inputs_give_empty_shapes(self):
        assert distance_matrix(np.zeros((0, 3)), np.ones((2, 3))).shape == (0, 2)
        assert distance_matrix(np.ones((2, 3)), np.zeros((0, 3))).shape == (2, 0)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            distance_matrix(np.ones((1, 3)), np.ones((1, 2)))


class TestMatchFrames:
    def test_single_below_threshold(self):
        assert match_frames(np.array([[0.1]]), 0.343) == [0]

    def test_single_above_threshold(self):
        assert match_frames(np.array([[0.5]]), 0.343) == [None]

    def test_column_minimum_blocks_row(self):
        # column 0 minimum sits at row 1, so row 0 loses despite its row minimum
        d = np.array([[0.1, 0.9], [0.05, 0.9]])
        assert match_frames(d, 1.0) == [None, 0]

    def test_rejects_non_positive_threshold(self):
        with pytest.raises(ValueError):
            match_frames(np.array([[1.0]]), 0.0)

    def test_equals_oracle_on_random_matrices(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            shape = (rng.integers(1, 5), rng.integers(1, 5))
            d = rng.random(shape)
            h = float(rng.uniform(0.05, 1.2))
            assert match_frames(d, h) == match_oracle(d, h)

    def test_partial_matching_no_duplicate_columns(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            d = rng.random((rng.integers(1, 6), rng.integers(1, 6)))
            matches = [m for m in match_frames(d, 0.8) if m is not None]
            assert len(matches) == len(set(matches))

    def test_matched_distances_below_threshold(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = rng.random((4, 4))
            h = float(rng.uniform(0.1, 0.9))
            for i, j in enumerate(match_frames(d, h)):
                if j is not None:
                    assert d[i, j] < h

    def test_offset_above_row_minima_is_invisible(self):
        """Adding a common positive offset to entries strictly above every
        row minimum changes no minima and hence no matching."""
        rng = np.random.default_rng(4)
        for _ in range(200):
            d = rng.random((3, 4))
            h = float(rng.uniform(0.2, 1.0))
            cutoff = d.min(axis=1).max()
            shifted = d.copy()
            shifted[d > cutoff] += float(rng.uniform(0.1, 5.0))
            assert match_frames(d, h) == match_frames(shifted, h)


NO_IDS = np.zeros(0, dtype=np.int64)


class TestUpdateTracks:
    def test_fresh_ids_from_empty_state(self):
        ids, next_id = update_tracks(NO_IDS, [None, None], 0)
        assert ids.dtype == np.int64 and ids.tolist() == [0, 1]
        assert next_id == 2

    def test_perfect_matches_preserve_ids(self):
        first, next_id = update_tracks(NO_IDS, [None, None], 0)
        second, next_id = update_tracks(first, [0, 1], next_id)
        assert second.tolist() == first.tolist()
        assert next_id == 2

    def test_mixed_match_and_fresh(self):
        first, next_id = update_tracks(NO_IDS, [None], 0)
        ids, _ = update_tracks(first, [0, None], next_id)
        assert ids[0] == first[0]
        assert ids[1] > first.max()

    def test_unmatched_former_track_is_dropped(self):
        first, next_id = update_tracks(NO_IDS, [None, None], 0)
        ids, next_id = update_tracks(first, [0], next_id)
        assert ids.tolist() == [0]
        # track 1 is forgotten, and its id is not reused
        assert update_tracks(ids, [None], next_id)[0].tolist() == [2]

    def test_rejects_bad_column(self):
        for column in (3, 1, -1):
            with pytest.raises(ValueError, match="outside previous frame of 1"):
                update_tracks(np.array([0]), [column], 1)

    def test_rejects_duplicate_columns(self):
        with pytest.raises(ValueError, match="column 0 matched twice"):
            update_tracks(np.array([0]), [0, 0], 1)


def _identity_params(dim):
    return EmbeddingHeadParams(
        w1=np.eye(dim), b1=np.zeros(dim), w2=np.eye(dim), b2=np.zeros(dim)
    )


def _frame(index, feats, confidences=None, camera=0):
    confidences = confidences or [0.9] * len(feats)
    dets = [
        ((10.0 * k, 0.0, 10.0 * k + 5.0, 5.0), c, f)
        for k, (f, c) in enumerate(zip(feats, confidences))
    ]
    return frame(index, dets, camera=camera, feature_dim=2)


def _tracked(tracks, frames):
    """(detection index, track id) of every tracked detection, per frame;
    `_frame` puts detection k's box at x1 = 10 k."""
    return [
        [(int(box[0]) // 10, t) for box, t in zip(rows["box"].tolist(), rows["track_id"].tolist())]
        for rows in (tracks[tracks["frame_index"] == f.frame_index] for f in frames)
    ]


class TestTrackSequence:
    def test_single_frame_issues_distinct_ids(self):
        frames = table([_frame(0, [[0.0, 0.0], [5.0, 5.0], [9.0, 9.0]])])
        out = _tracked(track_sequence(frames, _identity_params(2), threshold=1.0), frames)
        assert out == [[(0, 0), (1, 1), (2, 2)]]

    def test_ids_persist_across_identical_embeddings(self):
        feats = [[0.0, 0.0], [5.0, 5.0]]
        frames = table([_frame(0, feats), _frame(1, feats), _frame(2, feats)])
        out = _tracked(track_sequence(frames, _identity_params(2), threshold=1.0), frames)
        assert out == [[(0, 0), (1, 1)]] * 3

    def test_confidence_filter_drops_detections(self):
        frames = table([_frame(0, [[0.0, 0.0], [5.0, 5.0]], confidences=[0.9, 0.3])])
        tracks = track_sequence(frames, _identity_params(2), threshold=1.0)
        assert _tracked(tracks, frames) == [[(0, 0)]]

    def test_gap_breaks_track(self):
        # one frame without the detection: the track id is not revived
        feats = [[0.0, 0.0]]
        frames = table([_frame(0, feats), _frame(1, []), _frame(2, feats)])
        out = _tracked(track_sequence(frames, _identity_params(2), threshold=1.0), frames)
        assert out == [[(0, 0)], [], [(0, 1)]]

    def test_index_gap_issues_fresh_ids(self):
        # frames 0, 1, 3: frame 3 does not follow frame 1, so nothing matches
        feats = [[0.0, 0.0], [5.0, 5.0]]
        frames = table([_frame(0, feats), _frame(1, feats), _frame(3, feats)])
        out = _tracked(track_sequence(frames, _identity_params(2), threshold=1.0), frames)
        assert out == [[(0, 0), (1, 1)], [(0, 0), (1, 1)], [(0, 2), (1, 3)]]

    def test_rejects_multiple_cameras(self):
        frames = table([_frame(0, [[0.0, 0.0]], camera=0), _frame(1, [[0.0, 0.0]], camera=1)])
        with pytest.raises(ValueError):
            track_sequence(frames, _identity_params(2), threshold=1.0)

    def test_rejects_non_increasing_frame_index(self):
        frames = table([_frame(1, [[0.0, 0.0]]), _frame(1, [[0.0, 0.0]])])
        with pytest.raises(ValueError):
            track_sequence(frames, _identity_params(2), threshold=1.0)

    @pytest.mark.parametrize("score_threshold", [-0.1, 1.5, float("nan")])
    def test_rejects_score_threshold_outside_unit_interval(self, score_threshold):
        # NaN once dropped every detection and gave an empty tracks array
        frames = table([_frame(0, [[0.0, 0.0]])])
        with pytest.raises(ValueError, match="score_threshold must lie in"):
            track_sequence(frames, _identity_params(2), 1.0, score_threshold)

    def test_tracks_keep_tracked_rows_in_order(self):
        frames = table([
            _frame(0, [[0.0, 0.0], [5.0, 5.0]], confidences=[0.9, 0.3]),
            _frame(2, [[1.0, 1.0]]),
        ])
        tracks = track_sequence(frames, _identity_params(2), threshold=1.0)
        assert tracks.dtype == TRACK_DTYPE
        assert tracks["frame_index"].tolist() == [0, 2]
        assert tracks["track_id"].tolist() == [0, 1]
        assert tracks["box"].tolist() == [frames[0].detections["box"][0].tolist(),
                                         frames[1].detections["box"][0].tolist()]
        assert tracks["confidence"].tolist() == [0.9, 0.9]
        empty = track_sequence(table([]), _identity_params(2), threshold=1.0)
        assert empty.dtype == TRACK_DTYPE and empty.size == 0


@st.composite
def tracker_cases(draw):
    """Frames with index gaps, empty frames, rows at and below the score
    threshold, and small-integer features, so that distances are exact and
    often tie with each other and with the gate."""
    frames, index = [], draw(st.integers(0, 2))
    for _ in range(draw(st.integers(0, 6))):
        feats = draw(st.lists(st.lists(st.integers(0, 2), min_size=2, max_size=2), max_size=4))
        confidences = draw(st.lists(st.sampled_from([0.2, 0.5, 0.9]), min_size=len(feats),
                                    max_size=len(feats)))
        frames.append(_frame(index, [[float(x) for x in f] for f in feats], confidences))
        index += draw(st.sampled_from([1, 1, 1, 2, 3]))
    return table(frames), draw(st.sampled_from([0.5, 1.0, 2.0, 5.0, 100.0]))


class TestReferenceTracker:
    @given(tracker_cases())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_equals_loop_tracker(self, case):
        frames, threshold = case
        params = _identity_params(2)
        expected = loop_tracker(frames, params, threshold)
        tracks = track_sequence(frames, params, threshold)
        assert tracks.dtype == expected.dtype
        for name in TRACK_DTYPE.names:
            assert tracks[name].tolist() == expected[name].tolist()
