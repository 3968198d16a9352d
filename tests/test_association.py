import numpy as np
import pytest

from embedtrack import (
    EmbeddingHeadParams,
    TrackState,
    distance_matrix,
    match_frames,
    track_sequence,
    update_tracks,
)
from records import frame


def match_oracle(d, h):
    """Per-row enumeration of the matching conditions: j is the first
    minimum of row i, i is the first minimum of column j, d[i, j] < h."""
    n_rows, n_cols = d.shape
    out = []
    for i in range(n_rows):
        match = None
        for j in range(n_cols):
            row_first_min = all(d[i, k] > d[i, j] for k in range(j)) and all(
                d[i, k] >= d[i, j] for k in range(j + 1, n_cols)
            )
            col_first_min = all(d[k, j] > d[i, j] for k in range(i)) and all(
                d[k, j] >= d[i, j] for k in range(i + 1, n_rows)
            )
            if row_first_min and col_first_min and d[i, j] < h:
                match = j
                break
        out.append(match)
    return out


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


class TestUpdateTracks:
    def test_fresh_ids_from_empty_state(self):
        state = TrackState.empty(2)
        emb = np.array([[0.0, 0.0], [1.0, 1.0]])
        state, ids = update_tracks(state, emb, [None, None])
        assert ids == [0, 1]
        assert state.next_track_id == 2

    def test_perfect_matches_preserve_ids(self):
        state = TrackState.empty(2)
        emb = np.array([[0.0, 0.0], [1.0, 1.0]])
        state, first = update_tracks(state, emb, [None, None])
        state, second = update_tracks(state, emb, [0, 1])
        assert second == first
        assert state.next_track_id == 2

    def test_mixed_match_and_fresh(self):
        state = TrackState.empty(2)
        state, first = update_tracks(state, np.array([[0.0, 0.0]]), [None])
        emb = np.array([[0.0, 0.0], [5.0, 5.0]])
        state, ids = update_tracks(state, emb, [0, None])
        assert ids[0] == first[0]
        assert ids[1] > max(first)

    def test_unmatched_former_track_is_dropped(self):
        state = TrackState.empty(1)
        state, _ = update_tracks(state, np.array([[0.0], [9.0]]), [None, None])
        state, _ = update_tracks(state, np.array([[0.0]]), [0])
        assert state.former_track_ids == (0,)  # track 1 forgotten

    def test_rejects_bad_column(self):
        state = TrackState.empty(1)
        with pytest.raises(ValueError):
            update_tracks(state, np.array([[1.0]]), [3])

    def test_rejects_duplicate_columns(self):
        state = TrackState.empty(1)
        state, _ = update_tracks(state, np.array([[0.0]]), [None])
        with pytest.raises(ValueError):
            update_tracks(state, np.array([[0.0], [0.1]]), [0, 0])


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


def _tracked(out):
    """(detection index, track id) of every tracked detection, per frame."""
    return [[(i, t) for i, t in enumerate(ids.tolist()) if t >= 0] for ids in out]


class TestTrackSequence:
    def test_single_frame_issues_distinct_ids(self):
        frames = [_frame(0, [[0.0, 0.0], [5.0, 5.0], [9.0, 9.0]])]
        out = _tracked(track_sequence(frames, _identity_params(2), threshold=1.0))
        assert out == [[(0, 0), (1, 1), (2, 2)]]

    def test_ids_persist_across_identical_embeddings(self):
        feats = [[0.0, 0.0], [5.0, 5.0]]
        frames = [_frame(0, feats), _frame(1, feats), _frame(2, feats)]
        out = _tracked(track_sequence(frames, _identity_params(2), threshold=1.0))
        assert out == [[(0, 0), (1, 1)]] * 3

    def test_confidence_filter_drops_detections(self):
        frames = [_frame(0, [[0.0, 0.0], [5.0, 5.0]], confidences=[0.9, 0.3])]
        (ids,) = track_sequence(frames, _identity_params(2), threshold=1.0)
        assert ids.dtype == np.int64 and ids.tolist() == [0, -1]

    def test_gap_breaks_track(self):
        # one frame without the detection: the track id is not revived
        feats = [[0.0, 0.0]]
        frames = [_frame(0, feats), _frame(1, []), _frame(2, feats)]
        out = _tracked(track_sequence(frames, _identity_params(2), threshold=1.0))
        assert out == [[(0, 0)], [], [(0, 1)]]

    def test_index_gap_issues_fresh_ids(self):
        # frames 0, 1, 3: frame 3 does not follow frame 1, so nothing matches
        feats = [[0.0, 0.0], [5.0, 5.0]]
        frames = [_frame(0, feats), _frame(1, feats), _frame(3, feats)]
        out = _tracked(track_sequence(frames, _identity_params(2), threshold=1.0))
        assert out == [[(0, 0), (1, 1)], [(0, 0), (1, 1)], [(0, 2), (1, 3)]]

    def test_rejects_multiple_cameras(self):
        frames = [_frame(0, [[0.0, 0.0]], camera=0), _frame(1, [[0.0, 0.0]], camera=1)]
        with pytest.raises(ValueError):
            track_sequence(frames, _identity_params(2), threshold=1.0)

    def test_rejects_non_increasing_frame_index(self):
        frames = [_frame(1, [[0.0, 0.0]]), _frame(1, [[0.0, 0.0]])]
        with pytest.raises(ValueError):
            track_sequence(frames, _identity_params(2), threshold=1.0)
