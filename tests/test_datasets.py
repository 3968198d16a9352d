import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from embedtrack import (
    TRACK_DTYPE,
    FrameParseError,
    SimConfig,
    cross_camera_frames,
    default_archetypes,
    distance_matrix,
    embed_batch,
    init_params,
    labeled_rows,
    load_frames,
    load_track_records,
    neighbor_frames,
    neighbor_pair_distances,
    save_frames,
    save_track_records,
    simulate,
    training_batches,
)
import embedtrack.datasets
from oracles import (
    frame_labeled_rows, line_load_frames, line_load_track_records, loop_check_sequence,
    loop_cross_camera_frames, loop_neighbor_frames, loop_neighbor_pair_distances,
)
from records import (
    Frame, assert_same_frames, detections, frame, gt_boxes, table, tracks, views,
)
from strategies import grid_boxes, row_boxes


def _det(x1, ident=None, conf=0.9, feature=(1.0, 2.0)):
    return ((x1, 0.0, x1 + 10.0, 10.0), conf, feature, ident)


def _frame(index, idents, camera=0, x_step=50.0):
    dets = [_det(x_step * k, ident=i) for k, i in enumerate(idents)]
    return frame(index, dets, [(d[0], i) for d, i in zip(dets, idents)], camera, feature_dim=2)


def _unlabeled(f):
    dets = f.detections.copy()
    dets["gt_id"] = -1
    return f._replace(detections=dets)


def _batches(frames, pairs, **kwargs):
    """The (features, identities) of each batch of `training_batches`."""
    features, identities, counts = training_batches(frames, pairs, **kwargs)
    ends = np.cumsum(counts).tolist()
    return [(features[a:b], identities[a:b]) for a, b in zip([0] + ends, ends)]


class TestTrainingBatches:
    def test_stacks_first_frame_above_second(self):
        a = frame(0, [_det(0.0, ident=1, feature=(1.0, 0.0)), _det(50.0, ident=2)])
        b = _frame(1, [3, 4])
        features, identities, counts = training_batches(table([a, b]), [(0, 1), (1, 0)])
        assert counts.tolist() == [4, 4]
        assert identities.dtype == np.int64
        assert identities.tolist() == [1, 2, 3, 4, 3, 4, 1, 2]
        assert features[:4].tolist() == [[1.0, 0.0], [1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]

    def test_positive_pair_only_when_identity_shared(self):
        ((_, shared),) = _batches(table([_frame(0, [1]), _frame(1, [1])]), [(0, 1)])
        ((_, apart),) = _batches(table([_frame(0, [1]), _frame(1, [2])]), [(0, 1)])
        assert shared.tolist() == [1, 1]
        assert apart.tolist() == [1, 2]

    def test_overlapping_boxes_label_as_in_their_own_frame(self):
        frames = table(_unlabeled(_frame(t, [1, 2], x_step=6.0)) for t in range(2))  # iou 0.25
        ((features, identities),) = _batches(frames, [(0, 1)])
        rows = [labeled_rows(f) for f in frames]
        assert np.array_equal(features, np.vstack([r[0] for r in rows]))
        assert identities.tolist() == [1, 2, 1, 2]

    def test_passthrough_when_all_labeled(self):
        ((_, identities),) = _batches(table([_frame(0, [1, 2]), _frame(1, [1, 2])]), [(0, 1)])
        assert identities.tolist() == [1, 2, 1, 2]

    def test_assignment_path_for_unlabeled_detections(self):
        frames = table([_unlabeled(_frame(0, [1, 2])), _frame(1, [1, 2])])
        ((_, identities),) = _batches(frames, [(0, 1)])
        assert identities.tolist() == [1, 2, 1, 2]

    def test_skips_pairs_below_two_rows(self):
        frames = table([_frame(0, [1]), _frame(1, []), _frame(2, [1]), _frame(3, [1, 2])])
        features, identities, counts = training_batches(frames, [(0, 1)], score_threshold=0.95)
        assert features.shape == (0, 2) and identities.shape == (0,) and counts.shape == (0,)
        assert len(_batches(frames, [(0, 1), (1, 2), (0, 2)])) == 1
        # a frame without detections adds no rows, whatever its partner
        ((features, identities),) = _batches(frames, [(1, 3)])
        assert features.shape == (2, 2) and identities.tolist() == [1, 2]

    @pytest.mark.parametrize("pair", [(-1, 0), (2, 3)], ids=["negative", "past_end"])
    def test_rejects_pair_outside_the_frames(self, pair):
        # (-1, 0) would wrap round to frames 2 and 0; (2, 3) runs past the end
        frames = simulate(SimConfig(frame_count=3, seed=1))
        with pytest.raises(ValueError, match=rf"frame pair \({pair[0]}, {pair[1]}\)"):
            training_batches(frames, [(0, 1), pair])

    def test_each_frame_labeled_by_itself(self):
        # frame 0 is fully labeled but its first label disagrees with the
        # ground-truth box it sits on; frame 1 carries no labels. Labels of
        # frame 0 pass through, as in calibration, while frame 1 is labeled
        # by IoU assignment.
        a = _frame(0, [0, 1, 2])
        dets = a.detections.copy()
        dets["gt_id"][0] = 9
        a = a._replace(detections=dets)
        b = _unlabeled(_frame(1, [0, 1, 2]))
        ((_, identities),) = _batches(table([a, b]), neighbor_frames(table([a, b])))
        assert identities.tolist() == [9, 1, 2, 0, 1, 2]
        assert labeled_rows(table([a]))[1].tolist() == [9, 1, 2]
        assert labeled_rows(table([a, b]))[1].tolist() == [9, 1, 2, 0, 1, 2]


class TestMtmcPairs:
    def test_identity_in_two_cameras_yields_one_sample(self):
        frames = table([_frame(0, [7], camera=1), _frame(0, [7], camera=2)])
        assert cross_camera_frames(frames) == [(0, 1)]
        ((_, identities),) = _batches(frames, cross_camera_frames(frames))
        assert identities.tolist() == [7, 7]

    def test_single_camera_identity_contributes_nothing(self):
        frames = table([_frame(0, [7], camera=1), _frame(1, [7], camera=1)])
        assert cross_camera_frames(frames) == []

    def test_sample_count_matches_pair_enumeration(self):
        # identity 1 in 3 cameras (3 pairs), identity 2 in 2 cameras (1 pair,
        # already given by identity 1): each distinct frame pair once
        frames = table([
            _frame(0, [1, 2], camera=0),
            _frame(0, [1, 2], camera=1),
            _frame(0, [1], camera=2),
        ])
        assert cross_camera_frames(frames) == [(0, 1), (0, 2), (1, 2)]

    def test_repeated_pair_keeps_first_occurrence_order(self):
        # identity 1 gives (1, 2); identity 2 gives (0, 1), (0, 2) and (1, 2) again
        frames = table([
            _frame(0, [2], camera=0),
            _frame(0, [1, 2], camera=1),
            _frame(0, [1, 2], camera=2),
        ])
        assert cross_camera_frames(frames) == [(1, 2), (0, 1), (0, 2)]
        assert len(_batches(frames, cross_camera_frames(frames))) == 3

    def test_uses_earliest_frame_per_camera(self):
        frames = table(
            [_frame(9, [7], camera=1), _frame(3, [7], camera=1), _frame(0, [7], camera=2)]
        )
        assert cross_camera_frames(frames) == [(1, 2)]


def _one_frame(dets, gts):
    return table([Frame(0, 0, dets, gts)])


def _spec_frame(index, dets, gts):
    """A frame of (box, confidence, gt_id or None) detections, each with a
    feature naming its frame and row, and (box, identity) ground truths."""
    rows = [(box, conf, (index, k), ident) for k, (box, conf, ident) in enumerate(dets)]
    return frame(index, rows, gts, feature_dim=2)


# TestTrainingBatches.test_each_frame_labeled_by_itself as a spec: frame 0's
# labels disagree with its ground truth and pass through, frame 1 has none.
_BOXES = [(50.0 * k, 0.0, 50.0 * k + 10.0, 10.0) for k in range(3)]
_NINE_ONE_TWO = [
    ([(box, 0.9, ident) for box, ident in zip(_BOXES, ids)], list(zip(_BOXES, range(3))))
    for ids in ([9, 1, 2], [None, None, None])
]

_spec_boxes = st.one_of(row_boxes, grid_boxes())
# Ground truths on the short row, where most detections overlap one or tie.
_spec_gts = st.lists(st.tuples(row_boxes, st.integers(0, 4)), max_size=4, unique_by=lambda g: g[1])


@st.composite
def _spec_frames(draw):
    """Frames that are fully labeled, partly labeled or unlabeled, empty or
    without ground truth, with rows below the score threshold and boxes on a
    small grid or one short row, so that IoUs often tie."""
    frames = []
    for _ in range(draw(st.integers(0, 5))):
        labels = draw(st.sampled_from(["all", "some", "none"]))
        ident = {
            "all": st.integers(0, 4),
            "some": st.one_of(st.none(), st.integers(0, 4)),
            "none": st.none(),
        }[labels]
        dets = draw(
            st.lists(st.tuples(_spec_boxes, st.sampled_from([0.3, 0.6, 0.9]), ident), max_size=6)
        )
        frames.append((dets, draw(_spec_gts)))
    return frames


class TestLabeledRows:
    def test_confidence_filter_and_passthrough(self):
        dets = detections(
            [_det(0.0, ident=3, conf=0.9, feature=(1.0, 0.0)), _det(50.0, ident=4, conf=0.2)]
        )
        features, ids, counts = labeled_rows(_one_frame(dets, gt_boxes([])))
        assert ids.dtype == np.int64 and ids.tolist() == [3]
        assert features.tolist() == [[1.0, 0.0]]
        assert counts.tolist() == [1]

    def test_assignment_drops_unmatched(self):
        dets = detections([_det(0.0), _det(500.0)])
        features, ids, _ = labeled_rows(_one_frame(dets, gt_boxes([(dets["box"][0], 8)])))
        assert ids.tolist() == [8]
        assert features.shape == (1, 2)

    def test_nothing_kept_gives_empty_rows(self):
        dets = detections([_det(0.0, ident=1, conf=0.1)])
        features, ids, counts = labeled_rows(_one_frame(dets, gt_boxes([])))
        assert features.shape == (0, 2) and ids.shape == (0,) and counts.tolist() == [0]

    @pytest.mark.parametrize("labeled", [True, False])
    @pytest.mark.parametrize("iou_min", [0.0, 5.0, float("nan")])
    def test_rejects_iou_min_whether_or_not_a_frame_needs_assignment(self, labeled, iou_min):
        first = _frame(0, [1, 2])
        with pytest.raises(ValueError, match="iou_min must lie in"):
            labeled_rows(table([first if labeled else _unlabeled(first)]), iou_min=iou_min)

    @pytest.mark.parametrize("score_threshold", [-0.1, 1.5, float("nan")])
    def test_rejects_score_threshold_outside_unit_interval(self, score_threshold):
        # NaN once dropped every row
        with pytest.raises(ValueError, match="score_threshold must lie in"):
            labeled_rows(table([_frame(0, [1, 2])]), score_threshold=score_threshold)

    def test_assigns_once_and_only_the_frames_that_need_it(self, monkeypatch):
        calls = []
        original = embedtrack.datasets.assign_predictions

        def assign(frames, *args):
            calls.append(frames.frame_index.tolist())
            return original(frames, *args)

        monkeypatch.setattr(embedtrack.datasets, "assign_predictions", assign)
        # Frame 2's label disagrees with its box; frames 1 and 3 need labels.
        labeled = _frame(2, [1]).detections.copy()
        labeled["gt_id"] = 5
        frames = [_frame(0, [1, 2]), _unlabeled(_frame(1, [1, 2])),
                  _frame(2, [1])._replace(detections=labeled), _unlabeled(_frame(3, [2]))]
        assert labeled_rows(table(frames))[1].tolist() == [1, 2, 1, 2, 5, 2]
        assert calls == [[0, 1, 2, 3]]
        calls.clear()
        labeled_rows(table(frames[::2]))
        assert calls == []

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_spec_frames(), st.sampled_from([0.5, 0.7]), st.sampled_from([0.1, 0.5, 0.9]))
    @example(_NINE_ONE_TWO, 0.5, 0.5)
    def test_file_equals_per_frame_rule(self, spec, score_threshold, iou_min):
        frames = table(_spec_frame(k, dets, gts) for k, (dets, gts) in enumerate(spec))
        expected = [frame_labeled_rows(f.detections, f.gt_boxes, score_threshold, iou_min)
                    for f in frames]
        features, ids, counts = labeled_rows(frames, score_threshold, iou_min)
        assert counts.tolist() == [e_ids.size for _, e_ids in expected]
        assert ids.tolist() == [i for _, e_ids in expected for i in e_ids.tolist()]
        assert features.reshape(-1, 2).tolist() == [
            row for e_features, _ in expected for row in e_features.tolist()
        ]


class TestNeighborFrames:
    def test_pairs_only_direct_successors_per_camera(self):
        frames = table([
            _frame(0, [1]),
            _frame(0, [1], camera=1),
            _frame(1, [1]),
            _frame(3, [1]),
            _frame(1, [1], camera=1),
        ])
        assert neighbor_frames(frames) == [(0, 2), (1, 4)]

    def test_no_pair_across_index_gap(self):
        frames = table([_frame(0, [1]), _frame(2, [1])])
        assert neighbor_frames(frames) == []
        assert _batches(frames, neighbor_frames(frames)) == []

    def test_no_pair_across_cameras(self):
        frames = table([_frame(0, [1]), _frame(1, [1], camera=1)])
        assert neighbor_frames(frames) == []
        assert _batches(frames, neighbor_frames(frames)) == []

    def test_distances_skip_index_gap(self):
        frames = table([_frame(0, [1, 2]), _frame(1, [1, 2]), _frame(3, [1, 2])])
        params = init_params(2, 4, 3, np.random.default_rng(0))
        distances, is_same = neighbor_pair_distances(frames, params)
        emb = [embed_batch(params, f.detections["feature"]) for f in frames]
        assert np.array_equal(distances, distance_matrix(emb[0], emb[1]).ravel())
        assert is_same.tolist() == [True, False, False, True]

    def test_no_pairs_gives_empty_arrays(self):
        params = init_params(2, 4, 3, np.random.default_rng(0))
        frames = table([_frame(0, [1]), _frame(2, [1])])
        distances, is_same = neighbor_pair_distances(frames, params)
        assert distances.shape == (0,) and is_same.dtype == bool


@st.composite
def _pair_tables(draw):
    """Tables of up to eight frames from two cameras, interleaved, with index
    gaps and empty frames; each frame is fully labeled, partly labeled or
    unlabeled, and holds rows below the score threshold, one row or none."""
    next_index = {0: 0, 1: 0}
    frames = []
    for _ in range(draw(st.integers(0, 8))):
        camera = draw(st.sampled_from([0, 0, 1]))
        next_index[camera] += draw(st.sampled_from([1, 1, 1, 2]))
        ident = draw(st.sampled_from([
            st.integers(0, 4), st.one_of(st.none(), st.integers(0, 4)), st.none(),
        ]))
        feature = st.tuples(*[st.floats(-4, 4, width=32)] * 2)
        dets = draw(st.lists(
            st.tuples(_spec_boxes, st.sampled_from([0.3, 0.6, 0.9]), feature, ident),
            max_size=draw(st.sampled_from([0, 1, 6])),
        ))
        frames.append(frame(next_index[camera], dets, draw(_spec_gts), camera, feature_dim=2))
    return table(frames)


def _same_arrays(got, want):
    return [(a.dtype, a.shape, a.tobytes()) for a in got] == [
        (a.dtype, a.shape, a.tobytes()) for a in want
    ]


class TestNeighborPairDistances:
    """The chunked gather kernel must give the per-pair loop's bytes."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        _pair_tables(),
        st.sampled_from([1, 3, 32]),
        st.sampled_from([1, 2, 5, embedtrack.datasets._PAIR_CHUNK]),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_per_pair_loop(self, frames, embed_dim, chunk, seed):
        """Cell chunks of one cell up to the module's size, so that pairs
        straddle chunk edges and chunks hold several pairs."""
        params = init_params(2, 4, embed_dim, np.random.default_rng(seed))
        with mock.patch.object(embedtrack.datasets, "_PAIR_CHUNK", chunk):
            got = neighbor_pair_distances(frames, params)
        assert _same_arrays(got, loop_neighbor_pair_distances(frames, params))

    def test_crowd_table_equals_per_pair_loop(self):
        """Three pairs of 1 600 cells, each straddling an edge of the
        module's chunks."""
        frames = simulate(SimConfig(identity_count=40, frame_count=4, feature_dim=40))
        params = init_params(40, 64, 32, np.random.default_rng(0))
        got = neighbor_pair_distances(frames, params)
        assert got[0].size > 2 * embedtrack.datasets._PAIR_CHUNK
        assert _same_arrays(got, loop_neighbor_pair_distances(frames, params))

    def test_peak_memory_stays_below_the_per_pair_loop(self):
        # A crowd-shaped table: 40 ids over 40 frames give about 55 600
        # cells, 0.5 MB of output. The per-pair loop peaks at 1.9 MB: its
        # per-pair pieces and their concatenation are alive together. One
        # chunk's scratch is 0.5 MB at E = 32, beside the output and the
        # (N, E) embeddings.
        frames = simulate(
            SimConfig(identity_count=40, frame_count=40, feature_dim=40, dropout=0.05)
        )
        params = init_params(40, 64, 32, np.random.default_rng(0))
        neighbor_pair_distances(frames, params)
        tracemalloc.start()
        try:
            distances, _ = neighbor_pair_distances(frames, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert distances.size > 50_000
        assert peak < 1_700_000


class TestSimulate:
    def test_zero_noise_features_equal_archetypes(self):
        cfg = SimConfig(identity_count=3, frame_count=4, feature_dim=4, noise_sigma=0.0)
        archetypes = default_archetypes(cfg)
        for f in simulate(cfg):
            assert np.array_equal(f.detections["feature"], archetypes[f.detections["gt_id"]])

    def test_no_dropout_yields_all_identities(self):
        cfg = SimConfig(identity_count=4, frame_count=6, feature_dim=5, dropout=0.0)
        frames = simulate(cfg)
        assert all(len(f.detections) == 4 for f in frames)
        assert all(len(f.gt_boxes) == 4 for f in frames)

    def test_same_seed_reproduces_sequence(self):
        cfg = SimConfig(identity_count=3, frame_count=5, feature_dim=4, seed=12)
        assert_same_frames(simulate(cfg), simulate(cfg))

    def test_archetypes_equidistant_and_seed_independent(self):
        cfg_a = SimConfig(identity_count=4, frame_count=2, feature_dim=6, seed=0)
        cfg_b = SimConfig(identity_count=4, frame_count=2, feature_dim=6, seed=999)
        arch = default_archetypes(cfg_a)
        assert np.array_equal(arch, default_archetypes(cfg_b))
        d = distance_matrix(arch, arch)
        sep2 = cfg_a.archetype_separation**2
        off = d[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, sep2, rtol=1e-12)

    def test_low_noise_keeps_identities_separable(self):
        """With sigma at 1/20 of the archetype separation, every cross-frame
        same-identity distance stays below every different-identity one."""
        cfg = SimConfig(
            identity_count=5,
            frame_count=30,
            feature_dim=8,
            archetype_separation=8.0,
            noise_sigma=0.4,
            seed=3,
        )
        frames = simulate(cfg)
        max_same, min_diff = -np.inf, np.inf
        for t, ft in enumerate(frames):
            for fs in list(frames)[t + 1 :]:
                d = distance_matrix(ft.detections["feature"], fs.detections["feature"])
                same = np.equal.outer(ft.detections["gt_id"], fs.detections["gt_id"])
                max_same = max(max_same, d[same].max())
                min_diff = min(min_diff, d[~same].min())
        assert max_same < min_diff

    def test_boxes_stay_inside_image(self):
        cfg = SimConfig(
            identity_count=3, frame_count=200, feature_dim=4, max_speed=25.0, seed=8
        )
        frames = simulate(cfg)
        for f in frames:
            x1, y1, x2, y2 = f.gt_boxes["box"].T
            assert ((0.0 <= x1) & (x1 < x2) & (x2 <= cfg.image_width)).all()
            assert ((0.0 <= y1) & (y1 < y2) & (y2 <= cfg.image_height)).all()

    def test_dropout_removes_detections_but_not_gt(self):
        cfg = SimConfig(identity_count=5, frame_count=40, feature_dim=6, dropout=0.3, seed=2)
        frames = simulate(cfg)
        total = sum(len(f.detections) for f in frames)
        assert total < 5 * 40
        assert all(len(f.gt_boxes) == 5 for f in frames)

    @pytest.mark.parametrize(
        "kw",
        [
            {"identity_count": 0},
            {"frame_count": 0},
            {"feature_dim": 2, "identity_count": 3},
            {"archetype_separation": 0.0},
            {"noise_sigma": -0.5},
            {"dropout": 1.0},
            {"min_box_size": 0.0},
            {"max_box_size": 2000.0},
            {"max_speed": -1.0},
            {"frame_count": 2.5},
            {"frame_count": True},
        ],
    )
    def test_config_validation(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            SimConfig(**kw)


_int64s = st.integers(-(2**63), 2**63 - 1)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _written_frames(draw):
    """Tables of up to five frames from up to three cameras: empty frames,
    files with no detection at all, labeled and unlabeled rows mixed,
    frames without ground truth, and any finite float or int64."""
    feature_dim = draw(st.integers(0, 3))
    records = []
    for _ in range(draw(st.integers(0, 5))):
        dets = draw(st.lists(st.tuples(
            st.lists(_finite, min_size=4, max_size=4), _finite,
            st.lists(_finite, min_size=feature_dim, max_size=feature_dim),
            st.one_of(st.none(), st.integers(0, 2**63 - 1)),
        ), max_size=3))
        gts = draw(st.lists(st.tuples(st.lists(_finite, min_size=4, max_size=4), _int64s),
                            max_size=3))
        records.append(frame(draw(_int64s), dets, gts, draw(st.integers(0, 2)), feature_dim))
    return table(records)


def _frame_line(f):
    """One frames line as `json.dumps` of its dict; gt_id only when labeled."""
    det, gt = f.detections, f.gt_boxes
    dets = [
        {"box": box, "confidence": confidence, "feature": feature,
         **({"gt_id": gt_id} if gt_id >= 0 else {})}
        for box, confidence, feature, gt_id in zip(
            det["box"].tolist(), det["confidence"].tolist(), det["feature"].tolist(),
            det["gt_id"].tolist(),
        )
    ]
    gts = [{"box": box, "id": ident} for box, ident in zip(gt["box"].tolist(), gt["id"].tolist())]
    doc = {"frame_index": f.frame_index, "camera_id": f.camera_id, "detections": dets,
           "gt_boxes": gts}
    return json.dumps(doc) + "\n"


class TestFrameIo:
    @settings(max_examples=150, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_written_frames())
    def test_bytes_equal_json_dumps(self, tmp_path, frames):
        path = tmp_path / "frames.jsonl"
        save_frames(path, frames)
        assert path.read_bytes() == "".join(map(_frame_line, views(frames))).encode()

    def test_round_trip(self, tmp_path):
        cfg = SimConfig(identity_count=3, frame_count=5, feature_dim=4, dropout=0.2, seed=4)
        frames = simulate(cfg)
        path = tmp_path / "frames.jsonl"
        save_frames(path, frames)
        assert_same_frames(load_frames(path), frames)

    def test_round_trip_without_identities(self, tmp_path):
        unlabeled = frame(0, [((0, 0, 5, 5), 0.75, [0.25, -1.5])], camera=2)
        path = tmp_path / "frames.jsonl"
        save_frames(path, table([unlabeled]))
        assert "gt_id" not in path.read_text()
        loaded = load_frames(path)
        assert_same_frames(loaded, table([unlabeled]))
        assert loaded[0].detections["gt_id"].tolist() == [-1]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        path.write_text("")
        assert_same_frames(load_frames(path), table([]))

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        path.write_text('{"frame_index": 0, "camera_id": 0, "detections": [], "gt_boxes": []}\nnot json\n')
        with pytest.raises(FrameParseError) as exc:
            load_frames(path)
        assert exc.value.line_number == 2

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        path.write_text('{"frame_index": 0, "camera_id": 0, "detections": []}\n')
        with pytest.raises(FrameParseError) as exc:
            load_frames(path)
        assert exc.value.field == "gt_boxes"

    def test_inconsistent_feature_dim_rejected(self, tmp_path):
        frames = [_frame(0, [1], camera=0), frame(1, [_det(0.0, feature=(1.0, 2.0, 3.0))])]
        path = tmp_path / "frames.jsonl"
        for f in frames:  # a table holds one feature length, so each line is saved alone
            save_frames(tmp_path / "line.jsonl", table([f]))
            with path.open("a") as fh:
                fh.write((tmp_path / "line.jsonl").read_text())
        with pytest.raises(FrameParseError) as exc:
            load_frames(path)
        assert exc.value.field == "detections.feature"
        assert exc.value.line_number == 2

    @pytest.mark.parametrize("first", [5, None, {"x": 1.0}])
    def test_feature_that_is_not_a_list_named(self, tmp_path, first):
        doc = _frame_doc(0)
        doc["detections"][0]["feature"] = first
        path = tmp_path / "frames.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(FrameParseError) as exc:
            load_frames(path)
        assert (exc.value.line_number, exc.value.field) == (1, "detections.feature")

    def test_non_increasing_frame_index_rejected(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        save_frames(path, table([_frame(3, [1])]))
        line = path.read_text()
        path.write_text(line + line)  # same frame_index twice
        with pytest.raises(FrameParseError) as exc:
            load_frames(path)
        assert exc.value.field == "frame_index"

    def test_interleaved_cameras_allowed(self, tmp_path):
        frames = table([
            _frame(0, [1], camera=0),
            _frame(0, [1], camera=1),
            _frame(1, [1], camera=0),
        ])
        path = tmp_path / "frames.jsonl"
        save_frames(path, frames)
        assert_same_frames(load_frames(path), frames)

    def test_bad_box_named(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        path.write_text(
            '{"frame_index": 0, "camera_id": 0, '
            '"detections": [{"box": [5, 0, 1, 1], "confidence": 0.9, "feature": [1.0]}], '
            '"gt_boxes": []}\n'
        )
        with pytest.raises(FrameParseError) as exc:
            load_frames(path)
        assert exc.value.field == "detections.box"

    def test_rejects_identity_twice_in_frame(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        save_frames(path, table([_frame(0, [3, 4]), _frame(1, [3, 4])]))
        doc = json.loads(path.read_text().splitlines()[1])
        doc["gt_boxes"][1]["id"] = 3
        path.write_text(path.read_text().splitlines()[0] + "\n" + json.dumps(doc) + "\n")
        with pytest.raises(FrameParseError) as exc:
            load_frames(path)
        assert (exc.value.line_number, exc.value.field) == (2, "gt_boxes.id")

    def test_load_peak_memory_stays_near_one_chunk(self, tmp_path):
        # A crowd-shaped file: 40 ids over 40 frames of 40-wide features,
        # about 1 500 detections and 0.56 MB of table. Holding every line's
        # Python floats until one whole-file build peaked at 4.2 MB; one
        # chunk's floats, the built chunks and the joined table stay under
        # 2 MB.
        path = tmp_path / "frames.jsonl"
        save_frames(path, simulate(SimConfig(identity_count=40, frame_count=40, feature_dim=40)))
        load_frames(path)
        tracemalloc.start()
        try:
            frames = load_frames(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert frames.detections.nbytes > 500_000
        assert peak < 2_000_000


class TestStringsAndBools:
    """JSON strings and bools are not numbers, though NumPy converts both."""

    def test_frames_line_with_text_and_bools_rejected(self, tmp_path):
        doc = _frame_doc(0)
        doc["detections"][0].update(
            {"box": ["1", "2", "30", "40"], "confidence": True, "feature": ["0.5", False]}
        )
        path = tmp_path / "frames.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(FrameParseError, match="not strings or bools") as exc:
            load_frames(path)
        assert (exc.value.line_number, exc.value.field) == (1, "detections.box")

    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("box", [0, 0, "5", 5], "detections.box"),
            ("confidence", True, "detections"),
            ("confidence", "0.5", "detections"),
            ("feature", [False], "detections"),
            ("feature", ["0.5"], "detections"),
            ("gt_box", [0, 0, 5, True], "gt_boxes.box"),
        ],
    )
    def test_frames_reject_on_their_line(self, tmp_path, key, value, field):
        docs = [_frame_doc(k) for k in range(3)]
        if key == "gt_box":
            docs[1]["gt_boxes"][0]["box"] = value
        else:
            docs[1]["detections"][0][key] = value
        path = tmp_path / "frames.jsonl"
        path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        with pytest.raises(FrameParseError, match="not strings or bools") as exc:
            load_frames(path)
        assert (exc.value.line_number, exc.value.field) == (2, field)

    @pytest.mark.parametrize(
        "key, value, field",
        [("confidence", "0.5", "record"), ("confidence", False, "record"),
         ("box", [0, 0, 5, "5"], "box"), ("box", [True, 0, 5, 5], "box")],
    )
    def test_tracks_reject_on_their_line(self, tmp_path, key, value, field):
        rows = [{"frame_index": k, "track_id": 0, "box": [0, 0, 5, 5], "confidence": 0.5}
                for k in range(3)]
        rows[1][key] = value
        path = tmp_path / "tracks.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(FrameParseError, match="not strings or bools") as exc:
            load_track_records(path)
        assert (exc.value.line_number, exc.value.field) == (2, field)

    def test_zero_and_one_as_numbers_accepted(self, tmp_path):
        doc = _frame_doc(0)
        doc["detections"][0].update({"box": [0, 0, 1, 1.0], "confidence": 1, "feature": [0]})
        path = tmp_path / "frames.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        (loaded,) = load_frames(path)
        assert loaded.detections["box"].tolist() == [[0.0, 0.0, 1.0, 1.0]]
        assert loaded.detections["confidence"].tolist() == [1.0]


class TestTrackRecordIo:
    def test_round_trip(self, tmp_path):
        records = np.concatenate(
            [tracks([((0, 0, 5, 5), 0.7, 4)], 0), tracks([((1, 0, 6, 5), 0.8, 4)], 1)]
        )
        path = tmp_path / "tracks.jsonl"
        save_track_records(path, records)
        loaded = load_track_records(path)
        assert loaded.dtype == records.dtype and np.array_equal(loaded, records)

    def test_validation(self, tmp_path):
        path = tmp_path / "tracks.jsonl"
        for field, value, where in [
            ("frame_index", -1, "record"),
            ("track_id", -1, "record"),
            ("confidence", 1.5, "record"),
            ("confidence", "high", "record"),
            ("box", [0, 0, 0, 1], "box"),
            ("box", [0, 0, float("inf"), 1], "box"),
        ]:
            rows = [
                {"frame_index": k, "track_id": 0, "box": [0, 0, 1, 1], "confidence": 0.5}
                for k in range(3)
            ]
            rows[1][field] = value
            path.write_text("".join(json.dumps(r) + "\n" for r in rows))
            with pytest.raises(FrameParseError) as exc:
                load_track_records(path)
            assert (exc.value.line_number, exc.value.field) == (2, where), (field, value)

    def test_bytes_equal_json_dumps(self, tmp_path):
        edges = [-0.0, 5e-324, 1e16, 1.7976931348623157e308]
        records = np.zeros(4, dtype=TRACK_DTYPE)
        records["frame_index"] = [0, 2**63 - 1, -(2**63), 7]
        records["track_id"] = [-(2**63), 0, 2**63 - 1, 3]
        records["box"] = [edges, edges[::-1], [0.1, 0.2, 0.3, 1e-7], [1.5, -2.5, 3, 4]]
        records["confidence"] = edges
        path = tmp_path / "tracks.jsonl"
        save_track_records(path, records)
        names = ("frame_index", "track_id", "box", "confidence")
        rows = zip(*(records[name].tolist() for name in names))
        expected = "".join(json.dumps(dict(zip(names, row))) + "\n" for row in rows)
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize(
        "field, value", [("confidence", float("nan")), ("box", float("inf")), ("box", float("nan"))]
    )
    def test_non_finite_refused_before_writing(self, tmp_path, field, value):
        records = tracks([((0, 0, 5, 5), 0.7, 4), ((1, 0, 6, 5), 0.8, 5)])
        if field == "box":
            records["box"][1, 2] = value
        else:
            records["confidence"][1] = value
        path = tmp_path / "tracks.jsonl"
        with pytest.raises(ValueError, match="finite"):
            save_track_records(path, records)
        assert not path.exists()

    def test_malformed_record_names_line(self, tmp_path):
        path = tmp_path / "tracks.jsonl"
        path.write_text('{"frame_index": 0, "track_id": 1, "box": [0, 0, 5, 5]}\n')
        with pytest.raises(FrameParseError) as exc:
            load_track_records(path)
        assert exc.value.line_number == 1


# Values that are not JSON integers; None is left out because a null gt_id
# means "unlabeled".
non_integers = st.one_of(
    st.floats(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
)


def _frame_doc(index):
    return {
        "frame_index": index,
        "camera_id": 0,
        "detections": [{"box": [0, 0, 5, 5], "confidence": 0.9, "feature": [1.0], "gt_id": 1}],
        "gt_boxes": [{"box": [0, 0, 5, 5], "id": 1}],
    }


def _write_with_bad_line(path, make_doc, field, value, line):
    docs = [make_doc(k) for k in range(line)]
    target = docs[-1]
    *parents, key = field.split(".")
    for name in parents:
        target = target[name][0]
    target[key] = value
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))


class TestIntegerFields:
    @given(
        field=st.sampled_from(["frame_index", "camera_id", "detections.gt_id", "gt_boxes.id"]),
        value=non_integers,
        line=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_frames_reject_non_integers(self, tmp_path, field, value, line):
        path = tmp_path / "frames.jsonl"
        _write_with_bad_line(path, _frame_doc, field, value, line)
        with pytest.raises(FrameParseError) as exc:
            load_frames(path)
        assert (exc.value.line_number, exc.value.field) == (line, field)

    @given(
        field=st.sampled_from(["frame_index", "track_id"]),
        value=non_integers,
        line=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_tracks_reject_non_integers(self, tmp_path, field, value, line):
        def track_doc(index):
            return {"frame_index": index, "track_id": 0, "box": [0, 0, 5, 5], "confidence": 0.9}

        path = tmp_path / "tracks.jsonl"
        _write_with_bad_line(path, track_doc, field, value, line)
        with pytest.raises(FrameParseError) as exc:
            load_track_records(path)
        assert (exc.value.line_number, exc.value.field) == (line, field)

    @pytest.mark.parametrize("value", [1.5, True, 2.0])
    def test_detection_record_rejects_non_integer_identity(self, tmp_path, value):
        path = tmp_path / "frames.jsonl"
        _write_with_bad_line(path, _frame_doc, "detections.gt_id", value, 2)
        with pytest.raises(FrameParseError) as exc:
            load_frames(path)
        assert (exc.value.line_number, exc.value.field) == (2, "detections.gt_id")

    def test_integer_identity_types_accepted(self, tmp_path):
        # any JSON integer in the int64 range; one past it is refused
        assert frame(0, [_det(0.0, ident=np.int64(3))]).detections["gt_id"].tolist() == [3]
        path = tmp_path / "frames.jsonl"
        _write_with_bad_line(path, _frame_doc, "detections.gt_id", 2**63 - 1, 1)
        assert load_frames(path)[0].detections["gt_id"].tolist() == [2**63 - 1]
        _write_with_bad_line(path, _frame_doc, "gt_boxes.id", 2**63, 1)
        with pytest.raises(FrameParseError):
            load_frames(path)


class TestDuplicateTrackIds:
    def test_repeated_track_in_one_frame_rejected(self, tmp_path):
        rows = [
            {"frame_index": 0, "track_id": 7, "box": [0, 0, 5, 5], "confidence": 0.9},
            {"frame_index": 1, "track_id": 7, "box": [0, 0, 5, 5], "confidence": 0.9},
            {"frame_index": 1, "track_id": 7, "box": [50, 0, 55, 5], "confidence": 0.9},
        ]
        path = tmp_path / "tracks.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(FrameParseError) as exc:
            load_track_records(path)
        assert (exc.value.line_number, exc.value.field) == (3, "track_id")


class TestEarliestBadLine:
    """Numbers and values are checked after the whole file is read, other
    types while it is read; either way the error names the earliest bad
    line, and on one line the field checked first."""

    def _error(self, tmp_path, docs):
        path = tmp_path / "frames.jsonl"
        path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        with pytest.raises(FrameParseError) as exc:
            load_frames(path)
        return exc.value.line_number, exc.value.field

    def test_bad_value_before_malformed_line(self, tmp_path):
        docs = [_frame_doc(k) for k in range(3)]
        docs[1]["detections"][0]["confidence"] = 1.5
        docs[2]["frame_index"] = True
        assert self._error(tmp_path, docs) == (2, "detections")

    def test_malformed_line_before_bad_value(self, tmp_path):
        docs = [_frame_doc(k) for k in range(3)]
        docs[1]["camera_id"] = "0"
        docs[2]["gt_boxes"][0]["box"] = [0, 0, -5, 5]
        assert self._error(tmp_path, docs) == (2, "camera_id")

    def test_detection_values_before_gt_values_on_one_line(self, tmp_path):
        docs = [_frame_doc(k) for k in range(2)]
        docs[1]["gt_boxes"][0]["box"] = [0, 0, 0, 5]
        docs[1]["detections"][0]["feature"] = [float("inf")]
        assert self._error(tmp_path, docs) == (2, "detections")

    @pytest.mark.parametrize(
        "det, gt_box, field",
        [
            ({"box": ["0", 0, 5, 5], "confidence": "0.5"}, None, "detections.box"),
            ({"box": [0, 0, 5, True], "gt_id": 1.5}, None, "detections.box"),
            ({"confidence": True, "gt_id": 1.5}, None, "detections.gt_id"),
            ({"feature": [None, 1.0]}, [0, 0, "5", 5], "detections.feature"),
            ({"feature": ["1"]}, [0, 0, "5", 5], "detections"),
            ({"confidence": 2}, [0, 0, "5", 5], "gt_boxes.box"),
            ({}, [0, 0, False, 5], "gt_boxes.box"),
        ],
    )
    def test_number_fields_keep_their_place_on_one_line(self, tmp_path, det, gt_box, field):
        docs = [_frame_doc(k) for k in range(3)]
        docs[1]["detections"][0].update(det)
        if gt_box is not None:
            docs[1]["gt_boxes"][0]["box"] = gt_box
        docs[1]["gt_boxes"].append(dict(docs[1]["gt_boxes"][0]))  # a repeated identity
        docs[2]["camera_id"] = "0"
        assert self._error(tmp_path, docs) == (2, field)

    @pytest.mark.parametrize(
        "edits, field",
        [
            ({"box": ["0", 0, 5, 5], "track_id": 1.5}, "box"),
            ({"confidence": "0.5", "track_id": 1.5}, "track_id"),
            ({"confidence": "0.5", "box": [0, 0, 5, False]}, "box"),
            ({"confidence": True}, "record"),
        ],
    )
    def test_track_fields_keep_their_place_on_one_line(self, tmp_path, edits, field):
        rows = [{"frame_index": k, "track_id": 0, "box": [0, 0, 5, 5], "confidence": 0.5}
                for k in range(3)]
        rows[1].update(edits)
        rows[2]["frame_index"] = -1
        path = tmp_path / "tracks.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(FrameParseError) as exc:
            load_track_records(path)
        assert (exc.value.line_number, exc.value.field) == (2, field)

    def test_frames_hold_read_only_slices(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        path.write_text("".join(json.dumps(_frame_doc(k)) + "\n" for k in range(2)))
        frames = load_frames(path)
        assert frames[0].detections.base is frames[1].detections.base
        for f in frames:
            assert not f.detections.flags.writeable and not f.gt_boxes.flags.writeable


bad_numbers = st.sampled_from(
    ["0.5", "x", "", True, False, None, 10**400, 2**64, float("nan"), float("inf"), -1.5, 1.5,
     [1.0], {"v": 1}]
)
bad_integers = st.sampled_from([1.5, "1", True, None, -1, 2**63, [1]])


def _number(rng, low=-20.0, high=200.0):
    """A JSON integer or float, often 0 or 1 (the values a bool reads as)."""
    kind = rng.integers(4)
    if kind == 0:
        return int(rng.integers(low, high))
    if kind == 1:
        return float(rng.uniform(low, high))
    return [0, 1, 0.0, 1.0][rng.integers(4)]


def _box_values(rng):
    x, y = _number(rng), _number(rng)
    return [x, y, x + int(rng.integers(1, 50)), y + float(rng.uniform(0.5, 50))]


@st.composite
def _frame_docs(draw):
    """Valid frame docs: Hypothesis draws the layout, a seeded generator the
    numbers."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    dim = draw(st.integers(1, 2))
    docs, index = [], 0
    for _ in range(draw(st.integers(1, 4))):
        index += draw(st.integers(1, 2))
        dets = []
        for _ in range(draw(st.integers(0, 2))):
            det = {"box": _box_values(rng), "confidence": _number(rng, 0.0, 1.0),
                   "feature": [_number(rng) for _ in range(dim)]}
            if draw(st.booleans()):
                det["gt_id"] = int(rng.integers(10))
            dets.append(det)
        ids = rng.permutation(10)[: draw(st.integers(0, 2))].tolist()
        docs.append({"frame_index": index, "camera_id": draw(st.integers(0, 1)),
                     "detections": dets,
                     "gt_boxes": [{"box": _box_values(rng), "id": i} for i in ids]})
    return docs


@st.composite
def _track_docs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    docs, keys = [], set()
    for _ in range(draw(st.integers(1, 6))):
        key = (int(rng.integers(4)), int(rng.integers(4)))
        if key not in keys:
            keys.add(key)
            docs.append({"frame_index": key[0], "track_id": key[1], "box": _box_values(rng),
                         "confidence": _number(rng, 0.0, 1.0)})
    return docs


def _corrupt(draw, docs):
    """Apply one corruption to a random line of `docs` (dicts, edited in
    place): a bad number, a bad shape, x1 >= x2, a bad or repeated id, a
    decreasing frame_index or a missing key."""
    doc = docs[draw(st.integers(0, len(docs) - 1))]
    dets = [d for d in doc.get("detections", []) if isinstance(d, dict)]
    gts = [g for g in doc.get("gt_boxes", []) if isinstance(g, dict)]
    rows = dets + gts if "detections" in doc else [doc]
    lists = [row[key] for row in rows for key in ("box", "feature")
             if isinstance(row.get(key), list) and row[key]]
    kind = draw(st.sampled_from(["number", "shape", "order", "integer", "repeat", "missing"]))
    if kind == "number":
        slots = [(values, i) for values in lists for i in range(len(values))]
        slots += [(row, "confidence") for row in rows if "confidence" in row]
        if slots:
            target, key = draw(st.sampled_from(slots))
            target[key] = draw(bad_numbers)
    elif kind == "shape" and lists:
        values = draw(st.sampled_from(lists))
        change = draw(st.sampled_from(["pop", "append", "nest"]))
        if change == "pop":
            values.pop()
        elif change == "append":
            values.append(1.0)
        else:
            values[0] = [values[0]]
    elif kind == "order":
        boxes = [row["box"] for row in rows
                 if isinstance(row.get("box"), list) and len(row["box"]) == 4]
        if boxes:
            box = draw(st.sampled_from(boxes))
            box[2] = box[0]
    elif kind == "integer":
        slots = [(row, key) for row in [doc] + rows
                 for key in ("frame_index", "camera_id", "gt_id", "id", "track_id") if key in row]
        if slots:
            target, key = draw(st.sampled_from(slots))
            target[key] = draw(bad_integers)
    elif kind == "repeat":
        index = docs.index(doc)
        if "track_id" in doc and index > 0:  # a track id twice in one frame
            before = docs[index - 1]
            doc["frame_index"], doc["track_id"] = before["frame_index"], before["track_id"]
        elif len(gts) >= 2:
            gts[1]["id"] = gts[0]["id"]
        elif index > 0:  # frame_index does not increase
            doc["frame_index"] = docs[index - 1]["frame_index"]
    elif kind == "missing":
        target = draw(st.sampled_from([doc] + rows))
        if target:
            del target[draw(st.sampled_from(sorted(target)))]


# Whole lines to insert: blank, not JSON, not an object, trailing data after
# a document, and objects with NaN and Infinity in number fields.
_EXTRA_LINES = [
    "", "  ", "\f", "{not json", "[1, 2]", "7", "{} {}", '{"a": 1} x', "{}x", "{}",
    '{"frame_index": 0, "track_id": 7, "box": [0, 0, NaN, 1], "confidence": Infinity}',
    '{"frame_index": 90, "camera_id": 0, "detections": [], '
    '"gt_boxes": [{"box": [0, 0, -Infinity, 1], "id": 0}]}',
]
# (before, after) a document's line: JSON whitespace, which both readers
# take, then characters that only Python counts as whitespace, trailing
# data, and a UTF-8 BOM, which both refuse.
_PADS = [
    (" ", ""), ("\t", " \t"), ("", "  "), ("\f", ""), ("\v", ""),
    ("\u00a0", ""), ("", "\u00a0"), ("", "\f"), ("", " {}"), ("", " x"), ("\ufeff", ""),
]


@st.composite
def _corrupted_lines(draw, docs_strategy):
    """JSON lines of valid docs after 0-3 corruptions: edits of the docs,
    then inserted lines from `_EXTRA_LINES` or a document's line padded from
    `_PADS` (a BOM goes before line 1)."""
    docs = draw(docs_strategy)
    count = draw(st.integers(0, 3))
    kinds = sorted(draw(st.sampled_from(["doc"] * 4 + ["line", "pad"])) for _ in range(count))
    lines = []
    for kind in kinds:
        if kind == "doc" and docs:
            _corrupt(draw, docs)
            continue
        lines = lines or [json.dumps(doc) for doc in docs]
        if kind == "line":
            at = draw(st.integers(0, len(lines)))
            lines.insert(at, draw(st.sampled_from(_EXTRA_LINES)))
        elif lines:
            before, after = draw(st.sampled_from(_PADS))
            at = 0 if before == "\ufeff" else draw(st.integers(0, len(lines) - 1))
            lines[at] = before + lines[at] + after
    lines = lines or [json.dumps(doc) for doc in docs]
    return "".join(line + "\n" for line in lines)


def _outcome(load, path):
    try:
        return load(path)
    except FrameParseError as exc:
        return (exc.line_number, exc.field, str(exc))


class TestLineParserOracle:
    """The readers build each number column once per file; the per-line
    parsers of tests/oracles.py are the reference for every result and
    every error."""

    @given(text=_corrupted_lines(_frame_docs()))
    @settings(max_examples=150, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_load_frames_equals_line_parser(self, tmp_path, text):
        path = tmp_path / "frames.jsonl"
        path.write_text(text, encoding="utf-8")
        got, want = _outcome(load_frames, path), _outcome(line_load_frames, path)
        if isinstance(want, tuple):
            assert got == want
            return
        assert_same_frames(got, table(want))

    @given(text=_corrupted_lines(_track_docs()))
    @settings(max_examples=100, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_load_track_records_equals_line_parser(self, tmp_path, text):
        path = tmp_path / "tracks.jsonl"
        path.write_text(text, encoding="utf-8")
        got = _outcome(load_track_records, path)
        want = _outcome(line_load_track_records, path)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_well_formed_lines_never_reach_json_loads(self, tmp_path, monkeypatch):
        """Every line json.loads takes, padded with JSON whitespace or not,
        is read by the one raw_decode; json.loads only names a bad line."""
        frames = simulate(SimConfig(identity_count=3, frame_count=5, feature_dim=4, seed=2))
        records = tracks([((0, 0, 5, 5), 0.7, 4), ((1, 0, 6, 5), 0.8, 5)])
        frames_path, tracks_path = tmp_path / "frames.jsonl", tmp_path / "tracks.jsonl"
        save_frames(frames_path, frames)
        save_track_records(tracks_path, records)
        for path in (frames_path, tracks_path):
            lines = path.read_text().splitlines()
            lines[0] = " \t" + lines[0] + "\t "
            path.write_text("\n".join(["", *lines, " \f "]), encoding="utf-8")

        def refuse(*args, **kwargs):
            raise AssertionError("json.loads called on a well-formed line")

        monkeypatch.setattr(embedtrack.datasets.json, "loads", refuse)
        assert_same_frames(load_frames(frames_path), frames)
        assert load_track_records(tracks_path).tobytes() == records.tobytes()


class TestLineParserOracleAcrossChunks(TestLineParserOracle):
    """The same comparisons with chunks of a few numbers, so that the
    readers build most files in several chunks and an error can fall in any
    of them."""

    @pytest.fixture(autouse=True, params=[1, 5, 13])
    def small_chunks(self, request, monkeypatch):
        monkeypatch.setattr(embedtrack.datasets, "_NUMBER_CHUNK", request.param)
