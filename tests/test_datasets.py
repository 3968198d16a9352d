import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from embedtrack import (
    TRACK_DTYPE,
    FrameParseError,
    FrameRecord,
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
    tracks_by_frame,
    training_batches,
)
from oracles import line_load_frames, line_load_track_records
from records import detections, frame, gt_boxes, tracks


def _det(x1, ident=None, conf=0.9, feature=(1.0, 2.0)):
    return ((x1, 0.0, x1 + 10.0, 10.0), conf, feature, ident)


def _frame(index, idents, camera=0, x_step=50.0):
    dets = [_det(x_step * k, ident=i) for k, i in enumerate(idents)]
    return frame(index, dets, [(d[0], i) for d, i in zip(dets, idents)], camera, feature_dim=2)


def _unlabeled(f):
    dets = f.detections.copy()
    dets["gt_id"] = -1
    return FrameRecord(f.frame_index, f.camera_id, dets, f.gt_boxes)


class TestTrainingBatches:
    def test_stacks_first_frame_above_second(self):
        a = frame(0, [_det(0.0, ident=1, feature=(1.0, 0.0)), _det(50.0, ident=2)])
        b = _frame(1, [3, 4])
        (ab, ba) = training_batches([a, b], [(0, 1), (1, 0)])
        assert ab.identities.tolist() == [1, 2, 3, 4]
        assert ab.features.tolist() == [[1.0, 0.0], [1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]
        assert ba.identities.tolist() == [3, 4, 1, 2]

    def test_positive_pair_only_when_identity_shared(self):
        (shared,) = training_batches([_frame(0, [1]), _frame(1, [1])], [(0, 1)])
        (apart,) = training_batches([_frame(0, [1]), _frame(1, [2])], [(0, 1)])
        assert shared.identities.tolist() == [1, 1]
        assert apart.identities.tolist() == [1, 2]

    def test_overlapping_boxes_label_as_in_their_own_frame(self):
        frames = [_unlabeled(_frame(t, [1, 2], x_step=6.0)) for t in range(2)]  # iou 0.25
        (batch,) = training_batches(frames, [(0, 1)])
        rows = [labeled_rows(f.detections, f.gt_boxes) for f in frames]
        assert np.array_equal(batch.features, np.vstack([r[0] for r in rows]))
        assert batch.identities.tolist() == [1, 2, 1, 2]

    def test_passthrough_when_all_labeled(self):
        (batch,) = training_batches([_frame(0, [1, 2]), _frame(1, [1, 2])], [(0, 1)])
        assert batch.identities.tolist() == [1, 2, 1, 2]

    def test_assignment_path_for_unlabeled_detections(self):
        frames = [_unlabeled(_frame(0, [1, 2])), _frame(1, [1, 2])]
        (batch,) = training_batches(frames, [(0, 1)])
        assert batch.identities.tolist() == [1, 2, 1, 2]

    def test_skips_pairs_below_two_rows(self):
        frames = [_frame(0, [1]), _frame(1, []), _frame(2, [1]), _frame(3, [1, 2])]
        assert training_batches(frames, [(0, 1)], score_threshold=0.95) == []
        assert len(training_batches(frames, [(0, 1), (1, 2), (0, 2)])) == 1
        # a frame without detections adds no rows, whatever its partner
        (batch,) = training_batches(frames, [(1, 3)])
        assert batch.features.shape == (2, 2) and batch.identities.tolist() == [1, 2]

    def test_each_frame_labeled_by_itself(self):
        # frame 0 is fully labeled but its first label disagrees with the
        # ground-truth box it sits on; frame 1 carries no labels. Labels of
        # frame 0 pass through, as in calibration, while frame 1 is labeled
        # by IoU assignment.
        a = _frame(0, [0, 1, 2])
        dets = a.detections.copy()
        dets["gt_id"][0] = 9
        a = FrameRecord(0, 0, dets, a.gt_boxes)
        b = _unlabeled(_frame(1, [0, 1, 2]))
        (batch,) = training_batches([a, b], neighbor_frames([a, b]))
        assert batch.identities.tolist() == [9, 1, 2, 0, 1, 2]
        assert labeled_rows(a.detections, a.gt_boxes)[1].tolist() == [9, 1, 2]


class TestMtmcPairs:
    def test_identity_in_two_cameras_yields_one_sample(self):
        frames = [_frame(0, [7], camera=1), _frame(0, [7], camera=2)]
        assert cross_camera_frames(frames) == [(0, 1)]
        (batch,) = training_batches(frames, cross_camera_frames(frames))
        assert batch.identities.tolist() == [7, 7]

    def test_single_camera_identity_contributes_nothing(self):
        frames = [_frame(0, [7], camera=1), _frame(1, [7], camera=1)]
        assert cross_camera_frames(frames) == []

    def test_sample_count_matches_pair_enumeration(self):
        # identity 1 in 3 cameras (3 pairs), identity 2 in 2 cameras (1 pair,
        # already given by identity 1): each distinct frame pair once
        frames = [
            _frame(0, [1, 2], camera=0),
            _frame(0, [1, 2], camera=1),
            _frame(0, [1], camera=2),
        ]
        assert cross_camera_frames(frames) == [(0, 1), (0, 2), (1, 2)]

    def test_repeated_pair_keeps_first_occurrence_order(self):
        # identity 1 gives (1, 2); identity 2 gives (0, 1), (0, 2) and (1, 2) again
        frames = [
            _frame(0, [2], camera=0),
            _frame(0, [1, 2], camera=1),
            _frame(0, [1, 2], camera=2),
        ]
        assert cross_camera_frames(frames) == [(1, 2), (0, 1), (0, 2)]
        assert len(training_batches(frames, cross_camera_frames(frames))) == 3

    def test_uses_earliest_frame_per_camera(self):
        frames = [_frame(9, [7], camera=1), _frame(3, [7], camera=1), _frame(0, [7], camera=2)]
        assert cross_camera_frames(frames) == [(1, 2)]


class TestLabeledRows:
    def test_confidence_filter_and_passthrough(self):
        dets = detections(
            [_det(0.0, ident=3, conf=0.9, feature=(1.0, 0.0)), _det(50.0, ident=4, conf=0.2)]
        )
        features, ids = labeled_rows(dets, gt_boxes([]))
        assert ids.dtype == np.int64 and ids.tolist() == [3]
        assert features.tolist() == [[1.0, 0.0]]

    def test_assignment_drops_unmatched(self):
        dets = detections([_det(0.0), _det(500.0)])
        features, ids = labeled_rows(dets, gt_boxes([(dets["box"][0], 8)]))
        assert ids.tolist() == [8]
        assert features.shape == (1, 2)

    def test_nothing_kept_gives_empty_rows(self):
        features, ids = labeled_rows(detections([_det(0.0, ident=1, conf=0.1)]), gt_boxes([]))
        assert features.shape == (0, 2) and ids.shape == (0,)


class TestNeighborFrames:
    def test_pairs_only_direct_successors_per_camera(self):
        frames = [
            _frame(0, [1]),
            _frame(0, [1], camera=1),
            _frame(1, [1]),
            _frame(3, [1]),
            _frame(1, [1], camera=1),
        ]
        assert neighbor_frames(frames) == [(0, 2), (1, 4)]

    def test_no_pair_across_index_gap(self):
        frames = [_frame(0, [1]), _frame(2, [1])]
        assert neighbor_frames(frames) == []
        assert training_batches(frames, neighbor_frames(frames)) == []

    def test_no_pair_across_cameras(self):
        frames = [_frame(0, [1]), _frame(1, [1], camera=1)]
        assert neighbor_frames(frames) == []
        assert training_batches(frames, neighbor_frames(frames)) == []

    def test_distances_skip_index_gap(self):
        frames = [_frame(0, [1, 2]), _frame(1, [1, 2]), _frame(3, [1, 2])]
        params = init_params(2, 4, 3, np.random.default_rng(0))
        distances, is_same = neighbor_pair_distances(frames, params)
        emb = [embed_batch(params, f.detections["feature"]) for f in frames]
        assert np.array_equal(distances, distance_matrix(emb[0], emb[1]).ravel())
        assert is_same.tolist() == [True, False, False, True]

    def test_no_pairs_gives_empty_arrays(self):
        params = init_params(2, 4, 3, np.random.default_rng(0))
        distances, is_same = neighbor_pair_distances([_frame(0, [1]), _frame(2, [1])], params)
        assert distances.shape == (0,) and is_same.dtype == bool


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
        assert simulate(cfg) == simulate(cfg)

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
            for fs in frames[t + 1 :]:
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
        ],
    )
    def test_config_validation(self, kw):
        with pytest.raises(ValueError):
            SimConfig(**kw)


class TestFrameIo:
    def test_round_trip(self, tmp_path):
        cfg = SimConfig(identity_count=3, frame_count=5, feature_dim=4, dropout=0.2, seed=4)
        frames = simulate(cfg)
        path = tmp_path / "frames.jsonl"
        save_frames(path, frames)
        assert load_frames(path) == frames

    def test_round_trip_without_identities(self, tmp_path):
        unlabeled = frame(0, [((0, 0, 5, 5), 0.75, [0.25, -1.5])], camera=2)
        path = tmp_path / "frames.jsonl"
        save_frames(path, [unlabeled])
        assert "gt_id" not in path.read_text()
        loaded = load_frames(path)
        assert loaded == [unlabeled]
        assert loaded[0].detections["gt_id"].tolist() == [-1]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        path.write_text("")
        assert load_frames(path) == []

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
        frames = [
            _frame(0, [1], camera=0),
            frame(1, [_det(0.0, feature=(1.0, 2.0, 3.0))]),
        ]
        path = tmp_path / "frames.jsonl"
        save_frames(path, frames)
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
        save_frames(path, [_frame(3, [1])])
        line = path.read_text()
        path.write_text(line + line)  # same frame_index twice
        with pytest.raises(FrameParseError) as exc:
            load_frames(path)
        assert exc.value.field == "frame_index"

    def test_interleaved_cameras_allowed(self, tmp_path):
        frames = [
            _frame(0, [1], camera=0),
            _frame(0, [1], camera=1),
            _frame(1, [1], camera=0),
        ]
        path = tmp_path / "frames.jsonl"
        save_frames(path, frames)
        assert load_frames(path) == frames

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
        save_frames(path, [_frame(0, [3, 4]), _frame(1, [3, 4])])
        doc = json.loads(path.read_text().splitlines()[1])
        doc["gt_boxes"][1]["id"] = 3
        path.write_text(path.read_text().splitlines()[0] + "\n" + json.dumps(doc) + "\n")
        with pytest.raises(FrameParseError) as exc:
            load_frames(path)
        assert (exc.value.line_number, exc.value.field) == (2, "gt_boxes.id")


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


class TestTracksArray:
    def test_tracks_by_frame_aligns_rows_with_frames(self):
        frames = [_frame(0, [1]), _frame(1, [1]), _frame(3, [1])]
        rows = np.concatenate(
            [tracks([((0, 0, 1, 1), 0.9, 4)], 3), tracks([((0, 0, 1, 1), 0.9, 1)], 0),
             tracks([((0, 0, 1, 1), 0.9, 2)], 3)]
        )
        per_frame = tracks_by_frame(rows, frames)
        assert [f["track_id"].tolist() for f in per_frame] == [[1], [], [4, 2]]
        assert tracks_by_frame(rows[:0], []) == []

    def test_tracks_by_frame_rejects_unknown_frames(self):
        rows = np.concatenate([tracks([((0, 0, 1, 1), 0.9, 4)], k) for k in (2, 0, 9)])
        with pytest.raises(ValueError, match=r"unknown frames \[2, 9\]"):
            tracks_by_frame(rows, [_frame(0, [1]), _frame(1, [1])])
        with pytest.raises(ValueError, match="increase"):
            tracks_by_frame(rows[:0], [_frame(1, [1]), _frame(0, [1])])


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


@st.composite
def _corrupted_lines(draw, docs_strategy):
    """JSON lines of valid docs after 0-3 corruptions: edits of the docs,
    then invalid JSON or blank lines."""
    docs = draw(docs_strategy)
    count = draw(st.integers(0, 3))
    kinds = sorted(draw(st.sampled_from(["doc"] * 4 + ["line"])) for _ in range(count))
    lines = []
    for kind in kinds:
        if kind == "doc" and docs:
            _corrupt(draw, docs)
        elif kind == "line":
            lines = lines or [json.dumps(doc) for doc in docs]
            at = draw(st.integers(0, len(lines)))
            lines.insert(at, draw(st.sampled_from(["", "  ", "{not json", "[1, 2]", "7"])))
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
        path.write_text(text)
        got, want = _outcome(load_frames, path), _outcome(line_load_frames, path)
        if isinstance(want, tuple):
            assert got == want
            return
        assert [(f.frame_index, f.camera_id) for f in got] == [
            (f.frame_index, f.camera_id) for f in want]
        for g, w in zip(got, want):
            assert g.detections.dtype == w.detections.dtype
            assert g.detections.tobytes() == w.detections.tobytes()
            assert g.gt_boxes.tobytes() == w.gt_boxes.tobytes()

    @given(text=_corrupted_lines(_track_docs()))
    @settings(max_examples=100, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_load_track_records_equals_line_parser(self, tmp_path, text):
        path = tmp_path / "tracks.jsonl"
        path.write_text(text)
        got = _outcome(load_track_records, path)
        want = _outcome(line_load_track_records, path)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
