"""Golden outputs: fixed runs through `cli.main` must keep producing
byte-identical files.

The digests were recorded on x86-64 with Python 3.11.7 and NumPy 2.4.6
(OpenBLAS); other BLAS builds may round differently. A refactor that changes
any of these bytes changes a result; when a change is meant to, record the
new digests together with the reason.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from embedtrack.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Every head/params.json digest below was re-recorded when `loss_config`
# lost the detector weights `w_cls` and `w_reg`; nothing else in it changed.
# Both calib/sweep.csv digests were re-recorded when sweep.csv came to hold
# only the descent rows (each objective strictly below all earlier ones);
# calib/sweep.npy, added then, holds every candidate.
GOLDEN = {
    "head/params.json": "c8a8d87f9d700bedcb0272e3175c2521288a1d4da4fd4e484b2d0b3ad9fe726c",
    "head/loss_trace.csv": "c7ce20e086cc693476804286a8bf9f4cfbc2d1376a763abd65c3d36026d427e4",
    "calib/threshold.json": "88351275fccf9170ac94b40abfd9eee89f5815d2073bec0eb6eda0edca402a42",
    "calib/sweep.csv": "d4683f7a115774d21c0db5b9c1b36efbab2c8d5d9509a5d1a8b3bae1ba635363",
    "calib/sweep.npy": "9731221b2ba1c5e1f39466c16f4699ed5687cd4d7fe24addd0c58e465642e7d3",
    "calib/histogram.csv": "e307d0e18bc8f45d6ce2a0842ce2ef23a883a2d3fe896716e7176f6b6acf18ad",
    "tracks/tracks.jsonl": "9f9569234a50838c6c471854f4e21ed156352bb0121d1b7b4eef1b7dff1db717",
    "report/report.json": "7c175c33d2ade3746bf7c1aa3035c0ebbdc3b05849a76b97e7a708a8e1963dd8",
}

# Many identities per batch (about 30 rows, 15 identities): every step has
# many valid anchors and many pull terms at once.
GOLDEN_CROWDED_HEAD = {
    "head/params.json": "6dbf3972dbdc323d1f6031a7bf829d95dc51322868679a4dabcc365696f941b5",
    "head/loss_trace.csv": "0b6ee0834c249ee8450244b349cf3e095cecbb6e97c8219af9f0d4b99d569c79",
}

SIM = ["--identity-count", "5", "--archetype-separation", "8.0", "--noise-sigma", "0.25"]


def _run(*argv):
    assert main([str(a) for a in argv]) == 0


def _digests(root, names):
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in names}


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    """The README walkthrough at test size: the directory of its outputs."""
    tmp_path = tmp_path_factory.mktemp("walkthrough")
    _run("simulate", "--out", tmp_path / "train_data", "--frame-count", 50,
         "--dropout", 0.05, "--seed", 11, *SIM)
    _run("simulate", "--out", tmp_path / "holdout", "--frame-count", 20, "--seed", 77, *SIM)
    _run("train", "--frames", tmp_path / "train_data/frames.jsonl", "--out", tmp_path / "head",
         "--epochs", 4, "--hidden-dim", 16, "--embed-dim", 8)
    params = tmp_path / "head/params.json"
    _run("calibrate", "--frames", tmp_path / "train_data/frames.jsonl", "--params", params,
         "--out", tmp_path / "calib")
    threshold = json.loads((tmp_path / "calib/threshold.json").read_text())["threshold"]
    _run("track", "--frames", tmp_path / "holdout/frames.jsonl", "--params", params,
         "--threshold", repr(threshold), "--out", tmp_path / "tracks")
    _run("eval", "--tracks", tmp_path / "tracks/tracks.jsonl",
         "--frames", tmp_path / "holdout/frames.jsonl", "--out", tmp_path / "report")
    return tmp_path


def test_walkthrough_outputs_are_unchanged(walkthrough):
    assert _digests(walkthrough, GOLDEN) == GOLDEN


def test_crowded_head_is_unchanged(tmp_path):
    _run("simulate", "--out", tmp_path / "data", "--identity-count", 15, "--feature-dim", 16,
         "--frame-count", 12, "--dropout", 0.1, "--noise-sigma", 1.0, "--seed", 5)
    _run("train", "--frames", tmp_path / "data/frames.jsonl", "--out", tmp_path / "head",
         "--epochs", 3, "--hidden-dim", 24, "--embed-dim", 12, "--initial-lr", 0.01)
    assert _digests(tmp_path, GOLDEN_CROWDED_HEAD) == GOLDEN_CROWDED_HEAD


# No gt_id anywhere: train labels every detection by IoU assignment.
GOLDEN_UNLABELED_HEAD = {
    "head/params.json": "9410372d2b057890c262572a9826c35d6d6639b5e179b2a9e0839c84ee8bfac2",
    "head/loss_trace.csv": "bb4e70a423582a237bab907a5871d3d2254aa6b10fe03d7c1c17cecadc6f498e",
}

# Two single-camera simulations in one file: train --mtmc adds cross-camera
# pairs of each identity's earliest frame in cameras 0 and 1. All five
# identities first appear in frame 0 of each camera, which gives one
# distinct pair, (0, 10), and so one cross-camera batch (batch_count 19).
# Recorded when repeated pairs stopped giving repeated batches.
GOLDEN_MTMC_HEAD = {
    "head/params.json": "b6bdcc475e8192a882cabb9d7f0b6aa4f1ca1fb51579c08bb713f8a525e2cc4f",
    "head/loss_trace.csv": "769db789f053649de4352bc6907c0ab82f5ccb1a3b182cd208f487e70237073c",
}


def test_unlabeled_head_is_unchanged(tmp_path):
    _run("simulate", "--out", tmp_path / "data", "--identity-count", 6, "--frame-count", 15,
         "--dropout", 0.1, "--seed", 3, "--archetype-separation", 8.0, "--noise-sigma", 0.25)
    path = tmp_path / "data/frames.jsonl"
    docs = [json.loads(line) for line in path.read_text().splitlines()]
    for doc in docs:
        for det in doc["detections"]:
            del det["gt_id"]
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    _run("train", "--frames", path, "--out", tmp_path / "head",
         "--epochs", 3, "--hidden-dim", 16, "--embed-dim", 8)
    assert _digests(tmp_path, GOLDEN_UNLABELED_HEAD) == GOLDEN_UNLABELED_HEAD


# Calibrate on more than one camera: on both.jsonl with the head above
# (calib), and train --mtmc then calibrate on a copy whose lines alternate
# between the cameras (interleaved/). Pairs stay within a camera, so the
# interleaved copy learns from and calibrates on the same frame pairs, and
# its digests equal the plain copy's. Recorded while the library still held
# frames as one record per frame.
GOLDEN_MTMC_CALIBRATE = {
    "calib/threshold.json": "0aab46c2205d24fa60a672fe68e04bdf1823887516c669006d59123c7a7c5a94",
    "calib/sweep.csv": "b8c67f590d7051538a80564305a2c0da0a827b6e22ffa6a20e5416efc3abce9f",
    "calib/sweep.npy": "b3316a45c4f6b6921da4c63e7e80ca55d26b932f19f50060146e862c2984f334",
    "calib/histogram.csv": "527e88d5373408582d222f4f42879dc3df3b26e12beac04e6c4f74cdfc7c5c4b",
    "interleaved/head/params.json": "b6bdcc475e8192a882cabb9d7f0b6aa4f1ca1fb51579c08bb713f8a525e2cc4f",
    "interleaved/head/loss_trace.csv": "769db789f053649de4352bc6907c0ab82f5ccb1a3b182cd208f487e70237073c",
    "interleaved/calib/threshold.json": "0aab46c2205d24fa60a672fe68e04bdf1823887516c669006d59123c7a7c5a94",
    "interleaved/calib/sweep.csv": "b8c67f590d7051538a80564305a2c0da0a827b6e22ffa6a20e5416efc3abce9f",
    "interleaved/calib/sweep.npy": "b3316a45c4f6b6921da4c63e7e80ca55d26b932f19f50060146e862c2984f334",
    "interleaved/calib/histogram.csv": "527e88d5373408582d222f4f42879dc3df3b26e12beac04e6c4f74cdfc7c5c4b",
}


@pytest.fixture(scope="module")
def mtmc(tmp_path_factory):
    """Two cameras in one file, trained with --mtmc and calibrated, as
    written and with the cameras' lines interleaved: the directory of the
    outputs."""
    tmp_path = tmp_path_factory.mktemp("mtmc")
    for camera, seed in ((0, 21), (1, 22)):
        _run("simulate", "--out", tmp_path / f"cam{camera}", "--frame-count", 10,
             "--camera-id", camera, "--dropout", 0.1, "--seed", seed, *SIM)
    cameras = [(tmp_path / f"cam{c}/frames.jsonl").read_text().splitlines(True) for c in (0, 1)]
    (tmp_path / "interleaved").mkdir()
    for root, lines in (
        (tmp_path, cameras[0] + cameras[1]),
        (tmp_path / "interleaved", [line for pair in zip(*cameras) for line in pair]),
    ):
        (root / "both.jsonl").write_text("".join(lines))
        _run("train", "--frames", root / "both.jsonl", "--out", root / "head", "--mtmc",
             "--epochs", 3, "--hidden-dim", 16, "--embed-dim", 8)
        _run("calibrate", "--frames", root / "both.jsonl", "--params", root / "head/params.json",
             "--out", root / "calib")
    return tmp_path


def test_mtmc_head_is_unchanged(mtmc):
    assert _digests(mtmc, GOLDEN_MTMC_HEAD) == GOLDEN_MTMC_HEAD


def test_mtmc_calibrate_is_unchanged(mtmc):
    assert _digests(mtmc, GOLDEN_MTMC_CALIBRATE) == GOLDEN_MTMC_CALIBRATE


# One simulated file edited so that every stage meets the edges where the
# stages must agree: an index gap (frame 4 dropped), an empty frame (6), a
# frame whose detections all fall below the score threshold (7), a frame
# that mixes labeled and unlabeled detections (8), boxes at negative x
# (9 and 10), and identical detection and gt boxes (11).
GOLDEN_EDGE_CASES = {
    "head/params.json": "6f649657c9f581bf9bcbed1023c91f78be476c94a91664e9e84c00c5e12c3437",
    "head/loss_trace.csv": "344c3a2e91c5717c3e7fc84d6c664487baa8ab3605ac93b73452cf758d5adedc",
    "calib/threshold.json": "cf9920952aec7f9951c06a13448ad68933569f56bc3e8b71f6c3a468f3ae9a6c",
    "calib/sweep.csv": "21756db3856a60c87022c8dad2b70f42aecec2417c77901e30ac023296e5155d",
    "calib/sweep.npy": "0158dc5d2ad61cdcdd63aa25b8fb3b70b2d9058a4895a16d178febc64f7dff0d",
    "calib/histogram.csv": "49f43f53256b843177063807129ca5641d351395b5912b8710c884258ab7e27f",
    "tracks/tracks.jsonl": "17eb7471870e0de1be2d95059bf2342df59f52433047e44268f7891b07e99509",
    "report/report.json": "28388984a720e7c70a4582659d033d30e4f51fd465be81a9abb92aded5c77fc4",
}


def _edge_case_frames(path):
    docs = {doc["frame_index"]: doc for doc in map(json.loads, path.read_text().splitlines())}
    del docs[4]
    docs[6]["detections"] = []
    for det in docs[7]["detections"]:
        det["confidence"] = 0.3
    for det in docs[8]["detections"][::2]:
        del det["gt_id"]
    for t in (9, 10):
        for rec in docs[t]["detections"] + docs[t]["gt_boxes"]:
            rec["box"][0] -= 2000.0
            rec["box"][2] -= 2000.0
    for key in ("detections", "gt_boxes"):
        docs[11][key][1]["box"] = list(docs[11][key][0]["box"])
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs.values()))


@pytest.fixture(scope="module")
def edge_cases(tmp_path_factory):
    """Every stage over the edited file: the directory of its outputs."""
    tmp_path = tmp_path_factory.mktemp("edge_cases")
    _run("simulate", "--out", tmp_path / "data", "--frame-count", 12, "--dropout", 0.1,
         "--seed", 11, *SIM)
    frames = tmp_path / "data/frames.jsonl"
    _edge_case_frames(frames)
    _run("train", "--frames", frames, "--out", tmp_path / "head",
         "--epochs", 4, "--hidden-dim", 16, "--embed-dim", 8)
    params = tmp_path / "head/params.json"
    _run("calibrate", "--frames", frames, "--params", params, "--out", tmp_path / "calib")
    threshold = json.loads((tmp_path / "calib/threshold.json").read_text())["threshold"]
    _run("track", "--frames", frames, "--params", params, "--threshold", repr(threshold),
         "--out", tmp_path / "tracks")
    _run("eval", "--tracks", tmp_path / "tracks/tracks.jsonl", "--frames", frames,
         "--out", tmp_path / "report")
    return tmp_path


def test_edge_cases_are_unchanged(edge_cases):
    assert _digests(edge_cases, GOLDEN_EDGE_CASES) == GOLDEN_EDGE_CASES


def _benchmark_worker(monkeypatch):
    """perfbench/worker.py as a module; it imports `workloads` by its plain
    name, so perfbench/ goes first on sys.path."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("run", ["walkthrough", "edge_cases"])
def test_benchmark_finds_the_threshold_in_sweep_csv(run, request, monkeypatch):
    """The benchmark checks each calibrate pass by reading the first row of
    least objective from sweep.csv; it must be threshold.json's."""
    calib = request.getfixturevalue(run) / "calib"
    worker = _benchmark_worker(monkeypatch)
    doc = json.loads((calib / "threshold.json").read_text())
    assert worker.first_min_objective_row(calib / "sweep.csv") == (
        doc["threshold"], doc["objective"]
    )
