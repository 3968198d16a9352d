"""Golden outputs: fixed runs through `cli.main` must keep producing
byte-identical files.

The digests were recorded on x86-64 with Python 3.11.7 and NumPy 2.4.6
(OpenBLAS); other BLAS builds may round differently. A refactor that changes
any of these bytes changes a result; when a change is meant to, record the
new digests together with the reason.
"""

import hashlib
import json

from embedtrack.cli import main

# Every head/params.json digest below was re-recorded when `loss_config`
# lost the detector weights `w_cls` and `w_reg`; nothing else in it changed.
GOLDEN = {
    "head/params.json": "c8a8d87f9d700bedcb0272e3175c2521288a1d4da4fd4e484b2d0b3ad9fe726c",
    "head/loss_trace.csv": "c7ce20e086cc693476804286a8bf9f4cfbc2d1376a763abd65c3d36026d427e4",
    "calib/threshold.json": "88351275fccf9170ac94b40abfd9eee89f5815d2073bec0eb6eda0edca402a42",
    "calib/sweep.csv": "4bbb47f59ff74e14ac1995e7ed2f3da779687ede4dd8feee80bd228f8dfd4200",
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


def test_walkthrough_outputs_are_unchanged(tmp_path):
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
    assert _digests(tmp_path, GOLDEN) == GOLDEN


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


def test_mtmc_head_is_unchanged(tmp_path):
    for camera, seed in ((0, 21), (1, 22)):
        _run("simulate", "--out", tmp_path / f"cam{camera}", "--frame-count", 10,
             "--camera-id", camera, "--dropout", 0.1, "--seed", seed, *SIM)
    both = tmp_path / "both.jsonl"
    both.write_text((tmp_path / "cam0/frames.jsonl").read_text()
                    + (tmp_path / "cam1/frames.jsonl").read_text())
    _run("train", "--frames", both, "--out", tmp_path / "head", "--mtmc",
         "--epochs", 3, "--hidden-dim", 16, "--embed-dim", 8)
    assert _digests(tmp_path, GOLDEN_MTMC_HEAD) == GOLDEN_MTMC_HEAD


# One simulated file edited so that every stage meets the edges where the
# stages must agree: an index gap (frame 4 dropped), an empty frame (6), a
# frame whose detections all fall below the score threshold (7), a frame
# that mixes labeled and unlabeled detections (8), boxes at negative x
# (9 and 10), and identical detection and gt boxes (11).
GOLDEN_EDGE_CASES = {
    "head/params.json": "6f649657c9f581bf9bcbed1023c91f78be476c94a91664e9e84c00c5e12c3437",
    "head/loss_trace.csv": "344c3a2e91c5717c3e7fc84d6c664487baa8ab3605ac93b73452cf758d5adedc",
    "calib/threshold.json": "cf9920952aec7f9951c06a13448ad68933569f56bc3e8b71f6c3a468f3ae9a6c",
    "calib/sweep.csv": "4c34f6919d125dfeb8bf659993caa3234d6ce4ecf58fa22c7de251406f6cc667",
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


def test_edge_cases_are_unchanged(tmp_path):
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
    assert _digests(tmp_path, GOLDEN_EDGE_CASES) == GOLDEN_EDGE_CASES
