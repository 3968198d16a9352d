"""The benchmark's traced run (perfbench/tracing.py) reads the library from
outside: it wraps functions under the module attributes its WRAPS table
names, counts detections as `len(frame.detections)` on what
`cli.load_frames` returns, and replays `cli.mean_ap`'s arguments through
`core.iou`, reading each record by position as an (image, box,
confidence) or (image, box) tuple. A change that breaks any of that
makes a traced benchmark run fail; this test runs the four stages under
the tracer so that it fails here first."""

import importlib.util
import json
from pathlib import Path

from embedtrack.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# WRAPS entries whose call sites had already moved when this test was
# written; the tracer prints "not found" for them. No other may go missing.
KNOWN_NOT_FOUND = {
    "embedtrack.cli.labeled_batch_from_sample",
    "embedtrack.cli.embed_batch",
    "embedtrack.cli.distance_matrix",
    "embedtrack.cli.assign_predictions",
    "embedtrack.cli.mot_counts",
    "embedtrack.cli.pair_counts",
}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_pipeline_keeps_the_tracer_contract(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path / "data"), "--identity-count", "3",
                 "--frame-count", "6", "--feature-dim", "4", "--dropout", "0.2",
                 "--seed", "4"]) == 0
    frames = tmp_path / "data/frames.jsonl"
    # Without gt_id, train and calibrate label rows through assign_predictions.
    docs = [json.loads(line) for line in frames.read_text().splitlines()]
    for doc in docs:
        for det in doc["detections"]:
            del det["gt_id"]
    frames.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    detection_count = sum(len(doc["detections"]) for doc in docs)
    params = str(tmp_path / "head/params.json")
    stages = [
        ("train", ["--frames", frames, "--out", tmp_path / "head", "--epochs", "2",
                   "--hidden-dim", "8", "--embed-dim", "4"]),
        ("calibrate", ["--frames", frames, "--params", params, "--out", tmp_path / "calib"]),
        ("track", ["--frames", frames, "--params", params, "--threshold", "1e9",
                   "--out", tmp_path / "tracks"]),
        ("eval", ["--tracks", tmp_path / "tracks/tracks.jsonl", "--frames", frames,
                  "--out", tmp_path / "report"]),
    ]

    tracing = _tracing()
    tracer = tracing.Tracer()
    capsys.readouterr()
    with tracer.installed():
        for stage, argv in stages:
            assert tracer.call(f"cli.{stage}", main, ([stage, *map(str, argv)],)) == 0
    not_found = {
        line.split()[1] for line in capsys.readouterr().err.splitlines() if "not found" in line
    }
    assert not_found <= KNOWN_NOT_FOUND

    # One match and one id update per frame, inside the tracker's own span:
    # frame_us_p50/p95 and match_rate are read from these spans.
    (sequence,) = [k for k, (name, *_) in enumerate(tracer.spans)
                   if name == "association.track_sequence"]
    for name in ("association.match_frames", "association.update_tracks"):
        parents = [span[3] for span in tracer.spans if span[0] == name]
        assert parents == [sequence] * len(docs), name

    metrics = tracing.layer_metrics(tracer.spans, 0)
    loads = [info for name, *_, info in tracer.spans if name == "datasets.load_frames"]
    assert loads == [detection_count] * 4
    assert metrics["evaluation.assign_predictions_calls"] > 0
    assert 0 < metrics["association.match_rate"] <= 1
    assert metrics["association.frame_us_p50"] > 0
    args, kwargs = tracer.last_args["evaluation.mean_ap"]
    evals, distinct = tracing.ap_counts(args, kwargs)
    assert evals > 0 and distinct > 0
    # The replay of the record arrays counts what it counts on tuples of
    # the same rows, so `ap_iou_evals` keeps its meaning.
    predictions, ground_truths = args[:2]
    as_tuples = (
        list(zip(*(predictions[name].tolist() for name in ("frame_index", "box", "confidence")))),
        list(zip(*(ground_truths[name].tolist() for name in ("frame_index", "box")))),
    )
    assert tracing.ap_counts(as_tuples, {}) == (evals, distinct)
