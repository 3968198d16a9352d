"""Outside-in tracing of the embedtrack layers.

The traced run replaces public embedtrack functions with timing wrappers,
under the module attribute each caller looks up: `from`-imports bind names,
so `cli.load_frames` and `datasets.load_frames` are separate bindings and
only the former is what `cmd_track` calls. Every call records one span
(name, start, end, parent, run id, plus a small count taken from its
arguments or result). Spans stay in memory and are written out when the
benchmark run ends.

Per-pair and per-IoU scalar calls (`core.iou`, `LabeledDistance`) are not
wrapped: there are millions of them, and a wrapper would cost more than
they do. Their counts are derived from the inputs instead.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# Per-layer metric names and units, in report order.
PER_LAYER = {
    "datasets.load_frames_s": "s",
    "datasets.load_frames_det_per_s": "det/s",
    "datasets.labeled_batch_s": "s",
    "datasets.track_records_io_s": "s",
    "training.epoch_ms": "ms",
    "training.steps": "count",
    "training.step_us": "us",
    "training.batch_loss_s": "s",
    "training.gradient_s": "s",
    "training.rows_per_step": "rows",
    "embedding.embed_batch_s": "s",
    "embedding.rows_embedded": "count",
    "association.track_sequence_s": "s",
    "association.frame_us_p50": "us",
    "association.frame_us_p95": "us",
    "association.distance_matrix_s": "s",
    "association.match_frames_s": "s",
    "association.update_tracks_s": "s",
    "association.distance_cells": "count",
    "association.match_rate": "ratio",
    "calibration.pairs": "count",
    "calibration.candidates": "count",
    "calibration.sweep_threshold_s": "s",
    "calibration.histogram_s": "s",
    "calibration.write_sweep_csv_s": "s",
    "evaluation.mean_ap_s": "s",
    "evaluation.mot_counts_s": "s",
    "evaluation.pair_counts_s": "s",
    "evaluation.assign_predictions_s": "s",
    "evaluation.assign_predictions_calls": "count",
    "evaluation.ap_iou_evals": "count",
    "evaluation.ap_distinct_overlaps": "count",
    "cli.train_self_s": "s",
    "cli.calibrate_self_s": "s",
    "cli.track_self_s": "s",
    "cli.eval_self_s": "s",
    "trace_overhead": "ratio",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _detections(args, kwargs, result):
    return sum(len(frame.detections) for frame in result)


def _epochs(args, kwargs, result):
    return _arg(args, kwargs, 2, "train_config").epochs


def _batch_rows(args, kwargs, result):
    return _arg(args, kwargs, 1, "batch").size


def _feature_rows(args, kwargs, result):
    return len(_arg(args, kwargs, 1, "features"))


def _cells(args, kwargs, result):
    return int(result.size)


def _matches(args, kwargs, result):
    return [sum(m is not None for m in result), len(result)]


def _sweep(args, kwargs, result):
    return [len(_arg(args, kwargs, 0, "pairs")), len(result.rows)]


# (module under embedtrack, attribute the caller looks up, span name, info hook).
# One span name can cover several call sites of the same layer function.
WRAPS = [
    ("cli", "load_frames", "datasets.load_frames", _detections),
    ("cli", "labeled_batch_from_sample", "datasets.labeled_batch", None),
    ("cli", "save_track_records", "datasets.track_records_io", None),
    ("cli", "load_track_records", "datasets.track_records_io", None),
    ("cli", "train", "training.train", _epochs),
    ("training", "batch_loss", "training.batch_loss", None),
    ("training", "gradient", "training.gradient", _batch_rows),
    # Calibration and tracking embed through embed_batch; training runs its
    # own forward passes inside batch_loss and gradient.
    ("cli", "embed_batch", "embedding.embed_batch", _feature_rows),
    ("association", "embed_batch", "embedding.embed_batch", _feature_rows),
    ("cli", "track_sequence", "association.track_sequence", None),
    ("cli", "distance_matrix", "association.distance_matrix", _cells),
    ("association", "distance_matrix", "association.distance_matrix", _cells),
    ("association", "match_frames", "association.match_frames", _matches),
    ("association", "update_tracks", "association.update_tracks", None),
    ("cli", "sweep_threshold", "calibration.sweep_threshold", _sweep),
    ("cli", "distance_histogram", "calibration.histogram", None),
    ("cli", "write_histogram_csv", "calibration.histogram", None),
    ("cli", "write_sweep_csv", "calibration.write_sweep_csv", None),
    ("cli", "mean_ap", "evaluation.mean_ap", None),
    ("cli", "mot_counts", "evaluation.mot_counts", None),
    ("cli", "pair_counts", "evaluation.pair_counts", None),
    # Labeling for train and calibrate only; pair_counts labels through its
    # own module binding, which stays inside evaluation.pair_counts.
    ("cli", "assign_predictions", "evaluation.assign_predictions", None),
    ("datasets", "assign_predictions", "evaluation.assign_predictions", None),
]


class Tracer:
    """Collects spans in memory: [name, start, end, parent index, run id, info]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = ""
        # Arguments of the latest call per span name, for counts derived
        # from inputs after the run (see ap_counts).
        self.last_args: dict[str, tuple] = {}
        self._stack: list[int] = []

    def call(self, name, fn, args=(), kwargs=None, hook=None):
        kwargs = kwargs or {}
        self.last_args[name] = (args, kwargs)
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id, None]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if hook is not None:
            span[5] = hook(args, kwargs, result)
        return result

    def wrap(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every function in WRAPS for the duration of the block."""
        originals = []
        try:
            for module_name, attr, span_name, hook in WRAPS:
                module = importlib.import_module(f"embedtrack.{module_name}")
                fn = getattr(module, attr, None)
                if fn is None:
                    print(f"trace: embedtrack.{module_name}.{attr} not found, not traced",
                          file=sys.stderr)
                    continue
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(span_name, fn, hook))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, run, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run, "info": info}) + "\n")


def ap_counts(args, kwargs) -> tuple[int, int]:
    """IoU evaluations `mean_ap` makes, and distinct (prediction, gt) overlaps.

    Replays the greedy matching of `evaluation.average_precision` on the
    captured inputs: each ranked prediction scans the still-unmatched ground
    truths of its image once per IoU threshold. Overlaps come from `core.iou`
    itself, so the replay takes the same matching decisions.
    """
    from embedtrack.core import iou
    from embedtrack.evaluation import AP_IOU_THRESHOLDS

    predictions = _arg(args, kwargs, 0, "predictions")
    ground_truths = _arg(args, kwargs, 1, "ground_truths")
    thresholds = args[2] if len(args) > 2 else kwargs.get("iou_thresholds", AP_IOU_THRESHOLDS)
    gts_by_image: dict[int, list] = defaultdict(list)
    for image, box in ground_truths:
        gts_by_image[image].append(box)
    ranked = sorted(range(len(predictions)), key=lambda k: -predictions[k][2])
    preds_by_image: dict[int, list] = defaultdict(list)
    for k in ranked:
        preds_by_image[predictions[k][0]].append(predictions[k][1])

    evals = distinct = 0
    for image, boxes in preds_by_image.items():
        gts = gts_by_image.get(image, [])
        distinct += len(boxes) * len(gts)
        overlaps = [[iou(box, gt) for gt in gts] for box in boxes]
        for threshold in thresholds:
            matched = [False] * len(gts)
            for row in overlaps:
                best_j, best = None, 0.0
                for j, ov in enumerate(row):
                    if matched[j]:
                        continue
                    evals += 1
                    if ov >= threshold and ov > best:
                        best_j, best = j, ov
                if best_j is not None:
                    matched[best_j] = True
    return evals, distinct


def layer_metrics(spans: list[list], first: int) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline pass.

    `spans` are the pass's spans, the first of which has index `first` in the
    tracer. Layer times sum every span of that name. A stage's self time is
    its root span minus the time its direct child spans cover.
    """
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    info: dict[str, list] = defaultdict(list)
    child_time: dict[int, float] = defaultdict(float)
    frame_ends: dict[int, list[float]] = defaultdict(list)
    for name, start, end, parent, _, extra in spans:
        busy[name] += end - start
        calls[name] += 1
        if extra is not None:
            info[name].append(extra)
        if parent >= 0:
            child_time[parent] += end - start
        if name == "association.update_tracks":
            frame_ends[parent].append(end)

    frame_us = []
    for ends in frame_ends.values():
        frame_us += [(b - a) * 1e6 for a, b in zip(ends, ends[1:])]
    frame_q = statistics.quantiles(frame_us, n=20) if len(frame_us) >= 2 else [0.0] * 19

    steps = calls["training.gradient"]
    epochs = sum(info["training.train"])
    matched = sum(m for m, _ in info["association.match_frames"])
    rows = sum(n for _, n in info["association.match_frames"])
    sweep = info["calibration.sweep_threshold"]
    loaded = sum(info["datasets.load_frames"])
    metrics = {
        "datasets.load_frames_s": busy["datasets.load_frames"],
        "datasets.load_frames_det_per_s": (
            loaded / busy["datasets.load_frames"] if busy["datasets.load_frames"] else 0.0
        ),
        "datasets.labeled_batch_s": busy["datasets.labeled_batch"],
        "datasets.track_records_io_s": busy["datasets.track_records_io"],
        "training.epoch_ms": busy["training.train"] / epochs * 1e3 if epochs else 0.0,
        "training.steps": steps,
        "training.step_us": busy["training.train"] / steps * 1e6 if steps else 0.0,
        "training.batch_loss_s": busy["training.batch_loss"],
        "training.gradient_s": busy["training.gradient"],
        "training.rows_per_step": (
            sum(info["training.gradient"]) / steps if steps else 0.0
        ),
        "embedding.embed_batch_s": busy["embedding.embed_batch"],
        "embedding.rows_embedded": sum(info["embedding.embed_batch"]),
        "association.track_sequence_s": busy["association.track_sequence"],
        "association.frame_us_p50": statistics.median(frame_us) if frame_us else 0.0,
        "association.frame_us_p95": frame_q[18],
        "association.distance_matrix_s": busy["association.distance_matrix"],
        "association.match_frames_s": busy["association.match_frames"],
        "association.update_tracks_s": busy["association.update_tracks"],
        "association.distance_cells": sum(info["association.distance_matrix"]),
        "association.match_rate": matched / rows if rows else 0.0,
        "calibration.pairs": sum(p for p, _ in sweep),
        "calibration.candidates": sum(c for _, c in sweep),
        "calibration.sweep_threshold_s": busy["calibration.sweep_threshold"],
        "calibration.histogram_s": busy["calibration.histogram"],
        "calibration.write_sweep_csv_s": busy["calibration.write_sweep_csv"],
        "evaluation.mean_ap_s": busy["evaluation.mean_ap"],
        "evaluation.mot_counts_s": busy["evaluation.mot_counts"],
        "evaluation.pair_counts_s": busy["evaluation.pair_counts"],
        "evaluation.assign_predictions_s": busy["evaluation.assign_predictions"],
        "evaluation.assign_predictions_calls": calls["evaluation.assign_predictions"],
    }
    for index, (name, start, end, parent, _, _) in enumerate(spans, start=first):
        if parent < 0 and name.startswith("cli."):
            metrics[f"{name}_self_s"] = end - start - child_time[index]
    return metrics


def normalize(metrics: dict[str, float], factor: float) -> dict[str, float]:
    """Scale the time metrics of one pass to the nominal host speed.

    `factor` is the nominal probe time over the pass's probe time: times
    are multiplied by it, rates per second divided; counts stay as they are.
    """
    scaled = {}
    for name, value in metrics.items():
        unit = PER_LAYER.get(name, "s")
        if unit in ("s", "ms", "us"):
            value *= factor
        elif unit.endswith("/s"):
            value /= factor
        scaled[name] = value
    return scaled


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Combine the traced passes: the median of each metric over the passes."""
    return {name: statistics.median(run[name] for run in runs) for name in (runs[0] if runs else ())}
