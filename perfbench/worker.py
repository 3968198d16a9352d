"""Pipeline child: train, calibrate, track and eval through `embedtrack.cli.main`.

run.py starts this script in a fresh process once per workload run, so the
peak resident memory it reports belongs to that workload alone:

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --data DIR --work DIR --result FILE --spans FILE

The stages read only the generated files under --data. One untimed warm-up
pass comes first; then whole passes repeat until --seconds is used up (at
least MIN_PASSES). A host-speed probe (hostspeed.py) runs before and after
every stage, and stage times are reported normalised by it. Every pass is
checked; a failed check counts its stage call as a failed operation. With
--trace 1 untraced and traced passes alternate, and the traced ones give
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from workloads import SCORE_THRESHOLD, WORKLOADS

STAGES = ("train", "calibrate", "track", "eval")
STAGE_OUTPUTS = {
    "train": ("params.json", "loss_trace.csv"),
    "calibrate": ("threshold.json", "sweep.csv", "histogram.csv"),
    "track": ("tracks.jsonl",),
    "eval": ("report.json",),
}
MIN_PASSES = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "train_s": "s",
    "calibrate_s": "s",
    "eval_s": "s",
    "track_det_per_s": "det/s",
    "peak_rss_mb": "MB",
    "mota": "ratio",
    "pair_accuracy": "ratio",
    "mean_ap": "ratio",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def kept_detections(frames_path: Path) -> int:
    """Held-out detections that pass the tracker's confidence filter."""
    kept = 0
    with frames_path.open("r", encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            kept += sum(d["confidence"] >= SCORE_THRESHOLD for d in doc["detections"])
    return kept


def first_min_objective_row(sweep_csv: Path) -> tuple[float, float]:
    best = None
    with sweep_csv.open("r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            h, objective = float(row["h"]), float(row["objective"])
            if best is None or objective < best[1]:
                best = (h, objective)
    if best is None:
        raise ValueError("sweep.csv has no rows")
    return best


class Pipeline:
    """One workload's four stages over fixed input files, with output checks."""

    def __init__(self, workload, seed: int, data: Path, work: Path, probe):
        self.workload = workload
        self.probe = probe
        self.seed = seed
        self.train_frames = data / "train" / "frames.jsonl"
        self.holdout_frames = data / "holdout" / "frames.jsonl"
        self.out = {stage: work / stage for stage in STAGES}
        self.expected_tracks = kept_detections(self.holdout_frames)
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.report: dict = {}

    def argv(self, stage: str) -> list[str]:
        out = str(self.out[stage])
        train_frames, holdout = str(self.train_frames), str(self.holdout_frames)
        params = str(self.out["train"] / "params.json")
        score = repr(SCORE_THRESHOLD)
        if stage == "train":
            return ["train", "--frames", train_frames, "--out", out,
                    "--epochs", str(self.workload.epochs), "--seed", str(self.seed)]
        if stage == "calibrate":
            return ["calibrate", "--frames", train_frames, "--params", params,
                    "--out", out, "--score-threshold", score]
        if stage == "track":
            doc = json.loads((self.out["calibrate"] / "threshold.json").read_text())
            return ["track", "--frames", holdout, "--params", params,
                    "--threshold", repr(doc["threshold"]), "--score-threshold", score,
                    "--out", out]
        return ["eval", "--tracks", str(self.out["track"] / "tracks.jsonl"),
                "--frames", holdout, "--score-threshold", score, "--out", out]

    def run_pass(self, call_stage) -> dict[str, tuple[float, float]] | None:
        """Run all four stages once, with a host-speed probe before and after each.

        Returns per stage (wall seconds, mean of its two neighbouring probes),
        or None if a stage failed.
        """
        for out in self.out.values():
            shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        times = {}
        before = self.probe()
        for stage in STAGES:
            self.attempted += 1
            try:
                argv = self.argv(stage)
            except (OSError, ValueError, KeyError) as exc:
                return self._fail(stage, f"cannot build arguments: {exc}")
            start = time.perf_counter()
            rc = call_stage(stage, argv)
            elapsed = time.perf_counter() - start
            after = self.probe()
            times[stage] = (elapsed, (before + after) / 2)
            before = after
            if rc != 0:
                return self._fail(stage, f"exit code {rc}")
            problem = self.check(stage)
            if problem:
                return self._fail(stage, problem)
        return times

    def _fail(self, stage: str, reason: str) -> None:
        self.failed += 1
        self.failures.append(f"{stage}: {reason}")
        return None

    def check(self, stage: str) -> str | None:
        out = self.out[stage]
        for name in STAGE_OUTPUTS[stage]:
            path = out / name
            if not path.is_file():
                return f"{name} missing"
            digest = sha256(path)
            if self.digests.setdefault(name, digest) != digest:
                return f"{name} differs from the first pass (sha256 {digest})"
        if stage == "calibrate":
            doc = json.loads((out / "threshold.json").read_text())
            h, objective = first_min_objective_row(out / "sweep.csv")
            if (doc["threshold"], doc["objective"]) != (h, objective):
                return (f"threshold.json holds {doc['threshold']}/{doc['objective']}, "
                        f"first minimum row of sweep.csv is {h}/{objective}")
        if stage == "track":
            with (out / "tracks.jsonl").open("r", encoding="utf-8") as fh:
                rows = sum(1 for line in fh if line.strip())
            if rows != self.expected_tracks:
                return f"{rows} track rows for {self.expected_tracks} kept detections"
        if stage == "eval":
            report = json.loads((out / "report.json").read_text())
            for key in ("mota", "pair_accuracy", "mean_ap"):
                if not isinstance(report.get(key), float):
                    return f"report.json has no number for {key}"
            mc = report["mot_counts"]
            recomputed = 1.0 - (mc["miss"] + mc["fp"] + mc["mismatch"]) / mc["gt_total"]
            if report["mota"] != recomputed:
                return f"mota {report['mota']} differs from mot_counts {recomputed}"
            self.report = report
        return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--data", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()

    unpinned = [var for var in THREAD_VARS if os.environ.get(var) != "1"]
    if unpinned:
        print(f"worker: {unpinned} must be 1 before NumPy loads", file=sys.stderr)
        return 2
    from embedtrack import cli

    import tracing
    from hostspeed import NOMINAL_PROBE_S, probe

    pipeline = Pipeline(WORKLOADS[args.workload], args.seed, args.data, args.work, probe)
    tracer = tracing.Tracer()
    plain: list[dict[str, tuple[float, float]]] = []
    with_trace: list[dict[str, tuple[float, float]]] = []
    layer_runs: list[dict[str, float]] = []

    def untraced(stage, argv):
        return cli.main(argv)

    def traced(stage, argv):
        return tracer.call(f"cli.{stage}", cli.main, (argv,))

    def traced_pass(index):
        tracer.run_id = f"{args.workload}-seed{args.seed}-pass{index}"
        first = len(tracer.spans)
        with tracer.installed():
            times = pipeline.run_pass(traced)
        if times is not None:
            layer = tracing.layer_metrics(tracer.spans[first:], first)
            probe_s = statistics.fmean(ref for _, ref in times.values())
            layer_runs.append(tracing.normalize(layer, NOMINAL_PROBE_S / probe_s))
        return times

    deadline = time.perf_counter() + args.seconds
    pipeline.run_pass(untraced)  # warm-up, untimed
    longest = 0.0
    while pipeline.failed <= 2 * MIN_PASSES:
        passes = len(plain) + len(with_trace)
        enough = (min(len(plain), len(with_trace)) if args.trace else len(plain)) >= MIN_PASSES
        if enough and time.perf_counter() + longest > deadline:
            break
        start = time.perf_counter()
        if args.trace and passes % 2 == 1:
            times, runs = traced_pass(passes), with_trace
        else:
            times, runs = pipeline.run_pass(untraced), plain
        if times is not None:
            runs.append(times)
        longest = max(longest, time.perf_counter() - start)

    # Host speed drifts by up to 1.6x over minutes on a shared host. Each
    # stage time is divided by its neighbouring probes and reported in
    # seconds at the nominal probe speed; the median over passes is reported.
    def normalized(run):
        return {stage: wall / ref * NOMINAL_PROBE_S for stage, (wall, ref) in run.items()}

    def median_of(runs, key):
        values = [key(normalized(run)) for run in runs]
        return statistics.median(values) if values else float("nan")

    def pipeline_s(runs):
        return median_of(runs, lambda run: sum(run.values()))

    if args.trace:
        metrics = tracing.median_metrics(layer_runs)
        if "evaluation.mean_ap" in tracer.last_args:
            evals, distinct = tracing.ap_counts(*tracer.last_args["evaluation.mean_ap"])
            metrics["evaluation.ap_iou_evals"] = evals
            metrics["evaluation.ap_distinct_overlaps"] = distinct
        metrics["trace_overhead"] = pipeline_s(with_trace) / pipeline_s(plain)
        tracer.write(args.spans)
    else:
        metrics = {
            "pipeline_s": pipeline_s(plain),
            "train_s": median_of(plain, lambda run: run["train"]),
            "calibrate_s": median_of(plain, lambda run: run["calibrate"]),
            "eval_s": median_of(plain, lambda run: run["eval"]),
            "track_det_per_s": pipeline.expected_tracks / median_of(plain, lambda run: run["track"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "mota": pipeline.report.get("mota"),
            "pair_accuracy": pipeline.report.get("pair_accuracy"),
            "mean_ap": pipeline.report.get("mean_ap"),
        }
    result = {
        "attempted": pipeline.attempted,
        "failed": pipeline.failed,
        "failures": pipeline.failures,
        "passes": {"untraced": len(plain), "traced": len(with_trace)},
        "pipeline_pass_s": [sum(wall for wall, _ in run.values()) for run in plain],
        "probe_s": [ref for run in plain for _, ref in run.values()],
        "metrics": metrics,
        "env": environment(),
        "embedtrack": cli.__file__,
    }
    args.result.write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
