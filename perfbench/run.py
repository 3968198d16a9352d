"""Run the embedtrack benchmark on one workload and print its metrics.

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout, the directory that holds
src/embedtrack; the package is imported from there, never from an installed
copy. `--workload all` runs crowd, long and unlabeled one after another.

For each workload it
  1. generates the inputs from the seed several times, each in a fresh
     process (import + simulate), and reports the median as `setup_s`;
  2. starts one fresh worker process, with every BLAS/OpenMP pool pinned to
     one thread, that runs train, calibrate, track and eval through
     `embedtrack.cli.main` for --seconds and checks every output
     (worker.py);
  3. prints one line per metric (name, value, unit) and, last, one JSON
     object: {"correct", "attempted", "failed", "metrics"}.

Every time in the end-to-end metrics is normalised for host speed: divided
by a fixed probe workload timed next to it and given in seconds at the
probe's nominal speed (hostspeed.py). Raw wall times are printed on the
`#` lines.

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from the traced passes (tracing.py). Scratch files go to
.perfbench_runs/ under the checkout; the spans of a traced run stay there as
spans-<workload>-seed<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import PER_LAYER
from worker import END_TO_END, THREAD_VARS, sha256
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
BENCH_WORKLOADS = ("crowd", "long", "unlabeled")
SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0


class BenchmarkError(RuntimeError):
    pass


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(src)
    return env


def run_child(cmd: list[str], env: dict[str, str], deadline: float) -> None:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("time limit reached")
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{Path(cmd[1]).name} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{Path(cmd[1]).name} exited with code {proc.returncode}")


def read_result(path: Path, src: Path) -> dict:
    doc = json.loads(path.read_text(encoding="utf-8"))
    if not Path(doc["embedtrack"]).resolve().is_relative_to(src):
        raise BenchmarkError(f"embedtrack was imported from {doc['embedtrack']}, not {src}")
    return doc


def run_workload(root: Path, name: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    src = (root / "src").resolve()
    env = child_env(src)
    runs = root / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-seed{seed}-", dir=runs))
    failures: list[str] = []
    try:
        setup_times, setup_wall = [], []
        inputs = None
        for k in range(1 if trace else SETUP_REPEATS):
            out, result = work / f"setup{k}", work / f"setup{k}.json"
            run_child([sys.executable, str(HERE / "generate.py"), name, str(seed),
                       str(out), str(result)], env, deadline)
            doc = read_result(result, src)
            setup_times.append(doc["setup_s"])
            setup_wall.append(doc["setup_wall_s"])
            digests = [sha256(out / part / "frames.jsonl") for part in ("train", "holdout")]
            if inputs is None:
                inputs = digests
            elif digests != inputs:
                failures.append("setup: one seed generated different inputs")
        data = work / "setup0"

        result = work / "worker.json"
        run_child([sys.executable, str(HERE / "worker.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                   "--data", str(data), "--work", str(work / "pipeline"),
                   "--result", str(result),
                   "--spans", str(runs / f"spans-{name}-seed{seed}.jsonl")], env, deadline)
        doc = read_result(result, src)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = doc["metrics"]
    if not trace:
        metrics["setup_s"] = statistics.median(setup_times)
    units = PER_LAYER if trace else END_TO_END
    missing = [m for m in units if not isinstance(metrics.get(m), (int, float))
               or not math.isfinite(metrics[m])]
    if missing:
        raise BenchmarkError(f"{name}: no value for {missing}; failures: {doc['failures']}")
    return {
        "attempted": doc["attempted"] + len(setup_times),
        "failed": doc["failed"] + len(failures),
        "failures": failures + doc["failures"],
        "passes": doc["passes"],
        "pipeline_pass_s": doc["pipeline_pass_s"],
        "probe_s": doc["probe_s"],
        "setup_wall_s": setup_wall,
        "env": doc["env"],
        "metrics": {m: {"value": metrics[m], "unit": unit} for m, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "embedtrack" / "__init__.py").is_file():
        print(f"run.py: no src/embedtrack under {root}; run from a source checkout",
              file=sys.stderr)
        return 2

    names = BENCH_WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    for name, res in results.items():
        env = res["env"]
        print(f"# workload {name}, seed {args.seed}, trace {args.trace}, passes {res['passes']}")
        print(f"# python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
              f"nproc {env['nproc']}, threads {env['threads']}")
        passes, probes = res["pipeline_pass_s"], res["probe_s"]
        if passes:
            print(f"# {len(passes)} untraced pipeline passes, wall time: min {min(passes):.4f} s, "
                  f"median {statistics.median(passes):.4f} s, max {max(passes):.4f} s")
            print(f"# host-speed probe: median {statistics.median(probes):.4f} s, "
                  f"min {min(probes):.4f} s, max {max(probes):.4f} s")
        wall = res["setup_wall_s"]
        print(f"# set-up wall time: median {statistics.median(wall):.4f} s of {len(wall)}")
        for failure in res["failures"]:
            print(f"# FAILED {failure}")
        for metric, m in res["metrics"].items():
            print(f"{metric:40s} {m['value']!r:>24} {m['unit']}")
    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{m}": v for n, res in results.items() for m, v in res["metrics"].items()}
    failed = sum(res["failed"] for res in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
