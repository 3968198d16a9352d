"""Set-up child: import embedtrack and generate one workload's inputs, timed.

run.py starts this script in a fresh process several times per run and
reports the median as `setup_s`. Like the stage times, the set-up time is
divided by a host-speed probe (hostspeed.py), run five times right after
the set-up, and given in seconds at the nominal probe speed:

    python3 perfbench/generate.py WORKLOAD SEED OUT_DIR RESULT_JSON

It writes OUT_DIR/train/frames.jsonl and OUT_DIR/holdout/frames.jsonl
through the real `simulate` subcommand, strips gt_id for workloads that ask
for it, and writes its timing to RESULT_JSON.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, sequence_seeds, simulate_args, strip_labels  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, out, result = argv
    workload = WORKLOADS[name]
    from embedtrack import cli  # imports NumPy and every embedtrack module

    import_s = time.perf_counter() - _START
    for part, part_seed in sequence_seeds(int(seed)).items():
        frames_dir = Path(out) / part
        if cli.main(simulate_args(workload, part_seed, frames_dir)) != 0:
            print(f"generate: simulate failed for the {part} sequence", file=sys.stderr)
            return 1
        if workload.strip_labels:
            strip_labels(frames_dir / "frames.jsonl")
    setup_wall_s = time.perf_counter() - _START

    from hostspeed import NOMINAL_PROBE_S, probe

    probe_s = statistics.median(probe() for _ in range(5))
    doc = {
        "setup_s": setup_wall_s / probe_s * NOMINAL_PROBE_S,
        "setup_wall_s": setup_wall_s,
        "import_s": import_s,
        "probe_s": probe_s,
        "embedtrack": cli.__file__,
    }
    Path(result).write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
