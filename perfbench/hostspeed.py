"""Host-speed probe: a fixed piece of work timed next to each measured stage.

The benchmark runs on shared hosts whose speed drifts: the same `crowd` pass
takes 2.2 s for a minute and 3.6 s the next, and the slow phases last from
seconds to minutes, longer than one benchmark run. Averaging inside a run
cannot remove that drift. This probe runs the same mix of work the pipeline
does (Python loops over tuples and dicts, many small NumPy calls, JSON
encoding and decoding) before and after every timed stage. A stage's time
divided by the mean of its two neighbouring probes is its cost in probe
units; multiplied by NOMINAL_PROBE_S it is reported in seconds at a fixed
nominal host speed.

The probe depends only on Python, NumPy and the standard library, never on
embedtrack, so a change to the program moves the normalised time by exactly
its own effect. Import NumPy only after the BLAS thread counts are pinned.
"""

from __future__ import annotations

import json
import time

import numpy as np

# Probe time taken as the nominal host speed: about what probe() takes on an
# unloaded 2-vCPU x86-64 host with Python 3.11 and NumPy 2.4. It only fixes
# the scale of the reported seconds; any constant would do.
NOMINAL_PROBE_S = 0.03

_RNG = np.random.default_rng(0)
_POINTS = _RNG.standard_normal((40, 16))
_BOXES = [(float(i), float(i % 7), float(i) + 4.0, float(i % 7) + 6.0) for i in range(60)]
_RECORDS = [
    {"frame": i, "detections": [
        {"box": [1.5 * j, 2.0, 3.25, 4.0], "confidence": 0.9,
         "feature": [0.125 * k for k in range(8)]}
        for j in range(10)
    ]}
    for i in range(30)
]


def _python_work() -> float:
    total = 0.0
    for a in _BOXES:
        for b in _BOXES:
            w = min(a[2], b[2]) - max(a[0], b[0])
            h = min(a[3], b[3]) - max(a[1], b[1])
            if w > 0.0 and h > 0.0:
                total += w * h
    counts: dict[int, float] = {}
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0.0) + i * 0.5
    return total + min(counts.values())


def _numpy_work() -> float:
    total = 0.0
    for k in range(800):
        rows = _POINTS[: 20 + k % 20]
        sq = (rows * rows).sum(axis=1)
        dist = sq[:, None] + sq[None, :] - 2.0 * (rows @ rows.T)
        total += float(dist.argmin())
    return total


def _json_work() -> int:
    text = "\n".join(json.dumps(record) for record in _RECORDS * 6)
    return sum(len(json.loads(line)["detections"]) for line in text.splitlines())


def probe() -> float:
    """Wall time of one fixed unit of mixed work, in seconds."""
    start = time.perf_counter()
    _python_work()
    _numpy_work()
    _json_work()
    return time.perf_counter() - start
