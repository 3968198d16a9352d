"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible under pytest -s) and
enforces its runtime budget. These tests exercise the library end to end and
against published reference counts; the per-module suites cover edge cases.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from embedtrack import (
    BoundingBox,
    LabeledBatch,
    LossConfig,
    MotCounts,
    PairCounts,
    SimConfig,
    TrainConfig,
    distance_matrix,
    embed_batch,
    gradient,
    init_params,
    match_frames,
    mean_ap,
    mota,
    neighbor_frames,
    neighbor_pair_distances,
    pair_accuracy,
    simulate,
    sweep_threshold,
    track_counts,
    track_sequence,
    tracks_by_frame,
    train,
    training_batches,
)
from embedtrack.cli import main
from oracles import counts_at, finite_diff_gradient, pull_loss, threshold_objective, triplet_loss


def _translate(box, dx, dy):
    return BoundingBox(box.x1 + dx, box.y1 + dy, box.x2 + dx, box.y2 + dy)


@contextmanager
def _criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL - criterion {number}: {description}")
        raise
    print(f"PASS - criterion {number}: {description}")


def test_criterion_1_published_metric_arithmetic():
    start = time.monotonic()
    with _criterion(1, "published MOTA and pair-accuracy rows reproduced to 0.005 points"):
        mot_rows = [
            (604, 8, 1, 8.10),
            (585, 8, 1, 10.94),
            (671, 7, 1, -1.80),
        ]
        for fp, miss, mismatch, expected in mot_rows:
            value = mota(MotCounts(fp=fp, miss=miss, mismatch=mismatch, gt_total=667)) * 100
            assert abs(value - expected) < 0.005

        pair_rows = [
            (5176, 6098, 2, 16, 99.84),
            (4989, 5700, 27, 34, 99.43),
            (5196, 6088, 1, 0, 99.99),
            (645, 4729, 1036, 432, 78.54),
            (575, 4350, 1496, 495, 71.21),
            (701, 4667, 1149, 366, 77.99),
        ]
        for tp, tn, fp, fn, expected in pair_rows:
            value = pair_accuracy(PairCounts(tp=tp, tn=tn, fp=fp, fn=fn)) * 100
            assert abs(value - expected) < 0.005

        assert time.monotonic() - start < 1.0


def _away_from_kinks(params, batch, cfg, gap=1e-3):
    """True when no loss term sits within `gap` of a non-differentiable point.

    Checked: relu pre-activations near 0, near-tied distances (argmax/argmin
    selection flips), triplet hinges near 0, and pull deviations near 0.
    """
    z = batch.features @ params.w1.T + params.b1
    if np.min(np.abs(z)) < gap:
        return False
    emb = embed_batch(params, batch.features)
    d = distance_matrix(emb, emb)
    n = batch.size
    iu = np.triu_indices(n, k=1)
    values = np.sort(d[iu])
    if np.min(np.diff(values)) < gap:
        return False
    ids = batch.identities
    same = ids[:, None] == ids[None, :]
    pos = same & ~np.eye(n, dtype=bool)
    neg = ~same
    for i in range(n):
        if pos[i].any() and neg[i].any():
            slack = d[i][pos[i]].max() - d[i][neg[i]].min() + cfg.margin
            if abs(slack) < gap:
                return False
    for ident in np.unique(ids):
        members = np.nonzero(ids == ident)[0]
        if len(members) >= 2:
            sub = d[np.ix_(members, members)]
            if abs(sub.max() - cfg.pull_margin) < gap:
                return False
    return True


def test_criterion_2_gradient_matches_finite_differences():
    start = time.monotonic()
    with _criterion(2, "analytic gradient matches central differences on 20 kink-free configs"):
        rng = np.random.default_rng(2024)
        cfg = LossConfig()
        checked = 0
        attempts = 0
        while checked < 20 and attempts < 400:
            attempts += 1
            params = init_params(8, 16, 8, rng)
            ids = np.array([0, 0, 1, 1, 2, 2])
            rng.shuffle(ids)
            batch = LabeledBatch(features=rng.normal(size=(6, 8)), identities=ids)
            if not _away_from_kinks(params, batch, cfg):
                continue
            analytic = gradient(params, batch, cfg).to_flat()
            numeric = finite_diff_gradient(params, batch, cfg, eps=1e-5).to_flat()
            scale = np.maximum(np.abs(analytic), np.abs(numeric))
            assert np.all(np.abs(analytic - numeric) <= np.maximum(1e-8, 1e-4 * scale))
            checked += 1
        assert checked >= 20, f"only {checked} kink-free configurations in {attempts} draws"
        assert time.monotonic() - start < 10.0


def _first_argmin(values):
    best = 0
    for k in range(1, len(values)):
        if values[k] < values[best]:
            best = k
    return best


def _mutual_min_oracle(d, threshold):
    """Brute-force three-condition matcher: row minimum, column minimum,
    below threshold. First occurrence wins ties, like the implementation."""
    n, m = d.shape
    matches = []
    for i in range(n):
        j = _first_argmin([d[i, k] for k in range(m)])
        if _first_argmin([d[k, j] for k in range(n)]) == i and d[i, j] < threshold:
            matches.append(j)
        else:
            matches.append(None)
    return matches


def test_criterion_3_matcher_equals_oracle():
    start = time.monotonic()
    with _criterion(3, "mutual-minimum matcher equals the brute-force oracle on all shapes <= 4x4"):
        rng = np.random.default_rng(31)
        for rows in range(1, 5):
            for cols in range(1, 5):
                for _ in range(1000):
                    d = rng.uniform(0.0, 1.0, size=(rows, cols))
                    if rng.random() < 0.2:
                        # quantise so exact ties and threshold hits occur
                        d = np.round(d, 1)
                    if rng.random() < 0.25:
                        threshold = float(d[rng.integers(rows), rng.integers(cols)])
                        if threshold <= 0.0:
                            threshold = 0.5
                    else:
                        threshold = float(rng.uniform(0.05, 1.2))
                    assert match_frames(d, threshold) == _mutual_min_oracle(d, threshold)
        assert time.monotonic() - start < 5.0


def test_criterion_4_sweep_is_optimal():
    start = time.monotonic()
    with _criterion(4, "threshold sweep beats 1000 random thresholds and equals exhaustive search"):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n_same = int(rng.integers(5, 40))
            n_diff = int(rng.integers(5, 40))
            same_d = np.abs(rng.normal(1.0, 0.6, size=n_same))
            diff_d = np.abs(rng.normal(3.0, 1.2, size=n_diff))
            pairs = (np.concatenate([same_d, diff_d]), np.arange(n_same + n_diff) < n_same)
            sweep = sweep_threshold(*pairs)

            values = np.unique(np.concatenate([same_d, diff_d]))
            candidates = [] if values[0] == 0.0 else [values[0] / 2.0]
            candidates += [0.5 * (a + b) for a, b in zip(values, values[1:])]
            candidates.append(values[-1] + 1.0)
            exhaustive = min(
                threshold_objective(counts_at(*pairs, h)) for h in candidates
            )
            assert sweep.objective == exhaustive

            for h in rng.uniform(1e-6, values[-1] + 2.0, size=1000):
                assert threshold_objective(counts_at(*pairs, float(h))) >= sweep.objective
        assert time.monotonic() - start < 10.0


def test_criterion_5_end_to_end_synthetic():
    start = time.monotonic()
    with _criterion(5, "synthetic train/calibrate/track run reaches pair accuracy >= 0.99, 0 mismatches"):
        train_cfg_sim = SimConfig(
            identity_count=5,
            frame_count=50,
            feature_dim=8,
            archetype_separation=8.0,
            noise_sigma=0.25,
            dropout=0.05,
            seed=11,
        )
        frames = simulate(train_cfg_sim)

        batches = training_batches(frames, neighbor_frames(frames))
        params, _ = train(batches, LossConfig(), TrainConfig(epochs=50))
        threshold = sweep_threshold(*neighbor_pair_distances(frames, params)).threshold

        holdout_cfg = SimConfig(
            identity_count=5,
            frame_count=20,
            feature_dim=8,
            archetype_separation=8.0,
            noise_sigma=0.25,
            dropout=0.0,
            seed=77,
        )
        holdout = simulate(holdout_cfg)
        tracks = track_sequence(holdout, params, threshold=threshold)

        counts, pairs = track_counts(
            tracks_by_frame(tracks, holdout),
            [f.gt_boxes for f in holdout],
            neighbor_frames(holdout),
        )
        accuracy = pair_accuracy(pairs)
        assert counts.mismatch == 0
        assert accuracy >= 0.99
        assert time.monotonic() - start < 60.0


def test_criterion_6_loss_invariants():
    start = time.monotonic()
    with _criterion(6, "loss non-negativity, permutation and label-renaming invariance on 1000 batches"):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            emb = rng.normal(size=(n, 4))
            d = distance_matrix(emb, emb)
            ids = rng.integers(0, 4, size=n)
            margin = float(rng.uniform(0.5, 5.0))
            pull_margin = float(rng.uniform(0.0, 3.0))

            lt = triplet_loss(d, ids, margin)
            lp = pull_loss(d, ids, pull_margin)
            assert lt >= 0.0 and lp >= 0.0

            perm = rng.permutation(n)
            dp = d[np.ix_(perm, perm)]
            assert triplet_loss(dp, ids[perm], margin) == pytest.approx(lt, abs=1e-9)
            assert pull_loss(dp, ids[perm], pull_margin) == pytest.approx(lp, abs=1e-9)

            renamed = ids + 17
            assert triplet_loss(d, renamed, margin) == lt
            assert pull_loss(d, renamed, pull_margin) == lp
        assert time.monotonic() - start < 5.0


def test_criterion_7_deterministic_outputs(tmp_path):
    with _criterion(7, "simulate and train produce byte-identical outputs across reruns"):
        sim_args = [
            "--identity-count", "3", "--frame-count", "10", "--feature-dim", "4", "--seed", "5",
        ]
        sim_dirs = [tmp_path / "sim_a", tmp_path / "sim_b"]
        for out in sim_dirs:
            assert main(["simulate", "--out", str(out)] + sim_args) == 0
        for name in ("frames.jsonl", "manifest.json"):
            assert (sim_dirs[0] / name).read_bytes() == (sim_dirs[1] / name).read_bytes()

        train_args = [
            "--frames", str(sim_dirs[0] / "frames.jsonl"),
            "--epochs", "3", "--hidden-dim", "8", "--embed-dim", "4",
        ]
        train_dirs = [tmp_path / "train_a", tmp_path / "train_b"]
        for out in train_dirs:
            assert main(["train", "--out", str(out)] + train_args) == 0
        for name in ("params.json", "loss_trace.csv", "manifest.json"):
            assert (train_dirs[0] / name).read_bytes() == (train_dirs[1] / name).read_bytes()


def test_criterion_8_ap_reference_values():
    with _criterion(8, "detection AP reference examples evaluate exactly"):
        unit = BoundingBox(0.0, 0.0, 10.0, 10.0)
        far = BoundingBox(50.0, 50.0, 60.0, 60.0)

        # one ground truth, one exact prediction
        assert mean_ap([(0, unit, 0.9)], [(0, unit)], (0.5,)) == 1.0

        # a false positive ranked above the true positive halves the AP
        preds = [(0, _translate(far, 100.0, 0.0), 0.95), (0, unit, 0.9)]
        assert mean_ap(preds, [(0, unit)], (0.5,)) == 0.5

        # exact predictions for every ground truth, at every IoU threshold
        gts = [(0, unit), (0, far), (1, _translate(unit, 5.0, 5.0))]
        exact = [(img, box, 0.8) for img, box in gts]
        for t in np.arange(0.50, 1.0, 0.05):
            assert mean_ap(exact, gts, (float(t),)) == 1.0
        assert mean_ap(exact, gts) == 1.0
