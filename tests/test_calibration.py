import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from embedtrack import (
    DegenerateDevSetError,
    DistanceHistogram,
    PairCounts,
    ThresholdSweep,
    distance_histogram,
    sweep_threshold,
)
from embedtrack.calibration import write_histogram_csv, write_sweep_csv
from oracles import counts_at, threshold_objective


def _pairs(same, diff):
    """Parallel (distances, is_same) arrays: the same pairs first."""
    distances = np.array(list(same) + list(diff), dtype=np.float64)
    return distances, np.arange(distances.size) < len(same)


pair_sets = st.tuples(
    st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=30),
    st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=30),
)


class TestPairCounts:
    def test_totals_default_to_sums(self):
        c = PairCounts(tp=3, tn=4, fp=1, fn=2)
        assert c.gp == 5 and c.gn == 5

    def test_explicit_totals_are_kept(self):
        # published tallies may carry gp > tp + fn (pairs lost to missed detections)
        c = PairCounts(tp=5176, tn=6098, fp=2, fn=16, gp=5335, gn=6615)
        assert c.gp == 5335 and c.gn == 6615

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PairCounts(tp=-1, tn=0, fp=0, fn=0)


class TestObjective:
    def test_zero_errors(self):
        assert threshold_objective(PairCounts(tp=5, tn=5, fp=0, fn=0)) == 0.0

    def test_all_wrong_is_two(self):
        assert threshold_objective(PairCounts(tp=0, tn=0, fp=7, fn=3)) == 2.0

    def test_published_operating_point(self):
        c = PairCounts(tp=5176, tn=6098, fp=2, fn=16, gp=5335, gn=6615)
        assert threshold_objective(c) == pytest.approx(2 / 6615 + 16 / 5335)
        assert threshold_objective(c) == pytest.approx(0.003301, abs=5e-7)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateDevSetError):
            threshold_objective(PairCounts(tp=0, tn=1, fp=0, fn=0))  # gp == 0


class TestCountsAt:
    def test_perfectly_separated(self):
        c = counts_at(*_pairs(same=[0.5, 1.0], diff=[5.0, 9.0]), threshold=2.0)
        assert (c.tp, c.tn, c.fp, c.fn) == (2, 2, 0, 0)

    def test_zero_threshold_predicts_nothing_same(self):
        c = counts_at(*_pairs(same=[0.0, 1.0], diff=[2.0]), threshold=0.0)
        assert c.tp == 0 and c.fp == 0
        assert c.fn == c.gp and c.tn == c.gn

    def test_interleaved_enumeration(self):
        c = counts_at(*_pairs(same=[1.0, 2.0], diff=[1.5, 10.0]), threshold=1.8)
        assert (c.tp, c.fn, c.fp, c.tn) == (1, 1, 1, 1)

    def test_empty_raises(self):
        with pytest.raises(DegenerateDevSetError):
            counts_at([], [], threshold=1.0)

    @given(pair_sets, st.floats(min_value=0.0, max_value=120.0, allow_nan=False))
    @settings(max_examples=100)
    def test_totals_conserved(self, sets, h):
        same, diff = sets
        c = counts_at(*_pairs(same, diff), h)
        assert c.tp + c.fn == c.gp == len(same)
        assert c.tn + c.fp == c.gn == len(diff)

    @given(pair_sets)
    @settings(max_examples=100)
    def test_tp_monotone_in_threshold(self, sets):
        same, diff = sets
        pairs = _pairs(same, diff)
        hs = sorted({0.0, 1.0, 5.0, 50.0, 200.0})
        counts = [counts_at(*pairs, h) for h in hs]
        assert all(a.tp <= b.tp for a, b in zip(counts, counts[1:]))
        assert all(a.tn >= b.tn for a, b in zip(counts, counts[1:]))


def _brute_force_best(pairs):
    """The first plateau (lo, hi] of thresholds with the least objective, and
    that objective, by direct counting at the upper end of every plateau:
    each distinct positive distance, and for h > d_max (hi = inf) the next
    float above d_max."""
    distances = sorted(set(pairs[0].tolist()))
    ends = [d for d in distances if d > 0] + [math.inf]
    top = math.nextafter(distances[-1], math.inf)
    best_obj, hi = min((threshold_objective(counts_at(*pairs, min(h, top))), h) for h in ends)
    lo = max([0.0] + [d for d in distances if d < hi])
    return (lo, hi), best_obj


class TestSweepThreshold:
    def test_separable_case(self):
        sweep = sweep_threshold(*_pairs(same=[1.0, 2.0], diff=[10.0, 12.0]))
        assert sweep.threshold == 6.0
        assert sweep.objective == 0.0

    def test_tie_resolves_to_smallest(self):
        # objectives: 1.0, 0.5, 1.0, 0.5, 1.0 over the five candidates
        sweep = sweep_threshold(*_pairs(same=[1.0, 3.0], diff=[2.0, 4.0]))
        assert sweep.objective == 0.5
        assert sweep.threshold == 1.5

    def test_single_label_kind_raises(self):
        with pytest.raises(DegenerateDevSetError):
            sweep_threshold([1.0, 2.0], [True, True])
        with pytest.raises(DegenerateDevSetError):
            sweep_threshold([], [])

    def test_rows_cover_all_candidates_in_order(self):
        sweep = sweep_threshold(*_pairs(same=[1.0, 2.0], diff=[3.0]))
        hs = sweep.rows.h.tolist()
        assert hs == sorted(hs)
        assert hs[0] == 0.5 and hs[-1] == 4.0

    def test_zero_distance_skips_left_endpoint(self):
        sweep = sweep_threshold(*_pairs(same=[0.0], diff=[2.0]))
        assert (sweep.rows.h > 0).all()

    def test_rows_hold_counts_and_objective(self):
        sweep = sweep_threshold(*_pairs(same=[1.0, 3.0], diff=[2.0, 4.0]))
        assert sweep.rows.dtype.names == ("h", "fp", "fn", "tp", "tn", "objective")
        assert sweep.rows.tp.tolist() == [0, 1, 1, 2, 2]
        assert sweep.rows.fp.tolist() == [0, 0, 1, 1, 2]
        assert (sweep.rows.tp + sweep.rows.fn == 2).all()
        assert (sweep.rows.tn + sweep.rows.fp == 2).all()
        assert sweep.rows.objective.tolist() == [1.0, 0.5, 1.0, 0.5, 1.0]
        with pytest.raises(ValueError):
            sweep.rows.h[0] = 9.0

    @given(pair_sets)
    @settings(max_examples=60, deadline=None)
    # (1 + b) / 2 rounds to 1.0 when b is the next float after 1.0
    @example(([1.0], [math.nextafter(1.0, 2.0)]))
    # 2**60 + 1 == 2**60, and the 0.0 different pair rules out "all different"
    @example(([2.0**60], [0.0]))
    # the smallest subnormal halves to 0.0, which is not a threshold
    @example(([5e-324], [5e-324]))
    def test_matches_brute_force(self, sets):
        same, diff = sets
        pairs = _pairs(same, diff)
        sweep = sweep_threshold(*pairs)
        (lo, hi), best_obj = _brute_force_best(pairs)
        assert sweep.objective == best_obj
        assert lo < sweep.threshold <= hi

    @given(pair_sets, st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_beats_random_thresholds(self, sets, seed):
        same, diff = sets
        pairs = _pairs(same, diff)
        sweep = sweep_threshold(*pairs)
        rng = np.random.default_rng(seed)
        for h in rng.uniform(0.0, 120.0, size=50):
            assert sweep.objective <= threshold_objective(counts_at(*pairs, float(h)))


class TestDistanceHistogram:
    def test_single_pair(self):
        hist = distance_histogram([0.3], [True], bin_count=4)
        assert sum(hist.same_counts) == 1
        assert sum(hist.diff_counts) == 0

    def test_totals_match_inputs(self):
        pairs = _pairs(same=[0.1, 0.5, 2.0], diff=[1.0, 3.0])
        hist = distance_histogram(*pairs, bin_count=7)
        assert sum(hist.same_counts) == 3
        assert sum(hist.diff_counts) == 2

    def test_two_bin_arithmetic(self):
        hist = distance_histogram(*_pairs(same=[0.1, 0.2], diff=[0.9]), bin_count=2)
        assert hist.same_counts == (2, 0)
        assert hist.diff_counts == (0, 1)
        assert hist.bin_edges == (0.0, 0.45, 0.9)

    def test_all_zero_distances_use_unit_range(self):
        hist = distance_histogram([0.0], [True], bin_count=2)
        assert hist.bin_edges[-1] == 1.0
        assert sum(hist.same_counts) == 1

    def test_rejects_bad_bin_count(self):
        with pytest.raises(ValueError):
            distance_histogram(*_pairs([1.0], [2.0]), bin_count=0)


class TestPairCheck:
    """One validation rule shared by counts_at, sweep_threshold and
    distance_histogram."""

    def test_rejects_invalid_distances(self):
        for bad in (-1.0, float("nan"), float("inf")):
            pairs = ([bad, 1.0], [True, False])
            with pytest.raises(ValueError):
                counts_at(*pairs, 1.0)
            with pytest.raises(ValueError):
                sweep_threshold(*pairs)
            with pytest.raises(ValueError):
                distance_histogram(*pairs)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            sweep_threshold([1.0, 2.0], [True])

    def test_rejects_non_boolean_labels(self):
        with pytest.raises(ValueError):
            sweep_threshold([1.0, 2.0], [1, 0])

    def test_rejects_two_dimensional_input(self):
        with pytest.raises(ValueError):
            sweep_threshold([[1.0, 2.0]], [[True, False]])


class TestCsvExport:
    def test_sweep_csv_round_trip(self, tmp_path):
        sweep = sweep_threshold(*_pairs(same=[1.0, 2.0], diff=[10.0, 12.0]))
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, sweep)
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(sweep.rows)
        best = min(rows, key=lambda r: float(r["objective"]))
        assert float(best["h"]) == sweep.threshold
        assert float(best["objective"]) == sweep.objective

    def test_sweep_csv_matches_rows(self, tmp_path):
        sweep = sweep_threshold(*_pairs(same=[0.1, 1.0 / 3.0], diff=[0.7, 2.0]))
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, sweep)
        lines = path.read_text().splitlines()
        assert lines[0] == "h,fp,fn,tp,tn,objective"
        assert lines[1:] == [
            f"{float(r.h)!r},{r.fp},{r.fn},{r.tp},{r.tn},{float(r.objective)!r}"
            for r in sweep.rows
        ]

    def test_sweep_csv_bytes_equal_csv_writer(self, tmp_path):
        h = [5e-324, 1e-05, 0.1, 2.0, 1e16]
        big = [0, 1, 2**40, 10**15, 2**62]
        objective = [0.5, 1e-05, 2.0, 1e16, 1 / 3]
        rows = np.rec.fromarrays(
            [h, big, big[::-1], [7, 0, 3, 2**53 + 1, 5], [1, 2, 3, 4, 5], objective],
            names="h,fp,fn,tp,tn,objective",
        )
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, ThresholdSweep(threshold=2.0, objective=2.0, rows=rows))
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(rows.dtype.names)
        writer.writerows(rows.tolist())
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    @pytest.mark.parametrize("count", [2, 4095, 4096, 4097, 8193])
    def test_sweep_csv_bytes_equal_csv_writer_across_chunks(self, tmp_path, count):
        floats = [5e-324, 1e-05, 0.1, 1e16, 1.7976931348623157e308]
        k = np.arange(count)
        rows = np.rec.fromarrays(
            [np.resize(floats, count), k, count - k, k * 2**40, k % 7, np.resize(floats[::-1], count)],
            names="h,fp,fn,tp,tn,objective",
        )
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, ThresholdSweep(threshold=0.1, objective=0.1, rows=rows))
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(rows.dtype.names)
        writer.writerows(rows.tolist())
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    def test_sweep_csv_peak_memory_stays_at_one_chunk(self, tmp_path):
        # A crowd-sized sweep: 56 700 rows are about 3.2 MB of text and
        # 15 MB of Python values when formatted all at once.
        count = 56_700
        rng = np.random.default_rng(0)
        rows = np.rec.fromarrays(
            [np.sort(rng.random(count)) * 100.0, *rng.integers(0, 60_000, (4, count)),
             rng.random(count)],
            names="h,fp,fn,tp,tn,objective",
        )
        sweep = ThresholdSweep(threshold=1.0, objective=1.0, rows=rows)
        tracemalloc.start()
        try:
            write_sweep_csv(tmp_path / "sweep.csv", sweep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

    def test_histogram_csv_round_trip(self, tmp_path):
        hist = distance_histogram(*_pairs(same=[0.1, 0.2], diff=[0.9]), bin_count=2)
        path = tmp_path / "hist.csv"
        write_histogram_csv(path, hist)
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["same_count"]) for r in rows] == [2, 0]
        assert [int(r["diff_count"]) for r in rows] == [0, 1]
        assert float(rows[0]["bin_lo"]) == 0.0
        assert float(rows[-1]["bin_hi"]) == 0.9

    def test_histogram_dataclass_is_frozen(self):
        hist = DistanceHistogram(bin_edges=(0.0, 1.0), same_counts=(1,), diff_counts=(0,))
        with pytest.raises(AttributeError):
            hist.same_counts = (2,)
