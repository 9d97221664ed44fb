"""The summary that scripts/bench_pairs.py writes into a BENCH file, on canned result lines."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def line(grid_s, peak_rss_mb, correct=True):
    """A run.py result line with two of the three end-to-end metrics."""
    return {
        "correct": correct,
        "attempted": 5,
        "failed": 0 if correct else 1,
        "metrics": {
            "grid_s": {"value": grid_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        },
    }


BETTER = {"grid_s": "lower", "peak_rss_mb": "lower", "consistent_frac": "higher"}


def test_summary_of_pairs():
    pairs = [
        {"parent": line(4.0, 80.0), "change": line(3.0, 80.0)},
        {"parent": line(4.2, 81.0), "change": line(2.8, 79.0)},
        {"parent": line(3.8, 80.0), "change": line(3.9, 82.0, correct=False)},
        {"parent": None, "change": line(2.9, 80.0)},
    ]
    got = bench_pairs.summarise(pairs, BETTER)
    assert got["pairs"] == 4
    assert got["failed_runs"] == {"parent": 1, "change": 1}
    grid = got["metrics"]["grid_s"]
    assert grid["better"] == "lower"
    assert grid["parent"]["values"] == [4.0, 4.2, 3.8]
    assert grid["parent"]["n"] == 3 and grid["parent"]["median"] == 4.0
    assert (grid["parent"]["q1"], grid["parent"]["q3"]) == pytest.approx((3.8, 4.2))
    assert (grid["parent"]["min"], grid["parent"]["max"]) == (3.8, 4.2)
    assert grid["change"]["values"] == [3.0, 2.8, 3.9, 2.9]
    assert grid["change"]["median"] == pytest.approx(2.95)
    # The fourth pair has no parent line, so it counts for neither side.
    assert grid["wins"] == {"parent": 1, "change": 2}
    # The first pair ties on memory.
    assert got["metrics"]["peak_rss_mb"]["wins"] == {"parent": 1, "change": 1}
    absent = got["metrics"]["consistent_frac"]
    assert absent["parent"] == {"n": 0, "median": None, "values": []}
    assert absent["wins"] == {"parent": 0, "change": 0}


def test_a_higher_better_metric_counts_the_larger_value_as_a_win():
    pairs = [
        {"parent": line(1.0, 50.0), "change": line(2.0, 60.0)},
        {"parent": line(3.0, 50.0), "change": line(2.0, 40.0)},
        {"parent": line(3.0, 50.0), "change": line(2.5, 70.0)},
    ]
    got = bench_pairs.summarise(pairs, {"grid_s": "higher", "peak_rss_mb": "higher"})
    assert got["metrics"]["grid_s"]["wins"] == {"parent": 2, "change": 1}
    assert got["metrics"]["peak_rss_mb"]["wins"] == {"parent": 1, "change": 2}
    single = bench_pairs.side_summary([5.0])
    assert single == {"n": 1, "median": 5.0, "values": [5.0]}
