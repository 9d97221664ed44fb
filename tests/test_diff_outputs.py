"""The listing that scripts/diff_outputs.py prints, on canned json rows."""

import math
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
if str(SCRIPTS) not in sys.path:
    sys.path.insert(0, str(SCRIPTS))

import bench_pairs  # noqa: E402
import diff_outputs  # noqa: E402


def row(model, b_g0, b_pop=1e-17, verdict="consistent", error=""):
    """A json row of ``biaslab run``, trimmed to the columns the tests read."""
    return {"dgp": "probit", "model": model, "features": "x1_only", "replications": 2,
            "b_pop": b_pop, "b_g0": b_g0, "verdict": verdict, "error": error}


def test_moved_values_carry_cell_column_both_sides_and_the_moves():
    parent = [row("ols", 0.5), row("probit", 0.25, b_pop=3e-17)]
    change = [row("ols", 0.5), row("probit", 0.25 + 2**-40, b_pop=-2e-17)]
    found = diff_outputs.compare_rows(parent, change)
    assert found["flipped"] == found["errors"] == []
    b_g0, b_pop = sorted(found["moved"], key=lambda m: m["column"])
    assert b_g0 == {"cell": 1, "label": "probit/probit/x1_only", "column": "b_g0",
                    "parent": 0.25, "change": 0.25 + 2**-40, "abs": 2**-40,
                    "rel": 2**-38, "rounding": False}
    assert b_pop["abs"] == pytest.approx(5e-17) and b_pop["rounding"]
    lines = diff_outputs.listing("sweep seed 1", found)
    assert lines[0] == ("sweep seed 1: 2 values moved in 1 rows, largest move 9.1e-13"
                        " absolute, 3.6e-12 relative; 0 verdicts flipped, 0 error rows changed")
    assert lines[1].startswith("  cell 1 probit/probit/x1_only b_pop: 3e-17 -> -2e-17  abs 5e-17")
    assert lines[1].endswith("(rounding)")
    assert "(rounding)" not in lines[2] and "abs 9.09e-13 rel 3.64e-12" in lines[2]


def test_flipped_verdicts_and_error_rows_are_listed_apart():
    parent = [row("ols", 0.5), row("probit", 0.2), row("logit", 0.1, verdict="error",
                                                        error="replication 0: SeparationError")]
    change = [row("ols", 0.5, verdict="inconsistent"), row("probit", None, verdict="error",
                                                          error="replication 1: x"),
              row("logit", 0.1)]
    found = diff_outputs.compare_rows(parent, change)
    assert found["flipped"] == [{"cell": 0, "label": "probit/ols/x1_only",
                                 "parent": "consistent", "change": "inconsistent"}]
    assert [(e["cell"], e["parent"], e["change"]) for e in found["errors"]] == [
        (1, "consistent", "error"), (2, "error", "consistent")]
    missing = next(m for m in found["moved"] if m["column"] == "b_g0")
    assert (missing["parent"], missing["change"], missing["abs"]) == (0.2, None, None)
    lines = diff_outputs.listing("table1", found)
    assert "1 verdicts flipped, 2 error rows changed" in lines[0]
    assert "  FLIP cell 0 probit/ols/x1_only: consistent -> inconsistent" in lines
    assert any(line.startswith("  ERROR ROW cell 2 probit/logit/x1_only: error -> consistent")
               for line in lines)


def test_a_zero_parent_value_moves_by_an_infinite_relative_amount():
    found = diff_outputs.compare_rows([row("ols", 0.0)], [row("ols", 0.5)])
    (moved,) = found["moved"]
    assert moved["rel"] == math.inf and moved["abs"] == 0.5


def test_a_column_that_only_one_side_has_is_listed():
    parent = row("ols", 0.5)
    for old, new in (([parent], [dict(parent, se_x=0.1)]), ([dict(parent, se_x=0.1)], [parent])):
        (moved,) = diff_outputs.compare_rows(old, new)["moved"]
        assert moved["column"] == "se_x" and moved["abs"] is None
        assert {moved["parent"], moved["change"]} == {0.1, None}


def test_the_trees_are_extracted_by_bench_pairs():
    assert diff_outputs.extract is bench_pairs.extract
    assert diff_outputs.git is bench_pairs.git and diff_outputs.SIDES == bench_pairs.SIDES


def test_runs_of_different_grids_are_refused():
    with pytest.raises(ValueError, match="cells differ"):
        diff_outputs.compare_rows([row("ols", 0.5)], [row("probit", 0.5)])
    with pytest.raises(ValueError, match="cells differ"):
        diff_outputs.compare_rows([row("ols", 0.5)], [row("ols", 0.5)] * 2)


def test_the_runs_cover_the_three_benchmark_configs_and_table1():
    names = [name for name, _ in diff_outputs.RUNS]
    assert names == ["parametric", "forest", "sweep seed 20240914", "sweep seed 1",
                     "sweep seed 2", "table1"]
    for _, args in diff_outputs.RUNS:
        assert args[-2:] == ("--format", "json")
        if args[0] == "run":
            assert (SCRIPTS.parent / args[2]).is_file()
    assert diff_outputs.RUNS[-1][1][:3] == ("table1", "--replications", "2")
