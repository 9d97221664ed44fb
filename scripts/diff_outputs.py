"""List the emitted values that moved between a parent commit and this checkout.

    python3 scripts/diff_outputs.py --base SHA [--change SHA]

Run from anywhere inside the repository. The parent (``--base``) is extracted
with ``git archive`` into a temporary directory by ``scripts/bench_pairs.py``'s
``extract``; the change is the working tree, or ``--change SHA`` extracted the
same way. On both sides it runs ``biaslab run --format json`` on the three
benchmark configs (the sweep at seeds 20240914, 1 and 2) and ``biaslab
table1 --replications 2 --format json``, and prints, per run:

- each value that moved, with its cell, column, both values and the absolute
  and relative move; a value whose two sides are both below 1e-12 in
  magnitude is marked as rounding;
- each flipped verdict, and each error row that appears or disappears.

The exit status is 1 if any verdict flipped or any error row appeared or
disappeared, else 0. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import SIDES, extract, git

ROUNDING = 1e-12
SWEEP_SEEDS = (20240914, 1, 2)
# (name, arguments of ``python -m biaslab``), each run in both trees
RUNS = (
    ("parametric", ("run", "--config", "benchmarks/configs/parametric.json", "--format", "json")),
    ("forest", ("run", "--config", "benchmarks/configs/forest.json", "--format", "json")),
    *(
        ("sweep seed %d" % seed,
         ("run", "--config", "benchmarks/configs/sweep.json", "--seed", str(seed),
          "--format", "json"))
        for seed in SWEEP_SEEDS
    ),
    ("table1", ("table1", "--replications", "2", "--format", "json")),
)
# The columns that name a row rather than report on it.
KEYS = ("dgp", "model", "features")


def label(row: dict) -> str:
    return "/".join(str(row[key]) for key in KEYS)


def compare_rows(parent: list[dict], change: list[dict]) -> dict:
    """What moved between two runs' json rows, matched by position.

    Returns "moved", one entry per changed value (cell index, its label, the
    column, both values, the absolute and relative move and the rounding
    mark), "flipped", one per verdict that went from consistent to
    inconsistent or back, and "errors", one per error row that appears or
    disappears. A missing value (non-finite, or in a column that only one
    side has) has no move. Rows of different count or labels raise
    ValueError: the two runs are not of one grid.
    """
    if [label(r) for r in parent] != [label(r) for r in change]:
        raise ValueError("the two runs' cells differ: %s against %s"
                         % ([label(r) for r in parent], [label(r) for r in change]))
    moved, flipped, errors = [], [], []
    for cell, (old, new) in enumerate(zip(parent, change)):
        verdicts = (old.get("verdict"), new.get("verdict"))
        if "error" in verdicts and verdicts[0] != verdicts[1]:
            errors.append({"cell": cell, "label": label(old), "parent": verdicts[0],
                           "change": verdicts[1], "error": old["error"] or new["error"]})
        elif verdicts[0] != verdicts[1]:
            flipped.append({"cell": cell, "label": label(old), "parent": verdicts[0],
                            "change": verdicts[1]})
        for column in old | new:
            a, b = old.get(column), new.get(column)
            if column in KEYS or column == "verdict":
                continue
            if a == b and column in old and column in new:
                continue
            entry = {"cell": cell, "label": label(old), "column": column, "parent": a,
                     "change": b, "abs": None, "rel": None, "rounding": False}
            if isinstance(a, (int, float)) and isinstance(b, (int, float)):
                entry["abs"] = abs(b - a)
                entry["rel"] = entry["abs"] / abs(a) if a else math.inf
                entry["rounding"] = max(abs(a), abs(b)) < ROUNDING
            moved.append(entry)
    return {"moved": moved, "flipped": flipped, "errors": errors}


def listing(name: str, found: dict) -> list[str]:
    """The printed lines for one run's ``compare_rows`` result."""
    moved = found["moved"]
    real = [m for m in moved if m["abs"] is not None and not m["rounding"]]
    head = "%s: %d values moved in %d rows" % (
        name, len(moved), len({m["cell"] for m in moved}))
    if real:
        head += ", largest move %.2g absolute, %.2g relative" % (
            max(m["abs"] for m in real), max(m["rel"] for m in real))
    head += "; %d verdicts flipped, %d error rows changed" % (
        len(found["flipped"]), len(found["errors"]))
    lines = [head]
    for m in moved:
        if m["abs"] is None:
            move = "no move (a side is missing or not a number)"
        else:
            move = "abs %.3g rel %.3g" % (m["abs"], m["rel"])
        lines.append("  cell %d %s %s: %r -> %r  %s%s" % (
            m["cell"], m["label"], m["column"], m["parent"], m["change"], move,
            "  (rounding)" if m["rounding"] else ""))
    for f in found["flipped"]:
        lines.append("  FLIP cell %d %s: %s -> %s" % (f["cell"], f["label"], f["parent"],
                                                      f["change"]))
    for e in found["errors"]:
        lines.append("  ERROR ROW cell %d %s: %s -> %s (%s)" % (
            e["cell"], e["label"], e["parent"], e["change"], e["error"]))
    return lines


def run_rows(tree: Path, args: tuple[str, ...]) -> list[dict]:
    """The json rows of one ``python -m biaslab`` run in ``tree``; exit 0 or 1 (a verdict)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-m", "biaslab", *args], cwd=tree, env=env,
                          capture_output=True, text=True, timeout=3600)
    if done.returncode not in (0, 1):
        raise SystemExit("error: %s in %s exited %d\n%s"
                         % (" ".join(args), tree, done.returncode, done.stderr))
    return json.loads(done.stdout)["rows"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the parent commit")
    parser.add_argument("--change", default=None,
                        help="the changed commit (default: the working tree)")
    args = parser.parse_args(argv)

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    status = 0
    with tempfile.TemporaryDirectory(prefix="diff_outputs_") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": root}
        extract(root, git(root, "rev-parse", args.base), trees["parent"])
        if args.change is not None:
            trees["change"] = Path(tmp) / "change"
            extract(root, git(root, "rev-parse", args.change), trees["change"])
        print("parent %s, change %s" % (args.base, args.change or "working tree"))
        for name, run_args in RUNS:
            rows = {side: run_rows(trees[side], run_args) for side in SIDES}
            found = compare_rows(rows["parent"], rows["change"])
            print("\n".join(listing(name, found)), flush=True)
            if found["flipped"] or found["errors"]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
