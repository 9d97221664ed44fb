"""Benchmark this checkout against a parent commit in alternating pairs; write BENCH_<sha>.json.

    python3 scripts/bench_pairs.py --seed 17

Run from anywhere inside the repository. The parent (``--base``, default
``HEAD~1``) is extracted with ``git archive`` into a temporary directory, so
the repository's ``.git`` is only read. Each pair runs the benchmark command
of ``BENCHMARK.json``,

    python3 benchmarks/run.py --workload W --seed S --seconds 25 --trace 0

once in each tree for every workload it lists, ten pairs each, the parent
first in even pairs and the change first in odd ones. Then three pairs of
default ``biaslab table1`` runs alternate the same way; each run's seconds
and exit code, whether the pair wrote the same bytes, and each side's median
seconds are kept. The file goes to the repository root,
named after HEAD's short sha, and holds per side and metric the median,
quartiles, count and values, the pairs each side won, both shas, and the
Python, numpy and scipy versions and usable core count that run.py reports.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10
TABLE1_PAIRS = 3
# The keys of run.py's environment line that a BENCH file keeps; nproc is
# the usable core count.
ENVIRONMENT = ("python", "numpy", "scipy", "nproc")


def side_summary(values: list[float]) -> dict:
    # Mirrors benchmarks/harness.py's summary, which cannot be imported here:
    # harness pulls in numpy and biaslab. An empty list has no median.
    out = {"n": len(values), "median": statistics.median(values) if values else None}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, min=min(values), max=max(values))
    out["values"] = values
    return out


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per-metric summaries and pair wins from run.py result lines.

    Each pair maps "parent" and "change" to the JSON object that run.py
    prints last, or to None where the run gave none. ``better`` maps each
    metric name to "lower" or "higher". A pair counts for a metric only when
    both sides report it; a tie counts for neither side.
    """
    metrics = {}
    for name, direction in better.items():
        values = {side: [] for side in SIDES}
        wins = {side: 0 for side in SIDES}
        for pair in pairs:
            got = {}
            for side in SIDES:
                line = pair[side]
                if line is not None and name in line["metrics"]:
                    got[side] = line["metrics"][name]["value"]
                    values[side].append(got[side])
            if len(got) == 2 and got["parent"] != got["change"]:
                change_lower = got["change"] < got["parent"]
                wins["change" if change_lower == (direction == "lower") else "parent"] += 1
        metrics[name] = {
            "better": direction,
            **{side: side_summary(values[side]) for side in SIDES},
            "wins": wins,
        }
    failed = {
        side: sum(pair[side] is None or not pair[side]["correct"] for pair in pairs)
        for side in SIDES
    }
    return {"pairs": len(pairs), "failed_runs": failed, "metrics": metrics}


def git(root: Path, *args: str) -> str:
    done = subprocess.run(
        ["git", *args], cwd=root, capture_output=True, text=True, check=True, timeout=120
    )
    return done.stdout.strip()


def extract(root: Path, sha: str, into: Path) -> None:
    """Write the files of commit ``sha`` into the directory ``into``."""
    archive = subprocess.Popen(
        ["git", "archive", "--format=tar", sha], cwd=root, stdout=subprocess.PIPE
    )
    untar = subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, timeout=300)
    archive.stdout.close()
    if archive.wait(timeout=300) != 0 or untar.returncode != 0:
        raise SystemExit("error: could not extract %s" % sha)


def run_benchmark(tree: Path, command: list[str], workload: str, seed: int, seconds: float):
    """run.py's result line and ``environment:`` line in ``tree``, each None if absent."""
    args = [sys.executable, *command[1:], "--workload", workload, "--seed", str(seed)]
    args += ["--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(args, cwd=tree, capture_output=True, text=True, timeout=3600)
    lines = done.stdout.strip().splitlines()
    env = next(
        (json.loads(text.partition(":")[2]) for text in lines if text.startswith("environment:")),
        None,
    )
    try:
        return json.loads(lines[-1]), env
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stderr)
        return None, env


def time_table1(tree: Path, out: Path) -> dict:
    """Wall seconds and exit code of one default ``biaslab table1`` in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "biaslab", "table1", "--out", str(out)],
        cwd=tree, env=env, timeout=3600,
    )
    return {"seconds": time.perf_counter() - started, "exit": done.returncode}


def table1_summary(pairs: list[dict]) -> dict:
    """The table1 pairs and each side's median seconds.

    Each pair maps "parent" and "change" to a ``time_table1`` result and
    "same_bytes" to whether the two runs wrote the same file.
    """
    medians = {
        side: {"median_seconds": statistics.median(pair[side]["seconds"] for pair in pairs)}
        for side in SIDES
    }
    return {"pairs": pairs, **medians}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--base", default="HEAD~1", help="the parent commit (default HEAD~1)")
    args = parser.parse_args(argv)

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    head, parent = git(root, "rev-parse", "HEAD"), git(root, "rev-parse", args.base)
    record = {
        "change": {"sha": head, "dirty": bool(git(root, "status", "--porcelain"))},
        "parent": {"sha": parent},
        "environment": None,
        "command": "%s --workload W --seed %d --seconds %s --trace 0"
        % (" ".join(spec["command"]), args.seed, spec["run_seconds"]),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": root}
        trees["parent"].mkdir()
        extract(root, parent, trees["parent"])
        for workload in (w["name"] for w in spec["workloads"]):
            pairs = []
            for index in range(PAIRS):
                pair = {}
                for side in SIDES if index % 2 == 0 else SIDES[::-1]:
                    pair[side], env = run_benchmark(
                        trees[side], spec["command"], workload, args.seed, spec["run_seconds"]
                    )
                    if side == "change" and env is not None:
                        record["environment"] = {key: env[key] for key in ENVIRONMENT}
                pairs.append(pair)
                print("%s pair %d: %s" % (workload, index + 1, json.dumps(pair)), flush=True)
            record["workloads"][workload] = {"seed": args.seed, **summarise(pairs, better)}
        table1 = []
        for index in range(TABLE1_PAIRS):
            outputs = {side: Path(tmp) / ("table1-%s.md" % side) for side in SIDES}
            pair = {}
            for side in SIDES if index % 2 == 0 else SIDES[::-1]:
                pair[side] = time_table1(trees[side], outputs[side])
            pair["same_bytes"] = outputs["parent"].read_bytes() == outputs["change"].read_bytes()
            table1.append(pair)
            print("table1 pair %d: %s" % (index + 1, json.dumps(pair)), flush=True)
        record["table1"] = table1_summary(table1)
    path = root / ("BENCH_%s.json" % head[:7])
    path.write_text(json.dumps(record, indent=1) + "\n")
    print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
