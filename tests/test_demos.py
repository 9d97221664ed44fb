"""The demo scripts and README's examples run against the package sources."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from biaslab.estimators import MAX_DEPTH, MIN_LEAF, N_TREES
from biaslab.experiment import CSV_HEADER, parse_config

ROOT = Path(__file__).resolve().parent.parent

# small_table.py runs a full grid (about 10 s) and is left out.
DEMOS = ("linear_omitted_bias", "mixture_moments", "probit_closed_forms")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / ("%s.py" % name))],
        capture_output=True, text=True, cwd=ROOT, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


README = (ROOT / "README.md").read_text()


def readme_block(after: str, lang: str = "") -> str:
    """The first fenced block of a language that follows a line of README.md."""
    return re.search(r"%s\n.*?```%s\n(.*?)```" % (re.escape(after), lang), README, re.S).group(1)


def test_readme_quick_look_runs():
    exec(compile(readme_block("## Quick look", "python"), "README.md", "exec"), {})


def test_readme_config_schema_parses():
    config = parse_config(json.loads(readme_block("### Config schema", "json")))
    assert config.cells[0].dgp.n_per_group == 10_000


def test_readme_csv_columns_are_the_csv_header():
    assert "".join(readme_block("CSV columns:").split()) == CSV_HEADER


def test_readme_numerics_states_the_forest_shape():
    numerics = README.split("## Numerics", 1)[1]
    shape = "%d trees, depth %d, minimum leaf %d" % (N_TREES, MAX_DEPTH, MIN_LEAF)
    assert shape in " ".join(numerics.split())
