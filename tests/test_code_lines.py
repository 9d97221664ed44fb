"""The line counts that scripts/code_lines.py prints, on a synthetic module and on the package."""

import subprocess
import sys
from pathlib import Path

import biaslab

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
if str(SCRIPTS) not in sys.path:
    sys.path.insert(0, str(SCRIPTS))

import code_lines  # noqa: E402

MODULE = '''"""A module docstring

# over three lines, one of them blank."""

# a comment line
import math  # an inline comment


class Shape:
    def area(self):
        """A method docstring."""

        return math.pi
'''


def test_counts_of_a_small_module(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(MODULE)
    # Docstring lines are those of the two spans, the blank one included; the
    # code lines are the import, the class, the def and the return.
    assert code_lines.count(path) == {"lines": 13, "code": 4, "doc": 4}


def test_the_printed_all_count_is_the_package_s():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "code_lines.py")], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "__all__ names: %d" % len(biaslab.__all__)
