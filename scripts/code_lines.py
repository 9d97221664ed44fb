"""Count the physical, code and docstring lines of the package and the benchmark.

    python3 scripts/code_lines.py

Run from anywhere inside the repository. For each module of
``src/biaslab/*.py`` and of ``benchmarks/*.py``, and for each set in total, it
prints three counts:

- lines: physical lines, as ``wc -l`` counts them;
- code: non-blank lines that are neither ``#`` comments nor inside the span
  of a module, class or function docstring, as ``ast`` gives it;
- doc: the lines inside those docstring spans.

It then prints the number of names in ``__all__``, read from
``src/biaslab/__init__.py`` with ``ast``, without importing the package.
Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = (("src/biaslab", ROOT / "src" / "biaslab"), ("benchmarks", ROOT / "benchmarks"))
DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers, from 1, inside the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCSTRING_OWNERS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    """The physical, code and docstring line counts of one module."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    code = sum(
        1
        for number, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docs
    )
    return {"lines": text.count("\n"), "code": code, "doc": len(docs)}


def all_names(path: Path) -> int:
    """The length of the ``__all__`` list or tuple assigned in a module."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return len(node.value.elts)
    raise SystemExit("%s assigns no __all__" % path)


def main() -> int:
    row = "%-32s %6s %6s %6s"
    print(row % ("module", "lines", "code", "doc"))
    for name, directory in SETS:
        total = {"lines": 0, "code": 0, "doc": 0}
        for path in sorted(directory.glob("*.py")):
            counts = count(path)
            print(row % ("%s/%s" % (name, path.name), *counts.values()))
            total = {key: total[key] + counts[key] for key in total}
        print(row % ("%s total" % name, *total.values()))
    print("__all__ names: %d" % all_names(ROOT / "src" / "biaslab" / "__init__.py"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
