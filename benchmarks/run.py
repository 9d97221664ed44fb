"""Entry point of the biaslab benchmark; see harness.py and README.md.

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. BLAS and OpenMP pools are capped at the cores
this process may use before numpy is imported, so that the numbers measure
the program and not the scheduler.
"""

import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def cap_blas_threads() -> None:
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= cap:
            os.environ[var] = str(cap)


if __name__ == "__main__":
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "biaslab" / "__init__.py").is_file():
        print("error: no biaslab sources at %s" % src, file=sys.stderr)
        sys.exit(2)
    cap_blas_threads()
    sys.path.insert(0, str(src))
    import harness

    sys.exit(harness.main())
