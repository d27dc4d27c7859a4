"""Entry point of the framescale benchmark.

    python3 benchmark/run.py --workload wide --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout: it imports framescale from
``src/`` and exits with code 2 when that is missing. BLAS is pinned to
``BLAS_THREADS`` threads before numpy loads. The last line of standard
output is the JSON result; a summary goes to standard error.
"""

import os
import sys
from pathlib import Path

BLAS_THREADS = 1


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "framescale" / "__init__.py").is_file():
        print(f"framescale sources not found under {root / 'src'}", file=sys.stderr)
        return 2
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(root / "src"))
    import harness

    return harness.main(sys.argv[1:], root, int(threads))


if __name__ == "__main__":
    sys.exit(main())
