"""Entry point of the end-to-end ICPE benchmark (see README.md here).

    python3 benchmarks/e2e/run.py                      # every workload
    python3 benchmarks/e2e/run.py --workload taxi_dense_vba --seed 7 --seconds 6 --trace 0
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parents[1] / "src"

if __name__ == "__main__":
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        sys.exit(f"the benchmark measures the repro package; {SRC_DIR} has none")
    sys.path[:0] = [str(BENCH_DIR), str(SRC_DIR)]
    from icpebench.runner import main

    sys.exit(main())
