"""Compare two results files of run.py (see icpebench/compare.py)."""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from icpebench.compare import main

    sys.exit(main())
