"""Put the package sources and the benchmark modules on the import path.

Run from the repository root: ``python3 -m pytest -q bench/tests``.
"""

import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

BENCH_DIR = Path(__file__).resolve().parents[1]
for path in (BENCH_DIR.parent / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
