"""Time each ``verify`` check serially in one process, slowest first.

Runs every check once to warm imports, caches and the heap, then runs each
check once more through ``verify._run_check`` and prints its wall seconds and
the minor page faults it took (``ru_minflt``), sorted by seconds, with the
totals last.  Pooled ``blochlab verify`` wall time is about the sum of the
checks' CPU over the worker count, so this table shows where a pooled run's
time goes.  For steady figures pin one CPU and one BLAS thread::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src taskset -c 0 python scripts/verify_check_times.py
"""

import resource
import sys
import time

from blochlab import verify


def time_checks() -> list[tuple[str, float, int, bool]]:
    """``(name, seconds, minor faults, passed)`` for every check, after one warm pass."""
    names = verify.available_checks("all")
    for name in names:
        verify._run_check(name)
    rows = []
    for name in names:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        result = verify._run_check(name)
        seconds = time.perf_counter() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        rows.append((name, seconds, faults, result.passed))
    return sorted(rows, key=lambda row: row[1], reverse=True)


def main() -> int:
    rows = time_checks()
    width = max(len(name) for name, *_ in rows)
    print(f"{'check':<{width}}  {'seconds':>8}  {'minflt':>8}")
    for name, seconds, faults, passed in rows:
        print(f"{name:<{width}}  {seconds:8.4f}  {faults:8d}{'' if passed else '  FAILED'}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):8.4f}  {sum(r[2] for r in rows):8d}")
    return 0 if all(r[3] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
