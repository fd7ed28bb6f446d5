"""Time ``import blochlab`` in fresh interpreters, alternating between source trees.

Each round starts one interpreter per tree, in an order that reverses from one
round to the next.  Each interpreter imports numpy and json first, as every
user of the package does, then times ``import blochlab`` alone.  Each tree
is byte-compiled first, as ``bench/run.py`` does, so that compiling is not
timed.  Prints each tree's median and quartiles in milliseconds and the
number of rounds in which it was the fastest::

    python scripts/import_time.py src ../parent/src --rounds 30
"""

import argparse
import compileall
import os
import statistics
import subprocess
import sys

TIMER = """
import json, time
import numpy
start = time.perf_counter()
import blochlab
print(time.perf_counter() - start)
"""


def time_import(src: str) -> float:
    """Seconds that ``import blochlab`` from ``src`` takes in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", TIMER], env=env, capture_output=True, text=True, check=True
    )
    return float(out.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("src", nargs="+", help="a src directory holding the blochlab package")
    parser.add_argument("--rounds", type=int, default=30, help="interpreters per tree (default 30)")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2 for quartiles")
    for src in args.src:
        compileall.compile_dir(src, quiet=1)
    times = {src: [] for src in args.src}
    wins = dict.fromkeys(args.src, 0)
    for r in range(args.rounds):
        order = args.src if r % 2 == 0 else args.src[::-1]
        seconds = {src: time_import(src) for src in order}
        for src, s in seconds.items():
            times[src].append(s)
        wins[min(seconds, key=seconds.get)] += 1
    for src in args.src:
        q1, median, q3 = (1e3 * q for q in statistics.quantiles(times[src], n=4))
        print(f"{src}: median {median:.1f} ms (quartiles {q1:.1f}-{q3:.1f}), "
              f"fastest in {wins[src]}/{args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
