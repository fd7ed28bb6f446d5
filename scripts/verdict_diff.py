"""List every classification that differs between two source trees.

Runs ``run_classification`` from each tree in a fresh interpreter, over every
statement for the maps ``TEN_MAP_PANEL + ROTATION_PANEL`` and the symbols
``G_CORPUS`` plus ``log(2/(1-z))``, ``log(1/(1-z))`` and ``1/(1-z)`` (these
three reach the log-growth and failed-hypothesis paths), at each
``--max-shell`` depth.  The inputs are read from the first tree, so both
trees classify the same cases.  For each depth, prints each tree's sha256 of
the JSON report (timing excluded) and every case whose JSON changed as
``old -> new``, with its conclusion or error on each side::

    python scripts/verdict_diff.py ../parent/src src --max-shell 6 14 30

Exits 1 when any depth's reports differ, 0 when all are byte-identical.
"""

import argparse
import json
import os
import subprocess
import sys

INPUTS = """
import json
from blochlab import G_CORPUS, ROTATION_PANEL, TEN_MAP_PANEL, THEOREMS
print(json.dumps({
    "phi": list(TEN_MAP_PANEL + ROTATION_PANEL),
    "g": list(G_CORPUS) + ["log(2/(1-z))", "log(1/(1-z))", "1/(1-z)"],
    "theorems": sorted(THEOREMS),
}))
"""

CLASSIFY = """
import hashlib, json, sys
from blochlab import ExperimentSpec, run_classification, to_json
report = run_classification(ExperimentSpec.from_dict(json.load(sys.stdin)))
cases = {}
for case in report.cases:
    v = case.verdict
    label = v.conclusion.value if v is not None else "error: " + case.error
    cases[" ".join(case.key)] = [label, to_json(case.to_dict())]
text = to_json(report.to_dict(include_timing=False))
print(json.dumps({"sha256": hashlib.sha256(text.encode()).hexdigest(), "cases": cases}))
"""


def run(src: str, script: str, stdin: str = "") -> dict:
    """The JSON that ``script`` prints when run with ``blochlab`` from ``src`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", script], input=stdin, env=env, capture_output=True, text=True
    )
    if out.returncode != 0:
        sys.exit(f"{src}: classification failed\n{out.stderr}")
    return json.loads(out.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("src_a", help="the old src directory holding the blochlab package")
    parser.add_argument("src_b", help="the new src directory holding the blochlab package")
    parser.add_argument("--max-shell", type=int, nargs="+", default=[6, 14, 30],
                        help="grid depths K to compare (default 6 14 30)")
    args = parser.parse_args(argv)
    inputs = run(args.src_a, INPUTS)
    print(f"{len(inputs['phi'])} maps x {len(inputs['g'])} symbols x "
          f"{len(inputs['theorems'])} statements")
    differs = False
    for k in args.max_shell:
        spec = json.dumps(dict(inputs, grid={"max_shell": k}))
        old, new = (run(src, CLASSIFY, spec) for src in (args.src_a, args.src_b))
        changed = sorted(key for key in old["cases"].keys() | new["cases"].keys()
                         if old["cases"].get(key) != new["cases"].get(key))
        differs |= bool(changed) or old["sha256"] != new["sha256"]
        print(f"K={k}: {len(old['cases'])} cases, {len(changed)} changed")
        print(f"  {args.src_a}: {old['sha256']}")
        print(f"  {args.src_b}: {new['sha256']}")
        for key in changed:
            before, after = (side["cases"].get(key, ["absent"])[0] for side in (old, new))
            print(f"  {key}: {before} -> {after}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
