"""One benchmark process: set up a workload, then run iterations on request.

Started by ``run.py`` in a fresh interpreter.  It speaks one JSON object per
line on its standard output:

* after set-up: ``{"setup_s", "cases", "points"}``;
* then, for each line read from standard input:
  ``warmup`` / ``untraced`` / ``traced`` runs one iteration, checks it and
  answers ``{"elapsed_s", "attempted", "failed", "notes", "layers"}``;
  ``stop`` answers ``{"peak_rss_mb"}`` and exits.

Between iterations the process waits for its next command, so ``run.py`` can
time its host probe without competing with an iteration.  ``setup_s`` runs
from the first line of this file to the end of the workload's set-up, so it
includes importing blochlab.
"""

import time

SETUP_START = time.perf_counter()

import os  # noqa: E402

# Pin BLAS/OpenMP pools to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import blochlab  # noqa: E402

import workloads  # noqa: E402


def _write_spans(path: str, spans) -> None:
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps([s.name, s.start, s.end, index.get(id(s.parent), -1)]) + "\n")


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace-setup", action="store_true",
                   help="trace the set-up and allow traced iterations, which include its spans")
    p.add_argument("--spans-out", default=None, help="file for the last traced spans")
    args = p.parse_args()

    # Replies go to the real standard output; anything else printed goes to stderr.
    replies = sys.stdout
    sys.stdout = sys.stderr

    def reply(obj: dict) -> None:
        replies.write(json.dumps(obj) + "\n")
        replies.flush()

    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.load_reference())
    check_names = blochlab.available_checks("all")
    tracer = None
    if args.trace_setup:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    workload.setup()
    setup_s = time.perf_counter() - SETUP_START
    setup_spans = []
    if args.trace_setup:
        setup_spans = tracer.take()
        tracer.uninstall()
    reply({"setup_s": setup_s, "cases": workload.cases, "points": workload.points})

    for command in sys.stdin:
        command = command.strip()
        if command == "stop":
            break
        if command not in ("warmup", "untraced", "traced") or (command == "traced" and not tracer):
            raise SystemExit(f"unexpected command {command!r}")
        traced = command == "traced"
        if traced:
            tracer.install()
        start = time.perf_counter()
        output = workload.iterate()
        elapsed = time.perf_counter() - start
        layers = None
        if traced:
            spans = tracer.take()
            tracer.uninstall()
            layers = layer_metrics(setup_spans + spans, check_names)
            if args.spans_out:
                _write_spans(args.spans_out, setup_spans + spans)
        attempted, failed, notes = workload.check(output)
        reply({"elapsed_s": elapsed, "attempted": attempted, "failed": failed,
               "notes": notes[:5], "layers": layers})

    reply({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
