"""blochlab benchmark: one workload, one seed, end-to-end or per-layer metrics.

Run from the repository root::

    python3 bench/run.py --workload panel_sweep --seed 0 --seconds 50 --trace 0
    python3 bench/run.py --workload dense_grid --seed 0 --seconds 50 --trace 1

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a traced run.  The last line of output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before it
print every metric with its unit and sample count, and the environment.
The command exits nonzero if any output differs from ``reference.json``.

Every measurement runs in a fresh interpreter (``worker.py``), one process
at a time: a closed loop with one client.  Between the workers' samples this
process times a fixed host probe (``calibrate.py``), and scales each sample
by the probe times around it, so that most of the drift in a shared host's
speed cancels out.  See ``README.md`` in this directory for the
workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
WORKLOADS = ("panel_sweep", "dense_grid", "verify_all")
#: ``verify`` fills ``lru_cache`` fixtures (grids, self-maps, norms) on first
#: use, so each of its iterations runs in a fresh interpreter and pays that,
#: as a user's ``blochlab verify --suite all`` does.
FRESH_PER_ITERATION = {"verify_all"}
#: fresh interpreters started only to time set-up, besides the measuring ones
SETUP_SAMPLES = 4
#: after each iteration or set-up, the host probe runs for this share of its
#: wall time, and for at least PROBE_MIN_S
PROBE_SHARE = 0.2
PROBE_MIN_S = 0.4
#: every worker must end by then, so the command ends within 180 s
DEADLINE_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)])
    env.update({var: "1" for var in THREAD_VARS})
    return env


_START = time.perf_counter()


class Worker:
    """A ``worker.py`` process driven one command at a time; see its docstring.

    Use it as a context manager: on every way out the process is killed if
    it still runs, and waited for.
    """

    def __init__(self, workload: str, seed: int, trace: bool = False):
        BUILD_DIR.mkdir(exist_ok=True)
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
               "--seed", str(seed)]
        if trace:
            cmd += ["--trace-setup", "--spans-out", str(BUILD_DIR / f"spans-{workload}.jsonl")]
        self.stderr = open(BUILD_DIR / "worker-stderr.log", "w+", encoding="utf-8")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.stderr, text=True)
        # Past the deadline the process is killed, which ends a blocked read.
        remaining = max(1.0, DEADLINE_S - (time.perf_counter() - _START))
        self.watchdog = threading.Timer(remaining, self.proc.kill)
        self.watchdog.daemon = True
        self.watchdog.start()
        try:
            self.ready = self._read()
        except BaseException:
            self.__exit__()
            raise

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        self.watchdog.cancel()
        try:
            # After ``stop`` the worker exits by itself.
            self.proc.wait(timeout=10 if exc and exc[0] is None else 0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout, self.stderr):
            stream.close()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            self.stderr.seek(0)
            raise BenchError(f"worker ended ({self.proc.returncode}) without an answer; "
                             f"-9 means it was killed at the {DEADLINE_S} s deadline: "
                             f"{self.stderr.read().strip()[-2000:]}")
        return json.loads(line)

    def send(self, command: str) -> dict:
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass  # the worker has ended; reading reports why
        return self._read()


def _environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: "1" for var in THREAD_VARS},
    }


def tail_index(n: int) -> int:
    """Index in sorted samples of the nearest-rank 75th percentile."""
    return max(0, math.ceil(0.75 * n) - 1)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload's processes and the host probe; return the raw samples.

    The probe runs here, never alongside a worker: after every set-up and
    iteration it runs for ``PROBE_SHARE`` of that sample's time, and for at
    least ``PROBE_MIN_S``.  ``events`` keeps every timed sample in the order
    taken, as ``[kind, wall_s]`` with kind ``probe``, ``setup``, ``iter`` or
    ``traced``.
    """
    m = {"events": [], "layers": [], "rss_mb": 0.0, "attempted": 0, "failed": 0, "notes": []}

    def probe(after_s: float) -> None:
        spent = 0.0
        while spent < max(PROBE_MIN_S, PROBE_SHARE * after_s):
            wall = calibrate.probe()
            m["events"].append(["probe", wall])
            spent += wall

    def iteration(worker: Worker, traced: bool) -> float:
        r = worker.send("traced" if traced else "untraced")
        m["events"].append(["traced" if traced else "iter", r["elapsed_s"]])
        if r["layers"] is not None:
            m["layers"].append(r["layers"])
        tally(r)
        return r["elapsed_s"]

    def setup(worker: Worker) -> float:
        m["cases"], m["points"] = worker.ready["cases"], worker.ready["points"]
        m["events"].append(["setup", worker.ready["setup_s"]])
        return worker.ready["setup_s"]

    def tally(r: dict) -> None:
        m["attempted"] += r["attempted"]
        m["failed"] += r["failed"]
        m["notes"] += r["notes"]

    def stop(worker: Worker) -> None:
        m["rss_mb"] = max(m["rss_mb"], worker.send("stop")["peak_rss_mb"])

    def keep_going(start: float, durations: list[float], minimum: int) -> bool:
        typical = statistics.median(durations) if durations else 0.0
        return len(durations) < minimum or time.perf_counter() - start + typical <= seconds

    # Write the bytecode caches first, so no set-up sample pays for them.
    for tree in (ROOT / "src", BENCH_DIR):
        compileall.compile_dir(tree, quiet=1)
    probe(0.0)
    for _ in range(0 if trace else SETUP_SAMPLES):
        with Worker(workload, seed) as w:
            spent = setup(w)
            stop(w)
        probe(spent)
    minimum = 4 if trace else 3
    durations: list[float] = []
    if workload in FRESH_PER_ITERATION:
        start = time.perf_counter()
        while keep_going(start, durations, minimum):
            began = time.perf_counter()
            traced = trace and len(durations) % 2 == 1
            with Worker(workload, seed, trace=traced) as w:
                spent = setup(w) + iteration(w, traced)
                stop(w)
            probe(spent)
            durations.append(time.perf_counter() - began)
        return m

    with Worker(workload, seed, trace=trace) as w:
        spent = setup(w)
        r = w.send("warmup")
        tally(r)
        probe(spent + r["elapsed_s"])
        start = time.perf_counter()
        while keep_going(start, durations, minimum):
            began = time.perf_counter()
            probe(iteration(w, trace and len(durations) % 2 == 1))
            durations.append(time.perf_counter() - began)
        stop(w)
    return m


def _probes_beside(events: list, i: int, step: int, enough_s: float) -> list[float]:
    """Probe times from ``events[i]`` towards ``step``: whole runs of probes
    until they add up to ``enough_s``, or the events end."""
    probes, j = [], i + step
    while 0 <= j < len(events):
        if events[j][0] == "probe":
            probes.append(events[j][1])
        elif sum(probes) >= enough_s:
            break
        j += step
    return probes


def normalised(m: dict, kind: str) -> list[float]:
    """Each ``kind`` sample at the host's reference speed.

    A sample is scaled by ``REFERENCE_S`` over the mean time of the probes
    nearest to it, raised to ``SPEED_EXPONENT``.  The nearest probes are
    whole runs of probes on each side, before and after, until each side
    holds at least as much probe time as the sample took.
    """
    events = m["events"]
    out = []
    for i, event in enumerate(events):
        if event[0] == kind:
            near = (_probes_beside(events, i, -1, event[1])
                    + _probes_beside(events, i, +1, event[1]))
            ratio = calibrate.REFERENCE_S / statistics.mean(near)
            out.append(event[1] * ratio ** calibrate.SPEED_EXPONENT)
    return out


def host_speed(m: dict) -> float:
    """The run's mean probe time over ``REFERENCE_S`` (above 1 is slower),
    raised to ``SPEED_EXPONENT``: what the run's times are divided by."""
    probes = [e[1] for e in m["events"] if e[0] == "probe"]
    return (statistics.mean(probes) / calibrate.REFERENCE_S) ** calibrate.SPEED_EXPONENT


def end_to_end(m: dict) -> tuple[dict, list[str]]:
    iters, setups = sorted(normalised(m, "iter")), normalised(m, "setup")
    n = len(iters)
    p50 = statistics.median(iters)
    k = tail_index(n)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "iter_s.p50": (p50, "s"),
        "iter_s.tail": (iters[k], "s"),
        "ns_per_point_case": (p50 / (m["cases"] * m["points"]) * 1e9, "ns"),
        "peak_rss_mb": (m["rss_mb"], "MiB"),
    }
    counts = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "iter_s.p50": f"n={n}",
        "iter_s.tail": f"p{100 * (k + 1) / n:.0f} by rank, n={n}, {n - k - 1} beyond",
        "ns_per_point_case": f"{m['cases']} cases x {m['points']} points, n={n}",
        "peak_rss_mb": "max over measuring processes",
    }
    lines = [f"{name:<20} {value:>16.6f} {unit:<3} ({counts[name]})"
             for name, (value, unit) in metrics.items()]
    walls = {kind: [e[1] for e in m["events"] if e[0] == kind] for kind in ("iter", "setup", "probe")}
    lines.append(f"times above are at the reference host speed (see calibrate.py); this run's "
                 f"{len(walls['probe'])} probes averaged {statistics.mean(walls['probe']):.4f} s "
                 f"against {calibrate.REFERENCE_S} s")
    lines.append("wall iterations_s: " + " ".join(f"{t:.4f}" for t in walls["iter"]))
    lines.append("wall setups_s: " + " ".join(f"{t:.4f}" for t in walls["setup"]))
    lines.append("events: " + json.dumps(m["events"]))
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}, lines


def per_layer(m: dict) -> tuple[dict, list[str]]:
    speed = host_speed(m)
    layers = m["layers"]
    metrics, lines = {}, []
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        is_count = isinstance(values[0], int)
        if is_count and len(set(values)) != 1:
            raise BenchError(f"count {name} differs between traced iterations: {values}")
        if is_count:
            value, unit = values[0], "B" if name.endswith("_bytes") else "count"
        elif name.endswith("_ratio"):
            value, unit = statistics.median(values), "ratio"
        else:
            value, unit = statistics.median(values) / speed, "s"
        metrics[name] = {"value": value, "unit": unit}
    untraced = statistics.median(normalised(m, "iter"))
    traced = statistics.median(normalised(m, "traced"))
    metrics["trace.overhead_frac"] = {"value": (traced - untraced) / untraced, "unit": "ratio"}
    for name, entry in metrics.items():
        value = entry["value"]
        text = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        lines.append(f"{name:<62} {text} {entry['unit']}")
    lines.append(f"(set-up plus one iteration; times are medians over {len(layers)} traced "
                 f"iterations at the reference host speed, divided by {speed:.4f}; overhead from "
                 f"{len(normalised(m, 'iter'))} untraced vs {len(normalised(m, 'traced'))} traced)")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="picks dense_grid's pairs")
    parser.add_argument("--seconds", type=float, default=50.0, help="measuring window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through SystemExit so a running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "blochlab" / "__init__.py").is_file():
        print(f"error: no blochlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        metrics, lines = per_layer(m) if args.trace else end_to_end(m)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = _environment()
    print("environment: " + json.dumps(env))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          "(closed loop, one client, one process at a time)")
    for line in lines:
        print(line)
    failed_frac = m["failed"] / m["attempted"]
    print(f"{'failed_frac':<20} {failed_frac:>16.6f}     ({m['failed']} of {m['attempted']} items)")
    for note in m["notes"][:20]:
        print(f"mismatch: {note}")
    correct = m["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": m["attempted"], "failed": m["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
