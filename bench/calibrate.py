"""A fixed unit of work that measures how fast the host runs at the moment.

The benchmark runs on shared machines whose speed drifts by tens of percent
over seconds and minutes, independently of the program.  ``run.py`` times
:func:`probe` between the program's samples, in its own process (which
never imports blochlab, so nothing the program does to its interpreter
reaches the probe), and scales each sample by the probe times around it.

The probe is more sensitive to the host's state than blochlab is: on the
reference host, when the probe ran 33% slower the sweep ran 15% slower, and
across workloads and hours the program's slowdown was the probe's raised to
a power between 0.4 and 0.8.  Dividing by the full probe ratio therefore
over-corrects, so a sample is scaled by the probe ratio raised to
``SPEED_EXPONENT``: the geometric mean of the raw time and the time divided
by the full ratio.  A change to the program still moves the scaled time by
exactly its own share, since the factor depends on the probe alone.

The work mixes what blochlab spends its time on: interpreted Python (calls,
attribute and dict access, small tuples, string formatting and JSON), and
numpy element-wise complex arithmetic, masks and reductions, on an array the
size of the default grid and on one the size of ``dense_grid``'s grid.
"""

from __future__ import annotations

import json
import time

import numpy as np

#: Typical probe time, in seconds, on the host the bounds were set on (a
#: 2-vCPU Intel Xeon VM).  Only a unit: it scales every normalised time by
#: the same constant and never changes between runs.
REFERENCE_S = 0.14
#: How much of the probe's speed ratio a sample is scaled by, as an exponent.
SPEED_EXPONENT = 0.5

_rng = np.random.default_rng(20110103)
_SMALL = 0.95 * np.sqrt(_rng.random(7_680)) * np.exp(2j * np.pi * _rng.random(7_680))
_LARGE = 0.95 * np.sqrt(_rng.random(122_880)) * np.exp(2j * np.pi * _rng.random(122_880))
_SHELLS = (np.abs(_LARGE) * 14).astype(np.int64)


class _Case:
    __slots__ = ("key", "value", "label")

    def __init__(self, key, value, label):
        self.key, self.value, self.label = key, value, label

    def to_dict(self) -> dict:
        return {"key": list(self.key), "value": self.value, "label": self.label}


def _interpreter_work() -> int:
    table: dict[tuple[int, int], float] = {}
    cases = []
    for i in range(4_500):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0.0) + (i * 0.5) ** 0.5
        label = "Bounded" if i % 3 == 0 else ("Compact" if i % 3 == 1 else "Other")
        cases.append(_Case(key, round(table[key], 6), f"{label}:{i % 11}"))
    text = json.dumps([c.to_dict() for c in cases], sort_keys=True, indent=2)
    return len(text) + len(table)


def _array_work() -> float:
    total = 0.0
    for z in (_SMALL,) * 50 + (_LARGE,) * 10:
        w = (z - 0.3j) / (1.0 - np.conj(0.3j) * z)
        field = np.abs(w * w + 0.5 * z) * (1.0 - np.abs(z) ** 2)
        total += float(field.max()) + float(np.count_nonzero(field > 0.1))
    peaks = np.zeros(14)
    np.maximum.at(peaks, _SHELLS, np.abs(np.log1p(_LARGE)))
    return total + float(peaks.sum())


def probe() -> float:
    """Seconds taken by the fixed unit of work."""
    start = time.perf_counter()
    _interpreter_work()
    _array_work()
    return time.perf_counter() - start
