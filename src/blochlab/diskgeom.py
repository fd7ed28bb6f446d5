"""Geometry of the unit disk: boundary-shell grids and holomorphic self-maps.

The grids are exponential boundary shells: shell ``k`` is the annulus
``1 - 2**-k <= |z| < 1 - 2**-(k+1)``, sampled on the circle at the shell's
midpoint radius ``1 - 0.75 * 2**-k`` with ``base_angular * (k + 1)``
equispaced angles.  Refining ``max_shell`` only appends shells, so a refined
grid is a strict superset of the coarse one — sup estimates over the grid are
monotone under refinement by construction.
A :class:`DiskGrid` is its points: any point set reads its ``|z|`` shells
by the rule that reads ``|phi(z)|`` shells, and every layout number from them.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exprdsl import AnalyticFn, Expr, Mobius, Mul, Neg, Var

DEFAULT_MAX_SHELL = 14
DEFAULT_BASE_ANGULAR = 64
# The deepest grid doubles can hold: ``hinf_norm`` samples a circle of radius
# ``1 - 2**-(max_shell + 7)``, which rounds to 1.0 from max_shell = 47 on, and
# shell radii ``1 - 0.75 * 2**-k`` put grid points on ``|z| == 1.0`` from k = 52.
MAX_SHELL_LIMIT = 46


class NotFiniteOnGrid(ValueError):
    """A function or its derivative is not finite at a grid point or the origin.

    Carries the point and the value.
    """

    def __init__(self, what: str, witness: complex, value: complex):
        place = "the origin" if witness == 0 else "the grid point"
        super().__init__(f"{what}(z) = {value} is not finite at {place} z = {witness}")
        self.witness = witness
        self.value = value


class NotASelfMap(ValueError):
    """The candidate map leaves the unit disk; carries a witness point."""

    def __init__(self, witness: complex, modulus: float):
        super().__init__(
            f"|phi({witness})| = {modulus} is not below 1; not a self-map of the disk"
        )
        self.witness = witness
        self.modulus = modulus


def shell_radius(k: int) -> float:
    """Midpoint radius of shell ``k``."""
    return 1.0 - 0.75 * 2.0 ** (-k)


def shell_for_modulus(m, max_shell: int):
    """Shell index containing modulus ``m`` (clipped to ``[0, max_shell]``)."""
    m = np.asarray(m, dtype=float)
    out = np.full(m.shape, max_shell, dtype=int)
    inside = m < 1.0
    with np.errstate(divide="ignore"):
        k = np.floor(-np.log2(1.0 - m[inside]))
    out[inside] = np.clip(k, 0, max_shell).astype(int)
    return out if out.ndim else int(out)


@dataclass(frozen=True, eq=False)
class ShellSegments:
    """Points grouped so that each nonempty shell is one contiguous slice.

    ``order`` is a stable permutation that sorts the points by shell (``None``
    when they already are), ``starts`` the offset of each nonempty shell in
    that order and ``shells`` its index.
    """

    order: np.ndarray | None
    starts: np.ndarray
    shells: tuple[int, ...]


def shell_segments(shells: np.ndarray, max_shell: int) -> ShellSegments:
    """Segments of the per-point shell indices ``shells`` (one stable sort, none if they are in order)."""
    counts = np.bincount(shells, minlength=max_shell + 1)
    nonempty = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[nonempty]
    order = None if np.all(shells[1:] >= shells[:-1]) else np.argsort(shells, kind="stable")
    return ShellSegments(order, starts, tuple(nonempty.tolist()))


def shell_maxima(values: np.ndarray, segments: ShellSegments):
    """``(shell, max of values in it)`` for each nonempty shell, by shell index.

    NaN propagates: a shell holding a NaN sample has a NaN max.
    """
    if segments.order is not None:
        values = values[segments.order]
    return tuple(zip(segments.shells, np.maximum.reduceat(values, segments.starts).tolist()))


@dataclass(eq=False)
class DiskGrid:
    """A sample of the disk, which is its points alone.

    ``max_shell`` is the deepest of their nonempty ``|z|`` shells and ``angular_counts`` counts each.
    """

    points: np.ndarray

    @property
    def size(self) -> int:
        return self.points.size

    @cached_property
    def segments(self) -> ShellSegments:
        """The ``|z|`` shells; ``order`` is ``None`` on a shell-major grid."""
        return shell_segments(shell_for_modulus(np.abs(self.points).ravel(), MAX_SHELL_LIMIT), MAX_SHELL_LIMIT)

    @property
    def max_shell(self) -> int:
        return self.segments.shells[-1]

    @cached_property
    def angular_counts(self) -> tuple[int, ...]:
        return tuple(np.diff(self.segments.starts, append=self.size).tolist())

    @property
    def base_angular(self) -> int:
        return self.angular_counts[0]

    @cached_property
    def one_minus(self) -> np.ndarray:
        """``1 - |z|^2`` at every point (an array even for one point), read-only like :attr:`points`."""
        out = np.asarray(1.0 - np.abs(self.points) ** 2)
        out.flags.writeable = False
        return out

    def shells(self) -> list[np.ndarray]:
        """The points of each nonempty shell, by shell index."""
        order = self.segments.order
        points = self.points if order is None else self.points[order]
        return np.split(points, self.segments.starts[1:])

    def __repr__(self) -> str:
        return f"DiskGrid(max_shell={self.max_shell}, base_angular={self.base_angular}, size={self.size})"


def _integer(name: str, value) -> int:
    """``value`` as an int; ``ValueError`` naming it unless it is integral (``6``, ``6.0``)."""
    if isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer()
    ):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def check_grid_range(max_shell: int, base_angular: int) -> tuple[int, int]:
    """``(max_shell, base_angular)`` as ints.

    ``ValueError`` unless both are integral, ``4 <= max_shell <= MAX_SHELL_LIMIT``
    and ``base_angular >= 64``.
    """
    max_shell = _integer("max_shell", max_shell)
    base_angular = _integer("base_angular", base_angular)
    if not 4 <= max_shell <= MAX_SHELL_LIMIT:
        raise ValueError(f"max_shell must lie in [4, {MAX_SHELL_LIMIT}], got {max_shell}")
    if base_angular < 64:
        raise ValueError(f"base_angular must be >= 64, got {base_angular}")
    return max_shell, base_angular


def make_grid(max_shell: int = DEFAULT_MAX_SHELL, base_angular: int = DEFAULT_BASE_ANGULAR) -> DiskGrid:
    """Build the shell grid: shell ``k`` holds ``base_angular * (k + 1)`` angles."""
    max_shell, base_angular = check_grid_range(max_shell, base_angular)
    counts = tuple(base_angular * (k + 1) for k in range(max_shell + 1))
    points = np.concatenate(
        [shell_radius(k) * np.exp(1j * (2.0 * np.pi * np.arange(m) / m)) for k, m in enumerate(counts)]
    )
    points.flags.writeable = False
    return DiskGrid(points)


def sup_modulus_estimate(moduli: np.ndarray, grid: DiskGrid) -> float:
    """Sampled max of ``|phi|`` on ``grid`` plus the shell margin ``2**-(max_shell+1)``, capped at 1.

    Self-map validation and vacuity both read it on the grid in hand.
    """
    return min(1.0, float(moduli.max()) + 2.0 ** (-(grid.max_shell + 1)))


# --------------------------------------------------------------------------
# self-maps


@dataclass(frozen=True, eq=False)
class SelfMap:
    """A validated holomorphic self-map of the disk."""

    fn: AnalyticFn
    sup_modulus_estimate: float
    is_automorphism: bool

    def __call__(self, z):
        return self.fn(z)

    def deriv(self, z):
        return self.fn.deriv(z)

    @property
    def source(self) -> str:
        return self.fn.source

    def __repr__(self) -> str:
        return (
            f"SelfMap({self.source!r}, sup~{self.sup_modulus_estimate:.6g}"
            + (", automorphism" if self.is_automorphism else "")
            + ")"
        )


def _syntactic_automorphism(e: Expr) -> bool:
    # Core forms z and mobius(a), optionally negated or multiplied by a
    # constant expression of unit modulus (rotation factors).  Detection is
    # syntactic on purpose: no numerical classification of arbitrary maps.
    if isinstance(e, (Var, Mobius)):
        return True
    if isinstance(e, Neg):
        return _syntactic_automorphism(e.x)
    if isinstance(e, Mul):
        for c, rest in ((e.a, e.b), (e.b, e.a)):
            if not c.depends_on_z():
                lam = complex(c.evaluate(0.0))
                if abs(abs(lam) - 1.0) <= 1e-12:
                    return _syntactic_automorphism(rest)
    return False


def validate_self_map(fn: AnalyticFn, grid: DiskGrid) -> SelfMap:
    """Check ``|fn| < 1`` on the grid (:func:`self_map_moduli`) and package the map.

    ``sup_modulus_estimate`` is :func:`sup_modulus_estimate` on this grid.
    """
    moduli = self_map_moduli(fn(grid.points), grid.points)
    return SelfMap(fn, sup_modulus_estimate(moduli, grid), _syntactic_automorphism(fn.expr))


def self_map_moduli(w, points) -> np.ndarray:
    """``|w|`` for a map's samples ``w``; :class:`NotASelfMap` at the first not below 1 (NaN too)."""
    moduli = np.abs(w)
    bad = np.flatnonzero(~(moduli < 1.0))
    if bad.size:
        j = int(bad[0])
        raise NotASelfMap(complex(np.ravel(points)[j]), float(np.ravel(moduli)[j]))
    return moduli


def finite_samples(what: str, evaluate_at, points) -> np.ndarray:
    """``evaluate_at(points)``, checked finite at the origin first and then at the points.

    :class:`NotFiniteOnGrid` names ``what`` and the first offending point.  ``bloch_norm``
    reads ``f(0)``, and ``log(z)`` is finite on the whole grid but singular there.  The
    origin is sampled as a one-point array: Python complex division raises at a pole.
    """
    for pts in (np.zeros(1, dtype=complex), points):
        with np.errstate(all="ignore"):
            values = evaluate_at(pts)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            j = int(bad[0])
            raise NotFiniteOnGrid(what, complex(np.ravel(pts)[j]), complex(np.ravel(values)[j]))
    return values


def schwarz_pick_modulus_bound(phi, z):
    """Upper bound ``(|z| + s) / (1 + s |z|)`` with ``s = |phi(0)|``."""
    s = abs(complex(phi(0.0)))
    m = np.abs(z)
    return (m + s) / (1.0 + s * m)


def pseudo_hyperbolic(u, v):
    """Pseudo-hyperbolic distance ``|u - v| / |1 - conj(u) v|``."""
    u = np.asarray(u, dtype=complex)
    return np.abs(u - v) / np.abs(1.0 - np.conj(u) * v)
