"""Composition/integral operators on disk functions and their commutators.

The two integral-type operators, for a holomorphic symbol ``g``::

    (J_g f)(z) = integral_0^z f(w)  g'(w) dw      (multiplies by g', then integrates)
    (I_g f)(z) = integral_0^z f'(w) g(w)  dw      (differentiates, multiplies by g)

Commutators with a composition operator ``C_phi f = f o phi`` are evaluated
two ways: directly as a difference of path integrals (:func:`commutator_value`)
and through closed-form derivative identities (:func:`commutator_derivative`)::

    d/dz (C_phi I_g - I_g C_phi) f = phi'(z) f'(phi(z)) (g(phi(z)) - g(z))
    d/dz (C_phi J_g - J_g C_phi) f = f(phi(z)) ((g o phi)'(z) - g'(z))

Integrals run along the radial segment [0, z] with adaptive bisection on
16-point Gauss-Legendre panels (absolute tolerance 1e-12).  Each point of an
array ``z`` is bisected on its own, and each has its own budget of 40 panels.

Norm estimators are sampled maxima and therefore lower bounds of the true
suprema.  ``bloch_seminorm`` additionally polishes its four best grid points
(the seminorm field peaks between shell radii for Mobius-type functions);
``hinf_norm`` additionally samples a dense circle just inside the boundary
(radius ``1 - 2**-(max_shell+7)``), where the maximum modulus principle puts
the sup for functions analytic up to the boundary, and polishes its best
angle.  Both polish with one deterministic compass search that moves every
start at once on numpy arrays, and keep the polished value only where it
beats the sampled one.  ``commutator_seminorm`` and criterion suprema stay
pure grid maxima so that grid refinement is exactly monotone.

:class:`PairSamples` holds the grid samples of one pair ``(phi, g)``, each
taken on first use.  It joins the samples of the map alone
(:class:`MapSamples`) and of the symbol alone (:class:`SymbolSamples`),
which :meth:`PairSamples.from_sides` shares across pairs, and takes only
``g o phi`` and ``g' o phi`` itself.  ``criteria.FieldSet`` extends it with
the criterion fields; ``commutator_seminorm`` and ``criteria.classify`` read
it when given one, after :meth:`PairSamples.check_pair` confirms that both
sides are this pair's on this grid.

The test function's factor in each derivative, ``phi' f'(phi)`` or
``f(phi)``, reads no symbol, so the map side holds it once per test function
and kind (:meth:`MapSamples.factor`) and each pair multiplies it by its own
jump, in the order the formulas above are written.  The factors sit under
weak keys: an entry goes when its test function is collected.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .diskgeom import DiskGrid

QUAD_TOL = 1e-12
QUAD_MAX_PANELS = 40

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


class OperatorKind(enum.Enum):
    COMMUTATOR_J = "commutator_j"
    COMMUTATOR_I = "commutator_i"


class QuadratureError(RuntimeError):
    """Adaptive quadrature ran out of panels; carries the achieved error."""

    def __init__(self, achieved: float, max_panels: int):
        super().__init__(
            f"quadrature did not reach tolerance within {max_panels} panels "
            f"(achieved error estimate {achieved:.3e})"
        )
        self.achieved = achieved


def _integrate_radial(h, z):
    """``integral_0^z h(w) dw`` along the radial segment, elementwise in ``z``.

    A pending panel carries the indices of the points still open on it; only
    those are sampled and bisected.  A point fails once the panels covering
    it, accepted plus pending, would exceed ``QUAD_MAX_PANELS``.
    """
    zs = np.asarray(z, dtype=complex)
    scalar = zs.ndim == 0
    zv = np.atleast_1d(zs)

    def seg(a: float, b: float, idx: np.ndarray) -> np.ndarray:
        t = 0.5 * (a + b) + 0.5 * (b - a) * _GL_NODES
        zi = zv[idx]
        vals = np.asarray(h(t[:, None] * zi[None, :]), dtype=complex)
        vals = np.broadcast_to(vals, (t.size, zi.size))
        return 0.5 * (b - a) * (_GL_WEIGHTS @ vals) * zi

    total = np.zeros_like(zv)
    leaves = np.zeros(zv.size, dtype=int)
    pending = np.ones(zv.size, dtype=int)
    every = np.arange(zv.size)
    stack = [(0.0, 1.0, every, seg(0.0, 1.0, every))]
    while stack:
        a, b, idx, whole = stack.pop()
        pending[idx] -= 1
        m = 0.5 * (a + b)
        left, right = seg(a, m, idx), seg(m, b, idx)
        err = np.abs(whole - left - right)
        ok = err <= QUAD_TOL * (b - a)
        done = idx[ok]
        total[done] = total[done] + left[ok] + right[ok]
        leaves[done] += 2
        if ok.all():
            continue
        rest = ~ok
        open_idx = idx[rest]
        over = leaves[open_idx] + 2 * (pending[open_idx] + 2) > QUAD_MAX_PANELS
        if over.any():
            raise QuadratureError(float(np.max(err[rest][over])), QUAD_MAX_PANELS)
        pending[open_idx] += 2
        stack.append((m, b, open_idx, right[rest]))
        stack.append((a, m, open_idx, left[rest]))
    return complex(total[0]) if scalar else total


def apply_Jg(g, f, z):
    """``(J_g f)(z)``; ``g`` and ``f`` are AnalyticFn-like, ``z`` scalar or array."""
    return _integrate_radial(lambda w: f(w) * g.deriv(w), z)


def apply_Ig(g, f, z):
    """``(I_g f)(z)``."""
    return _integrate_radial(lambda w: f.deriv(w) * g(w), z)


def commutator_value(kind: OperatorKind, phi, g, f, z):
    """``((C_phi T_g - T_g C_phi) f)(z)`` with ``T`` chosen by ``kind``."""
    w = phi(z)
    if isinstance(w, np.ndarray) and not any(w.strides):
        w = w.flat[0]  # a constant phi's sample is one broadcast point: integrate it once
    if kind is OperatorKind.COMMUTATOR_I:
        first = apply_Ig(g, f, w)
        second = _integrate_radial(lambda u: f.deriv(phi(u)) * phi.deriv(u) * g(u), z)
    elif kind is OperatorKind.COMMUTATOR_J:
        first = apply_Jg(g, f, w)
        second = _integrate_radial(lambda u: f(phi(u)) * g.deriv(u), z)
    else:
        raise ValueError(f"kind must be a commutator kind, got {kind}")
    return first - second


def commutator_derivative(kind: OperatorKind, phi, g, f, z):
    """Closed-form derivative of the commutator (no quadrature)."""
    return _commutator_derivative(kind, PairSamples(phi, g, z), f)


def _commutator_derivative(kind: OperatorKind, s: PairSamples, f):
    if kind is OperatorKind.COMMUTATOR_I:
        return s.map_side.factor(kind, f) * s.g_jump
    if kind is OperatorKind.COMMUTATOR_J:
        return s.map_side.factor(kind, f) * s.dg_jump
    raise ValueError(f"kind must be a commutator kind, got {kind}")


class _Points:
    """Points ``z`` of no grid, read as a grid is: ``points`` and their ``1 - |z|^2``."""

    def __init__(self, z):
        self.points = z

    @cached_property
    def one_minus(self):
        return 1.0 - np.abs(self.points) ** 2


class MapSamples:
    """One map ``phi`` at the points of ``grid``, each sample taken on first use.

    ``grid`` is a :class:`DiskGrid`, or any points with their ``one_minus``.
    No sample depends on a symbol, so one map's samples serve every symbol
    paired with it.  Neither does a test function's factor in the commutator
    derivatives (:meth:`factor`), so it too is taken once per map.
    """

    def __init__(self, phi, grid):
        self.phi, self.grid = phi, grid
        # weak keys: a test function's factors go when the function is collected
        self._factors = weakref.WeakKeyDictionary()

    @cached_property
    def w(self):
        return self.phi(self.grid.points)

    @cached_property
    def one_minus_w(self):
        return 1.0 - np.abs(self.w) ** 2

    @cached_property
    def dphi(self):
        return self.phi.deriv(self.grid.points)

    @cached_property
    def phi_sharp(self):
        """``|phi#(z)|`` with ``phi#(z) = (1 - |z|^2) / (1 - |phi(z)|^2) * phi'(z)``."""
        return np.abs(self.grid.one_minus / self.one_minus_w * self.dphi)

    def factor(self, kind: OperatorKind, f):
        """``phi' f'(phi)`` (I-type) or ``f(phi)`` (J-type) at the points, taken on first use.

        The factors are keyed by ``kind`` and by the object ``f``, and kept
        only while ``f`` is alive.
        """
        by_kind = self._factors.setdefault(f, {})
        if kind not in by_kind:
            i_type = kind is OperatorKind.COMMUTATOR_I
            by_kind[kind] = self.dphi * f.deriv(self.w) if i_type else f(self.w)
        return by_kind[kind]


class SymbolSamples:
    """One symbol ``g`` at the points of ``grid``, each sample taken on first use.

    No sample depends on a map, so one symbol's samples serve every map
    paired with it.
    """

    def __init__(self, g, grid):
        self.g, self.grid = g, grid

    @cached_property
    def g_z(self):
        return self.g(self.grid.points)

    @cached_property
    def dg_z(self):
        return self.g.deriv(self.grid.points)


class PairSamples:
    """The primitives of one pair ``(phi, g)`` at ``z``, each taken on first use.

    ``z`` is one point or an array of points.  The criterion fields and the
    commutator derivatives are formulas over these samples.  A pair joins a
    map side (:class:`MapSamples`) and a symbol side (:class:`SymbolSamples`)
    and samples only ``g o phi`` and ``g' o phi`` itself, so ``phi``,
    ``phi'``, ``g``, ``g'``, ``g o phi`` and ``g' o phi`` are each evaluated
    once however many fields or test functions read them.  Pairs made with
    :meth:`from_sides` share their sides with other pairs, and with the map
    side the factor of each test function: a test function is sampled once
    per map and kind, however many symbols it is paired with, for as long as
    it lives.
    """

    #: the classes of the sides that ``PairSamples(phi, g, z)`` samples
    _sides = (MapSamples, SymbolSamples)

    def __init__(self, phi, g, z):
        map_side, symbol_side = self._sides
        points = _Points(z)
        self._join(map_side(phi, points), symbol_side(g, points))

    @classmethod
    def from_sides(cls, map_side: MapSamples, symbol_side: SymbolSamples) -> "PairSamples":
        """The pair of one map's and one symbol's samples, shared and not copied."""
        pair = cls.__new__(cls)
        pair._join(map_side, symbol_side)
        return pair

    def _join(self, map_side, symbol_side) -> None:
        self.map_side, self.symbol_side = map_side, symbol_side
        self.phi, self.g, self.z = map_side.phi, symbol_side.g, map_side.grid.points

    def check_pair(self, phi, g, grid: DiskGrid) -> None:
        """``ValueError`` unless both sides are the samples of this very ``phi``, ``g`` and grid."""
        if (
            self.phi is not phi
            or self.g is not g
            or self.z is not grid.points
            or self.symbol_side.grid.points is not grid.points
        ):
            raise ValueError("fields were sampled for another (phi, g) pair or grid")

    one_minus = property(lambda self: self.map_side.grid.one_minus)
    w = property(lambda self: self.map_side.w)
    one_minus_w = property(lambda self: self.map_side.one_minus_w)
    dphi = property(lambda self: self.map_side.dphi)
    phi_sharp = property(lambda self: self.map_side.phi_sharp)
    g_z = property(lambda self: self.symbol_side.g_z)
    dg_z = property(lambda self: self.symbol_side.dg_z)

    @cached_property
    def g_w(self):
        return self.g(self.w)

    @cached_property
    def dg_w(self):
        return self.g.deriv(self.w)

    @cached_property
    def g_jump(self):
        """``g(phi(z)) - g(z)``, the I-type factor."""
        return self.g_w - self.g_z

    @cached_property
    def dg_jump(self):
        """``g'(phi(z)) phi'(z) - g'(z)``, the J-type factor."""
        return self.dg_w * self.dphi - self.dg_z


# --------------------------------------------------------------------------
# norms


@dataclass(frozen=True)
class SupEstimate:
    """A sampled supremum estimate and where it was attained."""

    value: float
    arg: complex

    def __float__(self) -> float:
        return self.value


def _grid_max(values: np.ndarray, points: np.ndarray) -> SupEstimate:
    # np.argmax returns the first maximizer: smallest point index wins ties.
    j = int(np.argmax(values))
    return SupEstimate(float(values[j]), complex(points[j]))


def _compass_max(field, x, step, stencil, xatol):
    """Compass-search ascent of ``field`` from every start in ``x`` at once.

    Each round samples ``field`` on ``x + step * stencil`` for every start in
    one array call; ``stencil[0]`` is the centre, ``0``.  Each start moves to
    its best point, a non-finite value counting as ``-inf``, and halves its
    step when the centre wins a tie or outright.  Once every step is below
    ``xatol`` the best ``(point, value)`` over the starts is returned.
    """
    step, rows = np.full(x.shape, step, dtype=float), np.arange(x.size)
    while True:
        trial = x[:, None] + step[:, None] * stencil
        with np.errstate(all="ignore"):
            vals = field(trial)
        vals = np.where(np.isfinite(vals), vals, -np.inf)
        best = np.argmax(vals, axis=1)
        x, top = trial[rows, best], vals[rows, best]
        step = np.where(best == 0, 0.5 * step, step)
        if np.all(step < xatol):
            j = int(np.argmax(top))
            return x[j], float(top[j])


# the centre first, then its eight neighbours on the square around it
_DISK_STENCIL = np.array([0j] + [complex(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if a or b])
_ANGLE_STENCIL = np.array([0.0, -1.0, 1.0])


def bloch_seminorm(f, grid: DiskGrid) -> SupEstimate:
    """``sup (1 - |z|^2) |f'(z)|``: grid max plus local polish (lower bound)."""
    pts = grid.points
    vals = grid.one_minus * np.abs(f.deriv(pts))
    base = _grid_max(vals, pts)
    starts = pts[np.argsort(vals, kind="stable")[::-1][:4]]

    def field(w):
        m = np.abs(w)
        return np.where(m < 1.0, (1.0 - m**2) * np.abs(f.deriv(w)), -np.inf)

    z, value = _compass_max(field, starts, 0.5 * (1.0 - np.abs(starts)), _DISK_STENCIL, 1e-9)
    return SupEstimate(value, complex(z)) if value > base.value else base


def bloch_norm(f, grid: DiskGrid) -> float:
    """``|f(0)| + sup (1 - |z|^2)|f'(z)|``."""
    return abs(complex(f(0.0))) + bloch_seminorm(f, grid).value


def hinf_norm(f, grid: DiskGrid) -> SupEstimate:
    """Sampled sup norm over the grid and a dense near-boundary circle."""
    pts = grid.points
    vals = np.abs(f(pts))
    base = _grid_max(vals, pts)

    r = 1.0 - 2.0 ** (-(grid.max_shell + 7))
    n = 8 * grid.angular_counts[-1]
    theta = 2.0 * np.pi * np.arange(n) / n
    circle = r * np.exp(1j * theta)
    cvals = np.abs(f(circle))
    j = int(np.argmax(cvals))

    def on_circle(t):
        return np.abs(f(r * np.exp(1j * t)))

    t, value = _compass_max(on_circle, theta[j : j + 1], 2.0 * np.pi / n, _ANGLE_STENCIL, 1e-14)
    cand = [
        base,
        SupEstimate(float(cvals[j]), complex(circle[j])),
        SupEstimate(value, complex(r * np.exp(1j * t))),
    ]
    return max(cand, key=lambda s: s.value)


def commutator_seminorm(
    kind: OperatorKind, phi, g, f, grid: DiskGrid, fields: PairSamples | None = None
) -> SupEstimate:
    """Grid max of ``(1 - |z|^2) |d/dz commutator|`` (pure grid, no polish).

    ``fields`` holds the samples of ``(phi, g)`` on ``grid``; without it the
    pair is sampled here.  Either way only ``f`` is evaluated per call, and
    only on the first call with this ``f`` and ``kind`` on this map side.
    """
    s = PairSamples(phi, g, grid.points) if fields is None else fields
    s.check_pair(phi, g, grid)
    vals = s.one_minus * np.abs(_commutator_derivative(kind, s, f))
    return _grid_max(vals, s.z)
