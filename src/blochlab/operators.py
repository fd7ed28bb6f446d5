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
suprema.  ``bloch_seminorm`` additionally polishes the grid arg-max with a
deterministic Nelder-Mead descent (the seminorm field peaks between shell
radii for Mobius-type functions); ``hinf_norm`` additionally samples a dense
circle just inside the boundary (radius ``1 - 2**-(max_shell+7)``), where the
maximum modulus principle puts the sup for functions analytic up to the
boundary.  ``commutator_seminorm`` and criterion suprema stay pure grid maxima
so that grid refinement is exactly monotone.

:class:`PairSamples` holds the grid samples of one pair ``(phi, g)``, each
taken on first use.  ``criteria.FieldSet`` extends it with the criterion
fields; ``commutator_seminorm`` and ``criteria.classify`` read it when given
one, after :meth:`PairSamples.check_pair` confirms it is this pair's on this grid.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import minimize, minimize_scalar

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
        return s.dphi * f.deriv(s.w) * s.g_jump
    if kind is OperatorKind.COMMUTATOR_J:
        return f(s.w) * s.dg_jump
    raise ValueError(f"kind must be a commutator kind, got {kind}")


class PairSamples:
    """The primitives of one pair ``(phi, g)`` at ``z``, each taken on first use.

    ``z`` is one point or an array of points.  The criterion fields and the
    commutator derivatives are formulas over these samples, so ``phi``,
    ``phi'``, ``g``, ``g'``, ``g o phi`` and ``g' o phi`` are each evaluated
    once however many fields or test functions read them.
    """

    def __init__(self, phi, g, z):
        self.phi, self.g, self.z = phi, g, z

    def check_pair(self, phi, g, grid: DiskGrid) -> None:
        """``ValueError`` unless these are the samples of this very ``phi``, ``g`` and grid."""
        if self.phi is not phi or self.g is not g or self.z is not grid.points:
            raise ValueError("fields were sampled for another (phi, g) pair or grid")

    @cached_property
    def one_minus(self):
        return 1.0 - np.abs(self.z) ** 2

    @cached_property
    def w(self):
        return self.phi(self.z)

    @cached_property
    def one_minus_w(self):
        return 1.0 - np.abs(self.w) ** 2

    @cached_property
    def dphi(self):
        return self.phi.deriv(self.z)

    @cached_property
    def g_z(self):
        return self.g(self.z)

    @cached_property
    def dg_z(self):
        return self.g.deriv(self.z)

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


def _polish_disk_max(field, starts) -> SupEstimate | None:
    """Deterministic Nelder-Mead ascent of ``field`` from each start point."""

    def objective(xy):
        r2 = xy[0] * xy[0] + xy[1] * xy[1]
        if r2 >= 1.0 - 1e-12:
            return 1.0 + r2  # push back inside the open disk
        z = complex(xy[0], xy[1])
        try:
            return -field(z)
        except (ZeroDivisionError, OverflowError):
            # Python complex arithmetic raises at a pole; numpy's gives inf or
            # nan there, which the finiteness filter below drops.
            with np.errstate(all="ignore"):
                return -field(np.complex128(z))

    best: SupEstimate | None = None
    for z0 in starts:
        res = minimize(
            objective,
            [z0.real, z0.imag],
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-15, "maxiter": 400, "maxfev": 600},
        )
        val = -float(res.fun)
        if np.isfinite(val) and (best is None or val > best.value):
            best = SupEstimate(val, complex(res.x[0], res.x[1]))
    return best


def bloch_seminorm(f, grid: DiskGrid) -> SupEstimate:
    """``sup (1 - |z|^2) |f'(z)|``: grid max plus local polish (lower bound)."""
    pts = grid.points
    vals = (1.0 - np.abs(pts) ** 2) * np.abs(f.deriv(pts))
    base = _grid_max(vals, pts)
    order = np.argsort(vals, kind="stable")[::-1][:4]
    polished = _polish_disk_max(
        lambda w: (1.0 - abs(w) ** 2) * abs(f.deriv(w)), [complex(pts[j]) for j in order]
    )
    if polished is not None and polished.value > base.value:
        return polished
    return base


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
    span = 2.0 * np.pi / n
    res = minimize_scalar(
        lambda t: -abs(complex(f(r * np.exp(1j * t)))),
        bounds=(theta[j] - span, theta[j] + span),
        method="bounded",
        options={"xatol": 1e-14},
    )
    cand = [base, SupEstimate(float(cvals[j]), complex(circle[j]))]
    if np.isfinite(res.fun):
        cand.append(SupEstimate(-float(res.fun), complex(r * np.exp(1j * res.x))))
    return max(cand, key=lambda s: s.value)


def commutator_seminorm(
    kind: OperatorKind, phi, g, f, grid: DiskGrid, fields: PairSamples | None = None
) -> SupEstimate:
    """Grid max of ``(1 - |z|^2) |d/dz commutator|`` (pure grid, no polish).

    ``fields`` holds the samples of ``(phi, g)`` on ``grid``; without it the
    pair is sampled here.  Either way only ``f`` is evaluated per call.
    """
    s = PairSamples(phi, g, grid.points) if fields is None else fields
    s.check_pair(phi, g, grid)
    vals = s.one_minus * np.abs(_commutator_derivative(kind, s, f))
    return _grid_max(vals, s.z)
