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
Gauss-Kronrod panels (QUADPACK's G10/K21 pair): each panel samples the
integrand once, on its 21 Kronrod nodes, takes the K21 value and accepts it
where the embedded rule's error estimate ``|K21 - G10|`` is at most 1e-12
times the panel's width.  Each point of an array ``z`` is bisected on its
own, and each has its own budget of 40 panels.

Norm estimators are sampled maxima and therefore lower bounds of the true
suprema.  ``bloch_seminorm`` additionally polishes its four best grid points
(the seminorm field peaks between shell radii for Mobius-type functions);
``hinf_norm`` additionally samples a dense circle just inside the boundary
(radius ``1 - 2**-(max_shell+7)``), where the maximum modulus principle puts
the sup for functions analytic up to the boundary, and polishes its best
angle.  Both polish with one deterministic compass search that moves every
start at once on numpy arrays, and keep the polished value only where it
beats the sampled one.  Given ``fields``, a ``criteria.SymbolFields`` of
``f`` on the grid (the CLI passes its validated side), both read their grid
samples from it.  ``commutator_seminorm`` and criterion suprema stay pure
grid maxima so that grid refinement is exactly monotone.

The samples of a pair ``(phi, g)`` are ``criteria.FieldSet``'s:
:func:`commutator_derivative` builds one on a ``DiskGrid`` of ``z``, and
``commutator_seminorm`` reads one when given it, after
``FieldSet.check_pair`` confirms that both of its sides are this pair's on
this grid.  The test function's factor in each derivative, ``phi' f'(phi)``
or ``f(phi)``, reads no symbol, so the map side (``criteria.MapFields``)
holds it once per test function and kind, under weak keys, and each pair
multiplies it by its own jump, in the order the formulas above are written.
``commutator_seminorms`` takes a whole family of test functions in one array
pass; ``commutator_seminorm`` is its family of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import CriterionKind, FieldSet, OperatorKind, SymbolFields
from .diskgeom import DiskGrid

QUAD_TOL = 1e-12
QUAD_MAX_PANELS = 40

# QUADPACK's QK21 (Piessens et al. 1983): the 21-point Kronrod rule on [-1, 1],
# exact through degree 31, embeds the 10-point Gauss rule (degree 19) at its
# odd-numbered nodes.  Row 0 weighs a panel's samples for K21, row 1 for the
# error estimate K21 - G10.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980029600, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_GK_NODES = np.concatenate((np.negative(_XGK), [0.0], _XGK[::-1]))
_K21_WEIGHTS = np.concatenate((_WGK, _WGK[-2::-1]))
_G10_WEIGHTS = np.zeros(21)
_G10_WEIGHTS[1:10:2] = _WG
_G10_WEIGHTS[11::2] = _WG[::-1]
_GK_WEIGHTS = np.stack((_K21_WEIGHTS, _K21_WEIGHTS - _G10_WEIGHTS))


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

    Each panel samples ``h`` once, on its 21 Kronrod nodes, and is accepted
    where ``|K21 - G10| <= QUAD_TOL * width`` or bisected, left half first.
    A pending panel carries the indices of the points still open on it; only
    those are sampled and bisected.  A point fails once the panels covering
    it, accepted plus pending, would exceed ``QUAD_MAX_PANELS``.
    """
    zs = np.asarray(z, dtype=complex)
    scalar = zs.ndim == 0
    zv = np.atleast_1d(zs)

    total = np.zeros_like(zv)
    leaves = np.zeros(zv.size, dtype=int)
    pending = np.ones(zv.size, dtype=int)
    stack = [(0.0, 1.0, np.arange(zv.size))]
    while stack:
        a, b, idx = stack.pop()
        pending[idx] -= 1
        t = 0.5 * (a + b) + 0.5 * (b - a) * _GK_NODES
        zi = zv[idx]
        vals = np.asarray(h(t[:, None] * zi[None, :]), dtype=complex)
        vals = np.broadcast_to(vals, (t.size, zi.size))
        kronrod, estimate = 0.5 * (b - a) * (_GK_WEIGHTS @ vals) * zi
        err = np.abs(estimate)
        ok = err <= QUAD_TOL * (b - a)
        done = idx[ok]
        total[done] = total[done] + kronrod[ok]
        leaves[done] += 1
        if ok.all():
            continue
        open_idx = idx[~ok]
        over = leaves[open_idx] + pending[open_idx] + 2 > QUAD_MAX_PANELS
        if over.any():
            raise QuadratureError(float(np.max(err[~ok][over])), QUAD_MAX_PANELS)
        pending[open_idx] += 2
        m = 0.5 * (a + b)
        stack.append((m, b, open_idx))
        stack.append((a, m, open_idx))
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
    s = FieldSet(phi, g, DiskGrid(z))
    return s.map_side.factor(kind, f) * _jump(kind, s)


def _jump(kind: OperatorKind, s: FieldSet):
    """The pair's jump in the derivative of ``kind``: ``g o phi - g`` or ``(g o phi)' - g'``."""
    if kind is OperatorKind.COMMUTATOR_I:
        return s.g_jump
    if kind is OperatorKind.COMMUTATOR_J:
        return s.dg_jump
    raise ValueError(f"kind must be a commutator kind, got {kind}")


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
    with np.errstate(all="ignore"):
        while True:
            trial = x[:, None] + step[:, None] * stencil
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


def bloch_seminorm(f, grid: DiskGrid, fields: SymbolFields | None = None) -> SupEstimate:
    """``sup (1 - |z|^2) |f'(z)|``: grid max plus local polish (lower bound).

    ``fields`` holds the samples of ``f`` on ``grid``, its Bloch field
    included; without it ``f'`` is sampled here.
    """
    pts = grid.points
    fields = SymbolFields(f, grid) if fields is None else fields
    fields.check_symbol(f, grid)
    vals = fields.values(CriterionKind.BLOCH)
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


def hinf_norm(f, grid: DiskGrid, fields: SymbolFields | None = None) -> SupEstimate:
    """Sampled sup norm over the grid and a dense near-boundary circle.

    ``fields`` holds the samples of ``f`` on ``grid``; without it ``f`` is
    sampled here.
    """
    pts = grid.points
    fields = SymbolFields(f, grid) if fields is None else fields
    fields.check_symbol(f, grid)
    vals = fields.values(CriterionKind.SUP_NORM)
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
    kind: OperatorKind, phi, g, f, grid: DiskGrid, fields: FieldSet | None = None
) -> SupEstimate:
    """Grid max of ``(1 - |z|^2) |d/dz commutator|`` (pure grid, no polish).

    ``fields`` holds the samples of ``(phi, g)`` on ``grid``; without it
    the pair is sampled here.  Either way only ``f`` is evaluated per call,
    and only on the first call with ``f`` and ``kind`` on this map side.
    """
    return commutator_seminorms(kind, phi, g, [f], grid, fields)[0]


def commutator_seminorms(
    kind: OperatorKind, phi, g, family, grid: DiskGrid, fields: FieldSet | None = None
) -> list[SupEstimate]:
    """:func:`commutator_seminorm` of each test function in ``family``, from one array pass.

    Each row is the map side's factor times the pair's jump, and one argmax
    per row reads it; each row equals the call on its function alone, bit
    for bit.
    """
    s = FieldSet(phi, g, grid) if fields is None else fields
    s.check_pair(phi, g, grid)
    jump = _jump(kind, s)
    # each product goes straight into its complex row, also where the factor is
    # real (the identity's phi' times the f' of z or 1): a pass allocates two
    # family-sized arrays and copies no factor
    products = np.empty((len(family), grid.size), dtype=complex)
    for row, fn in zip(products, family):
        np.multiply(s.map_side.factor(kind, fn), jump, out=row)
    vals = np.abs(products)
    vals *= grid.one_minus
    best = np.argmax(vals, axis=1)  # the first maximizer per row, as in _grid_max
    return [SupEstimate(float(v[j]), complex(grid.points[j])) for v, j in zip(vals, best)]
