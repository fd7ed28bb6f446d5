"""Test-function families used for lower bounds and norm attainment.

Four one-parameter families, each materialized as an expression tree so the
symbolic derivative is exact:

    MobiusAlpha(a)    alpha_a(z) = (a - z) / (1 - conj(a) z)     seminorm 1
    PeakH(a)          h_a(z) = (1 - |a|^2) / (1 - conj(a) z)     peaks at a
    ProductF(a)       h_a(z) * alpha_a(z)                        vanishes at a
    LogFw(w)          ln(2 / (1 - conj(w) z))

Each family is a frozen dataclass, one dataclass per field shape: the three
families at a disk point ``a`` inherit the methods generated for ``a`` once,
and ``LogFw`` has its own for ``w``.

The interpolation construction realizes finite peak families on separated
nodes by quotients of Blaschke factors: ``h_k(z) = prod_{j != k} b_{x_j}(z) /
b_{x_j}(x_k)`` with ``b_a = alpha_a``.  For finite node sets this interpolates
the Kronecker delta exactly; the sup of ``sum_k |h_k|`` is estimated on the
grid the caller names and reported, not optimized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .diskgeom import DiskGrid, pseudo_hyperbolic
from .exprdsl import (
    AnalyticFn,
    Const,
    Div,
    Expr,
    Log,
    Mobius,
    Mul,
    Sub,
    Var,
    evaluate,
)


def _check_disk_param(value: complex, name: str) -> complex:
    value = complex(value)
    if abs(value) >= 1.0:
        raise ValueError(f"{name} must satisfy |{name}| < 1, got modulus {abs(value)}")
    return value


def _peak_expr(a: complex) -> Expr:
    return Div(
        Const(1.0 - abs(a) ** 2),
        Sub(Const(1.0), Mul(Const(a.conjugate()), Var())),
    )


@dataclass(frozen=True)
class _AtPoint:
    """A family member at one disk point ``a``: the field shape of ``MobiusAlpha``,
    ``PeakH`` and ``ProductF``."""

    a: complex


class MobiusAlpha(_AtPoint):
    def expr(self) -> Expr:
        return Mobius(_check_disk_param(self.a, "a"))


class PeakH(_AtPoint):
    def expr(self) -> Expr:
        return _peak_expr(_check_disk_param(self.a, "a"))


class ProductF(_AtPoint):
    def expr(self) -> Expr:
        a = _check_disk_param(self.a, "a")
        return Mul(_peak_expr(a), Mobius(a))


@dataclass(frozen=True)
class LogFw:
    w: complex

    def expr(self) -> Expr:
        w = _check_disk_param(self.w, "w")
        return Log(Div(Const(2.0), Sub(Const(1.0), Mul(Const(w.conjugate()), Var()))))


TestFamily = MobiusAlpha | PeakH | ProductF | LogFw


def make_test_fn(family: TestFamily) -> AnalyticFn:
    """Materialize one family member as an :class:`AnalyticFn`."""
    if not isinstance(family, TestFamily):
        raise TypeError(f"unknown test family {family!r}")
    return AnalyticFn(family.expr())


# --------------------------------------------------------------------------
# separated sequences and interpolation


def select_separated_subsequence(points, d: float) -> list[complex]:
    """Greedy subsequence whose pseudo-hyperbolic products stay at least d.

    A candidate is kept iff, after adding it, every kept point's product of
    pseudo-hyperbolic distances to the others is still >= d — including the
    products of points kept earlier, which shrink with each addition.  The
    result may be shorter than hoped (even a single point); the caller
    decides whether that suffices.
    """
    if not 0.0 < d < 1.0:
        raise ValueError(f"separation must lie in (0, 1), got {d}")
    kept: list[complex] = []
    products: list[float] = []
    for p in points:
        p = complex(p)
        dists = [float(pseudo_hyperbolic(q, p)) for q in kept]
        own = math.prod(dists)
        if own >= d and all(prod * dist >= d for prod, dist in zip(products, dists)):
            kept.append(p)
            products = [prod * dist for prod, dist in zip(products, dists)] + [own]
    return kept


@dataclass(frozen=True)
class InterpolationFamily:
    """Peak functions on separated nodes with a sampled sum bound."""

    nodes: tuple[complex, ...]
    separation: float
    peaks: tuple[AnalyticFn, ...]
    sum_bound_estimate: float

    def sum_of_moduli(self, z) -> np.ndarray:
        zs = np.asarray(z, dtype=complex)
        total = np.zeros(zs.shape, dtype=float)
        for h in self.peaks:
            total += np.abs(h(zs))
        return total


def _separation_products(nodes: list[complex]) -> list[float]:
    return [
        math.prod(pseudo_hyperbolic(nodes[j], nodes[k]) for j in range(len(nodes)) if j != k)
        for k in range(len(nodes))
    ]


def build_interpolation_family(nodes, d: float, grid: DiskGrid) -> InterpolationFamily:
    """Blaschke-quotient peak functions h_k with h_k(x_j) = delta_kj.

    Each Blaschke value ``b_{x_j}(x_k)`` in the denominators is computed by
    the same expression evaluator used for ``h_k`` itself.  The off-diagonal
    zeros are exact (a factor evaluates to 0/positive); the diagonal ratios
    v/v sit within an ulp of 1.0 — numpy divides complex numbers through a
    rounded reciprocal, so even a same-float quotient can land one ulp off.
    ``sum_bound_estimate`` is the max of ``sum_k |h_k|`` over ``grid``.
    """
    nodes = [_check_disk_param(p, "node") for p in nodes]
    if not nodes:
        raise ValueError("need at least one node")
    products = _separation_products(nodes)
    for k, prod_k in enumerate(products):
        if prod_k < d:
            j = min(
                (j for j in range(len(nodes)) if j != k),
                key=lambda j: pseudo_hyperbolic(nodes[j], nodes[k]),
                default=k,
            )
            raise ValueError(
                f"nodes {j} and {k} violate separation: product {prod_k:.6g} < {d}"
            )
    peaks = []
    for k, x_k in enumerate(nodes):
        factors = [
            Div(Mobius(x_j), Const(complex(evaluate(Mobius(x_j), x_k))))
            for j, x_j in enumerate(nodes)
            if j != k
        ]
        expr = reduce(Mul, factors) if factors else Const(1.0)
        peaks.append(AnalyticFn(expr))
    family = InterpolationFamily(
        nodes=tuple(nodes),
        separation=float(d),
        peaks=tuple(peaks),
        sum_bound_estimate=0.0,
    )
    bound = float(family.sum_of_moduli(grid.points).max()) if len(nodes) > 1 else 1.0
    return InterpolationFamily(family.nodes, family.separation, family.peaks, bound)
