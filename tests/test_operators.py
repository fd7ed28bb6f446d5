"""Integral operators, commutators, and sampled norms."""

import collections

import numpy as np
import pytest

from blochlab import (
    BLOCH_F_CORPUS,
    G_CORPUS,
    HINF_F_CORPUS,
    TEN_MAP_PANEL,
    AnalyticFn,
    OperatorKind,
    QuadratureError,
    SupEstimate,
    analytic,
    apply_Ig,
    apply_Jg,
    bloch_norm,
    bloch_seminorm,
    classify,
    commutator_derivative,
    commutator_seminorm,
    commutator_value,
    hinf_norm,
    make_grid,
)
from blochlab.criteria import FieldSet
from blochlab.operators import QUAD_TOL, PairSamples, _integrate_radial

POINTS = [0.3, -0.4 + 0.2j, 0.7j, 0.55 - 0.35j]


# --------------------------------------------------------------------------
# the two integral operators


def test_apply_Jg_polynomial_closed_form():
    # g = z^2, f = z: integrand f g' = 2u^2, antiderivative (2/3) z^3
    g, f = analytic("z^2"), analytic("z")
    for z in POINTS:
        assert apply_Jg(g, f, z) == pytest.approx((2.0 / 3.0) * z**3, abs=1e-12)


def test_apply_Ig_polynomial_closed_form():
    # g = z^2, f = z: integrand f' g = u^2, antiderivative z^3 / 3
    g, f = analytic("z^2"), analytic("z")
    for z in POINTS:
        assert apply_Ig(g, f, z) == pytest.approx(z**3 / 3.0, abs=1e-12)


@pytest.mark.parametrize(
    "g_src, f_src",
    [
        ("z^2", "exp(z)"),
        ("log(2/(1-0.5*z))", "mobius(0.3i)"),
        ("z^3-z+0.5", "(z+0.3)/2"),
    ],
)
def test_operators_sum_to_product_rule(g_src, f_src):
    # J_g f + I_g f integrates (f g)' from 0, so the sum telescopes
    g, f = analytic(g_src), analytic(f_src)
    for z in POINTS:
        total = apply_Jg(g, f, z) + apply_Ig(g, f, z)
        expected = f(z) * g(z) - f(0.0) * g(0.0)
        assert total == pytest.approx(expected, abs=1e-10)


def test_operators_vanish_at_origin():
    g, f = analytic("exp(z)"), analytic("z^2+1")
    assert apply_Jg(g, f, 0.0) == 0.0
    assert apply_Ig(g, f, 0.0) == 0.0


def test_integrate_radial_exponential():
    value = _integrate_radial(lambda u: np.exp(u), 0.6 + 0.2j)
    assert value == pytest.approx(np.exp(0.6 + 0.2j) - 1.0, abs=1e-12)


def test_quadrature_error_reports_achieved_tolerance():
    # boundedly oscillating at the inner endpoint: no bisection depth settles it
    with pytest.raises(QuadratureError) as excinfo:
        _integrate_radial(lambda u: np.sin(1.0 / np.abs(u + 1e-300)), 0.5)
    assert excinfo.value.achieved > 0.0
    assert "40 panels" in str(excinfo.value)


def _counting_samples_on_imaginary_axis(h):
    """Wrap ``h``; ``count[0]`` is the number of samples taken with real part 0."""
    count = [0]

    def wrapped(u):
        count[0] += int(np.count_nonzero(u.real == 0.0))
        return h(u)

    return wrapped, count


def test_smooth_point_is_not_refined_for_a_steep_one():
    # 1/(1.001 - u) is steep near u = 1 on the real ray and smooth on the
    # imaginary one; the smooth point's samples are the ones with real part 0
    def h(u):
        return 1.0 / (1.001 - u)

    alone, count_alone = _counting_samples_on_imaginary_axis(h)
    value_alone = _integrate_radial(alone, 0.3j)
    batched, count_batched = _counting_samples_on_imaginary_axis(h)
    values = _integrate_radial(batched, np.array([0.3j, 0.999]))
    assert count_batched[0] <= count_alone[0]
    assert abs(values[0] - value_alone) <= 1e-15
    assert values[1] == pytest.approx(np.log(1.001 / 0.002), abs=1e-10)


@pytest.mark.parametrize(
    "g_src, f_src",
    [("log(2/(1-0.999*z))", "mobius(0.5)"), ("z^3-z+0.5", "exp(z)"), ("mobius(0.3i)", "z^2")],
)
def test_batched_points_match_each_point_alone(g_src, f_src):
    # not bit-for-bit: the Gauss-Legendre mat-vec rounds differently per batch width
    g, f = analytic(g_src), analytic(f_src)
    radii = np.linspace(0.02, 0.95, 60)
    pts = radii * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 60, endpoint=False))
    for h in (lambda u: f(u) * g.deriv(u), lambda u: f.deriv(u) * g(u)):
        batch = _integrate_radial(h, pts)
        alone = np.array([_integrate_radial(h, complex(p)) for p in pts])
        assert np.max(np.abs(batch - alone)) <= 1e-15


def test_one_failing_point_fails_the_batch():
    # the oscillation of sin(1/|u|), moved to 0.25: only the point 0.5 crosses it
    def h(u):
        return np.sin(1.0 / np.abs(u - 0.25 + 1e-300))

    assert abs(_integrate_radial(h, 0.5j)) > 0.0
    with pytest.raises(QuadratureError) as excinfo:
        _integrate_radial(h, np.array([0.5j, 0.5, 0.3 - 0.4j]))
    assert excinfo.value.achieved > QUAD_TOL
    assert "40 panels" in str(excinfo.value)


# --------------------------------------------------------------------------
# commutator values


@pytest.mark.parametrize("kind", [OperatorKind.COMMUTATOR_I, OperatorKind.COMMUTATOR_J])
def test_identity_map_commutes_exactly(kind, self_map):
    phi = self_map("z")
    g, f = analytic("z^2"), analytic("exp(z)")
    for z in POINTS:
        assert abs(commutator_value(kind, phi, g, f, z)) <= 1e-12


@pytest.mark.parametrize("kind", [OperatorKind.COMMUTATOR_I, OperatorKind.COMMUTATOR_J])
def test_commutator_value_differentiates_to_closed_form(kind, self_map):
    phi = self_map("(z+0.3)/2")
    g, f = analytic("log(2/(1-0.5*z))"), analytic("mobius(0.3i)")
    h = 1e-5
    for z in POINTS:
        fd = (
            commutator_value(kind, phi, g, f, z + h)
            - commutator_value(kind, phi, g, f, z - h)
        ) / (2 * h)
        cd = commutator_derivative(kind, phi, g, f, z)
        assert abs(fd - cd) / (1.0 + abs(cd)) < 1e-6


class _CountingAwayFrom:
    """Wrap ``f``; ``count`` is the number of samples of ``f`` or ``f'`` away from ``point``."""

    def __init__(self, f, point: complex):
        self.f, self.point, self.count = f, point, 0

    def _sampled(self, u):
        self.count += int(np.count_nonzero(np.asarray(u) != self.point))
        return u

    def __call__(self, u):
        return self.f(self._sampled(u))

    def deriv(self, u):
        return self.f.deriv(self._sampled(u))


@pytest.mark.parametrize("kind", [OperatorKind.COMMUTATOR_I, OperatorKind.COMMUTATOR_J])
def test_constant_map_integrates_its_one_point_once(kind):
    # phi(z) = w for every z: the first integral samples f on [0, w) once,
    # with 3 panels of 16 nodes; the second samples f only at w itself
    w = 0.5 + 0.25j
    phi, g, f = analytic("0.5+0.25i"), analytic("log(2/(1-0.9*z))"), analytic("mobius(0.5)")
    z = make_grid(6, 64).points
    counting = _CountingAwayFrom(f, w)
    values = commutator_value(kind, phi, g, counting, z)
    assert counting.count == 48
    assert values.shape == z.shape
    alone = np.array([commutator_value(kind, phi, g, f, complex(p)) for p in z[::7]])
    assert np.max(np.abs(values[::7] - alone)) <= 1e-15


def test_commutator_is_linear_in_f(self_map):
    phi = self_map("z/2")
    g = analytic("z^2")
    f1, f2 = analytic("mobius(0.5)"), analytic("z^2")
    alpha = 0.7 - 0.2j
    combo = analytic("complex(0.7,-0.2)*(mobius(0.5))+z^2")
    for z in POINTS:
        left = commutator_value(OperatorKind.COMMUTATOR_I, phi, g, combo, z)
        right = alpha * commutator_value(
            OperatorKind.COMMUTATOR_I, phi, g, f1, z
        ) + commutator_value(OperatorKind.COMMUTATOR_I, phi, g, f2, z)
        assert abs(left - right) / (1.0 + abs(right)) < 1e-12


def test_commutator_derivative_respects_kind(self_map):
    phi = self_map("z/2")
    g, f = analytic("z"), analytic("z")
    z = 0.5
    # I-kind: phi'(z) f'(phi z) (g(phi z) - g(z)) = 0.5 * 1 * (-0.25)
    assert commutator_derivative(
        OperatorKind.COMMUTATOR_I, phi, g, f, z
    ) == pytest.approx(-0.125, abs=1e-15)
    # J-kind: f(phi z) (g'(phi z) phi'(z) - g'(z)) = 0.25 * (0.5 - 1)
    assert commutator_derivative(
        OperatorKind.COMMUTATOR_J, phi, g, f, z
    ) == pytest.approx(-0.125, abs=1e-15)


def test_commutator_rejects_non_commutator_kind(self_map):
    phi = self_map("z/2")
    g, f = analytic("z"), analytic("z")
    with pytest.raises(ValueError):
        commutator_value("composition", phi, g, f, 0.3)
    with pytest.raises(ValueError):
        commutator_derivative("volterra_j", phi, g, f, 0.3)


# --------------------------------------------------------------------------
# norms


def test_mobius_bloch_seminorm_is_one(grid6):
    value = float(bloch_seminorm(analytic("mobius(0.4)"), grid6))
    assert value == pytest.approx(1.0, abs=1e-6)


def test_bloch_norm_adds_origin_value(grid6):
    f = analytic("z+complex(2,0)")
    assert bloch_norm(f, grid6) == pytest.approx(3.0, abs=1e-12)


def test_constant_has_zero_seminorm(grid6):
    assert float(bloch_seminorm(analytic("complex(0.25,-0.5)"), grid6)) == 0.0


def test_bloch_seminorm_polish_survives_a_pole_on_the_grid(grid6):
    # the grid max sits on the pole at 0.25, where the polish starts
    with np.errstate(all="ignore"):
        est = bloch_seminorm(analytic("1/(z-0.25)"), grid6)
    assert est.value == np.inf and est.arg == 0.25


def test_hinf_norm_of_identity_hugs_boundary(grid6):
    value = float(hinf_norm(analytic("z"), grid6))
    assert 0.999 <= value <= 1.0 + 1e-12


def test_hinf_norm_of_bounded_quotient(grid6):
    # sup |2/(2 - z)| on the disk is 2, attained as z -> 1
    value = float(hinf_norm(analytic("2/(2-z)"), grid6))
    assert 1.999 <= value <= 2.0 + 1e-12


def test_sup_estimate_records_argmax(grid6):
    est = bloch_seminorm(analytic("z^2"), grid6)
    assert isinstance(est, SupEstimate)
    # (1-|z|^2) * 2|z| peaks at |z| = 1/sqrt(3)
    assert abs(est.arg) == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-2)
    assert float(est) == est.value


def test_commutator_seminorm_argmax_is_grid_point(grid6, self_map):
    phi = self_map("mobius(0.5)")
    est = commutator_seminorm(
        OperatorKind.COMMUTATOR_I, phi, analytic("z^2"), analytic("z"), grid6
    )
    assert est.value > 0.0
    assert complex(est.arg) in set(map(complex, grid6.points))


def test_shared_samples_give_the_same_seminorm(grid6, self_map, fn):
    """One field set per pair, the pair sampled per call and the closed form agree exactly."""
    pts = grid6.points
    for phi_src in TEN_MAP_PANEL:
        phi = self_map(phi_src)
        for g_src in G_CORPUS:
            g = fn(g_src)
            fields = FieldSet(phi, g, grid6)
            for kind, corpus in (
                (OperatorKind.COMMUTATOR_I, BLOCH_F_CORPUS),
                (OperatorKind.COMMUTATOR_J, HINF_F_CORPUS),
            ):
                for f_src in corpus:
                    f = fn(f_src)
                    shared = commutator_seminorm(kind, phi, g, f, grid6, fields=fields)
                    alone = commutator_seminorm(kind, phi, g, f, grid6)
                    d = commutator_derivative(kind, phi, g, f, pts)
                    direct = (1.0 - np.abs(pts) ** 2) * np.abs(np.broadcast_to(d, pts.shape))
                    j = int(np.argmax(direct))
                    assert shared == alone == SupEstimate(float(direct[j]), complex(pts[j]))


def test_shared_samples_evaluate_the_pair_once(monkeypatch, grid6, self_map):
    """n test functions on one sample set: 1 phi, 1 phi', at most 2 g and 2 g', n f."""
    calls = collections.Counter()

    def counting(method, label):
        def wrapper(self, z):
            if np.ndim(z) > 0:
                calls[(self, label)] += 1
            return method(self, z)

        return wrapper

    phi, g = self_map("mobius(0.5)"), analytic("log(2/(1-0.5*z))")
    f_i = [analytic(src) for src in BLOCH_F_CORPUS]
    f_j = [analytic(src) for src in HINF_F_CORPUS]
    monkeypatch.setattr(AnalyticFn, "__call__", counting(AnalyticFn.__call__, "f"))
    monkeypatch.setattr(AnalyticFn, "deriv", counting(AnalyticFn.deriv, "f'"))
    fields = PairSamples(phi, g, grid6.points)
    for f in f_i:
        commutator_seminorm(OperatorKind.COMMUTATOR_I, phi, g, f, grid6, fields=fields)
    for f in f_j:
        commutator_seminorm(OperatorKind.COMMUTATOR_J, phi, g, f, grid6, fields=fields)
    monkeypatch.undo()
    assert calls[(phi.fn, "f")] == 1 and calls[(phi.fn, "f'")] == 1
    assert calls[(g, "f")] <= 2 and calls[(g, "f'")] <= 2
    assert all(calls[(f, "f'")] == 1 and calls[(f, "f")] == 0 for f in f_i)
    assert all(calls[(f, "f")] == 1 and calls[(f, "f'")] == 0 for f in f_j)
    assert sum(n for (fn_, _), n in calls.items() if fn_ not in (phi.fn, g)) == 12


def test_seminorm_rejects_samples_of_another_pair(grid5, grid6, self_map):
    phi, g, f = self_map("z/2"), analytic("z"), analytic("z^2")
    other = PairSamples(phi, analytic("z"), grid6.points)
    with pytest.raises(ValueError, match="another"):
        commutator_seminorm(OperatorKind.COMMUTATOR_I, phi, g, f, grid6, fields=other)
    inner = PairSamples(phi, g, grid6.shells()[0])
    with pytest.raises(ValueError, match="another"):
        commutator_seminorm(OperatorKind.COMMUTATOR_J, phi, g, f, grid6, fields=inner)
    # classify reads the same check: another map's fields, or another grid's
    g = analytic("log(2/(1-z))")
    with pytest.raises(ValueError, match="another"):
        classify("T3.2", phi, g, grid6, fields=FieldSet(self_map("exp(0.5i)*z"), g, grid6))
    with pytest.raises(ValueError, match="another"):
        classify("T3.2", phi, g, grid6, fields=FieldSet(phi, g, grid5))
