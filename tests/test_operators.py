"""Integral operators, commutators, and sampled norms."""

import numpy as np
import pytest

from blochlab import (
    OperatorKind,
    QuadratureError,
    SupEstimate,
    analytic,
    apply_Ig,
    apply_Jg,
    bloch_norm,
    bloch_seminorm,
    commutator_derivative,
    commutator_seminorm,
    commutator_value,
    hinf_norm,
)
from blochlab.operators import _integrate_radial

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
