"""Shell grids, self-map validation, and hyperbolic-geometry inequalities."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochlab import (
    AUTOMORPHISM_PANEL,
    ROTATION_PANEL,
    SHRINKER_PANEL,
    DiskGrid,
    NotASelfMap,
    analytic,
    hinf_norm,
    make_grid,
    pseudo_hyperbolic,
    schwarz_pick_modulus_bound,
    validate_self_map,
)
from blochlab.criteria import MapFields
from blochlab.diskgeom import MAX_SHELL_LIMIT, shell_for_modulus, shell_radius

disk_points = st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False)


# --------------------------------------------------------------------------
# grid construction


def test_grid_shape_and_order(grid6):
    counts = tuple(64 * (k + 1) for k in range(7))
    assert grid6.angular_counts == counts
    assert (grid6.max_shell, grid6.base_angular, grid6.size) == (6, 64, sum(counts))
    # shell-major: shell k is the k-th contiguous run of counts[k] points
    assert np.array_equal(shell_for_modulus(np.abs(grid6.points), 6), np.repeat(np.arange(7), counts))
    assert grid6.segments.order is None
    assert grid6.segments.starts.tolist() == [sum(counts[:k]) for k in range(7)]
    for k, shell in enumerate(grid6.shells()):
        assert shell.size == counts[k]
        assert np.allclose(np.abs(shell), shell_radius(k), rtol=0, atol=1e-15)


@pytest.mark.parametrize("base_angular", [64, 1024])
def test_every_grid_reads_the_layout_it_was_built_with(base_angular):
    """The layout read from the points' |z| shells is make_grid's, at every depth, with no reorder."""
    for max_shell in range(4, MAX_SHELL_LIMIT + 1):
        grid = make_grid(max_shell, base_angular)
        counts = tuple(base_angular * (k + 1) for k in range(max_shell + 1))
        assert (grid.max_shell, grid.angular_counts, grid.base_angular) == (max_shell, counts, base_angular)
        assert all(type(n) is int for n in (grid.max_shell, grid.base_angular, *grid.angular_counts))
        assert grid.segments.order is None


def test_a_grid_holds_its_points_alone():
    assert [field.name for field in dataclasses.fields(DiskGrid)] == ["points"]
    # criterion_value builds a grid of one point for a scalar z; it has a layout too
    assert repr(DiskGrid(np.asarray(0.5j))) == "DiskGrid(max_shell=1, base_angular=1, size=1)"


def test_shell_radii_approach_boundary():
    radii = [shell_radius(k) for k in range(15)]
    assert radii[0] == 0.25
    assert all(b > a for a, b in zip(radii, radii[1:]))
    assert radii[14] == 1.0 - 0.75 * 2.0**-14


def test_refined_grid_contains_coarse_grid_exactly():
    coarse = make_grid(6, 64)
    fine = make_grid(8, 64)
    coarse_set = set(map(complex, coarse.points))
    fine_set = set(map(complex, fine.points))
    assert coarse_set <= fine_set


def test_grid_points_are_immutable(grid6):
    with pytest.raises(ValueError):
        grid6.points[0] = 0.0


def test_grid_parameter_validation():
    with pytest.raises(ValueError):
        make_grid(3, 64)
    with pytest.raises(ValueError):
        make_grid(6, 32)
    with pytest.raises(ValueError, match=f"max_shell must lie in \\[4, {MAX_SHELL_LIMIT}\\], got 47"):
        make_grid(MAX_SHELL_LIMIT + 1, 64)


def test_every_panel_map_validates_on_the_deepest_grid():
    grid = make_grid(MAX_SHELL_LIMIT, 64)
    for src in AUTOMORPHISM_PANEL + ROTATION_PANEL + SHRINKER_PANEL:
        validate_self_map(analytic(src), grid)
    # hinf_norm's circle still lies inside the disk, off the singularity at 1
    assert np.isfinite(hinf_norm(analytic("log(2/(1-z))"), grid).value)


@pytest.mark.parametrize(
    "max_shell, base_angular, bad",
    [(5.7, 64, "max_shell"), (6, 64.9, "base_angular"), ("6", 64, "max_shell")],
)
def test_grid_rejects_values_that_are_not_integers(max_shell, base_angular, bad):
    with pytest.raises(ValueError, match=f"{bad} must be an integer"):
        make_grid(max_shell, base_angular)


def test_grid_accepts_integral_values_of_other_types():
    grid = make_grid(6.0, np.int64(64))
    assert (grid.max_shell, grid.base_angular) == (6, 64)
    assert type(grid.max_shell) is int and type(grid.base_angular) is int


def test_shell_for_modulus_matches_radii():
    for k in range(10):
        assert shell_for_modulus(shell_radius(k), max_shell=10) == k
    # moduli beyond the last ring stay in the last shell
    assert shell_for_modulus(0.999999, max_shell=5) == 5
    out = shell_for_modulus(np.array([0.0, 0.5, 0.9]), max_shell=8)
    assert out.shape == (3,)


# --------------------------------------------------------------------------
# self-map validation


def test_validate_accepts_strict_contraction(grid6):
    phi = validate_self_map(analytic("z/2"), grid6)
    assert phi.sup_modulus_estimate == pytest.approx(0.5, abs=1e-2)
    assert not phi.is_automorphism
    assert phi.source == "z/2"
    assert phi(0.5) == 0.25


def test_validate_flags_disk_automorphism(grid6):
    assert validate_self_map(analytic("mobius(0.5)"), grid6).is_automorphism
    assert validate_self_map(analytic("exp(1.5i)*z"), grid6).is_automorphism


def test_validate_rejects_expanding_map(grid6):
    with pytest.raises(NotASelfMap):
        validate_self_map(analytic("2*z"), grid6)


def test_validate_rejects_constant_outside_disk(grid6):
    with pytest.raises(NotASelfMap):
        validate_self_map(analytic("z+1"), grid6)


@pytest.mark.parametrize("source, modulus", [("2", 2.0), ("1", 1.0), ("i", 1.0)])
def test_validate_rejects_constant_map_off_the_disk(grid6, source, modulus):
    # a constant expression evaluates to one scalar for the whole grid
    with pytest.raises(NotASelfMap) as excinfo:
        validate_self_map(analytic(source), grid6)
    assert excinfo.value.witness == grid6.points[0]
    assert excinfo.value.modulus == modulus


def test_validate_rejects_map_that_is_nan_on_the_grid(default_grid):
    # 0 * exp(800 z) is 0 * inf = NaN wherever exp overflows (Re z > ~0.89)
    fn = analytic("z/2 + 0*exp(800*z)")
    with np.errstate(over="ignore", invalid="ignore"):
        moduli = np.abs(fn(default_grid.points))
        with pytest.raises(NotASelfMap) as excinfo:
            validate_self_map(fn, default_grid)
    first_nan = int(np.flatnonzero(np.isnan(moduli))[0])
    assert excinfo.value.witness == default_grid.points[first_nan]
    assert np.isnan(excinfo.value.modulus)


def test_a_validated_map_side_keeps_validations_samples(grid6):
    """MapFields.validated: the same SelfMap as validate_self_map, validation's samples as w,
    and the same refusal with the same witness."""
    for src in ("z/2", "mobius(0.5)", "0.5+0.25i"):
        side = MapFields.validated(analytic(src), grid6)
        phi = validate_self_map(analytic(src), grid6)
        assert (side.phi.sup_modulus_estimate, side.phi.is_automorphism) == (
            phi.sup_modulus_estimate, phi.is_automorphism)
        assert np.array_equal(side.w, phi(grid6.points))
        assert np.array_equal(side.phi_sharp, MapFields(phi, grid6).phi_sharp)
    for src in ("2*z", "z+1", "i"):
        with pytest.raises(NotASelfMap) as refused:
            MapFields.validated(analytic(src), grid6)
        with pytest.raises(NotASelfMap) as expected:
            validate_self_map(analytic(src), grid6)
        assert str(refused.value) == str(expected.value)


# --------------------------------------------------------------------------
# hyperbolic derivative and modulus bounds


def test_halving_map_hyperbolic_derivative_profile(grid6):
    phi = validate_self_map(analytic("z/2"), grid6)
    pts = grid6.points
    r2 = np.abs(pts) ** 2
    expected = 0.5 * (1.0 - r2) / (1.0 - r2 / 4.0)
    assert np.allclose(MapFields(phi, grid6).phi_sharp, expected, rtol=1e-13, atol=0)


def test_automorphism_attains_hyperbolic_equality(grid6):
    phi = validate_self_map(analytic("mobius(0.3i)"), grid6)
    vals = MapFields(phi, grid6).phi_sharp
    assert np.max(np.abs(vals - 1.0)) <= 1e-9


def test_contraction_stays_below_hyperbolic_equality(grid6):
    phi = validate_self_map(analytic("(z+0.3)/2"), grid6)
    vals = MapFields(phi, grid6).phi_sharp
    assert float(vals.max()) <= 1.0 + 1e-12


def test_modulus_bound_dominates_map(grid6):
    for src in ("z/2", "(z+0.3)/2", "mobius(0.5)", "z^2/2"):
        phi = validate_self_map(analytic(src), grid6)
        pts = grid6.points
        bound = schwarz_pick_modulus_bound(phi, pts)
        assert np.all(np.abs(phi(pts)) <= bound + 1e-12)


# --------------------------------------------------------------------------
# pseudo-hyperbolic distance


def test_pseudo_hyperbolic_known_values():
    assert pseudo_hyperbolic(0.0, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert pseudo_hyperbolic(0.3j, 0.3j) == 0.0


@given(disk_points, disk_points)
@settings(max_examples=80)
def test_pseudo_hyperbolic_symmetric_and_bounded(u, v):
    d_uv = float(pseudo_hyperbolic(u, v))
    d_vu = float(pseudo_hyperbolic(v, u))
    assert d_uv == pytest.approx(d_vu, abs=1e-14)
    assert 0.0 <= d_uv < 1.0


@given(disk_points, disk_points, st.complex_numbers(max_magnitude=0.8, allow_nan=False))
@settings(max_examples=60)
def test_pseudo_hyperbolic_is_mobius_invariant(u, v, a):
    alpha = analytic(f"mobius(complex({a.real!r},{a.imag!r}))")
    before = float(pseudo_hyperbolic(u, v))
    after = float(pseudo_hyperbolic(alpha(u), alpha(v)))
    assert after == pytest.approx(before, abs=1e-12)
