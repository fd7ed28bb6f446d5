"""Test-function families, separated sequences, and interpolation peaks."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochlab import (
    LogFw,
    MobiusAlpha,
    PeakH,
    ProductF,
    bloch_seminorm,
    build_interpolation_family,
    hinf_norm,
    make_test_fn,
    pseudo_hyperbolic,
    select_separated_subsequence,
)

RADIAL_NODES = [1.0 - 2.0**-k for k in range(1, 11)]


# --------------------------------------------------------------------------
# family values


def test_mobius_family_swaps_origin_and_parameter():
    f = make_test_fn(MobiusAlpha(0.4 + 0.1j))
    assert f(0.0) == pytest.approx(0.4 + 0.1j, abs=1e-15)
    assert f(0.4 + 0.1j) == pytest.approx(0.0, abs=1e-15)


def test_peak_family_peaks_at_parameter():
    a = 0.7j
    h = make_test_fn(PeakH(a))
    assert h(a) == pytest.approx(1.0, abs=1e-15)
    assert h(0.0) == pytest.approx(1.0 - abs(a) ** 2, abs=1e-15)


def test_product_family_vanishes_at_parameter():
    a = 0.5 - 0.2j
    f = make_test_fn(ProductF(a))
    assert abs(f(a)) <= 1e-15


def test_log_family_value_at_origin():
    f = make_test_fn(LogFw(0.9))
    assert f(0.0) == pytest.approx(math.log(2.0), abs=1e-15)


@pytest.mark.parametrize(
    "family",
    [MobiusAlpha(1.0), PeakH(-1.2), ProductF(1j), LogFw(0.6 + 0.9j), LogFw(1.0)],
)
def test_parameters_outside_disk_are_rejected(family):
    with pytest.raises(ValueError):
        make_test_fn(family)


def test_only_a_family_makes_a_test_fn():
    for thing in (0.5, "mobius(0.5)", None):
        with pytest.raises(TypeError, match="unknown test family"):
            make_test_fn(thing)


FAMILIES = [
    (MobiusAlpha(0.5), "MobiusAlpha(a=0.5)", "a"),
    (PeakH(0.5), "PeakH(a=0.5)", "a"),
    (ProductF(0.5), "ProductF(a=0.5)", "a"),
    (LogFw(0.5), "LogFw(w=0.5)", "w"),
]


@pytest.mark.parametrize("family, text, name", FAMILIES, ids=[text for _, text, _ in FAMILIES])
def test_a_family_member_is_a_frozen_record_of_its_own_family(family, text, name):
    twin = type(family)(0.5)
    assert repr(family) == text
    assert family == twin and family is not twin and hash(family) == hash(twin)
    assert [f.name for f in dataclasses.fields(family)] == [name]
    assert type(family).__match_args__ == (name,)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(family, name, 0.25)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(family, name)


def test_families_at_one_point_differ():
    for (left, *_), (right, *_) in itertools.combinations(FAMILIES, 2):
        assert left != right and right != left


# --------------------------------------------------------------------------
# norms of the families


@given(
    st.floats(min_value=0.0, max_value=0.9),
    st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
)
@settings(max_examples=15, deadline=None)
def test_mobius_family_unit_seminorm(grid6, radius, angle):
    a = radius * complex(math.cos(angle), math.sin(angle))
    value = float(bloch_seminorm(make_test_fn(MobiusAlpha(a)), grid6))
    assert value == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("a", [0.5, 0.9j, -0.99, 0.6 - 0.6j])
def test_peak_family_seminorm_at_most_one(grid6, a):
    value = float(bloch_seminorm(make_test_fn(PeakH(a)), grid6))
    assert value <= 1.0 + 1e-9


@pytest.mark.parametrize("w", [0.5, 0.95, -0.8j])
def test_log_family_seminorm_at_most_two(grid6, w):
    value = float(bloch_seminorm(make_test_fn(LogFw(w)), grid6))
    assert value <= 2.0 + 1e-9


@pytest.mark.parametrize("a", [0.5, 0.9j, 0.7 - 0.2j])
def test_product_family_sup_norm_at_most_two(grid6, a):
    value = float(hinf_norm(make_test_fn(ProductF(a)), grid6))
    assert value <= 2.0 + 1e-9


def test_peak_family_concentrates_toward_boundary():
    # on a fixed inner circle the peaks decay as the parameter approaches 1
    circle = 0.5 * np.exp(2j * np.pi * np.arange(256) / 256)
    maxima = [
        float(np.max(np.abs(make_test_fn(PeakH(a))(circle))))
        for a in (0.9, 0.99, 0.999)
    ]
    assert maxima[0] > maxima[1] > maxima[2]


# --------------------------------------------------------------------------
# separated subsequences


def test_selector_output_is_mutually_separated():
    kept = select_separated_subsequence(RADIAL_NODES, 0.1)
    assert kept, "selector kept nothing from the radial ladder"
    for k, p in enumerate(kept):
        prod = math.prod(
            float(pseudo_hyperbolic(q, p)) for j, q in enumerate(kept) if j != k
        )
        assert prod >= 0.1


def test_selector_skips_node_that_would_starve_earlier_ones():
    kept = select_separated_subsequence(RADIAL_NODES, 0.1)
    # 0.9375 has own product 0.18 against {0.5, 0.75, 0.875} but admitting it
    # would drag 0.75's product below 0.1, so the mutual rule drops it
    assert complex(0.9375) not in kept
    assert kept[:5] == [0.5, 0.75, 0.875, 0.96875, 0.984375]


def test_selector_accepts_everything_when_demand_is_tiny():
    kept = select_separated_subsequence([0.1, 0.5j, -0.3], 1e-6)
    assert kept == [0.1, 0.5j, -0.3]


def test_selector_validates_separation_parameter():
    with pytest.raises(ValueError):
        select_separated_subsequence(RADIAL_NODES, 0.0)
    with pytest.raises(ValueError):
        select_separated_subsequence(RADIAL_NODES, 1.0)


def test_selector_handles_empty_input():
    assert select_separated_subsequence([], 0.1) == []


# --------------------------------------------------------------------------
# interpolation families


@pytest.fixture(scope="module")
def family(grid6):
    nodes = select_separated_subsequence(RADIAL_NODES, 0.1)[:5]
    return build_interpolation_family(nodes, 0.1, grid6)


def test_peaks_hit_kronecker_values(family):
    # off-diagonal zeros are exact (one factor is 0/positive); the diagonal
    # v/v ratios can land an ulp off 1.0 under numpy's complex division
    for k, h in enumerate(family.peaks):
        for j, node in enumerate(family.nodes):
            value = complex(h(node))
            if j == k:
                assert abs(value - 1.0) <= 1e-10
            else:
                assert value == 0.0


def test_family_reports_finite_sum_bound(family):
    assert family.sum_bound_estimate > 1.0
    assert math.isfinite(family.sum_bound_estimate)
    sampled = float(family.sum_of_moduli(np.array([0.3, 0.9j])).max())
    assert sampled <= family.sum_bound_estimate


def test_single_node_family_is_constant_one(grid6):
    fam = build_interpolation_family([0.5], 0.5, grid6)
    assert fam.sum_bound_estimate == 1.0
    assert complex(fam.peaks[0](0.123)) == 1.0


def test_family_rejects_underseparated_nodes(grid6):
    with pytest.raises(ValueError, match="violate separation"):
        build_interpolation_family([0.5, 0.51], 0.5, grid6)


def test_family_requires_nodes(grid6):
    with pytest.raises(ValueError):
        build_interpolation_family([], 0.1, grid6)
