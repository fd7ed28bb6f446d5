"""Acceptance tests that no ``blochlab verify`` check states.

The numeric contracts (the commutator derivative identity, the chain bounds
and their peak-function converse, test-family normalization, Schwarz-Pick,
rigidity, little-Bloch sufficiency, the boundary log-ratio, the rotation
average, interpolation, series and expression round trips, report
determinism) are each certified once, by a named check in
:mod:`blochlab.verify`; ``tests/test_verify.py`` runs every check.  This file
keeps what no check covers: the worked halving-map example pinned to the
independently derived constant, the log symbol's rotation witness, and the
identity symbol's falling shell trend with its compact T4.9 verdict for every
map of the ten-map panel.  Loosening a tolerance here is an interface
decision, not a test fix.
"""

import math

import numpy as np
import pytest

from blochlab import (
    Conclusion,
    CriterionKind,
    ROTATION_PANEL,
    TEN_MAP_PANEL,
    classify,
    evaluate_criterion,
)

# Stationary-point value of r (1 - r^2) / (4 - r^2) on [0, 1), the radial
# profile of the I-type field for phi = z/2, g = z.  Frozen from
# scripts/worked_example_oracle.py; re-derived below by brute force.
HALVING_MAP_SUP = 0.10558219419811878


def test_halving_map_sup_matches_radial_oracle(self_map, fn, default_grid):
    r = np.linspace(0.0, 1.0, 1_000_000)
    brute = float(np.max(r * (1.0 - r * r) / (4.0 - r * r)))
    assert brute == pytest.approx(HALVING_MAP_SUP, abs=1e-9)

    phi, g = self_map("z/2", default_grid), fn("z")
    report = evaluate_criterion(CriterionKind.KI, phi, g, default_grid)
    assert report.sup_value == pytest.approx(HALVING_MAP_SUP, abs=1e-3)
    assert report.sup_value == pytest.approx(0.1056, abs=1e-3)

    verdict = classify("T3.2", phi, g, default_grid)
    assert verdict.conclusion is Conclusion.COMPACT
    # Evidence order: hypothesis check, main field, growth field.  The main
    # field buckets by |phi(z)|, which never reaches the outer shells for a
    # map with sup |phi| = 1/2, so compactness follows vacuously.
    assert verdict.evidence[1].vacuous_boundary


def test_log_symbol_rotation_witnesses_boundary_growth(self_map, fn, grid8, default_grid):
    g = fn("log(2/(1-0.999*z))")
    best_src, best = None, -math.inf
    for src in ROTATION_PANEL:
        report = evaluate_criterion(CriterionKind.KJ, self_map(src, grid8), g, grid8)
        if report.boundary_limsup_estimate > best:
            best_src, best = src, report.boundary_limsup_estimate
    assert best >= 1.5
    for grid in (grid8, default_grid):
        verdict = classify("T4.1b", self_map(best_src, grid), g, grid)
        assert verdict.conclusion is Conclusion.NOT_COMPACT_EVIDENCE


def test_identity_symbol_trend_compact_with_ratio_check(self_map, fn, default_grid):
    g = fn("z")
    report = evaluate_criterion(CriterionKind.LG, None, g, default_grid)
    tail = report.last_shell_sups(3)
    assert len(tail) == 3 and tail[0] > tail[1] > tail[2]
    assert max(tail) < 1e-2
    for phi_src in TEN_MAP_PANEL:
        phi = self_map(phi_src, default_grid)
        verdict = classify("T4.9", phi, g, default_grid)
        assert verdict.conclusion is Conclusion.COMPACT, phi_src
