"""Criterion fields, shell reduction, and statement classification."""

import numpy as np
import pytest

from blochlab import (
    Conclusion,
    CriterionKind,
    Membership,
    NotASelfMap,
    NotFiniteOnGrid,
    OperatorKind,
    PreconditionFailed,
    THEOREMS,
    Thresholds,
    analytic,
    bloch_seminorm,
    classify,
    commutator_derivative,
    commutator_seminorm,
    commutator_seminorms,
    criterion_value,
    evaluate_criterion,
    hinf_norm,
    little_bloch_membership,
    validate_self_map,
)
from blochlab.criteria import (
    ONE_SIDED_NOTE,
    PHI_BOUNDARY_KINDS,
    SYMBOL_KINDS,
    TAIL_SHELLS,
    CriterionReport,
    FieldSet,
    MapFields,
    SymbolFields,
    read_tail,
)
from blochlab.diskgeom import DiskGrid, shell_for_modulus, shell_maxima, shell_segments


# --------------------------------------------------------------------------
# pointwise fields against closed forms (phi = z/2 throughout)


def _halving_ring(radius: float, n: int = 64) -> np.ndarray:
    return radius * np.exp(2j * np.pi * np.arange(n) / n)


@pytest.mark.parametrize("radius", [0.2, 0.5, 0.8, 0.95])
def test_ki_closed_form_for_halving_map(self_map, radius):
    phi, g = self_map("z/2"), analytic("z")
    pts = _halving_ring(radius)
    expected = radius * (1.0 - radius**2) / (4.0 - radius**2)
    vals = criterion_value(CriterionKind.KI, phi, g, pts)
    assert np.allclose(vals, expected, rtol=1e-13, atol=0)


@pytest.mark.parametrize("radius", [0.2, 0.5, 0.8, 0.95])
def test_kj_closed_form_for_halving_map(self_map, radius):
    phi, g = self_map("z/2"), analytic("z")
    pts = _halving_ring(radius)
    expected = (1.0 - radius**2) / 2.0
    vals = criterion_value(CriterionKind.KJ, phi, g, pts)
    assert np.allclose(vals, expected, rtol=1e-13, atol=0)


@pytest.mark.parametrize("radius", [0.2, 0.5, 0.8])
def test_kjlog_adds_logarithmic_weight(self_map, radius):
    phi, g = self_map("z/2"), analytic("z")
    pts = _halving_ring(radius)
    base = criterion_value(CriterionKind.KJ, phi, g, pts)
    weighted = criterion_value(CriterionKind.KJLOG, phi, g, pts)
    factor = np.log(2.0 / (1.0 - (radius / 2.0) ** 2))
    assert np.allclose(weighted, base * factor, rtol=1e-13, atol=0)


@pytest.mark.parametrize("radius", [0.2, 0.5, 0.8, 0.95])
def test_lg_closed_form_identity_symbol(radius):
    g = analytic("z")
    pts = _halving_ring(radius)
    expected = (1.0 - radius**2) * np.log(2.0 / (1.0 - radius**2))
    vals = criterion_value(CriterionKind.LG, None, g, pts)
    assert np.allclose(vals, expected, rtol=1e-13, atol=0)


def test_constant_symbol_has_identically_zero_fields(self_map):
    phi, g = self_map("mobius(0.5)"), analytic("complex(0.25,-0.5)")
    pts = _halving_ring(0.7, 256)
    assert np.all(criterion_value(CriterionKind.KI, phi, g, pts) == 0.0)
    assert np.all(criterion_value(CriterionKind.KJ, phi, g, pts) == 0.0)


# --------------------------------------------------------------------------
# shell reduction


def test_report_structure_and_maxima(grid6, self_map):
    phi, g = self_map("z/2"), analytic("z")
    report = FieldSet(MapFields(phi, grid6), SymbolFields(g, grid6)).report(CriterionKind.KI, "z")
    vals = criterion_value(CriterionKind.KI, phi, g, grid6.points)
    assert report.sup_value == float(vals.max())
    at_arg = float(criterion_value(CriterionKind.KI, phi, g, report.arg_sup))
    assert at_arg == report.sup_value
    shells = dict(report.shell_sups)
    assert sorted(shells) == list(range(grid6.max_shell + 1))
    assert report.sup_value == max(shells.values())
    assert report.boundary_limsup_estimate == max(
        s for _, s in report.shell_sups[-3:]
    )
    assert not report.vacuous_boundary
    assert report.bucket_by == "z"


def test_phi_bucketing_collapses_small_images(grid6, self_map):
    # |z/2| never exceeds ~0.5, so image shells near the boundary are empty
    phi, g = self_map("z/2"), analytic("z")
    report = evaluate_criterion(CriterionKind.KI, phi, g, grid6)
    occupied = [k for k, _ in report.shell_sups]
    assert max(occupied) < grid6.max_shell
    assert report.vacuous_boundary
    assert report.boundary_limsup_estimate == 0.0


def test_report_rejects_an_unknown_limit_variable(grid6, self_map):
    fields = FieldSet(MapFields(self_map("z/2"), grid6), SymbolFields(analytic("z"), grid6))
    for bucket_by in ("Phi", ""):
        with pytest.raises(ValueError, match="bucket_by"):
            fields.report(CriterionKind.KI, bucket_by)
    by_phi = fields.report(CriterionKind.KI, "phi")
    assert (by_phi.bucket_by, len(by_phi.shell_sups), by_phi.vacuous_boundary) == ("phi", 1, True)
    by_z = fields.report(CriterionKind.KI, "z")
    assert (by_z.bucket_by, len(by_z.shell_sups), by_z.vacuous_boundary) == ("z", 7, False)
    assert by_phi.sup_value == by_z.sup_value == 0.10551948051948051


def test_auto_bucketing_follows_kind(grid6, self_map):
    phi, g = self_map("z/2"), analytic("z")
    assert evaluate_criterion(CriterionKind.KI, phi, g, grid6).bucket_by == "phi"
    assert evaluate_criterion(CriterionKind.LG, phi, g, grid6).bucket_by == "z"


@pytest.mark.parametrize("kind", list(CriterionKind), ids=lambda kind: kind.value)
def test_report_defaults_to_the_kinds_limit_variable(grid6, self_map, kind):
    """Without ``bucket_by`` a set's report is its report on the kind's limit variable, the
    same object, and equals the report evaluate_criterion samples for itself."""
    phi, g = self_map("mobius(0.5)"), analytic("log(2/(1-0.9*z))")
    fields = FieldSet(MapFields(phi, grid6), SymbolFields(g, grid6))
    report = fields.report(kind)
    assert report is fields.report(kind, "phi" if kind in PHI_BOUNDARY_KINDS else "z")
    assert report == evaluate_criterion(kind, phi, g, grid6)


def test_sets_joined_from_shared_sides_read_one_array_per_field(grid6):
    """Lg and LgLogBoundedness read one array, and every pair reads the symbol side's own
    array of each symbol kind."""
    g = SymbolFields(analytic("log(2/(1-0.9*z))"), grid6)
    pairs = [FieldSet(MapFields(validate_self_map(analytic(src), grid6), grid6), g)
             for src in ("z/2", "mobius(0.5)")]
    for fields in pairs:
        assert fields.values(CriterionKind.LG) is fields.values(CriterionKind.LG_LOG_BOUNDEDNESS)
        for kind in SYMBOL_KINDS:
            assert fields.values(kind) is g.values(kind), kind


def test_a_set_with_no_map_reads_only_symbol_kinds(grid6):
    fields = FieldSet(MapFields(None, grid6), SymbolFields(analytic("z^2"), grid6))
    for kind in SYMBOL_KINDS:
        assert fields.values(kind) is fields.symbol_side.values(kind)
        assert fields.report(kind) is fields.symbol_side.report(kind)
    for kind in PHI_BOUNDARY_KINDS:
        for read in (fields.values, fields.report):
            with pytest.raises(ValueError, match=f"criterion {kind.value} requires a self-map"):
                read(kind)
    # a symbol field on |phi| shells reads the map side, which refuses every |phi| read
    for kind in SYMBOL_KINDS:
        with pytest.raises(ValueError, match="requires a self-map"):
            fields.report(kind, "phi")
    for name in ("w", "moduli", "one_minus_w", "log_factor", "phi_sharp", "phi_shells"):
        with pytest.raises(ValueError, match="requires a self-map"):
            getattr(fields.map_side, name)


def test_report_serializes(grid6, self_map):
    report = evaluate_criterion(
        CriterionKind.KJ, self_map("mobius(0.5)"), analytic("z^2"), grid6
    )
    data = report.to_dict()
    assert data["kind"] == "KJ"
    assert data["bucket_by"] == "phi"
    assert len(data["shell_sups"]) == len(report.shell_sups)


# --------------------------------------------------------------------------
# the shared field set against the per-shell mask loop it replaced


def _mask_loop_reduction(values, phi, grid, bucket_by):
    """One boolean mask per shell, shells recomputed from the moduli."""
    pts = grid.points
    if bucket_by == "phi":
        moduli = np.abs(np.broadcast_to(np.asarray(phi(pts)), pts.shape))
        # one rule for raw and validated maps: sampled max plus 2**-(K+1), capped at 1
        sup_modulus = min(1.0, float(moduli.max()) + 2.0 ** -(grid.max_shell + 1))
    else:
        moduli, sup_modulus = np.abs(pts), None
    m = np.minimum(moduli, 1.0 - np.finfo(float).tiny)
    ks = np.clip(np.floor(-np.log2(1.0 - m)), 0, grid.max_shell).astype(int)
    shell_sups = tuple(
        (k, float(values[ks == k].max())) for k in range(grid.max_shell + 1) if np.any(ks == k)
    )
    vacuous = sup_modulus is not None and sup_modulus < 1.0 - 2.0 ** (-grid.max_shell)
    j = int(np.argmax(values))
    return shell_sups, float(values[j]), complex(pts[j]), vacuous


def _assert_same_reduction(report, expected):
    shell_sups, sup_value, arg_sup, vacuous = expected
    assert report.shell_sups == shell_sups
    assert report.sup_value == sup_value
    assert report.arg_sup == arg_sup
    assert report.vacuous_boundary is vacuous
    limsup = 0.0 if vacuous else max(s for _, s in shell_sups[-3:])
    assert report.boundary_limsup_estimate == limsup


class _GappedMap:
    """Not analytic: sends grid shell ``k`` onto ``|phi|`` shell ``2k``, so odd ones stay empty."""

    def __call__(self, z):
        k = shell_for_modulus(np.abs(z), 64)
        return (1.0 - 0.75 * 4.0 ** -k) * z / np.abs(z)

    def deriv(self, z):
        return np.ones_like(z)


# z/2 leaves every |phi| shell past the first empty; z^2/2 is not a SelfMap;
# the gapped map leaves |phi| shells 1, 3, 5 and 7 empty between nonempty ones.
@pytest.mark.parametrize(
    "phi_src, validated",
    [("z/2", True), ("mobius(0.5)", True), ("(z+0.3)/2", True), ("z^2/2", False),
     ("gapped", False)],
)
@pytest.mark.parametrize("bucket_by", ["phi", "z"])
def test_field_set_matches_per_shell_mask_loop(grid8, phi_src, validated, bucket_by):
    if phi_src == "gapped":
        phi = _GappedMap()
    else:
        phi = validate_self_map(analytic(phi_src), grid8) if validated else analytic(phi_src)
    g = analytic("log(2/(1-0.9*z))")
    fields = FieldSet(MapFields(phi, grid8), SymbolFields(g, grid8))
    for kind in CriterionKind:
        values = criterion_value(kind, phi, g, grid8.points)
        expected = _mask_loop_reduction(values, phi, grid8, bucket_by)
        _assert_same_reduction(fields.report(kind, bucket_by), expected)
        if bucket_by == ("phi" if kind in PHI_BOUNDARY_KINDS else "z"):
            _assert_same_reduction(evaluate_criterion(kind, phi, g, grid8), expected)

    # a NaN in one |z| shell and an inf in another reach their shells' maxima
    pts = grid8.points
    values = np.linspace(0.0, 1.0, grid8.size)
    shell_start = np.cumsum((0,) + grid8.angular_counts)
    values[shell_start[2] + 5] = np.nan
    values[shell_start[6]] = np.inf
    if bucket_by == "phi":
        moduli = np.abs(np.broadcast_to(np.asarray(phi(pts)), pts.shape))
        segments = shell_segments(shell_for_modulus(moduli, grid8.max_shell), grid8.max_shell)
    else:
        segments = grid8.segments
    expected = _mask_loop_reduction(values, phi, grid8, bucket_by)[0]
    assert repr(shell_maxima(values, segments)) == repr(expected)
    if bucket_by == "z":
        assert np.isnan(dict(expected)[2]) and dict(expected)[6] == np.inf
    elif phi_src == "gapped":
        assert [k for k, _ in expected] == [0, 2, 4, 6, 8]

    if validated and bucket_by == "z":
        w = phi(pts)
        ratio = np.log(2.0 / (1.0 - np.abs(w) ** 2)) / np.log(2.0 / (1.0 - np.abs(pts) ** 2))
        assert shell_maxima(ratio, grid8.segments) == _mask_loop_reduction(ratio, phi, grid8, "z")[0]


@pytest.mark.parametrize(
    "phi_src, g_src",
    [("mobius(0.8)", "log(2/(1-0.999*z))"), ("z/2", "log(2/(1-0.9*z))"),
     ("(z+0.3)/2", "1-mobius(0.7)"), ("-mobius(0.7)", "z^2")],
)
def test_any_point_set_reports_by_the_grid_rule(grid8, phi_src, g_src):
    """The grid's points in a shuffled order read the grid's shells and reports."""
    shuffled = DiskGrid(grid8.points[np.random.default_rng(21).permutation(grid8.size)])
    assert shuffled.segments.order is not None
    assert (shuffled.max_shell, shuffled.angular_counts) == (grid8.max_shell, grid8.angular_counts)
    for ours, theirs in zip(shuffled.shells(), grid8.shells(), strict=True):
        assert np.array_equal(np.sort_complex(ours), np.sort_complex(theirs))
    phi, g = validate_self_map(analytic(phi_src), grid8), analytic(g_src)
    on_grid, on_points = (FieldSet(MapFields(phi, grid), SymbolFields(g, grid)) for grid in (grid8, shuffled))
    for kind in CriterionKind:
        for bucket_by in ("phi", "z"):
            expected, report = on_grid.report(kind, bucket_by), on_points.report(kind, bucket_by)
            read = [(r.shell_sups, r.sup_value, r.boundary_limsup_estimate, r.vacuous_boundary)
                    for r in (expected, report)]
            assert repr(read[0]) == repr(read[1]), (kind, bucket_by)


def test_hypothesis_fields_match_per_shell_mask_loop(grid8, self_map):
    phi, g = self_map("mobius(0.5)", grid8), analytic("1-mobius(0.7)")
    pts = grid8.points
    sup_norm = classify("T3.2", phi, g, grid8).evidence[0]
    bloch = classify("C4.3", None, g, grid8).evidence[0]
    assert (sup_norm.kind, bloch.kind) == (CriterionKind.SUP_NORM, CriterionKind.BLOCH)
    assert (sup_norm.kind.value, bloch.kind.value) == ("|g|", "(1-|z|^2)|g'|")
    _assert_same_reduction(sup_norm, _mask_loop_reduction(np.abs(g(pts)), None, grid8, "z"))
    bloch_values = (1.0 - np.abs(pts) ** 2) * np.abs(g.deriv(pts))
    _assert_same_reduction(bloch, _mask_loop_reduction(bloch_values, None, grid8, "z"))


# --------------------------------------------------------------------------
# the tail reader, branch by branch, on hand-written tails

_TH = Thresholds()  # divergence 1e3, compact_tol 1e-2
_FLOOR = 1e-9 * (1.0 + 1.0)  # the growth floor of a tail ending at 1.0
# a tail ending at 2.5e-9 whose second step is exactly its floor (the subtraction is exact)
_S2 = 2.5e-9
_S1 = _S2 - 1e-9 * (1.0 + _S2)


def _tail(*sups, sup=None, vacuous=False):
    """A report whose nonempty shells hold ``sups``, reduced as a field set reduces them."""
    return CriterionReport(
        kind=CriterionKind.KI,
        sup_value=max(sups) if sup is None else sup,
        arg_sup=0j,
        shell_sups=tuple(enumerate(sups)),
        boundary_limsup_estimate=0.0 if vacuous else max(sups[-TAIL_SHELLS:]),
        vacuous_boundary=vacuous,
    )


NBE, B, NCE, C, INC = (Conclusion.NOT_BOUNDED_EVIDENCE, Conclusion.BOUNDED,
                       Conclusion.NOT_COMPACT_EVIDENCE, Conclusion.COMPACT, Conclusion.INCONCLUSIVE)


@pytest.mark.parametrize("report, expected", [
    # sup above / at / below divergence, with and without growth
    (_tail(1.0, 2.0, 3.0, sup=2e3), NBE),
    (_tail(1.0, 2.0, 3.0, sup=500.0), INC),
    (_tail(1.0, 2.0, 3.0, sup=1e3), INC),
    (_tail(3.0, 3.0, 3.0, sup=2e3), INC),
    (_tail(3.0, 3.0, 3.0, sup=1e3), B),
    (_tail(3.0, 2.0, 1.0), B),
    # a tail shorter than three shells never grows
    (_tail(1.0, 2.0, sup=2e3), INC),
    (_tail(2.0, sup=2e3), INC),
    (_tail(1.0, 2.0), B),
    # only the last three shells are the tail
    (_tail(9.0, 1.0, 2.0, 3.0, sup=2e3), NBE),
    (_tail(1.0, 2.0, 3.0, 3.0, sup=2e3), INC),
    # a step exactly at the floor 1e-9 (1 + last) is no growth; one ulp above it is
    (_tail(0.0, _FLOOR, 1.0, sup=2e3), INC),
    (_tail(0.0, np.nextafter(_FLOOR, 1.0), 1.0, sup=2e3), NBE),
    (_tail(_S1 - 1.05e-9, _S1, _S2, sup=2e3), INC),
    (_tail(_S1 - 1.05e-9, np.nextafter(_S1, 0.0), _S2, sup=2e3), NBE),
    # a second step exactly at 0.9 times the first keeps pace (0.9 * 10.0 == 9.0); one ulp under
    # it does not
    (_tail(0.0, 10.0, 19.0, sup=2e3), NBE),
    (_tail(0.0, 10.0, np.nextafter(19.0, 0.0), sup=2e3), INC),
    (_tail(0.0, 10.0, np.nextafter(19.0, 0.0), sup=500.0), B),
])
def test_sup_reading_of_hand_written_tails(report, expected):
    assert read_tail(report, _TH, limit=False) is expected


def test_hand_written_edges_are_exact_in_floating_point():
    assert _S2 - _S1 == 1e-9 * (1.0 + _S2)
    assert 19.0 - 10.0 == 0.9 * 10.0
    assert 1e-12 + 1e-12 == 2e-12


@pytest.mark.parametrize("report, expected", [
    # a vacuous boundary is compact whatever the shells hold
    (_tail(5.0, 5.0, 5.0, sup=2e3, vacuous=True), C),
    # a tail all at least compact_tol, its minimum exactly at it, or one shell under it
    (_tail(0.012, 0.011, 0.01), NCE),
    (_tail(0.01, 0.02, 0.03), NCE),
    (_tail(0.012, 0.011, np.nextafter(0.01, 0.0)), INC),
    (_tail(0.02, 0.005, 0.03), INC),
    # non-increasing within 1e-12 (1e-12 + 1e-12 == 2e-12), and one ulp past the slack
    (_tail(0.0, 1e-12, 2e-12), C),
    (_tail(0.0, 1e-12, np.nextafter(2e-12, 1.0)), INC),
    (_tail(0.003, 0.002, 0.001), C),
    (_tail(0.002, 0.002, 0.002), C),
    # a rising tail under compact_tol
    (_tail(0.001, 0.002, 0.003), INC),
    # a non-increasing tail whose limsup estimate is exactly compact_tol, or one ulp under it
    (_tail(0.01, 0.005, 0.001), INC),
    (_tail(np.nextafter(0.01, 0.0), 0.005, 0.001), C),
    # the sup does not enter, and only the last three shells are the tail
    (_tail(0.003, 0.002, 0.001, sup=2e3), C),
    (_tail(0.001, 0.003, 0.002, 0.001), C),
    (_tail(0.5, 0.5, 0.5, 0.001), INC),
])
def test_limit_reading_of_hand_written_tails(report, expected):
    assert read_tail(report, _TH, limit=True) is expected


class _GivenReports:
    """A field set that hands out given reports: one on ``|z|`` shells, one on ``|phi|`` shells."""

    def __init__(self, by_z, by_phi):
        self.reports = {"z": by_z, "phi": by_phi}

    def check_pair(self, phi, g, grid):
        pass

    def report(self, kind, bucket_by):
        return self.reports[bucket_by]


_SUP_READS = {NBE: _tail(1.0, 2.0, 3.0, sup=2e3), B: _tail(3.0, 2.0, 1.0), INC: _tail(1.0, 2.0, 3.0)}
_LIMIT_READS = {C: _tail(0.003, 0.002, 0.001), NCE: _tail(1.0, 1.0, 1.0),
                INC: _tail(0.001, 0.002, 0.003)}
_DIVERGES = "sup diverges, so the limit condition cannot hold"


@pytest.mark.parametrize("sup", list(_SUP_READS), ids=lambda c: c.value)
@pytest.mark.parametrize("limit", list(_LIMIT_READS), ids=lambda c: c.value)
@pytest.mark.parametrize("theorem_id", ["T3.1", "C3.3", "T4.1b"])
def test_classify_combines_the_sup_and_limit_readings(theorem_id, sup, limit):
    """A ``|phi|`` statement reads its ``|z|`` report as a sup and its ``|phi|`` report as a limit."""
    by_z, by_phi = _SUP_READS[sup], _LIMIT_READS[limit]
    verdict = classify(theorem_id, object(), object(), None, fields=_GivenReports(by_z, by_phi))
    mode = THEOREMS[theorem_id].mode
    if mode == "bounded":
        expected, notes = sup, ()
    elif sup is NBE:
        expected, notes = NCE, (_DIVERGES,) if mode == "limit" else ()
    elif mode == "limit":
        expected, notes = limit, ()
    else:  # bounded+limit: compact only when both readings say so
        expected = NCE if limit is NCE else C if (sup, limit) == (B, C) else INC
        notes = ()
    assert verdict.conclusion is expected
    assert verdict.notes == (ONE_SIDED_NOTE,) + notes
    assert verdict.evidence == (by_phi, by_z)


@pytest.mark.parametrize("limit, note", [
    (C, "symbol trends into the little Bloch space"),
    (NCE, "sufficiency-only statement: membership NotInB0Evidence"),
    (INC, "sufficiency-only statement: membership Inconclusive"),
], ids=lambda x: getattr(x, "value", "note"))
def test_membership_statement_concludes_only_on_membership(limit, note):
    report = _LIMIT_READS[limit]
    verdict = classify("C4.3", None, object(), None, fields=_GivenReports(report, None))
    assert verdict.conclusion is (C if limit is C else INC)
    assert verdict.notes == (ONE_SIDED_NOTE, note)
    assert verdict.evidence == (report,)


# --------------------------------------------------------------------------
# registry and classification


def test_registry_names_eleven_statements():
    assert len(THEOREMS) == 11
    assert set(THEOREMS) == {
        "T3.1", "T3.2", "C3.3", "C3.4",
        "T4.1a", "T4.1b", "C4.2", "C4.3",
        "P4.6", "P4.7", "T4.9",
    }
    assert not THEOREMS["C4.3"].needs_phi
    assert not THEOREMS["T4.9"].needs_phi
    assert THEOREMS["T3.2"].precheck is CriterionKind.SUP_NORM
    assert THEOREMS["T4.9"].precheck is CriterionKind.LG_LOG_BOUNDEDNESS


def test_classify_rejects_unknown_statement(grid6, self_map):
    with pytest.raises(ValueError, match="unknown theorem id"):
        classify("T9.9", self_map("z/2"), analytic("z"), grid6)


def test_classify_requires_map_when_statement_does(grid6):
    with pytest.raises(ValueError, match="requires a self-map"):
        classify("T3.1", None, analytic("z"), grid6)


def test_classify_membership_statement_without_map(default_grid):
    verdict = classify("C4.3", None, analytic("z"), default_grid)
    assert verdict.conclusion is Conclusion.COMPACT
    assert any("little Bloch" in note for note in verdict.notes)


def test_classify_bounded_statement(grid6, self_map):
    verdict = classify("T3.1", self_map("mobius(0.5)"), analytic("z^2"), grid6)
    assert verdict.conclusion is Conclusion.BOUNDED
    # main phi-bucketed report plus the |z|-shell growth report
    buckets = [r.bucket_by for r in verdict.evidence]
    assert buckets == ["phi", "z"]


def test_classify_vacuous_boundary_gives_compact(grid6, self_map):
    verdict = classify("T3.2", self_map("z/2"), analytic("z"), grid6)
    assert verdict.conclusion is Conclusion.COMPACT
    main = verdict.evidence[1]  # after the sup-norm hypothesis report
    assert main.vacuous_boundary


def test_vacuity_is_read_on_the_grid_classified_on(grid6, default_grid):
    # the rotation reaches |phi| -> 1 on every grid; its sup on K=6 is only
    # 1 - 0.75 * 2**-6, which must not make the K=14 limit set look empty
    src, g = "exp(0.5i)*z", analytic("log(2/(1-z))")
    stale = validate_self_map(analytic(src), grid6)
    fresh = validate_self_map(analytic(src), default_grid)
    for theorem_id in ("T3.2", "T4.1b", "C3.3", "P4.7"):
        verdicts = [classify(theorem_id, phi, g, default_grid) for phi in (stale, fresh, fresh.fn)]
        assert verdicts[0].to_dict() == verdicts[1].to_dict() == verdicts[2].to_dict()
        if theorem_id != "P4.7":
            assert verdicts[0].conclusion is Conclusion.NOT_COMPACT_EVIDENCE
            assert not any(r.vacuous_boundary for r in verdicts[0].evidence)


def test_raw_and_validated_maps_share_one_vacuity_rule(default_grid):
    # max |phi| = 0.99997 r_14 lies within the shell margin 2**-15 of 1 - 2**-14
    raw, g = analytic("0.99997*z"), analytic("z")
    validated = validate_self_map(raw, default_grid)
    raw_verdict = classify("T3.2", raw, g, default_grid).to_dict()
    assert raw_verdict == classify("T3.2", validated, g, default_grid).to_dict()
    assert not any(r["vacuous_boundary"] for r in raw_verdict["evidence"])


def test_classify_precheck_failure_raises(default_grid, self_map):
    # |1/(1-z)| doubles from shell to shell and tops the divergence threshold
    phi = self_map("mobius(0.5)", default_grid)
    with pytest.raises(PreconditionFailed) as excinfo:
        classify("T3.2", phi, analytic("1/(1-z)"), default_grid)
    assert excinfo.value.report.kind.value == "|g|"


@pytest.mark.parametrize(
    "overrides", [{"compact_tol": 0.0}, {"compact_tol": float("nan")}, {"divergence": -1.0},
                  {"divergence": float("inf")}],
)
def test_thresholds_must_be_finite_and_positive(overrides):
    name = next(iter(overrides))
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        Thresholds(**overrides)


def test_verdict_serializes(grid6, self_map):
    verdict = classify("T3.1", self_map("z/2"), analytic("z"), grid6)
    data = verdict.to_dict()
    assert data["theorem_id"] == "T3.1"
    assert data["conclusion"] == "Bounded"
    assert data["thresholds"] == {"divergence": 1e3, "compact_tol": 1e-2}


# --------------------------------------------------------------------------
# membership trends


def test_identity_symbol_joins_little_bloch(default_grid):
    assert little_bloch_membership(analytic("z"), default_grid) is Membership.IN_B0


def test_steep_log_symbol_stays_out(default_grid):
    member = little_bloch_membership(analytic("log(2/(1-0.999*z))"), default_grid)
    assert member is Membership.NOT_IN_B0_EVIDENCE


def test_membership_is_threshold_sensitive(default_grid):
    # an enormous tolerance turns the steep symbol's tail into "small"
    member = little_bloch_membership(
        analytic("log(2/(1-0.999*z))"), default_grid, Thresholds(compact_tol=10.0)
    )
    assert member is not Membership.NOT_IN_B0_EVIDENCE


def test_membership_reads_only_this_symbols_fields_on_this_grid(grid6, default_grid):
    """A shared symbol side gives the same membership; another symbol's or grid's is refused."""
    g = analytic("log(2/(1-0.999*z))")
    shared = SymbolFields(g, default_grid)
    assert little_bloch_membership(g, default_grid, fields=shared) is Membership.NOT_IN_B0_EVIDENCE
    for other in (SymbolFields(analytic("log(2/(1-0.999*z))"), default_grid), SymbolFields(g, grid6)):
        with pytest.raises(ValueError, match="another symbol or grid"):
            little_bloch_membership(g, default_grid, fields=other)


# --------------------------------------------------------------------------
# one input gate: each side checks the samples it takes, so every entry point
# refuses what the CLI refuses, with the CLI's exception and witness

#: each library entry point that samples its inputs, called with a map ``phi`` and a
#: symbol ``g`` (a norm's ``f``); membership and the norms read no map
_ENTRY_POINTS = {
    "classify": lambda phi, g, grid: classify("T3.1", phi, g, grid),
    "evaluate_criterion": lambda phi, g, grid: evaluate_criterion(CriterionKind.KI, phi, g, grid),
    "criterion_value": lambda phi, g, grid: criterion_value(CriterionKind.KI, phi, g, grid.points),
    "little_bloch_membership": lambda phi, g, grid: little_bloch_membership(g, grid),
    "bloch_seminorm": lambda phi, g, grid: bloch_seminorm(g, grid),
    "hinf_norm": lambda phi, g, grid: hinf_norm(g, grid),
    "commutator_seminorm": lambda phi, g, grid: commutator_seminorm(
        OperatorKind.COMMUTATOR_I, phi, g, analytic("z"), grid),
}
_READ_A_MAP = ("classify", "evaluate_criterion", "criterion_value", "commutator_seminorm")

#: each entry point that samples a test function ``f`` at ``phi(z)``, called with ``phi = z/2``
#: and ``g = z`` (the family's first member is finite everywhere)
_F_AT_IMAGES = {
    "commutator_seminorm": lambda kind, f, grid: commutator_seminorm(
        kind, analytic("z/2"), analytic("z"), f, grid),
    "commutator_seminorms": lambda kind, f, grid: commutator_seminorms(
        kind, analytic("z/2"), analytic("z"), [analytic("z"), f], grid),
    "commutator_derivative": lambda kind, f, grid: commutator_derivative(
        kind, analytic("z/2"), analytic("z"), f, grid.points),
}

#: (id, a call on ``make_grid(6, 64)``, the pole it must be refused at): every entry point
#: with ``g`` (a norm's ``f``) singular at 0.25, the first point of shell 0; ``hinf_norm``
#: with ``f`` singular on its near-boundary circle, of radius ``1 - 2**-13`` at K=6; and each
#: commutator entry point, of either kind, with ``f`` singular at 0.3125 = phi(0.625)
_POLES = (
    [(entry, lambda grid, call=call: call(analytic("z/2"), analytic("1/(z-0.25)"), grid), 0.25)
     for entry, call in _ENTRY_POINTS.items()]
    + [("hinf_norm-circle", lambda grid: hinf_norm(analytic("1/(z-0.9998779296875)"), grid),
        0.9998779296875)]
    + [(f"{entry}-f-{kind.name[-1]}",
        lambda grid, call=call, kind=kind: call(kind, analytic("1/(z-0.3125)"), grid), 0.3125)
       for entry, call in _F_AT_IMAGES.items() for kind in OperatorKind]
)


@pytest.mark.parametrize("call, witness", [pole[1:] for pole in _POLES], ids=[pole[0] for pole in _POLES])
def test_every_entry_point_refuses_a_pole_on_the_grid(grid6, call, witness):
    # each gave inf or NaN evidence before the side that takes the sample checked it
    with pytest.raises(NotFiniteOnGrid) as refused:
        call(grid6)
    assert refused.value.witness == witness
    assert f"is not finite at the grid point z = {complex(witness)}" in str(refused.value)


@pytest.mark.parametrize("entry", _READ_A_MAP)
def test_every_entry_point_that_reads_a_map_refuses_one_that_leaves_the_disk(grid6, entry):
    with pytest.raises(NotASelfMap) as expected:
        validate_self_map(analytic("2*z"), grid6)
    with pytest.raises(NotASelfMap) as refused:
        _ENTRY_POINTS[entry](analytic("2*z"), analytic("z"), grid6)
    assert refused.value.witness == expected.value.witness
    assert str(refused.value) == str(expected.value)
