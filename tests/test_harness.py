"""Panels, experiment execution, invariant checks, and report emission."""

import collections
import csv
import io
import json
import math
import re
import tracemalloc
from json.encoder import encode_basestring_ascii

import numpy as np
import pytest

from blochlab import (
    AUTOMORPHISM_PANEL,
    AnalyticFn,
    BLOCH_F_CORPUS,
    ExperimentSpec,
    G_CORPUS,
    HINF_F_CORPUS,
    POLYNOMIAL_G_CORPUS,
    ROTATION_PANEL,
    SHRINKER_PANEL,
    TEN_MAP_PANEL,
    THEOREMS,
    PreconditionFailed,
    analytic,
    classify,
    make_grid,
    run_classification,
    to_csv,
    to_json,
    validate_self_map,
)
from blochlab import criteria, harness
from blochlab.harness import CSV_COLUMNS


# --------------------------------------------------------------------------
# panels


def test_panel_sizes():
    assert len(AUTOMORPHISM_PANEL) == 8
    assert len(SHRINKER_PANEL) == 3
    assert len(ROTATION_PANEL) == 15
    assert len(TEN_MAP_PANEL) == 10
    assert len(G_CORPUS) == 9
    assert len(POLYNOMIAL_G_CORPUS) == 6
    assert len(BLOCH_F_CORPUS) == 6
    assert len(HINF_F_CORPUS) == 6


def test_ten_map_panel_extends_automorphisms():
    assert set(AUTOMORPHISM_PANEL) < set(TEN_MAP_PANEL)


def test_every_panel_member_is_a_self_map(grid6):
    for src in TEN_MAP_PANEL + SHRINKER_PANEL + ROTATION_PANEL:
        validate_self_map(analytic(src), grid6)


def test_corpora_parse():
    for src in G_CORPUS + POLYNOMIAL_G_CORPUS + BLOCH_F_CORPUS + HINF_F_CORPUS:
        analytic(src)


# --------------------------------------------------------------------------
# experiment specs


def _spec(**overrides):
    base = dict(
        phi_exprs=("z/2",),
        g_exprs=("z",),
        theorem_ids=("T3.1",),
        max_shell=5,
        base_angular=64,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.mark.parametrize(
    "overrides, bad",
    [({"max_shell": 5.7}, "max_shell"), ({"base_angular": 64.9}, "base_angular"),
     ({"max_shell": "6"}, "max_shell")],
)
def test_spec_rejects_grid_values_that_are_not_integers(overrides, bad):
    with pytest.raises(ValueError, match=f"{bad} must be an integer"):
        _spec(**overrides)


def test_spec_stores_integral_grid_values_as_ints():
    spec = _spec(max_shell=6.0, base_angular=np.int64(64))
    assert type(spec.max_shell) is int and type(spec.base_angular) is int
    assert spec.to_dict()["grid"] == {"max_shell": 6, "base_angular": 64}
    assert run_classification(spec).config["grid"] == {"max_shell": 6, "base_angular": 64}


def test_spec_roundtrips_through_dict():
    spec = _spec()
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec


def test_spec_from_json_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_spec().to_dict()), encoding="utf-8")
    assert ExperimentSpec.from_json_file(str(path)) == _spec()


@pytest.mark.parametrize(
    "overrides",
    [
        {"phi_exprs": ()},
        {"g_exprs": ()},
        {"theorem_ids": ()},
        {"theorem_ids": ("T3.1", "nope")},
        {"max_shell": 3},
        {"base_angular": 32},
        {"output": "xml"},
        {"max_shell": 47},
        {"phi_exprs": ("z/2", "z/2")},
        {"g_exprs": ("z", "z^2", "z")},
        {"theorem_ids": ("T3.1", "T3.1")},
    ],
)
def test_spec_validation_rejects(overrides):
    with pytest.raises(ValueError):
        _spec(**overrides)


_GOOD_SPEC = {"phi": ["z/2"], "g": ["z"], "theorems": ["T3.1"]}


@pytest.mark.parametrize(
    "data, key",
    [
        (["z/2"], "JSON object"),
        ({"g": ["z"], "theorems": ["T3.1"]}, "'phi'"),
        ({"phi": ["z/2"], "theorems": ["T3.1"]}, "'g'"),
        ({"phi": ["z/2"], "g": ["z"]}, "'theorems'"),
        (dict(_GOOD_SPEC, phi="z/2"), "'phi'"),
        (dict(_GOOD_SPEC, g=["z", 2]), "'g'"),
        (dict(_GOOD_SPEC, theorems="T3.1"), "'theorems'"),
        (dict(_GOOD_SPEC, grid=[5, 64]), "'grid'"),
        (dict(_GOOD_SPEC, thresholds=1e-2), "'thresholds'"),
        (dict(_GOOD_SPEC, grid={"max_shell": None}), "grid.max_shell"),
        (dict(_GOOD_SPEC, thresholds={"compact_tol": "small"}), "thresholds.compact_tol"),
        # read as an INI file is: unknown keys and sections, and no int from 5.7
        (dict(_GOOD_SPEC, grid={"maxshell": 5}), "grid.maxshell"),
        (dict(_GOOD_SPEC, threshold={"compact_tol": 0.1}), "'threshold'"),
        (dict(_GOOD_SPEC, grid={"max_shell": 5.7}), "grid.max_shell"),
        (dict(_GOOD_SPEC, outputs="csv"), "'outputs'"),
        # a threshold must be finite and positive
        (dict(_GOOD_SPEC, thresholds={"compact_tol": 0}), "thresholds.compact_tol"),
        (dict(_GOOD_SPEC, thresholds={"compact_tol": math.nan}), "thresholds.compact_tol"),
        (dict(_GOOD_SPEC, thresholds={"divergence": -1}), "thresholds.divergence"),
        (dict(_GOOD_SPEC, thresholds={"divergence": math.inf}), "thresholds.divergence"),
        # deeper than doubles can hold
        (dict(_GOOD_SPEC, grid={"max_shell": 47}), "max_shell must lie in [4, 46]"),
        # each map, symbol and statement once
        (dict(_GOOD_SPEC, phi=["z/2", "z", "z/2"]), "phi_exprs lists 'z/2' more than once"),
        (dict(_GOOD_SPEC, g=["z", "z"]), "g_exprs lists 'z' more than once"),
        (dict(_GOOD_SPEC, theorems=["T3.1", "T3.1"]), "theorem_ids lists 'T3.1' more than once"),
    ],
)
def test_spec_from_dict_names_the_malformed_key(data, key):
    with pytest.raises(ValueError, match=re.escape(key)):
        ExperimentSpec.from_dict(data)


# --------------------------------------------------------------------------
# classification runs


@pytest.fixture(scope="module")
def small_report():
    spec = ExperimentSpec(
        phi_exprs=("z/2", "2*z"),
        g_exprs=("z", "z^2"),
        theorem_ids=("T3.1",),
        max_shell=5,
        base_angular=64,
    )
    return run_classification(spec)


def test_run_keeps_case_errors_inline(small_report):
    by_key = {c.key: c for c in small_report.cases}
    assert len(small_report.cases) == 4
    bad = by_key[("T3.1", "2*z", "z")]
    assert bad.verdict is None
    assert bad.error is not None and bad.error.startswith("phi:")
    good = by_key[("T3.1", "z/2", "z")]
    assert good.error is None
    assert good.verdict.conclusion.value == "Bounded"


def test_run_records_symbol_not_finite_on_the_grid():
    # 1/(z-0.25) has its pole on the first grid point and log(z) its branch
    # point at the origin; the other symbol still runs
    spec = _spec(g_exprs=("z", "1/(z-0.25)", "log(z)"), theorem_ids=("T3.1", "T4.9"))
    by_key = {c.key: c for c in run_classification(spec).cases}
    bad = by_key[("T3.1", "z/2", "1/(z-0.25)")]
    assert bad.verdict is None
    assert bad.error.startswith("g: f(z) = ") and bad.error.endswith("z = (0.25+0j)")
    assert by_key[("T4.9", "z/2", "1/(z-0.25)")].error == bad.error
    log_bad = by_key[("T3.1", "z/2", "log(z)")]
    assert log_bad.verdict is None
    assert log_bad.error == "g: f(z) = (-inf+0j) is not finite at the origin z = 0j"
    assert by_key[("T4.9", "z/2", "log(z)")].error == log_bad.error
    assert by_key[("T3.1", "z/2", "z")].verdict.conclusion.value == "Bounded"


def test_run_sorts_cases_deterministically(small_report):
    keys = [c.key for c in small_report.cases]
    assert keys == sorted(keys)


def test_case_result_serialization(small_report):
    for case in small_report.cases:
        data = case.to_dict()
        assert {"theorem_id", "phi", "g"} <= set(data)
        assert ("verdict" in data) != ("error" in data)


# --------------------------------------------------------------------------
# report emission


def test_json_report_is_deterministic(small_report):
    spec = ExperimentSpec(
        phi_exprs=("z/2",), g_exprs=("z",), theorem_ids=("T3.1",),
        max_shell=5, base_angular=64,
    )
    a = to_json(run_classification(spec).to_dict(include_timing=False))
    b = to_json(run_classification(spec).to_dict(include_timing=False))
    assert a == b


def test_json_renders_floats_at_full_precision():
    text = to_json({"x": 0.1, "flag": True, "nothing": None})
    assert '"x": 0.10000000000000001' in text
    assert '"flag": true' in text
    assert '"nothing": null' in text


def test_json_emitter_golden_bytes():
    payload = {
        "empty": {"d": {}, "l": []},
        "tuple": (1, 2.5),
        "flags": [True, False, None],
        "int": -7,
        3: "int key",
        "floats": [0.1, -0.0, np.float64(0.1), math.nan, math.inf, -math.inf],
        "text": 'say "hi" \u2013 \u03b6',
        "other": [1 + 2j, np.int64(5)],
    }
    assert to_json(payload) == (
        '{\n  "empty": {\n    "d": {},\n    "l": []\n  },\n'
        '  "tuple": [\n    1,\n    2.5\n  ],\n'
        '  "flags": [\n    true,\n    false,\n    null\n  ],\n'
        '  "int": -7,\n  "3": "int key",\n'
        '  "floats": [\n    0.10000000000000001,\n    -0,\n    0.10000000000000001,\n'
        '    NaN,\n    Infinity,\n    -Infinity\n  ],\n'
        '  "text": "say \\"hi\\" \\u2013 \\u03b6",\n'
        '  "other": [\n    "(1+2j)",\n    "5"\n  ]\n}\n'
    )


@pytest.fixture(scope="module")
def panel6_report():
    return run_classification(ExperimentSpec(
        phi_exprs=TEN_MAP_PANEL, g_exprs=G_CORPUS, theorem_ids=tuple(sorted(THEOREMS)), max_shell=6
    ))


def test_json_of_shared_dicts_equals_json_of_an_unshared_copy(panel6_report):
    payload = panel6_report.to_dict()
    evidence = [d for row in payload["cases"] if "verdict" in row for d in row["verdict"]["evidence"]]
    assert len({id(d) for d in evidence}) < len(evidence)  # the payload does share dicts
    unshared = json.loads(json.dumps(payload))  # every dict a distinct object
    assert to_json(payload) == to_json(unshared)

    # one dict object at two depths renders with each depth's own indent
    leaf = {"k": [1]}
    holder = {"leaf": leaf}
    shared = {"a": leaf, "b": [leaf, holder], "c": holder}
    assert to_json(shared) == to_json(json.loads(json.dumps(shared))) == (
        '{\n  "a": {\n    "k": [\n      1\n    ]\n  },\n'
        '  "b": [\n    {\n      "k": [\n        1\n      ]\n    },\n'
        '    {\n      "leaf": {\n        "k": [\n          1\n        ]\n      }\n    }\n  ],\n'
        '  "c": {\n    "leaf": {\n      "k": [\n        1\n      ]\n    }\n  }\n}\n'
    )


def test_suite_report_shares_report_dicts_within_one_call_only(panel6_report):
    payload = panel6_report.to_dict(include_timing=False)
    dicts_of = collections.defaultdict(set)  # id of a report or thresholds -> ids of its dicts
    references = 0
    for case, row in zip(panel6_report.cases, payload["cases"]):
        if case.verdict is None:
            continue
        verdict = row["verdict"]
        for report, data in zip(case.verdict.evidence, verdict["evidence"]):
            assert data == report.to_dict()
            dicts_of[id(report)].add(id(data))
            references += 1
        dicts_of[id(case.verdict.thresholds)].add(id(verdict["thresholds"]))
    # each report object and the run's one thresholds object map to one dict
    assert all(len(ids) == 1 for ids in dicts_of.values())
    assert len(set.union(*dicts_of.values())) == len(dicts_of) < references
    assert len({id(row["verdict"]["thresholds"]) for row in payload["cases"] if "verdict" in row}) == 1

    # a second call shares no dict: mutating the first payload leaves it unchanged
    expected = to_json(panel6_report.to_dict(include_timing=False))
    payload["config"]["grid"]["max_shell"] = 99
    for row in payload["cases"]:
        if "verdict" in row:
            row["verdict"]["evidence"][0]["sup_value"] = -1.0
            row["verdict"]["thresholds"]["divergence"] = 0
    assert to_json(panel6_report.to_dict(include_timing=False)) == expected

    # CaseResult.to_dict and Verdict.to_dict build fresh dicts every call
    by_report = collections.defaultdict(list)
    for case in panel6_report.cases:
        for report in case.verdict.evidence if case.verdict else ():
            by_report[id(report)].append(case)
    first, second = next(cases for cases in by_report.values() if len(cases) > 1)[:2]
    a, b = first.to_dict(), second.to_dict()
    assert not {id(d) for d in a["verdict"]["evidence"]} & {id(d) for d in b["verdict"]["evidence"]}
    assert a["verdict"]["thresholds"] is not b["verdict"]["thresholds"]
    v1, v2 = first.verdict.to_dict(), first.verdict.to_dict()
    assert v1 == v2 and v1["evidence"][0] is not v2["evidence"][0]


def test_json_emission_peak_memory_is_at_most_two_and_a_half_outputs(panel6_report):
    payload = panel6_report.to_dict(include_timing=False)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        text = to_json(payload)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # one join at the end: ~2.0 outputs; a join per level took ~3.0
    assert peak <= 2.5 * len(text), peak / len(text)


def _float_text_reference(x):
    return format(x, ".17g") if math.isfinite(x) else json.dumps(x)


_SCALAR_TEXT_REFERENCE = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text_reference,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}


def _other_text_reference(obj):
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _float_text_reference(obj)
    return encode_basestring_ascii(str(obj))


def _to_json_reference(payload):
    """The former emitter: every list, the shell lists too, through the recursive writer."""
    keys, texts, out = {}, {}, []
    scalar, put = _SCALAR_TEXT_REFERENCE.get, out.append
    dicts = 0

    def write(obj, pad):
        nonlocal dicts
        inner = pad + "  "
        if isinstance(obj, dict):
            dicts += 1
            if not obj:
                put("{}")
                return
            text = texts.get((id(obj), pad))
            if text is not None:
                put(text)
                return
            start, seen = len(out), dicts
            sep = "{\n" + inner
            for key, value in obj.items():
                if type(key) is not str:
                    key_text = encode_basestring_ascii(str(key)) + ": "
                elif key in keys:
                    key_text = keys[key]
                else:
                    key_text = keys[key] = encode_basestring_ascii(key) + ": "
                render = scalar(type(value))
                if render is not None:
                    put(sep + key_text + render(value))
                else:
                    put(sep + key_text)
                    write(value, inner)
                sep = ",\n" + inner
            put("\n" + pad + "}")
            if dicts == seen:
                text = texts[id(obj), pad] = "".join(out[start:])
                del out[start:]
                put(text)
        elif isinstance(obj, (list, tuple)):
            if not obj:
                put("[]")
                return
            sep = "[\n" + inner
            for value in obj:
                render = scalar(type(value))
                if render is not None:
                    put(sep + render(value))
                else:
                    put(sep)
                    write(value, inner)
                sep = ",\n" + inner
            put("\n" + pad + "]")
        else:
            put((scalar(type(obj)) or _other_text_reference)(obj))

    write(payload, "")
    put("\n")
    return "".join(out)


def test_json_equals_the_reference_writer_on_the_panel(panel6_report):
    payload = panel6_report.to_dict(include_timing=False)
    shell_lists = [r["shell_sups"] for row in payload["cases"] if "verdict" in row
                   for r in row["verdict"]["evidence"]]
    # every shell list takes the template path
    assert all(harness._pair_list_text(sups, "", {}) is not None for sups in shell_lists)
    assert to_json(payload) == _to_json_reference(payload)


_PAIR = [[0, 0.1], [3, 2.5]]

_PAIR_LIST_CASES = {
    "pairs": (_PAIR, True),
    "-0.0, a large int and a subnormal": ([[-1, -0.0], [10**30, 5e-324]], True),
    "large finite reals": ([[1, 1.7976931348623157e308], [2, -1e-300]], True),
    "finite reals whose sum overflows": ([[1, 1e308], [2, 1e308]], False),
    "bool value": ([[1, True], [2, 0.5]], False),
    "bool index": ([[True, 0.5]], False),
    "both bool": ([[True, False]], False),
    "np.float64 value": ([[1, np.float64(0.1)]], False),
    "np.int64 index": ([[np.int64(1), 0.1]], False),
    "nan": ([[1, 0.5], [2, math.nan]], False),
    "inf": ([[1, math.inf]], False),
    "-inf": ([[1, -math.inf], [2, 0.5]], False),
    "ragged": ([[1, 0.5], [2]], False),
    "three items": ([[1, 0.5, 2]], False),
    "one-item pairs": ([[1], [2]], False),
    "float index": ([[0.5, 0.5]], False),
    "int value": ([[1, 2]], False),
    "tuple items": ([(1, 0.5), (2, 0.25)], False),
    "a tuple among lists": ([[1, 0.5], (2, 0.25)], False),
    "tuple of pairs": (((1, 0.5), [2, 0.25]), False),
    "empty item": ([[], [1, 0.5]], False),
    "empty items": ([[], []], False),
    "nested pair lists": ([[[1, 0.5]], [[2, 0.25]]], False),
    "a pair of pair lists": ([_PAIR, _PAIR], False),
    "a pair list as a pair's value": ([[1, _PAIR]], False),
    "a dict item": ([{"k": 1}, [1, 0.5]], False),
}


@pytest.mark.parametrize("items, templated", _PAIR_LIST_CASES.values(), ids=_PAIR_LIST_CASES)
def test_json_of_a_pair_list_equals_the_reference_writer(items, templated):
    if isinstance(items, list):
        assert (harness._pair_list_text(items, "", {}) is not None) is templated
    # at the top, inside a dict, inside a list, and one object at several indents
    for payload in (items, {"sups": items}, [items, {"a": {"b": items}}], {"x": [items, items]}):
        assert to_json(payload) == _to_json_reference(payload)


def test_json_of_pair_lists_of_many_lengths_and_indents_equals_the_reference_writer():
    lists = [[[k, k / 7.0 - 1.0] for k in range(n)] for n in range(1, 20)]
    payload = {"flat": lists, "deep": [{"d": {"sups": sups, "again": lists[-1]}} for sups in lists]}
    assert to_json(payload) == _to_json_reference(payload)


def test_json_report_parses_back(small_report):
    payload = json.loads(to_json(small_report.to_dict()))
    assert payload["schema"] == 1
    assert len(payload["cases"]) == 4
    assert payload["config"]["grid"]["max_shell"] == 5


def test_csv_row_carries_the_statement_headline_report():
    report = run_classification(ExperimentSpec(
        phi_exprs=("mobius(0.5)", "z/2", "(z+0.3)/2"),
        g_exprs=("log(2/(1-0.9*z))", "1-mobius(0.7)"),
        theorem_ids=tuple(sorted(THEOREMS)),
        max_shell=6,
        base_angular=64,
    ))
    rows = list(csv.reader(io.StringIO(to_csv(report))))[1:]
    assert len(rows) == len(report.cases) == 6 * len(THEOREMS)
    for case, row in zip(report.cases, rows):
        spec, main = THEOREMS[case.theorem_id], case.verdict.main
        assert (main.kind, main.bucket_by) == (spec.kind, spec.bucket_by)
        assert any(r is main for r in case.verdict.evidence)
        assert row == [
            case.theorem_id, case.phi, case.g, case.verdict.conclusion.value,
            format(main.sup_value, ".17g"), format(main.boundary_limsup_estimate, ".17g"),
            str(main.vacuous_boundary).lower(), "",
        ]


def test_csv_has_one_row_per_case(small_report):
    rows = list(csv.reader(io.StringIO(to_csv(small_report))))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert len(rows) == 1 + len(small_report.cases)
    bad_row = [r for r in rows[1:] if r[1] == "2*z" and r[2] == "z"][0]
    assert bad_row[3] == ""  # no conclusion for an errored case
    assert "self-map" in bad_row[-1]


# --------------------------------------------------------------------------
# one side per map and per symbol


def test_run_samples_each_formula_at_most_once_per_pair(monkeypatch):
    """Over the panel's run: phi and phi' once per map (validation's samples of phi are
    the side's), g and g' once per symbol at the origin and once on the grid (validation's
    grid samples are the side's), g o phi and g' o phi once per pair, and 218 grid
    evaluations in all (246 when each side sampled its map or symbol again after
    validating it, 568 when each pair sampled both its map and its symbol)."""
    roles, calls = {}, collections.Counter()
    taken_on_grid = {}  # id of a grid sample -> (source, sample), held so ids stay unique
    state = {"grid": None}

    def validating(role, validated):
        def wrapper(fn, grid):
            roles[fn], state["grid"] = (role, fn.source), grid
            return validated(fn, grid)

        return wrapper

    def counting(method, label):
        def wrapper(self, z):
            out = method(self, z)
            if np.ndim(z) > 0:
                if z is state["grid"].points:
                    at = "grid"
                    taken_on_grid[id(out)] = (self.source, out)
                elif np.size(z) == 1:
                    at = "origin"  # a symbol's validation checks the origin on its own
                else:
                    at = taken_on_grid[id(z)][0]  # g or g' at phi(z): the pair's map
                calls[(roles[self], label, at)] += 1
            return out

        return wrapper

    monkeypatch.setattr(AnalyticFn, "__call__", counting(AnalyticFn.__call__, "f"))
    monkeypatch.setattr(AnalyticFn, "deriv", counting(AnalyticFn.deriv, "f'"))
    monkeypatch.setattr(criteria.MapFields, "validated", validating("phi", criteria.MapFields.validated))
    monkeypatch.setattr(criteria.SymbolFields, "validated",
                        validating("g", criteria.SymbolFields.validated))
    spec = ExperimentSpec(
        phi_exprs=TEN_MAP_PANEL, g_exprs=G_CORPUS, theorem_ids=tuple(sorted(THEOREMS)), max_shell=6
    )
    report = run_classification(spec)
    monkeypatch.undo()
    expected = collections.Counter()
    for phi_src in spec.phi_exprs:
        expected.update({(("phi", phi_src), "f", "grid"): 1, (("phi", phi_src), "f'", "grid"): 1})
    for g_src in spec.g_exprs:
        for label in ("f", "f'"):
            expected.update({(("g", g_src), label, at): 1
                             for at in ("origin", "grid") + spec.phi_exprs})
    assert calls == expected
    assert sum(n for (_, _, at), n in calls.items() if at != "origin") <= 218

    # the reports of a symbol alone are one object across its maps
    shared = collections.defaultdict(set)
    for case in report.cases:
        for r in case.verdict.evidence if case.verdict else ():
            if r.kind in criteria.SYMBOL_KINDS:
                shared[(case.g, r.kind)].add(id(r))
    assert {kind for _, kind in shared} == criteria.SYMBOL_KINDS
    assert all(len(ids) == 1 for ids in shared.values())

    # sharing the samples changes no case: each matches a classify of its own
    grid = make_grid(6, 64)
    maps = {p: validate_self_map(analytic(p), grid) for p in spec.phi_exprs}
    for case in report.cases:
        try:
            fresh = classify(case.theorem_id, maps[case.phi], analytic(case.g), grid).to_dict()
        except (PreconditionFailed, ValueError) as exc:
            fresh = str(exc)
        assert fresh == (case.verdict.to_dict() if case.verdict else case.error)


def test_run_takes_one_argmax_per_field(monkeypatch):
    """A field's |phi| and |z| reports share its sup and the point where it is attained,
    and Lg and LgLogBoundedness read one field: over the panel's run, one argmax per pair
    for each of KI, KJ and KJlog and one per symbol for each of |g|, Bloch and Lg, 297
    in all (576 when each report took its own)."""
    taken = {}  # id of an argmax's array -> (array, count), held so ids stay unique
    argmax = np.argmax

    def counting(a, *args, **kwargs):
        held, n = taken.get(id(a), (a, 0))
        taken[id(a)] = (held, n + 1)
        return argmax(a, *args, **kwargs)

    monkeypatch.setattr(np, "argmax", counting)
    spec = ExperimentSpec(
        phi_exprs=TEN_MAP_PANEL, g_exprs=G_CORPUS, theorem_ids=tuple(sorted(THEOREMS)), max_shell=6
    )
    run_classification(spec)
    monkeypatch.undo()
    assert {n for _, n in taken.values()} == {1}
    pairs = len(spec.phi_exprs) * len(spec.g_exprs)
    assert len(taken) == 3 * pairs + 3 * len(spec.g_exprs) == 297
