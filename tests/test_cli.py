"""Command-line entry points: exit codes, output shapes, config handling."""

import collections
import json
import math

import numpy as np
import pytest

from blochlab import (
    AnalyticFn,
    CriterionKind,
    analytic,
    available_checks,
    classify,
    evaluate_criterion,
    make_grid,
    to_json,
    validate_self_map,
)
from blochlab import cli
from blochlab.cli import main

SMALL = ["--grid", "5,64"]


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# happy paths (exit 0)


def test_seminorm_reports_value(capsys):
    code, out, err = _run(capsys, "seminorm", "--f", "mobius(0.4)", *SMALL)
    assert code == 0 and err == ""
    assert out.startswith("bloch seminorm estimate ")
    value = float(out.split()[3])
    assert value == pytest.approx(1.0, abs=1e-6)


def test_hinf_reports_value(capsys):
    code, out, err = _run(capsys, "hinf", "--f", "z^2", *SMALL)
    assert code == 0
    assert out.startswith("sup norm estimate ")


def test_criterion_text_report(capsys):
    code, out, err = _run(
        capsys, "criterion", "--kind", "KI", "--phi", "z/2", "--g", "z", *SMALL
    )
    assert code == 0
    assert "criterion KI (shells of |phi|):" in out
    assert "vacuous" in out


def test_criterion_json_report(capsys):
    code, out, err = _run(
        capsys, "criterion", "--kind", "Lg", "--g", "z", "--json", *SMALL
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "Lg"
    assert payload["bucket_by"] == "z"
    assert len(payload["shell_sups"]) == 6


def test_classify_text_verdict(capsys):
    code, out, err = _run(
        capsys, "classify", "--thm", "T3.2", "--phi", "z/2", "--g", "z", *SMALL
    )
    assert code == 0
    assert out.splitlines()[0] == "T3.2: Compact"


def test_classify_json_verdict(capsys):
    code, out, err = _run(
        capsys, "classify", "--thm", "C4.3", "--g", "z", "--json", "--grid", "14,64"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["conclusion"] == "Compact"


def test_commutator_seminorm_runs(capsys):
    code, out, err = _run(
        capsys, "commutator", "--kind", "I", "--phi", "mobius(0.5)",
        "--g", "z^2", "--f", "z", *SMALL,
    )
    assert code == 0
    assert out.startswith("commutator-I seminorm estimate ")


# --------------------------------------------------------------------------
# each input sampled once, validation's samples included


def _on_grid(*calls):
    """``(source, order, points)`` keys: ``"z"`` the grid's own points, ``"w"`` its image."""
    return collections.Counter({call: 1 for call in calls})


@pytest.mark.parametrize("argv, expected", [
    (("classify", "--thm", "T3.2", "--phi", "z/2", "--g", "z"),
     _on_grid(("z/2", "f", "z"), ("z/2", "f'", "z"),
              ("z", "f", "z"), ("z", "f'", "z"), ("z", "f", "w"))),
    (("criterion", "--kind", "KJ", "--phi", "mobius(0.5)", "--g", "z^2"),
     _on_grid(("mobius(0.5)", "f", "z"), ("mobius(0.5)", "f'", "z"),
              ("z^2", "f", "z"), ("z^2", "f'", "z"), ("z^2", "f'", "w"))),
    (("commutator", "--kind", "I", "--phi", "z/2", "--g", "z", "--f", "mobius(0.3)"),
     _on_grid(("z/2", "f", "z"), ("z/2", "f'", "z"),
              ("z", "f", "z"), ("z", "f'", "z"), ("z", "f", "w"),
              ("mobius(0.3)", "f", "z"), ("mobius(0.3)", "f'", "z"), ("mobius(0.3)", "f'", "w"))),
    (("seminorm", "--f", "mobius(0.4)"),
     _on_grid(("mobius(0.4)", "f", "z"), ("mobius(0.4)", "f'", "z"))),
    (("hinf", "--f", "1-mobius(0.7)"),
     _on_grid(("1-mobius(0.7)", "f", "z"), ("1-mobius(0.7)", "f'", "z"))),
], ids=["classify", "criterion", "commutator", "seminorm", "hinf"])
def test_point_commands_sample_each_function_once_on_the_grid(capsys, monkeypatch, argv, expected):
    """Validation's grid samples are the ones the computation reads: each function once on
    the grid and once at phi(z) where a field reads it, 5, 5, 8, 2 and 2 grid-sized calls
    (7, 7, 10, 3 and 3 when each input was validated and then sampled again for the pair
    or the norm)."""
    grids, calls = [], collections.Counter()

    def making(*args):
        grids.append(make_grid(*args))
        return grids[-1]

    def counting(method, label):
        def wrapper(self, z):
            if np.size(z) == grids[0].size:
                calls[(self.source, label, "z" if z is grids[0].points else "w")] += 1
            return method(self, z)

        return wrapper

    monkeypatch.setattr(cli, "make_grid", making)
    monkeypatch.setattr(AnalyticFn, "__call__", counting(AnalyticFn.__call__, "f"))
    monkeypatch.setattr(AnalyticFn, "deriv", counting(AnalyticFn.deriv, "f'"))
    code, out, err = _run(capsys, *argv, "--grid", "6,64")
    assert (code, err) == (0, "")
    assert calls == expected
    assert sum(calls.values()) == {"commutator": 8, "seminorm": 2, "hinf": 2}.get(argv[0], 5)


@pytest.mark.parametrize("argv", [
    ("criterion", "--kind", "Lg", "--g", "log(2/(1-0.9*z))"),
    ("criterion", "--kind", "KJ", "--phi", "mobius(0.5)", "--g", "z^2"),
    ("classify", "--thm", "T3.2", "--phi", "z/2", "--g", "z"),
], ids=["criterion-Lg-without-phi", "criterion-KJ", "classify-T3.2"])
def test_json_equals_the_library_call_without_shared_fields(capsys, monkeypatch, argv):
    """The CLI's validated sides give the bytes of the library call that samples the pair
    itself: a map-free kind, a |phi| kind, and T3.2 with its |g| hypothesis check."""
    monkeypatch.delenv("BLOCHLAB_CONFIG", raising=False)
    code, out, err = _run(capsys, *argv, "--grid", "6,64", "--json")
    assert (code, err) == (0, "")
    flags = dict(zip(argv[1::2], argv[2::2]))
    grid = make_grid(6, 64)
    phi = validate_self_map(analytic(flags["--phi"]), grid) if "--phi" in flags else None
    g = analytic(flags["--g"])
    if argv[0] == "classify":
        expected = classify(flags["--thm"], phi, g, grid)
    else:
        expected = evaluate_criterion(CriterionKind(flags["--kind"]), phi, g, grid)
    assert out == to_json(expected.to_dict())


def test_verify_single_check(capsys):
    code, out, err = _run(
        capsys, "verify", "--suite", "identities", "--filter", "series.ring_ops"
    )
    assert code == 0
    assert out.startswith("PASS  [identities] series.ring_ops_exact:")
    assert out.rstrip().endswith("1/1 checks passed")


def test_verify_suite_prints_every_check_in_registry_order(capsys):
    code, out, err = _run(capsys, "verify", "--suite", "identities")
    names = available_checks("identities")
    lines = out.splitlines()
    assert code == 0 and len(names) == 10
    assert [line.split()[2].rstrip(":") for line in lines[:-1]] == names
    assert all(line.startswith("PASS  [identities] ") for line in lines[:-1])
    assert lines[-1] == "10/10 checks passed"


# --------------------------------------------------------------------------
# sweep round trips


@pytest.fixture()
def spec_file(tmp_path):
    payload = {
        "phi": ["z/2"],
        "g": ["z", "z^2"],
        "theorems": ["T3.1", "T4.9"],
        "grid": {"max_shell": 5, "base_angular": 64},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_sweep_writes_json(capsys, tmp_path, spec_file):
    out_path = tmp_path / "report.json"
    code, out, err = _run(capsys, "sweep", "--spec", str(spec_file), "--out", str(out_path))
    assert code == 0 and err == ""
    payload = json.loads(out_path.read_text())
    assert len(payload["cases"]) == 4
    assert "wrote 4 cases" in out


def test_sweep_writes_csv(capsys, tmp_path, spec_file):
    out_path = tmp_path / "report.csv"
    code, out, err = _run(capsys, "sweep", "--spec", str(spec_file), "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("theorem_id,phi,g,conclusion")
    assert len(lines) == 5


@pytest.mark.parametrize(
    ("name", "output", "written"),
    [
        ("report.txt", "json", "json"),
        ("report.txt", "csv", "csv"),
        ("report", "json", "json"),
        ("report", "csv", "csv"),
        ("report.json", "csv", "json"),
    ],
)
def test_sweep_format_follows_the_suffix_then_the_spec(capsys, tmp_path, name, output, written):
    payload = {"phi": ["z/2"], "g": ["z"], "theorems": ["T3.1"],
               "grid": {"max_shell": 5, "base_angular": 64}, "output": output}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(payload), encoding="utf-8")
    out_path = tmp_path / name
    code, out, err = _run(capsys, "sweep", "--spec", str(spec), "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    if written == "json":
        assert len(json.loads(text)["cases"]) == 1
    else:
        assert text.startswith("theorem_id,phi,g,conclusion")


def test_sweep_flags_case_errors(capsys, tmp_path):
    payload = {"phi": ["z/2", "2*z"], "g": ["z"], "theorems": ["T3.1"],
               "grid": {"max_shell": 5, "base_angular": 64}}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(payload), encoding="utf-8")
    out_path = tmp_path / "report.json"
    code, out, err = _run(capsys, "sweep", "--spec", str(spec), "--out", str(out_path))
    assert code == 1
    assert "blochlab: error: case T3.1/2*z/z" in err
    assert out_path.exists()  # the report still lands, errors and all


@pytest.mark.parametrize(
    "payload",
    [
        {"g": ["z"], "theorems": ["T3.1"]},
        {"phi": ["z/2"], "g": ["z"]},
        {"phi": "z/2", "g": ["z"], "theorems": ["T3.1"]},
        {"phi": ["z/2"], "g": ["z"], "theorems": ["T3.1"], "grid": 5},
        {"phi": ["z/2"], "g": ["z"], "theorems": ["T3.1"], "thresholds": [1e3, 1e-2]},
        ["z/2"],
        {"phi": ["z/2"], "g": ["z"], "theorems": ["T3.1"], "grid": {"maxshell": 5}},
        {"phi": ["z/2"], "g": ["z"], "theorems": ["T3.1"], "threshold": {"compact_tol": 0.1}},
        {"phi": ["z/2"], "g": ["z"], "theorems": ["T3.1"], "grid": {"max_shell": 5.7}},
        {"phi": ["z/2"], "g": ["z"], "theorems": ["T3.1"], "outputs": "csv"},
        {"phi": ["z/2"], "g": ["z"], "theorems": ["C3.4"], "thresholds": {"compact_tol": 0}},
        {"phi": ["z/2"], "g": ["z"], "theorems": ["C3.4"], "thresholds": {"compact_tol": math.nan}},
        {"phi": ["z/2"], "g": ["z"], "theorems": ["T3.1"], "thresholds": {"divergence": -1}},
        {"phi": ["z/2"], "g": ["z"], "theorems": ["T3.1"], "thresholds": {"divergence": math.inf}},
        {"phi": ["z/2", "z/2"], "g": ["z"], "theorems": ["T3.1"]},
        {"phi": ["z/2"], "g": ["z", "z"], "theorems": ["T3.1"]},
        {"phi": ["z/2"], "g": ["z"], "theorems": ["T3.1", "T3.1"]},
    ],
)
def test_sweep_malformed_spec_is_usage_error(capsys, tmp_path, payload):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = _run(capsys, "sweep", "--spec", str(spec), "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert err.startswith("blochlab: error:")
    assert not (tmp_path / "x.json").exists()


def test_sweep_missing_spec_is_usage_error(capsys, tmp_path):
    code, out, err = _run(
        capsys, "sweep", "--spec", str(tmp_path / "absent.json"),
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert err.startswith("blochlab: error:")


# --------------------------------------------------------------------------
# failure triage (exit 1) and usage errors (exit 2)


def test_classify_failed_hypothesis_exits_one(capsys):
    code, out, err = _run(
        capsys, "classify", "--thm", "T3.2", "--phi", "mobius(0.5)",
        "--g", "1/(1-z)", "--grid", "14,64",
    )
    assert code == 1
    assert err.startswith("blochlab: error: hypothesis check failed")


@pytest.mark.parametrize(
    "argv",
    [
        ("seminorm", "--f", "z+"),
        ("seminorm", "--f", "z", "--grid", "banana"),
        ("seminorm", "--f", "z", "--grid", "3,64"),
        ("criterion", "--kind", "KI", "--phi", "2*z", "--g", "z"),
        ("criterion", "--kind", "KI", "--phi", "2", "--g", "z"),
        ("criterion", "--kind", "KI", "--g", "z"),
        ("classify", "--thm", "T3.1", "--g", "z"),
        ("classify", "--thm", "T9.9", "--phi", "z/2", "--g", "z"),
        ("verify", "--suite", "identities", "--filter", "no_such_check"),
        # poles and branch points on the grid (0.25 is the first grid point)
        ("seminorm", "--f", "1/(z-0.25)", "--grid", "5,64"),
        ("hinf", "--f", "exp(0.5*log(z-0.25))", "--grid", "5,64"),
        ("criterion", "--kind", "Lg", "--g", "1/(z-0.25)", "--grid", "5,64"),
        ("classify", "--thm", "T3.1", "--phi", "z/2", "--g", "1/(z-0.25)", "--grid", "5,64"),
        ("commutator", "--kind", "J", "--phi", "z/2", "--g", "z", "--f", "1/(z-0.25)",
         "--grid", "5,64"),
        # finite on the grid, but singular at the origin, where the Bloch norm reads f(0)
        ("classify", "--thm", "T3.1", "--phi", "z/2", "--g", "log(z)", "--grid", "5,64"),
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert err.startswith("blochlab: error:")
    if "log(z)" in argv:
        assert "is not finite at the origin z = 0j" in err


@pytest.mark.parametrize(
    "argv",
    [
        # the map is a self-map; it is the grid that doubles cannot hold
        ("classify", "--thm", "T4.1b", "--phi", "mobius(0.8)", "--g", "log(2/(1-z))",
         "--grid", "48,64"),
        ("classify", "--thm", "T4.1b", "--phi", "z", "--g", "log(2/(1-z))", "--grid", "53,64"),
    ],
)
def test_grid_deeper_than_doubles_hold_exits_two(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert err.startswith("blochlab: error: max_shell must lie in [4, 46], got")


def test_unknown_flag_exits_two(capsys):
    # argparse handles this level itself, with the subcommand in the prefix
    with pytest.raises(SystemExit) as excinfo:
        main(["seminorm", "--nope"])
    assert excinfo.value.code == 2
    assert ": error:" in capsys.readouterr().err


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


# --------------------------------------------------------------------------
# config file handling


def test_config_file_sets_default_grid(capsys, tmp_path):
    cfg = tmp_path / "lab.ini"
    cfg.write_text("[grid]\nmax_shell = 5\nbase_angular = 64\n", encoding="utf-8")
    code, out, err = _run(
        capsys, "--config", str(cfg), "criterion", "--kind", "Lg", "--g", "z", "--json"
    )
    assert code == 0
    assert len(json.loads(out)["shell_sups"]) == 6


def test_config_file_via_environment(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "lab.ini"
    cfg.write_text("[grid]\nmax_shell = 5\nbase_angular = 64\n", encoding="utf-8")
    monkeypatch.setenv("BLOCHLAB_CONFIG", str(cfg))
    code, out, err = _run(capsys, "criterion", "--kind", "Lg", "--g", "z", "--json")
    assert code == 0
    assert len(json.loads(out)["shell_sups"]) == 6


def test_flag_overrides_config_file(capsys, tmp_path):
    cfg = tmp_path / "lab.ini"
    cfg.write_text("[grid]\nmax_shell = 8\nbase_angular = 64\n", encoding="utf-8")
    code, out, err = _run(
        capsys, "--config", str(cfg), "criterion", "--kind", "Lg", "--g", "z",
        "--json", "--grid", "5,64",
    )
    assert code == 0
    assert len(json.loads(out)["shell_sups"]) == 6


@pytest.mark.parametrize(
    "body",
    [
        "[grid]\nmax_shell = fast\n",
        "[grid]\nmax_shell = 47\n",
        "[grid]\nwidth = 3\n",
        "[turbo]\nx = 1\n",
        "[thresholds]\ncompact_tol = many\n",
        "[quadrature]\ntol = 1e-12\n",
        "[thresholds]\ncompact_tol = 0\n",
        "[thresholds]\ncompact_tol = nan\n",
        "[thresholds]\ndivergence = -1\n",
        "[thresholds]\ndivergence = inf\n",
    ],
)
def test_bad_config_exits_two(capsys, tmp_path, body):
    cfg = tmp_path / "lab.ini"
    cfg.write_text(body, encoding="utf-8")
    code, out, err = _run(capsys, "--config", str(cfg), "seminorm", "--f", "z")
    assert code == 2
    assert err.startswith("blochlab: error:")


def test_missing_config_file_exits_two(capsys, tmp_path):
    code, out, err = _run(
        capsys, "--config", str(tmp_path / "absent.ini"), "seminorm", "--f", "z"
    )
    assert code == 2
