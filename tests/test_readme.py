"""README examples whose full output is printed print exactly that output."""

import json
import pathlib

import pytest

from blochlab import (
    CriterionKind, analytic, classify, evaluate_criterion, make_grid, validate_self_map,
)
from blochlab.cli import main

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
README_LINES = set(README.splitlines())


def test_library_quick_start_prints_the_commented_values():
    grid = make_grid()
    phi = validate_self_map(analytic("z/2"), grid)
    g = analytic("z")
    report = evaluate_criterion(CriterionKind.KI, phi, g, grid)
    verdict = classify("T3.2", phi, g, grid)
    for printed in (str(report.sup_value), verdict.conclusion.value):
        assert f"# {printed}\n" in README


@pytest.mark.parametrize(
    "argv",
    [
        ("seminorm", "--f", "mobius(0.4)"),
        ("criterion", "--kind", "KI", "--phi", "z/2", "--g", "z"),
        ("commutator", "--kind", "I", "--phi", "z/2", "--g", "z", "--f", "mobius(0.3)"),
    ],
)
def test_cli_example_prints_the_readme_lines(capsys, argv):
    assert main(list(argv)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and set(lines) <= README_LINES


def test_sweep_example_writes_the_readme_csv_lines(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "phi": ["z/2", "mobius(0.5)"],
        "g": ["z", "log(2/(1-0.9*z))"],
        "theorems": ["T3.2", "T4.1b"],
        "grid": {"max_shell": 8},
    }))
    out = tmp_path / "report.csv"
    # the sweep's "wrote 8 cases" line holds a wall time, so only the CSV is compared
    assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    assert set(out.read_text().splitlines()[:2]) <= README_LINES
