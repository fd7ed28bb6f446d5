"""Modules of the package import one another by public name only, export what they
import, and need nothing beyond numpy at run time."""

import ast
import os
import pathlib
import subprocess
import sys

import blochlab

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blochlab"


def test_no_module_imports_a_private_name_from_another():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").partition(".")[0] != "blochlab":
                continue
            found += [
                f"{path.name}:{node.lineno} {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert found == []


def test_no_module_imports_a_name_it_does_not_use():
    # the project runs no linter; an import marked "# noqa: F401" is kept on purpose
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    found.append(f"{path.name}:{alias.lineno} {bound}")
    assert found == []


def test_criteria_imports_nothing_from_operators():
    # criteria holds the samples operators reads, so it sits below operators
    found = []
    for node in ast.walk(ast.parse((PACKAGE / "criteria.py").read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [f"{node.lineno} {n}" for n in names if "operators" in n.split(".")]
    assert found == []


def test_package_exports_exactly_what_it_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(blochlab.__all__) == sorted(imported + ["__version__"])


def test_no_module_imports_scipy():
    found = []
    dirs = (PACKAGE, ROOT / "tests", ROOT / "scripts")
    for path in sorted(p for d in dirs for p in d.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            where = f"{path.relative_to(ROOT)}:{node.lineno}"
            found += [f"{where} {n}" for n in names if n.partition(".")[0] == "scipy"]
    assert found == []


def _fresh_interpreter(script: str) -> str:
    """The stripped standard output of ``script`` run in a new interpreter on the package."""
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_a_classification_and_both_polishes_load_no_scipy():
    script = """
import sys
import blochlab
from blochlab import ExperimentSpec, analytic, bloch_seminorm, hinf_norm, make_grid
blochlab.run_classification(ExperimentSpec(("z/2",), ("z",), ("T3.1",), max_shell=4, base_angular=64))
grid = make_grid(4, 64)
bloch_seminorm(analytic("mobius(0.5)"), grid)
hinf_norm(analytic("1-mobius(0.7)"), grid)
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""
    assert _fresh_interpreter(script) == "[]"


def test_the_identity_check_loads_no_numpy_ma():
    # np.unique imports numpy.ma (~15 ms), which a fresh pool worker would pay for
    script = """
import sys
from blochlab import verify
verify._run_check("operators.commutator_derivative_identity")
print("numpy.ma" in sys.modules)
"""
    assert _fresh_interpreter(script) == "False"


def test_importing_the_package_loads_no_config_or_csv_reader():
    # configparser (~2 ms) and csv (~1 ms) load only where a config file or a CSV report is read
    script = """
import sys
import blochlab
print(sorted(m for m in ("configparser", "csv") if m in sys.modules))
"""
    assert _fresh_interpreter(script) == "[]"


def test_each_record_shape_generates_its_dataclass_methods_once():
    # dataclass compiles each decorated class's methods at import; the nodes and test
    # families of one field shape inherit them from one private base
    generating = [
        f"{module.__name__}.{cls.__qualname__}"
        for name, module in sorted(sys.modules.items())
        if name.partition(".")[0] == "blochlab"
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == name and "__dataclass_fields__" in vars(cls)
    ]
    assert len(generating) == 23, generating
