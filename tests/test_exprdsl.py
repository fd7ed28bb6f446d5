"""Expression parsing, printing, evaluation, and symbolic differentiation."""

import dataclasses
import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochlab import (
    AnalyticFn,
    ExprError,
    PeakH,
    ROUNDTRIP_CORPUS,
    analytic,
    exprdsl,
    make_test_fn,
)
from blochlab.exprdsl import evaluate, parse, print_expr


def _spiral(count: int, max_radius: float) -> np.ndarray:
    radii = np.linspace(0.02, max_radius, count)
    angles = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    return radii * np.exp(1j * angles)


# --------------------------------------------------------------------------
# parse / print round trips


@pytest.mark.parametrize("source", ROUNDTRIP_CORPUS)
def test_corpus_value_level_roundtrip(source):
    tree = parse(source)
    reparsed = parse(print_expr(tree))
    pts = _spiral(60, 0.95)
    assert np.array_equal(evaluate(tree, pts), evaluate(reparsed, pts))


@pytest.mark.parametrize("source", ROUNDTRIP_CORPUS)
def test_printing_is_a_fixed_point(source):
    once = print_expr(parse(source))
    assert print_expr(parse(once)) == once


def test_corpus_has_thirty_entries():
    assert len(ROUNDTRIP_CORPUS) == 30
    assert len(set(ROUNDTRIP_CORPUS)) == 30


# --------------------------------------------------------------------------
# evaluation semantics


@pytest.mark.parametrize(
    "source, z, expected",
    [
        ("z", 0.3 + 0.1j, 0.3 + 0.1j),
        ("i", 0.5, 1j),
        ("1+2i", 0.0, 1 + 2j),
        ("complex(1.5,-0.25)", 0.9, 1.5 - 0.25j),
        ("z^3", 2.0, 8.0),
        ("2/(1-z)", 0.5, 4.0),
        ("exp(z)", 0.0, 1.0),
        ("log(2/(1-z))", 0.0, np.log(2.0)),
        ("mobius(0.5)", 0.0, 0.5),  # (a - z) / (1 - conj(a) z)
        ("mobius(0.5)", 0.5, 0.0),
        ("mobius(0.3i)", 0.3j, 0.0),
    ],
)
def test_known_values(source, z, expected):
    assert evaluate(parse(source), z) == pytest.approx(expected, abs=1e-15)


def test_evaluation_is_vectorized():
    tree = parse("z^2+1")
    pts = np.array([0.0, 1j, 0.5])
    assert np.array_equal(evaluate(tree, pts), pts**2 + 1)


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5))
@settings(max_examples=60)
def test_polynomial_text_matches_polyval(coeffs):
    source = "+".join(f"({c})*z^{n}" for n, c in enumerate(coeffs)) or "0"
    pts = _spiral(12, 0.8)
    expected = np.polynomial.polynomial.polyval(pts, np.asarray(coeffs, dtype=complex))
    assert np.allclose(evaluate(parse(source), pts), expected, rtol=0, atol=1e-12)


# --------------------------------------------------------------------------
# symbolic differentiation


@pytest.mark.parametrize(
    "source, deriv_source",
    [
        ("z^3", "3*z^2"),
        ("exp(z)", "exp(z)"),
        ("log(2/(1-0.5*z))", "0.5/(1-0.5*z)"),
        ("1-z", "-1"),
        ("mobius(0.5)", "-(1-0.25)/(1-0.5*z)^2"),
    ],
)
def test_derivative_matches_closed_form(source, deriv_source):
    f = analytic(source)
    expected = analytic(deriv_source)
    pts = _spiral(40, 0.9)
    assert np.allclose(f.deriv(pts), expected(pts), rtol=1e-13, atol=1e-13)


def test_derivative_of_derivative_is_second_order():
    f = analytic("z^4")
    pts = _spiral(10, 0.7)
    assert np.allclose(f.derivative.deriv(pts), 12.0 * pts**2, rtol=1e-13, atol=0)


def test_finite_difference_agrees_with_symbolic():
    f = analytic("((1+2i)*z^3-z)/(2-z)")
    h = 1e-5
    pts = _spiral(25, 0.8)
    fd = (f(pts + h) - f(pts - h)) / (2 * h)
    rel = np.abs(fd - f.deriv(pts)) / (1.0 + np.abs(f.deriv(pts)))
    assert float(rel.max()) < 1e-6


# --------------------------------------------------------------------------
# errors and sources


@pytest.mark.parametrize(
    "bad",
    ["", "z+", "w+1", "mobius()", "mobius(0.5", "2**z", "log()", "z^z", "(z"],
)
def test_malformed_text_raises(bad):
    with pytest.raises(ExprError):
        parse(bad)


@pytest.mark.parametrize("text, exponent", [("z^0", 0), ("z^12", 12), ("(z+1) ^ 3", 3), ("z^007", 7)])
def test_exponent_is_a_nonnegative_integer_literal(text, exponent):
    assert parse(text).n == exponent


@pytest.mark.parametrize(
    "text, offset",
    [("z^1.5", 2), ("z^1.", 2), ("z^2e0", 2), ("z^2i", 2), ("z^-1", 2), ("z^x", 2), ("z^", 2),
     ("(z+1) ^ 3.0", 7)],
)
def test_other_exponents_are_refused_just_after_the_caret(text, offset):
    with pytest.raises(ExprError) as excinfo:
        parse(text)
    assert excinfo.value.position == offset
    assert str(excinfo.value) == (
        f"exponent must be a nonnegative integer literal (at offset {offset})"
    )


def test_mobius_parameter_must_be_inside_disk():
    with pytest.raises(ExprError):
        parse("mobius(1.5)")


def test_analytic_keeps_original_source():
    assert analytic("z^2/2").source == "z^2/2"


def test_source_is_rendered_only_when_read(monkeypatch):
    rendered = []

    def counting(e):
        rendered.append(e)
        return print_expr(e)

    monkeypatch.setattr(exprdsl, "print_expr", counting)
    f = AnalyticFn(parse("mobius(0.5)*z"))
    peak = make_test_fn(PeakH(0.5 + 0.25j))
    pts = _spiral(10, 0.9)
    f(pts), f.deriv(pts), peak(pts), peak.deriv(pts)
    assert rendered == []
    assert f.source == print_expr(f.expr) and rendered == [f.expr]
    assert repr(peak) == f"AnalyticFn({print_expr(peak.expr)!r})"
    assert rendered == [f.expr, peak.expr]
    f.source, repr(peak)  # rendered once, then cached
    assert len(rendered) == 2
    assert analytic("z^2/2").source == "z^2/2" and len(rendered) == 2


def test_analytic_fn_accepts_scalars_and_arrays():
    f = analytic("z^2")
    assert f(0.5) == 0.25
    assert np.array_equal(f(np.array([1j, 2j])), np.array([-1.0 + 0j, -4.0 + 0j]))


# --------------------------------------------------------------------------
# each node's operations


def _reference_value(e, z):
    """Each node's operation and operand order, spelled out node by node."""
    n = exprdsl
    if isinstance(e, n.Var):
        return z
    if isinstance(e, n.Const):
        return e.value
    if isinstance(e, n.Neg):
        return -_reference_value(e.x, z)
    if isinstance(e, n.Pow):
        return _reference_value(e.base, z) ** e.n
    if isinstance(e, n.Exp):
        return np.exp(_reference_value(e.x, z))
    if isinstance(e, n.Log):
        return np.log(_reference_value(e.x, z))
    if isinstance(e, n.Mobius):
        return (e.a - z) / (1.0 - np.conj(e.a) * z)
    binary = {n.Add: operator.add, n.Sub: operator.sub, n.Mul: operator.mul}
    binary[n.Div] = operator.truediv
    return binary[type(e)](_reference_value(e.a, z), _reference_value(e.b, z))


@pytest.mark.parametrize("source", ROUNDTRIP_CORPUS)
def test_evaluate_keeps_each_node_operation_and_result_type(source):
    # Python-complex scalars must stay Python complex where they were, so a
    # scalar sample at a pole raises as AnalyticFn documents
    f = analytic(source)
    for expr in (f.expr, f.derivative.expr):
        for z in (complex(0.3, -0.2), _spiral(20, 0.9)):
            got, want = evaluate(expr, z), _reference_value(expr, z)
            assert type(got) is type(want)
            assert np.array_equal(got, want)


def test_evaluate_rejects_what_is_not_a_node():
    for thing in (object(), 3, "z", None, exprdsl.Expr()):
        with pytest.raises(TypeError, match="unknown node"):
            evaluate(thing, 0.5)
        with pytest.raises(TypeError, match="unknown node"):
            print_expr(thing)


# --------------------------------------------------------------------------
# sample shapes


@pytest.mark.parametrize("source", ROUNDTRIP_CORPUS + ("1", "complex(0.25,-0.5)"))
def test_a_sample_has_its_input_shape(source):
    # constants ("1", "2.5", "i", ...) and constant derivatives ("2*z") included
    f = analytic(source)
    for sample, expr in ((f, f.expr), (f.deriv, f.derivative.expr)):
        for z in (_spiral(20, 0.9), _spiral(16 * 5, 0.9).reshape(16, 5)):
            got = sample(z)
            assert got.shape == z.shape
            assert np.array_equal(got, np.broadcast_to(evaluate(expr, z), z.shape))
        z = complex(0.3, -0.2)
        got, want = sample(z), evaluate(expr, z)
        assert type(got) is type(want) and got == want


# --------------------------------------------------------------------------
# nodes as frozen records

# every node kind: its text, its repr and its field names
NODE_KINDS = [
    ("z", "Var()", ()),
    ("0.5i", "Const(value=0.5j)", ("value",)),
    ("-z", "Neg(x=Var())", ("x",)),
    ("exp(z)", "Exp(x=Var())", ("x",)),
    ("log(z)", "Log(x=Var())", ("x",)),
    ("z+1", "Add(a=Var(), b=Const(value=(1+0j)))", ("a", "b")),
    ("z-1", "Sub(a=Var(), b=Const(value=(1+0j)))", ("a", "b")),
    ("z*1", "Mul(a=Var(), b=Const(value=(1+0j)))", ("a", "b")),
    ("z/1", "Div(a=Var(), b=Const(value=(1+0j)))", ("a", "b")),
    ("z^3", "Pow(base=Var(), n=3)", ("base", "n")),
    ("mobius(0.5)", "Mobius(a=(0.5+0j))", ("a",)),
]


@pytest.mark.parametrize(
    "source, text, names", NODE_KINDS, ids=[text.partition("(")[0] for _, text, _ in NODE_KINDS]
)
def test_a_node_is_a_frozen_record_of_its_own_kind(source, text, names):
    node, twin = parse(source), parse(source)
    assert repr(node) == text
    assert node == twin and node is not twin and hash(node) == hash(twin)
    assert tuple(f.name for f in dataclasses.fields(node)) == names
    assert type(node).__match_args__ == names
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, getattr(twin, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, name)


def test_nodes_of_one_field_shape_and_different_kinds_differ():
    # same operands, same field names: only the kind tells them apart
    for shape in (["-z", "exp(z)", "log(z)"], ["z+1", "z-1", "z*1", "z/1"]):
        for left, right in itertools.combinations(map(parse, shape), 2):
            assert left != right and right != left
