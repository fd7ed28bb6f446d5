"""A small expression language for holomorphic functions of one disk variable.

Grammar (EBNF)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ('^' uint)?
    atom   := 'z' | number | 'i' | '(' expr ')' | ident '(' args ')'
    ident  := 'exp' | 'log' | 'mobius' | 'complex'

Numbers are decimal with an optional exponent; a number immediately suffixed
with ``i`` is an imaginary literal, so ``1+2i`` works, as does
``complex(1,2)``.  ``log`` is the principal branch.  ``mobius(a)`` is the disk
involution ``(a - z) / (1 - conj(a) z)``; its parameter must be a constant
with ``|a| < 1`` (otherwise the pole would not stay outside the closed disk).

Expressions evaluate pointwise on scalars or numpy arrays, and differentiate
symbolically.  ``parse(print_expr(e))`` evaluates identically to ``e`` — the
printer parenthesizes enough to reproduce the exact tree shape (modulo
negative literals folding through an exact unary minus).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, singledispatch

import numpy as np


class ExprError(ValueError):
    """Syntax, arity, or domain error in the expression language."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


# --------------------------------------------------------------------------
# nodes


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Var(Expr):
    pass


@dataclass(frozen=True)
class Const(Expr):
    value: complex


@dataclass(frozen=True)
class Neg(Expr):
    x: Expr


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    n: int


@dataclass(frozen=True)
class Exp(Expr):
    x: Expr


@dataclass(frozen=True)
class Log(Expr):
    x: Expr


@dataclass(frozen=True)
class Mobius(Expr):
    a: complex


# --------------------------------------------------------------------------
# lexer

_TOKEN_RE = re.compile(
    r"""
    (?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?i?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Tok:
    kind: str  # 'num' | 'imag' | 'ident' | one of '+-*/^(),' | 'end'
    text: str
    pos: int

    @property
    def is_uint(self) -> bool:
        return self.kind == "num" and re.fullmatch(r"\d+", self.text) is not None


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "ws":
            pass
        elif m.lastgroup == "num":
            t = m.group()
            kind = "imag" if t.endswith("i") else "num"
            toks.append(_Tok(kind, t.rstrip("i"), pos))
        elif m.lastgroup == "ident":
            toks.append(_Tok("ident", m.group(), pos))
        else:
            toks.append(_Tok(m.group(), m.group(), pos))
        pos = m.end()
    toks.append(_Tok("end", "", len(text)))
    return toks


# --------------------------------------------------------------------------
# parser

_FUNCTIONS = {"exp": 1, "log": 1, "mobius": 1, "complex": 2}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _lex(text)
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.next()
        if t.kind != kind:
            raise ExprError(f"expected {kind!r}, found {t.text or 'end of input'!r}", t.pos)
        return t

    def parse(self) -> Expr:
        e = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ExprError(f"unexpected trailing input {t.text!r}", t.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            rhs = self.factor()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def factor(self) -> Expr:
        if self.peek().kind == "-":
            self.next()
            return Neg(self.factor())
        e = self.atom()
        if self.peek().kind == "^":
            caret = self.next()
            t = self.next()
            if t.kind != "num" or not t.is_uint:
                raise ExprError("exponent must be a nonnegative integer literal", caret.pos + 1)
            e = Pow(e, int(t.text))
        return e

    def atom(self) -> Expr:
        t = self.next()
        if t.kind == "num":
            return Const(complex(float(t.text)))
        if t.kind == "imag":
            return Const(complex(0.0, float(t.text)))
        if t.kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        if t.kind == "ident":
            if t.text == "z":
                return Var()
            if t.text == "i":
                return Const(1j)
            if t.text in _FUNCTIONS:
                return self.call(t)
            raise ExprError(f"unknown identifier {t.text!r}", t.pos)
        raise ExprError(f"unexpected token {t.text or 'end of input'!r}", t.pos)

    def call(self, name: _Tok) -> Expr:
        self.expect("(")
        args = [self.expr()]
        while self.peek().kind == ",":
            self.next()
            args.append(self.expr())
        self.expect(")")
        want = _FUNCTIONS[name.text]
        if len(args) != want:
            raise ExprError(
                f"{name.text} expects {want} argument{'s' if want > 1 else ''}, got {len(args)}",
                name.pos,
            )
        if name.text == "exp":
            return Exp(args[0])
        if name.text == "log":
            return Log(args[0])
        if name.text == "complex":
            re_, im_ = (self.constant(a, name.pos) for a in args)
            for part in (re_, im_):
                if part.imag != 0.0:
                    raise ExprError("complex() arguments must be real", name.pos)
            return Const(complex(re_.real, im_.real))
        # mobius
        a = self.constant(args[0], name.pos)
        if abs(a) >= 1.0:
            raise ExprError(f"mobius parameter must satisfy |a| < 1, got |a| = {abs(a)}", name.pos)
        return Mobius(a)

    def constant(self, e: Expr, pos: int) -> complex:
        if _depends_on_z(e):
            raise ExprError("parameter must be a constant expression", pos)
        return complex(evaluate(e, 0.0))


def _depends_on_z(e: Expr) -> bool:
    if isinstance(e, Var):
        return True
    if isinstance(e, (Const, Mobius)):
        return isinstance(e, Mobius)  # mobius is a function of z
    if isinstance(e, Neg):
        return _depends_on_z(e.x)
    if isinstance(e, (Add, Sub, Mul, Div)):
        return _depends_on_z(e.a) or _depends_on_z(e.b)
    if isinstance(e, Pow):
        return _depends_on_z(e.base)
    if isinstance(e, (Exp, Log)):
        return _depends_on_z(e.x)
    raise TypeError(f"unknown node {e!r}")


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree; raises :class:`ExprError`."""
    return _Parser(text).parse()


# --------------------------------------------------------------------------
# evaluation


_EVALUATE = {
    Var: lambda e, z: z,
    Const: lambda e, z: e.value,
    Neg: lambda e, z: -evaluate(e.x, z),
    Add: lambda e, z: evaluate(e.a, z) + evaluate(e.b, z),
    Sub: lambda e, z: evaluate(e.a, z) - evaluate(e.b, z),
    Mul: lambda e, z: evaluate(e.a, z) * evaluate(e.b, z),
    Div: lambda e, z: evaluate(e.a, z) / evaluate(e.b, z),
    Pow: lambda e, z: evaluate(e.base, z) ** e.n,
    Exp: lambda e, z: np.exp(evaluate(e.x, z)),
    Log: lambda e, z: np.log(evaluate(e.x, z)),
    Mobius: lambda e, z: (e.a - z) / (1.0 - np.conj(e.a) * z),
}


def evaluate(e: Expr, z):
    """Value of ``e`` at ``z`` (scalar or array); one table lookup per node."""
    rule = _EVALUATE.get(type(e))
    if rule is None:
        raise TypeError(f"unknown node {e!r}")
    return rule(e, z)


# --------------------------------------------------------------------------
# differentiation (with light constant folding to keep trees small)


def _is_const(e: Expr, v: complex) -> bool:
    return isinstance(e, Const) and e.value == v


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return Neg(b)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0) or _is_const(b, 0):
        return Const(0.0)
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0):
        return Const(0.0)
    if _is_const(b, 1):
        return a
    return Div(a, b)


def _pow(base: Expr, n: int) -> Expr:
    if n == 0:
        return Const(1.0)
    if n == 1:
        return base
    return Pow(base, n)


@singledispatch
def differentiate(e: Expr) -> Expr:
    raise TypeError(f"unknown node {e!r}")


@differentiate.register
def _(e: Var) -> Expr:
    return Const(1.0)


@differentiate.register
def _(e: Const) -> Expr:
    return Const(0.0)


@differentiate.register
def _(e: Neg) -> Expr:
    d = differentiate(e.x)
    return Const(0.0) if _is_const(d, 0) else Neg(d)


@differentiate.register
def _(e: Add) -> Expr:
    return _add(differentiate(e.a), differentiate(e.b))


@differentiate.register
def _(e: Sub) -> Expr:
    return _sub(differentiate(e.a), differentiate(e.b))


@differentiate.register
def _(e: Mul) -> Expr:
    return _add(_mul(differentiate(e.a), e.b), _mul(e.a, differentiate(e.b)))


@differentiate.register
def _(e: Div) -> Expr:
    # (a'b - ab') / b^2
    num = _sub(_mul(differentiate(e.a), e.b), _mul(e.a, differentiate(e.b)))
    return _div(num, _pow(e.b, 2))


@differentiate.register
def _(e: Pow) -> Expr:
    if e.n == 0:
        return Const(0.0)
    inner = differentiate(e.base)
    return _mul(Const(float(e.n)), _mul(_pow(e.base, e.n - 1), inner))


@differentiate.register
def _(e: Exp) -> Expr:
    return _mul(Exp(e.x), differentiate(e.x))


@differentiate.register
def _(e: Log) -> Expr:
    return _div(differentiate(e.x), e.x)


@differentiate.register
def _(e: Mobius) -> Expr:
    # d/dz (a-z)/(1-conj(a) z) = -(1-|a|^2) / (1-conj(a) z)^2
    scale = -(1.0 - abs(e.a) ** 2)
    denom = _sub(Const(1.0), _mul(Const(complex(e.a).conjugate()), Var()))
    return _div(Const(complex(scale)), _pow(denom, 2))


# --------------------------------------------------------------------------
# printing

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _float_text(x: float) -> str:
    return repr(float(x))


def _const_text(c: complex) -> tuple[str, int]:
    if c.imag == 0.0:
        t = _float_text(c.real)
    elif c.real == 0.0:
        t = _float_text(c.imag) + "i"
    else:
        return f"complex({_float_text(c.real)},{_float_text(c.imag)})", _LEVEL_ATOM
    return t, (_LEVEL_NEG if t.startswith("-") else _LEVEL_ATOM)


def _paren(child: Expr, need: int) -> str:
    text, level = _render(child)
    return f"({text})" if level < need else text


@singledispatch
def _render(e: Expr) -> tuple[str, int]:
    raise TypeError(f"unknown node {e!r}")


@_render.register
def _(e: Var):
    return "z", _LEVEL_ATOM


@_render.register
def _(e: Const):
    return _const_text(e.value)


@_render.register
def _(e: Neg):
    return "-" + _paren(e.x, _LEVEL_NEG), _LEVEL_NEG


@_render.register
def _(e: Add):
    return _paren(e.a, _LEVEL_ADD) + "+" + _paren(e.b, _LEVEL_ADD + 1), _LEVEL_ADD


@_render.register
def _(e: Sub):
    return _paren(e.a, _LEVEL_ADD) + "-" + _paren(e.b, _LEVEL_ADD + 1), _LEVEL_ADD


@_render.register
def _(e: Mul):
    return _paren(e.a, _LEVEL_MUL) + "*" + _paren(e.b, _LEVEL_MUL + 1), _LEVEL_MUL


@_render.register
def _(e: Div):
    return _paren(e.a, _LEVEL_MUL) + "/" + _paren(e.b, _LEVEL_MUL + 1), _LEVEL_MUL


@_render.register
def _(e: Pow):
    return _paren(e.base, _LEVEL_ATOM) + "^" + str(e.n), _LEVEL_POW


@_render.register
def _(e: Exp):
    return "exp(" + _render(e.x)[0] + ")", _LEVEL_ATOM


@_render.register
def _(e: Log):
    return "log(" + _render(e.x)[0] + ")", _LEVEL_ATOM


@_render.register
def _(e: Mobius):
    return "mobius(" + _const_text(e.a)[0] + ")", _LEVEL_ATOM


def print_expr(e: Expr) -> str:
    """Render ``e`` as parseable text; round-trips at the value level."""
    return _render(e)[0]


# --------------------------------------------------------------------------
# AnalyticFn


class AnalyticFn:
    """Holomorphic function backed by an expression tree.

    ``f(z)`` evaluates the function, ``f.deriv(z)`` its exact symbolic
    derivative; both accept scalars or numpy arrays.  ``source`` is the text
    the function was parsed from, or a canonical rendering made on first read.
    """

    def __init__(self, expr: Expr, source: str | None = None):
        self.expr = expr
        if source is not None:
            self.source = source

    @cached_property
    def source(self) -> str:
        return print_expr(self.expr)

    @cached_property
    def derivative(self) -> "AnalyticFn":
        return AnalyticFn(differentiate(self.expr))

    def __call__(self, z):
        return evaluate(self.expr, z)

    def deriv(self, z):
        return evaluate(self.derivative.expr, z)

    def __repr__(self) -> str:
        return f"AnalyticFn({self.source!r})"


def analytic(text: str) -> AnalyticFn:
    """Parse ``text`` into an :class:`AnalyticFn`."""
    return AnalyticFn(parse(text), source=text)


# --------------------------------------------------------------------------
# round-trip corpus (exercises every node kind and the usual symbol shapes)

ROUNDTRIP_CORPUS: tuple[str, ...] = (
    "z",
    "i",
    "2.5",
    "0.5i",
    "complex(1.5,-0.25)",
    "z+1",
    "1-z",
    "2*z",
    "z/2",
    "z^2",
    "-z",
    "z^2/2",
    "(z+0.3)/2",
    "1+2i",
    "z^3-z+0.5",
    "exp(z)",
    "log(2/(1-z))",
    "log(2/(1-0.999*z))",
    "mobius(0.5)",
    "mobius(-0.5)",
    "mobius(0.3i)",
    "mobius(complex(0.2,0.4))",
    "1-mobius(0.7)",
    "exp(0.39269908169872414i)*z",
    "-mobius(0.8)",
    "(1-0.81)/(1-0.9*z)",
    "mobius(0.6)*(1-0.36)/(1-0.6*z)",
    "((1+2i)*z^3-z)/(2-z)",
    "exp(log(2/(1-0.5*z)))",
    "0.25*z^4-z^2+complex(0,1)*z",
)
