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

Each node class carries its own operations: ``evaluate(z)`` (pointwise, on
scalars or numpy arrays), ``differentiate()`` (symbolic, with light constant
folding) and ``render()``; ``depends_on_z()`` walks a node's operands.
Nodes are frozen dataclasses, one dataclass per field shape: ``Neg``, ``Exp``
and ``Log`` inherit the methods generated for ``x`` once, ``Add``, ``Sub``,
``Mul`` and ``Div`` those for ``a, b``, and ``Var`` those of ``Expr``.  The
inherited ``__repr__`` prints each class's own name, and ``__eq__`` holds only
between nodes of one class.
``parse(print_expr(e))`` evaluates identically to ``e`` — the printer
parenthesizes enough to reproduce the exact tree shape (modulo negative
literals folding through an exact unary minus).

A constant tree evaluates to one scalar whatever ``z`` is, and
:func:`evaluate` returns it as is.  An :class:`AnalyticFn` sample at an
array always has that array's shape; at a Python ``complex`` it keeps the
tree's own scalar type.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np


class ExprError(ValueError):
    """Syntax, arity, or domain error in the expression language."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


# --------------------------------------------------------------------------
# nodes: each carries its value, its derivative and its rendering


@dataclass(frozen=True)
class Expr:
    """An expression node; a subclass defines ``evaluate``, ``differentiate`` and ``render``."""

    def depends_on_z(self) -> bool:
        return any(isinstance(v, Expr) and v.depends_on_z() for v in vars(self).values())

    def evaluate(self, z):
        raise TypeError(f"unknown node {self!r}")

    def differentiate(self) -> Expr:
        raise TypeError(f"unknown node {self!r}")

    def render(self) -> tuple[str, int]:
        """The node's text and its precedence level."""
        raise TypeError(f"unknown node {self!r}")


class Var(Expr):
    def depends_on_z(self) -> bool:
        return True

    def evaluate(self, z):
        return z

    def differentiate(self) -> Expr:
        return Const(1.0)

    def render(self):
        return "z", _LEVEL_ATOM


@dataclass(frozen=True)
class Const(Expr):
    value: complex

    def evaluate(self, z):
        return self.value

    def differentiate(self) -> Expr:
        return Const(0.0)

    def render(self):
        return _const_text(self.value)


@dataclass(frozen=True)
class _Unary(Expr):
    """A node of one operand ``x``: the field shape of ``Neg``, ``Exp`` and ``Log``."""

    x: Expr


@dataclass(frozen=True)
class _Binary(Expr):
    """A node of two operands ``a, b``: the field shape of ``Add``, ``Sub``, ``Mul`` and ``Div``."""

    a: Expr
    b: Expr


class Neg(_Unary):
    def evaluate(self, z):
        return -self.x.evaluate(z)

    def differentiate(self) -> Expr:
        d = self.x.differentiate()
        return Const(0.0) if _is_const(d, 0) else Neg(d)

    def render(self):
        return "-" + _paren(self.x, _LEVEL_NEG), _LEVEL_NEG


class Add(_Binary):
    def evaluate(self, z):
        return self.a.evaluate(z) + self.b.evaluate(z)

    def differentiate(self) -> Expr:
        return _add(self.a.differentiate(), self.b.differentiate())

    def render(self):
        return _paren(self.a, _LEVEL_ADD) + "+" + _paren(self.b, _LEVEL_ADD + 1), _LEVEL_ADD


class Sub(_Binary):
    def evaluate(self, z):
        return self.a.evaluate(z) - self.b.evaluate(z)

    def differentiate(self) -> Expr:
        return _sub(self.a.differentiate(), self.b.differentiate())

    def render(self):
        return _paren(self.a, _LEVEL_ADD) + "-" + _paren(self.b, _LEVEL_ADD + 1), _LEVEL_ADD


class Mul(_Binary):
    def evaluate(self, z):
        return self.a.evaluate(z) * self.b.evaluate(z)

    def differentiate(self) -> Expr:
        return _add(_mul(self.a.differentiate(), self.b), _mul(self.a, self.b.differentiate()))

    def render(self):
        return _paren(self.a, _LEVEL_MUL) + "*" + _paren(self.b, _LEVEL_MUL + 1), _LEVEL_MUL


class Div(_Binary):
    def evaluate(self, z):
        return self.a.evaluate(z) / self.b.evaluate(z)

    def differentiate(self) -> Expr:
        # (a'b - ab') / b^2
        num = _sub(_mul(self.a.differentiate(), self.b), _mul(self.a, self.b.differentiate()))
        return _div(num, _pow(self.b, 2))

    def render(self):
        return _paren(self.a, _LEVEL_MUL) + "/" + _paren(self.b, _LEVEL_MUL + 1), _LEVEL_MUL


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    n: int

    def evaluate(self, z):
        return self.base.evaluate(z) ** self.n

    def differentiate(self) -> Expr:
        if self.n == 0:
            return Const(0.0)
        inner = self.base.differentiate()
        return _mul(Const(float(self.n)), _mul(_pow(self.base, self.n - 1), inner))

    def render(self):
        return _paren(self.base, _LEVEL_ATOM) + "^" + str(self.n), _LEVEL_POW


class Exp(_Unary):
    def evaluate(self, z):
        return np.exp(self.x.evaluate(z))

    def differentiate(self) -> Expr:
        return _mul(Exp(self.x), self.x.differentiate())

    def render(self):
        return "exp(" + self.x.render()[0] + ")", _LEVEL_ATOM


class Log(_Unary):
    def evaluate(self, z):
        return np.log(self.x.evaluate(z))

    def differentiate(self) -> Expr:
        return _div(self.x.differentiate(), self.x)

    def render(self):
        return "log(" + self.x.render()[0] + ")", _LEVEL_ATOM


@dataclass(frozen=True)
class Mobius(Expr):
    a: complex

    def depends_on_z(self) -> bool:
        return True

    def evaluate(self, z):
        return (self.a - z) / (1.0 - np.conj(self.a) * z)

    def differentiate(self) -> Expr:
        # d/dz (a-z)/(1-conj(a) z) = -(1-|a|^2) / (1-conj(a) z)^2
        scale = -(1.0 - abs(self.a) ** 2)
        denom = _sub(Const(1.0), _mul(Const(complex(self.a).conjugate()), Var()))
        return _div(Const(complex(scale)), _pow(denom, 2))

    def render(self):
        return "mobius(" + _const_text(self.a)[0] + ")", _LEVEL_ATOM


# --------------------------------------------------------------------------
# differentiation helpers (light constant folding keeps derivative trees small)


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


# --------------------------------------------------------------------------
# printing helpers

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
    text, level = child.render()
    return f"({text})" if level < need else text


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


class _Tok(NamedTuple):
    kind: str  # 'num' | 'imag' | 'ident' | one of '+-*/^(),' | 'end'
    text: str
    pos: int


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
            if t.kind != "num" or re.fullmatch(r"\d+", t.text) is None:
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
        if e.depends_on_z():
            raise ExprError("parameter must be a constant expression", pos)
        return complex(e.evaluate(0.0))


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree; raises :class:`ExprError`."""
    return _Parser(text).parse()


# --------------------------------------------------------------------------
# entry points


def evaluate(e: Expr, z):
    """Value of ``e`` at ``z`` (scalar or array); a constant's value stays a scalar."""
    if not isinstance(e, Expr):
        raise TypeError(f"unknown node {e!r}")
    return e.evaluate(z)


def print_expr(e: Expr) -> str:
    """Render ``e`` as parseable text; round-trips at the value level."""
    if not isinstance(e, Expr):
        raise TypeError(f"unknown node {e!r}")
    return e.render()[0]


# --------------------------------------------------------------------------
# AnalyticFn


class AnalyticFn:
    """Holomorphic function backed by an expression tree.

    ``f(z)`` evaluates the function, ``f.deriv(z)`` its exact symbolic
    derivative; both accept scalars or numpy arrays.  A sample at an array
    has that array's shape, even where the expression is constant (then it
    is a read-only broadcast view).  A sample at a Python ``complex`` keeps
    the tree's scalar type, so Python complex division still raises at a
    pole.  ``source`` is the text the function was parsed from, or a
    canonical rendering made on first read.
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
        return AnalyticFn(self.expr.differentiate())

    def __call__(self, z):
        return _shaped(self.expr.evaluate(z), z)

    def deriv(self, z):
        return _shaped(self.derivative.expr.evaluate(z), z)

    def __repr__(self) -> str:
        return f"AnalyticFn({self.source!r})"


def _shaped(value, z):
    # a constant tree yields one scalar whatever z is
    if isinstance(z, np.ndarray) and np.shape(value) != z.shape:
        return np.broadcast_to(value, z.shape)
    return value


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
