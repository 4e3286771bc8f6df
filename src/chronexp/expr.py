"""Immutable symbolic expression kernel.

Expressions are trees over exact rational constants, typed symbols, and a
small fixed set of elementary functions.  ``normalize`` rewrites a tree into
a canonical expanded sum-of-monomials form, so that semantically equal
polynomial (and simple rational) expressions become *identical* trees and
equality checks reduce to ``==``.  Floats enter only through ``eval_num``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from typing import Callable, Mapping

from .errors import (
    DivisionByZero,
    DomainError,
    UnboundSymbol,
    UnsupportedFunction,
)


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------

class SymbolKind(IntEnum):
    """Role of a symbol; the numeric value fixes the canonical sort order."""

    TIME = 0          # the evolution variable t
    AUX = 1           # the auxiliary shift variable s
    INITIAL_TIME = 2  # the symbolic expansion point a
    SPACE = 3         # a space variable x_j
    JET = 4           # initial-data value c_k or one of its space derivatives
    PARAM = 5         # a named free parameter


@dataclass(frozen=True)
class Symbol:
    """A typed symbol.  ``index`` is the space index or the field index of a
    jet; ``orders`` is the jet multi-index (one entry per declared space
    variable, empty for ODE problems); ``name`` is set for free parameters.
    """

    kind: SymbolKind
    index: int = 0
    orders: tuple[int, ...] = ()
    name: str = ""

    def sort_key(self) -> tuple:
        return (int(self.kind), self.index, self.orders, self.name)


TIME = Symbol(SymbolKind.TIME)
AUX = Symbol(SymbolKind.AUX)
INITIAL_TIME = Symbol(SymbolKind.INITIAL_TIME)


def space_var(index: int) -> Symbol:
    return Symbol(SymbolKind.SPACE, index=index)


def jet(field: int, orders: tuple[int, ...] = ()) -> Symbol:
    return Symbol(SymbolKind.JET, index=field, orders=tuple(orders))


def free_param(name: str) -> Symbol:
    return Symbol(SymbolKind.PARAM, name=name)


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------

class Expr:
    """Base class.  Nodes are immutable; operators build raw (unnormalized)
    trees, so ``(a + b) * c`` is cheap and ``normalize`` is explicit.
    """

    __slots__ = ()

    def __add__(self, other) -> "Expr":
        return Add((self, _coerce(other)))

    def __radd__(self, other) -> "Expr":
        return Add((_coerce(other), self))

    def __sub__(self, other) -> "Expr":
        return Add((self, Mul((MINUS_ONE, _coerce(other)))))

    def __rsub__(self, other) -> "Expr":
        return Add((_coerce(other), Mul((MINUS_ONE, self))))

    def __mul__(self, other) -> "Expr":
        return Mul((self, _coerce(other)))

    def __rmul__(self, other) -> "Expr":
        return Mul((_coerce(other), self))

    def __truediv__(self, other) -> "Expr":
        return Mul((self, Pow(_coerce(other), -1)))

    def __rtruediv__(self, other) -> "Expr":
        return Mul((_coerce(other), Pow(self, -1)))

    def __pow__(self, exponent: int) -> "Expr":
        return Pow(self, int(exponent))

    def __neg__(self) -> "Expr":
        return Mul((MINUS_ONE, self))

    def __str__(self) -> str:
        from .render import format_expr

        return format_expr(self)


@dataclass(frozen=True, repr=False)
class Const(Expr):
    value: Fraction

    def __repr__(self) -> str:
        return f"Const({self.value})"


@dataclass(frozen=True, repr=False)
class Sym(Expr):
    symbol: Symbol

    def __repr__(self) -> str:
        return f"Sym({self})"


@dataclass(frozen=True, repr=False)
class Add(Expr):
    terms: tuple[Expr, ...]

    def __repr__(self) -> str:
        return f"Add({self})"


@dataclass(frozen=True, repr=False)
class Mul(Expr):
    factors: tuple[Expr, ...]

    def __repr__(self) -> str:
        return f"Mul({self})"


@dataclass(frozen=True, repr=False)
class Pow(Expr):
    base: Expr
    exponent: int

    def __repr__(self) -> str:
        return f"Pow({self})"


@dataclass(frozen=True, repr=False)
class Func(Expr):
    name: str
    arg: Expr

    def __repr__(self) -> str:
        return f"Func({self})"


def const(value) -> Const:
    return Const(Fraction(value))


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))
MINUS_ONE = Const(Fraction(-1))


# ---------------------------------------------------------------------------
# Elementary functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Elementary:
    """Everything the kernel knows about one elementary function: d/du as a
    tree in the argument u, the IEEE-double value, and the exact value at a
    rational argument (None when it is not rational).
    """

    derivative: Callable[[Expr], Expr]
    numeric: Callable[[float], float]
    fold: Callable[[Fraction], Fraction | None]


def _value_at(point: int, value: int) -> Callable[[Fraction], Fraction | None]:
    return lambda x: Fraction(value) if x == point else None


def _ln(x: float) -> float:
    if x <= 0.0:
        raise DomainError(f"ln of non-positive value {x}")
    return math.log(x)


def _sqrt(x: float) -> float:
    if x < 0.0:
        raise DomainError(f"sqrt of negative value {x}")
    return math.sqrt(x)


def _exact_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    num = math.isqrt(x.numerator)
    den = math.isqrt(x.denominator)
    if num * num == x.numerator and den * den == x.denominator:
        return Fraction(num, den)
    return None


# The one table of elementary functions: the parser accepts exactly these
# names, and differentiation, evaluation and normalize's folds read their
# rules from here.
ELEMENTARY: dict[str, Elementary] = {
    "sin": Elementary(lambda u: Func("cos", u), math.sin, _value_at(0, 0)),
    "cos": Elementary(lambda u: Mul((MINUS_ONE, Func("sin", u))), math.cos,
                      _value_at(0, 1)),
    "exp": Elementary(lambda u: Func("exp", u), math.exp, _value_at(0, 1)),
    "ln": Elementary(lambda u: Pow(u, -1), _ln, _value_at(1, 0)),
    "sqrt": Elementary(
        lambda u: Mul((Const(Fraction(1, 2)), Pow(Func("sqrt", u), -1))),
        _sqrt, _exact_sqrt),
}


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Const(Fraction(value))
    raise TypeError(f"cannot use {value!r} as an expression")


# ---------------------------------------------------------------------------
# Canonical ordering
# ---------------------------------------------------------------------------

def sort_key(e: Expr) -> tuple:
    """Total order on trees: node-kind rank, then recursive lexicographic."""
    if isinstance(e, Const):
        return (0, (e.value.numerator, e.value.denominator))
    if isinstance(e, Sym):
        return (1, e.symbol.sort_key())
    if isinstance(e, Func):
        return (2, e.name, sort_key(e.arg))
    if isinstance(e, Pow):
        return (3, sort_key(e.base), e.exponent)
    if isinstance(e, Mul):
        return (4, tuple(sort_key(f) for f in e.factors))
    if isinstance(e, Add):
        return (5, tuple(sort_key(t) for t in e.terms))
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------
#
# Internal normal form: a mapping monomial -> nonzero rational coefficient,
# where a monomial is a sorted tuple of (atom, integer exponent) pairs and an
# atom is a Sym, a Func with canonical argument, or a canonical Add kept as
# the base of a negative power.  Products distribute over sums and positive
# integer powers of sums are expanded, so polynomials reach a unique form.

_Mono = tuple
_Terms = dict


def _mono_of(atom: Expr, exponent: int = 1) -> _Mono:
    return ((atom, exponent),)


def _mono_key(mono: _Mono) -> tuple:
    return tuple((sort_key(atom), k) for atom, k in mono)


def _content_split(terms: _Terms) -> tuple[Fraction, _Terms]:
    """Greatest common rational factor (sign fixed so the leading monomial's
    coefficient is positive) and the remaining primitive part.
    """
    num = 0
    den = 1
    for coeff in terms.values():
        num = math.gcd(num, coeff.numerator)
        den = den * coeff.denominator // math.gcd(den, coeff.denominator)
    content = Fraction(num, den)
    lead = min(terms, key=_mono_key)
    if terms[lead] < 0:
        content = -content
    return content, {mono: coeff / content for mono, coeff in terms.items()}


def _merge_monos(a: _Mono, b: _Mono) -> _Mono:
    if not a:
        return b
    if not b:
        return a
    acc: dict[Expr, int] = dict(a)
    for atom, k in b:
        total = acc.get(atom, 0) + k
        if total:
            acc[atom] = total
        else:
            del acc[atom]
    return tuple(sorted(acc.items(), key=lambda item: sort_key(item[0])))


def _add_terms(acc: _Terms, extra: _Terms) -> None:
    for mono, coeff in extra.items():
        total = acc.get(mono, Fraction(0)) + coeff
        if total:
            acc[mono] = total
        else:
            acc.pop(mono, None)


def _mul_terms(a: _Terms, b: _Terms) -> _Terms:
    out: _Terms = {}
    for mono_a, ca in a.items():
        for mono_b, cb in b.items():
            mono = _merge_monos(mono_a, mono_b)
            total = out.get(mono, Fraction(0)) + ca * cb
            if total:
                out[mono] = total
            else:
                out.pop(mono, None)
    return out


def _pow_terms(base: _Terms, n: int) -> _Terms:
    if n == 0:
        # x**0 -> 1 (applied before inspecting the base)
        return {(): Fraction(1)}
    if not base:
        if n < 0:
            raise DivisionByZero("zero raised to a negative power")
        return {}
    if len(base) == 1:
        (mono, coeff), = base.items()
        new_mono = tuple((atom, k * n) for atom, k in mono)
        return {new_mono: coeff ** n}
    if n > 0:
        result: _Terms = {(): Fraction(1)}
        square = dict(base)
        k = n
        while k:
            if k & 1:
                result = _mul_terms(result, square)
            k >>= 1
            if k:
                square = _mul_terms(square, square)
        return result
    # negative power of a genuine sum: keep the primitive canonical sum as
    # an atom so that rationally-proportional denominators share one base
    content, primitive = _content_split(base)
    return {_mono_of(_build(primitive), n): content ** n}


def _terms(e: Expr) -> _Terms:
    if isinstance(e, Const):
        if e.value == 0:
            return {}
        return {(): e.value}
    if isinstance(e, Sym):
        return {_mono_of(e): Fraction(1)}
    if isinstance(e, Add):
        acc: _Terms = {}
        for t in e.terms:
            _add_terms(acc, _terms(t))
        return acc
    if isinstance(e, Mul):
        acc = {(): Fraction(1)}
        for f in e.factors:
            acc = _mul_terms(acc, _terms(f))
            if not acc:
                return {}
        return acc
    if isinstance(e, Pow):
        if not isinstance(e.exponent, int):
            raise TypeError("Pow exponent must be an integer")
        return _pow_terms(_terms(e.base), e.exponent)
    if isinstance(e, Func):
        arg = _build(_terms(e.arg))
        entry = ELEMENTARY.get(e.name)
        if isinstance(arg, Const) and entry is not None:
            folded = entry.fold(arg.value)
            if folded is not None:
                if folded == 0:
                    return {}
                return {(): folded}
        return {_mono_of(Func(e.name, arg)): Fraction(1)}
    raise TypeError(f"not an expression node: {e!r}")


def _build(terms: _Terms) -> Expr:
    if not terms:
        return ZERO

    built = []
    for mono, coeff in sorted(terms.items(), key=lambda item: _mono_key(item[0])):
        factors = [atom if k == 1 else Pow(atom, k) for atom, k in mono]
        if not factors:
            built.append(Const(coeff))
        elif coeff == 1:
            built.append(factors[0] if len(factors) == 1 else Mul(tuple(factors)))
        else:
            built.append(Mul((Const(coeff), *factors)))
    if len(built) == 1:
        return built[0]
    return Add(tuple(built))


def normalize(e: Expr) -> Expr:
    """Canonical representative of ``e``; idempotent, exact."""
    return _build(_terms(e))


def term_count(e: Expr) -> int:
    """Number of top-level summands (monomials once normalized)."""
    return len(e.terms) if isinstance(e, Add) else 1


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def _diff(e: Expr, sym: Symbol) -> Expr:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Sym):
        return ONE if e.symbol == sym else ZERO
    if isinstance(e, Add):
        return Add(tuple(_diff(t, sym) for t in e.terms))
    if isinstance(e, Mul):
        pieces = []
        for i, f in enumerate(e.factors):
            rest = e.factors[:i] + e.factors[i + 1:]
            pieces.append(Mul((_diff(f, sym), *rest)))
        return Add(tuple(pieces))
    if isinstance(e, Pow):
        return Mul((Const(Fraction(e.exponent)), Pow(e.base, e.exponent - 1),
                    _diff(e.base, sym)))
    if isinstance(e, Func):
        entry = ELEMENTARY.get(e.name)
        if entry is None:
            raise UnsupportedFunction(f"no derivative rule for '{e.name}'")
        return Mul((entry.derivative(e.arg), _diff(e.arg, sym)))
    raise TypeError(f"not an expression node: {e!r}")


def diff(e: Expr, sym: Symbol) -> Expr:
    """Partial derivative treating every symbol as an independent coordinate
    (jet variables of distinct multi-indices are independent).
    """
    return normalize(_diff(e, sym))


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def _subst(e: Expr, mapping: Mapping[Symbol, Expr]) -> Expr:
    if isinstance(e, Const):
        return e
    if isinstance(e, Sym):
        return mapping.get(e.symbol, e)
    if isinstance(e, Add):
        return Add(tuple(_subst(t, mapping) for t in e.terms))
    if isinstance(e, Mul):
        return Mul(tuple(_subst(f, mapping) for f in e.factors))
    if isinstance(e, Pow):
        return Pow(_subst(e.base, mapping), e.exponent)
    if isinstance(e, Func):
        return Func(e.name, _subst(e.arg, mapping))
    raise TypeError(f"not an expression node: {e!r}")


def subst(e: Expr, sym: Symbol, value: Expr) -> Expr:
    """Replace every occurrence of ``sym`` by ``value``, then normalize.
    The replacement is not rescanned, so self-referential values are safe.
    """
    return normalize(_subst(e, {sym: _coerce(value)}))


def subst_many(e: Expr, mapping: Mapping[Symbol, Expr]) -> Expr:
    """Simultaneous substitution of several symbols, then normalize."""
    return normalize(_subst(e, {s: _coerce(v) for s, v in mapping.items()}))


# ---------------------------------------------------------------------------
# Numeric evaluation
# ---------------------------------------------------------------------------

def eval_num(e: Expr, bindings: Mapping[Symbol, float]) -> float:
    """IEEE-double evaluation; every symbol in ``e`` must be bound."""
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Sym):
        try:
            return float(bindings[e.symbol])
        except KeyError:
            raise UnboundSymbol(f"no binding for {e}") from None
    if isinstance(e, Add):
        return math.fsum(eval_num(t, bindings) for t in e.terms)
    if isinstance(e, Mul):
        out = 1.0
        for f in e.factors:
            out *= eval_num(f, bindings)
        return out
    if isinstance(e, Pow):
        base = eval_num(e.base, bindings)
        if base == 0.0 and e.exponent < 0:
            raise DomainError("zero raised to a negative power")
        return base ** e.exponent
    if isinstance(e, Func):
        x = eval_num(e.arg, bindings)
        entry = ELEMENTARY.get(e.name)
        if entry is None:
            raise UnsupportedFunction(f"no numeric rule for '{e.name}'")
        return entry.numeric(x)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------

def symbols_of(e: Expr) -> set[Symbol]:
    out: set[Symbol] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Sym):
            out.add(node.symbol)
        elif isinstance(node, Add):
            stack.extend(node.terms)
        elif isinstance(node, Mul):
            stack.extend(node.factors)
        elif isinstance(node, Pow):
            stack.append(node.base)
        elif isinstance(node, Func):
            stack.append(node.arg)
    return out


def jets_of(e: Expr) -> set[Symbol]:
    return {s for s in symbols_of(e) if s.kind == SymbolKind.JET}

