"""Truncated Taylor series in w = t - a with canonical-expression coefficients.

``compose`` expands a canonical tree after each mapped symbol is replaced by
a coefficient list, in Taylor mode (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., 2008, ch. 13).  Sums add coefficient by coefficient,
products and integer powers are Cauchy products, negative powers follow the
reciprocal recurrence, and every elementary function y = f(u) obeys

    y_n = (1/n) sum_{k=1..n} k u_k [f'(u)]_{n-k},

with f' read from ``expr.ELEMENTARY``, so exp feeds itself and sin and cos
feed each other one coefficient at a time, and the fixed point u = c -
int_a^t F(tau, u) dtau has u_{n+1} = -F_n/(n+1) (Jorba & Zou, *Experimental
Math.* 14 (2005) 99-117, section 2).  Coefficient n of a node depends on
coefficients 0..n of its children only, so truncation is exact.

Every node keeps its coefficients in ``expr``'s internal term form (monomial
to rational), the form ``normalize`` works in.  Each sum of products above
(a Cauchy product, the reciprocal tail, the elementary-function rule) is
accumulated into one dict by ``expr._mul_add``, with no dict per product.
``compose_terms`` takes and returns coefficients in that form, so the
oracles compare them as dicts; ``compose`` is its face for trees.  One call
expands several roots over one node table, such as every field of a
coupled system.

This module never sees the generator: the residual, Picard and
homomorphism oracles rest on it independently of the Lie series, and each
states its verdict as an ``OrderCheck``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import ExpressionBlowup, NonPolynomialRhs
from .expr import (
    ELEMENTARY,
    MINUS_ONE,
    Add,
    Const,
    Expr,
    Func,
    Mul,
    Pow,
    Sym,
    TIME,
    _Terms,
    _build,
    _mul_add,
    _pow_terms,
    _scaled,
    _sum,
    _terms,
    normalize,
)


@dataclass(frozen=True)
class OrderCheck:
    """The verdict of one exact route: orders_equal[field][k] says whether
    the coefficients of series order first_order + k agree, and a failure
    is reported at the lowest differing order, at the first field there.
    """

    field_names: tuple[str, ...]
    first_order: int
    orders_equal: tuple[tuple[bool, ...], ...]
    failing_order: int | None
    failing_field: str | None
    detail: str
    passed: bool

    def summary(self) -> str:
        return self.detail

    @classmethod
    def of(cls, field_names: Sequence[str], first_order: int,
           orders_equal: Sequence[Sequence[bool]], passing: str,
           failing: str) -> OrderCheck:
        """The verdict of a comparison table, one row per field.  Its detail
        is ``passing`` formatted with ``fields`` and ``last``, the index
        from 0 of the final column, or ``failing`` formatted with the
        failing ``field`` and ``order``.  A table that compares nothing
        raises ValueError, so that no verdict passes vacuously.
        """
        rows = tuple(map(tuple, orders_equal))
        if not rows or not rows[0]:
            raise ValueError("no series coefficient was compared")
        k, i = min(((k, i) for i, row in enumerate(rows)
                    for k, ok in enumerate(row) if not ok), default=(0, None))
        if i is None:
            return cls(tuple(field_names), first_order, rows, None, None,
                       passing.format(fields=", ".join(field_names),
                                      last=len(rows[0]) - 1), True)
        order, field = first_order + k, field_names[i]
        return cls(tuple(field_names), first_order, rows, order, field,
                   failing.format(field=field, order=order), False)


class _Series:
    """The coefficients of one node as term dicts, computed on demand and
    kept, each within ``term_budget`` monomials.  Every coefficient beyond
    ``degree`` is zero (None: no bound, which is also what a node still
    being defined reports to the nodes built under it).
    """

    def __init__(self, term_budget: float):
        self.degree: int | None = None
        self.step: Callable[[int], _Terms] | None = None
        self.known: list[_Terms] = []
        self.term_budget = term_budget

    def __getitem__(self, n: int) -> _Terms:
        if self.degree is not None and n > self.degree:
            return {}
        while len(self.known) <= n:
            terms = self.step(len(self.known))
            if len(terms) > self.term_budget:
                raise ExpressionBlowup(
                    f"series coefficient exceeds {self.term_budget} monomials")
            self.known.append(terms)
        return self.known[n]


def _cauchy(out: _Series, a: _Series, b: _Series) -> None:
    out.degree = (None if a.degree is None or b.degree is None
                  else a.degree + b.degree)

    def step(n: int) -> _Terms:
        lo = 0 if b.degree is None else max(0, n - b.degree)
        hi = n if a.degree is None else min(n, a.degree)
        acc: _Terms = {}
        for i in range(lo, hi + 1):
            _mul_add(acc, a[i], b[n - i])
        return acc
    out.step = step


def _reciprocal(out: _Series, v: _Series) -> None:
    out.degree = 0 if v.degree == 0 else None

    def step(n: int) -> _Terms:
        if n == 0:
            return _pow_terms(v[0], -1)
        tail: _Terms = {}
        for k in range(1, n + 1):
            _mul_add(tail, v[k], out[n - k])
        return _mul_add({}, out[0], tail, -1)
    out.step = step


def compose(roots: Sequence[Expr], mapped: Mapping[Sym, Sequence[Expr]],
            order: int | None,
            integrals: Mapping[Sym, Expr] = {}) -> list[list[Expr]]:
    """``compose_terms`` on canonical trees, in ``mapped`` and out."""
    terms = {s: [_terms(c) for c in coeffs] for s, coeffs in mapped.items()}
    return [[_build(c) for c in column]
            for column in compose_terms(roots, terms, order, integrals)]


def compose_terms(roots: Sequence[Expr],
                  mapped: Mapping[Sym, Sequence[_Terms]], order: int | None,
                  integrals: Mapping[Sym, Expr] = {},
                  term_budget: float = float("inf")) -> list[list[_Terms]]:
    """Coefficients [y_0, ..., y_order] in w, as term dicts, of each
    canonical tree in ``roots`` once each symbol of ``mapped`` is replaced
    by the series sum_n c_n w^n of its term-dict coefficient list, and each
    symbol c of ``integrals`` by the series c - int_a^t F dtau of its tree
    F; every other symbol is a constant.  The roots share one node table,
    so a subtree common to several is expanded once.  The returned dicts
    may be the ones passed in, and must not be changed.

    With order None each root's exact polynomial degree is used, and a
    mapped symbol in a non-polynomial position raises NonPolynomialRhs.
    A coefficient of any node with more than ``term_budget`` monomials
    raises ExpressionBlowup.
    """
    nodes: dict[Expr, _Series] = {}

    def series_of(node: Expr) -> _Series:
        s = nodes.get(node)
        if s is None:
            # Registered before its children, so that exp(u), the
            # sin(u)/cos(u) pair and an integral reach themselves.
            s = nodes[node] = _Series(term_budget)
            define(s, node)
        return s

    def define(s: _Series, node: Expr) -> None:
        # isinstance first: ``in`` would hash a composite node once more.
        if isinstance(node, Sym) and node in mapped:
            coeffs = mapped[node]
            s.degree = len(coeffs) - 1
            s.step = coeffs.__getitem__
        elif isinstance(node, Sym) and node in integrals:
            f = series_of(integrals[node])
            s.step = lambda n: _terms(node) if n == 0 else _scaled(
                Fraction(-1, n), f[n - 1])
        elif isinstance(node, (Const, Sym)):
            s.degree = 0
            s.step = lambda n: _terms(node)
        elif isinstance(node, Add):
            terms = [series_of(t) for t in node.terms]
            s.degree = (None if any(t.degree is None for t in terms)
                        else max(t.degree for t in terms))
            s.step = lambda n: _sum(t[n] for t in terms)
        elif isinstance(node, Mul):
            *head, last = node.factors
            rest = head[0] if len(head) == 1 else Mul(tuple(head))
            _cauchy(s, series_of(rest), series_of(last))
        elif isinstance(node, Pow):
            k, base = node.exponent, node.base
            if k == -1:
                _reciprocal(s, series_of(base))
            else:
                # base^k = base^(k-1) * base, and 1/base likewise for k < 0
                sign = 1 if k > 0 else -1
                unit = series_of(base if k > 0 else Pow(base, -1))
                lower = unit if abs(k) == 2 else series_of(Pow(base, k - sign))
                _cauchy(s, lower, unit)
        elif isinstance(node, Func):
            u = series_of(node.arg)
            s.degree = 0 if u.degree == 0 else None
            df = series_of(ELEMENTARY[node.name].derivative(node.arg))

            def step(n: int) -> _Terms:
                if n == 0:
                    return _terms(Func(node.name, _build(u[0])))
                top = n if u.degree is None else min(n, u.degree)
                acc: _Terms = {}
                for k in range(1, top + 1):
                    _mul_add(acc, u[k], df[n - k], Fraction(k, n))
                return acc
            s.step = step
        else:
            raise TypeError(f"not an expression node: {node!r}")

    out = []
    for root in [series_of(e) for e in roots]:
        top = order
        if top is None:
            if root.degree is None:
                raise NonPolynomialRhs(
                    "expression is not polynomial in the expanded symbols")
            top = root.degree
        out.append([root[n] for n in range(top + 1)])
    return out


def polynomial(coeffs: Sequence[Expr], point: Expr) -> Expr:
    """sum_n coeffs[n] (t - point)^n as a canonical expression in t."""
    tau = Add((TIME, Mul((MINUS_ONE, point))))
    return normalize(Add(tuple(Mul((c, Pow(tau, n)))
                               for n, c in enumerate(coeffs))))
