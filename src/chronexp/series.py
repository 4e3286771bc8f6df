"""Truncated Taylor series in w = t - a with canonical-expression coefficients.

``compose`` expands a canonical tree after each mapped symbol is replaced by
a coefficient list, in Taylor mode (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., 2008, ch. 13).  Sums add coefficient by coefficient,
products and integer powers are Cauchy products, negative powers follow the
reciprocal recurrence, and every elementary function y = f(u) obeys

    y_n = (1/n) sum_{k=1..n} k u_k [f'(u)]_{n-k},

with f' read from ``expr.ELEMENTARY``, so exp feeds itself and sin and cos
feed each other one coefficient at a time.  Coefficient n of a node depends
on coefficients 0..n of its children only, so truncation is exact.

This module never sees the generator: the residual, Picard and
homomorphism oracles rest on it independently of the Lie series.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import NonPolynomialRhs
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
    Symbol,
    TIME,
    ZERO,
    normalize,
)


class _Series:
    """The coefficients of one node, computed on demand and kept.  Every
    coefficient beyond ``degree`` is zero (None: no bound, which is also
    what a node still being defined reports to the nodes built under it).
    """

    def __init__(self):
        self.degree: int | None = None
        self.step: Callable[[int], Expr] | None = None
        self.known: list[Expr] = []

    def __getitem__(self, n: int) -> Expr:
        if self.degree is not None and n > self.degree:
            return ZERO
        while len(self.known) <= n:
            self.known.append(self.step(len(self.known)))
        return self.known[n]


def _cauchy(out: _Series, a: _Series, b: _Series) -> None:
    out.degree = (None if a.degree is None or b.degree is None
                  else a.degree + b.degree)

    def step(n: int) -> Expr:
        lo = 0 if b.degree is None else max(0, n - b.degree)
        hi = n if a.degree is None else min(n, a.degree)
        return normalize(Add(tuple(Mul((a[i], b[n - i]))
                                   for i in range(lo, hi + 1))))
    out.step = step


def _reciprocal(out: _Series, v: _Series) -> None:
    out.degree = 0 if v.degree == 0 else None

    def step(n: int) -> Expr:
        if n == 0:
            return normalize(Pow(v[0], -1))
        tail = Add(tuple(Mul((v[k], out[n - k])) for k in range(1, n + 1)))
        return normalize(Mul((MINUS_ONE, out[0], tail)))
    out.step = step


def compose(e: Expr, mapped: Mapping[Symbol, Sequence[Expr]],
            order: int | None) -> list[Expr]:
    """Coefficients [y_0, ..., y_order] in w of the canonical tree ``e`` once
    each symbol of ``mapped`` is replaced by the series sum_n c_n w^n of its
    coefficient list; every other symbol is a constant.

    With order None the exact polynomial degree is used, and a mapped
    symbol in a non-polynomial position raises NonPolynomialRhs.
    """
    nodes: dict[Expr, _Series] = {}

    def series_of(node: Expr) -> _Series:
        s = nodes.get(node)
        if s is None:
            # Registered before its children, so that exp(u) and the
            # sin(u)/cos(u) pair reach themselves through f'(u).
            s = nodes[node] = _Series()
            define(s, node)
        return s

    def define(s: _Series, node: Expr) -> None:
        if isinstance(node, Sym) and node.symbol in mapped:
            coeffs = mapped[node.symbol]
            s.degree = len(coeffs) - 1
            s.step = coeffs.__getitem__
        elif isinstance(node, (Const, Sym)):
            s.degree = 0
            s.step = lambda n: node
        elif isinstance(node, Add):
            terms = [series_of(t) for t in node.terms]
            s.degree = (None if any(t.degree is None for t in terms)
                        else max(t.degree for t in terms))
            s.step = lambda n: normalize(Add(tuple(t[n] for t in terms)))
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

            def step(n: int) -> Expr:
                if n == 0:
                    return normalize(Func(node.name, u[0]))
                top = n if u.degree is None else min(n, u.degree)
                parts = tuple(Mul((Const(Fraction(k)), u[k], df[n - k]))
                              for k in range(1, top + 1))
                return normalize(Mul((Const(Fraction(1, n)), Add(parts))))
            s.step = step
        else:
            raise TypeError(f"not an expression node: {node!r}")

    root = series_of(e)
    if order is None:
        if root.degree is None:
            raise NonPolynomialRhs(
                "expression is not polynomial in the expanded symbols")
        order = root.degree
    return [root[n] for n in range(order + 1)]


def polynomial(coeffs: Sequence[Expr], point: Expr) -> Expr:
    """sum_n coeffs[n] (t - point)^n as a canonical expression in t."""
    tau = Add((Sym(TIME), Mul((MINUS_ONE, point))))
    return normalize(Add(tuple(Mul((c, Pow(tau, n)))
                               for n, c in enumerate(coeffs))))
