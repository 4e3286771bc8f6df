"""Lie-series construction of Cauchy-problem solutions.

For du_i/dt + F_i = 0 with u_i = c_i at t = a, the solution is generated by
iterating the derivation

    A[e] = sum_j sum_alpha D_x^alpha(F_j(t, x, jets)) * de/dJet(j, alpha)
           - de/dt,

on the seed c_i and reading off Taylor coefficients

    C_{i,n} = (-1)^n / n! * (A^n[c_i]) evaluated at t = a,

so that u_i = sum_n C_{i,n} (t - a)^n.  For ODEs and systems the alpha-sum
collapses to the bare initial-data symbols; for PDEs it is the evolutionary
prolongation over exactly the jets present in the operand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Sequence

from .errors import ExpressionBlowup
from .expr import (
    MINUS_ONE,
    ONE,
    Add,
    Expr,
    Fraction,
    Mul,
    Sym,
    SymbolKind,
    TIME,
    _Terms,
    _at_time,
    _build,
    _derive,
    _lowered,
    _scaled,
    _term_symbols,
    _terms,
    _total_derivative,
    diff,
    eval_num,
    jets_of,
    normalize,
    space_var,
)
from .parser import ProblemSpec
from .series import OrderCheck, compose, compose_terms

DEFAULT_TERM_BUDGET = 10 ** 6


def jet_derivatives(bases: Sequence[_Terms]) -> Callable[[Sym], _Terms]:
    """Memoized D_x^alpha bases[k] for the jet symbol (k, alpha), in term
    form, as the bases are.

    The first nonzero order of alpha is lowered one step at a time with
    total_derivative, so every intermediate derivative is computed once
    and shared.
    """
    @cache
    def derive(jsym: Sym) -> _Terms:
        if not any(jsym.orders):
            return bases[jsym.index]
        j, lower = _lowered(jsym)
        return total_derivative(derive(lower), j)

    return derive


def total_derivative(e: _Terms, space_index: int) -> _Terms:
    """expr._total_derivative; perfbench and the tests look this name up."""
    return _total_derivative(e, space_index)


def apply_generator(rates: Callable[[Sym], Expr], e: Expr) -> Expr:
    """One application of the derivation A (see module docstring), with
    ``rates(jet(k, alpha))`` = D_x^alpha F_k.  The jet-sum runs over
    exactly the jets occurring in ``e``.
    """
    pieces = [Mul((MINUS_ONE, diff(e, TIME)))]
    for jsym in jets_of(e):
        pieces.append(Mul((rates(jsym), diff(e, jsym))))
    return normalize(Add(tuple(pieces)))


# ---------------------------------------------------------------------------
# Series solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesSolution:
    """Per-field Taylor coefficients C_{i,n} of the solution around t = a,
    as term dicts: u_i is approximated by sum_n C_{i,n} (t - a)^n.
    """

    problem: ProblemSpec
    order: int
    terms: tuple[tuple[_Terms, ...], ...]

    def __post_init__(self):
        if len(self.terms) != self.problem.n_fields:
            raise ValueError("one coefficient column per field is required")
        for i, column in enumerate(self.terms):
            if len(column) != self.order + 1:
                raise ValueError("coefficient column length mismatch")
            if column[0] != _terms(self.problem.jet_symbol(i)):
                raise ValueError("order-0 coefficient must be the initial datum")
            for c in column:
                if TIME in _term_symbols(c):
                    raise ValueError("coefficients must not contain t")

    @cached_property
    def coeffs(self) -> tuple[tuple[Expr, ...], ...]:
        """The coefficients as canonical trees, built once on first read,
        for printing and numeric evaluation.
        """
        return tuple(tuple(map(_build, column)) for column in self.terms)


def _lie_terms(step: Callable[[_Terms], _Terms], seed: _Terms, point: Expr,
               order: int, term_budget: int) -> list[_Terms]:
    """The one Lie loop: (-1)^n/n! A^n[seed] at t = point, n = 0..order, in
    term form, ``step`` applying A; an A^n[seed] over budget raises.
    """
    out: list[_Terms] = []
    for n in range(order + 1):
        current = step(current) if n else seed
        if len(current) > term_budget:
            raise ExpressionBlowup(
                f"series term at order {n} exceeds {term_budget} monomials")
        out.append(_scaled(Fraction((-1) ** n, math.factorial(n)),
                           _at_time(current, point)))
    return out


def lie_coefficients(problem: ProblemSpec, order: int,
                     term_budget: int = DEFAULT_TERM_BUDGET) -> SeriesSolution:
    """Truncated Lie-series solution for every field of the problem, holding
    the loop's own term dicts.
    """
    derived = jet_derivatives([_terms(e) for e in problem.rhs])
    rates = cache(lambda jsym: _build(derived(jsym)))
    step = lambda d: _terms(apply_generator(rates, _build(d)))
    terms = tuple(tuple(_lie_terms(step, _terms(problem.jet_symbol(i)),
                                   problem.initial_time, order, term_budget))
                  for i in range(problem.n_fields))
    return SeriesSolution(problem=problem, order=order, terms=terms)


def eval_series(sol: SeriesSolution, t_values: Sequence[float],
                initial_data: dict[Sym, float]) -> list[list[float]]:
    """Every field's series at each time in t_values, one row per time.

    initial_data must bind every jet symbol occurring in the coefficients
    (plus space variables, parameters, and the symbolic initial time when
    those occur).  The coefficients depend on the initial data alone, so
    each is evaluated once; Horner's rule then runs per time, highest
    order first.
    """
    a_value = eval_num(sol.problem.initial_time, initial_data)
    columns = [[eval_num(coeff, initial_data) for coeff in reversed(column)]
               for column in sol.coeffs]
    rows = []
    for t_value in t_values:
        dt = t_value - a_value
        row = []
        for values in columns:
            acc = 0.0
            for value in values:
                acc = acc * dt + value
            row.append(acc)
        rows.append(row)
    return rows


def initial_jet_bindings(sol: SeriesSolution, initial_exprs: list[Expr],
                         points: Sequence[Sequence[float]]
                         ) -> list[dict[Sym, float]]:
    """Bindings for eval_series from closed-form initial data, one per point.

    initial_exprs[k] is the initial function of field k in the space
    variables; every jet needed by the coefficients is derived symbolically
    once and evaluated at each point's space values.
    """
    problem = sol.problem
    needed: set[Sym] = set()
    for column in sol.coeffs:
        for coeff in column:
            needed |= jets_of(coeff)
    for k in range(problem.n_fields):
        needed.add(problem.jet_symbol(k))
    derive = jet_derivatives([_terms(e) for e in initial_exprs])
    derived = [(jsym, _build(derive(jsym))) for jsym in needed]
    binds = []
    for space_values in points:
        bind = {space_var(j): value for j, value in enumerate(space_values)}
        for jsym, e in derived:
            bind[jsym] = eval_num(e, bind)
        binds.append(bind)
    return binds


# ---------------------------------------------------------------------------
# Taylor extraction and the defining-equation residual
# ---------------------------------------------------------------------------

def taylor_coefficients(e: Expr, point: Expr, order: int) -> list[Expr]:
    """Exact coefficients of (t - point)^n, n = 0..order, for an expression
    in the time symbol.
    """
    return compose([normalize(e)], {TIME: [point, ONE]}, order)[0]


def residual_check(sol: SeriesSolution,
                   term_budget: int = DEFAULT_TERM_BUDGET) -> OrderCheck:
    """Verify the defining equation order by order.

    The residual d/dt(series) + F(t, x, series, jets-of-series) must have
    exactly-zero coefficients of (t-a)^n for n < sol.order.  Coefficient n
    is (n+1) U_{n+1} + [F(U)]_n, so the verdict starts at series order 1;
    an order-0 series raises ValueError.  A series is checked against
    another problem of the same shape as
    ``residual_check(dataclasses.replace(sol, problem=other))``.
    """
    problem = sol.problem
    mapped = {problem.jet_symbol(i): c for i, c in enumerate(sol.terms)}
    mapped[TIME] = [_terms(problem.initial_time), _terms(ONE)]
    forcings = compose_terms(problem.rhs, mapped, sol.order - 1,
                             term_budget=term_budget)
    return OrderCheck.of(
        problem.field_names, 1,
        [[f_n == _scaled(-(n + 1), sol.terms[i][n + 1])
          for n, f_n in enumerate(forcing)]
         for i, forcing in enumerate(forcings)],
        "residual zero through order {last} for fields {fields}",
        "residual nonzero for field {field} at series order {order}")


# ---------------------------------------------------------------------------
# Homomorphism check: series of G(c) versus G applied to the series
# ---------------------------------------------------------------------------

def check_homomorphism(sol: SeriesSolution, G: Expr, order: int,
                       term_budget: int = DEFAULT_TERM_BUDGET) -> OrderCheck:
    """Compare the Lie series seeded with G, stepped by A as one ``_derive``
    rule (t to -1, jet (k, alpha) to D_x^alpha F_k) and not by the solver's
    apply_generator, against G composed with the solved series and their
    jets, orders 0..order, as exact term dicts, in one verdict row labelled G.
    """
    if order > sol.order:
        raise ValueError(f"order {order} exceeds the series order {sol.order}")
    G = normalize(G)
    rates = jet_derivatives([_terms(e) for e in sol.problem.rhs])

    def rule(s: Sym) -> _Terms:
        return rates(s) if s.kind == SymbolKind.JET else (
            _terms(MINUS_ONE) if s == TIME else {})

    lhs = _lie_terms(lambda d: _derive(d, rule), _terms(G),
                     sol.problem.initial_time, order, term_budget)
    columns = {sol.problem.jet_symbol(i): c for i, c in enumerate(sol.terms)}
    rhs = compose_terms([G], columns, order, term_budget=term_budget)[0]
    return OrderCheck.of(
        ("G",), 0, [[l == r for l, r in zip(lhs, rhs)]],
        "homomorphism exact through order {last}",
        "homomorphism broken at order {order}")
