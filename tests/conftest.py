import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import pytest

from chronexp import (
    Add,
    Const,
    Expr,
    Func,
    Mul,
    Pow,
    SymbolKind,
    eval_num,
    jet,
    lie_coefficients,
    parse_problem,
)
from chronexp.expr import _derive, _terms

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name):
    return parse_problem((FIXTURES / f"{name}.json").read_text())


@pytest.fixture
def riccati():
    return load_fixture("riccati")


@pytest.fixture
def heat():
    return load_fixture("heat")


def perturbed(sol, field, order, delta):
    """sol with the rational delta added to coefficient ``order`` of field
    ``field``, the shape of a wrong solve.
    """
    terms = [list(column) for column in sol.terms]
    terms[field][order] = _terms(Add((sol.coeffs[field][order],
                                      Const(delta))))
    return dataclasses.replace(
        sol, terms=tuple(tuple(column) for column in terms))


def forgets_x(e, space_index):
    """lie.total_derivative without its x_j -> 1 rule, the shape of a wrong
    pde prolongation.
    """
    def rule(s):
        if s.kind != SymbolKind.JET:
            return {}
        up = tuple(k + 1 if i == space_index else k
                   for i, k in enumerate(s.orders))
        return _terms(jet(s.index, up))

    return _derive(e, rule)


@pytest.fixture
def broken_riccati():
    """The riccati series at order 5 with 1 added to its order-3
    coefficient.
    """
    sol = lie_coefficients(load_fixture("riccati"), 5)
    return perturbed(sol, 0, 3, Fraction(1))


def random_expr(rng: random.Random, symbols, depth: int = 3) -> Expr:
    """Random raw tree over the given symbols; polynomial-leaning so most
    samples normalize and evaluate without domain errors.
    """
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return Const(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
        return rng.choice(symbols)
    pick = rng.random()
    if pick < 0.35:
        n = rng.randint(2, 3)
        return Add(tuple(random_expr(rng, symbols, depth - 1)
                         for _ in range(n)))
    if pick < 0.7:
        n = rng.randint(2, 3)
        return Mul(tuple(random_expr(rng, symbols, depth - 1)
                         for _ in range(n)))
    if pick < 0.9:
        return Pow(random_expr(rng, symbols, depth - 1), rng.randint(2, 3))
    return Func(rng.choice(("sin", "cos", "exp")),
                random_expr(rng, symbols, depth - 1))


def random_bindings(rng: random.Random, symbols) -> dict:
    return {s: rng.uniform(0.2, 1.5) for s in symbols}


def eval_or_none(e: Expr, bindings) -> float | None:
    """None when the sample is numerically unusable (overflow, domain)."""
    try:
        v = eval_num(e, bindings)
    except (OverflowError, ZeroDivisionError):
        return None
    if v != v or abs(v) > 1e12:
        return None
    return v
