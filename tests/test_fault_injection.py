"""Fault injection on the exact routes.

A rational added to one coefficient of a solved catalog series is the shape
of a wrong solve.  The residual must name exactly the perturbed field and
order, and so must the integral form on ode and system problems; the
homomorphism check must fail at that order.  A solver generator that
drops -d/dt fails the homomorphism check, which steps its own rule for A.
A wrong pde prolongation is caught by the numeric routes alone (see their
tests).
"""

import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chronexp import (  # noqa: E402
    Add,
    Mul,
    SymbolKind,
    catalog,
    check_homomorphism,
    chron_equiv_check,
    diff,
    eval_series,
    initial_jet_bindings,
    jet,
    jets_of,
    lie,
    lie_coefficients,
    normalize,
    parse_expression,
    parse_problem,
    residual_check,
)
from chronexp.cli import main  # noqa: E402
from chronexp.expr import _derive, _terms  # noqa: E402

from conftest import perturbed  # noqa: E402

ORDER = 4
SOLVED = {entry.name: lie_coefficients(entry.problem, ORDER)
          for entry in catalog()}


@st.composite
def faults(draw):
    """(series name, field, order >= 1, nonzero rational)."""
    name = draw(st.sampled_from(sorted(SOLVED)))
    field = draw(st.integers(0, SOLVED[name].problem.n_fields - 1))
    order = draw(st.integers(1, ORDER))
    delta = draw(st.fractions(min_value=-5, max_value=5, max_denominator=7)
                 .filter(bool))
    return name, field, order, delta


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fault=faults())
def test_every_exact_route_finds_the_fault(fault):
    name, field, order, delta = fault
    sol = SOLVED[name]
    p = sol.problem
    broken = perturbed(sol, field, order, delta)

    residual = residual_check(broken)
    assert (residual.failing_field, residual.failing_order) == (
        p.field_names[field], order)

    if p.kind in ("ode", "system"):
        equiv = chron_equiv_check(broken)
        assert (equiv.failing_field, equiv.failing_order) == (
            p.field_names[field], order)

    # G reads the perturbed field: c_k^2, or c_k * c_k,x for a pde.
    c = p.jet_symbol(field)
    G = normalize(Mul((c, p.jet_symbol(field, (1,)) if p.kind == "pde"
                       else c)))
    homomorphism = check_homomorphism(broken, G, ORDER)
    assert not homomorphism.passed
    assert homomorphism.failing_order == order


def forgets_time(rates, e):
    """lie.apply_generator without its -de/dt piece, still a derivation."""
    return normalize(Add(tuple(Mul((rates(jsym), diff(e, jsym)))
                               for jsym in jets_of(e))))


def test_generator_without_time_fails_the_homomorphism(capsys, monkeypatch):
    """A solver generator that forgets -d/dt is still a derivation, so the
    Lie series of G(c) it builds is G of the series it builds, wrong as
    both are.  The homomorphism check steps its own rule for A, so it
    fails on linear_time, whose rhs -t*u names t, at the first order where
    d/dt of the rhs enters.
    """
    monkeypatch.setattr(lie, "apply_generator", forgets_time)
    assert main(["verify", "--suite", "homomorphism"]) == 3
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL")]
    assert failed == [
        f"FAIL homomorphism [linear_time, G={g}]: "
        "homomorphism broken at order 2" for g in ("c^2", "c^3")]


def forgets_x(e, space_index):
    """lie.total_derivative without its x_j -> 1 rule."""
    def rule(s):
        if s.kind != SymbolKind.JET:
            return {}
        up = tuple(k + 1 if i == space_index else k
                   for i, k in enumerate(s.orders))
        return _terms(jet(s.index, up))

    return _derive(e, rule)


def test_wrong_prolongation_fails_the_reference_comparison(capsys,
                                                           monkeypatch):
    """A total derivative that forgets x_j -> 1 fails the catalog reference
    comparison on heat, transport and burgers.

    The exact routes stay green: the solve, the residual's jet series and
    both sides of the homomorphism check (its rule's rates D_x^alpha F and
    its compose side's jet series) all derive jets through the same
    lie.total_derivative, so they agree with each other however wrong it
    is (and no catalog pde rhs or coefficient has an explicit x).  Only
    the reference comparison sees the fault, because initial_jet_bindings
    derives the jets of the initial functions, sin(x) and the like, through
    it and the series is evaluated on the wrong initial data.
    """
    catalog()   # its closed forms are checked once, with the true rule
    monkeypatch.setattr(lie, "total_derivative", forgets_x)
    assert main(["verify", "--suite", "catalog"]) == 3
    assert main(["verify", "--suite", "homomorphism"]) == 0
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL")]
    assert [line.split(":")[0] for line in failed] == [
        f"FAIL reference comparison [{name}]"
        for name in ("transport", "heat", "burgers")]


EXPLICIT_X = {"kind": "pde", "time": {"name": "t", "initial": "0"},
              "space": ["x"], "fields": ["u"], "rhs": {"u": "x*u_x"}}


def explicit_x_errors_within_bound(order: int) -> bool:
    """Whether the order-``order`` series of du/dt + x u_x = 0 with
    u(0, x) = sin x is within |t|^(order+1) of sin(x e^-t) on a grid.
    """
    p = parse_problem(json.dumps(EXPLICIT_X))
    sol = lie_coefficients(p, order)
    xs, ts = (-1.3, 0.4, 2.0), (0.05, 0.1, -0.1, 0.2)
    binds = initial_jet_bindings(sol, [parse_expression("sin(x)", p)],
                                 [[x] for x in xs])
    return all(abs(value - math.sin(x * math.exp(-t))) <= abs(t) ** (order + 1)
               for x, bind in zip(xs, binds)
               for t, (value,) in zip(ts, eval_series(sol, ts, bind)))


def test_explicit_x_prolongation_matches_the_closed_form():
    assert explicit_x_errors_within_bound(6)


def test_wrong_prolongation_misses_the_explicit_x_closed_form(monkeypatch):
    """The rhs x*u_x names x, so its D_x needs x_j -> 1: under the rule
    that drops it both the generator and the initial jets go wrong.
    """
    monkeypatch.setattr(lie, "total_derivative", forgets_x)
    assert not explicit_x_errors_within_bound(6)
