"""Truncated Taylor series: a differential test of ``series.compose``.

On random trees over t, one jet and one parameter, the series coefficients
must equal the reference d^n e/dt^n at t = a, divided by n!, computed here
by repeated differentiation.  When the jet is mapped, the reference first
substitutes the jet's polynomial in t - a into the tree.  ``compose`` works
in normalize's term form, so normalize must be idempotent on the same trees,
and several roots expanded in one call must equal one call per root.
"""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, reject, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chronexp import (  # noqa: E402
    Add,
    Const,
    DivisionByZero,
    DomainError,
    ExpressionBlowup,
    Func,
    INITIAL_TIME,
    Mul,
    ONE,
    OrderCheck,
    Pow,
    TIME,
    UnsupportedFunction,
    catalog,
    diff,
    free_param,
    jet,
    normalize,
    subst,
)
from chronexp.expr import ELEMENTARY, _terms  # noqa: E402
from chronexp.series import compose, compose_terms  # noqa: E402

from conftest import load_fixture  # noqa: E402

C = jet(0, ())
K = free_param("k")
ORDER = 3
POINTS = (Const(Fraction(0)), Const(Fraction(1, 2)), INITIAL_TIME)
# The jet's series when it is mapped: c + k*w + 1/2*w^2.
JET_SERIES = (C, K, Const(Fraction(1, 2)))

leaves = st.one_of(
    st.sampled_from([TIME, C, K]),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).map(Const),
)
trees = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=3).map(lambda ts: Add(tuple(ts))),
        st.lists(kids, min_size=2, max_size=3).map(lambda fs: Mul(tuple(fs))),
        st.builds(Pow, kids, st.sampled_from([-2, -1, 2, 3])),
        st.builds(Func, st.sampled_from(sorted(ELEMENTARY)), kids),
    ),
    max_leaves=6,
)


def reference(e, point, jet_mapped):
    """[d^n e/dt^n at t = point / n! for n = 0..ORDER]."""
    if jet_mapped:
        w = Add((TIME, Mul((Const(Fraction(-1)), point))))
        e = subst(e, C, Add(tuple(Mul((c, Pow(w, n)))
                                  for n, c in enumerate(JET_SERIES))))
    out = []
    for n in range(ORDER + 1):
        scale = Const(Fraction(1, math.factorial(n)))
        out.append(normalize(Mul((scale, subst(e, TIME, point)))))
        e = diff(e, TIME)
    return out


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tree=trees, point=st.sampled_from(POINTS), jet_mapped=st.booleans())
# A root node that reaches itself through f' while it is being built.
@example(tree=Pow(Func("sqrt", TIME), -1), point=POINTS[1],
         jet_mapped=False)
def test_matches_repeated_differentiation(tree, point, jet_mapped):
    try:
        e = normalize(tree)
        want = reference(e, point, jet_mapped)
    except (DivisionByZero, DomainError):
        reject()
    mapped = {TIME: [point, ONE]}
    if jet_mapped:
        mapped[C] = list(JET_SERIES)
    try:
        got, = compose([e], mapped, ORDER)
    except DivisionByZero:
        # Taylor mode expands every subterm, so a subterm singular at a
        # numeric point ends it (sqrt(t) at 0 in (t*sqrt(t))^2) even where
        # repeated differentiation cancels the singularity.  At the
        # symbolic point no subterm vanishes.
        assert point != INITIAL_TIME
        reject()
    assert got == want


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tree=trees)
# Nested reciprocals: a sum atom whose negative exponent turns positive.
@example(tree=Mul((Const(Fraction(2)),
                   Pow(Pow(Add((ONE, C)), -1), -1))))
@example(tree=Pow(Mul((Const(Fraction(3)), Pow(Add((ONE, C)), -2))),
                  -1))
def test_normalize_is_idempotent(tree):
    try:
        once = normalize(tree)
    except DivisionByZero:
        reject()
    assert normalize(once) == once


def test_reciprocal_of_a_reciprocal_sum_is_expanded():
    once = normalize(Mul((Const(Fraction(2)),
                          Pow(Pow(Add((ONE, C)), -1), -1))))
    assert once == normalize(Add((Const(Fraction(2)),
                                  Mul((Const(Fraction(2)), C)))))


ODE_PROBLEMS = {entry.name: entry.problem for entry in catalog()
                if entry.problem.kind in ("ode", "system")}
ODE_PROBLEMS["pendulum"] = load_fixture("pendulum")


@pytest.mark.parametrize("name", sorted(ODE_PROBLEMS))
def test_roots_in_one_call_match_one_call_each(name):
    # Every field's integral form u = c - int_a^t F dtau: one call over all
    # fields shares the coupled system's nodes, and must change nothing.
    problem = ODE_PROBLEMS[name]
    fields = {problem.jet_symbol(i): rhs for i, rhs in enumerate(problem.rhs)}
    mapped = {TIME: [problem.initial_time, ONE]}
    roots = list(fields) + list(problem.rhs)
    together = compose(roots, mapped, 6, fields)
    assert together == [compose([root], mapped, 6, fields)[0]
                        for root in roots]


def test_function_without_a_rule_is_unsupported():
    # diff and eval_num reject a name outside expr.ELEMENTARY the same way.
    with pytest.raises(UnsupportedFunction):
        compose([Func("tanh", TIME)], {TIME: [POINTS[0], ONE]}, ORDER)


def test_term_budget_bounds_every_node():
    # Each coefficient of sin(c + k + t) is one monomial, but its argument's
    # first, c + k + 1/2, has three.
    root = normalize(Func("sin", Add((C, K, TIME))))
    mapped = {TIME: [_terms(POINTS[1]), _terms(ONE)],
              C: [_terms(C), _terms(ONE)]}
    column, = compose_terms([root], mapped, 3, term_budget=3)
    assert max(len(c) for c in column) == 1
    with pytest.raises(ExpressionBlowup):
        compose_terms([root], mapped, 3, term_budget=2)


def test_order_check_fails_at_the_lowest_order_then_the_first_field():
    phrasings = ("through {last} for {fields}", "{field} at {order}")
    # v precedes u in the problem, and both first differ at order 2.
    check = OrderCheck.of(("v", "u"), 1, [[True, False], [True, False]],
                          *phrasings)
    assert (check.passed, check.failing_order, check.failing_field) == (
        False, 2, "v")
    assert check.summary() == "v at 2"
    check = OrderCheck.of(("v", "u"), 1, [[True, True], [False, True]],
                          *phrasings)
    assert (check.failing_order, check.failing_field) == (1, "u")
    check = OrderCheck.of(("v", "u"), 1, [[True, True], [True, True]],
                          *phrasings)
    assert check.passed and check.failing_order is None
    assert check.summary() == "through 1 for v, u"
