"""The term-form derivation behind ``diff`` and ``total_derivative``.

Differential tests on random trees over every elementary function and
negative powers of sums: ``diff`` must equal the normalized tree-walking
derivative it replaced, kept here as the reference; ``total_derivative``
must equal the per-jet prolongation formula; the tree-facing ``compose``
must equal its term-form core.  sympy, where installed, differentiates
polynomial and rational trees independently, read back from rendered text.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, reject, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chronexp import (  # noqa: E402
    Add,
    Const,
    DivisionByZero,
    Func,
    Mul,
    ONE,
    Pow,
    Sym,
    TIME,
    build_context,
    diff,
    free_param,
    jet,
    jets_of,
    normalize,
    parse_expression,
    space_var,
    total_derivative,
)
from chronexp.expr import ELEMENTARY, _build, _terms  # noqa: E402
from chronexp.render import format_expr  # noqa: E402
from chronexp.series import compose, compose_terms  # noqa: E402

X = space_var(0)
K = free_param("k")
JETS = (jet(0, (0,)), jet(0, (1,)), jet(0, (2,)))
SYMBOLS = (TIME, X, K) + JETS
CONTEXT = build_context("t", ("u",), ("x",), ("k",))
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None, suppress_health_check=[HealthCheck.too_slow])


def old_diff(e, sym):
    """The tree-walking derivative that diff replaced: product, power and
    chain rules on the raw tree, normalized once at the end.
    """
    if isinstance(e, Const):
        return Const(Fraction(0))
    if isinstance(e, Sym):
        return ONE if e == sym else Const(Fraction(0))
    if isinstance(e, Add):
        return Add(tuple(old_diff(t, sym) for t in e.terms))
    if isinstance(e, Mul):
        return Add(tuple(
            Mul((old_diff(f, sym), *e.factors[:i], *e.factors[i + 1:]))
            for i, f in enumerate(e.factors)))
    if isinstance(e, Pow):
        return Mul((Const(Fraction(e.exponent)), Pow(e.base, e.exponent - 1),
                    old_diff(e.base, sym)))
    return Mul((ELEMENTARY[e.name].derivative(e.arg), old_diff(e.arg, sym)))


def tree_strategy(functions, exponents):
    leaves = st.one_of(
        st.sampled_from(SYMBOLS),
        st.fractions(min_value=-3, max_value=3, max_denominator=4).map(Const),
    )
    branches = [
        lambda kids: st.lists(kids, min_size=2, max_size=3).map(
            lambda ts: Add(tuple(ts))),
        lambda kids: st.lists(kids, min_size=2, max_size=3).map(
            lambda fs: Mul(tuple(fs))),
        # Negative exponents of a sum make the sum an atom.
        lambda kids: st.builds(Pow, kids, st.sampled_from(exponents)),
    ]
    if functions:
        branches.append(lambda kids: st.builds(
            Func, st.sampled_from(functions), kids))
    return st.recursive(
        leaves, lambda kids: st.one_of(*(b(kids) for b in branches)),
        max_leaves=7)


trees = tree_strategy(sorted(ELEMENTARY), [-2, -1, 2, 3])
polynomials = tree_strategy((), [2, 3])
rationals = tree_strategy((), [-2, -1, 2, 3])


def canonical(tree):
    try:
        return normalize(tree)
    except DivisionByZero:
        reject()


@SETTINGS
@given(tree=trees, sym=st.sampled_from(SYMBOLS))
def test_diff_matches_the_tree_walking_derivative(tree, sym):
    canonical(tree)
    try:
        want = normalize(old_diff(tree, sym))
    except DivisionByZero:
        reject()
    assert diff(tree, sym) == want


def bumped(jsym):
    return jet(jsym.index, tuple(k + 1 for k in jsym.orders))


@SETTINGS
@given(tree=trees)
def test_total_derivative_matches_the_per_jet_formula(tree):
    e = canonical(tree)
    try:
        want = normalize(Add((old_diff(e, X), *(
            Mul((bumped(jsym), old_diff(e, jsym))) for jsym in jets_of(e)))))
    except DivisionByZero:
        reject()
    assert total_derivative(_terms(e), 0) == _terms(want)


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tree=trees)
def test_compose_is_its_term_form_core_on_trees(tree):
    e = canonical(tree)
    mapped = {TIME: [Const(Fraction(1, 2)), ONE],
              JETS[0]: [JETS[0], K, Const(Fraction(-1, 3))]}
    terms = {s: [_terms(c) for c in coeffs] for s, coeffs in mapped.items()}
    try:
        got = compose([e], mapped, 3)
    except DivisionByZero:
        reject()
    assert got == [[_build(c) for c in column]
                   for column in compose_terms([e], terms, 3)]


def sympy_of(e, sympy):
    names = {format_expr(s): sympy.Symbol(format_expr(s)) for s in SYMBOLS}
    return sympy.parse_expr(format_expr(e).replace("^", "**"),
                            local_dict=names)


@pytest.mark.parametrize("kind", ["polynomial", "rational"])
def test_diff_agrees_with_sympy(kind):
    sympy = pytest.importorskip("sympy")

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(tree=polynomials if kind == "polynomial" else rationals,
           sym=st.sampled_from(SYMBOLS))
    def check(tree, sym):
        e = parse_expression(format_expr(canonical(tree)), CONTEXT)
        got = sympy_of(diff(e, sym), sympy)
        want = sympy.diff(sympy_of(e, sympy), sympy.Symbol(format_expr(sym)))
        assert sympy.cancel(got - want) == 0

    check()
