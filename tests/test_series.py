"""Truncated Taylor series: a differential test of ``series.compose``.

On random trees over t, one jet and one parameter, the series coefficients
must equal the reference d^n e/dt^n at t = a, divided by n!, computed here
by repeated differentiation.  When the jet is mapped, the reference first
substitutes the jet's polynomial in t - a into the tree.
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
    Func,
    INITIAL_TIME,
    Mul,
    ONE,
    Pow,
    Sym,
    TIME,
    diff,
    free_param,
    jet,
    normalize,
    subst,
)
from chronexp.expr import ELEMENTARY  # noqa: E402
from chronexp.series import compose  # noqa: E402

C = jet(0, ())
K = free_param("k")
ORDER = 3
POINTS = (Const(Fraction(0)), Const(Fraction(1, 2)), Sym(INITIAL_TIME))
# The jet's series when it is mapped: c + k*w + 1/2*w^2.
JET_SERIES = (Sym(C), Sym(K), Const(Fraction(1, 2)))

leaves = st.one_of(
    st.sampled_from([Sym(TIME), Sym(C), Sym(K)]),
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
        w = Add((Sym(TIME), Mul((Const(Fraction(-1)), point))))
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
@example(tree=Pow(Func("sqrt", Sym(TIME)), -1), point=POINTS[1],
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
        got = compose(e, mapped, ORDER)
    except DivisionByZero:
        # Taylor mode expands every subterm, so a subterm singular at a
        # numeric point ends it (sqrt(t) at 0 in (t*sqrt(t))^2) even where
        # repeated differentiation cancels the singularity.  At the
        # symbolic point no subterm vanishes.
        assert point != Sym(INITIAL_TIME)
        reject()
    assert got == want
