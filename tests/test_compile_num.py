"""The compiled numeric evaluator against its specification, ``eval_num``.

On random trees and bindings, ``compile_num`` must give the same floats bit
for bit (compared by ``float.hex``) and, where ``eval_num`` raises, the same
error: the same class and message.  The trees reach every error kind:
an unbound symbol, a constant past the double range, zero to a negative
power, ln and sqrt off their domain, overflowing powers and functions, and
inf - inf in a sum.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chronexp import (  # noqa: E402
    Add,
    Const,
    DomainError,
    Func,
    Mul,
    NonFiniteValue,
    Pow,
    TIME,
    UnboundSymbol,
    eval_num,
    free_param,
    jet,
)
from chronexp.expr import ELEMENTARY, compile_num  # noqa: E402

C = jet(0, ())
K = free_param("k")
UNBOUND = free_param("nowhere")
PARAMS = [TIME, C, K]

leaves = st.one_of(
    st.sampled_from([TIME, C, K, TIME, C, K, UNBOUND]),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).map(Const),
    st.sampled_from([Const(Fraction(10 ** 400)), Const(Fraction(1, 10 ** 400)),
                     Const(Fraction(0)), Const(Fraction(800)),
                     Const(Fraction(-800))]),
)
trees = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=3).map(lambda ts: Add(tuple(ts))),
        st.lists(kids, max_size=3).map(lambda fs: Mul(tuple(fs))),
        st.builds(Pow, kids, st.sampled_from([-3, -1, 0, 2, 3, 60])),
        st.builds(Func, st.sampled_from(sorted(ELEMENTARY)), kids),
    ),
    max_leaves=8,
)
values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.5, 0.5, 1e200, -1e300, 5e-324,
                     float("inf"), float("-inf"), float("nan")]),
    st.floats(min_value=-4.0, max_value=4.0),
    st.integers(-3, 3),     # eval_num reads a binding through float()
)
ERRORS = (DomainError, NonFiniteValue, UnboundSymbol)


def outcome(thunk):
    """The hex of every float returned, or the error's class and message."""
    try:
        return [v.hex() for v in thunk()]
    except ERRORS as exc:
        return type(exc), str(exc)


def specified(roots, params, args):
    bindings = dict(zip(params, args))
    return outcome(lambda: [eval_num(e, bindings) for e in roots])


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(roots=st.lists(trees, min_size=1, max_size=3),
       params=st.permutations(PARAMS),
       args=st.lists(values, min_size=3, max_size=3))
# inf - inf and an overflowing partial sum, then sin(inf) and exp overflow
@example(roots=[Add((TIME, C))], params=PARAMS,
         args=[float("inf"), float("-inf"), 0.0])
@example(roots=[Add((TIME, C, K))], params=PARAMS, args=[1e308, 1e308, -1e308])
@example(roots=[Func("sin", K)], params=PARAMS, args=[0.0, 1.0, float("inf")])
@example(roots=[Mul((C, Func("exp", TIME)))], params=PARAMS,
         args=[1e3, 2.0, 0.0])
def test_compiled_matches_eval_num(roots, params, args):
    compiled = compile_num(roots, params)
    assert outcome(lambda: compiled(*args)) == specified(roots, params, args)


def test_each_distinct_node_is_computed_once():
    shared = Func("sin", Add((C, K)))
    compiled = compile_num([Mul((shared, shared)), shared], [C, K])
    assert compiled.source.count("_func(") == 1
    assert compiled.source.count("_fsum(") == 1
    assert outcome(lambda: compiled(0.25, 2.0)) == \
        specified([Mul((shared, shared)), shared], [C, K], [0.25, 2.0])


def test_tree_deeper_than_the_parser_nests():
    # Python's parser refuses more than 200 nested parentheses; the
    # generated source is one assignment per node, so depth is no limit.
    e = C
    for i in range(300):
        e = (Add((e, K)), Mul((e, Const(Fraction(1, 2)))),
             Func("sin", e))[i % 3]
    compiled = compile_num([e], [C, K])
    for args in ([0.3, -1.25], [2.0, 0.0]):
        assert outcome(lambda: compiled(*args)) == \
            specified([e], [C, K], args)


def test_source_holds_no_input_text():
    secret = free_param("secret_weight")
    stray = free_param("stray_param")
    e = Add((Mul((Const(Fraction(987654321, 1234567)), secret)),
             Func("exp", Pow(TIME, 4)), Const(Fraction(10 ** 400)),
             Mul((stray, Const(Fraction(-55555))))))
    compiled = compile_num([e], [secret, TIME])
    for text in ("secret_weight", "stray_param", "987654321", "1234567",
                 "55555", "10000", "exp"):
        assert text not in compiled.source, text
    with pytest.raises(NonFiniteValue):
        compiled(1.0, 1.0)
    assert outcome(lambda: compile_num([e.terms[0]], [secret])(2.0)) == \
        specified([e.terms[0]], [secret], [2.0])
