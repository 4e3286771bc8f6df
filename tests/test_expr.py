"""Expression kernel: canonical forms, exact arithmetic, derivation rules."""

import math
import random
from fractions import Fraction

import pytest

from chronexp import (
    Add,
    DivisionByZero,
    DomainError,
    Func,
    MINUS_ONE,
    Mul,
    NonPolynomialRhs,
    ONE,
    Pow,
    TIME,
    UnboundSymbol,
    UnsupportedFunction,
    ZERO,
    const,
    diff,
    eval_num,
    free_param,
    jet,
    normalize,
    subst,
    subst_many,
    term_count,
)

from chronexp.series import compose

from conftest import eval_or_none, random_bindings, random_expr

C = jet(0, ())
T = TIME
X = free_param("x")
Y = free_param("y")


def N(e):
    return normalize(e)


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------

class TestNormalize:
    def test_additive_identity(self):
        assert N(Add((X, ZERO))) == X

    def test_constant_folding_through_sum(self):
        e = Mul((const(2), Add((C, C))))
        assert N(e) == N(Mul((const(4), C)))

    def test_commutative_merge(self):
        cx = jet(0, (1,))
        left = Add((Mul((C, cx)), Mul((cx, C))))
        assert N(left) == N(Mul((const(2), C, cx)))

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(200):
            e = N(random_expr(rng, [C, T, X]))
            assert normalize(e) == e

    def test_preserves_value(self):
        rng = random.Random(11)
        kept = 0
        for _ in range(300):
            raw = random_expr(rng, [C, T, X])
            bind = random_bindings(rng, [C, T, X])
            before = eval_or_none(raw, bind)
            if before is None:
                continue
            after = eval_num(N(raw), bind)
            assert math.isclose(before, after, rel_tol=1e-9, abs_tol=1e-9)
            kept += 1
        assert kept > 150

    def test_difference_of_equal_polynomials_is_zero(self):
        lhs = Pow(Add((T, ONE)), 2)
        rhs = Add((Pow(T, 2), Mul((const(2), T)), ONE))
        assert N(Add((lhs, Mul((MINUS_ONE, rhs))))) == ZERO

    def test_pow_merges_with_base(self):
        assert N(Mul((T, T))) == Pow(T, 2)
        assert N(Mul((T, Pow(T, -1)))) == ONE

    def test_zero_exponent(self):
        assert N(Pow(Add((T, ONE)), 0)) == ONE

    def test_no_nested_sums_or_products(self):
        rng = random.Random(3)
        for _ in range(200):
            e = N(random_expr(rng, [C, T, X]))
            stack = [e]
            while stack:
                node = stack.pop()
                if isinstance(node, Add):
                    assert all(not isinstance(t, Add) for t in node.terms)
                    stack.extend(node.terms)
                elif isinstance(node, Mul):
                    assert all(not isinstance(f, Mul) for f in node.factors)
                    stack.extend(node.factors)
                elif isinstance(node, Pow):
                    assert node.exponent not in (0, 1)
                    stack.append(node.base)
                elif isinstance(node, Func):
                    stack.append(node.arg)

    def test_deterministic_child_order(self):
        a = N(Add((X, T, C)))
        b = N(Add((C, X, T)))
        assert a == b

    def test_rational_content_extracted_from_inverted_sums(self):
        two_c_plus_two = Add((Mul((const(2), C)), const(2)))
        c_plus_one = Add((C, ONE))
        lhs = N(Pow(two_c_plus_two, -2))
        rhs = N(Mul((const(Fraction(1, 4)), Pow(c_plus_one, -2))))
        assert lhs == rhs

    def test_sign_canonical_in_inverted_sums(self):
        minus = Add((Mul((MINUS_ONE, C)), MINUS_ONE))
        plus = Add((C, ONE))
        lhs = N(Pow(minus, -1))
        rhs = N(Mul((MINUS_ONE, Pow(plus, -1))))
        assert lhs == rhs

    def test_expand_positive_powers_of_sums(self):
        e = N(Pow(Add((C, T)), 3))
        assert isinstance(e, Add)
        assert term_count(e) == 4

    def test_division_by_zero_constant(self):
        with pytest.raises(DivisionByZero):
            N(Pow(ZERO, -1))
        with pytest.raises(DivisionByZero):
            N(Pow(Add((T, Mul((MINUS_ONE, T)))), -2))

    def test_function_argument_canonicalized(self):
        a = N(Func("sin", Add((T, C))))
        b = N(Func("sin", Add((C, T))))
        assert a == b

    def test_function_folding_at_special_points(self):
        assert N(Func("sin", ZERO)) == ZERO
        assert N(Func("cos", ZERO)) == ONE
        assert N(Func("exp", ZERO)) == ONE
        assert N(Func("ln", ONE)) == ZERO
        assert N(Func("sqrt", const(4))) == const(2)
        assert N(Func("sqrt", const(Fraction(1, 4)))) == const(Fraction(1, 2))

    def test_sqrt_of_non_square_stays_symbolic(self):
        e = N(Func("sqrt", const(2)))
        assert isinstance(e, Func)


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

class TestDiff:
    def test_power_rule(self):
        assert diff(Pow(C, 2), C) == N(Mul((const(2), C)))

    def test_bilinear_factor(self):
        assert diff(Mul((TIME, C)), TIME) == C

    def test_jet_coordinates_independent(self):
        cx = jet(0, (1,))
        assert diff(Mul((C, cx)), cx) == C
        assert diff(C, cx) == ZERO

    def test_linearity(self):
        rng = random.Random(23)
        for _ in range(100):
            e = random_expr(rng, [C, T, X])
            f = random_expr(rng, [C, T, X])
            lhs = diff(Add((e, f)), T)
            rhs = N(Add((diff(e, T), diff(f, T))))
            assert lhs == rhs

    def test_leibniz_rule(self):
        rng = random.Random(29)
        for _ in range(100):
            e = random_expr(rng, [C, T, X])
            f = random_expr(rng, [C, T, X])
            lhs = diff(Mul((e, f)), T)
            rhs = N(Add((Mul((diff(e, T), f)), Mul((e, diff(f, T))))))
            assert lhs == rhs

    def test_chain_rule(self):
        e = Func("sin", Pow(T, 2))
        expect = N(Mul((const(2), T, Func("cos", Pow(T, 2)))))
        assert diff(e, T) == expect

    def test_against_finite_differences(self):
        rng = random.Random(31)
        step = 1e-5
        checked = 0
        for _ in range(300):
            e = random_expr(rng, [C, T, X])
            bind = random_bindings(rng, [C, T, X])
            d = diff(e, T)
            exact = eval_or_none(d, bind)
            if exact is None or abs(exact) > 1e6:
                continue
            up = dict(bind)
            up[T] = bind[T] + step
            down = dict(bind)
            down[T] = bind[T] - step
            hi = eval_or_none(e, up)
            lo = eval_or_none(e, down)
            if hi is None or lo is None:
                continue
            approx = (hi - lo) / (2 * step)
            assert math.isclose(exact, approx, rel_tol=1e-6, abs_tol=1e-4)
            checked += 1
        assert checked > 150

    def test_sqrt_and_ln_rules(self):
        assert diff(Func("ln", X), X) == N(Pow(X, -1))
        d = diff(Func("sqrt", X), X)
        bind = {X: 2.3}
        assert math.isclose(eval_num(d, bind), 0.5 / math.sqrt(2.3),
                            rel_tol=1e-12)

    def test_unregistered_function(self):
        with pytest.raises(UnsupportedFunction):
            diff(Func("tanh", X), X)

    def test_function_name_is_checked_on_construction(self):
        with pytest.raises(UnsupportedFunction):
            Func("tanh", X)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

class TestSubst:
    def test_basic(self):
        from chronexp import INITIAL_TIME
        e = Mul((Pow(T, 2), C))
        assert subst(e, T, INITIAL_TIME) == \
            N(Mul((Pow(INITIAL_TIME, 2), C)))

    def test_zero_case(self):
        e = Add((C, Mul((MINUS_ONE, T, Pow(C, 2)))))
        assert subst(e, T, ZERO) == C

    def test_function_at_constant_folds(self):
        assert subst(Func("exp", T), T, ZERO) == ONE

    def test_simultaneous_swap(self):
        u, v = jet(0, ()), jet(1, ())
        e = Add((u, Mul((const(2), v))))
        swapped = subst_many(e, {u: v, v: u})
        assert swapped == N(Add((v, Mul((const(2), u)))))

    def test_composition_consistency_with_eval(self):
        rng = random.Random(37)
        checked = 0
        for _ in range(200):
            e = random_expr(rng, [C, T])
            inner = random_expr(rng, [X], depth=2)
            bind = random_bindings(rng, [C, X])
            inner_val = eval_or_none(inner, bind)
            if inner_val is None:
                continue
            direct = eval_or_none(e, {C: bind[C], T: inner_val})
            if direct is None:
                continue
            composed = eval_or_none(subst(e, T, inner), bind)
            if composed is None:
                continue
            assert math.isclose(direct, composed, rel_tol=1e-9, abs_tol=1e-9)
            checked += 1
        assert checked > 100


# ---------------------------------------------------------------------------
# Numeric evaluation
# ---------------------------------------------------------------------------

class TestEvalNum:
    def test_square(self):
        assert eval_num(Pow(C, 2), {C: 3.0}) == 9.0

    def test_sin_at_zero(self):
        assert eval_num(Func("sin", T), {T: 0.0}) == 0.0

    def test_jet_polynomial(self):
        cx, cxx = jet(0, (1,)), jet(0, (2,))
        e = Add((Mul((const(2), C, Pow(cx, 2))),
                 Mul((Pow(C, 2), cxx))))
        assert eval_num(e, {C: 1.0, cx: 2.0, cxx: -1.0}) == 7.0

    def test_unbound_symbol(self):
        with pytest.raises(UnboundSymbol):
            eval_num(C, {T: 1.0})

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            eval_num(Func("ln", X), {X: -1.0})
        with pytest.raises(DomainError):
            eval_num(Func("sqrt", X), {X: -4.0})
        with pytest.raises(DomainError):
            eval_num(Pow(X, -2), {X: 0.0})


# ---------------------------------------------------------------------------
# Polynomial coefficient extraction
# ---------------------------------------------------------------------------

def coefficients_in(e, sym):
    """Exact coefficients of e as a polynomial in sym: the untruncated
    series of e with sym -> 0 + 1*w.
    """
    return compose([N(e)], {sym: [ZERO, ONE]}, None)[0]


class TestCoefficientsIn:
    def test_quadratic(self):
        e = N(Add((Pow(T, 2), Mul((const(3), T, C)), ONE)))
        coeffs = coefficients_in(e, T)
        assert coeffs == [ONE, N(Mul((const(3), C))), ONE]

    def test_constant(self):
        assert coefficients_in(C, T) == [C]

    def test_rejects_function_of_variable(self):
        with pytest.raises(NonPolynomialRhs):
            coefficients_in(Func("sin", T), T)

    def test_rejects_negative_powers(self):
        with pytest.raises(NonPolynomialRhs):
            coefficients_in(N(Pow(T, -1)), T)

    def test_function_of_other_symbol_is_a_coefficient(self):
        e = N(Mul((T, Func("sin", X))))
        coeffs = coefficients_in(e, T)
        assert coeffs == [ZERO, N(Func("sin", X))]


# ---------------------------------------------------------------------------
# Exactness
# ---------------------------------------------------------------------------

def test_rational_arithmetic_is_exact():
    third = const(Fraction(1, 3))
    assert N(Mul((third, const(3)))) == ONE
    tenth = const(Fraction(1, 10))
    total = N(Add(tuple(tenth for _ in range(10))))
    assert total == ONE


def test_symbol_ordering_is_stable_across_kinds():
    from chronexp import INITIAL_TIME, space_var
    e = Mul((X, jet(0, (0,)), space_var(0), INITIAL_TIME, T))
    factors = N(e).factors
    kinds = [f.kind for f in factors]
    assert kinds == sorted(kinds)
