"""Series construction by iterated derivation, and its internal checks."""

import json
import math
import random
from fractions import Fraction

import pytest

from chronexp import (
    AUX,
    Add,
    ExpressionBlowup,
    Mul,
    Pow,
    Sym,
    TIME,
    UnboundSymbol,
    apply_generator,
    apply_series_to_function,
    assemble_series,
    build_generator,
    check_homomorphism,
    const,
    eval_num,
    eval_series,
    initial_jet_bindings,
    jet,
    jets_of,
    lie_coefficients,
    normalize,
    parse_expression,
    parse_problem,
    residual_check,
    space_var,
    subst,
    symbols_of,
    taylor_coefficients,
    total_derivative,
)

from conftest import FIXTURES, load_fixture, random_expr

ALL_FIXTURES = ["exponential", "riccati", "linear_time", "harmonic",
                "lotka_volterra", "transport", "heat", "burgers"]


def expect_coeffs(problem, texts):
    return [normalize(parse_expression(t, problem.context(max_jet_order=16)))
            for t in texts]


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

class TestGenerator:
    def test_time_replaced_by_aux_in_rhs(self):
        p = load_fixture("linear_time")
        g = build_generator(p)
        assert g.substituted_rhs[0] == \
            normalize(Mul((const(-1), Sym(AUX), Sym(jet(0, ())))))
        assert TIME not in symbols_of(g.substituted_rhs[0])

    def test_single_application(self):
        p = load_fixture("riccati")
        g = build_generator(p)
        c = Sym(jet(0, ()))
        assert apply_generator(g, c) == normalize(Pow(c, 2))

    def test_explicit_aux_dependence(self):
        p = load_fixture("riccati")
        g = build_generator(p)
        c = Sym(jet(0, ()))
        e = normalize(Mul((Sym(AUX), c)))
        want = normalize(Add((Mul((Sym(AUX), Pow(c, 2))),
                              Mul((const(-1), c)))))
        assert apply_generator(g, e) == want

    def test_burgers_second_application(self):
        p = load_fixture("burgers")
        g = build_generator(p)
        once = apply_generator(g, Sym(jet(0, (0,))))
        assert once == normalize(parse_expression("c*c_x", p))
        twice = apply_generator(g, once)
        assert twice == normalize(
            parse_expression("2*c*c_x^2 + c^2*c_xx", p))

    def test_derivation_property(self):
        p = load_fixture("heat")
        g = build_generator(p)
        symbols = [AUX, jet(0, (0,)), jet(0, (1,)), jet(0, (2,))]
        rng = random.Random(53)
        for _ in range(60):
            e1 = normalize(random_expr(rng, symbols, depth=2))
            e2 = normalize(random_expr(rng, symbols, depth=2))
            lhs = apply_generator(g, normalize(Mul((e1, e2))))
            rhs = normalize(Add((Mul((apply_generator(g, e1), e2)),
                                 Mul((e1, apply_generator(g, e2))))))
            assert lhs == rhs

    def test_ode_generators_stay_in_zero_order_jets(self):
        p = load_fixture("lotka_volterra")
        g = build_generator(p)
        e = Sym(jet(0, ()))
        for _ in range(4):
            e = apply_generator(g, e)
            assert all(s.orders == () for s in jets_of(e))

    def test_pde_prolongation_order_growth(self):
        p = load_fixture("heat")
        g = build_generator(p)
        e = Sym(jet(0, (0,)))
        for n in range(1, 5):
            e = apply_generator(g, e)
            assert max(sum(s.orders) for s in jets_of(e)) == 2 * n


# ---------------------------------------------------------------------------
# Total derivative
# ---------------------------------------------------------------------------

class TestTotalDerivative:
    def test_product_of_jets(self):
        p = load_fixture("burgers")
        e = normalize(parse_expression("c*c_x", p))
        want = normalize(parse_expression("c_x^2 + c*c_xx", p))
        assert total_derivative(e, 0) == want

    def test_explicit_space_dependence(self):
        x = space_var(0)
        c = jet(0, (0,))
        e = normalize(Mul((Sym(x), Sym(c))))
        want = normalize(Add((Sym(c), Mul((Sym(x), Sym(jet(0, (1,))))))))
        assert total_derivative(e, 0) == want

    def test_chain_through_functions(self):
        x = space_var(0)
        from chronexp import Func
        assert total_derivative(normalize(Func("sin", Sym(x))), 0) == \
            normalize(Func("cos", Sym(x)))

    def test_against_finite_differences(self):
        # Bind jets to derivatives of sin at x; D_x then equals d/dx of
        # the substituted profile.
        p = load_fixture("burgers")
        e = normalize(parse_expression("c*c_x + x*c_xx^2", p.context()))
        d = total_derivative(e, 0)
        x = space_var(0)

        def profile(x0: float) -> dict:
            bind = {x: x0}
            for k, s in enumerate([jet(0, (j,)) for j in range(5)]):
                bind[s] = math.sin(x0 + k * math.pi / 2)
            return bind

        x0, h = 0.7, 1e-5
        exact = eval_num(d, profile(x0))
        approx = (eval_num(e, profile(x0 + h)) -
                  eval_num(e, profile(x0 - h))) / (2 * h)
        assert math.isclose(exact, approx, rel_tol=1e-6, abs_tol=1e-8)


# ---------------------------------------------------------------------------
# Coefficients
# ---------------------------------------------------------------------------

class TestLieCoefficients:
    def test_riccati_column(self, riccati):
        sol = lie_coefficients(build_generator(riccati), 3)
        assert list(sol.coeffs[0]) == \
            expect_coeffs(riccati, ["c", "-c^2", "c^3", "-c^4"])

    def test_exponential_column(self):
        p = load_fixture("exponential")
        sol = lie_coefficients(build_generator(p), 3)
        assert list(sol.coeffs[0]) == \
            expect_coeffs(p, ["c", "c", "1/2*c", "1/6*c"])

    def test_harmonic_columns(self):
        p = load_fixture("harmonic")
        sol = lie_coefficients(build_generator(p), 3)
        assert list(sol.coeffs[0]) == \
            expect_coeffs(p, ["c1", "c2", "-1/2*c1", "-1/6*c2"])
        assert list(sol.coeffs[1]) == \
            expect_coeffs(p, ["c2", "-c1", "-1/2*c2", "1/6*c1"])

    def test_heat_column(self, heat):
        sol = lie_coefficients(build_generator(heat), 2)
        assert list(sol.coeffs[0]) == \
            expect_coeffs(heat, ["c", "c_xx", "1/2*c_xxxx"])

    def test_nonautonomous_coefficients_keep_initial_time(self):
        p = load_fixture("linear_time")
        sol = lie_coefficients(build_generator(p), 2)
        assert list(sol.coeffs[0]) == \
            expect_coeffs(p, ["c", "a*c", "1/2*a^2*c + 1/2*c"])

    def test_autonomous_expansion_point_drops_out(self, riccati):
        doc = json.loads((FIXTURES / "riccati.json").read_text())
        doc["time"]["initial"] = "a"
        shifted = parse_problem(json.dumps(doc))
        a = lie_coefficients(build_generator(shifted), 4)
        b = lie_coefficients(build_generator(riccati), 4)
        assert a.coeffs == b.coeffs

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_leading_coefficient_is_initial_data(self, name):
        p = load_fixture(name)
        sol = lie_coefficients(build_generator(p), 2)
        for i in range(p.n_fields):
            assert sol.coeffs[i][0] == Sym(p.jet_symbol(i))

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_coefficients_free_of_time_symbols(self, name):
        p = load_fixture(name)
        sol = lie_coefficients(build_generator(p), 3)
        for column in sol.coeffs:
            for coeff in column:
                assert TIME not in symbols_of(coeff)
                assert AUX not in symbols_of(coeff)

    def test_term_budget_enforced(self):
        p = load_fixture("burgers")
        with pytest.raises(ExpressionBlowup):
            lie_coefficients(build_generator(p), 4, term_budget=3)


# ---------------------------------------------------------------------------
# Residual of the defining equation
# ---------------------------------------------------------------------------

class TestResidual:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_series_satisfies_its_equation(self, name):
        p = load_fixture(name)
        sol = lie_coefficients(build_generator(p), 4)
        report = residual_check(sol)
        assert report.passed, report.summary()
        assert report.checked_orders == 4
        assert report.failing_order is None

    def test_wrong_sign_fails_at_order_one(self, riccati):
        flipped = parse_problem(
            (FIXTURES / "corrupt" / "riccati.json").read_text())
        sol = lie_coefficients(build_generator(flipped), 4)
        assert residual_check(sol).passed
        cross = residual_check(sol, against=riccati)
        assert not cross.passed
        assert cross.failing_order == 1
        assert cross.failing_field == "u"

    def test_shape_mismatch_rejected(self, riccati):
        harmonic = load_fixture("harmonic")
        sol = lie_coefficients(build_generator(riccati), 3)
        with pytest.raises(ValueError):
            residual_check(sol, against=harmonic)


# ---------------------------------------------------------------------------
# Numeric evaluation of the series
# ---------------------------------------------------------------------------

class TestEvalSeries:
    def test_riccati_near_exact(self, riccati):
        sol = lie_coefficients(build_generator(riccati), 8)
        value = eval_series(sol, 0.1, {jet(0, ()): 1.0})[0]
        assert abs(value - 1.0 / 1.1) <= 1e-8

    def test_initial_time_returns_initial_data(self, riccati):
        sol = lie_coefficients(build_generator(riccati), 6)
        assert eval_series(sol, 0.0, {jet(0, ()): 0.37})[0] == 0.37

    def test_heat_mode_solution(self, heat):
        sol = lie_coefficients(build_generator(heat), 6)
        ic = [normalize(parse_expression("sin(x)", heat.context()))]
        bind = initial_jet_bindings(sol, ic, [0.3])
        value = eval_series(sol, 0.05, bind)[0]
        assert abs(value - math.exp(-0.05) * math.sin(0.3)) <= 1e-10

    def test_unbound_jet(self, riccati):
        sol = lie_coefficients(build_generator(riccati), 4)
        with pytest.raises(UnboundSymbol):
            eval_series(sol, 0.1, {})

    def test_jet_bindings_from_initial_expression(self, heat):
        # The heat series only involves even derivatives; bindings cover
        # exactly the jets the coefficients use.
        sol = lie_coefficients(build_generator(heat), 4)
        ic = [normalize(parse_expression("sin(x)", heat.context()))]
        bind = initial_jet_bindings(sol, ic, [0.3])
        assert math.isclose(bind[jet(0, (0,))], math.sin(0.3))
        assert math.isclose(bind[jet(0, (2,))], -math.sin(0.3))
        assert math.isclose(bind[jet(0, (4,))], math.sin(0.3))
        assert jet(0, (1,)) not in bind

    def test_jet_bindings_odd_orders_for_burgers(self):
        p = load_fixture("burgers")
        sol = lie_coefficients(build_generator(p), 2)
        ic = [normalize(parse_expression("sin(x)", p.context()))]
        bind = initial_jet_bindings(sol, ic, [0.3])
        assert math.isclose(bind[jet(0, (1,))], math.cos(0.3))


# ---------------------------------------------------------------------------
# Series of a function of the solution
# ---------------------------------------------------------------------------

class TestFunctionSeries:
    def test_square_on_linear_growth(self):
        p = load_fixture("exponential")
        g = build_generator(p)
        G = normalize(parse_expression("c^2", p))
        got = apply_series_to_function(g, G, 3)
        assert got == expect_coeffs(p, ["c^2", "2*c^2", "2*c^2", "4/3*c^2"])

    def test_seed_identity_reproduces_solution(self, riccati):
        g = build_generator(riccati)
        c = Sym(jet(0, ()))
        assert apply_series_to_function(g, c, 5) == \
            list(lie_coefficients(g, 5).coeffs[0])

    def test_cube_matches_cubed_series(self, riccati):
        g = build_generator(riccati)
        order = 5
        G = normalize(parse_expression("c^3", riccati))
        got = apply_series_to_function(g, G, order)
        poly = assemble_series(lie_coefficients(g, order), 0)
        cubed = normalize(Pow(poly, 3))
        want = taylor_coefficients(cubed, const(0), order)
        assert got == want

    @pytest.mark.parametrize("name,g_text", [
        ("exponential", "c^2"),
        ("riccati", "c^2"),
        ("riccati", "c^3"),
        ("harmonic", "c1^2"),
        ("lotka_volterra", "c1*c2"),
        ("heat", "c*c_x"),
        ("burgers", "c*c_x"),
    ])
    def test_homomorphism(self, name, g_text):
        p = load_fixture(name)
        G = normalize(parse_expression(g_text, p))
        report = check_homomorphism(build_generator(p), G, 5)
        assert report.passed, report.__dict__
        assert report.orders_equal == (True,) * 6

    def test_pde_homomorphism_small_order(self, heat):
        G = normalize(parse_expression("c*c_x", heat))
        report = check_homomorphism(build_generator(heat), G, 3)
        assert report.passed


# ---------------------------------------------------------------------------
# Taylor helper
# ---------------------------------------------------------------------------

class TestTaylorCoefficients:
    def test_polynomial(self, riccati):
        e = normalize(parse_expression("1 + 2*t + t^3", riccati.context()))
        got = taylor_coefficients(e, const(0), 4)
        assert got == expect_coeffs(riccati, ["1", "2", "0", "1", "0"])

    def test_function_fallback(self, riccati):
        e = normalize(parse_expression("sin(t)", riccati.context()))
        got = taylor_coefficients(e, const(0), 3)
        assert got == expect_coeffs(riccati, ["0", "1", "0", "-1/6"])

    def test_shifted_point(self, riccati):
        e = normalize(parse_expression("t^2", riccati.context()))
        got = taylor_coefficients(e, const(1), 2)
        assert got == expect_coeffs(riccati, ["1", "2", "1"])
