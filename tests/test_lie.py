"""Series construction by iterated derivation, and its internal checks."""

import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest

from chronexp import (
    Add,
    DomainError,
    ExpressionBlowup,
    Mul,
    Pow,
    TIME,
    UnboundSymbol,
    apply_generator,
    catalog,
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
    symbols_of,
    taylor_coefficients,
    total_derivative,
)
from chronexp.expr import _build, _terms
from chronexp.lie import jet_derivatives
from chronexp.series import compose_terms

from conftest import FIXTURES, load_fixture, perturbed, random_expr

ALL_FIXTURES = ["exponential", "riccati", "linear_time", "harmonic",
                "lotka_volterra", "transport", "heat", "burgers"]


def expect_coeffs(problem, texts):
    return [normalize(parse_expression(t, problem.context(max_jet_order=16)))
            for t in texts]


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

def rates_of(p):
    derived = jet_derivatives([_terms(e) for e in p.rhs])
    return lambda jsym: _build(derived(jsym))


class TestGenerator:
    def test_single_application(self):
        p = load_fixture("riccati")
        g = rates_of(p)
        c = jet(0, ())
        assert apply_generator(g, c) == normalize(Pow(c, 2))

    def test_explicit_time_dependence(self):
        p = load_fixture("riccati")
        g = rates_of(p)
        c = jet(0, ())
        e = normalize(Mul((TIME, c)))
        want = normalize(Add((Mul((TIME, Pow(c, 2))),
                              Mul((const(-1), c)))))
        assert apply_generator(g, e) == want

    def test_burgers_second_application(self):
        p = load_fixture("burgers")
        g = rates_of(p)
        once = apply_generator(g, jet(0, (0,)))
        assert once == normalize(parse_expression("c*c_x", p))
        twice = apply_generator(g, once)
        assert twice == normalize(
            parse_expression("2*c*c_x^2 + c^2*c_xx", p))

    def test_derivation_property(self):
        p = load_fixture("heat")
        g = rates_of(p)
        symbols = [TIME, jet(0, (0,)), jet(0, (1,)), jet(0, (2,))]
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
        g = rates_of(p)
        e = jet(0, ())
        for _ in range(4):
            e = apply_generator(g, e)
            assert all(s.orders == () for s in jets_of(e))

    def test_pde_prolongation_order_growth(self):
        p = load_fixture("heat")
        g = rates_of(p)
        e = jet(0, (0,))
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
        assert total_derivative(_terms(e), 0) == _terms(want)

    def test_explicit_space_dependence(self):
        x = space_var(0)
        c = jet(0, (0,))
        e = normalize(Mul((x, c)))
        want = normalize(Add((c, Mul((x, jet(0, (1,)))))))
        assert total_derivative(_terms(e), 0) == _terms(want)

    def test_chain_through_functions(self):
        x = space_var(0)
        from chronexp import Func
        assert total_derivative(_terms(Func("sin", x)), 0) == \
            _terms(Func("cos", x))

    def test_against_finite_differences(self):
        # Bind jets to derivatives of sin at x; D_x then equals d/dx of
        # the substituted profile.
        p = load_fixture("burgers")
        e = normalize(parse_expression("c*c_x + x*c_xx^2", p.context()))
        d = _build(total_derivative(_terms(e), 0))
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
        sol = lie_coefficients(riccati, 3)
        assert list(sol.coeffs[0]) == \
            expect_coeffs(riccati, ["c", "-c^2", "c^3", "-c^4"])

    def test_exponential_column(self):
        p = load_fixture("exponential")
        sol = lie_coefficients(p, 3)
        assert list(sol.coeffs[0]) == \
            expect_coeffs(p, ["c", "c", "1/2*c", "1/6*c"])

    def test_harmonic_columns(self):
        p = load_fixture("harmonic")
        sol = lie_coefficients(p, 3)
        assert list(sol.coeffs[0]) == \
            expect_coeffs(p, ["c1", "c2", "-1/2*c1", "-1/6*c2"])
        assert list(sol.coeffs[1]) == \
            expect_coeffs(p, ["c2", "-c1", "-1/2*c2", "1/6*c1"])

    def test_heat_column(self, heat):
        sol = lie_coefficients(heat, 2)
        assert list(sol.coeffs[0]) == \
            expect_coeffs(heat, ["c", "c_xx", "1/2*c_xxxx"])

    def test_nonautonomous_coefficients_keep_initial_time(self):
        p = load_fixture("linear_time")
        sol = lie_coefficients(p, 2)
        assert list(sol.coeffs[0]) == \
            expect_coeffs(p, ["c", "a*c", "1/2*a^2*c + 1/2*c"])

    def test_autonomous_expansion_point_drops_out(self, riccati):
        doc = json.loads((FIXTURES / "riccati.json").read_text())
        doc["time"]["initial"] = "a"
        shifted = parse_problem(json.dumps(doc))
        a = lie_coefficients(shifted, 4)
        b = lie_coefficients(riccati, 4)
        assert a.coeffs == b.coeffs

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_leading_coefficient_is_initial_data(self, name):
        p = load_fixture(name)
        sol = lie_coefficients(p, 2)
        for i in range(p.n_fields):
            assert sol.coeffs[i][0] == p.jet_symbol(i)

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_coefficients_free_of_time_symbols(self, name):
        p = load_fixture(name)
        sol = lie_coefficients(p, 3)
        for column in sol.coeffs:
            for coeff in column:
                assert TIME not in symbols_of(coeff)

    def test_term_budget_enforced(self):
        p = load_fixture("burgers")
        with pytest.raises(ExpressionBlowup):
            lie_coefficients(p, 4, term_budget=3)


class TestLoopTerms:
    """lie_coefficients hands the checks the loop's own term dicts.  They
    must be the dicts of the printed coefficients, so that the checks
    certify what the user sees.
    """

    @pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
    def test_terms_are_those_of_the_coefficients(self, entry):
        sol = lie_coefficients(entry.problem, 6)
        assert sol.terms == tuple(tuple(map(_terms, column))
                                  for column in sol.coeffs)

    def test_replaced_series_reads_its_own_coefficients(self, riccati):
        sol = lie_coefficients(riccati, 5)
        broken = perturbed(sol, 0, 3, Fraction(1))
        assert broken.terms[0][3] == _terms(broken.coeffs[0][3])
        assert broken.terms[0][3] != sol.terms[0][3]
        assert broken.terms[0][:3] == sol.terms[0][:3]

    def test_retargeted_series_keeps_its_term_dicts(self, riccati):
        flipped = parse_problem(
            (FIXTURES / "corrupt" / "riccati.json").read_text())
        sol = lie_coefficients(riccati, 4)
        assert dataclasses.replace(sol, problem=flipped).terms is sol.terms


class TestSeriesChecks:
    """A SeriesSolution rejects term dicts that cannot be a series of its
    problem.
    """

    @pytest.mark.parametrize("corrupt,message", [
        (lambda column: (column, column), "one coefficient column per field"),
        (lambda column: (column[:-1],), "column length mismatch"),
        (lambda column: ((_terms(const(2)),) + column[1:],),
         "order-0 coefficient must be the initial datum"),
        (lambda column: ((column[0], _terms(TIME)) + column[2:],),
         "must not contain t"),
    ], ids=["fields", "length", "order-0", "time"])
    def test_rejects(self, riccati, corrupt, message):
        sol = lie_coefficients(riccati, 3)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(sol, terms=corrupt(sol.terms[0]))


# ---------------------------------------------------------------------------
# Residual of the defining equation
# ---------------------------------------------------------------------------

class TestResidual:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_series_satisfies_its_equation(self, name):
        p = load_fixture(name)
        sol = lie_coefficients(p, 4)
        report = residual_check(sol)
        assert report.passed, report.summary()
        assert [len(row) for row in report.orders_equal] == [4] * p.n_fields
        assert report.failing_order is None

    def test_wrong_sign_fails_at_order_one(self, riccati):
        flipped = parse_problem(
            (FIXTURES / "corrupt" / "riccati.json").read_text())
        sol = lie_coefficients(flipped, 4)
        assert residual_check(sol).passed
        cross = residual_check(dataclasses.replace(sol, problem=riccati))
        assert not cross.passed
        assert cross.failing_order == 1
        assert cross.failing_field == "u"

    def test_order_zero_series_checks_nothing(self, riccati):
        # Its residual has no coefficient, so a verdict could only pass
        # vacuously.
        sol = lie_coefficients(riccati, 0)
        with pytest.raises(ValueError, match="no series coefficient"):
            residual_check(sol)

    def test_shape_mismatch_rejected(self, riccati):
        harmonic = load_fixture("harmonic")
        sol = lie_coefficients(riccati, 3)
        with pytest.raises(ValueError):
            residual_check(dataclasses.replace(sol, problem=harmonic))


# ---------------------------------------------------------------------------
# Numeric evaluation of the series
# ---------------------------------------------------------------------------

class TestEvalSeries:
    def test_riccati_near_exact(self, riccati):
        sol = lie_coefficients(riccati, 8)
        value = eval_series(sol, [0.1], {jet(0, ()): 1.0})[0][0]
        assert abs(value - 1.0 / 1.1) <= 1e-8

    def test_initial_time_returns_initial_data(self, riccati):
        sol = lie_coefficients(riccati, 6)
        assert eval_series(sol, [0.0], {jet(0, ()): 0.37})[0][0] == 0.37

    def test_heat_mode_solution(self, heat):
        sol = lie_coefficients(heat, 6)
        ic = [normalize(parse_expression("sin(x)", heat.context()))]
        bind = initial_jet_bindings(sol, ic, [[0.3]])[0]
        value = eval_series(sol, [0.05], bind)[0][0]
        assert abs(value - math.exp(-0.05) * math.sin(0.3)) <= 1e-10

    def test_heat_in_the_plane(self):
        # u_t = u_xx + u_yy from sin x sin y is e^(-2t) sin x sin y; the
        # jets c_xxyy and the like mix both space indices.
        p = parse_problem(json.dumps({
            "kind": "pde", "time": {"name": "t", "initial": "0"},
            "space": ["x", "y"], "fields": ["u"],
            "rhs": {"u": "-u_xx - u_yy"}}))
        sol = lie_coefficients(p, 8)
        ic = [normalize(parse_expression("sin(x)*sin(y)", p.context()))]
        points = [[0.3, 0.7], [1.1, -0.4]]
        for (x, y), bind in zip(points, initial_jet_bindings(sol, ic, points)):
            (value,), = eval_series(sol, [0.1], bind)
            assert abs(value - math.exp(-0.2) * math.sin(x) * math.sin(y)) \
                <= 1e-11

    def test_mixed_jet_in_the_plane(self):
        # u_t = -u_xy from sin(x + 2y) is e^(2t) sin(x + 2y); coefficient
        # n is a multiple of the mixed jet c_x..xy..y, n of each.
        p = parse_problem(json.dumps({
            "kind": "pde", "time": {"name": "t", "initial": "0"},
            "space": ["x", "y"], "fields": ["u"], "rhs": {"u": "u_xy"}}))
        sol = lie_coefficients(p, 8)
        assert residual_check(sol).detail == \
            "residual zero through order 7 for fields u"
        ic = [normalize(parse_expression("sin(x + 2*y)", p.context()))]
        points = [[0.3, 0.7], [1.1, -0.4]]
        for (x, y), bind in zip(points, initial_jet_bindings(sol, ic, points)):
            (value,), = eval_series(sol, [0.1], bind)
            assert abs(value - math.exp(0.2) * math.sin(x + 2 * y)) <= 1e-11

    def test_unbound_jet(self, riccati):
        sol = lie_coefficients(riccati, 4)
        with pytest.raises(UnboundSymbol):
            eval_series(sol, [0.1], {})

    def test_jet_bindings_from_initial_expression(self, heat):
        # The heat series only involves even derivatives; bindings cover
        # exactly the jets the coefficients use.
        sol = lie_coefficients(heat, 4)
        ic = [normalize(parse_expression("sin(x)", heat.context()))]
        bind = initial_jet_bindings(sol, ic, [[0.3]])[0]
        assert math.isclose(bind[jet(0, (0,))], math.sin(0.3))
        assert math.isclose(bind[jet(0, (2,))], -math.sin(0.3))
        assert math.isclose(bind[jet(0, (4,))], math.sin(0.3))
        assert jet(0, (1,)) not in bind

    def test_jet_bindings_odd_orders_for_burgers(self):
        p = load_fixture("burgers")
        sol = lie_coefficients(p, 2)
        ic = [normalize(parse_expression("sin(x)", p.context()))]
        bind = initial_jet_bindings(sol, ic, [[0.3]])[0]
        assert math.isclose(bind[jet(0, (1,))], math.cos(0.3))


def per_point_series(sol, t_value, initial_data):
    """The per-point evaluation that eval_series batches: every coefficient
    evaluated again at one time, Horner highest order first.
    """
    a_value = eval_num(sol.problem.initial_time, initial_data)
    dt = t_value - a_value
    out = []
    for column in sol.coeffs:
        acc = 0.0
        for coeff in reversed(column):
            acc = acc * dt + eval_num(coeff, initial_data)
        out.append(acc)
    return out


def per_point_bindings(sol, initial_exprs, space_values):
    """The per-point bindings that initial_jet_bindings batches: a fresh
    jet table derived and evaluated at one point.
    """
    bind = {space_var(j): v for j, v in enumerate(space_values)}
    needed = {sol.problem.jet_symbol(k) for k in range(sol.problem.n_fields)}
    for column in sol.coeffs:
        for coeff in column:
            needed |= jets_of(coeff)
    derive = jet_derivatives([_terms(e) for e in initial_exprs])
    for jsym in needed:
        bind[jsym] = eval_num(_build(derive(jsym)), bind)
    return bind


class TestBatchedEvaluation:
    """eval_series and initial_jet_bindings give, bit for bit, the floats of
    the per-point path they replace.
    """

    @pytest.mark.parametrize("name,data,a_value", [
        ("riccati", {"c": 0.7}, 0.0),
        ("harmonic", {"c1": 1.0, "c2": -0.4}, 0.0),
        ("linear_time", {"c": 1.3, "a": 0.25}, 0.25),
        ("lotka_volterra", {"c1": 1.2, "c2": 0.9}, 0.0),
    ])
    def test_ode_matches_per_point(self, name, data, a_value):
        p = load_fixture(name)
        sol = lie_coefficients(p, 8)
        names = p.context().names
        bind = {names[k]: v for k, v in data.items()}
        times = [a_value, a_value - 0.3, -0.45, 0.1, 0.7]
        rows = eval_series(sol, times, bind)
        assert rows == [per_point_series(sol, t, bind) for t in times]
        assert rows[0] == [bind[p.jet_symbol(k)] for k in range(p.n_fields)]

    @pytest.mark.parametrize("name,order", [
        ("heat", 8), ("transport", 8), ("burgers", 6), ("kdv", 4)])
    def test_pde_matches_per_point(self, name, order):
        p = load_fixture(name)
        sol = lie_coefficients(p, order)
        ic = [normalize(parse_expression("sin(x)", p.context()))]
        xs = [-1.0, 0.0, 0.3, 2.2]
        times = [0.0, -0.05, 0.1, 0.4]
        binds = initial_jet_bindings(sol, ic, [[x] for x in xs])
        assert binds == [per_point_bindings(sol, ic, [x]) for x in xs]
        for bind in binds:
            assert (eval_series(sol, times, bind)
                    == [per_point_series(sol, t, bind) for t in times])

    def test_missing_binding_still_raises(self):
        p = load_fixture("harmonic")
        sol = lie_coefficients(p, 4)
        with pytest.raises(UnboundSymbol):
            eval_series(sol, [0.1, 0.2], {p.jet_symbol(0): 1.0})

    def test_domain_error_at_one_point_still_raises(self, heat):
        sol = lie_coefficients(heat, 4)
        ic = [normalize(parse_expression("ln(x)", heat.context()))]
        with pytest.raises(DomainError):
            initial_jet_bindings(sol, ic, [[0.5], [-1.0]])


# ---------------------------------------------------------------------------
# Series of a function of the solution
# ---------------------------------------------------------------------------

class TestFunctionSeries:
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
        report = check_homomorphism(lie_coefficients(p, 5), G, 5)
        assert report.passed, report.__dict__
        assert report.orders_equal[0] == (True,) * 6

    def test_pde_homomorphism_small_order(self, heat):
        G = normalize(parse_expression("c*c_x", heat))
        report = check_homomorphism(lie_coefficients(heat, 3), G, 3)
        assert report.passed

    def test_homomorphism_reads_the_given_series(self, broken_riccati):
        G = normalize(parse_expression("c^2", broken_riccati.problem))
        report = check_homomorphism(broken_riccati, G, 5)
        assert not report.passed
        assert report.failing_order == 3
        assert report.summary() == "homomorphism broken at order 3"

    @pytest.mark.parametrize("budget,order", [(3, 2), (5, 3), (8, 4)])
    def test_term_budget_bounds_the_lie_side(self, budget, order):
        # A^n[c^2] carries powers of t that t = 1/2 folds away, so at these
        # budgets only the Lie side of the check overflows.
        p = parse_problem(json.dumps({
            "kind": "ode", "time": {"name": "t", "initial": "1/2"},
            "fields": ["u"], "rhs": {"u": "t^3*u + t^2"}}))
        sol = lie_coefficients(p, 4)
        G = normalize(parse_expression("c^2", p))
        compose_terms([G], {p.jet_symbol(0): sol.terms[0]}, 4,
                      term_budget=budget)
        with pytest.raises(ExpressionBlowup, match=(
                f"^series term at order {order} exceeds {budget} "
                "monomials$")):
            check_homomorphism(sol, G, 4, term_budget=budget)

    def test_homomorphism_order_above_series(self, riccati):
        G = normalize(parse_expression("c^2", riccati))
        with pytest.raises(ValueError):
            check_homomorphism(lie_coefficients(riccati, 3), G, 4)


class TestSharedJetTables:
    """residual_check and check_homomorphism derive the jet tables
    D_x^alpha C_{k,n} from the coefficients of the series they are given.
    """

    def test_replaced_series_derives_its_own(self):
        p = load_fixture("burgers")
        sol = lie_coefficients(p, 4)
        G = normalize(parse_expression("c*c_x", p))
        assert residual_check(sol).passed
        assert check_homomorphism(sol, G, 4).passed
        broken = perturbed(sol, 0, 3, Fraction(1))
        assert residual_check(broken).failing_order == 3
        assert check_homomorphism(broken, G, 4).failing_order == 3
        assert residual_check(sol).passed


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
