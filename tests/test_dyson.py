"""Oracles for the ordered-exponential side: Picard iteration and the
matrix product integral with its inverse identity.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from chronexp import (
    ExpressionBlowup,
    MatrixPath,
    NonFiniteValue,
    NonPolynomialRhs,
    ONE,
    TIME,
    airy_path,
    check_inverse_identity,
    chron_equiv_check,
    cli,
    dyson,
    lie_coefficients,
    matrix_texp,
    normalize,
    parse_expression,
    parse_problem,
    picard_iterate,
    random_path,
    rk4_solve,
    taylor_coefficients,
    texp_self_convergence,
)
from chronexp.dyson import ConvergenceReport
from chronexp.series import compose

from conftest import load_fixture, perturbed

POLYNOMIAL_FIXTURES = ["exponential", "riccati", "linear_time", "harmonic",
                       "lotka_volterra"]
PDE_FIXTURES = ["transport", "heat", "burgers", "kdv"]


def expect(problem, text):
    return normalize(parse_expression(text, problem.context()))


def solve(problem, order):
    return lie_coefficients(problem, order)


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------

class TestPicard:
    def test_seed(self, riccati):
        it = picard_iterate(riccati, 0)
        assert it[0] == expect(riccati, "c")

    def test_one_integration(self, riccati):
        it = picard_iterate(riccati, 1)
        assert it[0] == expect(riccati, "c - t*c^2")

    def test_two_integrations_overshoot_term(self, riccati):
        # The order-3 term is an artifact of iteration 2; only orders
        # up to k are final.
        it = picard_iterate(riccati, 2)
        assert it[0] == \
            expect(riccati, "c - t*c^2 + t^2*c^3 - 1/3*t^3*c^4")

    def test_symbolic_expansion_point(self):
        p = load_fixture("linear_time")
        it = picard_iterate(p, 1)
        want = expect(p, "c + 1/2*t^2*c - 1/2*a^2*c")
        assert it[0] == want

    @pytest.mark.parametrize("name", POLYNOMIAL_FIXTURES)
    def test_order_agreement_between_iterates(self, name):
        p = load_fixture(name)
        k = 3
        lo = picard_iterate(p, k)
        hi = picard_iterate(p, k + 1)
        for i in range(p.n_fields):
            a = taylor_coefficients(lo[i], p.initial_time, k)
            b = taylor_coefficients(hi[i], p.initial_time, k)
            assert a == b

    @pytest.mark.parametrize("name", POLYNOMIAL_FIXTURES)
    def test_agreement_with_derivation_series(self, name):
        p = load_fixture(name)
        k = 4
        it = picard_iterate(p, k)
        sol = lie_coefficients(p, k)
        for i in range(p.n_fields):
            got = taylor_coefficients(it[i], p.initial_time, k)
            assert got == list(sol.coeffs[i])

    @pytest.mark.parametrize("name", POLYNOMIAL_FIXTURES)
    def test_fixed_point_matches_iterate(self, name):
        # Each field as the fixed point u = c - int_a^t F(tau, u): its orders
        # 0..k are those of the k-th iterate.
        p = load_fixture(name)
        k = 4
        a = p.initial_time
        fields = {p.jet_symbol(i): rhs for i, rhs in enumerate(p.rhs)}
        it = picard_iterate(p, k)
        for i, c in enumerate(fields):
            got, = compose([c], {TIME: [a, ONE]}, k, fields)
            assert got == taylor_coefficients(it[i], a, k)

    @pytest.mark.parametrize("name,k", [("heat", 1), ("heat", 3),
                                        ("burgers", 3)])
    def test_pde_iterate_matches_the_series(self, name, k):
        # The jets of each iterate are D_x of its coefficients: u_xx of
        # c - t*c_xx is c_xx - t*c_xxxx.
        p = load_fixture(name)
        it = picard_iterate(p, k)
        got = taylor_coefficients(it[0], p.initial_time, k)
        assert got == list(lie_coefficients(p, k).coeffs[0])

    def test_rejects_transcendental_rhs(self):
        doc = {"kind": "ode", "time": {"name": "t", "initial": "0"},
               "fields": ["u"], "rhs": {"u": "sin(u)"}, "order": 4}
        p = parse_problem(json.dumps(doc))
        with pytest.raises(NonPolynomialRhs):
            picard_iterate(p, 2)

    def test_rejects_rational_rhs(self):
        doc = {"kind": "ode", "time": {"name": "t", "initial": "0"},
               "fields": ["u"], "rhs": {"u": "1/u"}, "order": 4}
        p = parse_problem(json.dumps(doc))
        with pytest.raises(NonPolynomialRhs):
            picard_iterate(p, 2)


# ---------------------------------------------------------------------------
# Equivalence of the two series constructions
# ---------------------------------------------------------------------------

class TestChronEquiv:
    @pytest.mark.parametrize("name", POLYNOMIAL_FIXTURES)
    def test_polynomial_catalog(self, name):
        p = load_fixture(name)
        report = chron_equiv_check(solve(p, 6))
        assert report.passed, report.__dict__
        assert report.failing_field is None
        for column in report.orders_equal:
            assert column == (True,) * 7

    @pytest.mark.parametrize("rhs,initial", [
        ("1/u", "0"),
        ("exp(t*u) + sqrt(u) - ln(u)", "a"),
    ])
    def test_non_polynomial_rhs(self, rhs, initial):
        # The truncated Picard route expands these through the series
        # recurrences; untruncated picard_iterate still rejects them.
        doc = {"kind": "ode", "time": {"name": "t", "initial": initial},
               "fields": ["u"], "rhs": {"u": rhs}, "order": 5}
        report = chron_equiv_check(solve(parse_problem(json.dumps(doc)), 5))
        assert report.passed, report.__dict__
        assert report.orders_equal == ((True,) * 6,)

    def test_pendulum(self):
        # sin(u): the sin/cos pair expands one coefficient at a time.
        report = chron_equiv_check(solve(load_fixture("pendulum"), 5))
        assert report.passed, report.__dict__
        assert report.orders_equal == ((True,) * 6,)

    @pytest.mark.parametrize("name", PDE_FIXTURES)
    def test_pde_catalog(self, name):
        # Each derivative jet of the fixed point is D_x of the jet one
        # order lower, coefficient by coefficient.
        report = chron_equiv_check(solve(load_fixture(name), 4))
        assert report.passed, report.__dict__
        assert report.orders_equal == ((True,) * 5,)

    @pytest.mark.parametrize("name", PDE_FIXTURES)
    def test_names_a_corrupted_pde_coefficient(self, name):
        broken = perturbed(solve(load_fixture(name), 4), 0, 3,
                           Fraction(1, 7))
        report = chron_equiv_check(broken)
        assert (report.failing_field, report.failing_order) == ("u", 3)
        assert report.orders_equal == ((True,) * 3 + (False, True),)

    def test_detects_tampered_series(self, riccati):
        # Flip the rhs sign: both constructions track the flipped
        # problem, so they still agree with each other.
        flipped = load_fixture("corrupt/riccati")
        assert chron_equiv_check(solve(flipped, 4)).passed

    def test_reports_first_wrong_coefficient(self, broken_riccati):
        report = chron_equiv_check(broken_riccati)
        assert not report.passed
        assert report.failing_order == 3
        assert report.failing_field == "u"
        # Picard never reads the series, so only order 3 differs.
        assert report.orders_equal == ((True,) * 3 + (False,) + (True,) * 2,)
        assert report.summary() == "series disagree for field u at order 3"

    def test_reports_wrong_coefficient_of_second_field(self):
        p = load_fixture("lotka_volterra")
        sol = solve(p, 6)
        broken = perturbed(sol, 1, 4, Fraction(1))
        report = chron_equiv_check(broken)
        assert p.field_names[1] == "v"
        assert (report.failing_field, report.failing_order) == ("v", 4)
        assert report.orders_equal == (
            (True,) * 7, (True,) * 4 + (False,) + (True,) * 2)

    def test_term_budget_bounds_picard_coefficients(self):
        # The largest coefficient through order 8 has 37 monomials.
        sol = solve(load_fixture("lotka_volterra"), 8)
        with pytest.raises(ExpressionBlowup):
            chron_equiv_check(sol, term_budget=10)
        assert chron_equiv_check(sol, term_budget=37).passed


# ---------------------------------------------------------------------------
# Matrix product integrals
# ---------------------------------------------------------------------------

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]])


def nilpotent_path(steps=7):
    return MatrixPath(dimension=2, start=0.0, end=1.0, steps=steps,
                      sampler=lambda tau: NILPOTENT)


class TestMatrixTexp:
    def test_nilpotent_is_exact_for_any_step_count(self):
        from chronexp.dyson import matrix_texp, matrix_texp_inverse
        for steps in (1, 3, 10, 57):
            e = matrix_texp(nilpotent_path(steps))
            assert np.max(np.abs(e - [[1, 1], [0, 1]])) <= 1e-12
            inv = matrix_texp_inverse(nilpotent_path(steps))
            assert np.max(np.abs(inv - [[1, -1], [0, 1]])) <= 1e-12

    def test_zero_generator_gives_identity(self):
        from chronexp.dyson import matrix_texp
        path = MatrixPath(dimension=3, start=0.0, end=2.0, steps=5,
                          sampler=lambda tau: np.zeros((3, 3)))
        assert np.array_equal(matrix_texp(path), np.eye(3))

    def test_empty_path_is_identity(self):
        from chronexp.dyson import matrix_texp, matrix_texp_inverse
        path = MatrixPath(dimension=2, start=0.5, end=0.5, steps=1,
                          sampler=lambda tau: NILPOTENT)
        assert np.array_equal(matrix_texp(path), np.eye(2))
        assert np.array_equal(matrix_texp_inverse(path), np.eye(2))

    def test_single_step_matches_rotation(self):
        from chronexp.dyson import matrix_texp
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        theta = 0.8
        path = MatrixPath(dimension=2, start=0.0, end=theta, steps=1,
                          sampler=lambda tau: rot)
        want = np.array([[math.cos(theta), math.sin(theta)],
                         [-math.sin(theta), math.cos(theta)]])
        assert np.max(np.abs(matrix_texp(path) - want)) <= 1e-13

    def test_airy_columns_against_rk4(self):
        # E' = L(t) E columnwise; compare the product integral with the
        # matrix system integrated as a 4-field ode system.
        from chronexp.dyson import matrix_texp
        path = airy_path(start=0.0, end=1.0, h=1e-3)
        e = matrix_texp(path)
        doc = {"kind": "system", "time": {"name": "t", "initial": "0"},
               "fields": ["p", "q"],
               "rhs": {"p": "-q", "q": "t*p"}, "order": 2}
        p = parse_problem(json.dumps(doc))
        for col, (p0, q0) in enumerate([(1.0, 0.0), (0.0, 1.0)]):
            vals = rk4_solve(p, (p0, q0), 1.0, steps=4000)
            assert abs(e[0, col] - vals[0]) <= 1e-5
            assert abs(e[1, col] - vals[1]) <= 1e-5

    def test_inverse_derivative_residual(self):
        # d(E_inv)/dt = -E_inv L(t), checked by central differences in
        # the path endpoint.
        from chronexp.dyson import matrix_texp_inverse

        def inv_at(t_end):
            return matrix_texp_inverse(airy_path(start=0.0, end=t_end,
                                                 h=1e-3))

        t, dt = 0.9, 1e-3
        deriv = (inv_at(t + dt) - inv_at(t - dt)) / (2 * dt)
        body = -inv_at(t) @ np.array([[0.0, 1.0], [-t, 0.0]])
        assert np.max(np.abs(deriv - body)) <= 1e-4

    # The norm-overflow row is finite, but its sum is not.
    @pytest.mark.parametrize("bad", [(math.nan, 0.0), (math.inf, 0.0),
                                     (1e308, 1e308)],
                             ids=["nan", "inf", "norm-overflow"])
    @pytest.mark.parametrize("product", ["matrix_texp", "matrix_texp_inverse"])
    def test_non_finite_generator_names_its_midpoint(self, bad, product):
        def sampler(tau):
            return np.array([[0.0, 1.0], [-tau, 0.0]] if tau < 2.0
                            else [[0.0, 1.0], bad])

        path = MatrixPath(dimension=2, start=0.0, end=4.0, steps=4,
                          sampler=sampler)
        with pytest.raises(NonFiniteValue, match=r"tau = 2\.5$"):
            getattr(dyson, product)(path)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            MatrixPath(dimension=17, start=0.0, end=1.0, steps=2,
                       sampler=lambda tau: np.eye(17))

    def test_step_and_order_validation(self):
        with pytest.raises(ValueError):
            MatrixPath(dimension=2, start=0.0, end=1.0, steps=0,
                       sampler=lambda tau: NILPOTENT)
        with pytest.raises(ValueError):
            MatrixPath(dimension=2, start=1.0, end=0.0, steps=2,
                       sampler=lambda tau: NILPOTENT)


class TestInverseIdentity:
    def test_zero_generator_is_exact(self):
        path = MatrixPath(dimension=2, start=0.0, end=1.0, steps=9,
                          sampler=lambda tau: np.zeros((2, 2)))
        report = check_inverse_identity(path)
        assert report.norm == 0.0

    def test_airy(self):
        report = check_inverse_identity(airy_path(h=1e-2), 1e-12)
        assert report.passed
        assert report.norm <= 1e-12

    def test_random_smooth_path(self):
        report = check_inverse_identity(random_path(seed=0, h=1e-2), 1e-11)
        assert report.passed

    def test_seed_changes_path_but_not_identity(self):
        a = check_inverse_identity(random_path(seed=1, h=1e-2), 1e-11)
        b = check_inverse_identity(random_path(seed=2, h=1e-2), 1e-11)
        assert a.passed and b.passed
        one, two = (random_path(seed=s).sampler(0.5) for s in (1, 2))
        assert not np.array_equal(one, two)
        assert np.array_equal(one, random_path(seed=1).sampler(0.5))

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            random_path(seed=-1)

    def test_holds_even_for_coarse_grids(self):
        # Telescoping is exact per factor, independent of accuracy in h.
        report = check_inverse_identity(airy_path(h=0.25), 1e-12)
        assert report.passed


def recomputed_convergence(sampler, dimension, start, end, step_sizes):
    """texp_self_convergence with both products of every step size
    computed afresh.
    """
    used, errors = [], []
    for h in step_sizes:
        steps = max(1, round((end - start) / h))
        coarse = matrix_texp(MatrixPath(dimension, start, end, steps, sampler))
        fine = matrix_texp(MatrixPath(dimension, start, end, 2 * steps,
                                      sampler))
        used.append((end - start) / steps)
        errors.append(float(np.linalg.norm(coarse - fine, np.inf)))
    slope = float(np.polyfit(np.log(used), np.log(errors), 1)[0])
    return ConvergenceReport(tuple(used), tuple(errors), slope)


class TestSelfConvergence:
    def test_each_step_count_computed_once(self, monkeypatch):
        # The fine grids of 1e-1, 2e-2, 1e-2 and 2e-3 are the coarse grids
        # of 5e-2, 1e-2, 5e-3 and 1e-3: 10 distinct products, not 14.
        steps = []

        def counted(path):
            steps.append(path.steps)
            return matrix_texp(path)

        monkeypatch.setattr(dyson, "matrix_texp", counted)
        sampler = airy_path().sampler
        report = texp_self_convergence(sampler, 2, 0.0, 1.0,
                                       list(cli.CONVERGENCE_STEPS))
        monkeypatch.undo()
        assert len(steps) == 10
        assert len(set(steps)) == 10
        assert report == recomputed_convergence(
            sampler, 2, 0.0, 1.0, list(cli.CONVERGENCE_STEPS))

    def test_midpoint_order_two(self):
        path = airy_path()
        report = texp_self_convergence(
            path.sampler, 2, 0.0, 1.0,
            [1e-1, 5e-2, 2e-2, 1e-2, 5e-3, 2e-3, 1e-3])
        assert abs(report.slope - 2.0) <= 0.3
        assert list(report.step_sizes) == \
            [1e-1, 5e-2, 2e-2, 1e-2, 5e-3, 2e-3, 1e-3]
        assert all(e > 0 for e in report.errors)
