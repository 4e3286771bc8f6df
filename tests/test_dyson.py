"""Oracles for the ordered-exponential side: Picard iteration and the
matrix product integral with its inverse identity.
"""

import json
import math

import numpy as np
import pytest

from chronexp import (
    MatrixPath,
    NonPolynomialRhs,
    airy_path,
    assemble_series,
    build_generator,
    check_inverse_identity,
    chron_equiv_check,
    const,
    lie_coefficients,
    normalize,
    parse_expression,
    parse_problem,
    picard_iterate,
    random_path,
    rk4_solve,
    taylor_coefficients,
    texp_self_convergence,
)

from conftest import load_fixture

POLYNOMIAL_FIXTURES = ["exponential", "riccati", "linear_time", "harmonic",
                       "lotka_volterra"]


def expect(problem, text):
    return normalize(parse_expression(text, problem.context()))


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------

class TestPicard:
    def test_seed(self, riccati):
        it = picard_iterate(riccati, 0)
        assert it.k == 0
        assert it.fields[0] == expect(riccati, "c")

    def test_one_integration(self, riccati):
        it = picard_iterate(riccati, 1)
        assert it.fields[0] == expect(riccati, "c - t*c^2")

    def test_two_integrations_overshoot_term(self, riccati):
        # The order-3 term is an artifact of iteration 2; only orders
        # up to k are final.
        it = picard_iterate(riccati, 2)
        assert it.fields[0] == \
            expect(riccati, "c - t*c^2 + t^2*c^3 - 1/3*t^3*c^4")

    def test_symbolic_expansion_point(self):
        p = load_fixture("linear_time")
        it = picard_iterate(p, 1)
        want = expect(p, "c + 1/2*t^2*c - 1/2*a^2*c")
        assert it.fields[0] == want

    @pytest.mark.parametrize("name", POLYNOMIAL_FIXTURES)
    def test_order_agreement_between_iterates(self, name):
        p = load_fixture(name)
        k = 3
        lo = picard_iterate(p, k)
        hi = picard_iterate(p, k + 1)
        for i in range(p.n_fields):
            a = taylor_coefficients(lo.fields[i], p.initial_time, k)
            b = taylor_coefficients(hi.fields[i], p.initial_time, k)
            assert a == b

    @pytest.mark.parametrize("name", POLYNOMIAL_FIXTURES)
    def test_agreement_with_derivation_series(self, name):
        p = load_fixture(name)
        k = 4
        it = picard_iterate(p, k)
        sol = lie_coefficients(build_generator(p), k)
        for i in range(p.n_fields):
            got = taylor_coefficients(it.fields[i], p.initial_time, k)
            assert got == list(sol.coeffs[i])

    def test_degree_cap_matches_truncation(self, riccati):
        capped = picard_iterate(riccati, 5, max_degree=3)
        full = picard_iterate(riccati, 5)
        a = taylor_coefficients(capped.fields[0], const(0), 3)
        b = taylor_coefficients(full.fields[0], const(0), 3)
        assert a == b

    def test_rejects_pde(self, heat):
        with pytest.raises(NonPolynomialRhs):
            picard_iterate(heat, 2)

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
        report = chron_equiv_check(p, 6)
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
        report = chron_equiv_check(parse_problem(json.dumps(doc)), 5)
        assert report.passed, report.__dict__
        assert report.orders_equal == ((True,) * 6,)

    def test_pendulum(self):
        # sin(u): the sin/cos pair expands one coefficient at a time.
        report = chron_equiv_check(load_fixture("pendulum"), 5)
        assert report.passed, report.__dict__
        assert report.orders_equal == ((True,) * 6,)

    def test_rejects_pde(self, heat):
        with pytest.raises(NonPolynomialRhs):
            chron_equiv_check(heat, 4)

    def test_detects_tampered_series(self, riccati):
        # Flip the rhs sign: both constructions track the flipped
        # problem, so they still agree with each other.
        doc = json.loads(open("tests/fixtures/corrupt/riccati.json").read())
        flipped = parse_problem(json.dumps(doc))
        assert chron_equiv_check(flipped, 4).passed


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

    def test_holds_even_for_coarse_grids(self):
        # Telescoping is exact per factor, independent of accuracy in h.
        report = check_inverse_identity(airy_path(h=0.25), 1e-12)
        assert report.passed


class TestSelfConvergence:
    def test_midpoint_order_two(self):
        path = airy_path()
        report = texp_self_convergence(
            path.sampler, 2, 0.0, 1.0,
            [1e-1, 5e-2, 2e-2, 1e-2, 5e-3, 2e-3, 1e-3])
        assert abs(report.slope - 2.0) <= 0.3
        assert list(report.step_sizes) == \
            [1e-1, 5e-2, 2e-2, 1e-2, 5e-3, 2e-3, 1e-3]
        assert all(e > 0 for e in report.errors)
