"""Reference numerics: RK4 oracle, the solved-problem catalog, and the
series-vs-reference error tables.
"""

import json
import math

import pytest

from chronexp import (
    NonFiniteValue,
    catalog,
    catalog_entry,
    compare_series_to_reference,
    convergence_slope,
    eval_num,
    lie_coefficients,
    parse_problem,
    rk4_solve,
)
from chronexp.reference import characteristic_value

from conftest import load_fixture

EXPECTED_ENTRIES = {"exponential", "riccati", "linear_time", "harmonic",
                    "lotka_volterra", "transport", "heat", "burgers"}


# ---------------------------------------------------------------------------
# RK4
# ---------------------------------------------------------------------------

class TestRk4:
    def test_exponential_growth(self):
        p = load_fixture("exponential")
        got = rk4_solve(p, (1.0,), 1.0, steps=1000)
        assert abs(got[0] - math.e) <= 1e-10

    def test_riccati(self, riccati):
        got = rk4_solve(riccati, (1.0,), 0.5, steps=1000)
        assert abs(got[0] - 2.0 / 3.0) <= 1e-10

    def test_harmonic_orientation(self):
        # u' = v, v' = -u for rhs (-v, u); from (1, 0) the pair is
        # (cos t, -sin t).
        p = load_fixture("harmonic")
        u, v = rk4_solve(p, (1.0, 0.0), math.pi / 2, steps=1000)
        assert abs(u - 0.0) <= 1e-9
        assert abs(v + 1.0) <= 1e-9

    def test_symbolic_expansion_point_needs_value(self):
        p = load_fixture("linear_time")
        got = rk4_solve(p, (1.0,), 1.0, steps=1000, initial_time_value=0.0)
        assert abs(got[0] - math.exp(0.5)) <= 1e-10

    def test_blow_up_raises(self):
        doc = {"kind": "ode", "time": {"name": "t", "initial": "0"},
               "fields": ["u"], "rhs": {"u": "-u^2"}, "order": 4}
        p = parse_problem(json.dumps(doc))
        with pytest.raises(NonFiniteValue):
            rk4_solve(p, (1.0,), 1.5, steps=200)

    def test_rejects_pde(self, heat):
        with pytest.raises(ValueError):
            rk4_solve(heat, (1.0,), 0.5, steps=10)

    def test_step_count_validated(self, riccati):
        with pytest.raises(ValueError):
            rk4_solve(riccati, (1.0,), 0.5, steps=0)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

class TestCatalog:
    def test_expected_entries_present(self):
        assert {e.name for e in catalog()} == EXPECTED_ENTRIES

    def test_lookup_by_name(self):
        assert catalog_entry("riccati").problem.kind == "ode"
        with pytest.raises(ValueError):
            catalog_entry("unknown")

    def test_heat_closed_form(self):
        entry = catalog_entry("heat")
        bind = entry.exact_bindings(0.3, 0.0, [1.1])
        got = eval_num(entry.exact[0], bind)
        assert math.isclose(got, math.exp(-0.3) * math.sin(1.1),
                            rel_tol=1e-12)

    def test_transport_closed_form(self):
        entry = catalog_entry("transport")
        bind = entry.exact_bindings(0.4, 0.0, [0.9])
        got = eval_num(entry.exact[0], bind)
        assert math.isclose(got, math.sin(0.9 - 0.4), rel_tol=1e-12)

    def test_problems_match_fixture_documents(self):
        for entry in catalog():
            assert entry.problem == load_fixture(entry.name)

    def test_every_closed_form_satisfies_its_equation(self):
        # Also enforced when the catalog is first built; repeated here so
        # a regression fails loudly in the suite.
        from chronexp.reference import _entry_defining_residual
        for entry in catalog():
            if entry.exact is not None:
                _entry_defining_residual(entry)

    def test_validity_notes_present(self):
        for entry in catalog():
            assert entry.validity

    def test_burgers_characteristic_solver(self):
        entry = catalog_entry("burgers")
        ic = entry.initial_exprs[0]
        x, dt = 0.8, 0.05
        u = characteristic_value(ic, x, dt)
        # u solves u = sin(x - dt*u)
        assert abs(u - math.sin(x - dt * u)) <= 1e-13


# ---------------------------------------------------------------------------
# Error tables
# ---------------------------------------------------------------------------

class TestCompare:
    def test_riccati_small_offset(self):
        entry = catalog_entry("riccati")
        sol = lie_coefficients(entry.problem, 8)
        table = compare_series_to_reference(sol, entry, [0.1])
        assert table.max_errors[0] <= 1e-8

    def test_zero_offset_is_exact(self):
        entry = catalog_entry("riccati")
        sol = lie_coefficients(entry.problem, 6)
        table = compare_series_to_reference(sol, entry, [0.0, 0.1])
        assert table.max_errors[0] == 0.0

    def test_heat_five_points(self):
        entry = catalog_entry("heat")
        sol = lie_coefficients(entry.problem, 6)
        table = compare_series_to_reference(
            sol, entry, [0.05], points=[-1.0, 0.3, 0.9, 1.5, 2.2])
        assert table.max_errors[0] <= 1e-9

    def test_numeric_only_entry_uses_rk4(self):
        entry = catalog_entry("lotka_volterra")
        sol = lie_coefficients(entry.problem, 6)
        table = compare_series_to_reference(sol, entry, [0.1, 0.05])
        assert table.max_errors[0] <= 1e-6
        assert table.max_errors[1] <= table.max_errors[0]

    def test_problem_identity_enforced(self, riccati):
        sol = lie_coefficients(riccati, 4)
        with pytest.raises(ValueError):
            compare_series_to_reference(sol, catalog_entry("harmonic"),
                                        [0.1])

    def test_summary_mentions_entry(self):
        entry = catalog_entry("riccati")
        sol = lie_coefficients(entry.problem, 4)
        table = compare_series_to_reference(sol, entry, [0.1])
        assert "riccati" in table.summary()


# ---------------------------------------------------------------------------
# Convergence order
# ---------------------------------------------------------------------------

OFFSETS = [0.2, 0.1, 0.05, 0.025]


class TestConvergenceOrder:
    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_riccati_slope(self, order):
        entry = catalog_entry("riccati")
        sol = lie_coefficients(entry.problem, order)
        table = compare_series_to_reference(sol, entry, OFFSETS)
        slope = convergence_slope(table.offsets, table.max_errors)
        assert abs(slope - (order + 1)) <= 0.4

    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_heat_slope(self, order):
        entry = catalog_entry("heat")
        sol = lie_coefficients(entry.problem, order)
        table = compare_series_to_reference(sol, entry, OFFSETS,
                                            points=[1.5, 1.0, 2.2])
        slope = convergence_slope(table.offsets, table.max_errors)
        assert abs(slope - (order + 1)) <= 0.4

    def test_slope_ignores_exact_rows(self):
        slope = convergence_slope([0.2, 0.1, 0.05, 0.0],
                                  [8e-3, 1e-3, 1.25e-4, 0.0])
        assert abs(slope - 3.0) <= 1e-6
