"""Acceptance gate: the eight go/no-go checks for the whole artifact.

Each test prints exactly one PASS/FAIL line outside pytest's capture so
the outcome is visible in piped runs, then asserts.
"""

import dataclasses
import math
import time

from chronexp import (
    airy_path,
    catalog,
    catalog_entry,
    check_homomorphism,
    check_inverse_identity,
    chron_equiv_check,
    compare_series_to_reference,
    convergence_slope,
    initial_jet_bindings,
    eval_series,
    jet,
    lie_coefficients,
    normalize,
    parse_expression,
    parse_problem,
    random_path,
    residual_check,
    texp_self_convergence,
)
from chronexp.cli import main

from conftest import FIXTURES

POLYNOMIAL = ("exponential", "riccati", "linear_time", "harmonic",
              "lotka_volterra")
NON_PDE = POLYNOMIAL


def report(capsys, ok: bool, label: str) -> None:
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {label}", flush=True)


def test_criterion_1_defining_equation_residual(capsys):
    started = time.perf_counter()
    failures = []
    for entry in catalog():
        sol = lie_coefficients(entry.problem, 6)
        rep = residual_check(sol)
        if not (rep.passed and all(len(row) == 6
                                   for row in rep.orders_equal)):
            failures.append((entry.name, rep.summary()))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 10.0
    report(capsys, ok, "criterion 1: series residual exactly zero through order 5 "
               f"for all 8 catalog problems at N=6 ({elapsed:.2f}s < 10s)")
    assert not failures, failures
    assert elapsed < 10.0


def test_criterion_2_two_series_constructions_agree(capsys):
    started = time.perf_counter()
    failures = []
    for name in POLYNOMIAL:
        rep = chron_equiv_check(lie_coefficients(catalog_entry(name).problem,
                                                 6))
        if not rep.passed:
            failures.append((name, rep.__dict__))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 30.0
    report(capsys, ok, "criterion 2: integral-iteration and derivation series "
               "agree exactly per order at N=6 for all 5 polynomial "
               f"problems ({elapsed:.2f}s < 30s)")
    assert not failures, failures
    assert elapsed < 30.0


def test_criterion_3_inverse_identity(capsys):
    airy = check_inverse_identity(airy_path(h=1e-2), tolerance=1e-11)
    rand = check_inverse_identity(random_path(seed=0, dimension=4, h=1e-2),
                                  tolerance=1e-11)
    ok = airy.passed and rand.passed
    report(capsys, ok, "criterion 3: |E_inv E - I| <= 1e-11 "
               f"(airy {airy.norm:.2e}, random 4x4 {rand.norm:.2e})")
    assert airy.passed, airy.norm
    assert rand.passed, rand.norm


def test_criterion_4_homomorphism(capsys):
    failures = []
    for name in NON_PDE:
        p = catalog_entry(name).problem
        alias = p.initial_alias(0)
        for g_text in (f"{alias}^2", f"{alias}^3"):
            G = normalize(parse_expression(g_text, p))
            rep = check_homomorphism(lie_coefficients(p, 5), G, 5)
            if not rep.passed:
                failures.append((name, g_text, rep.failing_order))
    for name in ("heat", "burgers"):
        p = catalog_entry(name).problem
        G = normalize(parse_expression("c*c_x", p))
        rep = check_homomorphism(lie_coefficients(p, 5), G, 5)
        if not rep.passed:
            failures.append((name, "c*c_x", rep.failing_order))
    ok = not failures
    report(capsys, ok, "criterion 4: series of G(u) equals G of series exactly "
               "through N=5 for G in {c^2, c^3} on ode/system problems "
               "and c*c_x on heat/burgers")
    assert not failures, failures


def test_criterion_5_convergence_order(capsys):
    offsets = [0.2, 0.1, 0.05, 0.025]
    failures = []
    measured = []
    for name, points in (("riccati", None), ("heat", [1.5, 1.0, 2.2])):
        entry = catalog_entry(name)
        for order in (2, 4, 6):
            sol = lie_coefficients(entry.problem, order)
            table = compare_series_to_reference(sol, entry, offsets, points)
            slope = convergence_slope(table.offsets, table.max_errors)
            measured.append(f"{name} N={order}: {slope:.2f}")
            if abs(slope - (order + 1)) > 0.4:
                failures.append((name, order, slope))
    ok = not failures
    report(capsys, ok, "criterion 5: error slope within (N+1) +/- 0.4 for "
               "N in {2,4,6} on riccati and heat "
               f"({'; '.join(measured)})")
    assert not failures, failures


def test_criterion_6_closed_form_reproduction(capsys):
    riccati = catalog_entry("riccati").problem
    sol = lie_coefficients(riccati, 8)
    value = eval_series(sol, [0.1], {jet(0, ()): 1.0})[0][0]
    riccati_err = abs(value - 1.0 / 1.1)

    heat = catalog_entry("heat").problem
    sol = lie_coefficients(heat, 6)
    ic = [normalize(parse_expression("sin(x)", heat.context()))]
    heat_err = 0.0
    for x in (-1.0, 0.3, 0.9, 1.5, 2.2):
        bind = initial_jet_bindings(sol, ic, [[x]])[0]
        got = eval_series(sol, [0.05], bind)[0][0]
        heat_err = max(heat_err,
                       abs(got - math.exp(-0.05) * math.sin(x)))
    ok = riccati_err <= 1e-8 and heat_err <= 1e-9
    report(capsys, ok, "criterion 6: riccati N=8 within 1e-8 of 1/1.1 at dt=0.1 "
               f"({riccati_err:.2e}); heat N=6 within 1e-9 of "
               f"exp(-0.05)sin(x) at 5 points ({heat_err:.2e})")
    assert riccati_err <= 1e-8
    assert heat_err <= 1e-9


def test_criterion_7_product_integral_order(capsys):
    rep = texp_self_convergence(
        airy_path().sampler, 2, 0.0, 1.0,
        [1e-1, 5e-2, 2e-2, 1e-2, 5e-3, 2e-3, 1e-3])
    ok = abs(rep.slope - 2.0) <= 0.3
    report(capsys, ok, "criterion 7: ordered-exponential self-convergence slope "
               f"2 +/- 0.3 (measured {rep.slope:.3f})")
    assert ok, rep.slope


def test_criterion_8_negative_control(capsys):
    corrupt = FIXTURES / "corrupt" / "riccati.json"
    flipped = parse_problem(corrupt.read_text())
    sol = lie_coefficients(flipped, 6)
    cross = residual_check(dataclasses.replace(
        sol, problem=catalog_entry("riccati").problem))
    residual_ok = (not cross.passed) and cross.failing_order == 1

    exit_code = main(["verify", str(corrupt)])
    capsys.readouterr()
    ok = residual_ok and exit_code == 3
    report(capsys, ok, "criterion 8: sign-flipped rhs fails the residual at "
               f"order {cross.failing_order} and verify exits "
               f"{exit_code}")
    assert residual_ok, cross.__dict__
    assert exit_code == 3
