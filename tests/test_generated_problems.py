"""Generated problems through the three exact routes.

A derandomized strategy writes whole problem documents, so the parser is
covered too: an ode, a two-field system or a pde in u, u_x and u_xx, whose
right-hand sides combine the fields, t and small integers with + - * ^2 ^3
sin cos exp.  Each solved series must pass the residual, homomorphism and
(for odes and systems) integral-form checks; on a system the last shows
that the Picard fixed point equals the Lie series.  The term dicts the
solver hands those checks must be the dicts of its printed coefficients.  A rational added to one
coefficient must then be reported by the residual and the integral form at
exactly that field and order.  A problem whose series outgrows the term
budget stops with ExpressionBlowup, the budget's documented outcome, and is
discarded rather than counted as a pass.

Generated odes and systems also go through the numeric route: the series
evaluated a small step from the initial time must agree with RK4 to within
a tolerance that scales as |t - a|^(N+1).  Besides ExpressionBlowup, the
only discard there is RK4's NonFiniteValue, its documented blow-up.
"""

import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, reject, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chronexp import (  # noqa: E402
    ExpressionBlowup,
    Mul,
    NonFiniteValue,
    check_homomorphism,
    chron_equiv_check,
    eval_num,
    eval_series,
    lie_coefficients,
    normalize,
    parse_problem,
    residual_check,
    rk4_solve,
)

from chronexp.expr import _terms  # noqa: E402

from conftest import perturbed  # noqa: E402

ORDER = 4
BUDGET = 2000
NAMES = {"ode": ["u", "t"], "system": ["u", "v", "t"],
         "pde": ["u", "u_x", "u_xx", "t"]}


def rhs_texts(names):
    leaves = st.sampled_from(names + ["1", "2", "3"])

    def shaped(template, *parts):
        return st.tuples(*parts).map(lambda drawn: template.format(*drawn))

    return st.recursive(leaves, lambda kids: st.one_of(
        shaped("({} {} {})", kids, st.sampled_from("+-*"), kids),
        shaped("({})^{}", kids, st.sampled_from("23")),
        shaped("{}({})", st.sampled_from(["sin", "cos", "exp"]), kids),
    ), max_leaves=6)


@st.composite
def documents(draw, kinds=tuple(sorted(NAMES))):
    kind = draw(st.sampled_from(kinds))
    fields = ["u", "v"] if kind == "system" else ["u"]
    doc = {"kind": kind, "time": {"name": "t", "initial": "0"},
           "fields": fields,
           "rhs": {f: draw(rhs_texts(NAMES[kind])) for f in fields},
           "order": ORDER}
    if kind == "pde":
        doc["space"] = ["x"]
    return doc


@st.composite
def faults(draw, n_fields):
    """(field, order >= 1, nonzero rational)."""
    return (draw(st.integers(0, n_fields - 1)), draw(st.integers(1, ORDER)),
            draw(st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]),
                           st.integers(1, 7))))


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=documents(), data=st.data())
def test_generated_problems_pass_and_faults_are_named(doc, data):
    p = parse_problem(json.dumps(doc))
    odelike = p.kind in ("ode", "system")
    c = p.jet_symbol(0)
    G = normalize(Mul((c, c if odelike else p.jet_symbol(0, (1,)))))
    try:
        sol = lie_coefficients(p, ORDER, BUDGET)
        # the loop's term dicts, which the checks read, are the printed ones
        assert sol.terms == tuple(tuple(map(_terms, column))
                                  for column in sol.coeffs)
        reports = [residual_check(sol, BUDGET),
                   check_homomorphism(sol, G, ORDER, BUDGET)]
        if odelike:
            reports.append(chron_equiv_check(sol, BUDGET))
    except ExpressionBlowup:
        reject()   # past the budget: exit 2 from the command line, no verdict
    assert all(report.passed for report in reports), reports

    field, order, delta = data.draw(faults(p.n_fields))
    broken = perturbed(sol, field, order, delta)
    want = (p.field_names[field], order)
    residual = residual_check(broken, BUDGET)
    assert (residual.failing_field, residual.failing_order) == want
    if odelike:
        equiv = chron_equiv_check(broken, BUDGET)
        assert (equiv.failing_field, equiv.failing_order) == want


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=documents(("ode", "system")),
       initial=st.lists(st.sampled_from([-0.5, -0.25, 0.25, 0.5]),
                        min_size=2, max_size=2))
def test_generated_series_agree_with_rk4(doc, initial):
    p = parse_problem(json.dumps(doc))
    initial = initial[:p.n_fields]
    bind = {p.jet_symbol(i): v for i, v in enumerate(initial)}
    try:
        sol = lie_coefficients(p, ORDER, BUDGET)
        rk4_solve(p, initial, 0.0, steps=1)
    except (ExpressionBlowup, NonFiniteValue):
        reject()   # past the budget, or F is not finite at the initial data
    # Cauchy-Hadamard: coefficient n grows like rho^n, with rho estimated
    # from the solved coefficients, so at |h| = 0.01 / rho the remainder
    # past order N is about max(1, |u(a)|) * (rho*|h|)^(N+1).  The factor 20
    # covers rho's underestimate when four coefficients are all it sees.
    rho = max([1.0] + [abs(eval_num(c, bind)) ** (1 / n)
                       for column in sol.coeffs
                       for n, c in enumerate(column) if n])
    scale = 20 * max([1.0] + [abs(v) for v in initial])
    for h in (0.01 / rho, -0.01 / rho):
        try:
            want = rk4_solve(p, initial, h, steps=16)
        except NonFiniteValue:
            reject()
        got = eval_series(sol, [h], bind)[0]
        tol = scale * (rho * abs(h)) ** (ORDER + 1)
        assert all(abs(g - w) <= tol for g, w in zip(got, want)), (h, got, want)
