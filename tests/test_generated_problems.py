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
    build_generator,
    check_homomorphism,
    chron_equiv_check,
    lie_coefficients,
    normalize,
    parse_problem,
    residual_check,
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
def documents(draw):
    kind = draw(st.sampled_from(sorted(NAMES)))
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
        sol = lie_coefficients(build_generator(p), ORDER, BUDGET)
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
