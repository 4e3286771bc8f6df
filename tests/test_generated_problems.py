"""Generated problems through the three exact routes.

A derandomized strategy writes whole problem documents, so the parser is
covered too: an ode, a two-field system or a pde in u, u_x and u_xx, whose
right-hand sides combine the fields, t and small integers with + - * ^2 ^3
sin cos exp.  Each solved series must pass the residual, homomorphism and
integral-form checks; the last shows that the Picard fixed point, whose
jets are derived coefficient by coefficient, equals the Lie series.  The
term dicts the solver hands those checks must be the dicts of its printed
coefficients.  A rational added to one
coefficient must then be reported by the residual and the integral form at
exactly that field and order.  A problem whose series outgrows the term
budget stops with ExpressionBlowup, the budget's documented outcome, and is
discarded rather than counted as a pass.

Generated odes and systems also go through the numeric route: the series
evaluated a small step from the initial time must agree with RK4 to within
a tolerance that scales as |t - a|^(N+1).  Besides ExpressionBlowup, the
only discard there is RK4's NonFiniteValue, its documented blow-up.

Every route above runs on the one expression kernel.  sympy, where
installed, checks it from outside: the same strategy, with the space
variable x among the pde names, is solved through order 3 by sympy's own
Taylor recursion, each c_k a sympy Function of x, and every coefficient
must expand to the solver's.  Order 3 caps the size of a document, so the
check stays within seconds.
"""

import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, reject, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chronexp import (  # noqa: E402
    Add,
    Const,
    ExpressionBlowup,
    Func,
    Mul,
    NonFiniteValue,
    Pow,
    Sym,
    SymbolKind,
    check_homomorphism,
    chron_equiv_check,
    eval_num,
    eval_series,
    lie,
    lie_coefficients,
    normalize,
    parse_problem,
    residual_check,
    rk4_solve,
)

from chronexp.expr import _terms  # noqa: E402

from conftest import forgets_x, perturbed  # noqa: E402

ORDER = 4
BUDGET = 2000
NAMES = {"ode": ["u", "t"], "system": ["u", "v", "t"],
         "pde": ["u", "u_x", "u_xx", "t"]}
NAMES_WITH_X = {**NAMES, "pde": NAMES["pde"] + ["x"]}
ORACLE_ORDER = 3


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
def documents(draw, kinds=tuple(sorted(NAMES)), names=NAMES):
    kind = draw(st.sampled_from(kinds))
    fields = ["u", "v"] if kind == "system" else ["u"]
    doc = {"kind": kind, "time": {"name": "t", "initial": "0"},
           "fields": fields,
           "rhs": {f: draw(rhs_texts(names[kind])) for f in fields},
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
                   check_homomorphism(sol, G, ORDER, BUDGET),
                   chron_equiv_check(sol, BUDGET)]
    except ExpressionBlowup:
        reject()   # past the budget: exit 2 from the command line, no verdict
    assert all(report.passed for report in reports), reports

    field, order, delta = data.draw(faults(p.n_fields))
    broken = perturbed(sol, field, order, delta)
    want = (p.field_names[field], order)
    residual = residual_check(broken, BUDGET)
    assert (residual.failing_field, residual.failing_order) == want
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


def sympy_taylor(doc, order, sympy):
    """U_0..U_order of each field by sympy alone: U_0 = c_k, a sympy
    Function of the space variables, and (n+1) U_{n+1} = -[F]_n, [F]_n the
    t^n coefficient of the rhs at the series truncated after U_n.
    """
    t = sympy.Symbol("t")
    space = [sympy.Symbol(name) for name in doc.get("space", [])]
    fields = doc["fields"]
    U = [[sympy.Function(f"c{k}")(*space) if space else sympy.Symbol(f"c{k}")]
         for k in range(len(fields))]
    names = {name: sympy.Symbol(name)
             for f in fields for name in (f, f + "_x", f + "_xx")}
    names.update(t=t, **{s.name: s for s in space})
    rhs = [sympy.parse_expr(doc["rhs"][f].replace("^", "**"),
                            local_dict=names) for f in fields]
    for n in range(order):
        series = [sum(c * t ** m for m, c in enumerate(column))
                  for column in U]
        values = {}
        for f, u in zip(fields, series):
            values[names[f]] = u
            if space:
                values[names[f + "_x"]] = u.diff(space[0])
                values[names[f + "_xx"]] = u.diff(space[0], 2)
        for column, F in zip(U, rhs):
            F_n = F.xreplace(values).diff(t, n).subs(t, 0) / sympy.factorial(n)
            column.append(sympy.expand(-F_n / (n + 1)))
    return U


def sympy_of_coefficient(e, space, sympy):
    """A solved coefficient as sympy, jet (k, alpha) the derivative
    D^alpha c_k of the oracle's c_k.
    """
    if isinstance(e, Const):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Sym):
        if e.kind == SymbolKind.SPACE:
            return space[e.index]
        assert e.kind == SymbolKind.JET, e
        if not space:
            return sympy.Symbol(f"c{e.index}")
        c = sympy.Function(f"c{e.index}")(*space)
        pairs = [(s, n) for s, n in zip(space, e.orders) if n]
        return c.diff(*pairs) if pairs else c
    if isinstance(e, Func):
        return getattr(sympy, e.name)(sympy_of_coefficient(e.arg, space, sympy))
    if isinstance(e, Pow):
        return sympy_of_coefficient(e.base, space, sympy) ** e.exponent
    if isinstance(e, Add):
        return sympy.Add(*(sympy_of_coefficient(p, space, sympy)
                           for p in e.terms))
    return sympy.Mul(*(sympy_of_coefficient(p, space, sympy)
                       for p in e.factors))


def sympy_disagreement(doc):
    """(field, order) of the first solved coefficient that differs from
    sympy's Taylor recursion, or None.
    """
    sympy = pytest.importorskip("sympy")
    p = parse_problem(json.dumps(doc))
    sol = lie_coefficients(p, ORACLE_ORDER, BUDGET)
    want = sympy_taylor(doc, ORACLE_ORDER, sympy)
    space = [sympy.Symbol(name) for name in p.space_names]
    for n in range(ORACLE_ORDER + 1):
        for field, column, theirs in zip(p.field_names, sol.coeffs, want):
            got = sympy_of_coefficient(column[n], space, sympy)
            if sympy.expand(got - theirs[n]) != 0:
                return field, n
    return None


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=documents(names=NAMES_WITH_X))
def test_generated_series_agree_with_sympy(doc):
    try:
        assert sympy_disagreement(doc) is None
    except ExpressionBlowup:
        reject()


def test_sympy_names_a_wrong_prolongation(monkeypatch):
    # D_x(x*u_x) without x -> 1 drops u_x, so the order-2 coefficient,
    # the first built from a prolonged rate, is wrong.
    doc = {"kind": "pde", "time": {"name": "t", "initial": "0"},
           "space": ["x"], "fields": ["u"], "rhs": {"u": "x*u_x"}}
    assert sympy_disagreement(doc) is None
    monkeypatch.setattr(lie, "total_derivative", forgets_x)
    assert sympy_disagreement(doc) == ("u", 2)
