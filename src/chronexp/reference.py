"""Reference numerics: RK4 integration and a closed-form problem catalog.

The catalog is the trusted ground truth for the verification suites.  Every
entry with a closed-form solution is validated symbolically on construction:
the exact expression is substituted into its own defining equation
du/dt + F = 0 and the residual must normalize to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonFiniteValue
from .expr import (
    Add,
    Expr,
    INITIAL_TIME,
    Sym,
    TIME,
    ZERO,
    _build,
    _terms,
    compile_num,
    diff,
    eval_num,
    jets_of,
    normalize,
    space_var,
    subst_many,
)
from .lie import (
    SeriesSolution,
    eval_series,
    initial_jet_bindings,
    jet_derivatives,
)
from .parser import ProblemSpec, parse_expression, parse_problem

RK4_REFERENCE_STEPS = 1000
CHARACTERISTIC_TOL = 1e-14


# ---------------------------------------------------------------------------
# Classical RK4
# ---------------------------------------------------------------------------

def rk4_solve(p: ProblemSpec, initial: list[float], t_end: float,
              steps: int, initial_time_value: float | None = None) -> list[float]:
    """Integrate u' = -F(t, u) from t = a to t_end with the classical
    fourth-order Runge-Kutta scheme; raises NonFiniteValue on blow-up.
    F is compiled once, and agrees with eval_num bit for bit.
    """
    if p.kind == "pde":
        raise ValueError("rk4_solve covers ode and system problems")
    if steps < 1:
        raise ValueError("at least one step is required")
    if p.initial_name is None:
        start = eval_num(p.initial_time, {})
    elif initial_time_value is not None:
        start = float(initial_time_value)
    else:
        raise ValueError(
            "symbolic initial time needs an explicit initial_time_value")
    n = p.n_fields
    if len(initial) != n:
        raise ValueError(f"expected {n} initial values")
    rhs = compile_num(p.rhs, [TIME, *map(p.jet_symbol, range(n))])

    def deriv(t: float, u: list[float]) -> list[float]:
        return [-f for f in rhs(t, *u)]

    h = (t_end - start) / steps
    t = start
    u = [float(v) for v in initial]
    for _ in range(steps):
        try:
            k1 = deriv(t, u)
            k2 = deriv(t + h / 2, [u[i] + h / 2 * k1[i] for i in range(n)])
            k3 = deriv(t + h / 2, [u[i] + h / 2 * k2[i] for i in range(n)])
            k4 = deriv(t + h, [u[i] + h * k3[i] for i in range(n)])
            u = [u[i] + h / 6 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i])
                 for i in range(n)]
        except NonFiniteValue:
            raise NonFiniteValue(
                f"integration blew up near t = {t:.6g}") from None
        t += h
        if not all(math.isfinite(v) for v in u):
            raise NonFiniteValue(f"integration blew up near t = {t:.6g}")
    return u


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    """A named Cauchy problem with its trusted reference solution.

    exact_kind selects how reference values are produced:
      closed_form      exact canonical per-field expressions over t, a,
                       space, jets
      rk4              numeric only, fine RK4 integration
      characteristics  per-point fixed-point solve along characteristics
    """

    name: str
    problem: ProblemSpec
    exact_kind: str
    exact: tuple[Expr, ...] | None
    initial_values: tuple[float, ...] | None      # ode / system
    initial_exprs: tuple[Expr, ...] | None        # pde initial data
    validity: str

    def exact_bindings(self, t: float, a_value: float,
                       space_values: list[float]) -> dict[Sym, float]:
        bind: dict[Sym, float] = {TIME: t}
        if self.problem.initial_name is not None:
            bind[INITIAL_TIME] = a_value
        for j, x in enumerate(space_values):
            bind[space_var(j)] = x
        if self.initial_values is not None:
            for k, v in enumerate(self.initial_values):
                bind[self.problem.jet_symbol(k)] = v
        return bind


def _entry_defining_residual(entry: CatalogEntry) -> None:
    """Substitute the exact solution into du/dt + F = 0; exact-zero check."""
    p = entry.problem
    exact_jet = jet_derivatives([_terms(e) for e in entry.exact])
    replacement = {jsym: _build(exact_jet(jsym))
                   for jsym in set().union(*map(jets_of, p.rhs))}
    for i in range(p.n_fields):
        residual = normalize(Add((
            diff(entry.exact[i], TIME),
            subst_many(p.rhs[i], replacement))))
        if residual != ZERO:
            raise RuntimeError(
                f"catalog entry '{entry.name}' fails its defining equation "
                f"for field '{p.field_names[i]}'")


def _problem(doc: dict) -> ProblemSpec:
    import json

    return parse_problem(json.dumps(doc))


def _exact(problem: ProblemSpec, text: str) -> Expr:
    return parse_expression(text, problem.context())


_CATALOG: list[CatalogEntry] | None = None


def catalog() -> list[CatalogEntry]:
    """The eight stock problems; closed forms are re-verified on first use."""
    global _CATALOG
    if _CATALOG is not None:
        return _CATALOG

    entries: list[CatalogEntry] = []

    p = _problem({"kind": "ode", "time": {"name": "t", "initial": "0"},
                  "fields": ["u"], "rhs": {"u": "-u"}, "order": 6})
    entries.append(CatalogEntry(
        name="exponential", problem=p, exact_kind="closed_form",
        exact=(_exact(p, "c*exp(t)"),),
        initial_values=(1.0,), initial_exprs=None,
        validity="entire real line"))

    p = _problem({"kind": "ode", "time": {"name": "t", "initial": "0"},
                  "fields": ["u"], "rhs": {"u": "u^2"}, "order": 6})
    entries.append(CatalogEntry(
        name="riccati", problem=p, exact_kind="closed_form",
        exact=(_exact(p, "c/(1 + c*t)"),),
        initial_values=(1.0,), initial_exprs=None,
        validity="t - a > -1/c for c > 0 (pole behind the initial time)"))

    p = _problem({"kind": "ode", "time": {"name": "t", "initial": "a"},
                  "fields": ["u"], "rhs": {"u": "-t*u"}, "order": 6})
    entries.append(CatalogEntry(
        name="linear_time", problem=p, exact_kind="closed_form",
        exact=(_exact(p, "c*exp(1/2*t^2 - 1/2*a^2)"),),
        initial_values=(1.0,), initial_exprs=None,
        validity="entire real line, symbolic expansion point"))

    p = _problem({"kind": "system", "time": {"name": "t", "initial": "0"},
                  "fields": ["u", "v"], "rhs": {"u": "-v", "v": "u"},
                  "order": 6})
    entries.append(CatalogEntry(
        name="harmonic", problem=p, exact_kind="closed_form",
        exact=(_exact(p, "c1*cos(t) + c2*sin(t)"),
               _exact(p, "c2*cos(t) - c1*sin(t)")),
        initial_values=(1.0, 0.0), initial_exprs=None,
        validity="entire real line"))

    p = _problem({"kind": "system", "time": {"name": "t", "initial": "0"},
                  "fields": ["u", "v"],
                  "rhs": {"u": "-u + u*v", "v": "v - u*v"}, "order": 6})
    entries.append(CatalogEntry(
        name="lotka_volterra", problem=p, exact_kind="rk4",
        exact=None, initial_values=(1.2, 0.9), initial_exprs=None,
        validity="numeric reference only; periodic orbit around (1, 1)"))

    p = _problem({"kind": "pde", "time": {"name": "t", "initial": "0"},
                  "space": ["x"], "fields": ["u"], "rhs": {"u": "u_x"},
                  "order": 6})
    entries.append(CatalogEntry(
        name="transport", problem=p, exact_kind="closed_form",
        exact=(_exact(p, "sin(x - t)"),),
        initial_values=None,
        initial_exprs=(_exact(p, "sin(x)"),),
        validity="entire real line for the sine profile"))

    p = _problem({"kind": "pde", "time": {"name": "t", "initial": "0"},
                  "space": ["x"], "fields": ["u"], "rhs": {"u": "-u_xx"},
                  "order": 6})
    entries.append(CatalogEntry(
        name="heat", problem=p, exact_kind="closed_form",
        exact=(_exact(p, "exp(-t)*sin(x)"),),
        initial_values=None,
        initial_exprs=(_exact(p, "sin(x)"),),
        validity="t >= a (forward diffusion) for the sine mode"))

    p = _problem({"kind": "pde", "time": {"name": "t", "initial": "0"},
                  "space": ["x"], "fields": ["u"], "rhs": {"u": "u*u_x"},
                  "order": 6})
    entries.append(CatalogEntry(
        name="burgers", problem=p, exact_kind="characteristics",
        exact=None,
        initial_values=None,
        initial_exprs=(_exact(p, "sin(x)"),),
        validity="t - a < 1 (gradient blow-up at 1/max|c'|)"))

    for entry in entries:
        if entry.exact_kind == "closed_form":
            _entry_defining_residual(entry)
    _CATALOG = entries
    return entries


def catalog_entry(name: str) -> CatalogEntry:
    for entry in catalog():
        if entry.name == name:
            return entry
    raise ValueError(f"no catalog entry named '{name}'")


# ---------------------------------------------------------------------------
# Series versus reference
# ---------------------------------------------------------------------------

def characteristic_value(initial_expr: Expr, x: float, dt: float,
                         tol: float = CHARACTERISTIC_TOL) -> float:
    """Solve u = c(x - dt*u) by fixed point; valid before gradient blow-up."""
    xsym = space_var(0)
    u = eval_num(initial_expr, {xsym: x})
    for _ in range(500):
        nxt = eval_num(initial_expr, {xsym: x - dt * u})
        if abs(nxt - u) <= tol:
            return nxt
        u = nxt
    raise NonFiniteValue(
        f"characteristic fixed point stalled at x={x}, dt={dt}")


@dataclass(frozen=True)
class ErrorTable:
    """Max absolute series error per time offset, over fields and points."""

    entry_name: str
    order: int
    offsets: tuple[float, ...]
    max_errors: tuple[float, ...]

    def summary(self) -> str:
        pairs = ", ".join(f"{dt:g}: {err:.3e}"
                          for dt, err in zip(self.offsets, self.max_errors))
        return f"{self.entry_name} (order {self.order}) errors {pairs}"


def compare_series_to_reference(sol: SeriesSolution, entry: CatalogEntry,
                                t_offsets: list[float],
                                points: list[float] | None = None) -> ErrorTable:
    """Evaluate the series against the entry's reference at a + offset."""
    p = entry.problem
    if sol.problem != p:
        raise ValueError("series was built for a different problem")
    a_value = (0.0 if p.initial_name is not None
               else eval_num(p.initial_time, {}))
    # (bindings, point) per sample point, shared by every offset
    if p.kind == "pde":
        xs = points or [0.0]
        binds = initial_jet_bindings(sol, list(entry.initial_exprs),
                                     [[x] for x in xs])
        samples = list(zip(binds, xs))
    else:
        samples = [({p.jet_symbol(k): v
                     for k, v in enumerate(entry.initial_values)}, None)]
    for bind, _ in samples:
        if p.initial_name is not None:
            bind[INITIAL_TIME] = a_value

    times = [a_value + dt for dt in t_offsets]
    # series rows per sample point, one row per time
    series = [eval_series(sol, times, bind) for bind, _ in samples]
    max_errors = []
    for i, t in enumerate(times):
        worst = 0.0
        for (_, x), rows in zip(samples, series):
            reference = _reference(entry, t, a_value, x)
            worst = max(worst, *(abs(s - r)
                                 for s, r in zip(rows[i], reference)))
        max_errors.append(worst)
    return ErrorTable(
        entry_name=entry.name,
        order=sol.order,
        offsets=tuple(t_offsets),
        max_errors=tuple(max_errors),
    )


def _reference(entry: CatalogEntry, t: float, a_value: float,
               x: float | None) -> list[float]:
    """The entry's reference values at t, at the point x for a pde."""
    if entry.exact_kind == "closed_form":
        bind = entry.exact_bindings(t, a_value, [] if x is None else [x])
        return [eval_num(e, bind) for e in entry.exact]
    if entry.exact_kind == "rk4":
        if t == a_value:
            return list(entry.initial_values)
        return rk4_solve(entry.problem, list(entry.initial_values), t,
                         RK4_REFERENCE_STEPS, initial_time_value=a_value)
    if entry.exact_kind == "characteristics":
        return [characteristic_value(entry.initial_exprs[0], x, t - a_value)]
    raise ValueError(f"no reference for kind '{entry.exact_kind}'")
