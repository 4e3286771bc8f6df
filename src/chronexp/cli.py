"""Command-line interface.

    chronexp solve PROBLEM.json [--order N] [--format text|json]
    chronexp eval PROBLEM.json --ic ... --t ... [--x ...] [--order N]
    chronexp verify [PROBLEM.json] [--suite catalog|dyson|homomorphism|all]

Exit codes: 0 success, 1 bad input (usage, schema, parse, bindings),
2 resource exhaustion (series term budget), 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    ChronexpError,
    DivisionByZero,
    DomainError,
    ExpressionBlowup,
    InputError,
    NonFiniteValue,
    NonPolynomialRhs,
    UnboundSymbol,
    UnsupportedFunction,
)
from .expr import (
    Add,
    Const,
    Expr,
    MINUS_ONE,
    Mul,
    Sym,
    SymbolKind,
    TIME,
    ZERO,
    normalize,
    symbols_of,
)
from .dyson import (
    airy_path,
    check_inverse_identity,
    chron_equiv_check,
    random_path,
    texp_self_convergence,
)
from .lie import (
    DEFAULT_TERM_BUDGET,
    SeriesSolution,
    build_generator,
    check_homomorphism,
    eval_series,
    initial_jet_bindings,
    lie_coefficients,
    residual_check,
)
from .parser import ProblemSpec, parse_expression, parse_problem, render
from .reference import CatalogEntry, catalog, compare_series_to_reference
from .render import _format_const

MAX_UNFORCED_ORDER = 12
INVERSE_IDENTITY_TOL = 1e-11
CONVERGENCE_STEPS = (1e-1, 5e-2, 2e-2, 1e-2, 5e-3, 2e-3, 1e-3)


# ---------------------------------------------------------------------------
# Output document
# ---------------------------------------------------------------------------

@dataclass
class OutputDocument:
    """Everything a command may emit; the JSON rendering keeps all four
    keys so consumers see a stable shape.
    """

    problem: dict | None = None
    coefficients: list = field(default_factory=list)
    evaluations: list = field(default_factory=list)
    reports: list = field(default_factory=list)

    def json_text(self) -> str:
        payload = {
            "problem": self.problem,
            "coefficients": self.coefficients,
            "evaluations": self.evaluations,
            "reports": self.reports,
        }
        return json.dumps(payload, indent=2) + "\n"


def _problem_echo(p: ProblemSpec, order: int) -> dict:
    echo: dict = {
        "kind": p.kind,
        "time": {"name": p.time_name,
                 "initial": p.initial_name
                 if p.initial_name is not None
                 else _format_const(p.initial_time.value)},
        "fields": list(p.field_names),
        "rhs": {name: render(rhs, p, style="field")
                for name, rhs in zip(p.field_names, p.rhs)},
        "order": order,
    }
    if p.space_names:
        echo["space"] = list(p.space_names)
    if p.param_names:
        echo["params"] = list(p.param_names)
    return echo


# ---------------------------------------------------------------------------
# Series text format
# ---------------------------------------------------------------------------

def _coeff_parts(c: Expr) -> tuple[int, int, int, Expr | None]:
    """(sign, |numerator|, denominator, symbolic factor) of a canonical
    coefficient; sums stay whole and get parenthesized by the caller.
    """
    if isinstance(c, Const):
        sign = 1 if c.value >= 0 else -1
        return sign, abs(c.value.numerator), c.value.denominator, None
    if isinstance(c, Mul) and isinstance(c.factors[0], Const):
        v = c.factors[0].value
        rest = c.factors[1:]
        rest_expr = rest[0] if len(rest) == 1 else Mul(rest)
        return (1 if v >= 0 else -1), abs(v.numerator), v.denominator, rest_expr
    return 1, 1, 1, c


def series_text(sol: SeriesSolution, index: int) -> str:
    """One-line rendering: u = c - (t)*c^2 + (t)^2*c^3 - ..."""
    p = sol.problem
    dt = normalize(Add((Sym(TIME), Mul((MINUS_ONE, sol.expansion_point)))))
    dt_text = f"({render(dt, p)})"
    pieces = [f"{p.field_names[index]} = "
              f"{render(sol.coeffs[index][0], p)}"]
    for n in range(1, sol.order + 1):
        coeff = sol.coeffs[index][n]
        if coeff == ZERO:
            continue
        sign, numer, denom, rest = _coeff_parts(coeff)
        text = dt_text if n == 1 else f"{dt_text}^{n}"
        if denom > 1:
            text += f"/{denom}"
        tail = []
        if numer > 1:
            tail.append(str(numer))
        if rest is not None:
            rendered = render(rest, p)
            tail.append(f"({rendered})" if isinstance(rest, Add) else rendered)
        if tail:
            text += "*" + "*".join(tail)
        pieces.append(f" {'+' if sign > 0 else '-'} {text}")
    return "".join(pieces)


# ---------------------------------------------------------------------------
# Shared command plumbing
# ---------------------------------------------------------------------------

def _load_problem(path: str) -> ProblemSpec:
    text = Path(path).read_text(encoding="utf-8")
    return parse_problem(text)


def _effective_order(args, default: int) -> int:
    order = args.order if args.order is not None else default
    if order < 0:
        raise InputError("order must be non-negative")
    if order > MAX_UNFORCED_ORDER and not args.allow_high_order:
        raise InputError(
            f"order {order} exceeds {MAX_UNFORCED_ORDER}; pass "
            "--allow-high-order to proceed")
    return order


def _float_list(text: str, what: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise InputError(f"bad {what} value in '{text}'") from None


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    problem = _load_problem(args.problem)
    order = _effective_order(args, problem.order)
    sol = lie_coefficients(build_generator(problem), order,
                           term_budget=args.term_budget)
    if args.format == "text":
        for i in range(problem.n_fields):
            print(series_text(sol, i))
        return 0
    doc = OutputDocument(problem=_problem_echo(problem, order))
    for i, fname in enumerate(problem.field_names):
        for n, coeff in enumerate(sol.coeffs[i]):
            doc.coefficients.append(
                {"field": fname, "n": n, "expr": render(coeff, problem)})
    sys.stdout.write(doc.json_text())
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _parse_bindings(text: str, problem: ProblemSpec) -> dict:
    ctx = problem.context()
    bind = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, eq, value = part.partition("=")
        if not eq:
            raise InputError(f"binding '{part}' is not name=value")
        symbol = ctx.names.get(name.strip())
        if symbol is None:
            raise InputError(f"unknown symbol '{name.strip()}' in --ic")
        try:
            bind[symbol] = float(value)
        except ValueError:
            raise InputError(f"bad numeric value in '{part}'") from None
    return bind


def _parse_initial_exprs(text: str, problem: ProblemSpec) -> list[Expr]:
    parts = [p.strip() for p in text.split(";")]
    if len(parts) != problem.n_fields:
        raise InputError(
            f"expected {problem.n_fields} initial expression(s) "
            "separated by ';'")
    allowed = (SymbolKind.SPACE, SymbolKind.PARAM)
    exprs = []
    for part in parts:
        e = normalize(parse_expression(part, problem))
        for symbol in symbols_of(e):
            if symbol.kind not in allowed:
                raise InputError(
                    "initial expressions may use only space variables "
                    f"and parameters, found '{render(Sym(symbol), problem)}'")
        exprs.append(e)
    return exprs


def cmd_eval(args) -> int:
    problem = _load_problem(args.problem)
    order = _effective_order(args, problem.order)
    sol = lie_coefficients(build_generator(problem), order,
                           term_budget=args.term_budget)
    t_values = _float_list(args.t, "--t")
    if not t_values:
        raise InputError("--t needs at least one value")

    rows = []
    if problem.kind == "pde":
        if args.x is None:
            raise InputError("pde evaluation needs --x sample points")
        x_values = _float_list(args.x, "--x")
        initial_exprs = _parse_initial_exprs(args.ic, problem)
        binds = [initial_jet_bindings(sol, initial_exprs, [x])
                 for x in x_values]
        for t in t_values:
            for x, bind in zip(x_values, binds):
                rows.append((t, x, eval_series(sol, t, bind)))
    else:
        if args.x is not None:
            raise InputError("--x applies to pde problems only")
        if "=" not in args.ic:
            raise InputError("ode initial data is name=value bindings")
        bind = _parse_bindings(args.ic, problem)
        for k in range(problem.n_fields):
            if problem.jet_symbol(k) not in bind:
                raise InputError(
                    f"missing initial value for field "
                    f"'{problem.field_names[k]}'")
        for t in t_values:
            values = eval_series(sol, t, bind)
            rows.append((t, None, values))

    if args.format == "text":
        for t, x, values in rows:
            cells = [f"{t:g}"]
            if x is not None:
                cells.append(f"{x:g}")
            cells += [f"{v:.8f}" for v in values]
            print("\t".join(cells))
        return 0
    doc = OutputDocument(problem=_problem_echo(problem, order))
    for t, x, values in rows:
        row = {"t": t, "values": dict(zip(problem.field_names, values))}
        if x is not None:
            row["x"] = x
        doc.evaluations.append(row)
    sys.stdout.write(doc.json_text())
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _report(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": passed, "detail": detail}


def _verify_catalog(order: int) -> list[dict]:
    reports = []
    tol = 100.0 * 0.1 ** (order + 1)
    for entry in catalog():
        sol = lie_coefficients(build_generator(entry.problem), order)
        res = residual_check(sol)
        reports.append(_report(
            f"defining equation [{entry.name}]", res.passed, res.summary()))
        points = [0.3, 1.2] if entry.problem.kind == "pde" else None
        try:
            table = compare_series_to_reference(sol, entry, [0.1], points)
            err = table.max_errors[0]
            reports.append(_report(
                f"reference comparison [{entry.name}]", err <= tol,
                f"max error {err:.3e} at offset 0.1 (tolerance {tol:.1e})"))
        except NonFiniteValue as exc:
            reports.append(_report(
                f"reference comparison [{entry.name}]", False, str(exc)))
    return reports


def _verify_dyson(seed: int) -> list[dict]:
    reports = []
    airy = check_inverse_identity(airy_path(h=1e-2), INVERSE_IDENTITY_TOL)
    reports.append(_report("inverse identity [airy]", airy.passed,
                           airy.summary()))
    rand = check_inverse_identity(random_path(seed=seed, h=1e-2),
                                  INVERSE_IDENTITY_TOL)
    reports.append(_report(f"inverse identity [random seed {seed}]",
                           rand.passed, rand.summary()))
    conv = texp_self_convergence(airy_path().sampler, 2, 0.0, 1.0,
                                 list(CONVERGENCE_STEPS))
    ok = abs(conv.slope - 2.0) <= 0.3
    reports.append(_report("product-integral order", ok, conv.summary()))
    return reports


def _product_test_function(p: ProblemSpec) -> Expr:
    """G = c*c_x for a pde (x the first space variable), c^2 otherwise."""
    c0 = Sym(p.jet_symbol(0))
    if p.kind == "pde":
        first = tuple(1 if j == 0 else 0 for j in range(len(p.space_names)))
        return normalize(Mul((c0, Sym(p.jet_symbol(0, first)))))
    return normalize(Mul((c0, c0)))


def _homomorphism_cases(entry: CatalogEntry) -> list[tuple[str, Expr]]:
    p = entry.problem
    G = _product_test_function(p)
    if p.kind == "pde":
        if entry.name not in ("heat", "burgers"):
            return []
        return [(render(G, p), G)]
    alias = p.initial_alias(0)
    return [(f"{alias}^2", G),
            (f"{alias}^3", normalize(Mul((G, Sym(p.jet_symbol(0))))))]


def _verify_homomorphism(order: int) -> list[dict]:
    reports = []
    for entry in catalog():
        g = build_generator(entry.problem)
        for label, G in _homomorphism_cases(entry):
            rep = check_homomorphism(g, G, order)
            reports.append(_report(
                f"homomorphism [{entry.name}, G={label}]", rep.passed,
                rep.summary()))
    return reports


def _verify_order(args, default: int) -> int:
    """verify's order: a series of order 0 leaves no residual coefficient
    to check, so it would pass vacuously.
    """
    order = _effective_order(args, default)
    if order < 1:
        raise InputError("verify needs order 1 or more: order 0 checks "
                         "nothing")
    return order


def _verify_file(args) -> list[dict]:
    problem = _load_problem(args.problem)
    order = _verify_order(args, problem.order)
    sol = lie_coefficients(build_generator(problem), order,
                           term_budget=args.term_budget)
    reports = []
    res = residual_check(sol)
    reports.append(_report("defining equation [self]", res.passed,
                           res.summary()))

    stem = Path(args.problem).stem
    match = next((e for e in catalog() if e.name == stem), None)
    if match is not None:
        shaped = (match.problem.n_fields == problem.n_fields
                  and len(match.problem.space_names) == len(problem.space_names))
        if shaped:
            cross = residual_check(sol, against=match.problem)
            reports.append(_report(
                f"defining equation [vs catalog {stem}]", cross.passed,
                cross.summary()))
        else:
            reports.append(_report(
                f"defining equation [vs catalog {stem}]", False,
                "problem shape differs from the catalog entry"))

    if problem.kind in ("ode", "system"):
        equiv = chron_equiv_check(problem, order)
        reports.append(_report("chronological equivalence", equiv.passed,
                               equiv.summary()))

    hom = check_homomorphism(build_generator(problem),
                             _product_test_function(problem), min(order, 5))
    reports.append(_report("homomorphism", hom.passed, hom.summary()))
    return reports


def cmd_verify(args) -> int:
    if args.problem is not None and args.suite is not None:
        raise InputError("pass either a problem file or --suite, not both")
    if args.problem is not None:
        reports = _verify_file(args)
    else:
        suite = args.suite or "all"
        order = _verify_order(args, 6)
        reports = []
        if suite in ("catalog", "all"):
            reports += _verify_catalog(order)
        if suite in ("dyson", "all"):
            reports += _verify_dyson(args.seed)
        if suite in ("homomorphism", "all"):
            reports += _verify_homomorphism(min(order, 5))

    failed = [r for r in reports if not r["passed"]]
    if args.format == "text":
        for r in reports:
            status = "PASS" if r["passed"] else "FAIL"
            print(f"{status} {r['name']}: {r['detail']}")
        print(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
    else:
        doc = OutputDocument(reports=reports)
        sys.stdout.write(doc.json_text())
    return 3 if failed else 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; the exit-code contract
    reserves 2 for resource exhaustion, so remap to 1.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# eval's value options, whose values may start with '-' (-sin(x), -3.0,1.0).
_DASH_VALUE_OPTIONS = ("--ic", "--t", "--x")


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Rewrite ``--t -0.1,0.1`` as ``--t=-0.1,0.1`` for eval's value options.
    argparse reads a token that starts with '-' and is not a lone number as
    an option, so such a value would otherwise be rejected.
    """
    out: list[str] = []
    for arg in argv:
        if (out and out[-1] in _DASH_VALUE_OPTIONS
                and arg.startswith("-") and not arg.startswith("--")):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="chronexp",
        description="Series solutions of Cauchy problems du/dt + F = 0 "
                    "with cross-checking oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--order", type=int, default=None,
                       help="truncation order (default: the document's)")
        p.add_argument("--allow-high-order", action="store_true",
                       help=f"permit orders above {MAX_UNFORCED_ORDER}")
        p.add_argument("--term-budget", type=int, default=DEFAULT_TERM_BUDGET,
                       help="abort once any series coefficient exceeds "
                            "this many terms")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_solve = sub.add_parser("solve", help="print the truncated series")
    p_solve.add_argument("problem", help="problem document (JSON)")
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_eval = sub.add_parser("eval", help="evaluate the series numerically")
    p_eval.add_argument("problem", help="problem document (JSON)")
    p_eval.add_argument("--ic", required=True,
                        help="name=value bindings (ode) or initial "
                             "expression(s) in the space variables (pde)")
    p_eval.add_argument("--t", required=True, help="comma-separated times")
    p_eval.add_argument("--x", default=None,
                        help="comma-separated sample points (pde)")
    common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run verification checks")
    p_verify.add_argument("problem", nargs="?", default=None,
                          help="problem document to check")
    p_verify.add_argument("--suite",
                          choices=("catalog", "dyson", "homomorphism", "all"),
                          default=None)
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed for the randomized matrix path")
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_attach_dash_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ExpressionBlowup as exc:
        print(f"chronexp: resource limit: {exc}", file=sys.stderr)
        return 2
    except (InputError, UnboundSymbol, DomainError, DivisionByZero,
            NonPolynomialRhs, UnsupportedFunction, NonFiniteValue) as exc:
        print(f"chronexp: error: {exc}", file=sys.stderr)
        return 1
    except ChronexpError as exc:
        print(f"chronexp: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"chronexp: cannot read input: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
