"""Independent oracles for the time-ordered side of the theory.

Two routes certify the solution operator independently of the Lie-series
machinery:

* symbolic Picard iteration on the integral form u = c - int_a^t F(tau, u),
  whose iterated integrals are the applied opposed-chronological series, and
* a numeric midpoint product integral for linear matrix problems,
  approximating the time-ordered exponential E and its inverse, with the
  inverse identity E_inv * E = I checked in the infinity norm.

Later time factors stand on the left in E; the inverse product carries the
negated generator with earlier factors on the left, so with midpoint-matched
factors the product telescopes exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ExpressionBlowup, NonPolynomialRhs
from .expr import (
    Add,
    Const,
    Expr,
    Fraction,
    Mul,
    Pow,
    Sym,
    SymbolKind,
    TIME,
    ZERO,
    _terms,
    normalize,
    symbols_of,
    term_count,
)
from .lie import (
    DEFAULT_TERM_BUDGET,
    build_generator,
    lie_coefficients,
    taylor_coefficients,
)
from .parser import ProblemSpec

MAX_MATRIX_DIM = 16
EXPM_TOL = 1e-13


# ---------------------------------------------------------------------------
# Symbolic Picard-Volterra iteration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PicardIterate:
    """Iterate u^(k): per-field polynomial in (t - a) with jet coefficients.
    Orders n <= k agree with the true solution's Taylor coefficients.
    """

    problem: ProblemSpec
    k: int
    fields: tuple[Expr, ...]


def _require_polynomial_rhs(p: ProblemSpec) -> None:
    for fname, rhs in zip(p.field_names, p.rhs):
        for symbol in symbols_of(rhs):
            if symbol.kind == SymbolKind.JET and any(symbol.orders):
                raise NonPolynomialRhs(
                    f"rhs['{fname}'] contains derivative jets; the Picard "
                    "oracle covers ode and system problems only")
        for mono, _ in _terms(rhs).items():
            for atom, exponent in mono:
                evolving = any(
                    s.kind in (SymbolKind.TIME, SymbolKind.JET)
                    for s in symbols_of(atom))
                if not evolving:
                    continue
                if not isinstance(atom, Sym) or exponent < 0:
                    raise NonPolynomialRhs(
                        f"rhs['{fname}'] is not polynomial in time and "
                        f"fields (atom {atom!r})")


def _poly_mul(a: list[Expr], b: list[Expr],
              cap: int | None) -> list[Expr]:
    size = len(a) + len(b) - 1
    if cap is not None:
        size = min(size, cap + 1)
    buckets: list[list[Expr]] = [[] for _ in range(size)]
    for i, ai in enumerate(a):
        if ai == ZERO or i >= size:
            continue
        for j, bj in enumerate(b):
            if i + j >= size:
                break
            if bj == ZERO:
                continue
            buckets[i + j].append(Mul((ai, bj)))
    return [normalize(Add(tuple(bucket))) if bucket else ZERO
            for bucket in buckets]


def _poly_compose(rhs: Expr, state: dict, cap: int | None) -> list[Expr]:
    """Coefficients of F(tau, u(tau)) in powers of w = tau - a, where state
    maps the time symbol and every bare jet to its coefficient list.
    """
    total: list[Expr] = [ZERO]
    for mono, coeff in _terms(rhs).items():
        term: list[Expr] = [Const(coeff)]
        for atom, exponent in mono:
            series = None
            if isinstance(atom, Sym):
                series = state.get(atom.symbol)
            if series is None:
                constant = normalize(Pow(atom, exponent))
                term = [normalize(Mul((constant, t))) for t in term]
                continue
            for _ in range(exponent):
                term = _poly_mul(term, series, cap)
        if len(term) > len(total):
            total += [ZERO] * (len(term) - len(total))
        total = [normalize(Add((t, term[n]))) if n < len(term) else t
                 for n, t in enumerate(total)]
    return total


def picard_iterate(p: ProblemSpec, k: int, max_degree: int | None = None,
                   term_budget: int = DEFAULT_TERM_BUDGET) -> PicardIterate:
    """k rounds of u^(j) = c - int_a^t F(tau, u^(j-1)(tau)) dtau with exact
    polynomial integration.

    By default the iterate is untruncated (its degree can reach 2^k scale
    for quadratic rhs); max_degree drops powers of (t - a) beyond the bound,
    which cannot change the coefficients at or below it, since degrees only
    grow under multiplication and integration.
    """
    columns = _picard_columns(p, k, max_degree, term_budget)
    fields = tuple(_assemble_poly(column, p.initial_time)
                   for column in columns)
    return PicardIterate(problem=p, k=k, fields=fields)


def _picard_columns(p: ProblemSpec, k: int, max_degree: int | None,
                    term_budget: int) -> list[list[Expr]]:
    """The coefficients of (t - a)^n of every field of picard_iterate's
    k-th iterate, lowest order first.
    """
    _require_polynomial_rhs(p)
    n = p.n_fields
    # shifted time: rhs as polynomial in w = t - a via t -> w + a
    shifted_rhs = tuple(
        taylor_coefficients(rhs, p.initial_time, _time_degree(rhs))
        for rhs in p.rhs)
    seeds = [Sym(p.jet_symbol(i)) for i in range(n)]
    columns: list[list[Expr]] = [[seed] for seed in seeds]
    for _ in range(k):
        state = {p.jet_symbol(i): columns[i] for i in range(n)}
        new_columns = []
        for i in range(n):
            # F_i(w + a, u) as a polynomial in w, then one integration
            composed = _poly_compose_shifted(shifted_rhs[i], state, max_degree)
            integrated = [ZERO] + [
                normalize(Mul((Const(Fraction(1, m + 1)), cm)))
                for m, cm in enumerate(composed)
                if max_degree is None or m + 1 <= max_degree]
            column = [seeds[i]] + [
                normalize(Mul((Const(Fraction(-1)), cm)))
                for cm in integrated[1:]]
            for coeff in column:
                if term_count(coeff) > term_budget:
                    raise ExpressionBlowup(
                        f"Picard iterate exceeds {term_budget} monomials")
            new_columns.append(column)
        columns = new_columns
    return columns


def _time_degree(rhs: Expr) -> int:
    degree = 0
    for mono, _ in _terms(rhs).items():
        for atom, exponent in mono:
            if atom == Sym(TIME):
                degree = max(degree, exponent)
    return degree


def _poly_compose_shifted(rhs_w_coeffs: list[Expr], state: dict,
                          cap: int | None) -> list[Expr]:
    """Compose sum_d q_d(jets) w^d with the jet series in state."""
    total: list[Expr] = [ZERO]
    for d, q in enumerate(rhs_w_coeffs):
        if q == ZERO or (cap is not None and d > cap):
            continue
        piece = _poly_compose(q, state, None if cap is None else cap - d)
        shifted = [ZERO] * d + piece
        if len(shifted) > len(total):
            total += [ZERO] * (len(shifted) - len(total))
        total = [normalize(Add((t, shifted[n]))) if n < len(shifted) else t
                 for n, t in enumerate(total)]
    return total


def _assemble_poly(coeffs: list[Expr], point: Expr) -> Expr:
    tau = Add((Sym(TIME), Mul((Const(Fraction(-1)), point))))
    parts = [Mul((c, Pow(tau, n))) if n else c
             for n, c in enumerate(coeffs) if c != ZERO]
    if not parts:
        return ZERO
    return normalize(Add(tuple(parts)))


# ---------------------------------------------------------------------------
# Equivalence of the two solution forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceReport:
    """Per-order exact agreement of the Picard (chronological) route and
    the Lie-series (ordinary-exponent) route.
    """

    field_names: tuple[str, ...]
    order: int
    orders_equal: tuple[tuple[bool, ...], ...]   # [field][n]
    passed: bool
    failing_field: str | None
    failing_order: int | None

    def summary(self) -> str:
        if self.passed:
            return (f"chronological and exponential series agree exactly "
                    f"through order {self.order}")
        return (f"series disagree for field {self.failing_field} "
                f"at order {self.failing_order}")


def chron_equiv_check(p: ProblemSpec, order: int) -> EquivalenceReport:
    """Compare the coefficients of picard_iterate(p, order) and
    lie_coefficients term by term.
    """
    picard = _picard_columns(p, order, order, DEFAULT_TERM_BUDGET)
    series = lie_coefficients(build_generator(p), order)
    rows = []
    failing_field = None
    failing_order = None
    for i in range(p.n_fields):
        picard_coeffs = picard[i] + [ZERO] * (order + 1 - len(picard[i]))
        row = tuple(picard_coeffs[n] == series.coeffs[i][n]
                    for n in range(order + 1))
        rows.append(row)
        for n, ok in enumerate(row):
            if not ok and (failing_order is None or n < failing_order):
                failing_order = n
                failing_field = p.field_names[i]
    return EquivalenceReport(
        field_names=p.field_names,
        order=order,
        orders_equal=tuple(rows),
        passed=failing_order is None,
        failing_field=failing_field,
        failing_order=failing_order,
    )


# ---------------------------------------------------------------------------
# Matrix product integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixPath:
    """Uniform grid start = tau_0 < ... < tau_K = end with a matrix sampler
    L(tau); the linear test bench for the ordered exponentials.
    """

    dimension: int
    start: float
    end: float
    steps: int
    sampler: Callable[[float], np.ndarray]

    def __post_init__(self):
        if not 1 <= self.dimension <= MAX_MATRIX_DIM:
            raise ValueError(
                f"dimension must be in 1..{MAX_MATRIX_DIM}")
        if self.steps < 1:
            raise ValueError("at least one step is required")
        if self.end < self.start:
            raise ValueError("end must not precede start")

    @property
    def h(self) -> float:
        return (self.end - self.start) / self.steps

    def midpoints(self) -> np.ndarray:
        # Zero-length path: empty grid, the ordered product is empty and
        # both exponentials are the identity.
        if self.end == self.start:
            return np.empty(0)
        h = self.h
        return self.start + h * (np.arange(self.steps) + 0.5)


def _expm(m: np.ndarray, tol: float = EXPM_TOL) -> np.ndarray:
    """Scaling-and-squaring truncated-series matrix exponential."""
    norm = np.linalg.norm(m, np.inf)
    squarings = 0 if norm <= 0.5 else int(np.ceil(np.log2(norm / 0.5)))
    scaled = m / (2 ** squarings)
    result = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, 64):
        term = term @ scaled / k
        result = result + term
        if np.linalg.norm(term, np.inf) <= tol:
            break
    for _ in range(squarings):
        result = result @ result
    return result


def matrix_texp(path: MatrixPath) -> np.ndarray:
    """Midpoint product integral for E with later time factors left:
    E = exp(h L_K) ... exp(h L_1), L_k = L at the k-th midpoint.
    """
    h = path.h
    out = np.eye(path.dimension)
    for tau in path.midpoints():
        out = _expm(h * np.asarray(path.sampler(tau), dtype=float)) @ out
    return out


def matrix_texp_inverse(path: MatrixPath) -> np.ndarray:
    """The opposed ordering with negated generator, earlier factors left:
    E_inv = exp(-h L_1) ... exp(-h L_K).
    """
    h = path.h
    out = np.eye(path.dimension)
    for tau in path.midpoints():
        out = out @ _expm(-h * np.asarray(path.sampler(tau), dtype=float))
    return out


@dataclass(frozen=True)
class InverseIdentityReport:
    dimension: int
    steps: int
    norm: float
    tolerance: float
    passed: bool

    def summary(self) -> str:
        status = "holds" if self.passed else "FAILS"
        return (f"inverse identity {status}: |E_inv E - I| = {self.norm:.3e} "
                f"(tolerance {self.tolerance:.1e})")


def check_inverse_identity(path: MatrixPath,
                           tolerance: float = 1e-11) -> InverseIdentityReport:
    """Infinity norm of E_inv * E - I; telescopes to near machine precision
    for midpoint-matched factors regardless of h.
    """
    product = matrix_texp_inverse(path) @ matrix_texp(path)
    norm = float(np.linalg.norm(product - np.eye(path.dimension), np.inf))
    return InverseIdentityReport(
        dimension=path.dimension,
        steps=path.steps,
        norm=norm,
        tolerance=tolerance,
        passed=norm <= tolerance,
    )


@dataclass(frozen=True)
class ConvergenceReport:
    step_sizes: tuple[float, ...]
    errors: tuple[float, ...]
    slope: float

    def summary(self) -> str:
        return f"product-integral self-convergence slope {self.slope:.3f}"


def texp_self_convergence(sampler: Callable[[float], np.ndarray],
                          dimension: int, start: float, end: float,
                          step_sizes: list[float]) -> ConvergenceReport:
    """Error of E at step h against E at step h/2, log-log slope over the
    given step sizes (midpoint rule: slope near 2).
    """
    used = []
    errors = []
    for h in step_sizes:
        steps = max(1, round((end - start) / h))
        coarse = matrix_texp(MatrixPath(dimension, start, end, steps, sampler))
        fine = matrix_texp(MatrixPath(dimension, start, end, 2 * steps, sampler))
        used.append((end - start) / steps)
        errors.append(float(np.linalg.norm(coarse - fine, np.inf)))
    slope = float(np.polyfit(np.log(used), np.log(errors), 1)[0])
    return ConvergenceReport(
        step_sizes=tuple(used), errors=tuple(errors), slope=slope)


# ---------------------------------------------------------------------------
# Stock test paths
# ---------------------------------------------------------------------------

def airy_path(start: float = 0.0, end: float = 1.0,
              h: float = 1e-2) -> MatrixPath:
    """Oscillator with linearly growing stiffness: L = [[0, 1], [-tau, 0]]."""

    def sampler(tau: float) -> np.ndarray:
        return np.array([[0.0, 1.0], [-tau, 0.0]])

    return MatrixPath(2, start, end, max(1, round((end - start) / h)), sampler)


def random_path(seed: int = 0, dimension: int = 4, start: float = 0.0,
                end: float = 1.0, h: float = 1e-2) -> MatrixPath:
    """Smooth random path: fixed trigonometric mix drawn from the seed."""
    rng = np.random.default_rng(seed)
    base, sin_amp, cos_amp = rng.uniform(-1.0, 1.0, (3, dimension, dimension))

    def sampler(tau: float) -> np.ndarray:
        return base + np.sin(tau) * sin_amp + np.cos(2.0 * tau) * cos_amp

    return MatrixPath(dimension, start, end,
                      max(1, round((end - start) / h)), sampler)
