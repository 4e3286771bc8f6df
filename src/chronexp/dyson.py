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
    ONE,
    Const,
    Expr,
    Fraction,
    Mul,
    Sym,
    SymbolKind,
    TIME,
    ZERO,
    normalize,
    symbols_of,
    term_count,
)
from .lie import DEFAULT_TERM_BUDGET, build_generator, lie_coefficients
from .parser import ProblemSpec
from .series import compose, polynomial

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


def _require_ode(p: ProblemSpec) -> None:
    for fname, rhs in zip(p.field_names, p.rhs):
        for symbol in symbols_of(rhs):
            if symbol.kind == SymbolKind.JET and any(symbol.orders):
                raise NonPolynomialRhs(
                    f"rhs['{fname}'] contains derivative jets; the Picard "
                    "oracle covers ode and system problems only")


def picard_iterate(p: ProblemSpec, k: int, max_degree: int | None = None,
                   term_budget: int = DEFAULT_TERM_BUDGET) -> PicardIterate:
    """k rounds of u^(j) = c - int_a^t F(tau, u^(j-1)(tau)) dtau with exact
    polynomial integration.

    By default the iterate is untruncated (its degree can reach 2^k scale
    for quadratic rhs), so the rhs must be polynomial in time and fields.
    max_degree drops powers of (t - a) beyond the bound, which cannot
    change the coefficients at or below it; any rhs is then accepted.
    """
    columns = _picard_columns(p, k, max_degree, term_budget)
    fields = tuple(polynomial(column, p.initial_time) for column in columns)
    return PicardIterate(problem=p, k=k, fields=fields)


def _picard_columns(p: ProblemSpec, k: int, max_degree: int | None,
                    term_budget: int) -> list[list[Expr]]:
    """The coefficients of (t - a)^n of every field of picard_iterate's
    k-th iterate, lowest order first.
    """
    _require_ode(p)
    seeds = [Sym(p.jet_symbol(i)) for i in range(p.n_fields)]
    top = None if max_degree is None else max_degree - 1
    columns: list[list[Expr]] = [[seed] for seed in seeds]
    for _ in range(k):
        # F_i(tau, u(tau)) in powers of w = tau - a, then one integration
        mapped = {TIME: [p.initial_time, ONE]}
        mapped.update((seed.symbol, column)
                      for seed, column in zip(seeds, columns))
        new_columns = []
        for seed, rhs in zip(seeds, p.rhs):
            composed = compose(rhs, mapped, top)
            column = [seed] + [
                normalize(Mul((Const(Fraction(-1, m + 1)), cm)))
                for m, cm in enumerate(composed)]
            for coeff in column:
                if term_count(coeff) > term_budget:
                    raise ExpressionBlowup(
                        f"Picard iterate exceeds {term_budget} monomials")
            new_columns.append(column)
        columns = new_columns
    return columns


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
