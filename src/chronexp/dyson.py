"""Independent oracles for the time-ordered side of the theory.

Two routes certify the solution operator independently of the Lie-series
machinery:

* the integral form u = c - int_a^t F(tau, u) of an ode, system or pde,
  whose fixed point ``series.compose_terms`` expands one order at a time,
  every field and every jet in one call, and whose Picard iterates are the
  applied opposed-chronological series, and
* a numeric midpoint product integral for linear matrix problems,
  approximating the time-ordered exponential E and its inverse, with the
  inverse identity E_inv * E = I checked in the infinity norm.

Later time factors stand on the left in E; the inverse product carries the
negated generator with earlier factors on the left, so with midpoint-matched
factors the product telescopes exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .errors import NonFiniteValue
from .expr import (
    ONE,
    Expr,
    Fraction,
    TIME,
    _build,
    _scaled,
    _terms,
)
from .lie import DEFAULT_TERM_BUDGET, SeriesSolution
from .parser import ProblemSpec
from .series import OrderCheck, compose_terms, polynomial

if TYPE_CHECKING:
    import numpy as np

MAX_MATRIX_DIM = 16
EXPM_TOL = 1e-13


# ---------------------------------------------------------------------------
# Symbolic Picard-Volterra iteration
# ---------------------------------------------------------------------------

def picard_iterate(p: ProblemSpec, k: int) -> tuple[Expr, ...]:
    """k rounds of u^(j) = c - int_a^t F(tau, u^(j-1)(tau)) dtau with exact
    polynomial integration: per field, a polynomial in (t - a) whose orders
    n <= k agree with the true solution's Taylor coefficients.

    The iterate is untruncated (its degree can reach 2^k scale for
    quadratic rhs), so the rhs must be polynomial in time and fields.
    """
    seeds = [p.jet_symbol(i) for i in range(p.n_fields)]
    columns = [[_terms(seed)] for seed in seeds]
    for _ in range(k):
        # F_i(tau, u(tau)) in powers of w = tau - a, then one integration
        mapped = {TIME: [_terms(p.initial_time), _terms(ONE)]}
        mapped.update(zip(seeds, columns))
        forcings = compose_terms(p.rhs, mapped, None,
                                 term_budget=DEFAULT_TERM_BUDGET)
        columns = [[_terms(seed)] + [_scaled(Fraction(-1, m + 1), cm)
                                     for m, cm in enumerate(forcing)]
                   for seed, forcing in zip(seeds, forcings)]
    return tuple(polynomial([_build(c) for c in column], p.initial_time)
                 for column in columns)


# ---------------------------------------------------------------------------
# Equivalence of the two solution forms
# ---------------------------------------------------------------------------

def chron_equiv_check(sol: SeriesSolution,
                      term_budget: int = DEFAULT_TERM_BUDGET) -> OrderCheck:
    """Compare the fixed point of the integral form through sol.order, whose
    coefficients are those of picard_iterate(sol.problem, sol.order), with
    the solved Lie series term by term, from order 0.
    """
    p = sol.problem
    fields = {p.jet_symbol(i): rhs for i, rhs in enumerate(p.rhs)}
    mapped = {TIME: [_terms(p.initial_time), _terms(ONE)]}
    picard = compose_terms(list(fields), mapped, sol.order, fields,
                           term_budget)
    return OrderCheck.of(
        p.field_names, 0,
        [[mine == theirs for mine, theirs in zip(column, sol.terms[i])]
         for i, column in enumerate(picard)],
        "chronological and exponential series agree exactly "
        "through order {last}",
        "series disagree for field {field} at order {order}")


# ---------------------------------------------------------------------------
# Matrix product integrals
#
# Each function imports numpy itself, so that importing the package and the
# series commands (solve, eval, verify of a problem file) never load it. A
# path's factors are exponentiated as one stack, bit-identical to one by one.
# The log-log slope fit of a convergence study lives here too, numpy's one
# other user.
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
        import numpy as np

        # Zero-length path: empty grid, the ordered product is empty and
        # both exponentials are the identity.
        if self.end == self.start:
            return np.empty(0)
        return self.start + self.h * (np.arange(self.steps) + 0.5)


def _expm_stack(ms: np.ndarray, tol: float = EXPM_TOL) -> np.ndarray:
    """Moler & Van Loan's scaling and squaring, per matrix of a stack."""
    import numpy as np

    norms = abs(ms).sum(axis=2, keepdims=True).max(axis=1, keepdims=True)
    squarings = np.ceil(np.log2(np.maximum(norms, 0.5) / 0.5)).astype(int)
    scaled = np.ldexp(ms, -squarings)
    result = np.broadcast_to(np.eye(ms.shape[1]), ms.shape).copy()
    term, running = result.copy(), np.ones(len(ms), dtype=bool)
    for k in range(1, 64):
        term = term @ scaled / k
        np.add(result, term, out=result, where=running[:, None, None])
        running &= abs(term).sum(axis=2).max(axis=1) > tol
        if not running.any():
            break
    for s in range(squarings.max(initial=0)):
        np.copyto(result, result @ result, where=squarings > s)
    return result


def _midpoint_factors(path: MatrixPath, scale: float) -> np.ndarray:
    """exp(scale * L(tau)) at every midpoint tau, as one (K, d, d) stack."""
    import numpy as np

    taus, d = path.midpoints(), path.dimension
    stack = scale * np.fromiter(map(path.sampler, taus), (float, (d, d)),
                                len(taus))
    with np.errstate(over="ignore"):   # NaN, inf or a norm past the range
        finite = np.isfinite(abs(stack).sum(axis=2) / 0.5).all(axis=1)
    if not finite.all():
        tau = float(taus[finite.argmin()])
        raise NonFiniteValue(f"the generator is not finite at tau = {tau}")
    return _expm_stack(stack)


def matrix_texp(path: MatrixPath) -> np.ndarray:
    """Midpoint product integral for E with later time factors left:
    E = exp(h L_K) ... exp(h L_1), L_k = L at the k-th midpoint.
    """
    import numpy as np

    out = np.eye(path.dimension)
    for factor in _midpoint_factors(path, path.h):
        out = factor @ out
    return out


def matrix_texp_inverse(path: MatrixPath) -> np.ndarray:
    """The opposed ordering with negated generator, earlier factors left:
    E_inv = exp(-h L_1) ... exp(-h L_K).
    """
    import numpy as np

    out = np.eye(path.dimension)
    for factor in _midpoint_factors(path, -path.h):
        out = out @ factor
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
    import numpy as np

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
    import numpy as np

    counts = [max(1, round((end - start) / h)) for h in step_sizes]
    # One product per step count: the fine grid of one step size is often
    # the coarse grid of another (h/2 = 5e-2 for h = 1e-1).
    products = {n: matrix_texp(MatrixPath(dimension, start, end, n, sampler))
                for n in {m * k for k in counts for m in (1, 2)}}
    used = [(end - start) / k for k in counts]
    errors = [float(np.linalg.norm(products[k] - products[2 * k], np.inf))
              for k in counts]
    return ConvergenceReport(step_sizes=tuple(used), errors=tuple(errors),
                             slope=convergence_slope(used, errors))


def convergence_slope(offsets: list[float], errors: list[float]) -> float:
    """Least-squares slope of log error against log offset."""
    pairs = [(dt, err) for dt, err in zip(offsets, errors) if err > 0.0]
    if len(pairs) < 2:
        raise ValueError("need at least two nonzero errors for a slope")
    import numpy as np

    xs = np.log([dt for dt, _ in pairs])
    ys = np.log([err for _, err in pairs])
    return float(np.polyfit(xs, ys, 1)[0])


# ---------------------------------------------------------------------------
# Stock test paths
# ---------------------------------------------------------------------------

def airy_path(start: float = 0.0, end: float = 1.0,
              h: float = 1e-2) -> MatrixPath:
    """Oscillator with linearly growing stiffness: L = [[0, 1], [-tau, 0]]."""
    import numpy as np

    def sampler(tau: float) -> np.ndarray:
        return np.array([[0.0, 1.0], [-tau, 0.0]])

    return MatrixPath(2, start, end, max(1, round((end - start) / h)), sampler)


def random_path(seed: int = 0, dimension: int = 4, start: float = 0.0,
                end: float = 1.0, h: float = 1e-2) -> MatrixPath:
    """Smooth random path: fixed trigonometric mix drawn from the seed."""
    import random
    import numpy as np

    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = random.Random(seed)
    draws = [rng.uniform(-1.0, 1.0) for _ in range(3 * dimension ** 2)]
    base, sin_amp, cos_amp = np.reshape(draws, (3, dimension, dimension))

    def sampler(tau: float) -> np.ndarray:
        return base + np.sin(tau) * sin_amp + np.cos(2.0 * tau) * cos_amp

    return MatrixPath(dimension, start, end,
                      max(1, round((end - start) / h)), sampler)
