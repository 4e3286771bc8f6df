"""chronexp: symbolic series solutions of Cauchy problems du/dt + F = 0.

The series is produced by iterating a derivation on the initial data and
is cross-checked three independent ways: substitution back into the
defining equation, an integral-equation fixed-point iteration, and
numeric reference integrators.
"""

from .errors import (
    ChronexpError,
    DivisionByZero,
    DomainError,
    ExpressionBlowup,
    InputError,
    MixedDerivativeOrderTooHigh,
    NonFiniteValue,
    NonPolynomialRhs,
    ParseError,
    SchemaError,
    UnboundSymbol,
    UnknownIdentifier,
    UnsupportedFunction,
    ValidationError,
)
from .expr import (
    AUX,
    Add,
    Const,
    Expr,
    Func,
    INITIAL_TIME,
    MINUS_ONE,
    Mul,
    ONE,
    Pow,
    Sym,
    Symbol,
    SymbolKind,
    TIME,
    ZERO,
    coefficients_in,
    const,
    diff,
    eval_num,
    free_param,
    jet,
    jets_of,
    normalize,
    space_var,
    subst,
    subst_many,
    symbols_of,
    term_count,
)
from .parser import (
    ProblemSpec,
    SourceSpan,
    SymbolContext,
    build_context,
    parse_expression,
    parse_problem,
    render,
)
from .lie import (
    Generator,
    HomomorphismReport,
    ResidualReport,
    SeriesSolution,
    apply_generator,
    apply_series_to_function,
    assemble_series,
    build_generator,
    check_homomorphism,
    compose_with_series,
    eval_series,
    initial_jet_bindings,
    lie_coefficients,
    residual_check,
    taylor_coefficients,
    total_derivative,
)
from .dyson import (
    EquivalenceReport,
    InverseIdentityReport,
    MatrixPath,
    PicardIterate,
    airy_path,
    check_inverse_identity,
    chron_equiv_check,
    matrix_texp,
    matrix_texp_inverse,
    picard_iterate,
    random_path,
    texp_self_convergence,
)
from .reference import (
    CatalogEntry,
    ErrorTable,
    catalog,
    catalog_entry,
    compare_series_to_reference,
    convergence_slope,
    rk4_solve,
)

__version__ = "0.1.0"
