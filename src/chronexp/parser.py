"""Text front-end: expression grammar, problem documents, rendering.

Grammar (UTF-8 text):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          (right-associative, integer value)
    atom   := number | name | name '(' expr ')' | '(' expr ')'

Numbers are integers, decimals, or a/b rationals, all read exactly.  A name
is classified against the problem context: the time variable, a space
variable, a field (mapped to the bare initial-data jet of that field), an
initial-data alias (``c`` or ``c1``, ``c2``, ...), a free parameter, or the
symbolic initial time.  A field or alias followed by an underscore and
space-variable letters denotes a derivative jet: ``u_xx`` is the second
x-derivative of the initial data of field ``u``.

A problem document is a JSON object with keys ``kind``, ``time`` (object
with ``name`` and ``initial``), ``space`` (optional), ``fields``, ``rhs``,
``order``, ``params`` (optional); unknown keys are rejected.  The ``rhs``
entry for a field stores F_i in the sign convention

    du_i/dt + F_i = 0.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Mapping

from .errors import (
    MixedDerivativeOrderTooHigh,
    ParseError,
    SchemaError,
    UnknownIdentifier,
    ValidationError,
)
from .expr import (
    Const,
    ELEMENTARY,
    Expr,
    Func,
    INITIAL_TIME,
    Mul,
    Pow,
    Sym,
    Symbol,
    SymbolKind,
    TIME,
    Add,
    jet,
    normalize,
    space_var,
    symbols_of,
    free_param,
)
from .render import format_expr, spell_symbol

MAX_JET_ORDER = 8

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9]*$")


@dataclass(frozen=True)
class SourceSpan:
    """Byte offsets [start, end) into the source text."""

    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError("span start exceeds end")


# ---------------------------------------------------------------------------
# Symbol context
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolContext:
    """Name resolution tables for one problem's expressions."""

    names: Mapping[str, Symbol]        # simple identifiers
    field_bases: Mapping[str, int]     # names that accept a jet suffix
    space_indices: Mapping[str, int]   # single-letter space variables
    max_jet_order: int = MAX_JET_ORDER


def _initial_alias(index: int, n_fields: int) -> str:
    return "c" if n_fields == 1 else f"c{index + 1}"


def build_context(
    time_name: str,
    field_names: tuple[str, ...],
    space_names: tuple[str, ...] = (),
    param_names: tuple[str, ...] = (),
    initial_name: str | None = None,
    max_jet_order: int = MAX_JET_ORDER,
) -> SymbolContext:
    """Assemble the resolution tables; raises ValidationError on bad or
    colliding names.  Every field gets an initial-data alias next to its
    declared name, so both spellings of a jet parse to the same symbol.
    """
    names: dict[str, Symbol] = {}
    field_bases: dict[str, int] = {}
    space_indices: dict[str, int] = {}
    zeros = (0,) * len(space_names)

    def declare(name: str, symbol: Symbol, what: str) -> None:
        if not _NAME_RE.match(name):
            raise ValidationError(f"invalid {what} name '{name}'")
        if name in ELEMENTARY:
            raise ValidationError(f"{what} name '{name}' is a reserved function")
        clash = names.get(name)
        if clash is not None and clash != symbol:
            raise ValidationError(f"{what} name '{name}' collides with another symbol")
        names[name] = symbol

    declare(time_name, Sym(TIME).symbol, "time")
    if initial_name is not None:
        declare(initial_name, INITIAL_TIME, "initial-time")
    for j, sname in enumerate(space_names):
        if len(sname) != 1:
            raise ValidationError(
                f"space variable '{sname}' must be a single letter")
        declare(sname, space_var(j), "space")
        space_indices[sname] = j
    for k, fname in enumerate(field_names):
        symbol = jet(k, zeros)
        declare(fname, symbol, "field")
        field_bases[fname] = k
    for pname in param_names:
        declare(pname, free_param(pname), "parameter")
    for k, fname in enumerate(field_names):
        alias = _initial_alias(k, len(field_names))
        symbol = jet(k, zeros)
        declare(alias, symbol, "initial-data alias")
        field_bases.setdefault(alias, k)
        if field_bases[alias] != k:
            raise ValidationError(
                f"initial-data alias '{alias}' collides with field "
                f"'{field_names[field_bases[alias]]}'")
    return SymbolContext(names, field_bases, space_indices, max_jet_order)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>\d+(?:\.\d+)?)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9]*(?:_[A-Za-z0-9]+)?)"
    r"|(?P<op>[-+*/^()])"
)


@dataclass(frozen=True)
class _Token:
    kind: str   # num | name | op | end
    text: str
    start: int
    end: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end)


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r} at offset {pos}",
                SourceSpan(pos, pos + 1))
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        out.append(_Token(m.lastgroup, m.group(), m.start(), m.end()))
    out.append(_Token("end", "", len(text), len(text)))
    return out


# ---------------------------------------------------------------------------
# Recursive-descent parser
# ---------------------------------------------------------------------------

def _negate(e: Expr) -> Expr:
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Mul) and e.factors and isinstance(e.factors[0], Const):
        head = Const(-e.factors[0].value)
        rest = e.factors[1:]
        if head.value == 1 and rest:
            return rest[0] if len(rest) == 1 else Mul(rest)
        return Mul((head, *rest))
    if isinstance(e, Mul):
        return Mul((Const(Fraction(-1)), *e.factors))
    return Mul((Const(Fraction(-1)), e))


def _invert(e: Expr, span: SourceSpan) -> Expr:
    if isinstance(e, Const):
        if e.value == 0:
            raise ParseError("division by zero", span)
        return Const(1 / e.value)
    if isinstance(e, Pow):
        return Pow(e.base, -e.exponent)
    return Pow(e, -1)


class _Parser:
    def __init__(self, text: str, ctx: SymbolContext):
        self.text = text
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected '{op}', found {tok.text!r}", tok.span)
        return self.take()

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing {tok.text!r}", tok.span)
        return e

    def expr(self) -> Expr:
        terms = [self.term()]
        while self.at_op("+", "-"):
            op = self.take().text
            t = self.term()
            terms.append(_negate(t) if op == "-" else t)
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def term(self) -> Expr:
        factors: list[Expr] = []

        def push(f: Expr) -> None:
            # keep the tree flat and fold literal runs, so -t*c^2 becomes
            # Mul(Const(-1), t, Pow(c, 2)) and 1/2*c becomes Mul(Const(1/2), c)
            if isinstance(f, Mul):
                for g in f.factors:
                    push(g)
            elif isinstance(f, Const) and factors and isinstance(factors[-1], Const):
                factors[-1] = Const(factors[-1].value * f.value)
            else:
                factors.append(f)

        push(self.unary())
        while self.at_op("*", "/"):
            op = self.take()
            f = self.unary()
            if op.text == "/":
                f = _invert(f, op.span)
            push(f)
        if len(factors) == 1:
            return factors[0]
        return Mul(tuple(factors))

    def unary(self) -> Expr:
        if self.at_op("-"):
            self.take()
            return _negate(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if not self.at_op("^"):
            return base
        caret = self.take()
        start = self.peek().start
        exp_node = self.unary()
        end = self.tokens[self.pos - 1].end
        folded = normalize(exp_node)
        if not (isinstance(folded, Const) and folded.value.denominator == 1):
            raise ParseError("exponent must be an integer constant",
                             SourceSpan(start, end))
        n = int(folded.value)
        if isinstance(base, Const):
            if base.value == 0 and n < 0:
                raise ParseError("zero raised to a negative power", caret.span)
            return Const(base.value ** n)
        return Pow(base, n)

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "(":
            self.take()
            inner = self.expr()
            self.expect_op(")")
            return inner
        if tok.kind == "num":
            self.take()
            return Const(Fraction(tok.text))
        if tok.kind == "name":
            self.take()
            if tok.text in ELEMENTARY:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Func(tok.text, arg)
            return Sym(self.classify(tok))
        raise ParseError(f"expected an expression, found {tok.text!r}"
                         if tok.kind != "end" else "unexpected end of input",
                         tok.span)

    def classify(self, tok: _Token) -> Symbol:
        name = tok.text
        base, _, suffix = name.partition("_")
        if not suffix:
            symbol = self.ctx.names.get(name)
            if symbol is None:
                raise UnknownIdentifier(f"unknown identifier '{name}'", tok.span)
            return symbol
        field_index = self.ctx.field_bases.get(base)
        if field_index is None:
            raise UnknownIdentifier(
                f"'{base}' is not a field, so '{name}' is not a jet", tok.span)
        if not self.ctx.space_indices:
            raise ValidationError(
                f"'{name}': derivative jets need space variables", tok.span)
        orders = [0] * (max(self.ctx.space_indices.values()) + 1)
        for letter in suffix:
            j = self.ctx.space_indices.get(letter)
            if j is None:
                raise UnknownIdentifier(
                    f"'{letter}' in '{name}' is not a space variable", tok.span)
            orders[j] += 1
        if sum(orders) > self.ctx.max_jet_order:
            raise MixedDerivativeOrderTooHigh(
                f"'{name}' exceeds the derivative-order cap "
                f"{self.ctx.max_jet_order}", tok.span)
        return jet(field_index, tuple(orders))


def parse_expression(text: str, ctx: SymbolContext | "ProblemSpec") -> Expr:
    """Parse ``text`` against a symbol context (or a problem, whose context
    is derived).  Returns the raw tree with literal constants folded; run
    ``normalize`` for the canonical form.
    """
    if isinstance(ctx, ProblemSpec):
        ctx = ctx.context()
    return _Parser(text, ctx).parse()


# ---------------------------------------------------------------------------
# Problem documents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemSpec:
    """A Cauchy problem du_i/dt + F_i = 0, u_i(a) = c_i (or c_i(x))."""

    kind: str                        # "ode" | "system" | "pde"
    time_name: str
    initial_time: Expr               # Const, or Sym of the symbolic point
    initial_name: str | None
    space_names: tuple[str, ...]
    field_names: tuple[str, ...]
    param_names: tuple[str, ...]
    rhs: tuple[Expr, ...]            # F_i by field index, normalized
    order: int

    @property
    def n_fields(self) -> int:
        return len(self.field_names)

    @property
    def zero_orders(self) -> tuple[int, ...]:
        return (0,) * len(self.space_names)

    def jet_symbol(self, index: int, orders: tuple[int, ...] | None = None) -> Symbol:
        return jet(index, self.zero_orders if orders is None else orders)

    def initial_alias(self, index: int) -> str:
        return _initial_alias(index, self.n_fields)

    def context(self, max_jet_order: int = MAX_JET_ORDER) -> SymbolContext:
        return build_context(
            self.time_name, self.field_names, self.space_names,
            self.param_names, self.initial_name,
            max_jet_order=max_jet_order)

    def namer(self, style: str = "initial") -> Callable[[Symbol], str]:
        """Symbol-spelling function for render: style 'initial' writes jets
        as initial-data aliases (c, c_xx), style 'field' as field names.
        """
        if style == "field":
            jet_bases = self.field_names
        elif style == "initial":
            jet_bases = tuple(map(self.initial_alias, range(self.n_fields)))
        else:
            raise ValueError(f"unknown render style '{style}'")
        return partial(spell_symbol, time=self.time_name,
                       initial=self.initial_name or "a",
                       space=self.space_names, jet_bases=jet_bases)


_TOP_KEYS = {"kind", "time", "space", "fields", "rhs", "order", "params"}
_TIME_KEYS = {"name", "initial"}


def _require(doc: dict, key: str, kind: type, what: str):
    if key not in doc:
        raise SchemaError(f"{what}: missing key '{key}'")
    value = doc[key]
    if kind is int:
        # bool is an int subclass; reject it explicitly
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"{what}: key '{key}' must be an integer")
        return value
    if not isinstance(value, kind):
        raise SchemaError(
            f"{what}: key '{key}' must be of type {kind.__name__}")
    return value


def _string_list(doc: dict, key: str, what: str) -> tuple[str, ...]:
    value = doc.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise SchemaError(f"{what}: key '{key}' must be a list of strings")
    return tuple(value)


def parse_problem(doc: str, fmt: str = "json") -> ProblemSpec:
    """Parse and fully validate a problem document."""
    if fmt != "json":
        raise SchemaError(f"unsupported document format '{fmt}'")
    try:
        data = json.loads(doc)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"document is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SchemaError("document root must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise SchemaError(f"unknown document keys: {sorted(unknown)}")

    kind = _require(data, "kind", str, "document")
    if kind not in ("ode", "system", "pde"):
        raise ValidationError(f"unknown problem kind '{kind}'")

    time_obj = _require(data, "time", dict, "document")
    unknown = set(time_obj) - _TIME_KEYS
    if unknown:
        raise SchemaError(f"unknown time keys: {sorted(unknown)}")
    time_name = _require(time_obj, "name", str, "time")
    if "initial" not in time_obj:
        raise SchemaError("time: missing key 'initial'")
    raw_initial = time_obj["initial"]
    if isinstance(raw_initial, bool) or not isinstance(raw_initial, (str, int)):
        raise SchemaError("time: key 'initial' must be a string or integer")

    initial_name: str | None = None
    initial_text = str(raw_initial)
    try:
        initial_time: Expr = Const(Fraction(initial_text))
    except (ValueError, ZeroDivisionError):
        if not _NAME_RE.match(initial_text):
            raise ValidationError(
                f"initial time '{initial_text}' is neither a rational "
                "number nor an identifier") from None
        initial_name = initial_text
        initial_time = Sym(INITIAL_TIME)

    space_names = _string_list(data, "space", "document")
    if "fields" not in data:
        raise SchemaError("document: missing key 'fields'")
    field_names = _string_list(data, "fields", "document")
    if not field_names:
        raise ValidationError("at least one field is required")
    param_names = _string_list(data, "params", "document")

    order = _require(data, "order", int, "document") if "order" in data else 6
    if order < 1:
        raise ValidationError(f"order must be positive, got {order}")

    if kind == "ode" and len(field_names) != 1:
        raise ValidationError("kind 'ode' takes exactly one field")
    if kind in ("ode", "system") and space_names:
        raise ValidationError(f"kind '{kind}' admits no space variables")
    if kind == "pde" and not space_names:
        raise ValidationError("kind 'pde' requires space variables")

    if len(set(field_names)) != len(field_names):
        raise ValidationError("duplicate field names")
    if len(set(space_names)) != len(space_names):
        raise ValidationError("duplicate space names")
    if len(set(param_names)) != len(param_names):
        raise ValidationError("duplicate parameter names")

    ctx = build_context(time_name, field_names, space_names, param_names,
                        initial_name)

    rhs_obj = _require(data, "rhs", dict, "document")
    if set(rhs_obj) != set(field_names):
        raise ValidationError(
            f"rhs keys {sorted(rhs_obj)} do not match fields "
            f"{sorted(field_names)}")
    rhs: list[Expr] = []
    for fname in field_names:
        text = rhs_obj[fname]
        if not isinstance(text, str):
            raise SchemaError(f"rhs['{fname}'] must be a string")
        parsed = normalize(parse_expression(text, ctx))
        for symbol in symbols_of(parsed):
            if symbol.kind == SymbolKind.INITIAL_TIME:
                raise ValidationError(
                    f"rhs['{fname}'] may not use the initial time "
                    f"'{initial_name}'")
        rhs.append(parsed)

    return ProblemSpec(
        kind=kind,
        time_name=time_name,
        initial_time=initial_time,
        initial_name=initial_name,
        space_names=space_names,
        field_names=field_names,
        param_names=param_names,
        rhs=tuple(rhs),
        order=order,
    )


def render(e: Expr, problem: ProblemSpec | None = None,
           style: str = "initial") -> str:
    """Render ``e``; with a problem the jets are spelled per ``style``."""
    if problem is None:
        return format_expr(e)
    return format_expr(e, problem.namer(style))
