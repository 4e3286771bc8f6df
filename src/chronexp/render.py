"""Plain-text rendering of expressions.

Output uses the same surface grammar the parser accepts, so for a canonical
expression ``e`` the round trip ``parse(format_expr(e))`` gives back ``e``,
provided no jet in ``e`` has a derivative order above the parser's cap
(``parser.MAX_JET_ORDER``, 8, unless the context raises it): ``solve
kdv.json --order 3`` prints ``c_xxxxxxxxx``, which the default context
rejects.  Symbol spelling is pluggable through a ``namer`` callable, which
takes a ``Sym`` leaf; problem documents supply namers that use either
initial-data names (``c``, ``c_xx``) or field names (``u``, ``u_xx``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .errors import ExpressionBlowup
from .expr import (
    Add,
    Const,
    Expr,
    Func,
    Mul,
    Pow,
    Sym,
    SymbolKind,
    space_var,
)

SPACE_LETTERS = ("x", "y", "z")


def spell_symbol(symbol: Sym, time: str = "t", initial: str = "a",
                 space: Sequence[str] = SPACE_LETTERS,
                 jet_bases: Sequence[str] = ("c",)) -> str:
    """Spell ``symbol`` from name tables: ``space[j]`` names space variable
    j and ``jet_bases[k]`` the jets of field k, which take the letters of
    their derivatives as a suffix (``c_xx``).  Indices past a table's end
    are spelled ``x3``, ``x4``, ... and ``c2``, ``c3``, ...
    """
    kind = symbol.kind
    if kind == SymbolKind.JET:
        k = symbol.index
        base = jet_bases[k] if k < len(jet_bases) else f"c{k + 1}"
        suffix = "".join(spell_symbol(space_var(j), space=space) * n
                         for j, n in enumerate(symbol.orders) if n)
        return f"{base}_{suffix}" if suffix else base
    if kind == SymbolKind.SPACE:
        j = symbol.index
        return space[j] if j < len(space) else f"x{j}"
    if kind == SymbolKind.TIME:
        return time
    if kind == SymbolKind.INITIAL_TIME:
        return initial
    if kind == SymbolKind.PARAM:
        return symbol.name
    raise ValueError(f"unnamable symbol kind {kind!r}")


def _format_const(value: Fraction | int) -> str:
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # past the int/str conversion limit (3.11+)
        raise ExpressionBlowup("a number is too long to print") from None


def format_expr(e: Expr, namer: Callable[[Sym], str] = spell_symbol) -> str:
    """Render ``e``; parenthesization follows operator precedence."""

    def atom(node: Expr) -> str:
        # rendering of a node in a position that requires atom precedence
        text = walk(node)
        if isinstance(node, (Sym, Func)):
            return text
        if isinstance(node, Const) and node.value >= 0 and node.value.denominator == 1:
            return text
        return f"({text})"

    def factor(node: Expr) -> str:
        # rendering of a node appearing as a factor of a product
        if isinstance(node, Add):
            return f"({walk(node)})"
        if isinstance(node, Const) and node.value < 0:
            return f"({walk(node)})"
        return walk(node)

    def strip_neg(node: Expr) -> tuple[int, Expr]:
        # pull a leading minus sign out of a constant or product
        if isinstance(node, Const) and node.value < 0:
            return -1, Const(-node.value)
        if isinstance(node, Mul) and node.factors:
            head = node.factors[0]
            if isinstance(head, Const) and head.value < 0:
                rest = node.factors[1:]
                if not rest:
                    return -1, Const(-head.value)
                if head.value == -1:
                    return -1, rest[0] if len(rest) == 1 else Mul(rest)
                return -1, Mul((Const(-head.value), *rest))
        return 1, node

    def split_sign(node: Expr) -> tuple[int, str]:
        sign, magnitude = strip_neg(node)
        return sign, walk(magnitude)

    def walk(node: Expr) -> str:
        if isinstance(node, Const):
            return _format_const(node.value)
        if isinstance(node, Sym):
            return namer(node)
        if isinstance(node, Func):
            return f"{node.name}({walk(node.arg)})"
        if isinstance(node, Pow):
            exponent = _format_const(node.exponent)
            if node.exponent >= 0:
                return f"{atom(node.base)}^{exponent}"
            return f"{atom(node.base)}^({exponent})"
        if isinstance(node, Mul):
            if not node.factors:
                return "1"
            head = node.factors[0]
            if isinstance(head, Const) and head.value < 0:
                sign, magnitude = strip_neg(node)
                return f"-{atom(magnitude)}" if isinstance(magnitude, Add) \
                    else f"-{walk(magnitude)}"
            return "*".join(factor(f) for f in node.factors)
        if isinstance(node, Add):
            if not node.terms:
                return "0"
            sign, text = split_sign(node.terms[0])
            out = [f"-{text}" if sign < 0 else text]
            for term in node.terms[1:]:
                sign, text = split_sign(term)
                out.append(f" - {text}" if sign < 0 else f" + {text}")
            return "".join(out)
        raise TypeError(f"not an expression node: {node!r}")

    return walk(e)
