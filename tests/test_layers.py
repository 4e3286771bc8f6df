"""Module layering: the residual and integral-form routes stay independent
of the Lie-series generator, so they can certify the series it builds.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "chronexp"
GENERATOR = {"build_generator", "apply_generator", "apply_series_to_function",
             "lie_coefficients"}


def parse(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def package_imports(tree: ast.Module) -> list[tuple[str | None, set[str]]]:
    """(module, imported names) of every import from within the package."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("chronexp")):
            out.append((node.module, {alias.name for alias in node.names}))
        elif isinstance(node, ast.Import):
            out += [(alias.name, set()) for alias in node.names
                    if alias.name.startswith("chronexp")]
    return out


def names_used(node: ast.AST) -> set[str]:
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def test_series_imports_only_expr_and_errors():
    modules = {module for module, _ in package_imports(parse("series"))}
    assert modules <= {"expr", "errors"}


def test_dyson_takes_only_the_series_type_from_lie():
    tree = parse("dyson")
    for module, names in package_imports(tree):
        assert module not in (None, "chronexp", "chronexp.lie"), module
        if module == "lie":
            assert names <= {"DEFAULT_TERM_BUDGET", "SeriesSolution"}, names
    assert not names_used(tree) & GENERATOR


def test_residual_route_never_names_the_generator():
    # residual_check and the jet helper it shares with the homomorphism
    # check, followed through every lie.py function they call.
    functions = {node.name: node for node in parse("lie").body
                 if isinstance(node, ast.FunctionDef)}
    pending = ["residual_check", "_jet_series"]
    seen = set()
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        used = names_used(functions[name])
        assert not used & GENERATOR, (name, used & GENERATOR)
        pending += [n for n in used if n in functions]
    assert {"jet_derivatives", "total_derivative"} <= seen
