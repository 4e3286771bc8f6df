"""Module layering: the residual and integral-form routes, and the Lie side
of the homomorphism check, stay independent of the Lie-series generator,
so they can certify the series it builds.
"""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "chronexp"
PERFBENCH = SRC.parent.parent / "perfbench"
HEAT = str(TESTS / "fixtures" / "heat.json")
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


def generator_names(*roots: str) -> dict[str, set[str]]:
    """Each lie.py function reached from ``roots`` through the lie.py
    functions they call, mapped to the GENERATOR names it uses.
    """
    functions = {node.name: node for node in parse("lie").body
                 if isinstance(node, ast.FunctionDef)}
    pending = list(roots)
    named = {}
    while pending:
        name = pending.pop()
        if name in named:
            continue
        used = names_used(functions[name])
        named[name] = used & GENERATOR
        pending += [n for n in used if n in functions]
    return named


def test_residual_route_never_names_the_generator():
    # residual_check and the jet helper it shares with the homomorphism
    # check.
    named = generator_names("residual_check", "_jet_series")
    assert {name: used for name, used in named.items() if used} == {}
    assert {"jet_derivatives", "total_derivative"} <= named.keys()


def test_homomorphism_lie_side_never_names_the_generator():
    # The check steps its Lie series by its own rule for A, so a fault in
    # the solver's generator cannot cancel out of the comparison.
    named = generator_names("check_homomorphism")
    assert {name: used for name, used in named.items() if used} == {}
    assert {"_lie_terms", "jet_derivatives",
            "total_derivative"} <= named.keys()


def exits_and_loaded(module: str, *argvs: list[str]) -> tuple[list[int], bool]:
    """Exit codes of chronexp.cli.main over each argv, run in order in one
    fresh interpreter, and whether `module` was imported by the end.
    """
    script = ("import sys\n"
              f"sys.path.insert(0, {str(SRC.parent)!r})\n"
              "from chronexp.cli import main\n"
              f"codes = [main(argv) for argv in {list(argvs)!r}]\n"
              f"print(codes, {module!r} in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=300,
                          check=True)
    codes, loaded = proc.stdout.splitlines()[-1].rsplit(" ", 1)
    return ast.literal_eval(codes), loaded == "True"


def test_series_commands_never_load_numpy():
    # numpy serves only the matrix product integrals of verify's dyson
    # suite; importing it costs every other command time and memory.
    codes, loaded = exits_and_loaded(
        "numpy",
        ["solve", HEAT],
        ["eval", HEAT, "--ic", "sin(x)", "--t", "0.1", "--x", "0.3"])
    assert codes == [0, 0]
    assert not loaded


def test_dyson_suite_loads_numpy():
    codes, loaded = exits_and_loaded("numpy", ["verify", "--suite", "dyson"])
    assert codes == [0]
    assert loaded


def test_matrix_suites_never_load_numpy_random():
    # The random matrix path draws from Python's random; numpy.random
    # would cost every suite run its import time and memory.  numpy 1.x
    # imports it with numpy itself, so only a numpy that defers it counts.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, timeout=300, check=True)
    eager = proc.stdout.strip() == "True"
    codes, loaded = exits_and_loaded("numpy.random",
                                     ["verify", "--suite", "dyson"],
                                     ["verify", "--suite", "all"])
    assert codes == [0, 0]
    assert eager or not loaded


def test_no_module_imports_a_name_it_never_uses():
    # No linter runs on the package or its tests, so a deletion that leaves
    # its imports behind shows up here: every imported name must be read
    # somewhere.
    unused = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append((path.name, name))
    assert not unused


def test_every_private_module_name_is_read():
    # A deletion that leaves its helper behind shows up here: every private
    # module-level name must be read somewhere in the package.
    defined = []
    read = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(path.name, name) for name in names
                        if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert len(defined) > 0
    assert [(module, name) for module, name in defined
            if name not in read] == []


def test_term_dicts_have_one_owner():
    # expr alone spells out the term-dict layout (monomial tuple ->
    # rational), so a change of that layout touches one module.
    tuple_keyed = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            keys = ([node.key] if isinstance(node, ast.DictComp)
                    else node.keys if isinstance(node, ast.Dict) else [])
            if path.name != "expr.py" and any(
                    isinstance(key, ast.Tuple) for key in keys):
                tuple_keyed.append(f"{path.name}:{node.lineno}")
    assert tuple_keyed == []


def literal(path: Path, name: str):
    """The literal value assigned to ``name`` at the top of a module, read
    without importing or running it.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


def test_every_timed_function_is_traced():
    # The benchmark reports each "mod.name" of TIMED_FUNCTIONS from the
    # spans of the functions spans.py wraps: public functions defined in
    # chronexp.<mod>, mod one of its MODULES.  A function moved to another
    # module would drop out of the trace.
    timed = literal(PERFBENCH / "run.py", "TIMED_FUNCTIONS")
    modules = literal(PERFBENCH / "spans.py", "MODULES")
    unspanned = literal(PERFBENCH / "spans.py", "UNSPANNED")
    untraced = []
    for qual in timed:
        short, name = qual.split(".")
        module = importlib.import_module(f"chronexp.{short}")
        obj = getattr(module, name, None)
        if not (short in modules and not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and qual not in unspanned):
            untraced.append(qual)
    assert len(timed) > 0
    assert untraced == []
