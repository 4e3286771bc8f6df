"""Golden corpus: the CLI's output on every fixture, byte for byte.

Each case runs ``chronexp.cli.main(argv)`` in-process and compares the exit
code and stdout with ``tests/golden/<fixture>/<case>.txt``, whose first line
is ``exit N`` and whose remainder is stdout.  Refactors must leave every
file unchanged.  After a deliberate change of output, regenerate with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``tests/golden`` like any other change.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from chronexp.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

SOLVE_ORDERS = range(1, 9)
VERIFY_ORDERS = range(1, 7)
# These stop early, as they did when the corpus was recorded: high-order
# verify of them was slow then (sin(u) had no series recurrence, and KdV
# reaches third-order jets).
VERIFY_ORDERS_BY_FIXTURE = {"pendulum": range(1, 5), "kdv": range(1, 4)}
EVAL_TIMES = "--t=-0.1,0,0.1,0.2"
EVAL_POINTS = "--x=-1,0,0.5"
ODE_INITIAL_DATA = {
    "exponential": "c=0.5",
    "riccati": "c=1",
    "corrupt/riccati": "c=1",
    "linear_time": "c=1,a=0.5",
    "harmonic": "c1=0.25,c2=-2",
    "lotka_volterra": "c1=1.2,c2=0.9",
    "pendulum": "c=1",
}


def _fixture_names() -> list[str]:
    return sorted(path.relative_to(FIXTURES).with_suffix("").as_posix()
                  for path in FIXTURES.rglob("*.json"))


def cases() -> list[tuple[str, list[str]]]:
    """(case id, argv) for every golden file; the id is its path under
    ``tests/golden`` without the suffix.
    """
    out = []
    for name in _fixture_names():
        path = str(FIXTURES / f"{name}.json")
        for n in SOLVE_ORDERS:
            out.append((f"{name}/solve-json-{n}",
                        ["solve", path, "--order", str(n), "--format", "json"]))
        out.append((f"{name}/solve-text-8", ["solve", path, "--order", "8"]))
        for n in VERIFY_ORDERS_BY_FIXTURE.get(name, VERIFY_ORDERS):
            out.append((f"{name}/verify-json-{n}",
                        ["verify", path, "--order", str(n), "--format", "json"]))
        if name in ODE_INITIAL_DATA:
            ic = ["--ic", ODE_INITIAL_DATA[name]]
        else:
            ic = ["--ic", "sin(x)", EVAL_POINTS]
        out.append((f"{name}/eval-text", ["eval", path, *ic, EVAL_TIMES]))
    return out


def run_case(argv: list[str]) -> str:
    """``exit N`` on the first line, then everything main printed."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return f"exit {code}\n{buffer.getvalue()}"


CASES = cases()


@pytest.mark.parametrize("case,argv", CASES, ids=[case for case, _ in CASES])
def test_golden(case, argv):
    expected = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert run_case(argv) == expected


def test_corpus_has_no_stray_files():
    recorded = {path.relative_to(GOLDEN).with_suffix("").as_posix()
                for path in GOLDEN.rglob("*.txt")}
    assert recorded == {case for case, _ in CASES}


def regenerate() -> None:
    for case, argv in CASES:
        target = GOLDEN / f"{case}.txt"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(run_case(argv), encoding="utf-8")
        print(case, file=sys.stderr)


if __name__ == "__main__":
    regenerate()
