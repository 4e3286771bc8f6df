"""The benchmark's workloads: seeded command lists and their known answers.

Each workload is a fixed list of ``chronexp`` command lines.  The seed draws
the numeric sample points, the ODE initial values and the order in which the
commands run within each pass; the program sees only the generated argv.

Every command carries a check that is independent of the code under test:
exit codes that are known in advance, stdout recorded at the commit that
introduced the benchmark, and closed forms or integrators written here with
``math`` only.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
PROBLEMS = BENCH_DIR / "problems"
GOLDEN = BENCH_DIR / "golden"

# Each pass runs under this wall-clock ceiling (seconds).  It is a few times
# the pass time measured when the benchmark was introduced, so that a
# regression into a pathological regime (sin(u) at high order spends minutes
# in the residual check) counts as failures instead of stalling the run.
PASS_CEILING_S = {"solve": 15.0, "verify": 60.0, "eval": 40.0}

EVAL_ORDER_PDE = 10
EVAL_ORDER_LV = 10
EVAL_ORDER_RICCATI = 12
PRINT_TOL = 1e-8    # eval prints 8 decimals; allow rounding plus summation


@dataclass
class Command:
    """One command line and the test its result must pass.

    ``check(exit_code, stdout)`` returns None when the result is right and
    a one-line reason otherwise.  ``points`` is the number of (t, x) rows
    an eval command prints.
    """

    name: str
    argv: list[str]
    check: Callable[[int, str], str | None]
    points: int = 0


def problem_path(name: str) -> str:
    return str(PROBLEMS / f"{name}.json")


def problem_documents(workload: str) -> list[Path]:
    """The problem documents a workload reads, parsed once during set-up."""
    names = {
        "solve": ["lotka_volterra", "burgers", "kdv", "pendulum", "riccati",
                  "linear_time"],
        "verify": ["riccati", "linear_time", "lotka_volterra", "burgers",
                   "kdv", "pendulum", "corrupt/riccati"],
        "eval": ["burgers", "heat", "transport", "lotka_volterra", "riccati"],
    }[workload]
    return [PROBLEMS / f"{n}.json" for n in names]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def expect_exit(code_wanted: int) -> Callable[[int, str], str | None]:
    def check(code: int, out: str) -> str | None:
        if code != code_wanted:
            return f"exit {code}, expected {code_wanted}"
        return None
    return check


def expect_golden(name: str, extra: Callable[[str], str | None] | None = None
                  ) -> Callable[[int, str], str | None]:
    """Exit 0 and stdout equal, byte for byte, to golden/<name>.txt."""
    path = GOLDEN / f"{name}.txt"

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}, expected 0"
        if out != path.read_text(encoding="utf-8"):
            return "stdout differs from the recorded output"
        return extra(out) if extra is not None else None
    return check


def riccati_series_text(order: int) -> str:
    """The riccati series u = sum_n (-1)^n c^(n+1) t^n, derived by hand,
    in the solver's text layout.
    """
    parts = ["u = c"]
    for n in range(1, order + 1):
        sign = "+" if n % 2 == 0 else "-"
        power = "(t)" if n == 1 else f"(t)^{n}"
        parts.append(f" {sign} {power}*c^{n + 1}")
    return "".join(parts) + "\n"


def check_riccati_series(order: int) -> Callable[[str], str | None]:
    wanted = riccati_series_text(order)

    def check(out: str) -> str | None:
        if out != wanted:
            return "riccati coefficients differ from (-1)^n c^(n+1)"
        return None
    return check


def parse_eval_rows(out: str, with_x: bool) -> list[tuple[str, str | None,
                                                          list[float]]]:
    rows = []
    for line in out.splitlines():
        cells = line.split("\t")
        if with_x:
            rows.append((cells[0], cells[1], [float(v) for v in cells[2:]]))
        else:
            rows.append((cells[0], None, [float(v) for v in cells[1:]]))
    return rows


def expect_values(ts: list[float], xs: list[float] | None,
                  reference: Callable[[float, float | None], list[float]],
                  tolerance: Callable[[float], float]
                  ) -> Callable[[int, str], str | None]:
    """Exit 0 and one row per (t, x), t outer, each value within
    ``tolerance(t)`` of ``reference(t, x)``.
    """
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}, expected 0"
        try:
            rows = parse_eval_rows(out, xs is not None)
        except (ValueError, IndexError):
            return "eval output is not rows of numbers"
        grid = [(t, x) for t in ts for x in (xs if xs is not None else [None])]
        if len(rows) != len(grid):
            return f"{len(rows)} rows, expected {len(grid)}"
        for (t_text, x_text, values), (t, x) in zip(rows, grid):
            if t_text != f"{t:g}" or (x is not None and x_text != f"{x:g}"):
                return f"row ({t_text}, {x_text}) out of order"
            wanted = reference(t, x)
            if len(values) != len(wanted):
                return f"{len(values)} values at t={t}, expected {len(wanted)}"
            tol = tolerance(t)
            for got, want in zip(values, wanted):
                if not abs(got - want) <= tol:
                    return (f"value {got!r} at t={t}, x={x}; reference "
                            f"{want!r}, tolerance {tol:.1e}")
        return None
    return check


# ---------------------------------------------------------------------------
# Reference solutions (math only)
# ---------------------------------------------------------------------------

def heat_sine(t: float, x: float) -> list[float]:
    """u_t = u_xx with u(0, x) = sin x."""
    return [math.exp(-t) * math.sin(x)]


def transport_sine(t: float, x: float) -> list[float]:
    """u_t + u_x = 0 with u(0, x) = sin x."""
    return [math.sin(x - t)]


def burgers_sine(t: float, x: float) -> list[float]:
    """u_t + u u_x = 0 with u(0, x) = sin x, by characteristics: u solves
    u = sin(x - t u).  Newton's method; for t < 1 the map has one root.
    """
    u = math.sin(x)
    for _ in range(100):
        g = u - math.sin(x - t * u)
        step = g / (1.0 + t * math.cos(x - t * u))
        u -= step
        if abs(step) <= 1e-16:
            break
    return [u]


def riccati(c: float) -> Callable[[float, float | None], list[float]]:
    """u' = -u^2 with u(0) = c."""
    return lambda t, x: [c / (1.0 + c * t)]


def lotka_volterra_rk4(u0: float, v0: float, ts: list[float],
                       h: float = 1e-4) -> dict[float, list[float]]:
    """u' = u - u v, v' = u v - v by classical RK4 with step h, marching
    through the sorted sample times and landing on each exactly.
    """
    def f(u: float, v: float) -> tuple[float, float]:
        return u - u * v, u * v - v

    out: dict[float, list[float]] = {}
    t, u, v = 0.0, u0, v0
    for target in sorted(set(ts)):
        while t < target:
            step = min(h, target - t)
            k1 = f(u, v)
            k2 = f(u + 0.5 * step * k1[0], v + 0.5 * step * k1[1])
            k3 = f(u + 0.5 * step * k2[0], v + 0.5 * step * k2[1])
            k4 = f(u + step * k3[0], v + step * k3[1])
            u += step / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            v += step / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            t = target if step == target - t else t + step
        out[target] = [u, v]
    return out


def truncation_tol(order: int, radius: float, scale: float = 10.0
                   ) -> Callable[[float], float]:
    """Tolerance for a series truncated after t^order whose coefficients
    decay like radius^-n: scale * (t / radius)^(order + 1), plus printing.
    """
    return lambda t: scale * (abs(t) / radius) ** (order + 1) + PRINT_TOL


def taylor_tol(order: int) -> Callable[[float], float]:
    """Remainder bound of a Taylor series whose derivatives are bounded by
    1 (sine and exponential profiles): t^(N+1) / (N+1)!, doubled.
    """
    return lambda t: (2.0 * abs(t) ** (order + 1) / math.factorial(order + 1)
                      + PRINT_TOL)


# ---------------------------------------------------------------------------
# Command lists
# ---------------------------------------------------------------------------

def _numbers(rng: random.Random, n: int, lo: float, hi: float,
             digits: int) -> list[float]:
    """n distinct values in [lo, hi] rounded so that '%g' prints them
    exactly, which lets the check match the printed t and x columns.
    """
    seen: set[float] = set()
    while len(seen) < n:
        seen.add(round(rng.uniform(lo, hi), digits))
    values = sorted(seen)
    rng.shuffle(values)
    return values


def _csv(values: list[float]) -> str:
    return ",".join(f"{v:g}" for v in values)


def solve_commands(rng: random.Random) -> list[Command]:
    hi = ["--allow-high-order"]
    return [
        Command("solve_lotka_volterra_14",
                ["solve", problem_path("lotka_volterra"), "--order", "14", *hi],
                expect_golden("solve_lotka_volterra_14")),
        Command("solve_burgers_13",
                ["solve", problem_path("burgers"), "--order", "13", *hi],
                expect_golden("solve_burgers_13")),
        Command("solve_kdv_7",
                ["solve", problem_path("kdv"), "--order", "7", *hi],
                expect_golden("solve_kdv_7")),
        Command("solve_pendulum_12",
                ["solve", problem_path("pendulum"), "--order", "12"],
                expect_golden("solve_pendulum_12")),
        Command("solve_riccati_12",
                ["solve", problem_path("riccati"), "--order", "12"],
                expect_golden("solve_riccati_12", check_riccati_series(12))),
        Command("solve_linear_time_12",
                ["solve", problem_path("linear_time"), "--order", "12"],
                expect_golden("solve_linear_time_12")),
        Command("solve_lotka_volterra_12_json",
                ["solve", problem_path("lotka_volterra"), "--order", "12",
                 "--format", "json"],
                expect_golden("solve_lotka_volterra_12_json")),
        # The coefficient at order 10 has 56 terms, so a budget of 50 ends
        # the solve with the resource-exhaustion exit code.
        Command("solve_term_budget_overflow",
                ["solve", problem_path("lotka_volterra"), "--order", "12",
                 "--term-budget", "50"],
                expect_exit(2)),
    ]


def verify_commands(rng: random.Random) -> list[Command]:
    # Exit codes only: report text is free to gain lines (such as SKIP).
    files = [("riccati", 12), ("linear_time", 10), ("lotka_volterra", 8),
             ("burgers", 8), ("kdv", 4), ("pendulum", 5)]
    cmds = [Command(f"verify_{name}",
                    ["verify", problem_path(name), "--order", str(order)],
                    expect_exit(0))
            for name, order in files]
    cmds.append(Command("verify_riccati_corrupt",
                        ["verify", problem_path("corrupt/riccati")],
                        expect_exit(3)))
    cmds.append(Command("verify_suite_all", ["verify", "--suite", "all"],
                        expect_exit(0)))
    return cmds


def eval_commands(rng: random.Random) -> list[Command]:
    xs = _numbers(rng, 200, -3.0, 3.0, 4)
    ts = _numbers(rng, 5, 0.0001, 0.25, 4)
    cmds = []
    pde = [("burgers", burgers_sine, truncation_tol(EVAL_ORDER_PDE, 1.0)),
           ("heat", heat_sine, taylor_tol(EVAL_ORDER_PDE)),
           ("transport", transport_sine, taylor_tol(EVAL_ORDER_PDE))]
    for name, ref, tol in pde:
        # '--x=' keeps argparse from reading a leading '-3.0' as an option.
        cmds.append(Command(
            f"eval_{name}",
            ["eval", problem_path(name), "--order", str(EVAL_ORDER_PDE),
             "--ic", "sin(x)", "--t", _csv(ts), f"--x={_csv(xs)}"],
            expect_values(ts, xs, ref, tol), points=len(ts) * len(xs)))

    lv_ts = _numbers(rng, 1000, 0.0, 0.2, 5)
    u0, v0 = round(rng.uniform(0.5, 1.5), 4), round(rng.uniform(0.5, 1.5), 4)
    # The reference integration runs at the first check, not in set-up.
    lv = functools.cache(lambda: lotka_volterra_rk4(u0, v0, lv_ts))
    cmds.append(Command(
        "eval_lotka_volterra",
        ["eval", problem_path("lotka_volterra"), "--order",
         str(EVAL_ORDER_LV), "--ic", f"c1={u0:g},c2={v0:g}", "--t",
         _csv(lv_ts)],
        expect_values(lv_ts, None, lambda t, x: lv()[t],
                      truncation_tol(EVAL_ORDER_LV, 1.0)),
        points=len(lv_ts)))

    ric_ts = _numbers(rng, 1000, 0.0, 0.2, 5)
    c = round(rng.uniform(0.5, 2.0), 4)
    cmds.append(Command(
        "eval_riccati",
        ["eval", problem_path("riccati"), "--order", str(EVAL_ORDER_RICCATI),
         "--ic", f"c={c:g}", "--t", _csv(ric_ts)],
        expect_values(ric_ts, None, riccati(c),
                      # exact remainder c (ct)^(N+1) / (1 + ct), doubled
                      lambda t: 2.0 * c * (c * t) ** (EVAL_ORDER_RICCATI + 1)
                      + PRINT_TOL),
        points=len(ric_ts)))
    return cmds


BUILDERS = {"solve": solve_commands, "verify": verify_commands,
            "eval": eval_commands}
WORKLOADS = tuple(BUILDERS)


def commands(workload: str, seed: int) -> list[Command]:
    """The workload's command list; the inputs are drawn from ``seed``."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def pass_order(n: int, seed: int, pass_index: int) -> list[int]:
    """Seeded order of the commands within one pass."""
    order = list(range(n))
    random.Random(f"order:{seed}:{pass_index}").shuffle(order)
    return order
