"""chronexp benchmark: one closed-loop caller driving ``chronexp.cli.main``.

    python3 perfbench/run.py --workload solve|verify|eval|all --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  A run sets up, then repeats passes through the workload's fixed
command list until ``--seconds`` have gone by, checking every command's exit
code and output against its known answer.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
instrumentation.  With ``--trace 1`` the set-up is traced, the first half of
the run is untraced and the second half traced; the metrics are per-layer
figures per pass, and the spans of the last traced pass go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
OUT_DIR = ".perfbench_out"

# Functions with per-layer metrics (BENCHMARK.json lists every metric name).
TIMED_FUNCTIONS = (
    "parser.parse_problem", "parser.render",
    "reference.catalog", "reference.compare_series_to_reference",
    "reference.rk4_solve",
    "lie.lie_coefficients", "lie.apply_generator", "lie.total_derivative",
    "lie.residual_check", "lie.taylor_coefficients", "lie.check_homomorphism",
    "lie.initial_jet_bindings", "lie.eval_series",
    "expr.diff", "expr.normalize", "expr.subst", "expr.subst_many",
    "expr.eval_num",
    "dyson.chron_equiv_check", "dyson.picard_iterate",
    "dyson.check_inverse_identity", "dyson.texp_self_convergence",
)
# Built once per process, during set-up: their figures are the set-up's.
SETUP_FUNCTIONS = ("reference.catalog",)
# The verify_<problem> commands whose residual/solve ratio is reported.
RESIDUAL_PROBLEMS = ("riccati", "linear_time", "lotka_volterra", "burgers",
                     "kdv", "pendulum", "riccati_corrupt")
# The layers each workload is expected to spend its command time in.
DOMINANT = {
    "solve": ("lie.lie_coefficients",),
    "verify": ("lie.residual_check", "dyson.chron_equiv_check",
               "lie.check_homomorphism"),
    "eval": ("lie.initial_jet_bindings", "lie.eval_series"),
}


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

class MissingSource(Exception):
    pass


def import_package(root: Path):
    """Import chronexp from the checkout's src/, never from elsewhere."""
    src = root / "src"
    if not (src / "chronexp" / "__init__.py").is_file():
        raise MissingSource(f"no chronexp sources under {src}")
    sys.path.insert(0, str(src))
    import chronexp
    import chronexp.cli  # noqa: F401
    if Path(chronexp.__file__).resolve().parent != (src / "chronexp").resolve():
        raise MissingSource(f"chronexp imported from {chronexp.__file__}")
    return chronexp


def prepare(chronexp, workload: str, seed: int):
    """The set-up after the import: catalog, problem documents, argv list."""
    chronexp.reference.catalog()
    for path in workloads.problem_documents(workload):
        chronexp.parser.parse_problem(path.read_text(encoding="utf-8"))
    return workloads.commands(workload, seed)


def setup(root: Path, workload: str, seed: int):
    """Everything before the first command.  Returns (cli, commands)."""
    chronexp = import_package(root)
    return chronexp.cli, prepare(chronexp, workload, seed)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Process start to first command ready, in fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {code})")
    return times


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

class PassCeiling(BaseException):
    """Raised by the pass timer; a BaseException, so that no handler in
    the program under test swallows it.
    """


def _on_alarm(signum, frame):
    raise PassCeiling()


def run_command(cli, argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of one command.  An exception escaping ``main``
    ends the real CLI with exit code 1 and a traceback; the same here.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue()


@dataclass
class Pass:
    """One pass: its wall time, each command's time (None if it never
    started) and result (None if it did not finish), and the order run.
    """

    wall: float
    times: list
    results: list
    order: list[int]


def run_pass(cli, cmds, order: list[int], ceiling: float,
             tracer=None) -> Pass:
    """Run the commands in the given order under a wall-clock ceiling."""
    gc.collect()
    times: list[float | None] = [None] * len(cmds)
    results: list[tuple[int, str] | None] = [None] * len(cmds)
    signal.signal(signal.SIGALRM, _on_alarm)
    t_pass = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, ceiling)
    try:
        for i in order:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    results[i] = run_command(cli, cmds[i].argv)
                else:
                    results[i] = tracer.command(run_command, cli, cmds[i].argv)
            finally:
                times[i] = time.perf_counter() - t0
    except PassCeiling:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
    return Pass(time.perf_counter() - t_pass, times, results, order)


def check_pass(cmds, results) -> list[str]:
    """A reason for each failed command of one pass."""
    failures = []
    for cmd, res in zip(cmds, results):
        if res is None:
            failures.append(f"{cmd.name}: cut by the pass ceiling")
            continue
        reason = cmd.check(*res)
        if reason is not None:
            failures.append(f"{cmd.name}: {reason}")
    return failures


class Run:
    """The passes of one workload and their outcome counts."""

    def __init__(self, cli, workload: str, seed: int, cmds):
        self.cli, self.workload, self.seed, self.cmds = cli, workload, seed, cmds
        self.ceiling = workloads.PASS_CEILING_S[workload]
        self.attempted = 0
        self.failures: list[str] = []
        self.passes = 0

    def one_pass(self, tracer=None) -> Pass:
        order = workloads.pass_order(len(self.cmds), self.seed, self.passes)
        p = run_pass(self.cli, self.cmds, order, self.ceiling, tracer)
        self.passes += 1
        self.attempted += len(self.cmds)
        self.failures += check_pass(self.cmds, p.results)
        return p

    def passes_until(self, deadline: float, tracer=None,
                     on_pass=None) -> list[Pass]:
        """At least one pass; another only while it is expected, at the
        median pass time so far, to end by the deadline.  A pass with a
        failure ends the loop: later passes would only wait on the same
        fault.
        """
        out = []
        while True:
            failed_before = len(self.failures)
            out.append(self.one_pass(tracer))
            if on_pass is not None:
                on_pass(out[-1])
            expected = statistics.median(p.wall for p in out)
            if (len(self.failures) > failed_before
                    or time.perf_counter() + expected > deadline):
                return out


# ---------------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------------

def end_to_end(passes: list[Pass], setup_times: list[float]) -> dict:
    per_cmd = [[t for t in ts if t is not None]
               for ts in zip(*(p.times for p in passes))]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "op_max_s": (max(statistics.median(ts) for ts in per_cmd if ts), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


# ---------------------------------------------------------------------------
# Traced run and per-layer metrics
# ---------------------------------------------------------------------------

@dataclass
class Mark:
    """Where one traced pass, or the set-up, sits in the tracer's record,
    with the counters it moved.
    """

    lo: int
    hi: int
    counts: dict
    coeff_terms: list
    order: list[int] = field(default_factory=list)


class Marker:
    def __init__(self, tracer):
        self.tracer = tracer
        self.marks: list[Mark] = []
        self._open()

    def _open(self) -> None:
        t = self.tracer
        self.lo, self.before, self.solves = (len(t), t.counters(),
                                             len(t.coeff_terms))

    def close(self, order: list[int] | None = None) -> None:
        t = self.tracer
        after = t.counters()
        self.marks.append(Mark(
            self.lo, len(t), {k: after[k] - self.before[k] for k in after},
            t.coeff_terms[self.solves:], order or []))
        self._open()


def span_sums(tracer, mark: Mark) -> tuple[list, list, list]:
    """Per function: span count, inclusive seconds, self seconds."""
    n = len(tracer.names)
    calls, incl, own = [0] * n, [0.0] * n, [0.0] * n
    self_times = tracer.self_times(mark.lo, mark.hi)
    for k in range(mark.lo, mark.hi):
        f = tracer.func[k]
        calls[f] += 1
        incl[f] += tracer.end[k] - tracer.start[k]
        own[f] += self_times[k - mark.lo]
    return calls, incl, own


def layer_metrics(tracer, workload: str, cmds, setup_mark: Mark,
                  marks: list[Mark], untraced: list[Pass],
                  traced: list[Pass]) -> dict:
    """Per-pass figures: counts from the last traced pass (they repeat
    exactly), times as medians over the traced passes.  The catalog is
    built once per process, so its figures come from the set-up.
    """
    index = {name: i for i, name in enumerate(tracer.names)}
    sums = [span_sums(tracer, m) for m in marks]
    setup_sums = span_sums(tracer, setup_mark)
    last = marks[-1]
    calls, incl, _ = sums[-1]

    def median_of(part: int, i: int) -> float:
        return statistics.median(s[part][i] for s in sums)

    metrics: dict = {}
    for qual in TIMED_FUNCTIONS:
        i = index[qual]
        if qual in SETUP_FUNCTIONS:
            metrics[f"{qual}.calls"] = (setup_sums[0][i], "count")
            metrics[f"{qual}.incl_s"] = (setup_sums[1][i], "s")
            metrics[f"{qual}.self_s"] = (setup_sums[2][i], "s")
            continue
        metrics[f"{qual}.calls"] = (calls[i], "count")
        metrics[f"{qual}.incl_s"] = (median_of(1, i), "s")
        metrics[f"{qual}.self_s"] = (median_of(2, i), "s")
    metrics["expr.normalize.terms_out"] = (last.counts["terms_out"], "count")
    metrics["lie.taylor_coefficients.fallbacks"] = (last.counts["fallbacks"],
                                                    "count")
    sizes = [n for sol in last.coeff_terms for col in sol for n in col]
    metrics["lie.coeff_terms_max"] = (max(sizes, default=0), "count")
    metrics["lie.coeff_terms_total"] = (sum(sizes), "count")
    metrics["cli.self_s"] = (median_of(2, index[spans.ROOT]), "s")

    # Shares of command time in the last traced pass: the workload's
    # dominant layers, and the solves the commands call directly.
    command_of = tracer.command_of(last.lo, last.hi)
    solve, residual = index["lie.lie_coefficients"], index["lie.residual_check"]
    top_solve: dict[int, float] = {}
    residual_time: dict[int, float] = {}
    for k in range(last.lo, last.hi):
        cmd = command_of[k - last.lo]
        dur = tracer.end[k] - tracer.start[k]
        if tracer.func[k] == solve and tracer.parent[k] == cmd:
            top_solve[cmd] = top_solve.get(cmd, 0.0) + dur
        elif tracer.func[k] == residual:
            residual_time[cmd] = residual_time.get(cmd, 0.0) + dur
    command_time = incl[index[spans.ROOT]]
    dominant = sum(incl[index[q]] for q in DOMINANT[workload])
    metrics["dominant_share"] = (dominant / command_time, "ratio")
    metrics["solve_share"] = (sum(top_solve.values()) / command_time, "ratio")

    points = sum(c.points for c in cmds)
    eval_s = statistics.median(
        sum(t for c, t in zip(cmds, p.times) if c.points and t is not None)
        for p in untraced)
    metrics["eval_points_per_s"] = (points / eval_s if points else 0.0, "1/s")
    metrics["trace_overhead"] = (
        statistics.median(p.wall for p in traced)
        / statistics.median(p.wall for p in untraced), "ratio")

    roots = sorted(set(command_of))
    root_of = {cmds[i].name: r for i, r in zip(last.order, roots)}
    for problem in RESIDUAL_PROBLEMS:
        r = root_of.get(f"verify_{problem}")
        ratio = (residual_time.get(r, 0.0) / top_solve[r]
                 if top_solve.get(r) else 0.0)
        metrics[f"lie.residual_to_solve.{problem}"] = (ratio, "ratio")
    return metrics


def traced_run(chronexp, workload: str, seed: int, seconds: float):
    """Set-up traced; untraced passes for the first half of the time and
    traced passes after.  Returns (run, tracer, marks, metrics); the last
    mark is the set-up's.
    """
    tracer = spans.Tracer()
    marker = Marker(tracer)
    tracer.install()
    try:
        cmds = tracer.setup(prepare, chronexp, workload, seed)
    finally:
        tracer.uninstall()
    marker.close()
    setup_mark = marker.marks.pop()

    run = Run(chronexp.cli, workload, seed, cmds)
    start = time.perf_counter()
    untraced = run.passes_until(start + seconds / 2)
    tracer.install()
    try:
        traced = run.passes_until(
            start + seconds, tracer,
            on_pass=lambda p: marker.close(p.order))
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, workload, cmds, setup_mark, marker.marks,
                            untraced, traced)
    return run, tracer, marker.marks, metrics


def write_trace(root: Path, workload: str, seed: int, tracer, mark: Mark,
                cmds) -> Path:
    """Spans of one traced pass as columns, with the coefficient term
    counts per field and order of each command-level solve.
    """
    lo, hi = mark.lo, mark.hi
    command_of = tracer.command_of(lo, hi)
    roots = sorted(set(command_of))
    t0 = tracer.start[lo]
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    path = out / f"trace_{workload}_seed{seed}.json"
    doc = {
        "workload": workload, "seed": seed, "names": tracer.names,
        "commands": [cmds[i].name for i in mark.order][:len(roots)],
        "spans": {
            "func": list(tracer.func[lo:hi]),
            "parent": [p - lo if p != spans.NO_PARENT else p
                       for p in tracer.parent[lo:hi]],
            "command": [roots.index(c) for c in command_of],
            "start_ns": [round((s - t0) * 1e9) for s in tracer.start[lo:hi]],
            "end_ns": [round((e - t0) * 1e9) for e in tracer.end[lo:hi]],
        },
        "coeff_terms": mark.coeff_terms,
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: bool) -> int:
    start = time.perf_counter()
    chronexp = import_package(root)
    if trace:
        run, tracer, marks, metrics = traced_run(chronexp, workload, seed,
                                                 seconds)
        path = write_trace(root, workload, seed, tracer, marks[-1], run.cmds)
        print(f"spans of the last traced pass: {path}")
    else:
        run = Run(chronexp.cli, workload, seed,
                  prepare(chronexp, workload, seed))
        setup_times = measure_setup(workload, seed)
        passes = run.passes_until(time.perf_counter() + seconds)
        metrics = end_to_end(passes, setup_times)
        print("pass wall_s: " + " ".join(f"{p.wall:.3f}" for p in passes))
    for reason in run.failures:
        print(f"FAILED {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{workload:7s} {name:45s} {value:14.6g} {unit}")
    failed = len(run.failures)
    print(f"{workload}: {run.passes} passes, {run.attempted} commands, "
          f"{failed} failed, {time.perf_counter() - start:.1f} s")
    print(result_line(failed == 0, run.attempted, failed, metrics))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; one combined result line."""
    metrics, attempted, failed = {}, 0, 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            return 1
        doc = json.loads(lines[-1])
        attempted += doc["attempted"]
        failed += doc["failed"]
        for name, m in doc["metrics"].items():
            metrics[f"{workload}.{name}"] = (m["value"], m["unit"])
    print(result_line(failed == 0, attempted, failed, metrics))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    root = Path.cwd()
    try:
        if args.setup_probe:
            setup(root, args.workload, args.seed)
            print("ready", flush=True)
            return 0
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_workload(root, args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
