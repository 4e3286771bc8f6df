"""Command-line behavior: output formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chronexp import (
    chron_equiv_check,
    cli,
    lie_coefficients,
    normalize,
    parse_expression,
    parse_problem,
    residual_check,
)
from chronexp.cli import main

from conftest import FIXTURES


def fx(name):
    return str(FIXTURES / f"{name}.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

class TestSolve:
    def test_riccati_text(self, capsys):
        code, out, _ = run(capsys, "solve", fx("riccati"), "--order", "4")
        assert code == 0
        assert out == ("u = c - (t)*c^2 + (t)^2*c^3 - (t)^3*c^4"
                       " + (t)^4*c^5\n")

    def test_heat_text(self, capsys):
        code, out, _ = run(capsys, "solve", fx("heat"), "--order", "2")
        assert code == 0
        assert out == "u = c + (t)*c_xx + (t)^2/2*c_xxxx\n"

    def test_system_prints_all_fields(self, capsys):
        code, out, _ = run(capsys, "solve", fx("harmonic"), "--order", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "u = c1 + (t)*c2 - (t)^2/2*c1"
        assert lines[1] == "v = c2 - (t)*c1 - (t)^2/2*c2"

    def test_symbolic_expansion_point(self, capsys):
        code, out, _ = run(capsys, "solve", fx("linear_time"),
                           "--order", "2")
        assert code == 0
        assert out == \
            "u = c + (t - a)*a*c + (t - a)^2*(1/2*a^2*c + 1/2*c)\n"

    def test_document_order_is_default(self, capsys):
        code, out, _ = run(capsys, "solve", fx("riccati"))
        assert code == 0
        assert "(t)^6*c^7" in out
        assert "(t)^7" not in out

    def test_json_round_trip(self, capsys):
        import dataclasses
        code, out, _ = run(capsys, "solve", fx("burgers"),
                           "--order", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"problem", "coefficients", "evaluations",
                            "reports"}
        problem = parse_problem(json.dumps(doc["problem"]))
        original = parse_problem(Path(fx("burgers")).read_text())
        assert problem == dataclasses.replace(original, order=3)
        sol = lie_coefficients(problem, 3)
        ctx = problem.context(max_jet_order=16)
        for row in doc["coefficients"]:
            i = problem.field_names.index(row["field"])
            got = normalize(parse_expression(row["expr"], ctx))
            assert got == sol.coeffs[i][row["n"]]

    def test_text_output_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "solve", fx("lotka_volterra"))
        _, second, _ = run(capsys, "solve", fx("lotka_volterra"))
        assert first == second

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", fx("no_such_problem"))
        assert code == 1
        assert "no_such_problem" in err

    def test_invalid_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "ode"}')
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 1
        assert "missing key" in err

    def test_order_guard(self, capsys):
        code, _, err = run(capsys, "solve", fx("riccati"), "--order", "13")
        assert code == 1
        assert "allow-high-order" in err

    def test_order_guard_override(self, capsys):
        code, out, _ = run(capsys, "solve", fx("riccati"), "--order", "13",
                           "--allow-high-order")
        assert code == 0
        assert "(t)^13*c^14" in out

    def test_term_budget_exhaustion(self, capsys):
        code, _, err = run(capsys, "solve", fx("burgers"),
                           "--term-budget", "3")
        assert code == 2
        assert "resource limit" in err

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="no int/str conversion limit before 3.11")
    @pytest.mark.parametrize("rhs", ["10^5000*u", "u^(10^5000)"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_number_too_long_to_print(self, tmp_path, capsys, rhs, fmt):
        doc = {"kind": "ode", "time": {"name": "t", "initial": "0"},
               "fields": ["u"], "rhs": {"u": rhs}, "order": 1}
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", str(path), "--format", fmt)
        assert code == 2
        assert out == ""
        assert err == ("chronexp: resource limit: a number is too long to "
                       "print\n")

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_term_budget_below_one(self, capsys, budget):
        code, _, err = run(capsys, "solve", fx("riccati"),
                           "--term-budget", budget)
        assert code == 1
        assert err == "chronexp: error: --term-budget must be at least 1\n"

    @pytest.mark.parametrize("content,needle", [
        (b'\xff\xfe{"kind": "ode"}', "not UTF-8"),
        ('{"kind": "ode", "time": {"name": "t", "initial": 0}, '
         '"fields": ["u"], "rhs": {"u": "' + "(" * 3000 + "u" + ")" * 3000
         + '"}}', "nested too deeply"),
        ("[" * 100000, "nested too deeply"),
    ], ids=["not-utf8", "deep-rhs", "deep-json"])
    def test_unreadable_document(self, tmp_path, capsys, content, needle):
        bad = tmp_path / "bad.json"
        if isinstance(content, bytes):
            bad.write_bytes(content)
        else:
            bad.write_text(content)
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 1
        assert err.startswith("chronexp: error:") and err.count("\n") == 1
        assert needle in err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

class TestEval:
    def test_riccati_value(self, capsys):
        code, out, _ = run(capsys, "eval", fx("riccati"),
                           "--ic", "c=1", "--t", "0.1", "--order", "8")
        assert code == 0
        assert out == "0.1\t0.90909091\n"

    def test_initial_time_echoes_initial_data(self, capsys):
        code, out, _ = run(capsys, "eval", fx("harmonic"),
                           "--ic", "c1=0.25,c2=-2", "--t", "0")
        assert code == 0
        assert out == "0\t0.25000000\t-2.00000000\n"

    def test_heat_profile(self, capsys):
        code, out, _ = run(capsys, "eval", fx("heat"), "--ic", "sin(x)",
                           "--x", "0.3", "--t", "0.05")
        assert code == 0
        t, x, value = out.split()
        assert (t, x) == ("0.05", "0.3")
        assert math.isclose(float(value),
                            math.exp(-0.05) * math.sin(0.3), abs_tol=5e-9)

    def test_multiple_times_and_points(self, capsys):
        code, out, _ = run(capsys, "eval", fx("heat"), "--ic", "sin(x)",
                           "--x", "0.3,0.9", "--t", "0.01,0.02")
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_symbolic_expansion_point_binding(self, capsys):
        code, out, _ = run(capsys, "eval", fx("linear_time"),
                           "--ic", "c=1,a=0", "--t", "0.2", "--order", "8")
        assert code == 0
        value = float(out.split()[1])
        assert math.isclose(value, math.exp(0.02), abs_tol=1e-8)

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "eval", fx("riccati"), "--ic", "c=1",
                           "--t", "0.1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["evaluations"] == [
            {"t": 0.1, "values": {"u": doc["evaluations"][0]["values"]["u"]}}]

    def test_negative_initial_expression(self, capsys):
        code, out, _ = run(capsys, "eval", fx("heat"), "--ic", "-sin(x)",
                           "--t", "0.1", "--x", "0.5")
        assert code == 0
        assert math.isclose(float(out.split()[2]),
                            -math.exp(-0.1) * math.sin(0.5), abs_tol=5e-9)

    def test_negative_sample_points(self, capsys):
        code, out, _ = run(capsys, "eval", fx("heat"), "--ic", "sin(x)",
                           "--t", "0.1", "--x", "-3.0,1.0")
        assert code == 0
        assert [line.split()[1] for line in out.splitlines()] == ["-3", "1"]

    def test_negative_times(self, capsys):
        code, out, _ = run(capsys, "eval", fx("riccati"), "--ic", "c=1",
                           "--t", "-0.1,0.1", "--order", "8")
        assert code == 0
        assert out == "-0.1\t1.11111111\n0.1\t0.90909091\n"

    @pytest.mark.parametrize("argv,needle", [
        (("eval",), "usage"),
        (("eval", "FIX:heat", "--ic", "sin(x)", "--t", "0.05"), "--x"),
        (("eval", "FIX:riccati", "--ic", "c=1", "--t", "0.1",
          "--x", "1.0"), "pde"),
        (("eval", "FIX:riccati", "--ic", "c=1", "--t", "0.1,abc"), "--t"),
        (("eval", "FIX:riccati", "--ic", "q=1", "--t", "0.1"), "unknown"),
        (("eval", "FIX:riccati", "--ic", "sin(q)", "--t", "0.1"),
         "name=value"),
        (("eval", "FIX:harmonic", "--ic", "c1=1", "--t", "0.1"), "missing"),
        (("eval", "FIX:heat", "--ic", "sin(t)", "--x", "0.1", "--t", "0.1"),
         "space variables"),
        (("eval", "FIX:linear_time", "--ic", "c=1", "--t", "0.1"), "a"),
        (("eval", "FIX:heat", "--ic", "sin(x)", "--t", "0.1", "--x", ","),
         "--x needs at least one value"),
        (("eval", "FIX:riccati", "--ic", "c=1", "--t", "nan,inf"),
         "finite"),
        (("eval", "FIX:riccati", "--ic", "c=1", "--t", "1e999"), "finite"),
        (("eval", "FIX:heat", "--ic", "sin(x)", "--t", "0.1", "--x", "nan"),
         "finite"),
        (("eval", "FIX:riccati", "--ic", "c=nan", "--t", "0.1"), "finite"),
        (("eval", "FIX:riccati", "--ic", "c=nan", "--t", "0.1",
          "--format", "json"), "finite"),
        (("eval", "FIX:linear_time", "--ic", "c=1,a=-inf", "--t", "0.1"),
         "finite"),
        (("eval", "FIX:riccati", "--ic", "c=1e200", "--t", "0.1"),
         "overflows"),
        (("eval", "FIX:heat", "--ic", "exp(x)", "--x", "800", "--t", "0.1",
          "--order", "2"), "exp(800.0) is not finite"),
        (("eval", "FIX:riccati", "--ic", "c=1", "--t", "1e300", "--order",
          "2", "--format", "json"), "not a finite double"),
        (("eval", "FIX:riccati", "--ic", "c=1", "--t", "0.1",
          "--term-budget", "0"), "--term-budget must be at least 1"),
        (("eval", "FIX:riccati", "--ic", "c=1", "--t", "0.1",
          "--term-budget", "-5"), "--term-budget must be at least 1"),
        (("eval", "FIX:riccati", "--ic", "c=1,c=2", "--t", "0.1"),
         "symbol 'c' is bound twice"),
        (("eval", "FIX:harmonic", "--ic", "u=1,c1=2,c2=0", "--t", "0.1"),
         "symbol 'c1' is bound twice"),
        (("eval", "FIX:riccati", "--ic", "c=1,t=5", "--t", "0.1"),
         "'t' is the time; times come from --t"),
    ])
    def test_input_errors(self, capsys, argv, needle):
        argv = [a.replace("FIX:riccati", fx("riccati"))
                 .replace("FIX:heat", fx("heat"))
                 .replace("FIX:harmonic", fx("harmonic"))
                 .replace("FIX:linear_time", fx("linear_time"))
                for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert needle in err

    @pytest.mark.parametrize("rhs,ic", [
        ({"u": "10^400*u"}, "c=1"),
        ({"u": "u + v", "v": "0"}, "c1=1e308,c2=1e308"),
        ({"u": "u*v - u*w", "v": "0", "w": "0"},
         "c1=1e200,c2=1e200,c3=1e200"),
    ], ids=["constant", "sum-overflow", "inf-minus-inf"])
    def test_values_past_the_double_range(self, tmp_path, capsys, rhs, ic):
        doc = {"kind": "ode" if len(rhs) == 1 else "system",
               "time": {"name": "t", "initial": "0"},
               "fields": list(rhs), "rhs": rhs, "order": 1}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "eval", str(path), "--order", "1",
                             "--ic", ic, "--t", "0.1")
        assert code == 1
        assert out == ""
        assert err.startswith("chronexp: error:") and err.count("\n") == 1

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="no int/str conversion limit before 3.11")
    def test_power_past_the_double_range_with_a_long_exponent(self, tmp_path,
                                                               capsys):
        doc = {"kind": "ode", "time": {"name": "t", "initial": "0"},
               "fields": ["u"], "rhs": {"u": "u^(10^5000)"}, "order": 1}
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "eval", str(path), "--order", "1",
                             "--ic", "c=1", "--t", "0.1")
        assert code == 1
        assert out == ""
        assert err == "chronexp: error: a power overflows a double\n"

    def test_initial_expression_rejects_parameters(self, tmp_path, capsys):
        # nothing can bind a pde's parameter, so it may not appear in --ic
        doc = {"kind": "pde", "time": {"name": "t", "initial": 0},
               "space": ["x"], "fields": ["u"], "params": ["k"],
               "rhs": {"u": "-k*u_xx"}}
        path = tmp_path / "kheat.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "eval", str(path), "--ic", "k*sin(x)",
                           "--t", "0.1", "--x", "0.3")
        assert code == 1
        assert err == ("chronexp: error: initial expressions may use only "
                       "space variables, found 'k'\n")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class TestVerify:
    def test_clean_fixture_passes(self, capsys):
        code, out, _ = run(capsys, "verify", fx("riccati"))
        assert code == 0
        assert "FAIL" not in out
        assert "defining equation [self]" in out
        assert "vs catalog riccati" in out
        assert "chronological equivalence" in out

    def test_sign_flip_caught_by_catalog_cross_check(self, capsys):
        code, out, _ = run(capsys, "verify",
                           str(FIXTURES / "corrupt" / "riccati.json"))
        assert code == 3
        assert "FAIL defining equation [vs catalog riccati]" in out
        assert "order 1" in out

    @pytest.mark.parametrize("path,calls", [
        (FIXTURES / "riccati.json", 1),
        (FIXTURES / "corrupt" / "riccati.json", 2)], ids=["same", "corrupt"])
    def test_catalog_rhs_reuses_self_check(self, capsys, monkeypatch, path,
                                           calls):
        # The catalog cross-check repeats the self-check unless the rhs
        # differ, as in the sign-flipped corrupt fixture.
        seen = []

        def counted(*args, **kwargs):
            seen.append(args)
            return residual_check(*args, **kwargs)

        monkeypatch.setattr(cli, "residual_check", counted)
        run(capsys, "verify", str(path))
        assert len(seen) == calls

    def test_catalog_cross_check_fails_on_another_rhs(self, tmp_path,
                                                      capsys):
        # A pde series named after the catalog's burgers but solved for
        # another rhs passes its self-check and fails the cross-check.
        doc = json.loads((FIXTURES / "burgers.json").read_text())
        doc["rhs"] = {"u": "2*u*u_x"}
        path = tmp_path / "burgers.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(path), "--order", "7")
        assert code == 3
        assert "PASS defining equation [self]" in out
        assert "FAIL defining equation [vs catalog burgers]" in out

    def test_term_budget_reaches_picard(self, capsys, monkeypatch):
        budgets = []

        def recorded(sol, term_budget):
            budgets.append(term_budget)
            return chron_equiv_check(sol, term_budget)

        monkeypatch.setattr(cli, "chron_equiv_check", recorded)
        code, _, _ = run(capsys, "verify", fx("riccati"),
                         "--term-budget", "500")
        assert code == 0
        assert budgets == [500]

    @pytest.mark.parametrize("argv,checks", [
        ([str(FIXTURES / "corrupt" / "riccati.json")], 2),
        (["--suite", "catalog"], 8)], ids=["file", "catalog"])
    def test_term_budget_reaches_every_residual_check(self, capsys,
                                                      monkeypatch, argv,
                                                      checks):
        # The file mode's self and vs-catalog checks, and the suite's.
        budgets = []

        def recorded(sol, term_budget):
            budgets.append(term_budget)
            return residual_check(sol, term_budget)

        monkeypatch.setattr(cli, "residual_check", recorded)
        run(capsys, "verify", *argv, "--term-budget", "500")
        assert budgets == [500] * checks

    def test_term_budget_stops_the_residual(self, tmp_path, capsys):
        # Every coefficient of the solve is one monomial; the residual, the
        # first check, expands sqrt(1 + u), whose argument has two.  The
        # homomorphism's Lie series would overflow next, with its own
        # message.
        doc = {"kind": "pde", "time": {"name": "t", "initial": "0"},
               "space": ["x"], "fields": ["u"], "rhs": {"u": "sqrt(1 + u)"}}
        path = tmp_path / "sqrt.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "solve", str(path), "--term-budget", "1")[0] == 0
        code, out, err = run(capsys, "verify", str(path), "--term-budget",
                             "1")
        assert code == 2
        assert out == ""
        assert err == ("chronexp: resource limit: series coefficient "
                       "exceeds 1 monomials\n")
        code, out, _ = run(capsys, "verify", str(path), "--term-budget", "2")
        assert code == 0
        assert out.endswith("2/2 checks passed\n")

    def test_pde_file_mode(self, capsys):
        code, out, _ = run(capsys, "verify", fx("heat"), "--order", "4")
        assert code == 0
        assert "homomorphism" in out

    def test_dyson_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "dyson")
        assert code == 0
        assert "inverse identity [airy]" in out
        assert "inverse identity [random seed 0]" in out
        assert "product-integral order" in out

    def test_negative_seed(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "dyson",
                           "--seed", "-1")
        assert code == 1
        assert err == "chronexp: error: --seed must be non-negative\n"

    def test_seed_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "dyson",
                           "--seed", "3")
        assert code == 0
        assert "random seed 3" in out

    def test_catalog_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "catalog")
        assert code == 0
        assert out.count("defining equation") == 8
        assert out.count("reference comparison") == 8

    def test_homomorphism_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "homomorphism")
        assert code == 0
        assert "G=c^2" in out and "G=c*c_x" in out
        # every catalog pde is checked, transport included
        assert ("PASS homomorphism [transport, G=c*c_x]: homomorphism "
                "exact through order 5\n") in out

    def test_all_suite_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["reports"]
        assert all(r["passed"] for r in doc["reports"])
        assert {"name", "passed", "detail"} == set(doc["reports"][0])

    @pytest.mark.parametrize("suite", ["catalog", "homomorphism"])
    def test_suite_rejects_negative_order(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite,
                             "--order", "-1")
        assert code == 1
        assert out == ""
        assert "order must be non-negative" in err

    @pytest.mark.parametrize("target", [
        ["corrupt/riccati.json"], ["--suite", "catalog"], ["--suite", "all"]])
    def test_rejects_order_zero(self, capsys, target):
        # An order-0 series has no residual coefficient to check.
        if not target[0].startswith("--"):
            target = [str(FIXTURES / target[0])]
        code, out, err = run(capsys, "verify", *target, "--order", "0")
        assert code == 1
        assert out == ""
        assert "order 1 or more" in err

    def test_pendulum_picard_at_order_eight(self, capsys):
        code, out, _ = run(capsys, "verify", fx("pendulum"), "--order", "8")
        assert code == 0
        assert ("PASS chronological equivalence: chronological and "
                "exponential series agree exactly through order 8") in out

    def test_term_budget_reaches_homomorphism(self, capsys):
        # The KdV solve stays within 31 terms at order 4; the series of the
        # homomorphism's c*c_x reaches 59.
        code, out, err = run(capsys, "verify", fx("kdv"), "--order", "4",
                             "--term-budget", "40")
        assert code == 2
        assert out == ""
        assert "resource limit" in err

    def test_term_budget_at_homomorphism_peak(self, capsys):
        code, out, _ = run(capsys, "verify", fx("kdv"), "--order", "4",
                           "--term-budget", "59")
        assert code == 0
        assert out.endswith("2/2 checks passed\n")

    def test_term_budget_reaches_suite_solves(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "homomorphism",
                           "--term-budget", "3")
        assert code == 2
        assert "resource limit" in err

    def test_reciprocal_of_a_reciprocal_sum(self, tmp_path, capsys):
        # normalize once gave 2/(1/(1+u)) as 2*(1 + c), which normalized
        # again to 2 + 2*c, so the checks compared unequal forms of one
        # series and all three failed.
        doc = {"kind": "ode", "time": {"name": "t", "initial": "0"},
               "fields": ["u"], "rhs": {"u": "1/(t + 2/(1+u))"}}
        path = tmp_path / "nested.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(path), "--order", "4")
        assert code == 0
        assert out.count("PASS") == 3
        assert out.endswith("3/3 checks passed\n")

    def test_output_is_independent_of_hash_seed(self):
        # Symbol hashes, and with them the order of jets_of's sets and of
        # series.compose's term dicts, change with PYTHONHASHSEED; the
        # printed bytes must not.
        argvs = [["verify", fx("lotka_volterra"), "--order", "6"],
                 ["verify", fx("burgers"), "--order", "4"],
                 ["verify", "--suite", "all", "--format", "json"]]
        script = ("import sys\n"
                  "from chronexp.cli import main\n"
                  f"codes = [main(argv) for argv in {argvs!r}]\n"
                  "print(codes)\n")
        src = str(Path(cli.__file__).resolve().parent.parent)
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True,
                                  timeout=300, check=True)
            outputs.append(proc.stdout)
        assert outputs[0].endswith("[0, 0, 0]\n")
        assert outputs[0] == outputs[1]

    def test_path_and_suite_conflict(self, capsys):
        code, _, err = run(capsys, "verify", fx("riccati"),
                           "--suite", "dyson")
        assert code == 1
        assert "not both" in err


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------

class TestTopLevel:
    def test_no_arguments(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "solve" in out and "verify" in out
