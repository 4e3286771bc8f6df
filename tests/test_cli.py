"""Command-line behavior: output formats, exit codes, determinism."""

import json
import math

import pytest

from chronexp import (
    build_generator,
    lie_coefficients,
    normalize,
    parse_expression,
    parse_problem,
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
        original = parse_problem(open(fx("burgers")).read())
        assert problem == dataclasses.replace(original, order=3)
        sol = lie_coefficients(build_generator(problem), 3)
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
