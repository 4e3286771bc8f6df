"""Front-end: expression grammar, problem documents, and printing."""

import json
import random
import sys
from fractions import Fraction

import pytest

from chronexp import (
    Add,
    Mul,
    ParseError,
    Pow,
    SchemaError,
    MixedDerivativeOrderTooHigh,
    TIME,
    INITIAL_TIME,
    UnknownIdentifier,
    ValidationError,
    build_context,
    const,
    jet,
    lie_coefficients,
    normalize,
    parse_expression,
    parse_problem,
    render,
)

from conftest import load_fixture, random_expr


def make_doc(**overrides):
    doc = {"kind": "ode", "time": {"name": "t", "initial": "0"},
           "fields": ["u"], "rhs": {"u": "u^2"}, "order": 4}
    doc.update(overrides)
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# Expression grammar
# ---------------------------------------------------------------------------

class TestGrammar:
    def setup_method(self):
        self.ode = parse_problem(make_doc())
        self.pde = parse_problem(make_doc(
            kind="pde", space=["x"], rhs={"u": "-u_xx"}))

    def test_field_square(self):
        assert parse_expression("u^2", self.ode) == Pow(jet(0, ()), 2)

    def test_jet_product(self):
        got = parse_expression("u*u_x", self.pde)
        assert got == Mul((jet(0, (0,)), jet(0, (1,))))

    def test_parse_is_normalize_of_the_raw_tree(self):
        # The text of a raw, unnormalized tree parses to its canonical form.
        p = load_fixture("burgers")
        ctx = p.context()
        symbols = [TIME, jet(0, (0,)), jet(0, (1,)), jet(0, (2,))]
        rng = random.Random(59)
        for _ in range(200):
            e = random_expr(rng, symbols)
            text = render(e, p)
            assert parse_expression(text, ctx) == normalize(e), text

    def test_spellings_of_a_reciprocal_power_agree(self):
        # normalize reads (b^k)^n as b^(k*n), so dividing by a power of a
        # sum keeps the sum, not its expansion, as the atom.
        want = parse_expression("u*(1 + u)^(-2)", self.ode)
        assert parse_expression("u/(1 + u)^2", self.ode) == want
        assert parse_expression("u*((1 + u)^2)^(-1)", self.ode) == want

    def test_literal_fractions_fold(self):
        assert parse_expression("1/2", self.ode) == const(Fraction(1, 2))
        assert parse_expression("2*3", self.ode) == const(6)

    def test_power_binds_tighter_than_product(self):
        got = parse_expression("2*u^2", self.ode)
        assert got == Mul((const(2), Pow(jet(0, ()), 2)))

    def test_unary_minus_binds_looser_than_power(self):
        got = normalize(parse_expression("-u^2", self.ode))
        u = jet(0, ())
        assert got == normalize(Mul((const(-1), Pow(u, 2))))

    def test_power_is_right_associative(self):
        got = parse_expression("2^3^2", self.ode)
        assert got == const(512)

    def test_subtraction_is_left_associative(self):
        got = normalize(parse_expression("8 - 4 - 2", self.ode))
        assert got == const(2)

    def test_division_chain(self):
        assert normalize(parse_expression("1/2/2", self.ode)) == \
            const(Fraction(1, 4))

    def test_double_negation(self):
        assert normalize(parse_expression("3 - -2", self.ode)) == const(5)

    def test_function_call(self):
        e = parse_expression("sin(x)", self.pde)
        assert normalize(e) != normalize(parse_expression("cos(x)", self.pde))

    def test_mixed_jet_letters_commute(self):
        pde2 = parse_problem(make_doc(
            kind="pde", space=["x", "y"], rhs={"u": "u_x + u_y"}))
        assert parse_expression("u_xy", pde2) == \
            parse_expression("u_yx", pde2)
        assert parse_expression("u_xy", pde2) == jet(0, (1, 1))

    def test_initial_style_aliases_parse(self):
        assert parse_expression("c", self.ode) == jet(0, ())
        sys2 = parse_problem(make_doc(
            kind="system", fields=["u", "v"], rhs={"u": "-v", "v": "u"}))
        assert parse_expression("c1", sys2) == jet(0, ())
        assert parse_expression("c2", sys2) == jet(1, ())
        assert parse_expression("c_xx", self.pde) == jet(0, (2,))

    def test_whitespace_insensitive(self):
        a = parse_expression("u^2+ t *u", self.ode)
        b = parse_expression("u^2 + t*u", self.ode)
        assert a == b


class TestGrammarErrors:
    def setup_method(self):
        self.ode = parse_problem(make_doc())
        self.pde = parse_problem(make_doc(
            kind="pde", space=["x"], rhs={"u": "-u_xx"}))

    @pytest.mark.parametrize("text,start,end", [
        ("u +", 3, 3),
        ("(u", 2, 2),
        ("u $ 2", 2, 3),
        ("", 0, 0),
    ])
    def test_syntax_errors_carry_spans(self, text, start, end):
        with pytest.raises(ParseError) as err:
            parse_expression(text, self.ode)
        assert (err.value.span.start, err.value.span.end) == (start, end)
        assert err.value.span.start <= err.value.span.end

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier) as err:
            parse_expression("w + 1", self.ode)
        assert (err.value.span.start, err.value.span.end) == (0, 1)

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifier):
            parse_expression("tanh(u)", self.ode)

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="no int/str conversion limit before 3.11")
    def test_number_past_the_digit_limit(self):
        text = "u + " + "1" * 4400
        with pytest.raises(ParseError) as err:
            parse_expression(text, self.ode)
        assert (err.value.span.start, err.value.span.end) == (4, len(text))

    def test_derivative_order_cap(self):
        with pytest.raises(MixedDerivativeOrderTooHigh):
            parse_expression("u_" + "x" * 9, self.pde)
        parse_expression("u_" + "x" * 8, self.pde)

    def test_cap_is_configurable(self):
        ctx = self.pde.context(max_jet_order=12)
        parse_expression("u_" + "x" * 12, ctx)
        with pytest.raises(MixedDerivativeOrderTooHigh):
            parse_expression("u_" + "x" * 13, ctx)

    def test_jet_suffix_without_space_variables(self):
        with pytest.raises(ValidationError):
            parse_expression("u_x", self.ode)

    def test_jet_suffix_with_undeclared_letter(self):
        with pytest.raises(UnknownIdentifier):
            parse_expression("u_z", self.pde)

    def test_non_integer_exponent(self):
        with pytest.raises(ParseError):
            parse_expression("u^u", self.ode)

    def test_empty_parentheses(self):
        with pytest.raises(ParseError):
            parse_expression("()", self.ode)


# ---------------------------------------------------------------------------
# Symbol contexts
# ---------------------------------------------------------------------------

class TestContext:
    def test_field_named_like_its_own_alias_is_coherent(self):
        p = parse_problem(make_doc(fields=["c"], rhs={"c": "c^2"}))
        assert parse_expression("c", p) == jet(0, ())

    def test_alias_collision_with_parameter(self):
        with pytest.raises(ValidationError):
            parse_problem(make_doc(params=["c"], rhs={"u": "c*u"}))

    def test_alias_collision_in_system(self):
        with pytest.raises(ValidationError):
            parse_problem(make_doc(kind="system", fields=["u", "c1"],
                                   rhs={"u": "-c1", "c1": "u"}))

    def test_reserved_function_names_rejected(self):
        with pytest.raises(ValidationError):
            parse_problem(make_doc(fields=["sin"], rhs={"sin": "sin^2"}))
        with pytest.raises(ValidationError):
            build_context("exp", ("u",), (), (), None)

    def test_space_names_single_letter(self):
        with pytest.raises(ValidationError):
            parse_problem(make_doc(kind="pde", space=["xi"],
                                   rhs={"u": "u_x"}))

    def test_duplicate_names_across_roles(self):
        with pytest.raises(ValidationError):
            parse_problem(make_doc(time={"name": "u", "initial": "0"}))

    def test_bad_identifier(self):
        with pytest.raises(ValidationError):
            build_context("t", ("2u",), (), (), None)


# ---------------------------------------------------------------------------
# Problem documents
# ---------------------------------------------------------------------------

class TestParseProblem:
    def test_riccati_fixture(self):
        p = load_fixture("riccati")
        assert p.kind == "ode"
        assert p.time_name == "t"
        assert p.initial_time == const(0)
        assert p.field_names == ("u",)
        assert p.rhs[0] == Pow(jet(0, ()), 2)
        assert p.order == 6

    def test_symbolic_initial_time(self):
        p = load_fixture("linear_time")
        assert p.initial_time == INITIAL_TIME
        assert p.initial_name == "a"

    def test_rational_initial_time(self):
        p = parse_problem(make_doc(time={"name": "t", "initial": "1/2"}))
        assert p.initial_time == const(Fraction(1, 2))

    def test_order_defaults_to_six(self):
        doc = json.loads(make_doc())
        del doc["order"]
        assert parse_problem(json.dumps(doc)).order == 6

    def test_params_usable_in_rhs(self):
        p = parse_problem(make_doc(params=["k"], rhs={"u": "k*u^2"}))
        assert "k" in p.param_names
        assert len(p.rhs[0].factors) == 2

    def test_problems_equal_when_documents_equal(self):
        assert parse_problem(make_doc()) == parse_problem(make_doc())

    @pytest.mark.parametrize("mangle,error", [
        (lambda d: d.pop("kind"), SchemaError),
        (lambda d: d.pop("fields"), SchemaError),
        (lambda d: d.pop("rhs"), SchemaError),
        (lambda d: d.pop("time"), SchemaError),
        (lambda d: d.update(extra=1), SchemaError),
        (lambda d: d.update(kind="dae"), ValidationError),
        (lambda d: d.update(fields=[]), ValidationError),
        (lambda d: d.update(fields=["u", "v"]), ValidationError),
        (lambda d: d.update(order=0), ValidationError),
        (lambda d: d.update(order="six"), SchemaError),
        (lambda d: d.update(space=["x"]), ValidationError),
        (lambda d: d.update(rhs={"v": "v^2"}), ValidationError),
        (lambda d: d.update(rhs={"u": 3}), SchemaError),
        (lambda d: d.update(fields="u"), SchemaError),
        (lambda d: d.update(time={"name": "t"}), SchemaError),
    ])
    def test_rejections(self, mangle, error):
        doc = json.loads(make_doc())
        mangle(doc)
        with pytest.raises(error):
            parse_problem(json.dumps(doc))

    def test_pde_requires_space(self):
        with pytest.raises(ValidationError):
            parse_problem(make_doc(kind="pde", rhs={"u": "u"}))

    def test_duplicate_fields(self):
        with pytest.raises(ValidationError):
            parse_problem(make_doc(kind="system", fields=["u", "u"],
                                   rhs={"u": "u"}))

    def test_rhs_may_not_use_initial_time(self):
        with pytest.raises(ValidationError):
            parse_problem(make_doc(time={"name": "t", "initial": "a"},
                                   rhs={"u": "a*u"}))

    def test_invalid_json(self):
        with pytest.raises(SchemaError):
            parse_problem("{not json")

    def test_non_object_document(self):
        with pytest.raises(SchemaError):
            parse_problem("[1, 2]")

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="no int/str conversion limit before 3.11")
    def test_integer_past_the_digit_limit(self):
        doc = make_doc().replace('"order": 4', '"order": ' + "1" * 5001)
        with pytest.raises(SchemaError):
            parse_problem(doc)

    def test_parsed_names_are_the_problems_symbols(self):
        ode = load_fixture("riccati")
        assert parse_expression("u", ode) == ode.jet_symbol(0)
        pde = load_fixture("heat")
        assert parse_expression("u_x", pde) == pde.jet_symbol(0, (1,))

    def test_parse_expression_accepts_problem_or_context(self):
        p = load_fixture("riccati")
        assert parse_expression("u^2", p) == \
            parse_expression("u^2", p.context())


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

class TestRender:
    def test_styles(self):
        p = load_fixture("heat")
        e = normalize(parse_expression("u_x^2 + u*u_xx", p))
        assert render(e, p, style="field") == "u*u_xx + u_x^2"
        assert render(e, p) == "c*c_xx + c_x^2"

    def test_leading_minus(self):
        p = load_fixture("riccati")
        e = normalize(parse_expression("-c^4", p))
        assert render(e, p) == "-c^4"

    def test_rational_coefficients(self):
        p = load_fixture("heat")
        e = normalize(parse_expression("1/2*c_xx", p))
        assert render(e, p) == "1/2*c_xx"

    def test_unknown_style(self):
        p = load_fixture("riccati")
        with pytest.raises(ValueError):
            render(p.rhs[0], p, style="fancy")

    @pytest.mark.parametrize("name", [
        "riccati", "harmonic", "lotka_volterra", "linear_time",
        "heat", "burgers", "transport",
    ])
    def test_series_coefficients_round_trip(self, name):
        p = load_fixture(name)
        sol = lie_coefficients(p, 4)
        ctx = p.context(max_jet_order=16)
        for column in sol.coeffs:
            for coeff in column:
                text = render(coeff, p)
                assert normalize(parse_expression(text, ctx)) == coeff

    def test_random_round_trip_is_tree_identical(self):
        p = load_fixture("burgers")
        ctx = p.context()
        symbols = [TIME, jet(0, (0,)), jet(0, (1,)), jet(0, (2,))]
        rng = random.Random(41)
        for _ in range(400):
            e = normalize(random_expr(rng, symbols))
            text = render(e, p)
            assert parse_expression(text, ctx) == e, text

    def test_round_trip_with_symbolic_initial_time(self):
        p = load_fixture("linear_time")
        ctx = p.context()
        symbols = [TIME, INITIAL_TIME, jet(0, ())]
        rng = random.Random(47)
        for _ in range(200):
            e = normalize(random_expr(rng, symbols))
            text = render(e, p)
            assert parse_expression(text, ctx) == e, text

    def test_negated_sum_keeps_its_parentheses(self):
        # A summand with a negative rational prints its other factors each
        # as a product factor, so a negated sum stays in parentheses; raw
        # trees as well as canonical ones read back to the same value.
        p = load_fixture("burgers")
        ctx = p.context()
        symbols = [TIME, jet(0, (0,)), jet(0, (1,)), jet(0, (2,))]
        c, c_x, c_xx = symbols[1:]
        negated = Add((c, Mul((const(-1), Add((c_x, c_xx))))))
        assert render(negated, p) == "c - (c_x + c_xx)"
        rng = random.Random(41)
        trees = [negated, Add((c_x, Mul((const(-1), Add((
            const(-1), const(Fraction(1, 2))))))))]
        trees += [random_expr(rng, symbols) for _ in range(2000)]
        for e in trees:
            text = render(e, p)
            assert normalize(parse_expression(text, ctx)) == normalize(e), text

    def test_field_style_round_trip(self):
        p = load_fixture("burgers")
        ctx = p.context()
        symbols = [TIME, jet(0, (0,)), jet(0, (1,))]
        rng = random.Random(43)
        for _ in range(200):
            e = normalize(random_expr(rng, symbols))
            text = render(e, p, style="field")
            assert parse_expression(text, ctx) == e, text
