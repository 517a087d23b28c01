import math
from fractions import Fraction

import numpy as np
import pytest

from srkilling import expr as ex
from srkilling.expr import (
    EvalError,
    ParseError,
    compile_expression,
    differentiate,
    parse_expression,
)

from conftest import finite_difference, random_expression
from eval_reference import evaluate

XYZ = ["x", "y", "z"]


class TestParse:
    def test_negated_quotient(self):
        e = parse_expression("-y/2", XYZ)
        assert evaluate(e, {"x": 0, "y": 2, "z": 0}) == -1.0

    def test_power_and_function(self):
        e = parse_expression("x^2 + sin(z)*3/4", XYZ)
        val = evaluate(e, {"x": 2, "y": 0, "z": 1})
        assert val == pytest.approx(4 + math.sin(1) * 0.75, abs=1e-15)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError) as err:
            parse_expression("x + w", XYZ)
        assert "w" in str(err.value)
        assert err.value.offset == 4

    def test_rational_number(self):
        e = parse_expression("3/4", [])
        assert e == ex.const("3/4")

    def test_division_left_associative(self):
        e = parse_expression("8/2/2", [])
        assert evaluate(e, {}) == 2.0

    def test_empty_denominator(self):
        with pytest.raises(ParseError):
            parse_expression("x/", XYZ)

    def test_pow_atom_rational_exponent(self):
        e = parse_expression("pow(x^2+1, -1/2)", ["x"])
        assert evaluate(e, {"x": 1.0}) == pytest.approx(2 ** -0.5)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expression("x + 1 )", XYZ)

    @pytest.mark.parametrize(
        "text, literal, offset",
        [("0.5", "0.5", 0), ("-0.5 + t", "0.5", 1), ("1e-3*t", "1e-3", 0), ("t^2.5", "2.5", 2)],
    )
    def test_decimal_literal_is_named(self, text, literal, offset):
        with pytest.raises(ParseError) as err:
            parse_expression(text, ["t"])
        assert str(err.value) == (
            f"decimal literal {literal!r}: numbers are exact rationals, write it as a "
            f"ratio of integers such as 1/2 (at offset {offset})"
        )

    def test_depth_limit(self):
        k = ex.MAX_PARSE_DEPTH
        assert ex.expression_depth(parse_expression(" + ".join(["x"] * k), XYZ)) == k
        with pytest.raises(ParseError, match="levels deep"):
            parse_expression(" + ".join(["x"] * (k + 1)), XYZ)
        with pytest.raises(ParseError, match="too deeply"):
            parse_expression("(" * 2000 + "x" + ")" * 2000, XYZ)

    def test_whitespace_insensitive(self):
        a = parse_expression("x * y+ z", XYZ)
        b = parse_expression("x*y+z", XYZ)
        assert a == b


class TestDifferentiate:
    def test_linear(self):
        e = parse_expression("-y/2", XYZ)
        assert differentiate(e, "y") == ex.const("-1/2")

    def test_chain_rule_rational_power(self):
        e = parse_expression("pow(x^2+1, -1/2)", ["x"])
        d = differentiate(e, "x")
        for x in (0.0, 0.5, 1.7, -2.3):
            expected = -x * (x * x + 1) ** -1.5
            assert evaluate(d, {"x": x}) == pytest.approx(expected, rel=1e-14)

    def test_constant_in_other_variable(self):
        e = parse_expression("x*y", XYZ)
        assert differentiate(e, "z") == ex.ZERO

    def test_trig_and_exp(self):
        e = parse_expression("sin(x)*cos(x) + exp(2*x)", ["x"])
        d = differentiate(e, "x")
        for x in (-1.0, 0.3):
            expected = math.cos(x) ** 2 - math.sin(x) ** 2 + 2 * math.exp(2 * x)
            assert evaluate(d, {"x": x}) == pytest.approx(expected, rel=1e-13)


class TestEvaluate:
    def test_point(self):
        e = parse_expression("-y/2", XYZ)
        assert evaluate(e, {"x": 0.0, "y": 2.0, "z": 0.0}) == -1.0

    def test_square_root(self):
        assert evaluate(parse_expression("pow(4, 1/2)", []), {}) == 2.0

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            evaluate(parse_expression("1/x", ["x"]), {"x": 0.0})

    def test_constant_over_the_float_range(self):
        e = parse_expression("x + 10^400", ["x"])
        with pytest.raises(EvalError):
            compile_expression(e, ["x"])
        with pytest.raises(EvalError):
            evaluate(e, {"x": 0.0})

    def test_even_root_of_negative(self):
        with pytest.raises(EvalError):
            evaluate(parse_expression("pow(x, 1/2)", ["x"]), {"x": -1.0})

    def test_odd_root_sign_aware(self):
        val = evaluate(parse_expression("pow(x, 1/3)", ["x"]), {"x": -8.0})
        assert val == pytest.approx(-2.0)

    def test_non_finite(self):
        with pytest.raises(EvalError):
            evaluate(parse_expression("exp(x)", ["x"]), {"x": 1e9})

    def test_unbound_variable(self):
        with pytest.raises(EvalError):
            evaluate(parse_expression("x", ["x"]), {})


class TestProperties:
    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(200):
            e = random_expression(rng, XYZ)
            var = XYZ[rng.integers(3)]
            d = differentiate(e, var)
            for _ in range(3):
                p = rng.uniform(-1, 1, 3)
                try:
                    val = evaluate(d, dict(zip(XYZ, p)))
                    fd = finite_difference(e, XYZ, var, p)
                except EvalError:
                    continue
                assert abs(val - fd) <= 1e-6 * (1 + abs(val)), str(e)
                checked += 1
        assert checked > 300

    def test_differentiation_is_linear(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            e1 = random_expression(rng, XYZ)
            e2 = random_expression(rng, XYZ)
            a = ex.const(int(rng.integers(-5, 6)))
            combo = ex.add(ex.mul(a, e1), e2)
            d_combo = differentiate(combo, "x")
            d_split = ex.add(ex.mul(a, differentiate(e1, "x")), differentiate(e2, "x"))
            for _ in range(4):
                p = dict(zip(XYZ, rng.uniform(-1, 1, 3)))
                try:
                    lhs, rhs = evaluate(d_combo, p), evaluate(d_split, p)
                except EvalError:
                    continue
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_print_parse_roundtrip(self):
        rng = np.random.default_rng(13)
        for _ in range(150):
            e = random_expression(rng, XYZ)
            back = parse_expression(str(e), XYZ)
            for _ in range(3):
                p = dict(zip(XYZ, rng.uniform(-1, 1, 3)))
                try:
                    a = evaluate(e, p)
                except EvalError:
                    continue
                assert evaluate(back, p) == pytest.approx(a, rel=1e-14, abs=1e-14)

    def test_compiled_matches_scalar(self):
        rng = np.random.default_rng(17)
        pts = rng.uniform(-1, 1, (50, 3))
        for _ in range(40):
            e = random_expression(rng, XYZ)
            fn = compile_expression(e, XYZ)
            vec = fn(pts[:, 0], pts[:, 1], pts[:, 2])
            for i in range(0, 50, 7):
                p = dict(zip(XYZ, pts[i]))
                try:
                    val = evaluate(e, p)
                except EvalError:
                    continue
                assert vec[i] == pytest.approx(val, rel=1e-13, abs=1e-13)


class TestNormalize:
    def test_polynomial_cancellation(self):
        e = parse_expression("(x + y)*(x - y) - x^2 + y^2", XYZ)
        assert ex.normalize(e) == ex.ZERO

    def test_exact_division(self):
        num = parse_expression("x^3 + 3*x^2*y + 3*x*y^2 + y^3", XYZ)
        den = parse_expression("x + y", XYZ)
        q = ex.normalize(ex.Div(num, den))
        diff = ex.normalize(ex.sub(q, parse_expression("x^2 + 2*x*y + y^2", XYZ)))
        assert diff == ex.ZERO

    def test_inexact_division_preserved(self):
        num = parse_expression("x^2 + 1", XYZ)
        den = parse_expression("x + 1", XYZ)
        q = ex.normalize(ex.Div(num, den))
        assert evaluate(q, {"x": 2.0, "y": 0.0, "z": 0.0}) == pytest.approx(5 / 3)

    def test_pow_division(self):
        det = parse_expression("x^2 + 1", XYZ)
        num = ex.mul(det, parse_expression("y", XYZ))
        q = ex.normalize(ex.mul(num, ex.pow_(det, Fraction(-1))))
        assert q == ex.Var("y")

    def test_merged_pow_exponents(self):
        e = ex.pow_(ex.pow_(ex.Var("x"), Fraction(2)), Fraction(3))
        assert e == ex.Pow(ex.Var("x"), Fraction(6))

    def test_x_to_zero_is_one(self):
        assert ex.pow_(ex.Var("x"), Fraction(0)) == ex.ONE

    def test_exact_rational_constants(self):
        e = parse_expression("1/3 + 1/3 + 1/3", [])
        assert e == ex.ONE
