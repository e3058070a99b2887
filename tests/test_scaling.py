import math
import time

import pytest

from listcolor.errors import ConfigError
from listcolor.scaling import (
    ScalingEvalError,
    ScalingParseError,
    parse_scaling,
)


class TestEvaluation:
    def test_linear(self):
        assert parse_scaling("2*n").evaluate_int(30) == 60

    def test_floor_prefix(self):
        assert parse_scaling("floor: n^(1/4) * 3").evaluate_int(16) == 6

    def test_natural_log(self):
        assert parse_scaling("log(n)").evaluate(math.e**2) == pytest.approx(2.0)

    def test_constant(self):
        assert parse_scaling("7").evaluate(999) == 7.0

    def test_left_associative_subtraction(self):
        assert parse_scaling("10-2-3").evaluate(0) == 5.0

    def test_left_associative_division(self):
        assert parse_scaling("24/4/3").evaluate(0) == 2.0

    def test_precedence(self):
        assert parse_scaling("2+3*4").evaluate(0) == 14.0
        assert parse_scaling("(2+3)*4").evaluate(0) == 20.0

    def test_power_right_associative(self):
        assert parse_scaling("2^3^2").evaluate(0) == 512.0

    def test_power_binds_tighter_than_product(self):
        assert parse_scaling("2*3^2").evaluate(0) == 18.0

    def test_nested_log(self):
        expr = parse_scaling("log(n^2)/2")
        assert expr.evaluate(math.e**3) == pytest.approx(3.0)

    def test_composite_regime_expression(self):
        expr = parse_scaling("n^(1/4) * 9^(1/2)")
        assert expr.evaluate(10000) == pytest.approx(30.0)

    @pytest.mark.parametrize("text, value", [
        ("1e3", 1000.0),
        ("1E3", 1000.0),
        (str(1e16), 1e16),  # "1e+16", as a JSON number reaches a config
        ("2.5e-2*n", 2.5),
        ("n^1.5e0", 1000.0),
    ])
    def test_exponent_notation(self, text, value):
        assert parse_scaling(text).evaluate(100) == pytest.approx(value)

    def test_evaluated_in_floats(self):
        assert type(parse_scaling("n").evaluate(7)) is float
        assert parse_scaling("n^2").evaluate_int(3) == 9


class TestRounding:
    def test_modes(self):
        assert parse_scaling("floor: n/2").evaluate_int(5) == 2
        assert parse_scaling("ceil: n/2").evaluate_int(5) == 3
        assert parse_scaling("round: n/4").evaluate_int(5) == 1

    def test_default_is_round(self):
        assert parse_scaling("n/4").rounding == "round"


class TestErrors:
    def test_syntax_error_carries_offset(self):
        with pytest.raises(ScalingParseError) as err:
            parse_scaling("2*+n")
        assert err.value.offset == 2

    def test_unknown_name(self):
        with pytest.raises(ScalingParseError, match="unknown name"):
            parse_scaling("2*m")

    def test_trailing_garbage(self):
        with pytest.raises(ScalingParseError, match="trailing"):
            parse_scaling("2*n 5")

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ScalingParseError):
            parse_scaling("(n+1")

    def test_unary_minus_outside_grammar(self):
        with pytest.raises(ScalingParseError):
            parse_scaling("-n")

    def test_division_by_zero_at_eval(self):
        expr = parse_scaling("n/(n-4)")
        assert expr.evaluate(6) == 3.0
        with pytest.raises(ScalingEvalError, match="division by zero"):
            expr.evaluate(4)

    def test_log_of_non_positive_at_eval(self):
        expr = parse_scaling("log(n-10)")
        with pytest.raises(ScalingEvalError, match="non-positive"):
            expr.evaluate(3)

    def test_eval_errors_carry_offset(self):
        with pytest.raises(ScalingEvalError) as err:
            parse_scaling("1/(2-2)").evaluate(0)
        assert err.value.offset == 1


class TestEveryEvaluationTerminates:
    """Each of these once hung, or ended in a traceback that is no
    ConfigError; each now raises ScalingEvalError at once."""

    @pytest.mark.parametrize("text, n, message", [
        ("n^n^n", 10, "out of range"),  # an int n built the integer 10^(10^10)
        ("1" + "0" * 309, 10, "not finite"),  # round(inf) raised OverflowError
        ("10^308*10", 1, "not finite"),
        ("0^(0-1)", 1, "negative power"),  # ZeroDivisionError
        ("(n-20)^0.5", 10, "not real"),  # a complex number reached round()
        ("n", 10**400, "too large"),  # float(n) raised OverflowError
        ("+".join(["1"] * 5000), 1, "recursion depth"),  # RecursionError
    ])
    def test_refused(self, text, n, message):
        expr = parse_scaling(text)
        start = time.perf_counter()
        with pytest.raises(ScalingEvalError, match=message):
            expr.evaluate_int(n)
        assert time.perf_counter() - start < 2

    @pytest.mark.parametrize("text", ["(" * 5000 + "n" + ")" * 5000, "2^" * 5000 + "2"])
    def test_deep_nesting_refused_at_parse(self, text):
        with pytest.raises(ScalingParseError, match="nested too deeply"):
            parse_scaling(text)

    def test_scaling_errors_are_config_errors(self):
        assert issubclass(ScalingParseError, ConfigError)
        assert issubclass(ScalingEvalError, ConfigError)
