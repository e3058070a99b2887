"""Recursive-descent parser for experiment scaling expressions.

Grammar: number | n | log(expr) | expr (+,-,*,/,^) expr | (expr), with the
usual precedence, left-associative +,-,*,/ and right-associative ^; log is
the natural logarithm; a number may carry an exponent (1e3).  An optional
'floor:'/'ceil:'/'round:' prefix declares how evaluations are rounded to
integers (default: round, Python semantics).  Evaluation is in floats, and a
value that is not a finite real number is refused.

Errors are ConfigErrors and carry the byte offset into the source text.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ConfigError


class ScalingParseError(ConfigError):
    def __init__(self, offset: int, message: str):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset


class ScalingEvalError(ConfigError):
    def __init__(self, offset: int, message: str):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)
  | (?P<name>[A-Za-z_]+)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


def _tokenize(text: str, base_offset: int):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ScalingParseError(base_offset + pos, f"unexpected character {text[pos]!r}")
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), base_offset + pos))
        pos = m.end()
    tokens.append(("end", "", base_offset + len(text)))
    return tokens


# AST nodes: ("num", value), ("n",), ("log", child, offset),
# ("+"|"-"|"*"|"/"|"^", left, right, offset)


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ScalingParseError(offset, f"expected {op!r}, got {text or 'end of input'!r}")
        return self.take()

    def parse_expression(self):
        node = self.parse_term()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                node = (text, node, self.parse_term(), offset)
            else:
                return node

    def parse_term(self):
        node = self.parse_power()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text in "*/":
                self.take()
                node = (text, node, self.parse_power(), offset)
            else:
                return node

    def parse_power(self):
        base = self.parse_atom()
        kind, text, offset = self.peek()
        if kind == "op" and text == "^":
            self.take()
            return ("^", base, self.parse_power(), offset)  # right-associative
        return base

    def parse_atom(self):
        kind, text, offset = self.take()
        if kind == "number":
            return ("num", float(text))
        if kind == "name":
            if text == "n":
                return ("n",)
            if text == "log":
                self.expect_op("(")
                inner = self.parse_expression()
                self.expect_op(")")
                return ("log", inner, offset)
            raise ScalingParseError(offset, f"unknown name {text!r} (only n and log)")
        if kind == "op" and text == "(":
            inner = self.parse_expression()
            self.expect_op(")")
            return inner
        raise ScalingParseError(offset, f"expected a number, n, log(...) or '(', got {text!r}")


def _eval_node(node, n: float) -> float:
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "n":
        return n
    if tag == "log":
        value = _eval_node(node[1], n)
        if value <= 0:
            raise ScalingEvalError(node[2], f"log of non-positive value {value}")
        return math.log(value)
    op, left, right, offset = node
    a = _eval_node(left, n)
    b = _eval_node(right, n)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    try:  # / and ^, the operators that can fail
        value = a / b if op == "/" else a**b
    except (OverflowError, ValueError, ZeroDivisionError) as exc:
        raise ScalingEvalError(offset, f"{op} failed: {exc}") from None
    if isinstance(value, complex):  # a negative base to a fractional power
        raise ScalingEvalError(offset, f"{a}^{b} is not real")
    return value


_ROUNDINGS = {"floor": math.floor, "ceil": math.ceil, "round": round}


@dataclass(frozen=True)
class ScalingExpr:
    """A parsed expression over n plus a rounding mode for integer use."""

    source: str
    ast: tuple
    rounding: str = "round"

    def evaluate(self, n: float) -> float:
        try:
            value = _eval_node(self.ast, float(n))
        except (OverflowError, RecursionError) as exc:  # n past 1e308, or a deep tree
            raise ScalingEvalError(0, f"evaluation failed: {exc}") from None
        if not math.isfinite(value):
            raise ScalingEvalError(0, f"value {value} is not finite")
        return value

    def evaluate_int(self, n: float) -> int:
        return _ROUNDINGS[self.rounding](self.evaluate(n))


def parse_scaling(text: str) -> ScalingExpr:
    """Parse an expression, honoring an optional rounding-mode prefix like
    'floor: n^(1/4) * 3'."""
    m = re.match(rf"\s*({'|'.join(_ROUNDINGS)})\s*:", text)
    rounding, offset = (m.group(1), m.end()) if m else ("round", 0)
    parser = _Parser(_tokenize(text[offset:], offset))
    try:
        ast = parser.parse_expression()
    except RecursionError:
        raise ScalingParseError(offset, "expression nested too deeply") from None
    kind, tok_text, tok_offset = parser.peek()
    if kind != "end":
        raise ScalingParseError(tok_offset, f"unexpected trailing input {tok_text!r}")
    return ScalingExpr(text, ast, rounding)
