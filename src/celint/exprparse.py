"""Recursive-descent parser for the textual expression grammar.

One grammar serves every textual input in the package: rational
functions in m, ring class expressions, and the structure-constant
strings of literal ring presentations. The parser is generic over an
algebra object supplying the value type and its operations, so each
caller decides what names mean and which operations are legal.

Grammar (left associative, ^ binds tightest):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('-' | '+') factor | power
    power  := atom ('^' ('-')? INT)?
    atom   := INT | NAME | '[' NAME ']' | '(' expr ')'

Input size is bounded before anything is computed. The parser carries
for each subexpression a bound on its degree: atoms count 1, the four
binary operations add the bounds of their operands (a sum of fractions
multiplies their denominators), and a power multiplies its base's bound
by the exponent. An operation whose bound exceeds MAX_DEGREE raises
ParseError, so an exponent literal above MAX_DEGREE is rejected too. The
bound covers the degrees in m of the numerator and denominator of a
rational function, and the number of factors in a product of ring
elements. Exact gcds of rational functions grow steeply with degree:
near the limit a parse takes a fraction of a second. The parser
recurses once per parenthesis and once per unary sign, so it counts
their nesting and raises ParseError above MAX_DEPTH before recursing,
well inside the interpreter's recursion limit.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import ParseError
from .exactnum import RF_M, RationalFunction

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CONT = _NAME_START | set("0123456789")
_DIGITS = set("0123456789")

MAX_DEGREE = 64
MAX_DEPTH = 100


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", text[i:j]))
            i = j
            continue
        if ch in _NAME_START:
            j = i
            while j < n and text[j] in _NAME_CONT:
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
            continue
        if ch == "[":
            j = text.find("]", i)
            if j < 0:
                raise ParseError(f"unterminated '[' at position {i} in {text!r}")
            inner = text[i + 1 : j].strip()
            if not inner:
                raise ParseError(f"empty '[]' name at position {i} in {text!r}")
            tokens.append(("name", f"[{inner}]"))
            i = j + 1
            continue
        raise ParseError(f"unexpected character {ch!r} at position {i} in {text!r}")
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, text: str, algebra):
        self.text = text
        self.algebra = algebra
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(
                f"expected {kind!r} but found {tok[1]!r} in {self.text!r}"
            )
        return tok

    def parse(self):
        value, _ = self.expr()
        if self.peek() != "end":
            tok = self.tokens[self.pos]
            raise ParseError(f"trailing input at {tok[1]!r} in {self.text!r}")
        return value

    # Each rule returns (value, degree bound); see the module docstring.

    def bounded(self, degree):
        if degree > MAX_DEGREE:
            raise ParseError(
                f"expression degree bound {degree} is above the limit "
                f"{MAX_DEGREE} in {self.text!r}"
            )
        return degree

    def nested(self, rule):
        """Parse rule one nesting level deeper: a parenthesis or a sign."""
        if self.depth >= MAX_DEPTH:
            raise ParseError(
                f"expression nests parentheses and signs more than "
                f"{MAX_DEPTH} deep"
            )
        self.depth += 1
        result = rule()
        self.depth -= 1
        return result

    def integer(self, text):
        try:
            return int(text)
        except ValueError:  # above the interpreter's digit limit
            raise ParseError(f"integer literal of {len(text)} digits is too long")

    def expr(self):
        value, degree = self.term()
        while self.peek() in ("+", "-"):
            op = self.advance()[0]
            rhs, rdeg = self.term()
            degree = self.bounded(degree + rdeg)
            value = self.algebra.add(value, rhs) if op == "+" else self.algebra.sub(value, rhs)
        return value, degree

    def term(self):
        value, degree = self.factor()
        while self.peek() in ("*", "/"):
            op = self.advance()[0]
            rhs, rdeg = self.factor()
            degree = self.bounded(degree + rdeg)
            value = self.algebra.mul(value, rhs) if op == "*" else self.algebra.div(value, rhs)
        return value, degree

    def factor(self):
        if self.peek() in ("+", "-"):
            op = self.advance()[0]
            value, degree = self.nested(self.factor)
            return (self.algebra.neg(value) if op == "-" else value), degree
        return self.power()

    def power(self):
        value, degree = self.atom()
        if self.peek() == "^":
            self.advance()
            sign = 1
            if self.peek() == "-":
                self.advance()
                sign = -1
            k = self.integer(self.expect("int")[1])
            degree = self.bounded(degree * k)
            value = self.algebra.pow(value, sign * k)
        return value, degree

    def atom(self):
        kind, text = self.advance()
        if kind == "int":
            return self.algebra.const(Fraction(self.integer(text))), 1
        if kind == "name":
            return self.algebra.name(text), 1
        if kind == "(":
            value = self.nested(self.expr)
            self.expect(")")
            return value
        raise ParseError(f"unexpected token {text!r} in {self.text!r}")


def parse_expression(text: str, algebra):
    """Parse text with the given algebra; raises ParseError on any malformed input."""
    if not isinstance(text, str):
        raise ParseError(f"expected an expression string, got {type(text).__name__}")
    return _Parser(text, algebra).parse()


class Operators:
    """The operations of an algebra whose values take Python's arithmetic
    operators; an algebra adds `const` and `name`."""

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    div = staticmethod(operator.truediv)
    neg = staticmethod(operator.neg)
    pow = staticmethod(operator.pow)


class RFAlgebra(Operators):
    """Algebra of rational functions in m; the only legal name is m itself."""

    @staticmethod
    def const(c: Fraction) -> RationalFunction:
        return RationalFunction.constant(c)

    @staticmethod
    def name(name: str) -> RationalFunction:
        if name != "m":
            raise ParseError(f"unknown name {name!r} in a rational function")
        return RF_M

    @staticmethod
    def div(a, b):
        if b.is_zero():
            raise ParseError("division by zero in expression")
        return a / b


def parse_rf(text: str) -> RationalFunction:
    """Parse a rational function in m."""
    return parse_expression(text, RFAlgebra)
