"""Recursive-descent parser for polynomial product expressions.

Grammar (whitespace is ignored):

    full   := '-'? expr (('+' | '-') expr)*
    expr   := term (('*' | '/') term)*
    term   := atom ('^' posint)?
    atom   := '(' sum ')' | 'Phi(' posint ')' | signed
    sum    := '-'? signed (('+' | '-') signed)*
    signed := posint? VAR ('^' posint)? | posint

'/' must divide exactly; 'Phi(d)' is the d-th cyclotomic polynomial.  The
variable name defaults to 'x' (padding factors use 'y').  Products bind
tighter than top-level sums, so "x^5-1" and "(x+1)*(x^2+1)^2" both parse
as written.  full and sum are one signed-sum rule over two operands, and
one method parses both.  Errors carry the offset into the input where
parsing failed.

Every power, product and 'Phi(d)' is checked against MAX_DEGREE before it
is built, and so is every exponent, even of a constant: an input that would
exceed the limit is a PolyParseError, never a long computation.
"""
from __future__ import annotations

from typing import Callable

from .polynomials import (MAX_DEGREE, IntPoly, cyclotomic, euler_phi,
                          exact_div)

# a posint is ASCII digits; str.isdigit would also take other scripts'
# digits and superscripts such as '²'
_DIGITS = frozenset("0123456789")


class PolyParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Parser:
    def __init__(self, text: str, var: str):
        self.text = text
        self.var = var
        self.pos = 0

    def error(self, message: str) -> PolyParseError:
        return PolyParseError(message, self.pos)

    def check_degree(self, degree: int, what: str, pos: int) -> None:
        if degree > MAX_DEGREE:
            raise PolyParseError(f"{what} is above the degree limit "
                                 f"{MAX_DEGREE}", pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected '{ch}'")
        self.pos += 1

    def posint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # beyond the interpreter's digit limit
            raise PolyParseError("integer literal too long", start) from None

    def signed_sum(self, operand: Callable[[], IntPoly]) -> IntPoly:
        """'-'? operand (('+' | '-') operand)*: full over expr, and sum
        over signed."""
        negate = self.peek() == "-"
        if negate:
            self.pos += 1
        value = operand()
        if negate:
            value = -value
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            rhs = operand()
            value = value + rhs if op == "+" else value - rhs
        return value

    def expr(self) -> IntPoly:
        value = self.term()
        while self.peek() in ("*", "/"):
            op = self.peek()
            op_pos = self.pos
            self.pos += 1
            rhs = self.term()
            if op == "*":
                self.check_degree(value.degree + rhs.degree, "product",
                                  op_pos)
                value = value * rhs
            else:
                try:
                    value = exact_div(value, rhs)
                except (ValueError, ZeroDivisionError) as e:
                    raise PolyParseError(str(e), op_pos) from None
        return value

    def term(self) -> IntPoly:
        value = self.atom()
        if self.peek() == "^":
            self.pos += 1
            pos = self.pos
            e = self.posint()
            self.check_degree(max(e, value.degree * e), "power", pos)
            value = value ** e
        return value

    def atom(self) -> IntPoly:
        self.skip_ws()
        if self.text.startswith("Phi", self.pos):
            self.pos += 3
            self.eat("(")
            d = self.posint()
            self.eat(")")
            if d < 1:
                raise self.error("Phi index must be >= 1")
            # phi(d) >= sqrt(d/2), so a larger d is over the limit too
            if d > 2 * MAX_DEGREE ** 2 or euler_phi(d) > MAX_DEGREE:
                raise self.error(f"Phi({d}) is above the degree limit "
                                 f"{MAX_DEGREE}")
            return cyclotomic(d)
        if self.peek() == "(":
            self.pos += 1
            value = self.signed_sum(self.signed)
            self.eat(")")
            return value
        return self.signed()

    def signed(self) -> IntPoly:
        self.skip_ws()
        coeff = 1
        saw_coeff = False
        if self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            coeff = self.posint()
            saw_coeff = True
        self.skip_ws()
        if self.text.startswith(self.var, self.pos):
            self.pos += len(self.var)
            power = 1
            if self.peek() == "^":
                self.pos += 1
                pos = self.pos
                power = self.posint()
                self.check_degree(power, "power", pos)
            return IntPoly.monomial(power, coeff)
        if saw_coeff:
            return IntPoly.constant(coeff)
        raise self.error(f"expected a coefficient or '{self.var}'")


def parse_poly(text: str, var: str = "x") -> IntPoly:
    """Parse an expression like "(x+1)*(x^2+1)^2" or "Phi(12)".

    >>> parse_poly("x^5-1").coeffs
    (-1, 0, 0, 0, 0, 1)
    >>> parse_poly("(x+1)*(x^5-1)/(x-1)").coeffs
    (1, 2, 2, 2, 2, 1)
    """
    p = _Parser(text, var)
    value = p.signed_sum(p.expr)
    p.skip_ws()
    if p.pos != len(text):
        raise p.error("unexpected trailing input")
    return value
