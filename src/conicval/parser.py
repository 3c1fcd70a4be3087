"""Recursive-descent parser for field-element expressions.

Grammar (standard precedence, ^ binds tightest, unary minus below it):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' ('-')? INT)?
    atom   := INT | NAME | '(' expr ')'

Integers become elements of the target context, names resolve through the
declared variable table, and all arithmetic is exact, so the printed form of
any element parses back to an equal value.
"""

from __future__ import annotations

import operator
import re

from .errors import (ExpressionOutOfRange, ExpressionSyntaxError,
                     UndeclaredVariable)

# The largest exponent, and degree of any power, sum, difference, product or
# quotient, an expression may ask for.
MAX_EXPONENT = 1000

# The deepest nesting an expression may have, each open '(' and each unary
# '-' one level: at up to eight frames a level, the parser's recursion stays
# inside Python's default limit of 1000 frames.
MAX_NESTING = 100

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_]\w*)|"
                    r"(?P<op>[-+*/^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExpressionSyntaxError(f"unexpected character {stripped[0]!r}", at)
        if m.group("int") is not None:
            tokens.append(("int", m.group("int"), m.start("int")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, context, variables):
        self.tokens = _tokenize(text)
        self.i = 0
        self.context = context
        self.variables = variables
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        raise ExpressionSyntaxError(f"expected {op!r}", pos)

    def parse(self):
        value = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected {text!r}", pos)
        return value

    def expr(self):
        return self.chain(self.term, "+-")

    def term(self):
        return self.chain(self.factor, "*/")

    def chain(self, operand, ops: str):
        """operand (op operand)* for op in ops, left to right, with the
        degree of each result bounded by MAX_EXPONENT."""
        value = operand()
        while True:
            kind, text, pos = self.peek()
            if kind != "op" or text not in ops:
                return value
            self.advance()
            value = _BINARY[text](value, operand())
            if hasattr(value, "degree") and value.degree() > MAX_EXPONENT:
                raise ExpressionOutOfRange(f"exponent or degree beyond "
                                           f"{MAX_EXPONENT} (offset {pos})")

    def nested(self, operand, pos):
        """operand() one level deeper, at most MAX_NESTING levels."""
        if self.depth == MAX_NESTING:
            raise ExpressionOutOfRange(f"nesting beyond {MAX_NESTING} "
                                       f"(offset {pos})")
        self.depth += 1
        value = operand()
        self.depth -= 1
        return value

    def factor(self):
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return -self.nested(self.factor, pos)
        return self.power()

    def power(self):
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            sign = 1
            kind, text, pos = self.peek()
            if kind == "op" and text == "-":
                self.advance()
                sign = -1
                kind, text, pos = self.peek()
            if kind != "int":
                raise ExpressionSyntaxError("exponent must be an integer", pos)
            self.advance()
            degree = base.degree() if hasattr(base, "degree") else 1
            if int(text) * max(degree, 1) > MAX_EXPONENT:
                raise ExpressionOutOfRange(f"exponent or degree beyond "
                                           f"{MAX_EXPONENT} (offset {pos})")
            return base ** (sign * int(text))
        return base

    def atom(self):
        kind, text, pos = self.advance()
        if kind == "int":
            return self.context.from_int(int(text))
        if kind == "name":
            if text not in self.variables:
                raise UndeclaredVariable(text, pos)
            return self.variables[text]
        if kind == "op" and text == "(":
            value = self.nested(self.expr, pos)
            self.expect_op(")")
            return value
        raise ExpressionSyntaxError(
            f"unexpected {text!r}" if text else "unexpected end of input", pos)


def parse_element(text: str, context, variables: dict | None = None):
    """Parse ``text`` into an element, with integers built by ``context``
    and names resolved through ``variables``."""
    try:
        return _Parser(text, context, variables or {}).parse()
    except ZeroDivisionError as exc:    # x/0 or 0^-n
        raise ExpressionOutOfRange(f"division by zero in {text!r}") from exc
    except ValueError as exc:    # past Python's limit on int conversion
        raise ExpressionOutOfRange("integer literal too long") from exc
    except RecursionError as exc:    # nesting within the bound, deep caller
        raise ExpressionOutOfRange("expression nesting exhausts the Python "
                                   "stack of this call") from exc
