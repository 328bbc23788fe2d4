"""Recursive-descent parser for polynomial expressions over a prime field.

Accepts the canonical rendered form (``coeff*x^a*y^b + ...``) plus
parenthesized expressions, unary minus, and integer literals reduced mod p.
`^` exponents must be nonnegative integer literals.
"""

from __future__ import annotations

from .arith import DomainError, MultiPoly, Ring


class ParseError(ValueError):
    """Syntax error, with the offending position attached."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_SYMBOLS = "+-*^()"
# deeper nesting of parentheses and unary minus signs would exhaust Python's stack
_MAX_NESTING = 100


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, ring: Ring):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ring = ring
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def nested(self, parse):
        """Run ``parse`` one nesting level deeper."""
        if self.depth == _MAX_NESTING:
            raise ParseError("expression nested too deeply", self.peek()[2])
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    # expr := term (('+'|'-') term)*
    def expression(self) -> MultiPoly:
        value = self.term()
        while self.peek()[0] in "+-":
            op = self.next()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    # term := factor ('*' factor)*
    def term(self) -> MultiPoly:
        value = self.factor()
        while self.peek()[0] == "*":
            self.next()
            value = value * self.factor()
        return value

    # factor := '-' factor | atom ('^' int)?
    def factor(self) -> MultiPoly:
        if self.peek()[0] == "-":
            self.next()
            return -self.nested(self.factor)
        value = self.atom()
        while self.peek()[0] == "^":
            self.next()
            tok = self.peek()
            if tok[0] == "-":
                raise ParseError("negative exponent", tok[2])
            exp = self.expect("int")
            value = value ** int(exp[1])
        return value

    def atom(self) -> MultiPoly:
        kind, text, pos = self.next()
        if kind == "int":
            return self.ring.constant(int(text))
        if kind == "name":
            if text not in self.ring.variables:
                raise ParseError(f"unknown variable {text!r}", pos)
            return self.ring.variable(text)
        if kind == "(":
            value = self.nested(self.expression)
            self.expect(")")
            return value
        raise ParseError(f"unexpected token {text!r}", pos)


def parse_polynomial(text: str, ring: Ring) -> MultiPoly:
    """Parse ``text`` into a canonical polynomial over ``ring``."""
    if not text or text.isspace():
        raise ParseError("empty polynomial expression", 0)
    parser = _Parser(text, ring)
    value = parser.expression()
    end = parser.next()
    if end[0] != "end":
        raise ParseError(f"trailing input {end[1]!r}", end[2])
    return value


def parse_ring(spec: str, order_name: str = "grevlex") -> Ring:
    """Parse an inline ring declaration ``ZZ/p[x,y,z]``."""
    from .arith import ORDERS

    s = spec.strip()
    if not s.startswith("ZZ/"):
        raise ParseError("ring spec must look like ZZ/p[x,y,z]", 0)
    body = s[3:]
    if "[" not in body or not body.endswith("]"):
        raise ParseError("ring spec must look like ZZ/p[x,y,z]", len(s) - 1)
    char_part, var_part = body.split("[", 1)
    try:
        p = int(char_part)
    except ValueError:
        raise ParseError(f"bad characteristic {char_part!r}", 3) from None
    names = [v.strip() for v in var_part[:-1].split(",") if v.strip()]
    try:
        return Ring(p, names, ORDERS[order_name])
    except DomainError as exc:
        raise ParseError(str(exc), 0) from None
