"""Textual format for polynomials and rational maps.

Grammar (whitespace insignificant, multiplication always written ``*``):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ['^' factor]
    atom   := INTEGER | NAME | '(' expr ')'

Exponents must fold to nonnegative integer constants.  ``a/b`` performs
exact field division, so rational coefficients (``3/2*x``) and rational
map components (``(9 + t^2)/(27 + t^2)``) use the same rule.  A rational
map is three comma-separated components in an optional outer pair of
parentheses; the pair is outer when the first token is a '(' whose match
is the last token.

The text is evaluated as term dicts ``{exponent tuple: coefficient}``
over one variable tuple fixed before evaluation: ``+`` and ``-`` add in
place, ``*`` and ``^`` convolve, ``/`` by a constant scales.  Only a
division by a nonconstant polynomial builds a :class:`RatFunc`, and every
operation with a RatFunc operand is then RatFunc arithmetic.  Before a
product or power is expanded it is checked against the input caps: an
exponent or a total degree above ``MAX_DEGREE``, or a constant power
b^e with e times the bit length of b's numerator or denominator above
``MAX_CONSTANT_BITS``, is a :class:`ParseError`, and so is an integer
literal of more than ``MAX_CONSTANT_BITS`` bits.  The degree of a
quotient is the larger of its numerator's and denominator's.

Printing is deterministic: terms in graded-lexicographic descending
order, canonical sign placement, explicit ``*``.  ``parse(print(v))``
reproduces ``v`` exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .poly import MultiPoly, Q, _mul_terms, canonical_vars
from .ratfunc import RatFunc, RationalMap3


# Input caps.  The largest input in the tests, goldens, demos and benchmark
# workloads has total degree 11 and its largest constant power 4 bits; the
# degree cap leaves more than a factor 2 of margin.
MAX_DEGREE = 24
MAX_CONSTANT_BITS = 4096
# the most decimal digits of an integer of at most MAX_CONSTANT_BITS bits
_MAX_LITERAL_DIGITS = len(str(2**MAX_CONSTANT_BITS))


class ParseError(ValueError):
    """Syntax or validation error with 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^,]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.lastindex is None:
            break  # illegal character, or only whitespace remains
        start = m.start(m.lastindex)
        value = m.group(m.lastindex)
        kind = "int" if m.group(1) else ("name" if m.group(2) else "op")
        tokens.append((kind, value, start))
        pos = m.end()
    rest = text[pos:]
    if rest.strip():
        bad = pos + len(rest) - len(rest.lstrip())
        line, col = _line_col(text, bad)
        raise ParseError(f"unexpected character {text[bad]!r}", line, col)
    tokens.append(("end", "", len(text)))
    return tokens


def _line_col(text: str, offset: int) -> tuple[int, int]:
    line = text.count("\n", 0, offset) + 1
    last_nl = text.rfind("\n", 0, offset)
    return line, offset - (last_nl + 1) + 1


class _Parser:
    """Evaluates the token list over one variable tuple fixed up front.

    A value is a term dict ``{exponent tuple: int or Q}`` with no zero
    coefficients, until a division by a nonconstant polynomial makes it a
    :class:`RatFunc`; an operation with a RatFunc operand lifts the other
    operand too."""

    def __init__(self, text: str, allowed_vars: Optional[Sequence[str]]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.allowed = set(allowed_vars) if allowed_vars is not None else None
        names = allowed_vars if allowed_vars is not None else (v for k, v, _ in self.tokens if k == "name")
        self.vars = canonical_vars(names)
        self.slot = {v: i for i, v in enumerate(self.vars)}
        self.one = (0,) * len(self.vars)

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok=None) -> ParseError:
        tok = tok if tok is not None else self.peek()
        line, col = _line_col(self.text, tok[2])
        return ParseError(message, line, col)

    def expect_op(self, op: str):
        kind, value, _ = self.peek()
        if kind != "op" or value != op:
            raise self.error(f"expected {op!r}")
        return self.next()

    # -- values: term dicts, or RatFunc after a nonconstant division ------

    def poly(self, terms: dict) -> MultiPoly:
        return MultiPoly._make(self.vars, {e: Q(c) for e, c in terms.items()})

    def lift(self, value) -> RatFunc:
        return value if isinstance(value, RatFunc) else RatFunc(self.poly(value))

    def constant(self, value):
        """The constant a value equals, or None when it is not constant."""
        if isinstance(value, RatFunc):
            return value.constant_value() if value.is_constant() else None
        if not value:
            return Q(0)
        return Q(value[self.one]) if len(value) == 1 and self.one in value else None

    @staticmethod
    def degree(value) -> int:
        if isinstance(value, RatFunc):
            return max(value.num.total_degree(), value.den.total_degree())
        return max(map(sum, value), default=0)

    def check_degree(self, degree: int, tok) -> None:
        if degree > MAX_DEGREE:
            raise self.error(f"degree {degree} exceeds the cap {MAX_DEGREE}", tok)

    def add(self, a, b, sign: int):
        if isinstance(a, RatFunc) or isinstance(b, RatFunc):
            a, b = self.lift(a), self.lift(b)
            return a + b if sign > 0 else a - b
        for e, c in b.items():
            c = a.get(e, 0) + sign * c
            if c:
                a[e] = c
            else:
                del a[e]
        return a

    @staticmethod
    def neg(value):
        return -value if isinstance(value, RatFunc) else {e: -c for e, c in value.items()}

    def mul(self, a, b):
        if isinstance(a, RatFunc) or isinstance(b, RatFunc):
            return self.lift(a) * self.lift(b)
        return {e: c for e, c in _mul_terms(a, b).items() if c}

    def div(self, a, b, tok):
        c = self.constant(b)
        if c == 0:
            raise self.error("division by a zero polynomial", tok)
        if c is None:
            return self.lift(a) / self.lift(b)
        if isinstance(a, RatFunc):
            return a / c
        return {e: co / c for e, co in a.items()}

    def power(self, base, n: int):
        if isinstance(base, RatFunc):
            return base**n
        result = {self.one: 1}
        while n:
            if n & 1:
                result = self.mul(result, base)
            n >>= 1
            if n:
                base = self.mul(base, base)
        return result

    # -- grammar -------------------------------------------------------------

    def parse_expr(self):
        kind, value, _ = self.peek()
        negate = False
        while kind == "op" and value in "+-":
            if value == "-":
                negate = not negate
            self.next()
            kind, value, _ = self.peek()
        result = self.parse_term()
        if negate:
            result = self.neg(result)
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                rhs = self.parse_term()
                result = self.add(result, rhs, 1 if value == "+" else -1)
            else:
                return result

    def parse_term(self):
        result = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                tok = self.next()
                rhs = self.parse_factor()
                self.check_degree(self.degree(result) + self.degree(rhs), tok)
                result = self.mul(result, rhs) if value == "*" else self.div(result, rhs, tok)
            else:
                return result

    def parse_factor(self):
        base = self.parse_atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            tok = self.next()
            e = self.constant(self.parse_factor())
            if e is None:
                raise self.error("exponent must be a constant", tok)
            if e.denominator != 1:
                raise self.error("non-integer exponent", tok)
            if e < 0:
                raise self.error("negative exponent", tok)
            e = int(e)
            if e > MAX_DEGREE:
                raise self.error(f"exponent {e} exceeds the cap {MAX_DEGREE}", tok)
            self.check_degree(self.degree(base) * e, tok)
            c = self.constant(base)
            if c is not None and e * max(c.numerator.bit_length(), c.denominator.bit_length()) > MAX_CONSTANT_BITS:
                raise self.error(f"constant power exceeds the cap of {MAX_CONSTANT_BITS} bits", tok)
            return self.power(base, e)
        return base

    def parse_atom(self):
        kind, value, _ = self.peek()
        if kind == "int":
            tok = self.next()
            # the digit count bounds the size before int() converts it
            digits = value.lstrip("0") or "0"
            if len(digits) > _MAX_LITERAL_DIGITS or (n := int(digits)).bit_length() > MAX_CONSTANT_BITS:
                raise self.error(f"integer literal exceeds the cap of {MAX_CONSTANT_BITS} bits", tok)
            return {self.one: n} if n else {}
        if kind == "name":
            tok = self.next()
            if self.allowed is not None and value not in self.allowed:
                raise self.error(f"variable {value!r} is not allowed here", tok)
            e = [0] * len(self.vars)
            e[self.slot[value]] = 1
            return {tuple(e): 1}
        if kind == "op" and value == "(":
            self.next()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if kind == "op" and value in "+-":
            # handled by parse_expr for leading signs; here it is a stray sign
            tok = self.peek()
            self.next()
            inner = self.parse_factor()
            return self.neg(inner) if value == "-" else inner
        raise self.error("expected a number, variable or parenthesized expression")

    def at_end(self) -> bool:
        return self.peek()[0] == "end"


def _parse(text: str, allowed_vars: Optional[Sequence[str]]):
    if not text.strip():
        raise ParseError("empty input", 1, 1)
    p = _Parser(text, allowed_vars)
    value = p.parse_expr()
    if not p.at_end():
        raise p.error("unexpected trailing input")
    return p, value


def parse_ratfunc(text: str, allowed_vars: Optional[Sequence[str]] = None) -> RatFunc:
    """Parse one rational expression; the whole input must be consumed."""
    p, value = _parse(text, allowed_vars)
    return p.lift(value)


def parse_poly(text: str, allowed_vars: Optional[Sequence[str]] = None) -> MultiPoly:
    """Parse a polynomial; rational coefficients are fine, division by a
    nonconstant polynomial is not."""
    p, value = _parse(text, allowed_vars)
    if not isinstance(value, RatFunc):
        return p.poly(value)
    if not value.is_polynomial():
        raise ParseError("expression is not a polynomial (nonconstant denominator)", 1, 1)
    return value.as_poly()


def parse_map(text: str, params: Sequence[str] = ("s", "t")) -> RationalMap3:
    """Parse a 3-component rational map over the given parameters."""
    if not text.strip():
        raise ParseError("empty input", 1, 1)
    p = _Parser(text, params)
    # the outer pair, when the first token is a '(' matched by the last one
    close = None
    if p.peek()[:2] == ("op", "("):
        depth = 0
        for i, (kind, value, _) in enumerate(p.tokens):
            if kind == "op" and value in "()":
                depth += 1 if value == "(" else -1
                if depth == 0:
                    close = i
                    break
    wrapped = close == len(p.tokens) - 2
    if wrapped:
        p.next()
    components = [p.parse_expr()]
    while p.peek()[:2] == ("op", ","):
        p.next()
        components.append(p.parse_expr())
    if wrapped:
        p.expect_op(")")
    if not p.at_end():
        raise p.error("unexpected trailing input")
    if len(components) != 3:
        raise ParseError(f"a rational map needs 3 components, got {len(components)}", 1, 1)
    return RationalMap3([p.lift(c) for c in components], tuple(params))


def print_poly(p: MultiPoly) -> str:
    """Deterministic text form of a polynomial."""
    return p.to_text()


def print_ratfunc(r: RatFunc) -> str:
    return r.to_text()


def print_map(m: RationalMap3) -> str:
    """Deterministic text form of a rational map."""
    return m.to_text()


@dataclass(frozen=True)
class SurfaceInput:
    """Either an implicit surface polynomial or a parametric surface map."""

    kind: str  # "implicit" | "parametric"
    implicit: Optional[MultiPoly] = None
    parametric: Optional[RationalMap3] = None

    @staticmethod
    def from_text(text: str) -> "SurfaceInput":
        stripped = text.strip()
        if not stripped:
            raise ParseError("empty input", 1, 1)
        depth = 0
        has_top_comma = False
        for ch in stripped:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth <= 1:
                has_top_comma = True
        if has_top_comma:
            m = parse_map(stripped, params=("s", "t"))
            if all(c.derivative("s").is_zero() and c.derivative("t").is_zero() for c in m.components):
                raise ParseError("parametric surface is constant", 1, 1)
            return SurfaceInput(kind="parametric", parametric=m)
        p = parse_poly(stripped, allowed_vars=("x", "y", "z"))
        if p.is_constant():
            raise ParseError("implicit surface polynomial is constant", 1, 1)
        return SurfaceInput(kind="implicit", implicit=p)
