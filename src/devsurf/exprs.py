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

One ``finditer`` over a single regex tokenizes the text; any other
non-blank character is a :class:`ParseError` at its line and column.
The tokens are evaluated as term dicts ``{exponent tuple: coefficient}``
over one variable tuple fixed before evaluation: ``+`` and ``-`` add in
place, ``*`` and ``^`` convolve (a one-term operand adds or scales
exponents instead), ``/`` by a constant scales.  The finished dict
becomes a :class:`MultiPoly` through the trusted ``MultiPoly._make``
once its coefficients are in stored form.  Only a division by a
nonconstant polynomial builds a :class:`RatFunc`, and every operation
with a RatFunc operand is then RatFunc arithmetic.  Before a
product or power is expanded it is checked against the input caps: an
exponent or a total degree above ``MAX_DEGREE``, or a constant power
b^e with e times the bit length of b's numerator or denominator above
``MAX_CONSTANT_BITS``, is a :class:`ParseError`, and so is an integer
literal of more than ``MAX_CONSTANT_BITS`` bits.  The degree of a
quotient is the larger of its numerator's and denominator's.

Printing is deterministic: terms in graded-lexicographic descending
order, canonical sign placement, explicit ``*``; each monomial's text
comes from a bounded cache in ``poly``.  ``parse(print(v))`` reproduces
``v`` exactly.
"""

from __future__ import annotations

import re
from operator import add
from typing import NamedTuple, Optional, Sequence

from .poly import MultiPoly, Q, _canon, _mul_terms, canonical_vars
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


# the last group is any other non-blank character, an error
_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^,])|(\S)")
_KINDS = (None, "int", "name", "op", None)


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = _KINDS[m.lastindex]
        if kind is None:
            line, col = _line_col(text, m.start())
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        tokens.append((kind, m.group(), m.start()))
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
    operand too.  The grammar reads ``tokens[pos]`` directly; only op
    tokens have the values ``+ - * / ^ ( ) ,``."""

    def __init__(self, text: str, allowed_vars: Optional[Sequence[str]]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        names = allowed_vars if allowed_vars is not None else (v for k, v, _ in self.tokens if k == "name")
        self.vars = canonical_vars(names)
        self.one = (0,) * len(self.vars)
        # the exponent tuple of each variable that may occur
        self.unit = {v: self.one[:i] + (1,) + self.one[i + 1 :] for i, v in enumerate(self.vars)}

    def error(self, message: str, tok=None) -> ParseError:
        tok = tok if tok is not None else self.tokens[self.pos]
        line, col = _line_col(self.text, tok[2])
        return ParseError(message, line, col)

    def expect_op(self, op: str) -> None:
        if self.tokens[self.pos][1] != op:
            raise self.error(f"expected {op!r}")
        self.pos += 1

    def finish(self) -> None:
        if self.tokens[self.pos][0] != "end":
            raise self.error("unexpected trailing input")

    # -- values: term dicts, or RatFunc after a nonconstant division ------

    def poly(self, terms: dict) -> MultiPoly:
        return MultiPoly._make(self.vars, {e: _canon(c) for e, c in terms.items()})

    def lift(self, value) -> RatFunc:
        return value if isinstance(value, RatFunc) else RatFunc(self.poly(value))

    def constant(self, value):
        """The constant (an int or Q) a value equals, or None."""
        if isinstance(value, RatFunc):
            return value.constant_value() if value.is_constant() else None
        if not value:
            return 0
        return value.get(self.one) if len(value) == 1 else None

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
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            ((eb, cb),) = b.items()
            return {tuple(map(add, ea, eb)): ca * cb for ea, ca in a.items()}
        return {e: c for e, c in _mul_terms(a, b).items() if c}

    def div(self, a, b, tok):
        c = self.constant(b)
        if c == 0:
            raise self.error("division by a zero polynomial", tok)
        if c is None:
            return self.lift(a) / self.lift(b)
        if isinstance(a, RatFunc):
            return a / c
        c = Q(c)
        return {e: co / c for e, co in a.items()}

    def power(self, base, n: int):
        if isinstance(base, RatFunc):
            return base**n
        if len(base) == 1:
            ((e, c),) = base.items()
            return {tuple(k * n for k in e): c**n}
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
        tokens = self.tokens
        negate = False
        value = tokens[self.pos][1]
        while value == "+" or value == "-":
            negate ^= value == "-"
            self.pos += 1
            value = tokens[self.pos][1]
        result = self.parse_term()
        if negate:
            result = self.neg(result)
        while True:
            value = tokens[self.pos][1]
            if value != "+" and value != "-":
                return result
            self.pos += 1
            result = self.add(result, self.parse_term(), 1 if value == "+" else -1)

    def parse_term(self):
        tokens = self.tokens
        result = self.parse_factor()
        while True:
            tok = tokens[self.pos]
            op = tok[1]
            if op != "*" and op != "/":
                return result
            self.pos += 1
            rhs = self.parse_factor()
            self.check_degree(self.degree(result) + self.degree(rhs), tok)
            result = self.mul(result, rhs) if op == "*" else self.div(result, rhs, tok)

    def parse_factor(self):
        base = self.parse_atom()
        tok = self.tokens[self.pos]
        if tok[1] != "^":
            return base
        self.pos += 1
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

    def parse_atom(self):
        tok = self.tokens[self.pos]
        kind, value, _ = tok
        if kind == "int":
            self.pos += 1
            # the digit count bounds the size before int() converts it
            digits = value.lstrip("0") or "0"
            if len(digits) > _MAX_LITERAL_DIGITS or (n := int(digits)).bit_length() > MAX_CONSTANT_BITS:
                raise self.error(f"integer literal exceeds the cap of {MAX_CONSTANT_BITS} bits", tok)
            return {self.one: n} if n else {}
        if kind == "name":
            e = self.unit.get(value)
            if e is None:
                raise self.error(f"variable {value!r} is not allowed here")
            self.pos += 1
            return {e: 1}
        if value == "(":
            self.pos += 1
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if value == "+" or value == "-":
            # handled by parse_expr for leading signs; here it is a stray sign
            self.pos += 1
            inner = self.parse_factor()
            return self.neg(inner) if value == "-" else inner
        raise self.error("expected a number, variable or parenthesized expression")


def _parse(text: str, allowed_vars: Optional[Sequence[str]]):
    if not text.strip():
        raise ParseError("empty input", 1, 1)
    p = _Parser(text, allowed_vars)
    value = p.parse_expr()
    p.finish()
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
    tokens = p.tokens
    # the outer pair, when the first token is a '(' matched by the last one
    close = None
    if tokens[0][1] == "(":
        depth = 0
        for i, (_, value, _) in enumerate(tokens):
            if value == "(" or value == ")":
                depth += 1 if value == "(" else -1
                if depth == 0:
                    close = i
                    break
    wrapped = close == len(tokens) - 2
    p.pos = int(wrapped)
    components = [p.parse_expr()]
    while tokens[p.pos][1] == ",":
        p.pos += 1
        components.append(p.parse_expr())
    if wrapped:
        p.expect_op(")")
    p.finish()
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


class SurfaceInput(NamedTuple):
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
            if m.is_constant():
                raise ParseError("parametric surface is constant", 1, 1)
            return SurfaceInput(kind="parametric", parametric=m)
        p = parse_poly(stripped, allowed_vars=("x", "y", "z"))
        if p.is_constant():
            raise ParseError("implicit surface polynomial is constant", 1, 1)
        return SurfaceInput(kind="implicit", implicit=p)
