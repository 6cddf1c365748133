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

The tokens are the strings of one ``findall``; any non-blank character
outside the grammar is a :class:`ParseError` at its line and column, and
an error rescans the text for its position, which no token stores.
Values are term dicts ``{exponent tuple: coefficient}`` over one variable
tuple fixed up front.  A run of simple factors (``3*x^2*y``) folds into
one monomial in place; other factors go through dict arithmetic, and
the result becomes a :class:`MultiPoly` through the trusted
``poly._trimmed``.  Only a division by a nonconstant polynomial builds a
:class:`RatFunc`, which lifts every operand it meets.  Each input cap is
a :class:`ParseError` raised before anything is expanded: an exponent or
a total degree above ``MAX_DEGREE`` (a quotient's is the larger of its
numerator's and denominator's), a constant power b^e with e times the
bit length of b's numerator or denominator above ``MAX_CONSTANT_BITS``,
and an integer literal of more bits than that.

Printing is ``MultiPoly.to_text``: graded-lex descending terms, canonical
signs, explicit ``*``.  ``parse(print(v))`` reproduces ``v`` exactly.
"""

from __future__ import annotations

import re
from operator import add
from typing import NamedTuple, Optional, Sequence

from .poly import MultiPoly, Q, _canon, _mul_terms, _trimmed, canonical_vars
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
        self.line, self.col = line, col


# one token per match: a run of decimal digits, a name, an operator, or any
# other non-blank character, which is an error
_TOKEN_RE = re.compile(r"\d+|[A-Za-z_][A-Za-z_0-9]*|[()+\-*/^,]|\S")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_OPS = frozenset("()+-*/^,")


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Parser:
    """Evaluates the tokens of one text over one variable tuple fixed up
    front.  The tokens are strings, then "" as the end; a token's kind is
    read off its first character, and ``error`` finds a position only when
    it raises.  ``parse_term`` folds runs of simple factors in place; a
    value is otherwise a term dict ``{exponent tuple: int or Q}`` with no
    zero coefficients, or a RatFunc, which lifts every other operand."""

    def __init__(self, text: str, allowed_vars: Optional[Sequence[str]]):
        if not text.strip():
            raise ParseError("empty input", 1, 1)
        self.text, self.pos, self.tokens = text, 0, _TOKEN_RE.findall(text)
        names = allowed_vars if allowed_vars is not None else (t for t in self.tokens if t[0] in _NAME_START)
        self.vars = canonical_vars(names)
        self.tokens.append("")
        self.one, self.index = (0,) * len(self.vars), {v: i for i, v in enumerate(self.vars)}

    def error(self, message: str, at: Optional[int] = None) -> ParseError:
        """The error at token ``at`` (by default the current one), unless
        the text holds an illegal character: that is the error then."""
        at, offset = self.pos if at is None else at, len(self.text)
        for i, m in enumerate(_TOKEN_RE.finditer(self.text)):
            tok = m.group()
            if not (tok.isdecimal() or tok[0] in _NAME_START or tok in _OPS):
                message, offset = f"unexpected character {tok!r}", m.start()
                break
            if i == at:
                offset = m.start()
        return ParseError(message, *_line_col(self.text, offset))

    def expect_op(self, op: str) -> None:
        if self.tokens[self.pos] != op:
            raise self.error(f"expected {op!r}")
        self.pos += 1

    def finish(self) -> None:
        if self.tokens[self.pos]:
            raise self.error("unexpected trailing input")

    # -- values: term dicts, or RatFunc after a nonconstant division ------

    def poly(self, terms: dict) -> MultiPoly:
        return _trimmed(self.vars, {e: _canon(c) for e, c in terms.items()})

    def lift(self, value) -> RatFunc:
        return value if isinstance(value, RatFunc) else RatFunc(self.poly(value))

    def constant(self, value):
        """The constant (an int or Q) a value equals, or None."""
        if isinstance(value, RatFunc):
            return value.constant_value() if value.is_constant() else None
        return 0 if not value else value.get(self.one) if len(value) == 1 else None

    @staticmethod
    def degree(value) -> int:
        if isinstance(value, RatFunc):
            return max(value.num.total_degree(), value.den.total_degree())
        return max(map(sum, value), default=0)

    def check_caps(self, at: int, degree: int, e: int = 1, c=None) -> None:
        """The caps on b^e, b of this degree and constant value c (or None);
        with e = 1 they check a degree alone."""
        if e > MAX_DEGREE:
            raise self.error(f"exponent {e} exceeds the cap {MAX_DEGREE}", at)
        if degree * e > MAX_DEGREE:
            raise self.error(f"degree {degree * e} exceeds the cap {MAX_DEGREE}", at)
        if c is not None and e * max(c.numerator.bit_length(), c.denominator.bit_length()) > MAX_CONSTANT_BITS:
            raise self.error(f"constant power exceeds the cap of {MAX_CONSTANT_BITS} bits", at)

    def literal(self, at: int) -> int:
        # the digit count bounds the size before int() converts it
        digits = self.tokens[at].lstrip("0") or "0"
        if len(digits) > _MAX_LITERAL_DIGITS or (n := int(digits)).bit_length() > MAX_CONSTANT_BITS:
            raise self.error(f"integer literal exceeds the cap of {MAX_CONSTANT_BITS} bits", at)
        return n

    def add(self, a, b, sign: int):
        if isinstance(a, RatFunc) or isinstance(b, RatFunc):
            a, b = self.lift(a), self.lift(b)
            return a + b if sign > 0 else a - b
        for e, c in b.items():
            if c := a.get(e, 0) + sign * c:
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

    def div(self, a, b, at: int):
        c = self.constant(b)
        if c == 0:
            raise self.error("division by a zero polynomial", at)
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

    def times_monomial(self, value, c: int, exps: Sequence[int]):
        """value times the monomial c * vars^exps; value None stands for 1."""
        mono = {tuple(exps): c} if c else {}
        return mono if value is None or not mono else self.mul(value, mono)

    # -- grammar -------------------------------------------------------------

    def parse_expr(self):
        tokens, negate = self.tokens, False
        while (tok := tokens[self.pos]) == "+" or tok == "-":
            negate ^= tok == "-"
            self.pos += 1
        result = self.parse_term()
        if negate:
            result = self.neg(result)
        while (tok := tokens[self.pos]) == "+" or tok == "-":
            self.pos += 1
            result = self.add(result, self.parse_term(), 1 if tok == "+" else -1)
        return result

    def parse_term(self):
        """A run of simple factors joined by '*' (an integer literal or a
        name, raised or not to an integer literal no '^' follows) folds into
        the monomial c * vars^exps.  ``deg``, the degree of the whole product
        so far (0 when it is zero), raises each cap at its usual token."""
        tokens, index, i = self.tokens, self.index, self.pos
        value, deg, op = None, 0, None  # value: the product before the run
        c, exps, run = 1, [0] * len(self.vars), False
        while True:
            tok = tokens[i]
            v = index.get(tok)
            if (
                (v is not None or tok.isdecimal())
                and (tokens[i + 1] != "^" or tokens[i + 2].isdecimal() and tokens[i + 3] != "^")
                and (op is None or tokens[op] == "*" and not isinstance(value, RatFunc))
            ):
                k, e = 1 if v is not None else self.literal(i), 1
                if tokens[i + 1] == "^":
                    e = self.literal(i + 2)
                    self.check_caps(i + 1, 0 if v is None else 1, e, k if v is None else None)
                    k, i = k**e, i + 2
                if v is not None:
                    self.check_caps(op, deg + e)
                    exps[v] += e
                    deg += e
                c, i, run = c * k, i + 1, True
                deg = deg if c else 0
            else:
                if run:
                    value, run = self.times_monomial(value, c, exps), False
                self.pos = i
                rhs = self.parse_factor()
                if op is not None:
                    self.check_caps(op, deg + self.degree(rhs))
                    rhs = self.mul(value, rhs) if tokens[op] == "*" else self.div(value, rhs, op)
                value, deg, i = rhs, self.degree(rhs), self.pos
                c, exps = 0 if type(value) is dict and not value else 1, [0] * len(self.vars)
            if tokens[i] != "*" and tokens[i] != "/":
                self.pos = i
                return self.times_monomial(value, c, exps) if run else value
            op, i = i, i + 1

    def parse_factor(self):
        """factor := atom ['^' factor], for a factor that is not folded."""
        i = self.pos
        tok = self.tokens[i]
        self.pos = i + 1
        if (v := self.index.get(tok)) is not None:
            base = {self.one[:v] + (1,) + self.one[v + 1 :]: 1}
        elif tok.isdecimal():
            base = self.times_monomial(None, self.literal(i), self.one)
        elif tok == "(":
            base = self.parse_expr()
            self.expect_op(")")
        elif tok == "+" or tok == "-":
            inner = self.parse_factor()
            return self.neg(inner) if tok == "-" else inner
        elif tok[:1] in _NAME_START:
            raise self.error(f"variable {tok!r} is not allowed here", i)
        else:
            raise self.error("expected a number, variable or parenthesized expression", i)
        at = self.pos
        if self.tokens[at] != "^":
            return base
        self.pos += 1
        e = self.constant(self.parse_factor())
        if e is None:
            raise self.error("exponent must be a constant", at)
        if e.denominator != 1:
            raise self.error("non-integer exponent", at)
        if e < 0:
            raise self.error("negative exponent", at)
        e = int(e)
        self.check_caps(at, self.degree(base), e, self.constant(base))
        return self.power(base, e)


def _parse(text: str, allowed_vars: Optional[Sequence[str]]):
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
    p = _Parser(text, params)
    tokens = p.tokens
    # the outer pair, when the first token is a '(' matched by the last one
    depth, close = 0, None
    for i, tok in enumerate(tokens if tokens[0] == "(" else ()):
        depth += (tok == "(") - (tok == ")")
        if depth == 0:
            close = i
            break
    wrapped = close == len(tokens) - 2
    p.pos = int(wrapped)
    components = [p.parse_expr()]
    while tokens[p.pos] == ",":
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
        depth, has_top_comma = 0, False
        for ch in stripped:
            depth += (ch == "(") - (ch == ")")
            has_top_comma |= ch == "," and depth <= 1
        if has_top_comma:
            m = parse_map(stripped, params=("s", "t"))
            if m.is_constant():
                raise ParseError("parametric surface is constant", 1, 1)
            return SurfaceInput(kind="parametric", parametric=m)
        p = parse_poly(stripped, allowed_vars=("x", "y", "z"))
        if p.is_constant():
            raise ParseError("implicit surface polynomial is constant", 1, 1)
        return SurfaceInput(kind="implicit", implicit=p)
