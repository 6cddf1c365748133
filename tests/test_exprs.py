"""Parser and printer: grammar, errors with positions, round-trips."""

import itertools
import random
import re
from operator import add
from typing import Optional, Sequence

import pytest

from devsurf.poly import MultiPoly, Q, _canon, _monomial_text, _mul_terms, _trimmed, canonical_vars
from devsurf.ratfunc import RatFunc, RationalMap3
from devsurf import cli
from devsurf.exprs import (
    _MAX_LITERAL_DIGITS,
    _TOKEN_RE,
    MAX_CONSTANT_BITS,
    MAX_DEGREE,
    ParseError,
    SurfaceInput,
    _Parser,
    parse_map,
    parse_poly,
    parse_ratfunc,
    print_map,
    print_poly,
)

from conftest import check_frozen_record, random_small_multipoly
import cases

X, Y, Z = (MultiPoly.var(v) for v in "xyz")


def test_parse_reference_surface(elliptic_cone):
    assert elliptic_cone == 4 * X**2 + 9 * Y**2 - 4 * X - 6 * Y - Z**2 + 2


def test_parse_zero():
    assert parse_poly("0").is_zero()


def test_fractional_exponent_rejected():
    with pytest.raises(ParseError, match="non-integer exponent"):
        parse_poly("x^(1/2)", ("x",))


def test_negative_exponent_rejected():
    with pytest.raises(ParseError, match="negative exponent"):
        parse_poly("x^(0-2)", ("x",))


def test_variable_outside_allowed():
    with pytest.raises(ParseError, match="not allowed"):
        parse_poly("x + w", ("x", "y"))


def test_error_carries_position():
    try:
        parse_poly("x^2 +", ("x",))
    except ParseError as err:
        assert err.line == 1 and err.col >= 5
    else:
        pytest.fail("expected a syntax error")


def test_rational_coefficient_binding():
    p = parse_poly("1/2*x", ("x",))
    assert p == X * Q(1, 2)
    assert parse_poly("3/2", ()) == MultiPoly.const(Q(3, 2))


def test_nonpolynomial_rejected():
    with pytest.raises(ParseError, match="not a polynomial"):
        parse_poly("1/(x+1)", ("x",))


def test_parse_map_reference_curve():
    m = parse_map(cases.ELLIPTIC_CONE_CURVE_3D, params=("t",))
    assert m.components[0] == m.components[2]
    assert m.params == ("t",)


def test_parse_map_plain_triple():
    m = parse_map("(t, t, t)", params=("t",))
    assert m.components[0] == m.components[1] == m.components[2]


def test_parse_map_component_count():
    with pytest.raises(ParseError, match="3 components"):
        parse_map("(t, t)", params=("t",))


def test_parse_map_zero_denominator():
    with pytest.raises(ParseError, match="division by a zero polynomial"):
        parse_map("(1/(t-t), 0, 0)", params=("t",))


def test_print_zero():
    assert print_poly(MultiPoly.zero()) == "0"


def test_print_parse_identity_on_reference(elliptic_cone):
    text = print_poly(elliptic_cone)
    assert parse_poly(text, ("x", "y", "z")) == elliptic_cone
    assert print_poly(parse_poly(text, ("x", "y", "z"))) == text


def test_roundtrip_randomized():
    rng = random.Random(17)
    for _ in range(120):
        p = random_small_multipoly(rng, ("x", "y", "z"), 3, density=0.4)
        # random rational scaling exercises fraction printing
        p = p * Q(rng.randint(1, 7), rng.randint(1, 7)) * rng.choice((1, -1))
        assert parse_poly(print_poly(p), ("x", "y", "z")) == p


def test_map_roundtrip():
    for text in (cases.ELLIPTIC_CONE_CURVE_3D, cases.QUARTIC_CYLINDER_DIRECTRIX, cases.TANGENT_EDGE_MAP):
        m = parse_map(text, params=("t",))
        assert parse_map(print_map(m), params=("t",)) == m


def test_paren_deletion_always_rejected():
    texts = [
        cases.ELLIPTIC_CONE_CURVE_3D,
        cases.TANGENT_EDGE_MAP,
        "(3*(x+1))^2 + (y - (2*x))^2",
    ]
    for text in texts:
        positions = [i for i, ch in enumerate(text) if ch in "()"]
        for i in positions:
            broken = text[:i] + text[i + 1 :]
            with pytest.raises(ParseError):
                if "," in broken:
                    parse_map(broken, params=("t", "x", "y"))
                else:
                    parse_poly(broken, ("t", "x", "y"))


def test_surface_input_sniffing():
    imp = SurfaceInput.from_text(cases.SPHERE_F)
    assert imp.kind == "implicit" and imp.implicit is not None
    par = SurfaceInput.from_text(cases.PLANE_MAP)
    assert par.kind == "parametric" and par.parametric is not None
    with pytest.raises(ParseError):
        SurfaceInput.from_text("7")
    with pytest.raises(ParseError):
        SurfaceInput.from_text("(1, 2, 3)")


def test_surface_input_record():
    sphere, plane = parse_poly(cases.SPHERE_F), parse_map(cases.PLANE_MAP)
    fields = dict(kind="implicit", implicit=sphere, parametric=None)
    check_frozen_record(SurfaceInput, fields, dict(kind="parametric", implicit=None, parametric=plane))
    assert SurfaceInput.from_text(cases.SPHERE_F) == SurfaceInput("implicit", sphere)
    assert SurfaceInput.from_text(cases.PLANE_MAP) == SurfaceInput("parametric", parametric=plane)


# (parser, text, message, line, column).  The messages and positions are
# those of the evaluator that built a RatFunc per atom, except the three
# parenthesized triples: that parser retried them without the outer pair
# and reported "expected ')'" at column 3 instead of the real error.
ERROR_TABLE = [
    ("poly", "", "empty input", 1, 1),
    ("poly", "   ", "empty input", 1, 1),
    ("poly", "x^2 +", "expected a number, variable or parenthesized expression", 1, 6),
    ("poly", "x $ y", "unexpected character '$'", 1, 3),
    ("poly", "x +\n  y # z", "unexpected character '#'", 2, 5),
    ("poly", "(x + y", "expected ')'", 1, 7),
    ("poly", "x + y)", "unexpected trailing input", 1, 6),
    ("poly", "x y", "unexpected trailing input", 1, 3),
    ("poly", "x * * y", "expected a number, variable or parenthesized expression", 1, 5),
    ("poly", "x^y", "exponent must be a constant", 1, 2),
    ("poly", "x^(1/2)", "non-integer exponent", 1, 2),
    ("poly", "x^(0-2)", "negative exponent", 1, 2),
    ("poly", "x/(y-y)", "division by a zero polynomial", 1, 2),
    ("poly", "1/(x+1)", "expression is not a polynomial (nonconstant denominator)", 1, 1),
    ("poly", "x + w", "variable 'w' is not allowed here", 1, 5),
    ("poly", "x +\n\n   2*q", "variable 'q' is not allowed here", 3, 6),
    ("poly", "()", "expected a number, variable or parenthesized expression", 1, 2),
    ("poly", "x^", "expected a number, variable or parenthesized expression", 1, 3),
    ("poly", "3.5*x", "unexpected character '.'", 1, 2),
    ("poly", "x,", "unexpected trailing input", 1, 2),
    ("map", "(s, t)", "a rational map needs 3 components, got 2", 1, 1),
    ("map", "(s, t, w)", "variable 'w' is not allowed here", 1, 8),
    ("map", "(s, t/0, 1)", "division by a zero polynomial", 1, 6),
    ("map", "(s, t^(1/2), 1)", "non-integer exponent", 1, 6),
    ("map", "s, t, w", "variable 'w' is not allowed here", 1, 7),
    ("map", "(s, t, 1", "expected ')'", 1, 3),
    ("map", "(s, t, 1) + 1", "expected ')'", 1, 3),
    ("map", "s, t, 1)", "unexpected trailing input", 1, 8),
    ("map", "", "empty input", 1, 1),
]


@pytest.mark.parametrize("kind,text,message,line,col", ERROR_TABLE)
def test_error_table(kind, text, message, line, col):
    with pytest.raises(ParseError) as info:
        if kind == "poly":
            parse_poly(text, ("x", "y", "z"))
        else:
            parse_map(text)
    err = info.value
    assert str(err) == f"{message} (line {line}, column {col})"
    assert (err.line, err.col) == (line, col)


class TestCaps:
    """Exponent, degree and constant-size caps, checked before expansion."""

    @pytest.mark.parametrize("text", ["(x+y+z+1)^40", "(x^2+y^2-z^2)^30", "x^2000+y^2000-z^2000"])
    def test_unbounded_inputs_rejected_at_parse_time(self, text, capsys):
        with pytest.raises(ParseError, match="exceeds the cap"):
            parse_poly(text, ("x", "y", "z"))
        assert cli.main(["implicit", text]) == cli.EXIT_INPUT
        assert '"exit_code": 1' in capsys.readouterr().out

    def test_exponent_cap(self):
        D = MAX_DEGREE
        assert parse_poly(f"x^{D}", ("x",)) == MultiPoly.var("x") ** D
        assert parse_poly(f"2^{D}", ()) == MultiPoly.const(2**D)
        for text in (f"x^{D + 1}", f"2^{D + 1}", f"0^{D + 1}", f"x^(2*{D}/2+1)"):
            with pytest.raises(ParseError, match=f"exponent {D + 1} exceeds the cap {D}"):
                parse_poly(text, ("x",))

    def test_power_degree_cap(self):
        D = MAX_DEGREE  # 24 = 2*12 = 3*8; 25 = 5*5
        assert parse_poly(f"(x^2+y)^{D // 2}", ("x", "y")).total_degree() == D
        assert parse_poly(f"(x*y*z)^{D // 3}", ("x", "y", "z")).total_degree() == D
        with pytest.raises(ParseError, match=f"degree {D + 1} exceeds the cap {D}") as info:
            parse_poly(f"(x^4*y+1)^{(D + 1) // 5}", ("x", "y"))
        assert (info.value.line, info.value.col) == (1, 10)
        # a quotient counts the larger of numerator and denominator degree
        with pytest.raises(ParseError, match=f"degree {D + 1} exceeds"):
            parse_ratfunc(f"(1/(x^5+1))^{(D + 1) // 5}", ("x",))
        assert parse_ratfunc(f"(x/(x^2+1))^{D // 2}", ("x",)).den.total_degree() == D

    def test_product_degree_cap(self):
        D = MAX_DEGREE
        assert parse_poly(f"x^{D - 1}*(y+1)", ("x", "y")).total_degree() == D
        assert parse_ratfunc(f"x^{D - 1}/(y+1)", ("x", "y")).num.total_degree() == D - 1
        for text in (f"x^{D}*(y+1)", f"x^{D - 1}*y*z", f"x^{D}/(y+1)"):
            with pytest.raises(ParseError, match=f"degree {D + 1} exceeds the cap {D}"):
                parse_ratfunc(text, ("x", "y", "z"))
        # a constant factor adds no degree
        assert parse_poly(f"x^{D}*7/3", ("x",)) == MultiPoly.var("x") ** D * Q(7, 3)

    def test_constant_bits_cap(self):
        B = MAX_CONSTANT_BITS  # 4096 = 16 * 256; 4097 = 17 * 241
        assert parse_poly(f"{2**255}^16", ()) == MultiPoly.const(2 ** (255 * 16))
        assert parse_poly(f"(1/{2**255})^16", ()) == MultiPoly.const(Q(1, 2 ** (255 * 16)))
        for text in (f"{2**240}^17", f"(3/{2**240})^17", f"({2**240}*x/x)^17"):
            with pytest.raises(ParseError, match=f"constant power exceeds the cap of {B} bits"):
                parse_ratfunc(text, ("x",))
        # chained powers stop at the cap instead of growing without bound
        with pytest.raises(ParseError, match="bits"):
            parse_poly("((2^24)^24)^24", ())

    def test_integer_literal_cap(self, capsys):
        B = MAX_CONSTANT_BITS
        # 5000 digits: past the 4300-digit limit of int() on a string
        text = "x^2+y^2-" + "9" * 5000 + "*z^2"
        with pytest.raises(ParseError, match=f"integer literal exceeds the cap of {B} bits") as info:
            parse_poly(text, ("x", "y", "z"))
        assert (info.value.line, info.value.col) == (1, 9)
        assert cli.main(["implicit", text]) == cli.EXIT_INPUT
        assert '"exit_code": 1' in capsys.readouterr().out
        # at the cap and one past it; leading zeros do not count
        assert parse_poly(f"{2**B - 1}*x", ("x",)) == MultiPoly.var("x") * (2**B - 1)
        assert parse_poly("0" * 5000 + "7", ()) == MultiPoly.const(7)
        for literal in (2**B, 10 ** len(str(2**B))):
            with pytest.raises(ParseError, match=f"integer literal exceeds the cap of {B} bits") as info:
                parse_poly(f"x+{literal}", ("x",))
            assert (info.value.line, info.value.col) == (1, 3)


def _sympy_text(text):
    return text.replace("^", "**")


def _random_expr(rng, names, budget):
    """Random text in the grammar and a bound on the degree of numerator
    and denominator of its value, which stays within ``budget``."""
    r = rng.random()
    if budget <= 1 or r < 0.2:
        choice = rng.randrange(4)
        if choice == 0:
            return str(rng.randint(0, 9)), 0
        if choice == 1:
            return f"({rng.randint(-9, 9)}/{rng.randint(1, 9)})", 0
        return rng.choice(names), 1
    if r < 0.35:
        # stacked unary signs, at the start of an expression or on a factor
        signs = "".join(rng.choice("+-") for _ in range(rng.randint(1, 3)))
        inner, d = _random_expr(rng, names, budget)
        return (f"({signs}{inner})" if rng.random() < 0.5 else f"1*{signs}({inner})"), d
    if r < 0.5:
        # a ^ chain whose exponent folds to 1, 2 or 3
        e, text = rng.choice([(2, "2"), (3, "3"), (2, "2^1"), (1, "1^4"), (2, "(1+1)"), (2, "(6/3)"), (3, "3^1^2")])
        if budget < 2 * e:
            e, text = 1, "1^3"
        inner, d = _random_expr(rng, names, budget // e)
        return f"({inner})^{text}", d * e
    op = rng.choice("+-*/")
    a, da = _random_expr(rng, names, budget // 2)
    b, db = _random_expr(rng, names, budget // 2)
    if op == "/":
        # a denominator that is a nonzero rational function by construction
        if rng.random() < 0.5:
            b, db = f"(({b})^2+{rng.randint(1, 5)})", 2 * db
        else:
            b, db = f"({rng.choice(names)}+{rng.randint(1, 5)})", 1
    return f"(({a}){op}{b})" if rng.random() < 0.5 else f"{a} {op} ({b})", da + db


def _agrees_with_sympy(sympy, value, text):
    expected = sympy.cancel(sympy.sympify(_sympy_text(text)))
    num = sympy.sympify(_sympy_text(value.num.to_text()))
    den = sympy.sympify(_sympy_text(value.den.to_text()))
    # the parse is reduced: its numerator and denominator share no factor
    assert sympy.gcd(num, den).is_number
    return sympy.expand(num * sympy.denom(expected) - sympy.numer(expected) * den) == 0


def test_sympy_oracle_parse_ratfunc():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261018)
    names = ("x", "y", "z")
    for _ in range(60):
        text, _ = _random_expr(rng, names, 10)
        assert _agrees_with_sympy(sympy, parse_ratfunc(text, names), text), text


def test_sympy_oracle_parse_map():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    for _ in range(15):
        texts = [_random_expr(rng, ("s", "t"), 8)[0] for _ in range(3)]
        text = ", ".join(texts)
        if rng.random() < 0.5:
            text = f"( {text} )"
        m = parse_map(text)
        for comp, comp_text in zip(m.components, texts):
            assert _agrees_with_sympy(sympy, comp, comp_text), text


def _old_to_text(p):
    """Reference: the formatting MultiPoly.to_text had on Fraction
    comparisons, kept to pin the output byte for byte."""
    if not p.terms:
        return "0"
    pieces = []
    for exps in sorted(p.terms, key=lambda e: (sum(e), e), reverse=True):
        coeff = p.terms[exps]
        factors = []
        for name, e in zip(p.vars, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        pieces.append(("-" if coeff < 0 else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def test_to_text_matches_reference_formatting():
    rng = random.Random(20261018)
    for _ in range(200):
        p = random_small_multipoly(rng, ("x", "y", "z", "t"), rng.randint(0, 4), density=0.3)
        # each term its own rational coefficient, some of magnitude 1
        terms = {e: c * Q(rng.choice((1, 1, -1, 2, 3)), rng.choice((1, 1, 2, 7, 12))) for e, c in p.terms.items()}
        p = MultiPoly(p.vars, terms)
        assert p.to_text() == _old_to_text(p)
        assert parse_poly(p.to_text()) == p
    for p in (MultiPoly.zero(), MultiPoly.const(-1), MultiPoly.const(Q(-1, 3)), -MultiPoly.var("x")):
        assert p.to_text() == _old_to_text(p)


_OLD_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^,]))")


def _old_tokenize(text):
    """Reference: the tokenizer that matched one token at a time from the
    end of the last, kept to pin token lists and error positions."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _OLD_TOKEN_RE.match(text, pos)
        if m is None or m.lastindex is None:
            break
        kind = "int" if m.group(1) else ("name" if m.group(2) else "op")
        tokens.append((kind, m.group(m.lastindex), m.start(m.lastindex)))
        pos = m.end()
    rest = text[pos:]
    if rest.strip():
        bad = pos + len(rest) - len(rest.lstrip())
        line = text.count("\n", 0, bad) + 1
        raise ParseError(f"unexpected character {text[bad]!r}", line, bad - text.rfind("\n", 0, bad))
    tokens.append(("end", "", len(text)))
    return tokens


def _tokens_and_offsets(text):
    """The new tokenizer's tokens and, for each token and the end, the
    offset its errors are reported at, or the ParseError it reports."""
    if not text.strip():  # the parser refuses it before tokenizing
        return [""], [_ref_line_col(text, len(text))]
    p = _Parser(text, ())
    offsets = []
    for at in range(len(p.tokens)):
        err = p.error("marker", at)
        if not str(err).startswith("marker"):
            return err
        offsets.append((err.line, err.col))
    return p.tokens, offsets


def test_tokenizer_matches_reference():
    """Seeded texts over the grammar's alphabet, blanks and illegal
    characters: the token strings of one findall, and the positions that
    errors rescan for, are those of the tokenizer that matched one token
    at a time from the end of the last; so is the illegal-character error."""
    rng = random.Random(20261020)
    pieces = ["x", "y", "z", "s", "t", "_a1", "foo", "0", "7", "12", "007", "+", "-", "*", "/", "^", "(", ")", ","]
    pieces += [" ", "  ", "\t", "\n", " \n\t"]
    illegal = ["#", ".", "é", "٣"]  # ٣ is ARABIC-INDIC DIGIT THREE, a \d digit
    outcomes = set()
    for _ in range(2000):
        chars = [rng.choice(pieces) for _ in range(rng.randint(0, 30))]
        for _ in range(rng.choice((0, 0, 1, 2))):
            chars.insert(rng.randint(0, len(chars)), rng.choice(illegal))
        text = "".join(chars)
        got = _tokens_and_offsets(text)
        try:
            expected = _old_tokenize(text)
        except ParseError as err:
            assert isinstance(got, ParseError), repr(text)
            assert (str(got), got.line, got.col) == (str(err), err.line, err.col), repr(text)
            outcomes.add("error")
        else:
            assert got == ([v for _, v, _ in expected], [_ref_line_col(text, pos) for _, _, pos in expected]), repr(text)
            assert got[0] == _TOKEN_RE.findall(text) + [""]
            outcomes.add("tokens")
    assert outcomes == {"error", "tokens"}


# -- the evaluator before simple factors were folded, as the oracle ----------


def _ref_line_col(text: str, offset: int) -> tuple[int, int]:
    line = text.count("\n", 0, offset) + 1
    last_nl = text.rfind("\n", 0, offset)
    return line, offset - (last_nl + 1) + 1


_REF_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^,])|(\S)")
_KINDS = (None, "int", "name", "op", None)


def _tokenize(text: str):
    tokens = []
    for m in _REF_TOKEN_RE.finditer(text):
        kind = _KINDS[m.lastindex]
        if kind is None:
            line, col = _ref_line_col(text, m.start())
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _RefParser:
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
        line, col = _ref_line_col(self.text, tok[2])
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
        return _trimmed(self.vars, {e: _canon(c) for e, c in terms.items()})

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


def _ref_parse(text: str, allowed_vars: Optional[Sequence[str]]):
    if not text.strip():
        raise ParseError("empty input", 1, 1)
    p = _RefParser(text, allowed_vars)
    value = p.parse_expr()
    p.finish()
    return p, value


def _ref_parse_ratfunc(text: str, allowed_vars: Optional[Sequence[str]] = None) -> RatFunc:
    p, value = _ref_parse(text, allowed_vars)
    return p.lift(value)


def _ref_parse_poly(text: str, allowed_vars: Optional[Sequence[str]] = None) -> MultiPoly:
    p, value = _ref_parse(text, allowed_vars)
    if not isinstance(value, RatFunc):
        return p.poly(value)
    if not value.is_polynomial():
        raise ParseError("expression is not a polynomial (nonconstant denominator)", 1, 1)
    return value.as_poly()


def _ref_parse_map(text: str, params: Sequence[str] = ("s", "t")) -> RationalMap3:
    if not text.strip():
        raise ParseError("empty input", 1, 1)
    p = _RefParser(text, params)
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


def _outcome(parse, text, names):
    """The stored form of the value, or the error's text and position."""
    try:
        value = parse(text, names)
    except ParseError as err:
        return "error", str(err), err.line, err.col
    if isinstance(value, RationalMap3):
        polys = [q for c in value.components for q in (c.num, c.den)] + list(value.form)
    else:
        polys = [value.num, value.den] if isinstance(value, RatFunc) else [value]
    return [(q.vars, [(e, type(c), c) for e, c in q.terms.items()]) for q in polys]


def _differential_corpus():
    """Seeded texts: the grammar's corners, each cap at and past its bound,
    the reference surfaces, and random expressions over x, y, z."""
    D, B = MAX_DEGREE, MAX_CONSTANT_BITS
    texts = [
        "((x + (y - (z*(x+1))))^2 - ((1)))", "(x+y+1)^3*(x-z)^2", "(x^2+y)^(1+1)", "2^3^2", "x^(1+1)", "x^2^2",
        "(2)^3^0", "x^(2)*y", "x*-y", "--x", "-+-x*y", "x*+y^2", "2*x^-1", "x^--2",
        "x/3", "3/2*x^2*y - 5/7", "x*y/(x+1)*z", "x/(y+1)^2 + 1/(x*y)", "(3/4)^2*x", "1/(x-x)", "x/0*y",
        "x/(y-y)", "0*x/y", "(x^2-1)/(x-1)", "2*x*(y+1)/(y+1)", "(1/x)*x^3*y",
        "007*x^02 + 0*y^0000", "x +\n  2*y\t- z", "\t\tx\n*\ny", "٣*x^٢ + ٠٠٧", "x^٢٥", "٠" * 3 + "x",
        "*".join(["x"] * D), "*".join(["x"] * (D + 1)), "2*" + "*".join(["x"] * (D - 1)) + "*y",
        f"x^{D}", f"x^{D + 1}", f"x^{D - 1}*y", f"x^{D}*y", f"x^12*y^12*3", f"x^12*y^13", f"(x+1)^{D}",
        f"(x+y)^{D + 1}", f"(x*y)^12", f"(x*y)^13", f"x^{D}*(y+1)", f"(x-x)*x^{D}*x^{D}", f"0*x^{D}*x", f"x^{D}*0*x",
        f"x^{D}*0^0*x", f"1/(x+1)*x^{D}", f"(1/(x^5+1))^5", f"x^{D}*7/3", f"1/x^2*x*x^{D - 1}", f"1/(x*y)*x*y*x^{D}",
        f"x^12/x^11*x^{D - 1}",
        str(2**B - 1), str(2**B), f"{2**B - 1}*x", f"x+{2**B}", "0" * 5000 + "7", f"{2**255}^16", f"{2**240}^17",
        f"(1/{2**255})^16", f"(3/{2**240})^17", f"2^{B}", f"2^{D}", f"2^{D + 1}", f"0^{D + 1}", "0^0",
        "((2^24)^24)^24", "x^y", "x^(1/2)", "x^(0-2)", "x +", "(x", "x)", "x y", "", " ", "x $ y", "x + w", "x,",
    ]
    texts += [cases.SPHERE_F, cases.ELLIPTIC_CONE_F, cases.TANGENT_QUARTIC_F, cases.QUARTIC_CYLINDER_F]
    rng = random.Random(20261022)
    texts += [_random_expr(rng, ("x", "y", "z"), rng.randint(2, 12))[0] for _ in range(60)]
    return texts


def _differential_maps():
    rng = random.Random(20261023)
    texts = [cases.IMPROPER_CONE_MAP, cases.UNIT_CIRCLE_CONE_MAP, cases.PARABOLOID_MAP, cases.PLANE_MAP,
             "(s, t, s*t)", "s, t, s^2*t/(s+1)", "((s+t+1)^2/(s-t+2)^2, s, t)", "(s, (t), 1)) , (", "((s), (t), (1))"]
    for _ in range(20):
        parts = [_random_expr(rng, ("s", "t"), 6)[0] for _ in range(3)]
        texts.append(f"({', '.join(parts)})" if rng.random() < 0.5 else ", ".join(parts))
    return texts


def _corrupted(rng, text):
    """text with one character replaced, inserted or deleted."""
    alphabet = "xyzst0123456789+-*/^(),  \n\t#.é٣w"
    i = rng.randrange(len(text) + 1)
    r = rng.random()
    if r < 0.4 and i < len(text):
        return text[:i] + rng.choice(alphabet) + text[i + 1 :]
    if r < 0.7 or i == len(text):
        return text[:i] + rng.choice(alphabet) + text[i:]
    return text[:i] + text[i + 1 :]


@pytest.mark.parametrize(
    "parse,reference,names,corpus",
    [
        (parse_poly, _ref_parse_poly, ("x", "y", "z"), _differential_corpus),
        (parse_ratfunc, _ref_parse_ratfunc, ("x", "y", "z"), _differential_corpus),
        (parse_ratfunc, _ref_parse_ratfunc, None, _differential_corpus),
        (parse_map, _ref_parse_map, ("s", "t"), _differential_maps),
    ],
    ids=["poly", "ratfunc", "ratfunc-any-names", "map"],
)
def test_parser_matches_reference_evaluator(parse, reference, names, corpus):
    """The folding evaluator against the one it replaced, on a seeded
    corpus and on one-character corruptions of it: equal stored values, or
    the same ParseError text, line and column."""
    rng = random.Random(20261021)
    texts = corpus()
    texts += [_corrupted(rng, text) for text in texts if len(text) < 2000 for _ in range(8)]
    outcomes = set()
    for text in texts:
        expected = _outcome(reference, text, names)
        assert _outcome(parse, text, names) == expected, repr(text)
        outcomes.add(expected[0] == "error")
    assert outcomes == {False, True}


def test_parse_stores_canonical_form():
    """The parser builds its result without the canonicalizing
    constructor: it must still equal its re-canonicalized twin, with
    canonical variables, none unused, and int coefficients exactly when
    integral."""
    rng = random.Random(5)
    texts = ["(3/2)^2*4*x", "x + y - y", "6/3*z*x", "2*y/4 + 1/2*y", "(x*y)^0 + 0*z"]
    texts += [_random_expr(rng, ("x", "y", "z"), 8)[0] for _ in range(80)]
    for text in texts:
        value = parse_ratfunc(text, ("z", "y", "x"))
        for p in (value.num, value.den):
            assert p.vars == canonical_vars(p.vars) and all(any(e[i] for e in p.terms) for i in range(len(p.vars)))
            assert all(type(c) is int if c.denominator == 1 else type(c) is Q for c in p.terms.values()), text
            assert p == MultiPoly(p.vars, p.terms)
    assert parse_poly("x + y - y", ("x", "y")).vars == ("x",)
    assert parse_poly("(3/2)^2*4*x", ("x",)).terms == {(1,): 9}


def test_printer_cache_keys_on_variable_names():
    rng = random.Random(11)
    exps = {tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(40)} | {(1, 1, 1)}
    terms = {e: rng.choice((1, -1, 2, Q(-3, 4))) for e in exps}
    for names in (("x", "y", "z"), ("s", "t", "u"), ("x", "y", "z")):
        p = MultiPoly(names, terms)
        assert p.vars == names
        assert print_poly(p) == _old_to_text(p)


def test_printer_cache_under_eviction():
    bound = _monomial_text.cache_info().maxsize
    names = ("x", "y", "z", "t")
    monomials = list(itertools.product(range(10), repeat=4))
    assert len(monomials) > bound
    chunks = [MultiPoly(names, {e: i + 1 for i, e in enumerate(monomials[k : k + 500])})
              for k in range(0, len(monomials), 500)]
    for p in chunks + chunks[:3]:
        assert print_poly(p) == _old_to_text(p)
    assert _monomial_text.cache_info().currsize == bound


def test_print_parse_at_the_degree_cap():
    p = (X + Y + Z + 1) ** MAX_DEGREE
    assert len(p.terms) == 2925
    text = print_poly(p)
    assert text == _old_to_text(p)
    assert parse_poly(text, ("x", "y", "z")) == p
    assert parse_poly(f"(x+y+z+1)^{MAX_DEGREE}", ("x", "y", "z")) == p
