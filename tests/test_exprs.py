"""Parser and printer: grammar, errors with positions, round-trips."""

import itertools
import random
import re

import pytest

from devsurf.poly import MultiPoly, Q, _monomial_text, canonical_vars
from devsurf import cli
from devsurf.exprs import (
    MAX_CONSTANT_BITS,
    MAX_DEGREE,
    ParseError,
    SurfaceInput,
    _tokenize,
    parse_map,
    parse_poly,
    parse_ratfunc,
    print_map,
    print_poly,
)

from conftest import random_small_multipoly
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


def test_tokenizer_matches_reference():
    """Seeded texts over the grammar's alphabet, blanks and illegal
    characters: the same tokens, or the same error at the same place."""
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
        try:
            expected = _old_tokenize(text)
        except ParseError as err:
            with pytest.raises(ParseError) as info:
                _tokenize(text)
            assert (str(info.value), info.value.line, info.value.col) == (str(err), err.line, err.col), repr(text)
            outcomes.add("error")
        else:
            assert _tokenize(text) == expected, repr(text)
            outcomes.add("tokens")
    assert outcomes == {"error", "tokens"}


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
