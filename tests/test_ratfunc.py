"""Rational functions: canonical reduction, arithmetic, substitution."""

import contextlib
import io
import itertools
import math
import os
import random

import pytest

from devsurf.poly import MultiPoly, Q, _int_terms, _reindex, compose, gcd_many
from devsurf.ratfunc import (
    RatFunc,
    RationalMap3,
    _form_is_zero,
    projective_form,
    substitute,
    substitute_map,
    substitute_map_is_zero,
)
from devsurf.exprs import parse_map, parse_poly
from devsurf.builder import ParamResult, build_conical
from devsurf.errors import DevsurfError

from conftest import random_small_multipoly, random_space_curve, rf_derivative, rf_subs
import cases

X, Y, Z, S, T = (MultiPoly.var(v) for v in "xyzst")


def test_reduction_cancels_common_factor():
    r = RatFunc((X + 1) * (X - 1), (X - 1) * (X + 2))
    assert r.num == X + 1
    assert r.den == X + 2


def test_reduction_idempotent_randomized():
    rng = random.Random(3)
    for _ in range(30):
        num = random_small_multipoly(rng, ("x", "y"), 2)
        den = random_small_multipoly(rng, ("x", "y"), 2)
        if den.is_zero():
            continue
        r = RatFunc(num, den)
        again = RatFunc(r.num, r.den)
        assert r == again


def test_denominator_normalized_positive_primitive():
    r = RatFunc(X, -2 * X + 4)
    assert r.den.leading()[1] > 0
    # scaling numerator and denominator together is invisible
    assert r == RatFunc(3 * X, 3 * (-2 * X + 4))


@pytest.mark.parametrize("value", [0, 3, -2, Q(1, 2)])
def test_equal_values_hash_equal(value):
    # constants equal their values, and RatFuncs over 1 their numerators:
    # each pair must hash alike, for set and dict lookups
    p, r = MultiPoly.const(value), RatFunc(value)
    assert p == value and r == value and r == p
    assert hash(p) == hash(value) and hash(r) == hash(value)
    assert value in {p} and p in {value} and value in {r} and r in {p} and p in {r}
    assert {value: "v"}[p] == {value: "v"}[r] == "v" and {p: "p"}[value] == {p: "p"}[r] == "p"
    assert {r: "r"}[value] == {r: "r"}[p] == "r"
    q = X * value + T
    assert RatFunc(q) == q and hash(RatFunc(q)) == hash(q) and RatFunc(q) in {q} and q in {RatFunc(q)}


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc(X, MultiPoly.zero())


def test_field_arithmetic():
    a = RatFunc(X, X + 1)
    b = RatFunc(1, X)
    assert a + b == RatFunc(X**2 + X + 1, X * (X + 1))
    assert a * b == RatFunc(MultiPoly.const(1), X + 1)
    assert (a / b) == RatFunc(X**2, X + 1)
    assert (a - a).is_zero()


@pytest.mark.parametrize("left", [2, Q(-3, 4), MultiPoly.var("t")], ids=["int", "Q", "MultiPoly"])
def test_operand_on_the_left(left):
    # each operator with a number or a polynomial on the left gives the
    # same operation with that operand on the right
    r = RatFunc(T, T + 1)
    assert left + r == r + left == RatFunc(left) + r
    assert left - r == -(r - left) == RatFunc(left) - r
    assert left * r == r * left == RatFunc(left) * r
    assert left / r == 1 / (r / left) == RatFunc(left) / r


def test_arithmetic_runs_only_in_the_parser(monkeypatch):
    # the pipeline computes on the stored forms: RatFunc arithmetic on the
    # reference inputs is called from the parser alone
    import sys

    from devsurf.cli import main as cli_main

    callers = set()
    depth = [0]

    def spied(name, method):
        def spy(*args):
            if not depth[0]:
                callers.add((sys._getframe(1).f_code.co_filename, name))
            depth[0] += 1
            try:
                return method(*args)
            finally:
                depth[0] -= 1

        return spy

    names = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__neg__")
    for name in set(names) & set(RatFunc.__dict__):
        monkeypatch.setattr(RatFunc, name, spied(name, RatFunc.__dict__[name]))
    implicit = (cases.ELLIPTIC_CONE_F, cases.QUARTIC_CYLINDER_F, cases.TANGENT_QUARTIC_F, cases.SPHERE_F, cases.TANGENT_DEV_IMPLICIT)
    maps = (cases.ELLIPTIC_CONE_FULL_MAP, cases.IMPROPER_CONE_MAP, cases.TANGENT_DEV_MAP, cases.UNIT_CIRCLE_CONE_MAP, cases.PARABOLOID_MAP)
    runs = [["implicit", f] for f in implicit] + [["parametric", m] for m in maps]
    runs += [["verify", cases.ELLIPTIC_CONE_F, cases.ELLIPTIC_CONE_FULL_MAP], ["verify", cases.TANGENT_DEV_IMPLICIT, cases.TANGENT_DEV_MAP]]
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli_main(argv) for argv in runs]
    assert codes == [0, 0, 0, 3, 0, 0, 0, 0, 0, 3, 0, 0]
    assert "__truediv__" in {name for _, name in callers}  # the parser's divisions are seen
    assert {os.path.basename(path) for path, _ in callers} == {"exprs.py"}


def test_derivative_quotient_rule_randomized():
    # on a map (f, g, f*g): the derivative of the third component is the
    # product rule applied to the first two
    rng = random.Random(8)
    for _ in range(20):
        n1 = random_small_multipoly(rng, ("t",), 3)
        d1 = random_small_multipoly(rng, ("t",), 2)
        if d1.is_zero():
            continue
        n2 = random_small_multipoly(rng, ("t",), 3)
        d2 = random_small_multipoly(rng, ("t",), 2)
        if d2.is_zero():
            continue
        f = RatFunc(n1, d1)
        g = RatFunc(n2, d2)
        df, dg, lhs = RationalMap3([f, g, f * g], ("t",)).derivative("t").components
        assert lhs == df * g + f * dg


def test_substitute_simple():
    p = X**2 + Y**2
    out = substitute(p, {"x": RatFunc(T), "y": RatFunc(MultiPoly.zero())})
    assert out == RatFunc(T**2)


def test_substitute_requires_bindings():
    with pytest.raises(KeyError):
        substitute(X + Y, {"x": RatFunc(T)})


def test_substitute_zero_denominator_binding():
    m = RationalMap3([RatFunc(MultiPoly.const(1), X), RatFunc(X), RatFunc(MultiPoly.zero())], ("x",))
    with pytest.raises(ZeroDivisionError):
        m.subs({"x": RatFunc(MultiPoly.zero())}, ("x",))


def test_curve_lies_on_cone(elliptic_cone):
    curve = parse_map(cases.ELLIPTIC_CONE_CURVE_3D, params=("t",))
    assert substitute_map(elliptic_cone, curve).is_zero()
    assert not substitute_map(elliptic_cone + 1, curve).is_zero()


def test_cylinder_directrix_plus_ruling_lies_on_surface(quartic_cylinder):
    directrix = parse_map(cases.QUARTIC_CYLINDER_DIRECTRIX, params=("t",))
    s = RatFunc(MultiPoly.var("s"))
    d = cases.QUARTIC_CYLINDER_DIRECTION
    full = RationalMap3([c + s * Q(v) for c, v in zip(directrix.components, d)], ("s", "t"))
    assert substitute_map(quartic_cylinder, full).is_zero()


def test_compose_is_zero_agrees_with_expansion():
    rng = random.Random(55)
    circle = parse_map("( (1-t^2)/(1+t^2), 2*t/(1+t^2), 0 )", params=("t",))
    sphere = parse_poly(cases.SPHERE_F, ("x", "y", "z"))
    assert substitute_map(sphere, circle).is_zero()
    assert substitute_map_is_zero(sphere, circle)
    assert not substitute_map_is_zero(sphere + 1, circle)
    for _ in range(10):
        p = random_small_multipoly(rng, ("x", "y"), 2)
        bindings = {
            "x": RatFunc(random_small_multipoly(rng, ("t",), 2)),
            "y": RatFunc(random_small_multipoly(rng, ("t",), 2)),
        }
        expanded = substitute(p, {v: bindings[v] for v in p.vars})
        assert _form_is_zero(p, p.vars, projective_form([bindings[v] for v in p.vars]), ("t",)) == expanded.is_zero()


def test_map_rename_and_derivative():
    tw = parse_map(cases.TWISTED_CUBIC, params=("t",))
    d = tw.derivative("t")
    assert d.components[0] == RatFunc(MultiPoly.const(1))
    assert d.components[2] == RatFunc(3 * T**2)


def test_compose_is_zero_grid_is_complete():
    # the cleared numerators vanish at every grid point but the last one in
    # each parameter, so a grid one point short would call them zero
    S = MultiPoly.var("s")
    cubic = T * (T - 1) * (T - 2)
    assert not _form_is_zero(X, ("x",), projective_form([RatFunc(cubic)]), ("t",))
    form = projective_form([RatFunc(S * (S - 1)), RatFunc(cubic, T + 5)])
    assert not _form_is_zero(X * Y, ("x", "y"), form, ("s", "t"))


@pytest.mark.parametrize("params", [("t",), ("s", "t")])
def test_compose_is_zero_against_sympy_cancel(params):
    # p = (B*z - A) * R vanishes on x = X, y = Y, z = A(X, Y)/B(X, Y); the
    # same p with one coefficient bumped by 1/q is the nonzero case.  The
    # oracle composes in sympy's rational function field, which cancels
    # numerator and denominator after every operation.
    sympy = pytest.importorskip("sympy")
    from sympy.polys.fields import field
    from sympy.polys.rings import ring

    rng = random.Random(4100 + len(params))
    K, *pars = field(",".join(params), sympy.QQ)
    R3, x, y, z = ring("x,y,z", sympy.QQ)

    def rand_poly(domain, gens, deg):
        while True:
            expr = sum(
                (
                    sympy.QQ(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 5)))
                    * sympy.prod([g**e for g, e in zip(gens, exps) if e], start=1)
                    for exps in itertools.product(range(deg + 1), repeat=len(gens))
                    if sum(exps) <= deg and rng.random() < 0.7
                ),
                0,
            )
            if expr != 0:
                return domain(expr)

    def compose(P, values):
        out = K(0)
        for exps, c in P.terms():
            out += K(c) * sympy.prod([v**e for v, e in zip(values, exps) if e], start=K(1))
        return out

    def to_multipoly(P, names):
        return MultiPoly(names, {e: Q(int(c.numerator), int(c.denominator)) for e, c in P.terms()})

    checked = {True: 0, False: 0}
    while min(checked.values()) < 10:
        X = rand_poly(K, pars, 2) / rand_poly(K, pars, 1)
        Y = rand_poly(K, pars, 2) / rand_poly(K, pars, 1)
        A, B = rand_poly(R3, (x, y), 2), rand_poly(R3, (x, y), 1)
        BXY = compose(B, (X, Y))
        if BXY == 0:
            continue
        Z = compose(A, (X, Y)) / BXY
        p = (B * z - A) * rand_poly(R3, (x, y, z), 1)
        exps, _ = rng.choice(p.terms())
        bumped = p + sympy.QQ(1, rng.randint(2, 7)) * R3({exps: 1})
        bindings = {
            n: RatFunc(to_multipoly(v.numer, params), to_multipoly(v.denom, params))
            for n, v in zip("xyz", (X, Y, Z))
        }
        for P in (p, bumped):
            oracle = compose(P, (X, Y, Z)) == 0
            p3 = to_multipoly(P, ("x", "y", "z"))
            form = projective_form([bindings[v] for v in p3.vars])
            assert _form_is_zero(p3, p3.vars, form, params) == oracle
            checked[oracle] += 1


@pytest.mark.parametrize(
    "text, params, corner",
    [
        ("((t-2)*(t-3)/(t*(t-1)), 0, 1/(t*(t-1)))", ("t",), {"t": 4}),
        ("((s-2)*(s-3)*(t-2)*(t-3)/(s*(s-1)*t*(t-1)), 0, 1/(s*(s-1)*t*(t-1)))", ("s", "t"), {"s": 4, "t": 4}),
    ],
)
def test_form_grid_is_complete(text, params, corner):
    # for p = x - y*z, N = X1*W - X2*X3 has degree 4 = deg p * 2 in each
    # parameter and vanishes at every point of the grid 0..4 but the last
    # corner, so a grid one point short would call p(X/W) zero
    m = parse_map(text, params=params)
    X1, X2, X3, W = m.form
    N = X1 * W - X2 * X3
    assert [max(e.degree_in(v) for e in m.form) for v in params] == [2] * len(params)
    for point in itertools.product(range(5), repeat=len(params)):
        value = N.eval_all(dict(zip(params, point)))
        assert (value != 0) == (dict(zip(params, point)) == corner)
    assert not substitute_map_is_zero(X - Y * Z, m)
    assert not substitute_map(X - Y * Z, m).is_zero()


def _grid_row(terms, lead):
    top = max((e[-1] for e, _ in terms), default=0)
    row = [0] * (top + 1)
    for exps, n in terms:
        for x, e in zip(lead, exps):
            if e:
                n *= x**e
        row[top - exps[-1]] += n
    return row


def _grid_form_is_zero(p, names, form, params):
    """Oracle: the grid certificate that `_form_is_zero` replaced.
    N = p^h(X, W), scaled to integers, is evaluated at every point of the
    integer grid one point wider than d * max deg_v of the entries in each
    parameter v, one Horner row in the last parameter per point."""
    if p.is_zero():
        return True
    if p.is_constant():
        return p.constant_value() == 0
    params = tuple(params)
    d = p.total_degree()
    entries = [form[names.index(v)] for v in p.vars] + [form[-1]]
    rows_of = [list(_reindex(e.terms, e.vars, params).items()) for e in entries]
    bounds = [d * max(e.degree_in(v) for e in entries) for v in params]
    caps = [p.degree_in(v) for v in p.vars] + [d - min(map(sum, p.terms))]
    _, coeffs = _int_terms(p.terms)
    terms = [(exps + (d - sum(exps),), c) for exps, c in coeffs.items()]
    for lead in itertools.product(*(range(b + 1) for b in bounds[:-1])):
        rows = [_grid_row(r, lead) for r in rows_of]
        for x in range(bounds[-1] + 1):
            pows = []
            for row, cap in zip(rows, caps):
                val = 0
                for c in row:
                    val = val * x + c
                pows.append([val**k for k in range(cap + 1)])
            acc = 0
            for exps, c in terms:
                for pw, e in zip(pows, exps):
                    c *= pw[e]
                acc += c
            if acc:
                return False
    return True


def _homogenized(p, names, form):
    """N = sum_e c_e * X^e * W^(d - |e|), expanded."""
    d = p.total_degree()
    entries = [form[names.index(v)] for v in p.vars] + [form[-1]]
    N = MultiPoly.zero()
    for exps, c in p.terms.items():
        term = MultiPoly.const(c)
        for e, k in zip(entries, exps + (d - sum(exps),)):
            term = term * e**k
        N = N + term
    return N


@pytest.mark.parametrize("params", [("t",), ("s", "t")])
def test_point_certificate_matches_the_grid(params):
    # seeded maps with negative coefficients, poles (W nonconstant) and
    # constant entries; p = (z - x*y - c) * R vanishes on each, p plus one
    # rational monomial and a random p in x and z mostly do not
    rng = random.Random(4400 + len(params))
    checked = {True: 0, False: 0}
    for m, c in _seeded_maps(4500 + len(params), params, 24):
        p = (Z - X * Y - c) * random_small_multipoly(rng, ("x", "y", "z"), 1, lo=-5, hi=5)
        exps = tuple(rng.randint(0, 2) for _ in range(3))
        bumped = p + MultiPoly(("x", "y", "z"), {exps: Q(rng.choice((-1, 1)), rng.randint(1, 5))})
        for q in (p, bumped, random_small_multipoly(rng, ("x", "z"), 2) * Q(-2, 3)):
            oracle = _grid_form_is_zero(q, ("x", "y", "z"), m.form, params)
            assert _form_is_zero(q, ("x", "y", "z"), m.form, params) == oracle
            checked[oracle] += 1
    assert min(checked.values()) >= 20


@pytest.mark.parametrize(
    "p, entries",
    [
        (X - Y, (S, T**2, T + 1)),  # N = s - t^2, over the pole t = -1
        (X - Y**2, (S, T, MultiPoly.const(1))),  # N = s - t^2
        (X - Y**3 * Q(2, 5), (S * 5, -T * 3 + 1, T - 1)),  # N = 5*s*(t - 1)^2 - 2/5*(1 - 3*t)^3
        (X - 1, (S, T + 7, T)),  # N = s - t, whose t comes from W alone
        (X - Y, (T, S**2, MultiPoly.const(1))),  # N = t - s^2
    ],
)
def test_point_two_parameter_slot_holds_the_top_t_degree(p, entries):
    # deg_t N reaches D_t = deg p * max deg_t of the entries, W included,
    # so s must sit D_t + 1 slots above t.  With s = T^D_t the first two
    # cases cancel, and so does the fourth if D_t leaves W out; the last
    # one cancels at t = T^(D_t + 1) and s = T, the two slots traded
    names, params = ("x", "y"), ("s", "t")
    N = _homogenized(p, names, entries)
    assert N.degree_in("t") == p.total_degree() * max(e.degree_in("t") for e in entries)
    assert not _form_is_zero(p, names, entries, params)
    assert not _grid_form_is_zero(p, names, entries, params)


@pytest.mark.parametrize("k", [1, 7, 64, 100])
@pytest.mark.parametrize("params", [("t",), ("s", "t")])
def test_point_certificate_at_the_coefficient_bound(k, params):
    # entries with positive coefficients only: x = t, y = s, W = 1.  N =
    # t - 2^k, times s in two parameters, has L1 norm B = 2^k + 1, the
    # bound, and its lowest coefficient is B - 1, so T must exceed B: T =
    # 2^k is a root.  Scaling p by 1/3 scales N by a nonzero constant.
    names = ("x", "y")
    form = (T, S, MultiPoly.const(1))
    p = (X - 2**k) * (Y if len(params) == 2 else 1)
    N = _homogenized(p, names, form)
    assert sum(map(abs, N.terms.values())) == 2**k + 1 == max(map(abs, N.terms.values())) + 1
    for q in (p, p * Q(1, 3)):
        assert not _form_is_zero(q, names, form, params)
        assert not _grid_form_is_zero(q, names, form, params)


@pytest.mark.parametrize("params", [("t",), ("s", "t")])
@pytest.mark.parametrize(
    "p, entries",
    [
        (X - Y, (2 * T - 1, MultiPoly.const(3), MultiPoly.const(1))),  # N = 2*t - 4
        (X - 1, (MultiPoly.const(1), T + 5, T - 7)),  # N = 8 - t
    ],
)
def test_point_bound_takes_every_norm_and_sign(params, p, entries):
    # B sums |c_e| times the L1 norms of every entry, W's too.  Summing the
    # signed c_e in the first case gives B = 0 and T = 2; leaving W's norm
    # out in the second gives B = 2 and T = 8; either is a root of N
    assert not _form_is_zero(p, ("x", "y"), entries, params)
    assert not _grid_form_is_zero(p, ("x", "y"), entries, params)


def test_point_certificate_parameter_errors():
    U = MultiPoly.var("u")
    with pytest.raises(ValueError):
        _form_is_zero(X, ("x",), (U, MultiPoly.const(1)), ("s", "t", "u"))
    with pytest.raises(KeyError):
        _form_is_zero(X, ("x",), (U, MultiPoly.const(1)), ("t",))



@pytest.mark.parametrize("params", [("t",), ("s", "t")])
def test_substitution_decoded_from_the_certificate_image(params):
    # substitute_map reads N = p^h(X, W) off the one Kronecker image that
    # _form_is_zero tests; the expansion of substitute (poly.compose) is the
    # oracle, on seeded maps with poles and constant entries, for p that
    # vanishes on the map, p plus a rational monomial and a random p
    rng = random.Random(4700 + len(params))
    for m, c in _seeded_maps(4800 + len(params), params, 12):
        p = (Z - X * Y - c) * random_small_multipoly(rng, ("x", "y", "z"), 1, lo=-5, hi=5)
        exps = tuple(rng.randint(0, 2) for _ in range(3))
        bumped = p + MultiPoly(("x", "y", "z"), {exps: Q(rng.choice((-1, 1)), rng.randint(1, 5))})
        for q in (p, bumped, random_small_multipoly(rng, ("x", "z"), 3) * Q(-2, 3), MultiPoly.const(Q(5, 2))):
            assert substitute_map(q, m) == substitute(q, dict(zip("xyz", m.components)))


@pytest.mark.parametrize("k", [1, 7, 8, 63, 64, 100])
@pytest.mark.parametrize("params", [("t",), ("s", "t")])
def test_substitution_decoded_at_the_coefficient_bound(k, params):
    # N = (t - 2^k) * s^e * W-powers: its coefficients reach the bound B of
    # test_point_certificate_at_the_coefficient_bound, and the decoder reads
    # slots of bit_length(B) + 1 bits in whole bytes, signs included
    m = RationalMap3.from_form([T, S if len(params) == 2 else T + 1, MultiPoly.const(-1), T**2 + 3], params)
    for p in (X - 2**k, (X - 2**k) * Y * Q(1, 3), Z * (2**k - 1) - X * Y):
        assert substitute_map(p, m) == substitute(p, dict(zip("xyz", m.components)))


def test_residue_of_a_large_mismatch_needs_no_expansion(monkeypatch):
    # TANGENT_DEV_MAP against its implicit equation plus 1: the residue is
    # decoded from the certificate's image, without the expansion of the
    # substitution kernel poly.compose, and F(P) + 1 = 1 exactly
    import devsurf.poly
    import devsurf.ratfunc

    m = parse_map(cases.TANGENT_DEV_MAP, params=("s", "t"))
    F = parse_poly(cases.TANGENT_DEV_IMPLICIT, ("x", "y", "z"))
    assert substitute_map_is_zero(F, m)
    for module in (devsurf.poly, devsurf.ratfunc):
        monkeypatch.setattr(module, "compose", None)
    assert not substitute_map_is_zero(F + 1, m)
    assert substitute_map(F + 1, m) == RatFunc(MultiPoly.const(1))
    assert substitute_map(F - X, m) == -RatFunc(*m.form[::3])


_ONE = MultiPoly.const(1)


def _cleared(p: MultiPoly, pairs, caps) -> MultiPoly:
    """Oracle: the expansion that `poly.compose` replaced, verbatim.
    The numerator of p at v = num_v/den_v, for the pairs (num_v, den_v),
    over the denominator prod_v den_v^caps[v]:
    sum_e c_e * prod_v num_v^e_v * den_v^(caps[v] - e_v), for caps[v] >= deg_v p
    over the bound variables v."""
    pows = {}
    for v, cap in caps.items():
        num, den = [_ONE], [_ONE]
        for _ in range(cap):
            num.append(num[-1] * pairs[v][0])
            den.append(den[-1] * pairs[v][1])
        pows[v] = num, den
    total = MultiPoly.zero()
    for exps, coeff in p.terms.items():
        e_of = dict(zip(p.vars, exps))
        term = MultiPoly.const(coeff)
        for v, (num, den) in pows.items():
            e = e_of.get(v, 0)
            term = term * num[e]
            if caps[v] - e:
                term = term * den[caps[v] - e]
        total = total + term
    return total


class TestComposeAgainstCleared:
    """`poly.compose` on the inputs of the former `_cleared`: every
    variable of p bound, to seeded rational functions, with caps at and
    above the degrees; and on the pairs `substitute`, `RationalMap3.subs`
    and `lift_to_space` hand it."""

    @staticmethod
    def seeded_pair(rng, pool):
        num = random_small_multipoly(rng, rng.sample(pool, 2), rng.randint(0, 2)) * Q(rng.randint(1, 5), rng.randint(1, 6))
        den = random_small_multipoly(rng, rng.sample(pool, 2), rng.randint(0, 2))
        return num, den if not den.is_zero() else MultiPoly.const(Q(rng.randint(1, 5), 3))

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_compositions(self, seed):
        rng = random.Random(9100 + seed)
        for _ in range(25):
            p = random_small_multipoly(rng, ("x", "y", "z"), rng.randint(0, 3)) * Q(rng.randint(-4, 4), rng.randint(1, 5))
            # the pairs bring in s and t and share x with p
            pairs = {v: self.seeded_pair(rng, ("x", "s", "t")) for v in ("x", "y", "z")}
            for extra in (0, 1, 2):
                caps = {v: p.degree_in(v) + rng.randint(0, extra) for v in ("x", "y", "z")}
                assert compose(p, pairs, caps) == _cleared(p, pairs, caps)
            caps = {v: p.degree_in(v) for v in p.vars}
            if p.vars:
                assert compose(p, pairs) == _cleared(p, {v: pairs[v] for v in caps}, caps)

    def test_number_pairs_and_zero_bindings(self):
        p = parse_poly("x^3*y - 2/3*x*y^2 + 5*y - 1/7", ("x", "y"))
        for pairs in ({"x": (MultiPoly.const(Q(2, 3)), MultiPoly.const(Q(5, 7))), "y": (T, T + 1)},
                      {"x": (MultiPoly.zero(), S + 2), "y": (MultiPoly.zero(), _ONE)},
                      {"x": (T, _ONE), "y": (MultiPoly.const(-3), MultiPoly.const(Q(1, 4)))}):
            for caps in ({"x": 3, "y": 2}, {"x": 5, "y": 2}, {"x": 3, "y": 4}):
                assert compose(p, pairs, caps) == _cleared(p, pairs, caps)

    def test_substitute_and_map_subs(self):
        rng = random.Random(9200)
        for m, _ in _seeded_maps(9201, ("s", "t"), 8):
            b = {"s": RatFunc(*self.seeded_pair(rng, ("s", "t"))), "t": RatFunc(*self.seeded_pair(rng, ("s", "t")))}
            pairs = {v: (f.num, f.den) for v, f in b.items()}
            caps = {v: max(e.degree_in(v) for e in m.form) for v in ("s", "t")}
            assert m.subs(b, ("s", "t")) == RationalMap3.from_form([_cleared(e, pairs, caps) for e in m.form], ("s", "t"))
            p = random_small_multipoly(rng, ("x", "y", "z"), 2)
            if p.is_constant():
                continue
            comps = dict(zip("xyz", m.components))
            pairs = {v: (comps[v].num, comps[v].den) for v in p.vars}
            caps = {v: p.degree_in(v) for v in p.vars}
            den = _ONE
            for v in p.vars:
                den = den * pairs[v][1] ** caps[v]
            assert substitute(p, comps) == RatFunc(_cleared(p, pairs, caps), den)

def _seeded_maps(seed, params, count=25):
    """Maps with distinct component denominators, a constant component, or
    polynomial components, each with a relation z = x*y + c."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        kind = len(out) % 3
        comps = []
        for i in range(2):
            num = random_small_multipoly(rng, params, 2)
            den = MultiPoly.const(1) if kind == 2 else random_small_multipoly(rng, params, 2)
            if kind == 1 and i == 1:
                num, den = MultiPoly.const(rng.randint(-3, 3)), MultiPoly.const(rng.randint(1, 3))
            comps.append(RatFunc(num, den))
        c = Q(rng.randint(-3, 3), rng.randint(1, 3))
        comps.append(comps[0] * comps[1] + c)
        out.append((RationalMap3(comps, params), c))
    return out


def _point_oracle(m, bindings):
    values = []
    for f in m.components:
        d = f.den.eval_all(bindings)
        if d == 0:
            return None
        values.append(f.num.eval_all(bindings) / d)
    return tuple(values)


def _assert_stored(m):
    assert all(type(c) is int for e in m.form for c in e.terms.values())
    assert gcd_many(m.form).is_constant() and m.form[3].leading()[1] > 0
    assert math.gcd(*(c for e in m.form for c in e.terms.values())) == 1


class TestStoredForm:
    """Each map operation on [X1 : X2 : X3 : W] against the route through
    the reduced components, on seeded maps in one and two parameters, and
    those two-parameter maps with s -> 1/s, whose lines s = 0 are poles."""

    MAPS = (
        [(m, c, ("t",)) for m, c in _seeded_maps(11, ("t",))]
        + [(m, c, ("s", "t")) for m, c in _seeded_maps(12, ("s", "t"))]
        + [(m.subs({"s": RatFunc(1, S)}, ("s", "t")), c, ("s", "t")) for m, c in _seeded_maps(13, ("s", "t"), 10)]
    )

    @pytest.mark.parametrize("m, c, params", MAPS)
    def test_form_and_view(self, m, c, params):
        _assert_stored(m)
        view = m.components
        again = RationalMap3(view, params)
        assert again == m and hash(again) == hash(m)
        assert RationalMap3.from_form(m.form, params).components == view
        # a common factor of the four entries, and a rational scale, cancel
        rng = random.Random(len(m.to_text()))
        g = random_small_multipoly(rng, params, 2) * Q(-3, 7)
        assert RationalMap3.from_form([e * g for e in m.form], params) == m
        assert m.is_constant() == all(f.is_constant() for f in view)

    @pytest.mark.parametrize("m, c, params", MAPS)
    def test_operations_match_component_route(self, m, c, params):
        for v in params:
            d = m.derivative(v)
            _assert_stored(d)
            assert d.components == tuple(rf_derivative(f, v) for f in m.components)
        binding = {"t": RatFunc(2 * T + 1, T - 3)}
        composed = m.subs(binding, params)
        _assert_stored(composed)
        assert composed.components == tuple(rf_subs(f, binding) for f in m.components)
        for point in itertools.product([Q(0), Q(1), Q(-1, 2), Q(3)], repeat=len(params)):
            bindings = dict(zip(params, point))
            assert m.eval_all(bindings) == _point_oracle(m, bindings)
        F = Z - X * Y - c
        assert substitute_map(F, m).is_zero() and substitute_map_is_zero(F, m)
        rng = random.Random(len(m.to_text()))
        for _ in range(3):
            p = random_small_multipoly(rng, ("x", "y", "z"), 2)
            expect = substitute(p, dict(zip("xyz", m.components)))
            assert substitute_map(p, m) == expect
            assert substitute_map_is_zero(p, m) == expect.is_zero()

    def test_constant_and_pole_maps(self):
        point = RationalMap3.constant((Q(1, 2), 3, Q(-4, 3)), ("t",))
        _assert_stored(point)
        assert point.form == (MultiPoly.const(3), MultiPoly.const(18), MultiPoly.const(-8), MultiPoly.const(6))
        assert point.is_constant() and point.derivative("t").is_constant()
        poles = parse_map("(1/s, t/s, 1)", params=("s", "t"))
        assert poles.eval_all({"s": 0, "t": 1}) is None
        assert poles.eval_all({"s": 2, "t": 1}) == (Q(1, 2), Q(1, 2), 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_full_map_matches_component_sum(self, seed):
        rng = random.Random(seed)
        s = RatFunc(MultiPoly.var("s"))
        curves = [RationalMap3([RatFunc(random_small_multipoly(rng, ("t",), 2), random_small_multipoly(rng, ("t",), 1))
                                for _ in range(3)], ("t",)) for _ in range(2)]
        constant = RationalMap3.constant([Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)], ("t",))
        for p0, p1 in ((curves[0], curves[1]), (constant, curves[1]), (curves[0], constant), (curves[0], curves[0])):
            full = ParamResult(p0=p0, p1=p1, kind="Tangential").full_map()
            _assert_stored(full)
            oracle = tuple(a + s * b for a, b in zip(p0.components, p1.components))
            assert full == RationalMap3(oracle, ("s", "t"))
            assert full.components == oracle == RationalMap3.from_form(full.form, ("s", "t")).components

    def test_cone_direction_view_matches_form(self):
        rng = random.Random(7)
        for _ in range(10):
            curve = random_space_curve(rng, 2, den_deg=rng.randint(1, 2))
            apex = [Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
            try:
                p1 = build_conical(apex, curve).p1
            except DevsurfError:
                continue
            _assert_stored(p1)
            assert p1.components == RationalMap3.from_form(p1.form, ("t",)).components
            assert p1.components == tuple(f - a for f, a in zip(curve.components, apex))
