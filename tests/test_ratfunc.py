"""Rational functions: canonical reduction, arithmetic, substitution."""

import itertools
import random

import pytest

from devsurf.poly import MultiPoly, Q
from devsurf.ratfunc import RatFunc, RationalMap3, compose_is_zero, substitute, substitute_map
from devsurf.exprs import parse_map, parse_poly

from conftest import random_small_multipoly
import cases

X, Y, T = MultiPoly.var("x"), MultiPoly.var("y"), MultiPoly.var("t")


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


def test_derivative_quotient_rule_randomized():
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
        lhs = (f * g).derivative("t")
        rhs = f.derivative("t") * g + f * g.derivative("t")
        assert lhs == rhs


def test_substitute_simple():
    p = X**2 + Y**2
    out = substitute(p, {"x": RatFunc(T), "y": RatFunc(MultiPoly.zero())})
    assert out == RatFunc(T**2)


def test_substitute_requires_bindings():
    with pytest.raises(KeyError):
        substitute(X + Y, {"x": RatFunc(T)})


def test_substitute_zero_denominator_binding():
    p = parse_poly("x", ("x",))
    with pytest.raises(ZeroDivisionError):
        RatFunc(MultiPoly.const(1), X).subs({"x": RatFunc(MultiPoly.zero())})


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
    from devsurf.ratfunc import substitute_map_is_zero

    assert substitute_map_is_zero(sphere, circle)
    assert not substitute_map_is_zero(sphere + 1, circle)
    for _ in range(10):
        p = random_small_multipoly(rng, ("x", "y"), 2)
        bindings = {
            "x": RatFunc(random_small_multipoly(rng, ("t",), 2)),
            "y": RatFunc(random_small_multipoly(rng, ("t",), 2)),
        }
        expanded = substitute(p, {v: bindings[v] for v in p.vars})
        assert compose_is_zero(p, {v: bindings[v] for v in p.vars}, ("t",)) == expanded.is_zero()


def test_map_rename_and_derivative():
    tw = parse_map(cases.TWISTED_CUBIC, params=("t",))
    d = tw.derivative("t")
    assert d.components[0] == RatFunc(MultiPoly.const(1))
    assert d.components[2] == RatFunc(3 * T**2)
    renamed = tw.rename_params({"t": "u"})
    assert renamed.params == ("u",)


def test_compose_is_zero_grid_is_complete():
    # the cleared numerators vanish at every grid point but the last one in
    # each parameter, so a grid one point short would call them zero
    S = MultiPoly.var("s")
    cubic = T * (T - 1) * (T - 2)
    assert not compose_is_zero(X, {"x": RatFunc(cubic)}, ("t",))
    assert not compose_is_zero(X * Y, {"x": RatFunc(S * (S - 1)), "y": RatFunc(cubic, T + 5)}, ("s", "t"))


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
            assert compose_is_zero(to_multipoly(P, ("x", "y", "z")), bindings, params) == oracle
            checked[oracle] += 1
