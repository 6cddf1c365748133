"""Shared fixtures: parsed reference data, brute-force oracles and random
surface generators used by the module tests and the acceptance suite."""

from __future__ import annotations

import itertools
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from devsurf.poly import MultiPoly, Q
from devsurf.ratfunc import RatFunc, RationalMap3, substitute
from devsurf.exprs import parse_map, parse_poly
from devsurf.curves import is_proper_curve
from devsurf.builder import affine_plane, build_conical, build_cylindrical, build_tangential

import cases


def rf_derivative(f: RatFunc, var: str) -> RatFunc:
    """The quotient rule on one reduced rational function: the component
    route that map derivatives are checked against."""
    return RatFunc(f.num.derivative(var) * f.den - f.num * f.den.derivative(var), f.den * f.den)


def rf_subs(f: RatFunc, bindings) -> RatFunc:
    """f composed with rational bindings; a variable without one stays
    itself."""
    full = {v: bindings.get(v, RatFunc(MultiPoly.var(v))) for v in f.vars}
    return substitute(f.num, full) / substitute(f.den, full)


def rf_sub(a: RationalMap3, b: RationalMap3) -> RationalMap3:
    """a - b component by component."""
    params = a.params if len(a.params) >= len(b.params) else b.params
    return RationalMap3([x - y for x, y in zip(a.components, b.components)], params)


def _degenerates_to_plane(built) -> bool:
    return affine_plane(built.full_map()) is not None


def map2_with_zero(text2d: str) -> str:
    """Turn a 2-component map string into a 3-component one (third = 0)."""
    i = text2d.rstrip().rfind(")")
    return text2d[:i] + ", 0" + text2d[i:]


@pytest.fixture(scope="session")
def elliptic_cone():
    return parse_poly(cases.ELLIPTIC_CONE_F, ("x", "y", "z"))


@pytest.fixture(scope="session")
def quartic_cylinder():
    return parse_poly(cases.QUARTIC_CYLINDER_F, ("x", "y", "z"))


@pytest.fixture(scope="session")
def tangent_quartic():
    return parse_poly(cases.TANGENT_QUARTIC_F, ("x", "y", "z"))


@pytest.fixture(scope="session")
def sphere():
    return parse_poly(cases.SPHERE_F, ("x", "y", "z"))


@pytest.fixture(scope="session")
def improper_cone_map():
    return parse_map(cases.IMPROPER_CONE_MAP, params=("s", "t"))


@pytest.fixture(scope="session")
def tangent_dev_map():
    return parse_map(cases.TANGENT_DEV_MAP, params=("s", "t"))


def check_frozen_record(cls, fields: dict, changed: dict):
    """The semantics of an immutable record of type ``cls`` built from
    ``fields`` (every field, in declaration order): positional and keyword
    construction agree; no field can be assigned and no attribute added;
    records with equal fields compare equal and hash as the tuple of their
    fields, and changing any field of ``changed`` to its value there makes
    them unequal; the repr is Name(field=value, ...)."""
    rec = cls(**fields)
    again = cls(*fields.values())
    assert rec == again and hash(rec) == hash(again) == hash(tuple(fields.values()))
    assert [getattr(rec, k) for k in fields] == list(fields.values())
    for k, v in changed.items():
        assert rec != cls(**{**fields, k: v}), k
    for k in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(rec, k, None)
    assert [getattr(rec, k) for k in fields] == list(fields.values())
    assert repr(rec) == f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
    return rec


def check_mutable_record(cls, fields: dict, defaults: dict):
    """The calls that build a mutable record of type ``cls`` from
    ``fields`` (every field, in declaration order), the last of them
    optional with the given ``defaults``: positional, keyword and mixed
    calls agree, a required field cannot be left out, and every field can
    be assigned."""
    values, n = list(fields.values()), len(fields) - len(defaults)
    for rec in (cls(*values), cls(**fields), cls(*values[:n], **dict(list(fields.items())[n:]))):
        assert [getattr(rec, k) for k in fields] == values
    with pytest.raises(TypeError):
        cls(*values[: n - 1])
    rec = cls(*values[:n])
    assert [getattr(rec, k) for k in defaults] == list(defaults.values())
    for k, v in fields.items():
        setattr(rec, k, v)
    assert [getattr(rec, k) for k in fields] == values


# ---------------------------------------------------------------------------
# independent brute-force oracles
# ---------------------------------------------------------------------------


def perm_det(rows):
    """Determinant by the Leibniz permutation formula; independent of the
    production determinant kernel and Bareiss code paths."""
    n = len(rows)
    total = MultiPoly.zero()
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = MultiPoly.const(sign)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def bordered_hessian_oracle(F):
    """4x4 bordered Hessian determinant via the permutation formula."""
    coords = ("x", "y", "z")
    grad = [F.derivative(v) for v in coords]
    hess = [[F.derivative(a).derivative(b) for b in coords] for a in coords]
    rows = [
        hess[0] + [grad[0]],
        hess[1] + [grad[1]],
        hess[2] + [grad[2]],
        grad + [MultiPoly.zero()],
    ]
    return perm_det(rows)


def sylvester_oracle(p, q, var):
    """Resultant through the permutation-formula determinant."""
    from devsurf.poly import sylvester_matrix

    return perm_det(sylvester_matrix(p, q, var))


def _squarefree_int(n):
    """n with every square factor divided out, by trial division."""
    sign, n = (-1 if n < 0 else 1), abs(n)
    d = 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
        d += 1
    return sign * n


def ternary_form_solvable(a, b, c):
    """Brute force: does a x^2 + b y^2 + c z^2 = 0 (a, b, c nonzero integers)
    have a nontrivial integer zero?

    The form is first reduced to squarefree, pairwise coprime coefficients
    with the same solvability (g = gcd(a, b): multiply by g, scale x, y by g).
    Holzer's theorem then puts a zero, if there is one, within
    |x| <= sqrt|bc|, |y| <= sqrt|ca|, |z| <= sqrt|ab|, so searching x and y
    there and solving for z is complete."""
    v = [_squarefree_int(a), _squarefree_int(b), _squarefree_int(c)]
    reduced = False
    while not reduced:
        reduced = True
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            g = math.gcd(v[i], v[j])
            if g > 1:
                v[i], v[j], v[k] = v[i] // g, v[j] // g, _squarefree_int(v[k] * g)
                reduced = False
    a, b, c = v
    for x in range(math.isqrt(abs(b * c)) + 1):  # x -> -x is a symmetry
        for y in range(-math.isqrt(abs(c * a)), math.isqrt(abs(c * a)) + 1):
            if x == 0 and y == 0:
                continue
            num = -(a * x * x + b * y * y)
            if num % c == 0 and num // c >= 0 and math.isqrt(num // c) ** 2 == num // c:
                return True
    return False


# ---------------------------------------------------------------------------
# random generators (all deterministic via caller-provided rng)
# ---------------------------------------------------------------------------


def random_poly(rng, var, deg, lo=-3, hi=3):
    while True:
        terms = {(k,): Q(rng.randint(lo, hi)) for k in range(deg + 1)}
        p = MultiPoly((var,), terms)
        if p.degree_in(var) == deg:
            return p


def random_small_multipoly(rng, variables, deg, density=0.7, lo=-4, hi=4):
    terms = {}
    n = len(variables)
    for exps in itertools.product(range(deg + 1), repeat=n):
        if sum(exps) > deg:
            continue
        if rng.random() < density:
            c = rng.randint(lo, hi)
            if c:
                terms[exps] = Q(c)
    p = MultiPoly(tuple(variables), terms)
    if p.is_zero():
        return MultiPoly.const(1)
    return p


def random_space_curve(rng, num_deg, den_deg=0, mixed=True):
    """Random rational space curve; the geometric degree of the image is at
    most num_deg + den_deg for mixed denominators (max of the two when the
    common denominator is applied to every component)."""
    comps = []
    den = random_poly(rng, "t", den_deg) if den_deg else None
    for _ in range(3):
        num = random_poly(rng, "t", rng.randint(max(1, num_deg - 1), num_deg))
        if den is not None and (not mixed or rng.random() < 0.7):
            comps.append(RatFunc(num, den))
        else:
            comps.append(RatFunc(num))
    return RationalMap3(comps, ("t",))


def random_directrix(rng, deg):
    """Random rational directrix of geometric degree at most deg."""
    if deg >= 2 and rng.random() < 0.3:
        return random_space_curve(rng, deg - 1, den_deg=1, mixed=True)
    return random_space_curve(rng, deg)


def random_cone(rng, deg):
    """Random cone plus its expected (tag, apex, direction)."""
    while True:
        apex = tuple(Q(rng.randint(-3, 3)) for _ in range(3))
        curve = random_directrix(rng, deg)
        try:
            proper, _ = is_proper_curve(curve, "t")
            if not proper:
                continue
            built = build_conical(apex, curve)
            if _degenerates_to_plane(built):
                continue
            return built, ("Conical", apex, None)
        except Exception:
            continue


def random_cylinder(rng, deg):
    from math import gcd

    while True:
        d = tuple(rng.randint(-3, 3) for _ in range(3))
        if d == (0, 0, 0):
            continue
        g = gcd(gcd(abs(d[0]), abs(d[1])), abs(d[2]))
        d = tuple(v // g for v in d)
        for v in d:
            if v != 0:
                if v < 0:
                    d = tuple(-w for w in d)
                break
        curve = random_directrix(rng, deg)
        try:
            proper, _ = is_proper_curve(curve, "t")
            if not proper:
                continue
            built = build_cylindrical(d, curve)
            if _degenerates_to_plane(built):
                continue
            return built, ("Cylindrical", None, d)
        except Exception:
            continue


def random_tangent_surface(rng, deg, with_denominator=False):
    """Tangent developable of a random nonplanar proper edge.

    Cubic polynomial edges and quadratic-over-linear rational edges keep
    the cuspidal-edge projections inside the supported curve families.
    """
    while True:
        curve = random_space_curve(rng, deg, den_deg=1 if with_denominator else 0)
        try:
            proper, _ = is_proper_curve(curve, "t")
            if not proper:
                continue
            return build_tangential(curve), ("Tangential", None, None)
        except Exception:
            continue
