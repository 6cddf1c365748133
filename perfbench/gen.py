"""Seeded benchmark inputs with answers known from their construction.

Every input is built here, with sympy, from a seeded random draw; none of
it calls devsurf.  The expected verdict comes from the construction
itself (the apex or ruling direction that was put in) or from an exact
check that does not share code with devsurf (a nonzero 4x4 determinant,
a nonzero curvature form at a point of the surface).  The same seed gives
byte-identical input text on every commit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import sympy as sp

import refcases

x, y, z, s, t, u, v, w = sp.symbols("x y z s t u v w")
XYZ = (x, y, z)

DEFAULT_SEED = 20260811


@dataclass(frozen=True)
class Case:
    """One CLI input and the verdict its construction guarantees."""

    name: str
    kind: str                      # "implicit" or "parametric"
    text: str                      # the argument given to the CLI
    exit_code: int                 # 0 verified, 2 unsupported, 3 not developable
    tag: str
    apex: Optional[tuple[Fraction, ...]] = None
    direction: Optional[tuple[int, ...]] = None
    options: tuple[str, ...] = ()   # extra CLI arguments

    def argv(self) -> list[str]:
        return [self.kind, self.text, *self.options]


# ---------------------------------------------------------------------------
# text in the CLI's syntax
# ---------------------------------------------------------------------------


def _monomial(coeff: int, gens, exps) -> str:
    factors = [str(g) if e == 1 else f"{g}^{e}" for g, e in zip(gens, exps) if e]
    if not factors:
        return str(coeff)
    if coeff == 1:
        return "*".join(factors)
    if coeff == -1:
        return "-" + "*".join(factors)
    return f"{coeff}*" + "*".join(factors)


def _terms_text(p: sp.Poly) -> str:
    out = ""
    for exps, c in p.terms():
        term = _monomial(int(c), p.gens, exps)
        if not out:
            out = term
        elif term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out or "0"


def poly_text(expr, gens) -> str:
    """Primitive integer-coefficient text of a polynomial, terms in sympy's
    lex order."""
    p = sp.Poly(sp.expand(expr), *gens)
    return _terms_text(p.clear_denoms()[1].primitive()[1])


def map_text(components, gens=(s, t)) -> str:
    """'( P1, P2, P3 )', each component a reduced quotient of
    integer-coefficient polynomials."""
    parts = []
    for comp in components:
        num, den = (sp.Poly(e, *gens) for e in sp.fraction(sp.cancel(sp.together(comp))))
        scale = 1
        for c in num.coeffs() + den.coeffs():
            scale = sp.ilcm(scale, sp.Rational(c).q)
        num, den = num * scale, den * scale
        if den.is_ground and den.LC() == 1:
            parts.append(_terms_text(num))
        else:
            parts.append(f"({_terms_text(num)})/({_terms_text(den)})")
    return "( " + ", ".join(parts) + " )"


# ---------------------------------------------------------------------------
# random building blocks
# ---------------------------------------------------------------------------


def _upoly(rng, var, deg, bound=2):
    """Random integer polynomial of exact degree deg, coefficients in
    [-bound, bound]."""
    while True:
        cs = [rng.randint(-bound, bound) for _ in range(deg + 1)]
        if cs[-1]:
            return sum(c * var**k for k, c in enumerate(cs))


def _unimodular(rng, steps=4):
    """Integer 3x3 matrix of determinant +-1 with small entries."""
    m = sp.eye(3)
    for _ in range(steps):
        i, j = rng.sample(range(3), 2)
        m = m.elementary_row_op("n->n+km", row=i, k=rng.choice((-1, 1)), row2=j)
    perm = list(range(3))
    rng.shuffle(perm)
    return m.extract(perm, [0, 1, 2])


def _primitive(vec) -> tuple[int, ...]:
    """Coprime integers, first nonzero entry positive."""
    from math import gcd

    vec = [sp.Rational(c) for c in vec]
    den = 1
    for c in vec:
        den = sp.ilcm(den, c.q)
    ints = [int(c * den) for c in vec]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    ints = [c // g for c in ints]
    first = next(c for c in ints if c)
    return tuple(-c for c in ints) if first < 0 else tuple(ints)


def _rational_plane_curve(rng, deg):
    """Irreducible G(u, v) of degree deg with a proper rational
    parametrization: the implicit equation of a random (a(t), b(t))/c(t)."""
    while True:
        a = _upoly(rng, t, deg)
        b = _upoly(rng, t, rng.randint(1, deg))
        c = _upoly(rng, t, deg - 1) if deg >= 2 and rng.random() < 0.3 else sp.Integer(1)
        G = sp.Poly(sp.resultant(a - u * c, b - v * c, t), u, v)
        if G.total_degree() != deg:
            continue
        _, factors = G.factor_list()
        if len(factors) != 1 or factors[0][1] != 1:
            continue
        return factors[0][0].as_expr()


def _homogenize(G, deg):
    return sp.expand(w**deg * G.subs({u: u / w, v: v / w}, simultaneous=True))


def _cone_poly(rng, Gh, apex):
    """Cone with the given apex over the projective curve Gh(u, v, w)."""
    M = _unimodular(rng)
    W = M * sp.Matrix([x - apex[0], y - apex[1], z - apex[2]])
    return sp.expand(Gh.subs({u: W[0], v: W[1], w: W[2]}, simultaneous=True))


def _cylinder_poly(rng, G):
    """Cylinder G(l1(X), l2(X)) and its ruling direction."""
    M = _unimodular(rng)
    shift = [rng.randint(-2, 2) for _ in range(2)]
    W = M * sp.Matrix(XYZ)
    F = sp.expand(G.subs({u: W[0] + shift[0], v: W[1] + shift[1]}, simultaneous=True))
    direction = _primitive(M.inv()[:, 2])
    return F, direction


def _apex(rng):
    return tuple(sp.Integer(rng.randint(-2, 2)) for _ in range(3))


def _fr(point):
    return tuple(Fraction(int(c.p), int(c.q)) for c in point)


# ---------------------------------------------------------------------------
# tangent developables of twisted cubics
# ---------------------------------------------------------------------------


def _tangent_map(rng):
    """Tangent surface c(t) + s*c'(t) of c = M*(t, t^2, t^3) + b, M a signed
    permutation.  A general unimodular M spreads one input's cost over
    0.6-3.5 s, which alone would swamp a pass's seed-to-seed spread."""
    perm = list(range(3))
    rng.shuffle(perm)
    M = sp.zeros(3, 3)
    for i, j in enumerate(perm):
        M[i, j] = rng.choice((-1, 1))
    b = sp.Matrix([rng.randint(-2, 2) for _ in range(3)])
    c = M * sp.Matrix([t, t**2, t**3]) + b
    return [sp.expand(ci + s * sp.diff(ci, t)) for ci in c]


# ---------------------------------------------------------------------------
# ruled maps
# ---------------------------------------------------------------------------


def _space_curve(rng, deg):
    """Random rational space curve with a proper parametrization."""
    while True:
        den = _upoly(rng, t, 1) if rng.random() < 0.3 else sp.Integer(1)
        comps = [_upoly(rng, t, rng.randint(max(1, deg - 1), deg)) / den for _ in range(3)]
        # tracing index 1: the numerators of c(t) - c(w) share only t - w
        g = sp.Integer(0)
        for c in comps:
            g = sp.gcd(g, sp.numer(sp.together(c - c.subs(t, w))))
        if sp.Poly(g, t).degree() == 1:
            return comps


def _span3(vectors) -> bool:
    return sp.Matrix([list(vec) for vec in vectors]).det() != 0


def _curve_points(curve, count):
    """Points of a rational curve at small integer t away from its poles."""
    points = []
    for tv in range(2, 40):
        point = [sp.together(c).subs(t, tv) for c in curve]
        if all(p.is_finite for p in point):
            points.append(point)
            if len(points) == count:
                return points
    raise ValueError("curve has no finite points at small t")


def _cone_map(rng, deg):
    while True:
        apex = _apex(rng)
        curve = _space_curve(rng, deg)
        dirs = [[c - a for c, a in zip(point, apex)] for point in _curve_points(curve, 3)]
        if not _span3(dirs):
            continue
        return [a + s * (c - a) for c, a in zip(curve, apex)], apex


def _cylinder_map(rng, deg):
    while True:
        d = tuple(rng.randint(-2, 2) for _ in range(3))
        if d == (0, 0, 0):
            continue
        curve = _space_curve(rng, deg)
        p0, p1, p2 = _curve_points(curve, 3)
        chords = [[a - b for a, b in zip(p, p0)] for p in (p1, p2)]
        if not _span3(chords + [list(d)]):
            continue
        return [c + s * di for c, di in zip(curve, d)], _primitive(d)


# ---------------------------------------------------------------------------
# non-developable surfaces, certified by an exact evaluation
# ---------------------------------------------------------------------------


def _bordered_hessian_at(F, point) -> sp.Rational:
    P = sp.Poly(F, *XYZ)
    grad = [P.diff(a) for a in XYZ]
    rows = [[g.diff(b).eval(point) for b in XYZ] + [g.eval(point)] for g in grad]
    rows.append([g.eval(point) for g in grad] + [0])
    return sp.Matrix(rows).det()


def _nondegenerate_quadric(rng):
    """[x y z 1] A [x y z 1]^T with det A != 0: a quadric is developable
    only when it is a cone, a cylinder or a plane pair, all with det A = 0."""
    while True:
        A = sp.zeros(4, 4)
        for i in range(4):
            for j in range(i, 4):
                A[i, j] = A[j, i] = rng.randint(-3, 3)
        if A.det() == 0:
            continue
        X = sp.Matrix([x, y, z, 1])
        return sp.expand((X.T * A * X)[0])


def _dense_surface(rng, deg):
    """Dense random F through an integer point p where the bordered
    Hessian K is nonzero: K then does not vanish on F = 0."""
    while True:
        p = tuple(sp.Integer(rng.randint(-2, 2)) for _ in range(3))
        F = 0
        for i in range(deg + 1):
            for j in range(deg + 1 - i):
                for k in range(deg + 1 - i - j):
                    if (i, j, k) != (0, 0, 0) and rng.random() < 0.7:
                        F += rng.randint(-4, 4) * x**i * y**j * z**k
        F = sp.expand(F - F.subs(dict(zip(XYZ, p))))
        if sp.Poly(F, *XYZ).total_degree() != deg:
            continue
        if _bordered_hessian_at(F, p) == 0:
            continue
        # squarefree, so the surface is exactly F = 0
        if any(m > 1 for _, m in sp.Poly(F, *XYZ).sqf_list()[1]):
            continue
        return F


def _general_ruled_map(rng):
    """P0(t) + s*P1(t) with det(P0', P1, P1') nonzero at some t: the ruled
    surface is not developable there."""
    while True:
        p0 = [_upoly(rng, t, rng.randint(1, 2)) for _ in range(3)]
        p1 = [_upoly(rng, t, rng.randint(0, 2)) if rng.random() < 0.8 else sp.Integer(rng.randint(-2, 2)) for _ in range(3)]
        tv = rng.randint(-3, 3)
        cols = [[sp.diff(c, t).subs(t, tv) for c in p0], [c.subs(t, tv) for c in p1], [sp.diff(c, t).subs(t, tv) for c in p1]]
        if not _span3(cols):
            continue
        return [a + s * b for a, b in zip(p0, p1)]


# ---------------------------------------------------------------------------
# developable surfaces over curves with no rational parametrization
# ---------------------------------------------------------------------------

# a*u^2 + b*v^2 + c*w^2 with no rational point: the definite ones have no
# real point; u^2 + v^2 = p*w^2 has none for a prime p = 3 mod 4; and
# u^2 + 2*v^2 = q*w^2 has none for q = 5, 13 (-2 is not a square mod q).
_POINTLESS_CONICS = ((1, 1, 1), (1, 2, 3), (1, 1, -3), (1, 1, -7), (1, 1, -11), (1, 2, -5), (1, 2, -13))


def _smooth_curve(rng, deg):
    """Projective curve with no rational parametrization: a conic with no
    rational point, or a smooth Fermat-type curve of degree >= 3 (genus >= 1)."""
    if deg == 2:
        a, b, c = rng.choice(_POINTLESS_CONICS)
    else:
        a, b, c = (rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(3))
    return a * u**deg + b * v**deg + c * w**deg


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _implicit_roundtrip(rng):
    cases = [
        Case("ref-elliptic-cone", "implicit", refcases.ELLIPTIC_CONE_F, 0, "Conical",
             apex=(Fraction(1, 2), Fraction(1, 3), Fraction(0))),
        Case("ref-quartic-cylinder", "implicit", refcases.QUARTIC_CYLINDER_F, 0, "Cylindrical",
             direction=(1, -1, -1)),
        Case("ref-tangent-quartic", "implicit", refcases.TANGENT_QUARTIC_F, 0, "Tangential"),
    ]
    for i, deg in enumerate((2,) * 18 + (3,) * 4):
        apex = _apex(rng)
        Gh = _homogenize(_rational_plane_curve(rng, deg), deg)
        F = _cone_poly(rng, Gh, apex)
        cases.append(Case(f"cone{deg}-{i}", "implicit", poly_text(F, XYZ), 0, "Conical", apex=_fr(apex)))
    for i in range(8):
        F, d = _cylinder_poly(rng, _rational_plane_curve(rng, 2))
        cases.append(Case(f"cyl2-{i}", "implicit", poly_text(F, XYZ), 0, "Cylindrical", direction=d))
    return cases


def _parametric_roundtrip(rng):
    cases = [
        Case("ref-improper-cone", "parametric", refcases.IMPROPER_CONE_MAP, 0, "Conical",
             apex=(Fraction(1), Fraction(1), Fraction(0))),
        Case("ref-unit-circle-cone", "parametric", refcases.UNIT_CIRCLE_CONE_MAP, 0, "Conical",
             apex=(Fraction(0), Fraction(0), Fraction(0))),
    ]
    for i in range(8):
        comps, apex = _cone_map(rng, 2)
        cases.append(Case(f"cone2-{i}", "parametric", map_text(comps), 0, "Conical", apex=_fr(apex)))
    for i in range(2):
        comps, d = _cylinder_map(rng, 2)
        cases.append(Case(f"cyl2-{i}", "parametric", map_text(comps), 0, "Cylindrical", direction=d))
    cases.append(Case("tangent", "parametric", map_text(_tangent_map(rng)), 0, "Tangential"))
    return cases


def _reject(rng):
    cases = [
        Case("ref-sphere", "implicit", refcases.SPHERE_F, 3, "NotDevelopable"),
        Case("ref-hyperboloid", "implicit", refcases.HYPERBOLOID_F, 3, "NotDevelopable"),
        Case("ref-hyperbolic-paraboloid", "parametric", refcases.HYPERBOLIC_PARABOLOID_MAP, 3, "NotDevelopable"),
        Case("ref-paraboloid", "parametric", refcases.PARABOLOID_MAP, 3, "NotDevelopable"),
    ]
    for i in range(30):
        cases.append(Case(f"quadric-{i}", "implicit", poly_text(_nondegenerate_quadric(rng), XYZ), 3, "NotDevelopable"))
    for i, deg in enumerate((3,) * 18 + (4,) * 18):
        cases.append(Case(f"dense{deg}-{i}", "implicit", poly_text(_dense_surface(rng, deg), XYZ), 3, "NotDevelopable"))
    for i in range(36):
        cases.append(Case(f"ruled-{i}", "parametric", map_text(_general_ruled_map(rng)), 3, "NotDevelopable"))
    return cases


def _unsupported(rng):
    # 12 candidate planes instead of 35: each input still tries and fails on
    # every one, and a 25 s run then holds about 36 verdicts instead of 20,
    # enough for a tail percentile well above the median
    budget = ("--plane-budget", "12")
    cases = []
    for i, deg in enumerate((2,) * 8 + (3,) * 2):
        apex = _apex(rng)
        F = _cone_poly(rng, _smooth_curve(rng, deg), apex)
        cases.append(Case(f"cone{deg}-{i}", "implicit", poly_text(F, XYZ), 2, "Conical", apex=_fr(apex), options=budget))
    for i in range(2):
        F, d = _cylinder_poly(rng, _smooth_curve(rng, 2).subs(w, 1))
        cases.append(Case(f"cyl2-{i}", "implicit", poly_text(F, XYZ), 2, "Cylindrical", direction=d, options=budget))
    return cases


WORKLOADS = {
    "implicit-roundtrip": _implicit_roundtrip,
    "parametric-roundtrip": _parametric_roundtrip,
    "reject": _reject,
    "unsupported": _unsupported,
}


def workload(name: str, seed: int) -> list[Case]:
    """The inputs of one workload; the same (name, seed) gives the same list."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
