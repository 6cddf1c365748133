"""Assembly, verification and implicitization of standard-form ruled
parametrizations P(s, t) = P0(t) + s * P1(t).

Implicitization is one exact construction: the μ-basis of the planes
that contain the rulings, then a single Sylvester resultant in t."""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .errors import DevsurfError
from .linalg import _rref, coefficient_rows, nullspace
from .poly import MultiPoly, Q, exact_div, gcd_many, gcd_multi, resultant, squarefree_part
from .ratfunc import RatFunc, RationalMap3, cross3, dot3, substitute_map_is_zero
from .curves import COORDS

CONICAL = "Conical"
CYLINDRICAL = "Cylindrical"
TANGENTIAL = "Tangential"


class ParamResult(NamedTuple):
    """Standard-form ruled parametrization with its verification state."""

    p0: RationalMap3            # directrix, parameter t
    p1: RationalMap3            # ruling direction field, parameter t
    kind: str
    verified: bool = False
    certificate: str = ""
    refined: bool = False       # after refinement p1 need not be p0' for tangential

    def full_map(self) -> RationalMap3:
        """P0 + s*P1 = X/W + s*Y/V on the forms, over the lcm of W and V."""
        *X, W = self.p0.form
        *Y, V = self.p1.form
        s = MultiPoly.var("s")
        # over L = lcm(W, V) = W*V/G: an irreducible factor of L divides W
        # or V to its full power in L, and then not all of X or not all of
        # Y, as gcd(X, W) = gcd(Y, V) = 1.  All are in t, so that factor
        # misses the coefficient of s^0 or of s^1 in some entry: the form
        # is reduced
        G = gcd_multi(W, V)
        Wq, Vq = exact_div(W, G), exact_div(V, G)
        comps = tuple(a + s * b for a, b in zip(self.p0.components, self.p1.components))
        return RationalMap3.from_form(
            [x * Vq + s * y * Wq for x, y in zip(X, Y)] + [Wq * V], ("s", "t"), _reduced=True, _components=comps
        )

    def with_verification(self, certificate: str) -> "ParamResult":
        return self._replace(verified=True, certificate=certificate)


def ruling_triple_product(p0: RationalMap3, p1: RationalMap3) -> RatFunc:
    """Developability form of a ruled surface P0 + s*P1: the triple product
    of P0', P1 and P1'.  Identically zero exactly for developable ruled
    surfaces."""
    d0 = p0.derivative("t")
    d1 = p1.derivative("t")
    return dot3(cross3(d0.components, p1.components), d1.components)


def build_conical(apex: Sequence, curve: RationalMap3) -> ParamResult:
    """Cone over a directrix: P(s,t) = (1-s)*apex + s*curve(t).

    Both checks run on the stored form curve = X/W.  With n = X - a*W,
    gcd(n, W) = gcd(X, W) = 1, so the curve meets the apex a exactly at the
    common roots of n (everywhere when n = 0).  And p1 x curve' =
    (n x n')/W^2 for p1 = n/W, so the cone degenerates iff n x n' == 0."""
    apex = tuple(Q(a) for a in apex)
    *X, W = curve.form
    n = [x - a * W for x, a in zip(X, apex)]
    g = gcd_many(n)
    if g.is_zero() or g.degree_in("t") > 0:
        raise DevsurfError("directrix passes through the apex")
    if all(c.is_zero() for c in cross3(n, [c.derivative("t") for c in n])):
        raise DevsurfError("cone degenerates: directrix runs along a single ruling")
    # gcd(n, W) = gcd(X, W) = 1, and n_i/W reduces as X_i/W does
    comps = tuple(c - a for c, a in zip(curve.components, apex))
    p1 = RationalMap3.from_form(n + [W], curve.params, _reduced=True, _components=comps)
    return ParamResult(p0=RationalMap3.constant(apex, ("t",)), p1=p1, kind=CONICAL)


def build_cylindrical(direction: Sequence, curve: RationalMap3) -> ParamResult:
    """Cylinder over a directrix: P(s,t) = curve(t) + s*direction.  With
    curve = X/W, curve' = (X'W - XW')/W^2, so the cylinder degenerates iff
    (X'W - XW') x v == 0."""
    dvec = tuple(Q(d) for d in direction)
    if all(d == 0 for d in dvec):
        raise DevsurfError("ruling direction is zero")
    *X, W = curve.form
    dW = W.derivative("t")
    tangent = [x.derivative("t") * W - x * dW for x in X]
    if all(c.is_zero() for c in cross3(tangent, dvec)):
        raise DevsurfError("cylinder degenerates: directrix is parallel to the rulings")
    return ParamResult(p0=curve, p1=RationalMap3.constant(dvec, ("t",)), kind=CYLINDRICAL)


def build_tangential(edge: RationalMap3) -> ParamResult:
    """Tangent developable of a space curve: P(s,t) = edge(t) + s*edge'(t)."""
    if edge.is_constant():
        raise DevsurfError("edge curve is constant")
    if affine_plane(edge) is not None:
        raise DevsurfError("edge curve is planar; its tangent surface is just that plane")
    return ParamResult(p0=edge, p1=edge.derivative("t"), kind=TANGENTIAL)


# ---------------------------------------------------------------------------
# planes and implicitization
# ---------------------------------------------------------------------------


def affine_plane(m: RationalMap3) -> Optional[MultiPoly]:
    """A plane a.x + b = 0 that contains the whole image of m = X/W,
    normalized, or None when there is none: (a, b) is the first nullspace
    vector of the coefficient matrix of the identity a.X + b*W == 0.  As W
    is not 0, a is not 0."""
    basis = nullspace(coefficient_rows(m.form, m.params), 4)
    if not basis:
        return None
    a = basis[0]
    return sum((MultiPoly.var(n) * v for n, v in zip(COORDS, a)), MultiPoly.const(a[3])).normalized()


def _moving_planes(points: Sequence[Sequence[MultiPoly]], d: int) -> list[list[Q]]:
    """Basis of the moving planes L(t) of degree <= d with L(t).V(t) == 0
    identically for every homogeneous point V; entry 4*k + i of a vector
    is the coefficient of t^k in L_i."""
    rows = []
    for V in points:
        # each entry is a polynomial in t alone, so sum(e) is its exponent
        coeffs = [{sum(e): c for e, c in v.terms.items()} for v in V]
        top = d + max(max(c, default=0) for c in coeffs)
        rows.extend([c.get(m - k, 0) for k in range(d + 1) for c in coeffs] for m in range(top + 1))
    return nullspace(rows, 4 * (d + 1))


def _plane_poly(vec: Sequence[Q]) -> MultiPoly:
    """L(t).(x, y, z, 1) for a coefficient vector of _moving_planes."""
    terms = {}
    for idx, c in enumerate(vec):
        k, i = divmod(idx, 4)
        terms[(k,) + tuple(int(i == j) for j in range(3))] = c
    return MultiPoly(("t",) + COORDS, terms)


def implicitize_ruled(p: ParamResult) -> MultiPoly:
    """Implicit equation of a standard-form ruled surface, squarefree and
    normalized, from the μ-basis of its moving planes (Chen, Zheng &
    Sederberg, "The μ-basis of a rational ruled surface", CAGD 18, 2001).

    The ruling at t joins A(t), the point P0 in homogeneous coordinates,
    to B(t), the direction P1 as a point at infinity.  The planes L(t)
    with L.A == L.B == 0 form a free Q[t]-module of rank 2; its basis
    p, q of least degrees mu <= nu is read off exact nullspaces, degree by
    degree.  With X = (x, y, z, 1), Res_t(p.X, q.X) -- a Sylvester
    determinant of size mu + nu with entries linear in x, y, z -- is F^k
    for the tracing index k of the map, so its squarefree part is F.

    Raises DevsurfError when the rulings do not sweep a surface.
    """
    # the direction P1 = Y/V as the point (Y : 0) at infinity
    *Y, _ = p.p1.form
    g = gcd_many(Y)
    lines = [p.p0.form, [y if g.is_zero() else exact_div(y, g) for y in Y] + [MultiPoly.zero()]]
    bound = sum(max(e.degree_in("t") for e in v) for v in lines)  # mu + nu <= bound
    found: list[tuple[int, list[Q]]] = []  # (degree, coefficient vector)
    for d in range(bound + 1):
        null = _moving_planes(lines, d)
        # the planes t^k * b of degree <= d for the basis vectors b so far
        span = [[0] * (4 * k) + v + [0] * (4 * (d - e - k)) for e, v in found for k in range(d - e + 1)]
        if len(found) + len(null) - len(span) > 2:
            raise DevsurfError("the rulings do not sweep a surface: more than two independent moving planes")
        for v in null:
            if len(found) < 2 and len(_rref(span + [v])[1]) > len(span):
                found.append((d, v))
                span.append(v)
        if len(found) == 2:
            break
    else:  # rank 2 puts nu <= bound, so this is an internal fault
        raise ArithmeticError("μ-basis search passed its degree bound")
    (_, pv), (nu, qv) = found
    if nu == 0:
        raise DevsurfError("the rulings all lie on one line; the map does not sweep a surface")
    F = resultant(_plane_poly(pv), _plane_poly(qv), "t")
    if F.is_constant():
        raise DevsurfError("the moving planes have a constant resultant; the map does not sweep a surface")
    return squarefree_part(F)


def verify_on_surface(p: ParamResult, F: MultiPoly) -> bool:
    """Exact substitution check: P(s, t) = p0(t) + s*p1(t) satisfies F
    identically.  For a cone (p0 = a constant), Euler's identity
    sum (x_i - a_i)*F_i == deg F * F makes F(a + x) homogeneous, so
    F(P) = s^deg F * F(a + p1(t)); for a cylinder (p1 = v constant),
    v.grad F == 0 gives F(P) = F(p0(t)).  Either is then certified in t
    alone, and fails when its identity fails; any other map is certified
    on the two-parameter grid."""
    if not (p.p0.is_constant() or p.p1.is_constant()):
        return substitute_map_is_zero(F, p.full_map())
    grads = [F.derivative(n) for n in COORDS]
    if p.p0.is_constant():
        *A, c = (e.constant_value() for e in p.p0.form)
        a = [ai / c for ai in A]
        identity = sum(((MultiPoly.var(n) - ai) * g for n, ai, g in zip(COORDS, a, grads)), F * -F.total_degree())
        *Y, V = p.p1.form
        curve = RationalMap3.from_form([y + ai * V for ai, y in zip(a, Y)] + [V], ("t",), _reduced=True)
    else:
        identity = dot3(p.p1.form[:3], grads)
        curve = p.p0
    return identity.is_zero() and substitute_map_is_zero(F, curve)


# ---------------------------------------------------------------------------
# directrix degree reduction
# ---------------------------------------------------------------------------


def _map_degree(comps) -> int:
    return max(max(c.num.degree_in("t"), c.den.degree_in("t")) for c in comps)


def reduce_directrix(p: ParamResult) -> ParamResult:
    """Slide the directrix along the rulings, p0 -> p0 + q(t)*p1, choosing
    q by polynomial division to shrink component degrees.  The surface is
    unchanged; only the base curve moves.  A cone's p0 is its apex, of
    degree 0, which no candidate can undercut, so it returns p at once."""
    best = p.p0.components
    best_deg = _map_degree(best)
    if best_deg == 0:
        return p
    changed = True
    while changed:
        changed = False
        for i in range(3):
            c0 = best[i]
            c1 = p.p1.components[i]
            if c1.is_zero() or c0.is_zero():
                continue
            ratio = c0 / c1
            if ratio.is_constant():
                q = ratio
            else:
                qpoly = ratio.polynomial_part("t")
                if qpoly.is_zero():
                    continue
                q = RatFunc(qpoly)
            cand = tuple(a - q * b for a, b in zip(best, p.p1.components))
            d = _map_degree(cand)
            if d < best_deg:
                best, best_deg, changed = cand, d, True
    if best == p.p0.components:
        return p
    return ParamResult(p0=RationalMap3(best, p.p0.params), p1=p.p1, kind=p.kind, refined=True)
