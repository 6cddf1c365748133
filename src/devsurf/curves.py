"""Rational parametrization of the plane curves cut out by the analyzers.

Supported families:

* curves linear in one coordinate (graph curves), lines among them,
* degree 2 with a rational point (pencil of lines through the point);
  Legendre's theorem (``arith.legendre``, on exact factorizations from
  ``arith.factor``) decides whether the point exists, a bounded search
  finds it,
* degree d with a rational (d-1)-fold singular point (pencil through it),
* degree 4 whose singular scheme is three double points, not necessarily
  rational individually (conic adjoints through the scheme plus one
  rational simple point).

Every family returns one projective triple [U : V : W] of integer
polynomials in the parameter, with gcd 1 and content 1 and W of positive
leading coefficient: the kept coordinates are U/W and V/W.  The triple is
validated by exact substitution into the curve before it is returned (one
denominator, `ratfunc._form_is_zero`), and its tracing index is
certified on the pairs (U, W) and (V, W): an index of 1
by a gcd of images modulo 2^61 - 1 (`_index_one_image`) when one proves
it, any other by the exact bivariate gcd.  A curve of degree d >= 3
outside the families is certified not rational when it is proven smooth
modulo 2^61 - 1, hence of genus (d-1)(d-2)/2 > 0; a curve singular
modulo that prime (bad reduction included) gets no claim.  That prime is
``arith.modulus(0)``, and the arithmetic mod it is that of ``arith``.
"""

from __future__ import annotations

import math
from itertools import zip_longest
from typing import Iterable, NamedTuple, Optional, Sequence

from .arith import eval_mod, gcd_mod, legendre, modulus, newton_step, res_mod, trim
from .errors import NotRationalError, PointSearchExhaustedError, UnsupportedCurveError
from .linalg import nullspace
from .poly import (
    MultiPoly,
    Q,
    _int_terms,
    _primitive_ints,
    exact_div,
    gcd_many,
    gcd_multi,
    poly_divmod_univar,
    rational_roots,
    resultant,
    squarefree_part,
    subresultant_linear,
)
from .ratfunc import RationalMap3, _cleared, _form_is_zero, _primitive

COORDS = ("x", "y", "z")


class PlaneFrame(NamedTuple):
    """Embedding of a coordinate plane section back into 3-space."""

    plane: MultiPoly          # linear polynomial in x, y, z defining the plane
    kept: tuple[str, str]     # surviving coordinates, canonical order
    solved: str               # coordinate eliminated with the plane equation
    expr: MultiPoly           # linear polynomial in kept giving the solved value


class EdgeFrame(NamedTuple):
    """Lift data for a space curve given by a projection plus one more
    equation that is linear in the remaining coordinate along the curve."""

    relation: MultiPoly       # polynomial in x, y, z, degree 1 in `solved`
    kept: tuple[str, str]
    solved: str


class PlaneCurve(NamedTuple):
    poly: MultiPoly
    frame: object = None      # PlaneFrame | EdgeFrame | None

    @property
    def names(self) -> tuple[str, str]:
        if self.frame is not None:
            return tuple(self.frame.kept)
        vs = self.poly.vars
        if len(vs) == 2:
            return vs
        raise ValueError("plane curve without a frame must use two variables")


class CurveParam(NamedTuple):
    form: tuple[MultiPoly, MultiPoly, MultiPoly]  # [U : V : W], the kept coordinates U/W, V/W
    names: tuple[str, str]
    param: str
    proper: bool
    tracing_index: int
    source: str


# ---------------------------------------------------------------------------
# properness
# ---------------------------------------------------------------------------


def _fresh_name(avoid: Iterable[str]) -> str:
    for cand in ("w", "u", "v", "r", "q"):
        if cand not in avoid:
            return cand
    raise RuntimeError("no fresh variable name available")


# the values w0 that _index_one_image tries, in order
_IMAGE_POINTS = (2, 3, 5, 7, 11, 13)


def _dense(p: MultiPoly, var: str) -> list[int]:
    """Ascending integer coefficients of p, univariate in ``var``."""
    row = [0] * (p.degree_in(var) + 1)
    for e, m in _int_terms(p.terms)[1].items():
        row[e[0] if e else 0] = m
    return row


def _index_one_image(X: Sequence[MultiPoly], W: MultiPoly, var: str) -> bool:
    """True when images modulo 2^61 - 1 of the cross polynomials of the
    pairs (Xi, W) of nonconstant components, univariate in ``var``, prove
    tracing index 1; the certificate and its soundness are in
    `is_proper_curve`."""
    P = modulus(0)
    D = _dense(W, var)
    rows = [_dense(x, var) for x in X]
    for w0 in _IMAGE_POINTS:
        d0 = eval_mod(D, w0, P)
        if not d0:
            continue
        g: list[int] = []
        full = False
        for N in rows:
            n0 = eval_mod(N, w0, P)
            image = trim([(a * d0 - n0 * b) % P for a, b in zip_longest(N, D, fillvalue=0)])
            full = full or len(image) == max(len(N), len(D))
            if image:
                g = gcd_mod(g, image, P)
        return full and len(g) == 2
    return False


def is_proper_curve(form, var: str = "t") -> tuple[bool, int]:
    """Tracing index of a rational curve map, given as a `RationalMap3` or
    as a projective form [X1, ..., Xn, W] with gcd 1; proper means index 1.

    The index is deg_t G, G the gcd over Q[t, w] of the cross polynomials
    C = Xi(t)*W(w) - Xi(w)*W(t) of the pairs (Xi, W) of nonconstant
    components Xi/W (Sendra, Winkler & Perez-Diaz, *Rational Algebraic
    Curves*, 2008, ch. 4); component i is constant exactly when
    Xi*lc(W) = W*lc(Xi).  A pair need not be reduced: Xi = g*n and W = g*d
    give C = g(t)*g(w) times the cross polynomial of n/d, which has no
    factor in t or in w alone, so a factor that every such C gains is a
    factor of every such g, and it would divide all entries.  G is
    therefore that of the reduced components.  A map in ``var`` alone is
    first given a one-sided certificate of index 1 (`_index_one_image`):
    each C is mapped into Z_P[t], P = 2^61 - 1, at the first w = w0 of
    `_IMAGE_POINTS` where W does not vanish mod P.  Take G primitive over
    Z; by Gauss's lemma each C is G*H with H integer, so lc_t(G)(w0)
    divides lc_t(C)(w0) and G(t, w0) mod P divides every image.  When one
    image keeps the full t-degree of its C, lc_t(G)(w0) is a unit mod P
    and G(t, w0) keeps degree deg_t G; an image gcd of degree 1 then
    bounds the index by 1, and t - w, which divides every C, makes it 1.
    A drop in degree, a larger image gcd or no usable w0 proves nothing,
    and every such case, every index above 1 among them, runs the exact
    bivariate gcd.
    """
    if isinstance(form, RationalMap3):
        form = form.form
    *X, W = form
    # unequal supports, the cheap case, already rule out Xi = c*W
    lw = W.leading()[1]
    nonconst = [x for x in X if x and (x.terms.keys() != W.terms.keys() or x * lw != W * x.leading()[1])]
    if not nonconst:
        return False, 0
    used = set(W.vars).union(*(x.vars for x in nonconst))
    if used == {var} and _index_one_image(nonconst, W, var):
        return True, 1
    fresh = _fresh_name(used | {var})
    W2 = W.rename_vars({var: fresh})
    g = MultiPoly.zero()
    for x in nonconst:
        cross = x * W2 - x.rename_vars({var: fresh}) * W
        g = gcd_multi(g, cross)
        if not g.is_zero() and g.degree_in(var) <= 1:
            break
    idx = g.degree_in(var)
    return idx == 1, idx


# ---------------------------------------------------------------------------
# rational point search
# ---------------------------------------------------------------------------


def small_rationals(limit: int):
    """0, 1, -1, 2, -2, 1/2, -1/2, ... enumerated by height, `limit` many."""
    if limit <= 0:
        return
    yield Q(0)
    count = 1
    h = 1
    while count < limit:
        for qden in range(1, h + 1):
            for pnum in range(-h, h + 1):
                if pnum == 0 or max(abs(pnum), qden) != h:
                    continue
                if math.gcd(abs(pnum), qden) != 1:
                    continue
                yield Q(pnum, qden)
                count += 1
                if count >= limit:
                    return
        h += 1


def _is_square(f: Q) -> Optional[Q]:
    if f < 0:
        return None
    rn = math.isqrt(f.numerator)
    rd = math.isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Q(rn, rd)
    return None


def _rational_points(c: MultiPoly, names: tuple[str, str], budget: int):
    """Rational points of c on the lines u = v, then w = v, for v in
    small_rationals(budget): every rational root on each line, or the
    point (v, 0) or (0, v) of a line that lies in c."""
    u, w = names
    for val in small_rationals(budget):
        for sweep_var, other in ((u, w), (w, u)):
            restricted = c.eval_partial({sweep_var: val})
            if restricted.is_zero():
                yield (val, Q(0)) if sweep_var == u else (Q(0), val)
            elif not restricted.is_constant():
                for r in rational_roots(restricted, other):
                    yield (val, r) if sweep_var == u else (r, val)


def rational_point_on_curve(c: MultiPoly, names: tuple[str, str], budget: int = 200):
    """First rational point found by sweeping lines u = const and w = const."""
    return next(_rational_points(c, names, budget), None)


def _conic_matrix(c: MultiPoly, names: tuple[str, str]) -> list[list[Q]]:
    """Symmetric 3x3 matrix of the conic, homogenized in a third coordinate."""
    u, w = names

    a, b, cc, d, e, f = (c.coeff({u: i, w: j}) for i, j in ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)))
    return [
        [a, b / 2, d / 2],
        [b / 2, cc, e / 2],
        [d / 2, e / 2, f],
    ]


def _congruent_diagonal(m: list[list[Q]]) -> Optional[list[Q]]:
    """Diagonal of a form congruent over Q to the symmetric matrix m (row
    and column operations applied in pairs), or None when m is singular."""
    m = [row[:] for row in m]
    n = len(m)

    def add(dst, src, f):
        # row dst += f * row src, then column dst += f * column src
        for k in range(n):
            m[dst][k] += f * m[src][k]
        for k in range(n):
            m[k][dst] += f * m[k][src]

    for i in range(n):
        if m[i][i] == 0:
            j = next((j for j in range(i + 1, n) if m[j][j] != 0), None)
            if j is not None:
                m[i], m[j] = m[j], m[i]
                for row in m:
                    row[i], row[j] = row[j], row[i]
            else:
                # all later diagonal entries are 0 too: adding row/column j
                # makes the pivot 2*m[i][j]
                j = next((j for j in range(i + 1, n) if m[i][j] != 0), None)
                if j is None:
                    return None
                add(i, j, 1)
        for j in range(i + 1, n):
            if m[j][i] != 0:
                add(j, i, -m[j][i] / m[i][i])
    return [m[i][i] for i in range(n)]


def _conic_point_decision(c: MultiPoly, names: tuple[str, str]) -> tuple[Optional[bool], str]:
    """Whether the conic c has a rational point, as `legendre` answers for
    a diagonal form congruent to its matrix; undecided when degenerate."""
    diag = _congruent_diagonal(_conic_matrix(c, names))
    if diag is None:
        return None, "degenerate conic"
    # d x^2 with d = n/q is n*q (x/q)^2
    return legendre(*(int(d.numerator) * int(d.denominator) for d in diag))


# ---------------------------------------------------------------------------
# parametrizers
# ---------------------------------------------------------------------------


def _pick_param(names: Iterable[str]) -> str:
    for cand in ("t", "u", "v", "r"):
        if cand not in names:
            return cand
    raise RuntimeError("no parameter name available")


def _finish(c: MultiPoly, names, form, param, source) -> CurveParam:
    """Reduce a family's triple [U : V : W] to gcd 1, integer content 1 and
    W of positive leading coefficient, certify it on c and compute its
    tracing index, the only time it is computed: every family here is a
    proper pencil by construction, and lifting a plane parametrization to
    space cannot make it improper, so an improper result is an internal
    error."""
    g = gcd_many(form[2:] + form[:2])
    if not g.is_constant():
        form = tuple(exact_div(e, g) for e in form)
    form = tuple(_primitive(list(form)))
    if not _form_is_zero(c, names, form, (param,)):
        raise ArithmeticError("parametrization fails to satisfy its curve")
    proper, idx = is_proper_curve(form, param)
    if not proper:
        raise ArithmeticError(f"plane curve parametrization is improper (tracing index {idx})")
    return CurveParam(form, tuple(names), param, proper, idx, source)


def _parametrize_graph(curve: PlaneCurve, param: Optional[str] = None) -> Optional[CurveParam]:
    """Curves linear in one coordinate: solve it as a rational function of
    the other, free = t and solved = -a0(t)/a1(t) for c = a1*solved + a0."""
    c = curve.poly
    names = curve.names
    u, w = names
    t = param or _pick_param(names)
    for solved, free in ((w, u), (u, w)):
        if c.degree_in(solved) == 1:
            coeffs = c.coeffs_in(solved)
            a1 = coeffs[1].rename_vars({free: t})
            a0 = -coeffs.get(0, MultiPoly.zero()).rename_vars({free: t})
            form = (MultiPoly.var(t) * a1, a0, a1) if free == u else (a0, MultiPoly.var(t) * a1, a1)
            return _finish(c, names, form, t, "plane-section")
    return None


def parametrize_conic(curve: PlaneCurve, budget: int = 200, param: Optional[str] = None) -> CurveParam:
    """Pencil of lines through a rational point of the conic.

    Legendre's theorem first decides whether a nondegenerate conic has a
    rational point; if it has none, NotRationalError names the failed
    condition.  Otherwise the point comes from a search bounded by
    `budget`; PointSearchExhaustedError means the search missed a point
    that provably exists, or that existence was not decided (a degenerate
    conic, or coefficients too large to factor within the bounds)."""
    c = curve.poly
    names = curve.names
    if c.total_degree() != 2:
        raise ValueError("parametrize_conic expects a degree-2 curve")
    u, w = names
    t = param or _pick_param(names)
    has_point, reason = _conic_point_decision(c, names)
    if has_point is False:
        raise NotRationalError(f"conic has no rational point, hence no rational parametrization: {reason}")
    point = rational_point_on_curve(c, names, budget)
    if point is None:
        if has_point:
            raise PointSearchExhaustedError(
                "conic has a rational point (Legendre's theorem), but none was found within the search budget"
            )
        raise PointSearchExhaustedError(
            "conic parametrization over the rationals not found within the search budget"
        )
    form = _pencil(c, names, point, t)
    if form is None:
        # singular rational point: the conic is a pair of lines through it,
        # in the directions where its top form A*u^2 + B*u*w + C*w^2 vanishes
        A, B, C = (c.coeff({u: 2 - j, w: j}) for j in range(3))
        if A == 0:
            direction = (Q(1), Q(0))
        else:
            disc = _is_square(B * B - 4 * A * C)
            if disc is None:
                raise NotRationalError("conic splits into conjugate lines; only one rational point")
            direction = ((-B + disc) / (2 * A), Q(1))
        tv = MultiPoly.var(t)
        form = tuple(MultiPoly.const(p) + tv * dv for p, dv in zip(point, direction)) + (MultiPoly.const(1),)
    return _finish(c, names, form, t, "plane-section")


def _pencil(c: MultiPoly, names, point, t: str) -> Optional[tuple[MultiPoly, MultiPoly, MultiPoly]]:
    """The lines u = p1 + lam, w = p2 + lam*t through a point of
    multiplicity d - 1 (at least) on the degree-d curve c, each cut with c
    once more: at lam = -b(t)/a(t), where b and a are the forms of degree
    d - 1 and d of c shifted to the point, at (1, t), as the triple
    [p1*a - b : p2*a - b*t : a].  None when b is 0: then c is a union of
    lines through the point."""
    u, w = names
    d = c.total_degree()
    p1, p2 = point
    sh = c.subs_poly({u: MultiPoly.var(u) + p1, w: MultiPoly.var(w) + p2})
    forms: dict[int, dict[tuple[int], Q]] = {d - 1: {}, d: {}}
    for exps, cf in sh.terms.items():
        e = dict(zip(sh.vars, exps))
        i, j = e.get(u, 0), e.get(w, 0)
        if i + j in forms:
            forms[i + j][(j,)] = cf
    if not forms[d - 1]:
        return None
    b, a = MultiPoly((t,), forms[d - 1]), MultiPoly((t,), forms[d])
    return a * p1 - b, a * p2 - b * MultiPoly.var(t), a


def _solve_two_var_system(polys: Sequence[MultiPoly], names: tuple[str, str]) -> list[tuple[Q, Q]]:
    """Rational common zeros of a zero-dimensional system in two variables."""
    u, w = names
    ps = [p for p in polys if not p.is_zero()]
    if any(p.is_constant() for p in ps):
        return []
    with_w = [p for p in ps if p.degree_in(w) > 0]
    u_candidates: Optional[list[Q]] = None
    if len(with_w) >= 2:
        for i in range(len(with_w)):
            for j in range(i + 1, len(with_w)):
                r = resultant(with_w[i], with_w[j], w)
                if r.is_zero():
                    continue
                if r.is_constant():
                    return []
                u_candidates = rational_roots(r, u)
                break
            if u_candidates is not None:
                break
    if u_candidates is None:
        w_free = [p for p in ps if p.degree_in(w) == 0]
        if not w_free:
            return []
        u_candidates = rational_roots(w_free[0], u)
    points = []
    for u0 in u_candidates:
        w_roots: Optional[list[Q]] = None
        for p in ps:
            restricted = p.eval_partial({u: u0})
            if restricted.is_zero():
                continue
            if restricted.is_constant():
                w_roots = []
                break
            if restricted.degree_in(w) > 0:
                roots = rational_roots(restricted, w)
                w_roots = roots if w_roots is None else [r for r in w_roots if r in roots]
                if not w_roots:
                    break
        for w0 in w_roots or []:
            if all(p.eval_all({u: u0, w: w0}) == 0 for p in ps):
                points.append((u0, w0))
    return points


def _multiplicity_at_least(c: MultiPoly, names, point, m: int) -> bool:
    u, w = names
    shifted = c.subs_poly(
        {u: MultiPoly.var(u) + point[0], w: MultiPoly.var(w) + point[1]}
    )
    if shifted.is_zero():
        return True
    return min(sum(e) for e in shifted.terms) >= m


def _fold_point_pencil(c: MultiPoly, names, t: str):
    """Pencil-of-lines parametrization through a rational (d-1)-fold point,
    or None when no such affine point exists."""
    u, w = names
    d = c.total_degree()
    order = d - 2
    partials = []
    for i in range(order + 1):
        p = c
        for _ in range(i):
            p = p.derivative(u)
        for _ in range(order - i):
            p = p.derivative(w)
        if not p.is_zero():
            partials.append(p)
    if any(p.is_constant() for p in partials):
        return None
    point = None
    for cand in _solve_two_var_system(partials, names):
        if _multiplicity_at_least(c, names, cand, d - 1):
            point = cand
            break
    if point is None:
        return None

    form = _pencil(c, names, point, t)
    if form is None:
        raise UnsupportedCurveError("curve is a cone of lines through its singular point")
    return form


def _homogenize(c: MultiPoly, names, hname: str) -> MultiPoly:
    u, w = names
    d = c.total_degree()
    terms = {}
    for exps, cf in c.terms.items():
        e = dict(zip(c.vars, exps))
        i, j = e.get(u, 0), e.get(w, 0)
        terms[(i, j, d - i - j)] = cf
    return MultiPoly((u, w, hname), terms)


def parametrize_monomial_like(curve: PlaneCurve, param: Optional[str] = None) -> CurveParam:
    """Degree-d curve with a rational (d-1)-fold point, parametrized by the
    pencil of lines through that point.  The point may sit at infinity:
    the other standard projective charts are searched as well."""
    c = curve.poly
    names = curve.names
    u, w = names
    d = c.total_degree()
    if d < 3:
        raise ValueError("parametrize_monomial_like expects degree >= 3")
    t = param or _pick_param(names)

    form = _fold_point_pencil(c, names, t)
    if form is not None:
        return _finish(c, names, form, t, "plane-section")

    # the fold point may be at infinity; look in the other two charts
    hname = _fresh_name(set(names) | {t})
    hom = _homogenize(c, names, hname)
    for chart in ("w", "u"):
        if chart == "w":
            # chart coords (a, b) = (u/w, h/w), reusing the (u, w) slots
            cc = hom.eval_partial({w: Q(1)}).rename_vars({hname: w})
        else:
            # chart coords (a, b) = (w/u, h/u)
            cc = hom.eval_partial({u: Q(1)}).rename_vars({w: u, hname: w})
        if cc.is_zero() or cc.is_constant() or cc.total_degree() < 3:
            continue
        cc = squarefree_part(cc)
        if cc.total_degree() < 3:
            continue
        chart_form = _fold_point_pencil(cc, names, t)
        if chart_form is None:
            continue
        A, B, C = chart_form  # (a, b) = (A/C, B/C)
        if B.is_zero():
            continue
        # (a, b) = (u/w, h/w) gives u = a/b, w = 1/b; (w/u, h/u) gives
        # u = 1/b, w = a/b
        back = (A, C, B) if chart == "w" else (C, A, B)
        return _finish(c, names, back, t, "plane-section")
    raise UnsupportedCurveError("no rational (d-1)-fold singular point found")


def _scheme_eliminant(c, cu, cw, elim_var, keep_var):
    """Squarefree eliminant of the singular scheme in keep_var; the
    constant 1 when the scheme has no affine point, None when the
    elimination decides nothing.  Each resultant lies in the ideal of its
    pair, so it vanishes at the keep_var-coordinate of every affine
    singular point: at least two nonzero ones with a constant gcd prove
    there is none."""
    rs = []
    for a, b in ((cu, cw), (c, cu), (c, cw)):
        if a.degree_in(elim_var) == 0 and b.degree_in(elim_var) == 0:
            continue
        try:
            r = resultant(a, b, elim_var)
        except ValueError:
            continue
        if not r.is_zero():
            rs.append(squarefree_part(r))
    if len(rs) < 2:
        return None
    g = gcd_many(rs)
    if g.is_constant():
        return MultiPoly.const(1)
    if g.degree_in(keep_var) != g.total_degree():
        return None
    return squarefree_part(g)


def parametrize_quartic_adjoint(
    curve: PlaneCurve, budget: int = 200, param: Optional[str] = None
) -> CurveParam:
    """Rational quartic whose singular scheme is three double points
    (possibly conjugate): parametrize by the pencil of adjoint conics
    through the scheme and one rational simple point."""
    c0 = curve.poly
    names = curve.names
    if c0.total_degree() != 4:
        raise ValueError("parametrize_quartic_adjoint expects a quartic")
    u, w = names
    t = param or _pick_param(names)
    tv = MultiPoly.var(t)

    last_err = UnsupportedCurveError("quartic adjoint construction failed")
    for k in range(4):
        c = c0 if k == 0 else c0.subs_poly({u: MultiPoly.var(u) + k * MultiPoly.var(w)})
        cu, cw = c.derivative(u), c.derivative(w)
        if cu.is_zero() or cw.is_zero():
            continue
        g = _scheme_eliminant(c, cu, cw, w, u)
        gw = _scheme_eliminant(c, cu, cw, u, w)
        if any(e is not None and e.is_constant() for e in (g, gw)):
            # a shear u -> u + k*w maps affine singular points one to one,
            # so no other shear finds any either
            raise last_err
        if g is None or gw is None or g.total_degree() != 3 or gw.total_degree() != 3:
            continue

        # linear expression for w on the scheme: a(u) * w + b(u)
        rel = None
        for pa, pb in ((cu, cw), (c, cu), (c, cw)):
            s1 = subresultant_linear(pa, pb, w)
            if s1 is None:
                continue
            a, b = s1
            if a.is_zero():
                continue
            if set(a.vars) <= {u} and set(b.vars) <= {u} and gcd_multi(a, g).is_constant():
                rel = (a, b)
                break
        if rel is None:
            continue
        a, b = rel

        # adjoint conics: q(u, w) vanishing on the scheme.  Substituting
        # w = -b/a and clearing a^2 turns each conic monomial into a
        # univariate polynomial; its remainder mod g gives three linear
        # conditions on the six coefficients.
        monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        rows = [[Q(0)] * 6 for _ in range(3)]
        for col, (i, j) in enumerate(monos):
            contrib = MultiPoly.var(u) ** i * (-b) ** j * a ** (2 - j)
            if contrib.is_zero():
                continue
            _, rem = poly_divmod_univar(contrib, g, u)
            for kk, vv in rem.coeffs_in(u).items():
                rows[kk][col] = vv.constant_value()
        basis = nullspace(rows, 6)
        if len(basis) != 3:
            continue
        net = []
        for vec in basis:
            terms = {}
            for (i, j), cf in zip(monos, vec):
                if cf:
                    terms[(i, j)] = cf
            net.append(MultiPoly((u, w), terms))

        # one rational simple point on the curve cuts the net to a pencil
        point = next(
            (
                p
                for p in _rational_points(c, (u, w), budget)
                if any(g.eval_all({u: p[0], w: p[1]}) for g in (cu, cw))
            ),
            None,
        )
        if point is None:
            last_err = PointSearchExhaustedError(
                "no rational simple point found on the quartic within the search budget"
            )
            continue
        p1, p2 = point
        vals = [q.eval_all({u: p1, w: p2}) for q in net]
        pencil_vecs = nullspace([vals], 3)
        if len(pencil_vecs) != 2:
            continue
        Q0 = sum((net[i] * pencil_vecs[0][i] for i in range(3)), MultiPoly.zero())
        Q1 = sum((net[i] * pencil_vecs[1][i] for i in range(3)), MultiPoly.zero())
        Qt = Q0 + Q1 * tv

        form = _pencil_residual(c, Qt, (u, w), g, gw, (p1, p2), t)
        if form is None:
            continue
        U, V, W = form
        return _finish(c0, names, (U + V * k, V, W), t, "plane-section")
    raise last_err


def _pencil_residual(c, Qt, names, g, gw, point, t):
    """Residual intersection point (-A0/A1, -B0/B1) of the adjoint pencil
    with the quartic, as the triple [-A0*B1 : -B0*A1 : A1*B1]."""
    u, w = names
    p1, p2 = point
    try:
        Ru = resultant(c, Qt, w)
    except ValueError:
        return None
    known = g * g * (MultiPoly.var(u) - p1)
    lin = exact_div(Ru, known)
    if lin is None or lin.degree_in(u) != 1:
        return None
    lu = lin.coeffs_in(u)
    A1, A0 = lu[1], lu.get(0, MultiPoly.zero())
    if A1.is_zero():
        return None
    try:
        Rw = resultant(c, Qt, u)
    except ValueError:
        return None
    known_w = gw * gw * (MultiPoly.var(w) - p2)
    lin_w = exact_div(Rw, known_w)
    if lin_w is None or lin_w.degree_in(w) != 1:
        return None
    lw = lin_w.coeffs_in(w)
    B1, B0 = lw[1], lw.get(0, MultiPoly.zero())
    if B1.is_zero():
        return None
    return -A0 * B1, -B0 * A1, A1 * B1


# the projective changes u -> u + a*h, w -> w + b*h that _smooth_genus tries
_SHIFTS = ((0, 0), (1, 0), (0, 1), (1, 1), (2, -1), (-1, 3))


def _smooth_genus(c: MultiPoly, names) -> Optional[int]:
    """Genus (d-1)(d-2)/2 of the plane curve c of degree d >= 3 when its
    projective closure is proven smooth, else None.  A smooth plane curve
    is irreducible of that genus, so it has no rational parametrization
    (Sendra, Winkler & Perez-Diaz, *Rational Algebraic Curves*, 2008, ch. 3).

    The certificate works modulo P = `modulus(0)` = 2^61 - 1, and once
    more modulo P = `modulus(1)` when that makes no claim; it is one-sided.  Let
    F(u, w, h) be the homogenized integer primitive form of c.  A singular
    point of F over the algebraic closure of Q is a common zero of F_u,
    F_w and F_h (Euler's relation), and it reduces to a common zero of
    their images mod P: scale its coordinates to be integral at a prime
    over P, one of them a unit.  So it suffices that the images have no
    common zero.  After a shift u -> u + a*h, w -> w + b*h from _SHIFTS
    that keeps the h^(d-1) coefficient of each partial G_u, G_w, G_h
    nonzero mod P, (0 : 0 : 1) is on no partial, and Res_h of two partials
    is a form of degree (d-1)^2 in (u, w) vanishing exactly where they
    share a zero.  At w = 1, R1 = Res_h(G_u, G_w) and R2 = Res_h(G_u, G_h)
    are interpolated together from (d-1)^2 + 1 values, each by Euclid mod
    P.  When either has degree (d-1)^2, no common zero lies on w = 0, and
    then a constant gcd(R1, R2) leaves none at w = 1.  A zero resultant, or two of
    lower degree (both vanish at (1 : 0)), tries the next shift, and a
    nonconstant gcd the next modulus.  A curve whose images mod both are
    singular gets no claim though it may be smooth over Q (bad reduction:
    w^2 - u^3 - N*u - N is cuspidal mod every prime factor of N)."""
    u, w = names
    d = c.total_degree()
    n = (d - 1) ** 2
    F = {}  # (i, j) -> coefficient of u^i w^j h^(d-i-j)
    for e, m in _primitive_ints(c.terms)[1].items():
        x = dict(zip(c.vars, e))
        F[x.get(u, 0), x.get(w, 0)] = m
    for P in (modulus(0), modulus(1)):
        for a, b in _SHIFTS:
            G: dict[tuple[int, int], int] = {}
            for (i, j), m in F.items():
                for p in range(i + 1):
                    cu = m * math.comb(i, p) * a ** (i - p)
                    for q in range(j + 1):
                        G[p, q] = (G.get((p, q), 0) + cu * math.comb(j, q) * b ** (j - q)) % P
            # G_u, G_w, G_h at w = 1, as rows of u-coefficients by power of h
            tables = [[[0] * d for _ in range(d)] for _ in range(3)]
            for (i, j), g in G.items():
                k = d - i - j
                if i:
                    tables[0][k][i - 1] += i * g
                if j:
                    tables[1][k][i] += j * g
                if k:
                    tables[2][k - 1][i] += k * g
            if not all(t[d - 1][0] % P for t in tables):
                continue
            interp: dict[int, list[int]] = {}  # R1 and R2 as keys 0 and 1
            node = [1]
            for x in range(n + 1):
                gu, gw, gh = ([eval_mod(row, x, P) for row in t] for t in tables)
                node = newton_step(interp, node, x, {0: res_mod(gu, gw, P), 1: res_mod(gu, gh, P)}, P)
            R1, R2 = interp.get(0, []), interp.get(1, [])
            if not R1 or not R2 or len(R1) <= n and len(R2) <= n:
                continue
            if len(gcd_mod(R1, R2, P)) == 1:
                return (d - 1) * (d - 2) // 2
            break
    return None


def parametrize_plane_curve(
    curve: PlaneCurve, budget: int = 200, param: Optional[str] = None
) -> CurveParam:
    """Dispatch a plane curve to the supported parametrization families.
    When all fail on a curve of degree d >= 3, one proven smooth by
    `_smooth_genus` raises NotRationalError; any other keeps their error."""
    c = curve.poly
    if c.is_zero() or c.is_constant():
        raise ValueError("not a curve")
    d = c.total_degree()
    graph = _parametrize_graph(curve, param)
    if graph is not None:
        return graph
    if d == 2:
        return parametrize_conic(curve, budget, param)
    try:
        try:
            return parametrize_monomial_like(curve, param)
        except UnsupportedCurveError as err:
            if d == 4:
                return parametrize_quartic_adjoint(curve, budget, param)
            raise UnsupportedCurveError(
                f"degree-{d} curve outside the supported families: {err}"
            ) from err
    except (UnsupportedCurveError, PointSearchExhaustedError) as err:
        genus = _smooth_genus(c, curve.names)
        if genus is None:
            raise
        raise NotRationalError(f"smooth plane curve of degree {d}, genus {genus}") from err


# ---------------------------------------------------------------------------
# plane sections of implicit surfaces, and lifts back to space
# ---------------------------------------------------------------------------


# candidate section planes n.(x, y, z) + b with their integer normals n and
# constants b, in sweep order: x, y, z, x - z, x + y + z = c for each c;
# each is made from its terms, and _make drops zero terms and unused variables
_PLANES = tuple(
    (MultiPoly._make(COORDS, {(0, 0, 0): -c, (1, 0, 0): n[0], (0, 1, 0): n[1], (0, 0, 1): n[2]}), n, -c)
    for c in (0, 1, -1, 2, -2, 3, -3)
    for n in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, -1), (1, 1, 1))
)


def plane_candidates(budget: int = 35) -> tuple[tuple[MultiPoly, tuple[int, int, int], int], ...]:
    """The first `budget` candidate section planes n.x + b = 0 as triples
    (plane, n, b) of ints, at least one and at most 35."""
    return _PLANES[: max(budget, 1)]


def plane_frame(plane: MultiPoly) -> PlaneFrame:
    """Solve a linear plane equation for one coordinate."""
    if plane.total_degree() != 1:
        raise ValueError("plane must be a degree-1 polynomial")
    coeffs = {v: plane.derivative(v).constant_value() for v in plane.vars}
    solved = None
    for cand in ("z", "y", "x"):
        if coeffs.get(cand):
            solved = cand
            break
    if solved is None:
        raise ValueError("plane equation involves no coordinate")
    kept = tuple(n for n in COORDS if n != solved)
    rest = plane - plane.coeffs_in(solved)[1] * MultiPoly.var(solved)
    expr = rest * (-1 / coeffs[solved])
    return PlaneFrame(plane=plane, kept=kept, solved=solved, expr=expr)


def section_implicit(F: MultiPoly, plane: MultiPoly) -> Optional[PlaneCurve]:
    """Squarefree section curve of F = 0 by a plane, or None when the
    section is empty or the plane lies inside the surface."""
    frame = plane_frame(plane)
    section = F.subs_poly({frame.solved: frame.expr})
    if section.is_zero() or section.is_constant():
        return None
    return PlaneCurve(squarefree_part(section), frame)


def lift_to_space(cp: CurveParam, frame) -> RationalMap3:
    """Lift an in-plane parametrization [U : V : W] back to a space curve.
    A plane frame gives the solved coordinate as a linear form in U, V
    and W, and the lift keeps gcd 1.  An edge relation a1*x + a0, cleared
    over one power of W to A1 and A0, gives x = -A0/A1 and the lift
    [U*A1 : V*A1 : -A0*W : W*A1], divided by its gcd."""
    U, V, W = cp.form
    values = dict(zip(cp.names, (U, V)))
    if isinstance(frame, PlaneFrame):
        e = frame.expr
        values[frame.solved] = sum((values[v] * e.coeff({v: 1}) for v in e.vars), W * e.coeff({}))
        return RationalMap3.from_form([values[n] for n in COORDS] + [W], (cp.param,), _reduced=True)
    if not isinstance(frame, EdgeFrame):
        raise TypeError("unknown frame type")
    rel = frame.relation
    if rel.degree_in(frame.solved) != 1:
        raise UnsupportedCurveError("lift relation is not linear in the remaining coordinate")
    coeffs = rel.coeffs_in(frame.solved)
    a1, a0 = coeffs[1], coeffs.get(0, MultiPoly.zero())
    pairs = {v: (values[v], W) for v in cp.names}
    caps = {v: max(a1.degree_in(v), a0.degree_in(v)) for v in cp.names}
    A1, A0 = _cleared(a1, pairs, caps), _cleared(a0, pairs, caps)
    if A1.is_zero():
        raise UnsupportedCurveError("lift relation degenerates along the curve")
    values = {n: x * A1 for n, x in values.items()}
    values[frame.solved] = -A0 * W
    return RationalMap3.from_form([values[n] for n in COORDS] + [W * A1], (cp.param,))
