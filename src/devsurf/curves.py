"""Rational parametrization of the plane curves cut out by the analyzers.

Supported families:

* curves linear in one coordinate (graph curves), lines among them,
* degree 2 with a rational point (pencil of lines through the point);
  Legendre's theorem decides whether the point exists, a bounded search
  finds it,
* degree d with a rational (d-1)-fold singular point (pencil through it),
* degree 4 whose singular scheme is three double points, not necessarily
  rational individually (conic adjoints through the scheme plus one
  rational simple point).

Every parametrization is validated by exact substitution into the curve
before it is returned, and its tracing index is computed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import NotRationalError, PointSearchExhaustedError, UnsupportedCurveError
from .linalg import nullspace
from .poly import (
    MultiPoly,
    Q,
    exact_div,
    gcd_many,
    gcd_multi,
    poly_divmod_univar,
    rational_roots,
    resultant,
    squarefree_part,
    subresultant_linear,
)
from .ratfunc import RatFunc, RationalMap3, compose_is_zero, substitute

COORDS = ("x", "y", "z")


@dataclass(frozen=True)
class PlaneFrame:
    """Embedding of a coordinate plane section back into 3-space."""

    plane: MultiPoly          # linear polynomial in x, y, z defining the plane
    kept: tuple[str, str]     # surviving coordinates, canonical order
    solved: str               # coordinate eliminated with the plane equation
    expr: MultiPoly           # linear polynomial in kept giving the solved value


@dataclass(frozen=True)
class EdgeFrame:
    """Lift data for a space curve given by a projection plus one more
    equation that is linear in the remaining coordinate along the curve."""

    relation: MultiPoly       # polynomial in x, y, z, degree 1 in `solved`
    kept: tuple[str, str]
    solved: str


@dataclass(frozen=True)
class PlaneCurve:
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


@dataclass(frozen=True)
class CurveParam:
    components: tuple[RatFunc, RatFunc]   # values of the two kept coordinates
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


def is_proper_curve(components, var: str = "t") -> tuple[bool, int]:
    """Tracing index of a rational curve map; proper means index 1.

    The index is the degree in ``var`` of the gcd of the numerators of
    p_i(var) - p_i(fresh) over all nonconstant components.
    """
    if isinstance(components, RationalMap3):
        comps = components.components
    else:
        comps = tuple(components)
    used = set()
    for c in comps:
        used.update(c.vars)
    fresh = _fresh_name(used | {var})
    g = MultiPoly.zero()
    any_nonconst = False
    for c in comps:
        if c.is_constant():
            continue
        any_nonconst = True
        n2 = c.num.rename_vars({var: fresh})
        d2 = c.den.rename_vars({var: fresh})
        cross = c.num * d2 - n2 * c.den
        g = gcd_multi(g, cross)
        if not g.is_zero() and g.degree_in(var) <= 1:
            break
    if not any_nonconst:
        return False, 0
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

    def coeff(i, j):
        for exps, cf in c.terms.items():
            e = dict(zip(c.vars, exps))
            if e.get(u, 0) == i and e.get(w, 0) == j and sum(e.values()) == i + j:
                return cf
        return Q(0)

    a, b, cc = coeff(2, 0), coeff(1, 1), coeff(0, 2)
    d, e, f = coeff(1, 0), coeff(0, 1), coeff(0, 0)
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


# Exact factoring for Legendre's theorem.  Miller-Rabin with the first 13
# prime bases is a proof of primality below _MR_EXACT_BOUND (Sorenson &
# Webster, Math. Comp. 86, 2017); a larger cofactor, or Pollard rho running
# past _RHO_BUDGET iterations, leaves the decision open rather than trust a
# probable prime.
_TRIAL_LIMIT = 1000
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BOUND = 3317044064679887385961981
_RHO_BUDGET = 1 << 16


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the bases _MR_BASES; exact for n < _MR_EXACT_BOUND."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> Optional[int]:
    """A proper factor of the odd composite n by Pollard rho with Brent's
    cycle search, or None once _RHO_BUDGET iterations are spent."""
    steps = 0
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(128, r - k)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += batch
            steps += 2 * r
            if steps > _RHO_BUDGET:
                return None
            r *= 2
        if g == n:
            # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _factor(n: int) -> Optional[dict[int, int]]:
    """Prime factorization {p: e} of the integer n >= 1, or None when it
    cannot be certified within the bounds above."""
    factors: dict[int, int] = {}
    d = 2
    while d < _TRIAL_LIMIT and d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if m >= _MR_EXACT_BOUND:
            return None
        if _is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        f = _rho_factor(m)
        if f is None:
            return None
        pending += [f, m // f]
    return factors


def _legendre(a: int, b: int, c: int) -> tuple[Optional[bool], str]:
    """Whether a x^2 + b y^2 + c z^2 = 0 (nonzero integers a, b, c) has a
    nontrivial rational solution, by Legendre's theorem: (True, ""),
    (False, reason) or (None, reason) when factoring is out of bounds."""
    if (a > 0) == (b > 0) == (c > 0):
        return False, "it has no real point"
    primes = []
    for v in (a, b, c):
        f = _factor(abs(v))
        if f is None:
            return None, f"{abs(v)} could not be factored within the bounds"
        primes.append({p for p, e in f.items() if e % 2})
    # squarefree parts made pairwise coprime: p | a, b turns a, b, c into
    # a/p, b/p, c*p (multiply by p, scale x, y by p), p^2 | c*p drops out
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        common = primes[i] & primes[j]
        primes[i] -= common
        primes[j] -= common
        primes[k] ^= common
    coef = [(1 if v > 0 else -1) * math.prod(ps) for v, ps in zip((a, b, c), primes)]
    # -bc, -ca, -ab must be squares modulo |a|, |b|, |c|; modulo 2 every
    # residue is a square, so only odd primes are checked (Euler's criterion)
    for i in range(3):
        other = -coef[(i + 1) % 3] * coef[(i + 2) % 3]
        for p in sorted(primes[i]):
            if p != 2 and pow(other % p, (p - 1) // 2, p) != 1:
                return False, f"{other} is not a square modulo {p} (Legendre's theorem)"
    return True, ""


def _conic_point_decision(c: MultiPoly, names: tuple[str, str]) -> tuple[Optional[bool], str]:
    """Whether the conic c has a rational point, as `_legendre` answers for
    a diagonal form congruent to its matrix; undecided when degenerate."""
    diag = _congruent_diagonal(_conic_matrix(c, names))
    if diag is None:
        return None, "degenerate conic"
    # d x^2 with d = n/q is n*q (x/q)^2
    return _legendre(*(int(d.numerator) * int(d.denominator) for d in diag))


# ---------------------------------------------------------------------------
# parametrizers
# ---------------------------------------------------------------------------


def _pick_param(names: Iterable[str]) -> str:
    for cand in ("t", "u", "v", "r"):
        if cand not in names:
            return cand
    raise RuntimeError("no parameter name available")


def _validate_on_curve(c: MultiPoly, names, comps) -> None:
    params = set()
    for comp in comps:
        params.update(comp.vars)
    params = tuple(sorted(params)) or ("t",)
    bindings = dict(zip(names, comps))
    if not compose_is_zero(c, {v: bindings[v] for v in c.vars}, params[:1]):
        raise ArithmeticError("parametrization fails to satisfy its curve")


def _finish(c: MultiPoly, names, comps, param, source) -> CurveParam:
    """Certify a parametrization of c and compute its tracing index, the
    only time it is computed: every family here is a proper pencil by
    construction, and lifting a plane parametrization to space cannot make
    it improper, so an improper result is an internal error."""
    _validate_on_curve(c, names, comps)
    proper, idx = is_proper_curve(comps, param)
    if not proper:
        raise ArithmeticError(f"plane curve parametrization is improper (tracing index {idx})")
    return CurveParam(tuple(comps), tuple(names), param, proper, idx, source)


def _parametrize_graph(curve: PlaneCurve, param: Optional[str] = None) -> Optional[CurveParam]:
    """Curves linear in one coordinate: solve it as a rational function of
    the other."""
    c = curve.poly
    names = curve.names
    u, w = names
    t = param or _pick_param(names)
    for solved, free in ((w, u), (u, w)):
        if c.degree_in(solved) == 1:
            coeffs = c.coeffs_in(solved)
            a1 = coeffs[1]
            a0 = coeffs.get(0, MultiPoly.zero())
            tv = MultiPoly.var(t)
            a1t = substitute(a1, {free: RatFunc(tv)}) if not a1.is_constant() else RatFunc(a1)
            a0t = substitute(a0, {free: RatFunc(tv)}) if not a0.is_constant() else RatFunc(a0)
            if a1t.is_zero():
                continue
            val = -a0t / a1t
            comps = (RatFunc(tv), val) if free == u else (val, RatFunc(tv))
            return _finish(c, names, comps, t, "plane-section")
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
    w = names[1]
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
    comps = _pencil(c, names, point, t)
    if comps is None:
        # singular rational point: the conic is a pair of lines through it,
        # in the directions where its top form A*u^2 + B*u*w + C*w^2 vanishes
        top = {dict(zip(c.vars, e)).get(w, 0): cf for e, cf in c.terms.items() if sum(e) == 2}
        A, B, C = (top.get(j, Q(0)) for j in range(3))
        if A == 0:
            direction = (Q(1), Q(0))
        else:
            disc = _is_square(B * B - 4 * A * C)
            if disc is None:
                raise NotRationalError("conic splits into conjugate lines; only one rational point")
            direction = ((-B + disc) / (2 * A), Q(1))
        tv = MultiPoly.var(t)
        comps = tuple(RatFunc(MultiPoly.const(p) + tv * dv) for p, dv in zip(point, direction))
    return _finish(c, names, comps, t, "plane-section")


def _pencil(c: MultiPoly, names, point, t: str) -> Optional[tuple[RatFunc, RatFunc]]:
    """The lines u = p1 + lam, w = p2 + lam*t through a point of
    multiplicity d - 1 (at least) on the degree-d curve c, each cut with c
    once more: at lam = -b(t)/a(t), where b and a are the forms of degree
    d - 1 and d of c shifted to the point, at (1, t).  None when b is 0:
    then c is a union of lines through the point."""
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
    lam = RatFunc(-MultiPoly((t,), forms[d - 1]), MultiPoly((t,), forms[d]))
    return RatFunc(MultiPoly.const(p1)) + lam, RatFunc(MultiPoly.const(p2)) + lam * RatFunc(MultiPoly.var(t))


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

    comps = _pencil(c, names, point, t)
    if comps is None:
        raise UnsupportedCurveError("curve is a cone of lines through its singular point")
    return comps


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

    comps = _fold_point_pencil(c, names, t)
    if comps is not None:
        return _finish(c, names, comps, t, "plane-section")

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
        chart_comps = _fold_point_pencil(cc, names, t)
        if chart_comps is None:
            continue
        A, B = chart_comps
        if B.is_zero():
            continue
        if chart == "w":
            # (a, b) = (u/w, h/w)  =>  u = a/b, w = 1/b
            back = (A / B, RatFunc(MultiPoly.const(1)) / B)
        else:
            # (a, b) = (w/u, h/u)  =>  u = 1/b, w = a/b
            back = (RatFunc(MultiPoly.const(1)) / B, A / B)
        return _finish(c, names, back, t, "plane-section")
    raise UnsupportedCurveError("no rational (d-1)-fold singular point found")


def _scheme_eliminant(c, cu, cw, elim_var, keep_var):
    """Squarefree eliminant of the singular scheme in keep_var."""
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
    if g.is_constant() or g.degree_in(keep_var) != g.total_degree():
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

        comps = _pencil_residual(c, Qt, (u, w), g, gw, (p1, p2), t)
        if comps is None:
            continue
        if k:
            comps = (comps[0] + comps[1] * k, comps[1])
        return _finish(c0, names, comps, t, "plane-section")
    raise last_err


def _pencil_residual(c, Qt, names, g, gw, point, t):
    """Residual intersection point of the adjoint pencil with the quartic."""
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
    u_t = RatFunc(-A0, A1)
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
    w_t = RatFunc(-B0, B1)
    return (u_t, w_t)


def parametrize_plane_curve(
    curve: PlaneCurve, budget: int = 200, param: Optional[str] = None
) -> CurveParam:
    """Dispatch a plane curve to the supported parametrization families."""
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
        return parametrize_monomial_like(curve, param)
    except UnsupportedCurveError as err:
        if d == 4:
            return parametrize_quartic_adjoint(curve, budget, param)
        raise UnsupportedCurveError(
            f"degree-{d} curve outside the supported families: {err}"
        ) from err


# ---------------------------------------------------------------------------
# plane sections of implicit surfaces, and lifts back to space
# ---------------------------------------------------------------------------


# candidate section planes n.(x, y, z) - c with their normals n, in sweep
# order: x, y, z, x - z, x + y + z for each c
_PLANES = tuple(
    (sum((MultiPoly.var(v) * Q(n) for v, n in zip(COORDS, normal)), MultiPoly.const(-c)), tuple(map(Q, normal)))
    for c in (0, 1, -1, 2, -2, 3, -3)
    for normal in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, -1), (1, 1, 1))
)


def plane_candidates(budget: int = 35) -> tuple[tuple[MultiPoly, tuple[Q, Q, Q]], ...]:
    """The first `budget` candidate section planes with their normals, at
    least one and at most 35."""
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
    """Lift an in-plane parametrization back to a space curve."""
    values = dict(zip(cp.names, cp.components))
    if isinstance(frame, PlaneFrame):
        solved_val = substitute(frame.expr, values) if not frame.expr.is_constant() else RatFunc(frame.expr)
        values[frame.solved] = solved_val
    elif isinstance(frame, EdgeFrame):
        rel = frame.relation
        if rel.degree_in(frame.solved) != 1:
            raise UnsupportedCurveError("lift relation is not linear in the remaining coordinate")
        coeffs = rel.coeffs_in(frame.solved)
        a1, a0 = coeffs[1], coeffs.get(0, MultiPoly.zero())
        a1v = substitute(a1, values) if not a1.is_constant() else RatFunc(a1)
        a0v = substitute(a0, values) if not a0.is_constant() else RatFunc(a0)
        if a1v.is_zero():
            raise UnsupportedCurveError("lift relation degenerates along the curve")
        values[frame.solved] = -a0v / a1v
    else:
        raise TypeError("unknown frame type")
    return RationalMap3([values[n] for n in COORDS], (cp.param,))
