"""Developability analysis of rational parametric surfaces P(s, t).

The input map need not be proper.  Its tangent planes drive everything,
and they are read off the homogeneous form P = X/W as four polynomial
minors: M = W^3 * (P_s x P_t) and M4 = -X.(X_s x X_t), the plane at
P(s, t) being M.x + M4 = 0.  A 3x3 determinant in M and its parameter
derivatives vanishes identically exactly for developable surfaces; the
fixed point of the tangent planes (cone apex) and a fixed direction
orthogonal to M (cylinder ruling) come from exact linear algebra on the
coefficients, as in the implicit pipeline; for tangent surfaces the
cuspidal edge is the image of the common zero locus of the normal
components.  Rebuilt parametrizations are verified by implicitizing the
rebuilt surface and substituting the original map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import (
    DegenerateInputError,
    DevsurfError,
    NotRationalError,
    PointSearchExhaustedError,
    UnsupportedCurveError,
)
from .linalg import common_direction, common_point
from .poly import MultiPoly, Q, det3, exact_div, gcd_many, gcd_multi, resultant, squarefree_part
from .ratfunc import RatFunc, RationalMap3, cross3, dot3, substitute, substitute_map_is_zero
from .curves import COORDS, PlaneCurve, is_proper_curve, parametrize_plane_curve, plane_frame
from .implicit import (
    CONICAL,
    CYLINDRICAL,
    NOT_DEVELOPABLE,
    PLANE,
    TANGENTIAL,
    UNRESOLVED,
    SurfaceClass,
    _plane_param,
    admissible_planes,
)
from .builder import (
    ParamResult,
    build_conical,
    build_cylindrical,
    build_tangential,
    form_plane,
    homogeneous_form,
    implicitize_ruled,
    reduce_directrix,
)


@dataclass(frozen=True)
class NormalData:
    """Tangent plane of P = X/W as four polynomials: the plane at P(s, t)
    is M1*x + M2*y + M3*z + M4 = 0, with (M1, M2, M3) = W^3 * (P_s x P_t).
    The homogeneous form X, W it was computed from is kept, so that P is
    cleared of denominators once per analysis."""

    m: tuple[MultiPoly, MultiPoly, MultiPoly, MultiPoly]  # M1, M2, M3, M4
    x: tuple[MultiPoly, MultiPoly, MultiPoly]  # X1, X2, X3
    w: MultiPoly

    def plane(self) -> Optional[MultiPoly]:
        """The plane that contains the whole surface, or None."""
        return form_plane((*self.x, self.w), ("s", "t"))


def surface_normal(P: RationalMap3) -> NormalData:
    """Exact tangent-plane data; raises for degenerate (curve-like) input.

    With P = X/W, P_s x P_t = M/W^3 for C = X_s x X_t and
    M = W*C - W_s*(X x X_t) + W_t*(X x X_s), and M.X = W*(X.C), so the
    plane through P(s, t) is M.x - X.C = 0.  For a polynomial map W = 1
    and M = C.
    """
    if P.params != ("s", "t"):
        raise ValueError("parametric surfaces use parameters (s, t)")
    *X, W = homogeneous_form(P)
    Xs = [x.derivative("s") for x in X]
    Xt = [x.derivative("t") for x in X]
    C = cross3(Xs, Xt)
    M = C
    if not W.is_constant():
        Ws, Wt = W.derivative("s"), W.derivative("t")
        M = [W * c - Ws * a + Wt * b for c, a, b in zip(C, cross3(X, Xt), cross3(X, Xs))]
    if all(c.is_zero() for c in M):
        raise DegenerateInputError("normal vector vanishes identically; the image is a curve or a point")
    return NormalData(m=(*M, -dot3(X, C)), x=tuple(X), w=W)


def gaussian_form_parametric(P: RationalMap3, nd: Optional[NormalData] = None) -> RatFunc:
    """Developability form K(s, t) = det(N_s, N_t, N) of the normal
    N = P_s x P_t, as a reduced rational function; identically zero iff
    the surface is developable.  As N = M/W^3, column operations give
    K = det(M_s, M_t, M)/W^9; a zero K needs no W^9."""
    nd = nd or surface_normal(P)
    d = det3([[m.derivative("s"), m.derivative("t"), m] for m in nd.m[:3]])
    return RatFunc(d, nd.w**9 if d else 1)


def detect_apex_parametric(nd: NormalData):
    """Fixed point of the tangent planes: the x with M.x + M4 == 0."""
    return common_point(nd.m, ("s", "t"))


def detect_direction_parametric(nd: NormalData):
    """Fixed direction orthogonal to the normal: the kernel of M.v == 0."""
    return common_direction(nd.m[:3], ("s", "t"))


def _split_locus_factors(g: MultiPoly) -> list[MultiPoly]:
    """Best-effort split of a squarefree parameter locus into candidate
    components: monomial factors, small linear factors found by sweep,
    and the remaining cofactor."""
    factors: list[MultiPoly] = []
    for name in ("s", "t"):
        vpoly = MultiPoly.var(name)
        h = exact_div(g, vpoly)
        if h is not None:
            factors.append(vpoly)
            g = h
    small = [Q(0), Q(1), Q(-1), Q(2), Q(-2), Q(1, 2), Q(-1, 2), Q(3), Q(-3)]
    lines = []
    svar, tvar = MultiPoly.var("s"), MultiPoly.var("t")
    for alpha in small:
        for beta in small:
            lines.append(svar - tvar * alpha - beta)
    for beta in small:
        lines.append(tvar - beta)
    for line in lines:
        if g.is_constant():
            break
        if not set(line.vars) <= set(g.vars):
            continue
        h = exact_div(g, line)
        if h is not None:
            factors.append(line.normalized())
            g = h
    if not g.is_constant():
        factors.append(g.normalized())
    factors.sort(key=lambda f: (f.total_degree(), f.to_text()))
    return factors


def singular_parameter_locus(P: RationalMap3, nd: Optional[NormalData] = None) -> list[MultiPoly]:
    """Candidate components of the common zero locus of the normal in the
    (s, t) plane: the preimage of the cuspidal edge lies among them."""
    nd = nd or surface_normal(P)
    den = nd.w**3
    g = gcd_many([RatFunc(m, den).num for m in nd.m[:3]])
    if g.is_constant():
        raise DevsurfError("normal components share no positive-dimensional zero locus")
    g = squarefree_part(g)
    for comp in P.components:
        shared = gcd_multi(g, comp.den)
        while not shared.is_constant():
            g = exact_div(g, shared)
            if g.is_constant():
                raise DevsurfError("singular locus lies entirely on the map's poles")
            shared = gcd_multi(g, comp.den)
    return _split_locus_factors(squarefree_part(g))


def _edge_from_locus(P: RationalMap3, locus: MultiPoly, point_budget: int) -> RationalMap3:
    """Map a parameter-plane locus through P to get the candidate edge."""
    ds = locus.degree_in("s")
    dt = locus.degree_in("t")
    if ds == 1:
        coeffs = locus.coeffs_in("s")
        sval = RatFunc(-coeffs.get(0, MultiPoly.zero()), coeffs[1])
        comps = [c.subs({"s": sval}) if "s" in c.vars else c for c in P.components]
        return RationalMap3(comps, ("t",))
    if dt == 1:
        coeffs = locus.coeffs_in("t")
        tval = RatFunc(-coeffs.get(0, MultiPoly.zero()), coeffs[1])
        comps = [c.subs({"t": tval}) if "t" in c.vars else c for c in P.components]
        out = RationalMap3(comps, ("s",))
        return out.rename_params({"s": "t"})
    curve = PlaneCurve(locus, None)
    cp = parametrize_plane_curve(curve, budget=point_budget)
    svals = dict(zip(cp.names, cp.components))
    comps = [c.subs({k: svals[k] for k in c.vars}) if c.vars else c for c in P.components]
    out = RationalMap3(comps, (cp.param,))
    if cp.param != "t":
        out = out.rename_params({cp.param: "t"})
    return out


def reparametrize_space_curve(curve: RationalMap3, point_budget: int = 200) -> RationalMap3:
    """Proper reparametrization of a rational space curve by implicitizing
    a plane projection and reparametrizing that."""
    t = "t"
    pairs = [(0, 1, 2), (0, 2, 1), (1, 2, 0)]
    last = DevsurfError("no projection of the curve could be reparametrized")
    for i, j, k in pairs:
        ni, nj, nk = COORDS[i], COORDS[j], COORDS[k]
        Ei = (RatFunc(MultiPoly.var(ni)) - curve.components[i]).num
        Ej = (RatFunc(MultiPoly.var(nj)) - curve.components[j]).num
        Ek = (RatFunc(MultiPoly.var(nk)) - curve.components[k]).num
        if Ei.degree_in(t) == 0 or Ej.degree_in(t) == 0:
            continue
        proj = resultant(Ei, Ej, t)
        if proj.is_zero():
            continue
        proj = squarefree_part(proj)
        if proj.is_constant():
            continue
        try:
            cp = parametrize_plane_curve(PlaneCurve(proj, None), budget=point_budget)
        except (UnsupportedCurveError, PointSearchExhaustedError, NotRationalError) as err:
            last = DevsurfError(f"no projection of the curve could be reparametrized: {err}")
            continue
        names = proj.vars
        vals = dict(zip(cp.names, cp.components))
        if Ek.degree_in(t) == 0:
            third = curve.components[k]
        else:
            # over a point of the projection the two eliminants share the
            # third coordinate as their one common root, since the
            # projection is birational when this candidate is accepted
            bind = {**vals, nk: RatFunc(MultiPoly.var(nk))}
            g = gcd_multi(
                substitute(squarefree_part(resultant(Ei, Ek, t)), bind).num,
                substitute(squarefree_part(resultant(Ej, Ek, t)), bind).num,
            )
            if g.degree_in(nk) != 1:
                continue
            cfs = g.coeffs_in(nk)
            third = RatFunc(-cfs.get(0, MultiPoly.zero()), cfs[1])
        out_vals = {names[0]: vals[names[0]], names[1]: vals[names[1]], nk: third}
        cand = RationalMap3([out_vals[n] for n in COORDS], (cp.param,))
        if cp.param != "t":
            cand = cand.rename_params({cp.param: "t"})
        proper, _ = is_proper_curve(cand, "t")
        if proper and _same_curve(curve, cand):
            return cand
        last = DevsurfError("projection reparametrization failed the exactness audit")
    raise last


def _sample_points(P: RationalMap3, count: int) -> list[tuple[Q, Q, Q]]:
    """A few exact points on the surface, avoiding poles."""
    points = []
    k = 0
    while len(points) < count and k < 80:
        k += 1
        pt = P.eval_all({"s": Q(2 * k + 1, 3), "t": Q(k + 4, 5)})
        if pt is not None:
            points.append(pt)
    return points


def _point_on_ruled(point, result: ParamResult) -> bool:
    """Necessary membership test: some ruling of the candidate surface
    passes through the point (gcd of the cross-product numerators has a
    root)."""
    diff = [RatFunc(MultiPoly.const(q)) - c for q, c in zip(point, result.p0.components)]
    cr = cross3(diff, result.p1.components)
    nums = [c.num for c in cr if not c.is_zero()]
    if not nums:
        return True
    g = gcd_many(nums)
    return g.degree_in("t") > 0


def _same_curve(a: RationalMap3, b: RationalMap3) -> bool:
    """Cheap exact audit that two curve maps trace the same algebraic curve:
    pairwise eliminants of `a` vanish on sampled points of `b`."""
    t = "t"
    samples = []
    k = 0
    val = Q(5, 3)
    while len(samples) < 6 and k < 60:
        k += 1
        val = val + Q(k, 2)
        pt = b.eval_all({t: val})
        if pt is not None:
            samples.append(pt)
    if not samples:
        return False
    for i, j in ((0, 1), (0, 2), (1, 2)):
        Ei = (RatFunc(MultiPoly.var(COORDS[i])) - a.components[i]).num
        Ej = (RatFunc(MultiPoly.var(COORDS[j])) - a.components[j]).num
        if Ei.degree_in(t) == 0 or Ej.degree_in(t) == 0:
            continue
        r = resultant(Ei, Ej, t)
        if r.is_zero() or r.is_constant():
            continue
        for pt in samples:
            if r.eval_all(dict(zip(COORDS, pt))) != 0:
                return False
    return True


# ---------------------------------------------------------------------------
# sections of a parametric surface by a plane (for cone/cylinder rebuilds)
# ---------------------------------------------------------------------------


def section_parametric(P: RationalMap3, plane: MultiPoly, cls: SurfaceClass) -> RationalMap3:
    """Section of a parametric cone or cylinder by an admissible plane (one
    that misses the apex, or is not parallel to the direction), as a curve
    in t read off P itself.

    The lines s = c, then t = c, are tried for c = 0, 1, -1, 2, -2, ...
    A line L(t) of the parameter plane is sent into the plane from the
    apex A, X = A + lam*(L - A), or along the direction v, X = L + lam*v,
    with lam chosen so that X lies on the plane.  A line is skipped when a
    denominator of P vanishes on all of it, or when X is one point: the
    line then runs inside one ruling.  Otherwise X is a nonconstant piece
    of the irreducible section curve, hence a parametrization of all of it.

    Only finitely many c are skipped, unless every line of one family runs
    inside a ruling; then no line of the other family does, and only its
    lines on a pole are skipped.  In numbers: by Lueroth's theorem
    X = G(r) for a proper parametrization G of the section curve, of
    degree m >= 2 since the surface is not a plane, and some r = a/b in
    Q(s, t).  The line s = c is one point exactly when s - c divides
    a_t*b - a*b_t, whose s-degree is at most
    2*max(deg_s a, deg_s b) = 2*deg_s G(a, b)/m, at most the sum S_s of
    the s-degrees of the components of P; S_s bounds the lines s = c on a
    pole as well.  So at most min(2*S_s, 2*S_t) <= S_s + S_t values of c
    fail on both lines (at most S_t when every line s = c is a ruling),
    and passing 2 + S_s + S_t values is an internal fault.
    """
    bound = 2 + sum(max(c.num.degree_in(v), c.den.degree_in(v)) for c in P.components for v in ("s", "t"))
    if cls.tag == CONICAL:
        level = plane.eval_all(dict(zip(COORDS, cls.apex)))  # nonzero: the plane misses the apex
    else:
        # the plane's normal dotted with the direction, nonzero
        rate = plane.eval_all(dict(zip(COORDS, cls.direction))) - plane.eval_all(dict.fromkeys(COORDS, 0))
    for k in range(bound):
        c = (k + 1) // 2 * (-1) ** (k + 1)  # 0, 1, -1, 2, -2, ...
        for fixed, free in (("s", "t"), ("t", "s")):
            dens = [f.den.eval_partial({fixed: c}) for f in P.components]
            if any(d.is_zero() for d in dens):
                continue
            L = [
                RatFunc(f.num.eval_partial({fixed: c}), d).rename_vars({free: "t"})
                for f, d in zip(P.components, dens)
            ]
            ell = substitute(plane, dict(zip(COORDS, L)))
            if cls.tag == CONICAL:
                if (ell - level).is_zero():  # L lies in the plane through the apex parallel to the section
                    continue
                lam = level / (level - ell)
                X = [lam * (x - a) + a for a, x in zip(cls.apex, L)]
            else:
                lam = ell * (-1 / rate)
                X = [x + lam * v for x, v in zip(L, cls.direction)]
            if not all(x.is_constant() for x in X):
                return RationalMap3(X, ("t",))
    raise ArithmeticError(f"no parameter line maps onto the section by {plane.to_text()} = 0 within {bound} values")


def _mobius_normalized(curve: RationalMap3, kept: tuple[str, str]) -> RationalMap3:
    """The first coordinate, in kept order, that is a Moebius function of t
    made to read t, by substituting its inverse; otherwise the curve."""
    tv = MultiPoly.var("t")
    for name in kept:
        f = curve.components[COORDS.index(name)]
        if f.is_constant() or max(f.num.degree_in("t"), f.den.degree_in("t")) > 1:
            continue
        # f = (a*t + b)/(g*t + h) with a*h != b*g, reduced and nonconstant
        (b, a), (h, g) = ([p.coeffs_in("t").get(i, MultiPoly.zero()) for i in (0, 1)] for p in (f.num, f.den))
        return curve.subs({"t": RatFunc(h * tv - b, a - g * tv)}, ("t",))
    return curve


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


@dataclass
class ParametricAnalysis:
    classification: SurfaceClass
    k_func: RatFunc
    parametrization: Optional[ParamResult] = None
    implicit_equation: Optional[MultiPoly] = None
    failure: str = ""


def _implicitized(result: ParamResult, P: RationalMap3, refine: bool) -> Optional[tuple[ParamResult, MultiPoly]]:
    """Refine and implicitize a rebuilt surface, certified by the original
    map satisfying its equation exactly; None when it does not."""
    if refine:
        result = reduce_directrix(result)
    fimp = implicitize_ruled(result)
    if not substitute_map_is_zero(fimp, P):
        return None
    return result.with_verification("original map satisfies the implicit equation of the rebuilt surface"), fimp


def rebuild_and_verify(
    P: RationalMap3,
    cls: SurfaceClass,
    nd: Optional[NormalData] = None,
    plane_budget: int = 35,
    point_budget: int = 200,
    refine: bool = True,
) -> tuple[ParamResult, MultiPoly]:
    """Rebuild a proper standard-form parametrization for a classified
    surface and verify it: the ORIGINAL map must satisfy the implicit
    equation of the rebuilt surface exactly."""
    if cls.tag == PLANE:
        plane = (nd or surface_normal(P)).plane()
        if plane is None:
            raise DevsurfError("plane rebuild failed")
        result = _plane_param(plane)
        if not substitute_map_is_zero(plane, P):
            raise DevsurfError("plane verification failed")
        return (
            result.with_verification("original map satisfies the plane equation exactly"),
            plane,
        )

    if cls.tag in (CONICAL, CYLINDRICAL):
        plane = next((plane for plane, _ in admissible_planes(cls, plane_budget)), None)
        if plane is None:
            raise DevsurfError("no usable section plane within budget")
        curve = section_parametric(P, plane, cls)
        if not is_proper_curve(curve, "t")[0]:
            curve = reparametrize_space_curve(curve, point_budget)
        curve = _mobius_normalized(curve, plane_frame(plane).kept)
        if cls.tag == CONICAL:
            result = build_conical(cls.apex, curve)
        else:
            result = build_cylindrical(cls.direction, curve)
        rebuilt = _implicitized(result, P, refine)
        if rebuilt is None:
            # the curve is a section of the image of P, so P lies on the cone
            # or cylinder over it
            raise ArithmeticError("original map does not satisfy the equation of the surface over its own section")
        return rebuilt

    if cls.tag == TANGENTIAL:
        nd = nd or surface_normal(P)
        last = DevsurfError("no cuspidal edge candidate could be rebuilt")
        check_points = _sample_points(P, 3)
        for locus in singular_parameter_locus(P, nd):
            try:
                edge = _edge_from_locus(P, locus, point_budget)
                proper, _ = is_proper_curve(edge, "t")
                if not proper:
                    edge = reparametrize_space_curve(edge, point_budget)
                result = build_tangential(edge)
                if not all(_point_on_ruled(pt, result) for pt in check_points):
                    last = DevsurfError("candidate edge's tangent surface misses the original surface")
                    continue
                rebuilt = _implicitized(result, P, refine)
                if rebuilt is None:
                    last = DevsurfError("original map does not satisfy the rebuilt implicit equation")
                    continue
                return rebuilt
            except DevsurfError as err:
                last = err
                continue
        raise last

    raise ValueError(f"no rebuild for classification {cls.tag}")


def analyze_parametric(
    P: RationalMap3,
    plane_budget: int = 35,
    point_budget: int = 200,
    refine: bool = True,
) -> ParametricAnalysis:
    """Run the parametric pipeline end to end."""
    if all(c.is_constant() or c.derivative("s").is_zero() for c in P.components):
        raise DegenerateInputError("map is constant in s; its image is a curve, not a surface")
    if all(c.is_constant() or c.derivative("t").is_zero() for c in P.components):
        raise DegenerateInputError("map is constant in t; its image is a curve, not a surface")
    nd = surface_normal(P)

    plane = nd.plane()
    K = gaussian_form_parametric(P, nd)
    if plane is not None:
        cls = SurfaceClass(tag=PLANE)
        out = ParametricAnalysis(classification=cls, k_func=K)
        try:
            out.parametrization, out.implicit_equation = rebuild_and_verify(
                P, cls, nd, plane_budget, point_budget, refine
            )
        except DevsurfError as err:
            out.failure = str(err)
        return out

    if not K.is_zero():
        return ParametricAnalysis(classification=SurfaceClass(tag=NOT_DEVELOPABLE), k_func=K)

    status, apex = detect_apex_parametric(nd)
    if status == "point":
        cls = SurfaceClass(tag=CONICAL, apex=apex)
    else:
        status2, direction = detect_direction_parametric(nd)
        if status2 == "vector":
            cls = SurfaceClass(tag=CYLINDRICAL, direction=direction)
        elif status2 == "degenerate" or status == "degenerate":
            cls = SurfaceClass(tag=UNRESOLVED, note="degenerate tangent-plane system")
        else:
            cls = SurfaceClass(tag=TANGENTIAL)
    out = ParametricAnalysis(classification=cls, k_func=K)
    if cls.tag == UNRESOLVED:
        out.failure = cls.note
        return out
    try:
        out.parametrization, out.implicit_equation = rebuild_and_verify(
            P, cls, nd, plane_budget, point_budget, refine
        )
    except DevsurfError as err:
        out.failure = str(err)
    return out
