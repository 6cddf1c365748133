"""Developability analysis of rational parametric surfaces P(s, t).

The input map need not be proper.  The normal vector N = P_s x P_t drives
everything: a 3x3 determinant in N and its parameter derivatives vanishes
identically exactly for developable surfaces; the fixed point of the
tangent planes (cone apex) and a fixed direction orthogonal to N
(cylinder ruling) come from exact linear algebra on the coefficients; for
tangent surfaces the cuspidal edge is the image of the common zero locus
of the normal components.  Rebuilt parametrizations are verified by
implicitizing the rebuilt surface and substituting the original map.
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
from .linalg import coefficient_rows, nullspace, primitive_integer_vector, solve_exact
from .poly import MultiPoly, Q, det3, exact_div, gcd_many, gcd_multi, resultant, squarefree_part
from .ratfunc import RatFunc, RationalMap3, cross3, dot3, substitute, substitute_map_is_zero
from .curves import (
    COORDS,
    PlaneCurve,
    is_proper_curve,
    lift_to_space,
    parametrize_plane_curve,
    plane_candidates,
    plane_frame,
)
from .implicit import (
    CONICAL,
    CYLINDRICAL,
    NOT_DEVELOPABLE,
    PLANE,
    TANGENTIAL,
    UNRESOLVED,
    SurfaceClass,
    _plane_param,
)
from .builder import ParamResult, build_conical, build_cylindrical, build_tangential, implicitize_ruled, reduce_directrix


@dataclass(frozen=True)
class NormalData:
    """Normal vector of a parametric surface and its clearing data."""

    n: tuple[RatFunc, RatFunc, RatFunc]          # reduced components of P_s x P_t
    tangent_rhs: RatFunc                          # N . P
    cleared: tuple[MultiPoly, MultiPoly, MultiPoly]  # numerators over one common denominator
    common_den: MultiPoly


def _lcm_poly(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    g = gcd_multi(a, b)
    q = exact_div(b, g)
    return (a * q).normalized()


def surface_normal(P: RationalMap3) -> NormalData:
    """Exact normal data; raises for degenerate (curve-like) input."""
    if P.params != ("s", "t"):
        raise ValueError("parametric surfaces use parameters (s, t)")
    Ps = P.derivative("s")
    Pt = P.derivative("t")
    n = cross3(Ps.components, Pt.components)
    if all(c.is_zero() for c in n):
        raise DegenerateInputError("normal vector vanishes identically; the image is a curve or a point")
    rhs = dot3(n, P.components)
    den = MultiPoly.const(1)
    for c in n:
        den = _lcm_poly(den, c.den)
    cleared = tuple((c.num * exact_div(den, c.den)) for c in n)
    return NormalData(n=tuple(n), tangent_rhs=rhs, cleared=cleared, common_den=den)


def gaussian_form_parametric(P: RationalMap3, nd: Optional[NormalData] = None) -> RatFunc:
    """Developability form K(s, t): the determinant of the normal
    components bordered by their s- and t-derivatives, as a reduced
    rational function.  Identically zero iff the surface is developable."""
    nd = nd or surface_normal(P)
    rows = []
    den_factor = MultiPoly.const(1)
    for comp in nd.n:
        num, den = comp.num, comp.den
        rows.append(
            [
                num.derivative("s") * den - num * den.derivative("s"),
                num.derivative("t") * den - num * den.derivative("t"),
                num * den,
            ]
        )
        den_factor = den_factor * den * den
    d = det3(rows)
    if d.is_zero():
        return RatFunc(MultiPoly.zero())
    return RatFunc(d, den_factor)


def detect_apex_parametric(nd: NormalData, P: RationalMap3):
    """Fixed point of the tangent planes: solve
    x0*n1 + y0*n2 + z0*n3 - N.P = 0 as an identity in (s, t)."""
    den = nd.common_den
    den = _lcm_poly(den, nd.tangent_rhs.den)
    cols = []
    for comp in nd.n:
        cols.append(comp.num * exact_div(den, comp.den))
    rhs_poly = nd.tangent_rhs.num * exact_div(den, nd.tangent_rhs.den)
    rows = coefficient_rows(cols + [rhs_poly], ("s", "t"))
    status, sol = solve_exact([r[:3] for r in rows], [r[3] for r in rows])
    if status == "unique":
        return "point", tuple(sol)
    if status == "underdetermined":
        return "degenerate", None
    return "none", None


def detect_direction_parametric(nd: NormalData):
    """Fixed direction orthogonal to the normal: exact kernel of the
    coefficient matrix of the cleared normal numerators."""
    basis = nullspace(coefficient_rows(nd.cleared, ("s", "t")), 3)
    if not basis:
        return "none", None
    if len(basis) > 1:
        return "degenerate", None
    return "vector", primitive_integer_vector(basis[0])


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
    g = gcd_many([c.num for c in nd.n])
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
        except (UnsupportedCurveError, PointSearchExhaustedError, NotRationalError):
            continue
        names = proj.vars
        vals = dict(zip(cp.names, cp.components))
        # third coordinate: common root of the two eliminants in z-direction
        if Ek.degree_in(t) == 0:
            third = curve.components[k]
        else:
            Rik = squarefree_part(resultant(Ei, Ek, t))
            Rjk = squarefree_part(resultant(Ej, Ek, t))
            third = _linear_root_on_curve(Rik, nk, vals)
            if third is None:
                third = _linear_root_on_curve(Rjk, nk, vals)
            if third is None:
                # gcd of the substituted eliminants, univariate in the
                # remaining coordinate over the parameter field
                Rik2 = substitute_poly_with_ratfuncs(Rik, vals, nk)
                Rjk2 = substitute_poly_with_ratfuncs(Rjk, vals, nk)
                g = gcd_multi(Rik2, Rjk2)
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


def substitute_poly_with_ratfuncs(p: MultiPoly, vals, keep: str) -> MultiPoly:
    """Substitute rational functions for all variables except `keep`;
    returns the numerator polynomial (in keep and the parameter)."""
    bindings = {v: vals[v] for v in p.vars if v != keep}
    bindings[keep] = RatFunc(MultiPoly.var(keep))
    return substitute(p, bindings).num


def _linear_root_on_curve(R: MultiPoly, var: str, vals) -> Optional[RatFunc]:
    if R.degree_in(var) != 1:
        return None
    cfs = R.coeffs_in(var)
    a1, a0 = cfs[1], cfs.get(0, MultiPoly.zero())
    a1v = substitute(a1, {v: vals[v] for v in a1.vars}) if not a1.is_constant() else RatFunc(a1)
    if a1v.is_zero():
        return None
    a0v = substitute(a0, {v: vals[v] for v in a0.vars}) if not a0.is_constant() else RatFunc(a0)
    return -a0v / a1v


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


def _res_guarded(a: MultiPoly, b: MultiPoly, var: str) -> Optional[MultiPoly]:
    if a.is_zero() or b.is_zero():
        return None
    da, db = a.degree_in(var), b.degree_in(var)
    if da == 0 and db == 0:
        return None
    if da == 0:
        return a
    if db == 0:
        return b
    g = gcd_multi(a, b)
    if g.degree_in(var) > 0:
        a = exact_div(a, g)
        b = exact_div(b, g)
        da, db = a.degree_in(var), b.degree_in(var)
        if da == 0:
            return a if not a.is_constant() else None
        if db == 0:
            return b if not b.is_constant() else None
    r = resultant(a, b, var)
    return None if r.is_zero() else r


def section_parametric(P: RationalMap3, plane: MultiPoly, frame) -> Optional[PlaneCurve]:
    """Implicit curve of the projection of the section {L(P(s,t)) = 0}
    onto the frame's kept coordinate plane, by double resultants."""
    Lcomp = substitute(plane, {v: P.components[COORDS.index(v)] for v in plane.vars})
    C = Lcomp.num
    if C.is_zero():
        return None
    k1, k2 = frame.kept
    E1 = (RatFunc(MultiPoly.var(k1)) - P.components[COORDS.index(k1)]).num
    E2 = (RatFunc(MultiPoly.var(k2)) - P.components[COORDS.index(k2)]).num
    candidates = []
    for first, second in (("t", "s"), ("s", "t")):
        r1 = _res_guarded(E1, C, first)
        r2 = _res_guarded(E2, C, first)
        if r1 is None or r2 is None:
            continue
        m = _res_guarded(r1, r2, second)
        if m is None or m.is_constant():
            continue
        candidates.append(squarefree_part(m))
    if not candidates:
        return None
    g = candidates[0]
    for c in candidates[1:]:
        g2 = gcd_multi(g, c)
        if not g2.is_constant():
            g = g2
    g = squarefree_part(g)
    if g.is_constant():
        return None
    keep = [v for v in g.vars if v in (k1, k2)]
    if not keep:
        return None
    return PlaneCurve(g, frame)


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


def _is_planar_surface(P: RationalMap3) -> Optional[MultiPoly]:
    den = MultiPoly.const(1)
    for c in P.components:
        den = _lcm_poly(den, c.den)
    cols = [c.num * exact_div(den, c.den) for c in P.components] + [den]
    for vec in nullspace(coefficient_rows(cols, ("s", "t")), 4):
        if any(v != 0 for v in vec[:3]):
            plane = sum(
                (MultiPoly.var(n) * vec[i] for i, n in enumerate(COORDS)), MultiPoly.const(vec[3])
            )
            return plane.normalized()
    return None


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
        plane = _is_planar_surface(P)
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
        last = DevsurfError("no usable section plane within budget")
        for plane in plane_candidates(plane_budget):
            if cls.tag == CONICAL:
                if plane.eval_all(dict(zip(COORDS, cls.apex))) == 0:
                    continue
            else:
                normal = [
                    plane.derivative(v).constant_value() if v in plane.vars else Q(0)
                    for v in COORDS
                ]
                if sum(n * d for n, d in zip(normal, cls.direction)) == 0:
                    continue
            frame = plane_frame(plane)
            try:
                sec = section_parametric(P, plane, frame)
                if sec is None:
                    continue
                cp = parametrize_plane_curve(sec, budget=point_budget, param="t")
                curve3 = lift_to_space(cp, frame)
                if cls.tag == CONICAL:
                    result = build_conical(cls.apex, curve3)
                else:
                    result = build_cylindrical(cls.direction, curve3)
                if refine:
                    result = reduce_directrix(result)
                fimp = implicitize_ruled(result)
                if not substitute_map_is_zero(fimp, P):
                    last = DevsurfError("original map does not satisfy the rebuilt implicit equation")
                    continue
                return (
                    result.with_verification(
                        "original map satisfies the implicit equation of the rebuilt surface"
                    ),
                    fimp,
                )
            except DevsurfError as err:
                last = err
                continue
        raise last

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
                if refine:
                    result = reduce_directrix(result)
                fimp = implicitize_ruled(result)
                if not substitute_map_is_zero(fimp, P):
                    last = DevsurfError("original map does not satisfy the rebuilt implicit equation")
                    continue
                return (
                    result.with_verification(
                        "original map satisfies the implicit equation of the rebuilt surface"
                    ),
                    fimp,
                )
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

    plane = _is_planar_surface(P)
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

    status, apex = detect_apex_parametric(nd, P)
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
