"""Developability analysis of rational parametric surfaces P(s, t).

The input map need not be proper.  Its tangent planes drive everything,
and they are read off the stored form P = X/W as four polynomial
minors: M = W^3 * (P_s x P_t) and M4 = -X.(X_s x X_t), the plane at
P(s, t) being M.x + M4 = 0.  A 3x3 determinant in M and its parameter
derivatives vanishes identically exactly for developable surfaces; the
fixed point of the tangent planes (cone apex) and a fixed direction
orthogonal to M (cylinder ruling) come from exact linear algebra on the
coefficients, as in the implicit pipeline.  Cone and cylinder sections,
and the cuspidal edge of a tangent surface (the common point of the
tangent plane and its first two derivatives), are read off P along one
line of the parameter plane.  Rebuilt parametrizations are verified by
implicitizing the rebuilt surface and substituting the original map.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import (
    DegenerateInputError,
    DevsurfError,
    NotRationalError,
    PointSearchExhaustedError,
    UnsupportedCurveError,
)
from .linalg import common_direction, common_point
from .poly import MultiPoly, Q, compose, det3, exact_div, gcd_many, gcd_multi, resultant, squarefree_part
from .ratfunc import RatFunc, RationalMap3, cross3, dot3, substitute_map_is_zero
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
    plane_at_base,
)
from .builder import (
    ParamResult,
    affine_plane,
    build_conical,
    build_cylindrical,
    build_tangential,
    implicitize_ruled,
    reduce_directrix,
)


class NormalData(NamedTuple):
    """Tangent plane of a surface P = X/W, read off its stored form, as four
    polynomials: the plane at P(s, t) is M1*x + M2*y + M3*z + M4 = 0, with
    (M1, M2, M3) = W^3 * (P_s x P_t)."""

    m: tuple[MultiPoly, MultiPoly, MultiPoly, MultiPoly]  # M1, M2, M3, M4
    surface: RationalMap3

    def plane(self) -> Optional[MultiPoly]:
        """The plane that contains the whole surface, or None."""
        return affine_plane(self.surface)


def surface_normal(P: RationalMap3) -> NormalData:
    """Exact tangent-plane data; raises for degenerate (curve-like) input.

    With P = X/W, P_s x P_t = M/W^3 for C = X_s x X_t and
    M = W*C - W_s*(X x X_t) + W_t*(X x X_s), and M.X = W*(X.C), so the
    plane through P(s, t) is M.x - X.C = 0.  When W = 1, M = C.
    """
    if P.params != ("s", "t"):
        raise ValueError("parametric surfaces use parameters (s, t)")
    *X, W = P.form
    Xs = [x.derivative("s") for x in X]
    Xt = [x.derivative("t") for x in X]
    C = cross3(Xs, Xt)
    M = C
    if W != 1:
        Ws, Wt = W.derivative("s"), W.derivative("t")
        M = [W * c - Ws * a + Wt * b for c, a, b in zip(C, cross3(X, Xt), cross3(X, Xs))]
    if all(c.is_zero() for c in M):
        raise DegenerateInputError("normal vector vanishes identically; the image is a curve or a point")
    return NormalData(m=(*M, -dot3(X, C)), surface=P)


def gaussian_form_parametric(P: RationalMap3, nd: Optional[NormalData] = None) -> RatFunc:
    """Developability form K(s, t) = det(N_s, N_t, N) of the normal
    N = P_s x P_t, as a reduced rational function; identically zero iff
    the surface is developable.  As N = M/W^3, column operations give
    K = det(M_s, M_t, M)/W^9; a zero K needs no W^9."""
    nd = nd or surface_normal(P)
    d = det3([[m.derivative("s"), m.derivative("t"), m] for m in nd.m[:3]])
    return RatFunc(d, nd.surface.form[3] ** 9 if d else 1)


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
    W = P.form[3]
    g = gcd_many([RatFunc(m, W**3).num for m in nd.m[:3]])
    if g.is_constant():
        raise DevsurfError("normal components share no positive-dimensional zero locus")
    g = squarefree_part(g)
    shared = gcd_multi(g, W)  # W vanishes on every pole
    while not shared.is_constant():
        g = exact_div(g, shared)
        if g.is_constant():
            raise DevsurfError("singular locus lies entirely on the map's poles")
        shared = gcd_multi(g, W)
    return _split_locus_factors(squarefree_part(g))


def reparametrize_space_curve(curve: RationalMap3, point_budget: int = 200) -> RationalMap3:
    """Proper reparametrization of a rational space curve by implicitizing
    a plane projection and reparametrizing that."""
    t = "t"
    pairs = [(0, 1, 2), (0, 2, 1), (1, 2, 0)]
    last = DevsurfError("no projection of the curve could be reparametrized")
    for i, j, k in pairs:
        ni, nj, nk = COORDS[i], COORDS[j], COORDS[k]
        # the numerator of x_n - X_n/W_n, reduced as X_n/W_n is
        Ei, Ej, Ek = (MultiPoly.var(COORDS[n]) * curve.components[n].den - curve.components[n].num for n in (i, j, k))
        if Ei.degree_in(t) == 0 or Ej.degree_in(t) == 0:
            continue
        proj = resultant(Ei, Ej, t)
        if proj.is_zero():
            continue
        proj = squarefree_part(proj)
        if proj.is_constant():
            continue
        try:
            cp = parametrize_plane_curve(PlaneCurve(proj, None), budget=point_budget, param=t)
        except (UnsupportedCurveError, PointSearchExhaustedError, NotRationalError) as err:
            last = DevsurfError(f"no projection of the curve could be reparametrized: {err}")
            continue
        names = proj.vars
        U, V, W = cp.form
        vals = {cp.names[0]: RatFunc(U, W), cp.names[1]: RatFunc(V, W)}
        if Ek.degree_in(t) == 0:
            third = curve.components[k]
        else:
            # over a point of the projection the two eliminants share the
            # third coordinate as their one common root, since the
            # projection is birational when this candidate is accepted
            bind = {n: (f.num, f.den) for n, f in vals.items()}
            g = gcd_multi(
                compose(squarefree_part(resultant(Ei, Ek, t)), bind),
                compose(squarefree_part(resultant(Ej, Ek, t)), bind),
            )
            if g.degree_in(nk) != 1:
                continue
            cfs = g.coeffs_in(nk)
            third = RatFunc(-cfs.get(0, MultiPoly.zero()), cfs[1])
        out_vals = {names[0]: vals[names[0]], names[1]: vals[names[1]], nk: third}
        cand = RationalMap3([out_vals[n] for n in COORDS], (t,))
        proper, _ = is_proper_curve(cand, "t")
        if proper and _same_curve(curve, cand):
            return cand
        last = DevsurfError("projection reparametrization failed the exactness audit")
    raise last


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
        Ei, Ej = (MultiPoly.var(COORDS[n]) * a.components[n].den - a.components[n].num for n in (i, j))
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
# curves read off parameter lines: cone and cylinder sections, cuspidal edges
# ---------------------------------------------------------------------------


def _parameter_lines(polys, bound: int):
    """The polynomials in (s, t) restricted to the lines s = c, then t = c,
    for c = 0, 1, -1, 2, -2, ..., each as polynomials in t.  The caller
    proves that one of the first `bound` values of c gives a usable line,
    so running past them raises ArithmeticError (exit 5)."""
    for k in range(bound):
        c = (k + 1) // 2 * (-1) ** (k + 1)  # 0, 1, -1, 2, -2, ...
        for fixed, free in (("s", "t"), ("t", "s")):
            yield [p.eval_partial({fixed: c}).rename_vars({free: "t"}) for p in polys]
    raise ArithmeticError(f"no usable parameter line within {bound} values")


def section_parametric(P: RationalMap3, plane: MultiPoly, cls: SurfaceClass) -> RationalMap3:
    """Section of a parametric cone or cylinder by an admissible plane (one
    that misses the apex, or is not parallel to the direction), as a curve
    in t read off P itself.

    P = X/W is taken in its stored form.  On a line of the parameter plane, from `_parameter_lines`, the point
    (X, W) is sent into the plane pi = (n, b) from the base point B of the
    surface, B = (a, 1) for the apex a or B = (v, 0) for the direction v:
    with l = n.X + b*W, the point pi(B)*(X, W) - l*B is polynomial and lies
    on the plane, since pi of it is pi(B)*l - l*pi(B).  Each of its first
    three coordinates is divided by the last.  A line is skipped when
    W vanishes on all of it (it runs along a pole), when the last
    coordinate vanishes (for a cone, the line lies in the plane through
    the apex parallel to the section), or when the point is constant: the
    line then runs inside one ruling.  Otherwise the point is a
    nonconstant piece of the irreducible section curve, hence a
    parametrization of all of it.

    Only finitely many c are skipped, unless every line of one family runs
    inside a ruling; then no line of the other family does, and only its
    lines on a pole are skipped.  In numbers: by Lueroth's theorem
    the section point is G(r) for a proper parametrization G of the
    section curve, of degree m >= 2 since the surface is not a plane, and
    some r = a/b in Q(s, t).  The line s = c is one point exactly when
    s - c divides a_t*b - a*b_t, whose s-degree is at most
    2*max(deg_s a, deg_s b) = 2*deg_s G(a, b)/m, at most the largest
    s-degree D_s of the entries of the stored form of P; D_s bounds the
    lines s = c on a pole, where s - c divides W, as well.  So at most
    min(2*D_s, 2*D_t) <= D_s + D_t values of c fail on both lines (at most
    D_t when every line s = c is a ruling), and passing 2 + D_s + D_t
    values is an internal fault.
    """
    bound = 2 + sum(max(e.degree_in(v) for e in P.form) for v in ("s", "t"))
    normal = [plane.coeff({v: 1}) for v in COORDS]
    b = plane.coeff({})
    at_base = plane_at_base(cls, normal, b)  # nonzero: the plane is admissible
    base, base_w = (cls.apex, 1) if cls.tag == CONICAL else (cls.direction, 0)
    for *X, W in _parameter_lines(P.form, bound):
        if W.is_zero():
            continue
        ell = sum((x * n for x, n in zip(X, normal)), W * b)
        last = W * at_base - ell * base_w
        if last.is_zero():
            continue
        point = RationalMap3.from_form([x * at_base - ell * a for x, a in zip(X, base)] + [last], ("t",))
        if not point.is_constant():
            return point


def cuspidal_edge(nd: NormalData) -> RationalMap3:
    """Cuspidal edge of a tangent surface, as a curve in t read off the
    tangent planes of P along one parameter line.

    On a line from `_parameter_lines`, the plane pi(t) = (M1, M2, M3, M4)
    is lam(t)*U(r(t)), U(r) being the tangent plane along ruling r and
    r(t) the ruling through the point of the line.  By the chain rule the
    signed 3x3 minors E of [pi; pi'; pi''] are (lam*r')^3 times those of
    [U; U'; U''] at r(t), whose common point is the edge point of ruling r
    (Pottmann & Wallner, Computational Line Geometry, Springer 2001).  So
    the edge is (E1, E2, E3)/E4.  E vanishes identically exactly on a line
    where M does (lam = 0) or that runs inside one ruling (r' = 0); such a
    line is skipped.  An edge at infinity (E4 = 0: a cylinder) or one
    point (a cone) was excluded by the exact apex and direction tests, so
    either raises ArithmeticError.

    The minors of [M; M_t; M_tt] over Q[s, t] restrict to those of each
    line s = c, and their s-degree is at most 3*D_s for D_s the largest
    s-degree of M.  So at most 3*D_s lines s = c are skipped, unless all
    of them are; likewise for t = c with D_t.  The lines of both families
    cannot all be skipped: M vanishes on finitely many of them, and if a
    general line of each family ran inside a ruling, the ruling through
    a general point would be constant along both, and the image a line.
    So passing 1 + 3*max(D_s, D_t) values of c is an internal fault.
    """
    bound = 1 + 3 * max(m.degree_in(v) for m in nd.m for v in ("s", "t"))
    for pi in _parameter_lines(nd.m, bound):
        d1 = [p.derivative("t") for p in pi]
        rows = (pi, d1, [p.derivative("t") for p in d1])
        E = [(-1) ** j * det3([[r[i] for i in range(4) if i != j] for r in rows]) for j in range(4)]
        if all(e.is_zero() for e in E):
            continue
        if E[3].is_zero():
            raise ArithmeticError("the tangent planes of a tangent surface meet at infinity")
        edge = RationalMap3.from_form(E, ("t",))
        if edge.is_constant():
            raise ArithmeticError("the tangent planes of a tangent surface share one point")
        return edge


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


class ParametricAnalysis:
    """The parametric pipeline's result, filled in as the analysis goes."""

    __slots__ = ("classification", "k_func", "parametrization", "implicit_equation", "failure")

    def __init__(
        self,
        classification: SurfaceClass,
        k_func: RatFunc,
        parametrization: Optional[ParamResult] = None,
        implicit_equation: Optional[MultiPoly] = None,
        failure: str = "",
    ):
        self.classification = classification
        self.k_func = k_func
        self.parametrization = parametrization
        self.implicit_equation = implicit_equation
        self.failure = failure


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
            # the plane is the nullspace of a.X + b.W == 0, so P lies on it
            raise ArithmeticError("original map does not satisfy its own plane")
        return (
            result.with_verification("original map satisfies the plane equation exactly"),
            plane,
        )

    if cls.tag == TANGENTIAL:
        curve = cuspidal_edge(nd or surface_normal(P))
    elif cls.tag in (CONICAL, CYLINDRICAL):
        plane = next((plane for plane, _ in admissible_planes(cls, plane_budget)), None)
        if plane is None:
            raise DevsurfError("no usable section plane within budget")
        curve = section_parametric(P, plane, cls)
    else:
        raise ValueError(f"no rebuild for classification {cls.tag}")
    if not is_proper_curve(curve, "t")[0]:
        curve = reparametrize_space_curve(curve, point_budget)
    if cls.tag == TANGENTIAL:
        result = build_tangential(curve)
    elif cls.tag == CONICAL:
        result = build_conical(cls.apex, _mobius_normalized(curve, plane_frame(plane).kept))
    else:
        result = build_cylindrical(cls.direction, _mobius_normalized(curve, plane_frame(plane).kept))
    rebuilt = _implicitized(result, P, refine)
    if rebuilt is None:
        # the section or the edge is read off P itself, so P lies on the
        # surface rebuilt over it
        raise ArithmeticError("original map does not satisfy the equation of the surface rebuilt from its own curve")
    return rebuilt


def analyze_parametric(
    P: RationalMap3,
    plane_budget: int = 35,
    point_budget: int = 200,
    refine: bool = True,
) -> ParametricAnalysis:
    """Run the parametric pipeline end to end."""
    if all(e.degree_in("s") == 0 for e in P.form):
        raise DegenerateInputError("map is constant in s; its image is a curve, not a surface")
    if all(e.degree_in("t") == 0 for e in P.form):
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
