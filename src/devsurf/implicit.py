"""Developability analysis of implicit algebraic surfaces F(x, y, z) = 0.

The pipeline: a bordered-Hessian determinant K(x, y, z) vanishes on the
surface exactly when the surface is developable; a developable surface is
then a plane, a cone (all tangent planes share a fixed point), a cylinder
(the gradient is orthogonal to a fixed direction), or the tangent surface
of a space curve, whose cuspidal edge sits inside the singular locus.
Each decision here is exact linear algebra or exact divisibility; nothing
is sampled to decide anything.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import mul
from typing import Optional

from .errors import DegenerateInputError, DevsurfError, NotRationalError
from .linalg import common_direction, common_point
from .poly import (
    MultiPoly,
    Q,
    _int_terms,
    _num_den,
    bordered_hessian,
    divides,
    gcd_many,
    resultant,
    squarefree_part,
    subresultant_linear,
)
from .ratfunc import RationalMap3, substitute_map_is_zero
from .curves import (
    COORDS,
    EdgeFrame,
    PlaneCurve,
    lift_to_space,
    parametrize_plane_curve,
    plane_candidates,
    plane_frame,
    section_implicit,
)
from .builder import (
    CONICAL,
    CYLINDRICAL,
    TANGENTIAL,
    build_conical,
    build_cylindrical,
    build_tangential,
    reduce_directrix,
    verify_on_surface,
)

NOT_DEVELOPABLE = "NotDevelopable"
PLANE = "Plane"
UNRESOLVED = "DevelopableUnresolved"


@dataclass(frozen=True)
class SurfaceClass:
    """Classification verdict for a surface."""

    tag: str
    apex: Optional[tuple[Q, Q, Q]] = None
    direction: Optional[tuple[int, ...]] = None
    edge_system: Optional[tuple[MultiPoly, ...]] = None
    note: str = ""


def gaussian_form_implicit(F: MultiPoly) -> MultiPoly:
    """Bordered-Hessian determinant K(x, y, z) of F; K = 0 on the surface
    characterizes developability.  ``bordered_hessian`` forms it on F's
    packed integer primitive part and scales it by the content to the
    fourth power."""
    if F.is_constant():
        raise ValueError("surface polynomial is constant")
    return bordered_hessian(F, COORDS)


def vanishes_on_surface(K: MultiPoly, F: MultiPoly) -> bool:
    """True when K vanishes identically on V(F): the squarefree part of F
    divides K.  ``divides`` first refutes on a univariate image modulo
    2^61 - 1, so a "no" usually costs no exact division."""
    if F.is_constant():
        raise ValueError("surface polynomial is constant")
    if K.is_zero():
        return True
    ok, _ = divides(squarefree_part(F), K)
    return ok


def detect_apex(F: MultiPoly) -> tuple[str, Optional[tuple[Q, Q, Q]]]:
    """Fixed point of all tangent planes, by the homogeneity criterion.

    F defines a cone with apex P0 exactly when translating P0 to the
    origin makes F homogeneous, i.e. when
    x0*Fx + y0*Fy + z0*Fz + d*F - (x*Fx + y*Fy + z*Fz) = 0 identically.
    Returns ("point", p), ("none", None) or ("degenerate", None).
    """
    d = F.total_degree()
    if d < 1:
        raise ValueError("surface polynomial is constant")
    grads = [F.derivative(v) for v in COORDS]
    euler = F * d - sum((MultiPoly.var(v) * g for v, g in zip(COORDS, grads)), MultiPoly.zero())
    return common_point(grads + [euler], COORDS)


def detect_ruling_direction(F: MultiPoly) -> tuple[str, Optional[tuple[int, ...]]]:
    """Common ruling direction: exact kernel of the coefficient matrix of
    the three gradient components."""
    return common_direction([F.derivative(v) for v in COORDS], COORDS)


def singular_locus_curve(F: MultiPoly) -> list[tuple[MultiPoly, MultiPoly]]:
    """Candidate triangular systems (h, g) for the one-dimensional part of
    the singular locus of a tangential surface.

    g is the squarefree eliminant of the singular system in the two
    non-eliminated coordinates; h is a linear subresultant carrying the
    eliminated coordinate.  The precondition is a surface already known to
    be neither conical nor cylindrical.
    """
    status, _ = detect_apex(F)
    if status == "point":
        raise ValueError("surface is conical; it has no cuspidal edge to extract")
    status, _ = detect_ruling_direction(F)
    if status == "vector":
        raise ValueError("surface is cylindrical; it has no cuspidal edge to extract")
    return list(_iter_singular_systems(F))


def _iter_singular_systems(F: MultiPoly):
    seen = set()
    base = [F.derivative(v) for v in COORDS] + [F]
    base = [p for p in base if not p.is_zero()]
    for elim in COORDS:
        if F.degree_in(elim) == 0:
            continue
        positive = [p for p in base if p.degree_in(elim) > 0]
        # the free polynomials and the nonzero resultants; the squarefree
        # part of their gcd is the product of the irreducible factors
        # common to all of them
        eliminants = [p for p in base if p.degree_in(elim) == 0]
        for i in range(len(positive)):
            for j in range(i + 1, len(positive)):
                r = resultant(positive[i], positive[j], elim)
                if not r.is_zero():
                    eliminants.append(r)
        if not eliminants:
            continue
        g = gcd_many(eliminants)
        if g.is_constant():
            continue
        g = squarefree_part(g)
        for i in range(len(positive)):
            for j in range(i + 1, len(positive)):
                s1 = subresultant_linear(positive[i], positive[j], elim)
                if s1 is None:
                    continue
                lead, rest = s1
                if lead.is_zero():
                    continue
                h = (lead * MultiPoly.var(elim) + rest).normalized()
                if (h, g) in seen:
                    continue
                seen.add((h, g))
                yield (h, g)


def classify_implicit(F: MultiPoly) -> tuple[SurfaceClass, MultiPoly, MultiPoly]:
    """Classify the surface; returns (classification, K, squarefree F)."""
    if F.is_zero() or F.is_constant():
        raise DegenerateInputError("input polynomial does not define a surface")
    Fs = squarefree_part(F)
    K = gaussian_form_implicit(Fs)
    if Fs.total_degree() == 1:
        return SurfaceClass(tag=PLANE), K, Fs
    # developable iff Fs divides K; Fs is squarefree already, and
    # vanishes_on_surface would reduce it a second time
    if not divides(Fs, K)[0]:
        return SurfaceClass(tag=NOT_DEVELOPABLE), K, Fs
    status, apex = detect_apex(Fs)
    if status == "point":
        return SurfaceClass(tag=CONICAL, apex=apex), K, Fs
    apex_note = "apex system underdetermined; " if status == "degenerate" else ""
    status, direction = detect_ruling_direction(Fs)
    if status == "vector":
        return SurfaceClass(tag=CYLINDRICAL, direction=direction), K, Fs
    if status == "degenerate":
        return (
            SurfaceClass(tag=UNRESOLVED, note=apex_note + "gradient coefficient kernel is 2-dimensional"),
            K,
            Fs,
        )
    first = next(_iter_singular_systems(Fs), None)
    if first is None:
        return (
            SurfaceClass(tag=UNRESOLVED, note=apex_note + "no one-dimensional singular component found"),
            K,
            Fs,
        )
    return SurfaceClass(tag=TANGENTIAL, edge_system=first, note=apex_note), K, Fs


# ---------------------------------------------------------------------------
# full pipeline: classify, then rebuild a parametrization
# ---------------------------------------------------------------------------


@dataclass
class ImplicitAnalysis:
    classification: SurfaceClass
    k_poly: MultiPoly
    surface: MultiPoly           # squarefree normalized input
    parametrization: object = None   # ParamResult | None
    failure: str = ""


def _plane_param(Fs: MultiPoly):
    """Canonical ruled parametrization of a plane."""
    frame = plane_frame(Fs)
    kept, solved = frame.kept, frame.solved
    values = {kept[0]: MultiPoly.zero(), kept[1]: MultiPoly.var("t")}
    values[solved] = frame.expr.subs_poly(values)
    directrix = RationalMap3.from_form([values[n] for n in COORDS] + [MultiPoly.const(1)], ("t",), _reduced=True)
    # ruling direction inside the plane (slanted when the plane is slanted)
    dvec = [Q(0)] * 3
    dvec[COORDS.index(kept[0])] = Q(1)
    dvec[COORDS.index(solved)] = frame.expr.coeff({kept[0]: 1})
    return build_cylindrical(tuple(dvec), directrix)


def plane_at_base(cls: SurfaceClass, normal, constant) -> Q:
    """pi(B) for the plane pi = (n, c), n.x + c = 0, and the base point B
    of a cone or a cylinder: n.a + c at B = (a, 1) for the apex a, or n.v
    at B = (v, 0) for the direction v, a point at infinity.  It is nonzero
    exactly when the plane misses the apex or is not parallel to the
    direction."""
    if cls.tag == CONICAL:
        return sum(n * a for n, a in zip(normal, cls.apex)) + constant
    return sum(n * d for n, d in zip(normal, cls.direction))


def admissible_planes(cls: SurfaceClass, budget: int):
    """The candidate planes, with their normals, that miss the apex of a
    cone or are not parallel to the direction of a cylinder: pi(B) != 0,
    tested on integers as n.(D*a) + b*D for the apex a over its common
    denominator D, or as n.v for the integer direction v."""
    if cls.tag == CONICAL:
        dens = [_num_den(a)[1] for a in cls.apex]
        D = math.lcm(*dens)
        base = [_num_den(a)[0] * (D // d) for a, d in zip(cls.apex, dens)]
    else:
        D, base = 0, cls.direction
    for plane, normal, b in plane_candidates(budget):
        if sum(map(mul, normal, base)) + b * D:
            yield plane, normal


def _sections_by_degree(Fs: MultiPoly, cls: SurfaceClass, plane_budget: int):
    """Admissible candidate planes with the degree of their section,
    stably sorted by that degree; no section is computed here.

    On an admissible plane the section of the squarefree Fs is already
    squarefree: for a cone it is the dehomogenization of the apex-centred
    form, for a cylinder an affine image of the base curve.  Its degree is
    deg Fs, minus 1 exactly when the top-degree form of Fs vanishes on the
    plane's direction, which happens only when a plane component through
    the apex is parallel to the candidate.  A binary form of degree d that
    vanishes at the d + 1 integer points (1, k), k = 0..d, of the
    direction plane is zero; the integer terms of the top form are
    evaluated there once per normal.
    """
    d = Fs.total_degree()
    pos = [COORDS.index(v) for v in Fs.vars]
    top = [(e, c) for e, c in _int_terms(Fs.terms)[1].items() if sum(e) == d]
    drops = {}  # by plane normal: the candidates share a few directions
    keyed = []
    for plane, normal in admissible_planes(cls, plane_budget):
        if normal not in drops:
            # (1, k) in the basis n_s*e_u - n_u*e_s, n_s*e_w - n_w*e_s
            s = max(i for i in range(3) if normal[i])
            u, w = (i for i in range(3) if i != s)
            point = [0] * 3
            vanishes = True
            for k in range(d + 1):
                point[u], point[w], point[s] = normal[s], k * normal[s], -normal[u] - k * normal[w]
                xs = [point[i] for i in pos]
                if sum(c * math.prod(map(pow, xs, e)) for e, c in top):
                    vanishes = False
                    break
            drops[normal] = vanishes
        keyed.append((plane, d - 1 if drops[normal] else d))
    keyed.sort(key=lambda pk: pk[1])
    return keyed


def analyze_implicit(
    F: MultiPoly,
    plane_budget: int = 35,
    point_budget: int = 200,
    refine: bool = True,
) -> ImplicitAnalysis:
    """Run the implicit pipeline end to end, verification included."""
    cls, K, Fs = classify_implicit(F)
    out = ImplicitAnalysis(classification=cls, k_poly=K, surface=Fs)
    if cls.tag == NOT_DEVELOPABLE:
        return out
    if cls.tag == UNRESOLVED:
        out.failure = cls.note
        return out

    try:
        if cls.tag == PLANE:
            result = _plane_param(Fs)
            if not verify_on_surface(result, Fs):
                # _plane_param solves the plane for one coordinate
                raise ArithmeticError("plane parametrization does not satisfy its own plane")
            out.parametrization = result.with_verification(
                "substitution into the defining polynomial reduced to zero"
            )
            return out

        if cls.tag in (CONICAL, CYLINDRICAL):
            last = "no usable section plane within budget"
            d = Fs.total_degree()
            for plane, key in _sections_by_degree(Fs, cls, plane_budget):
                sec = section_implicit(Fs, plane)
                if sec is None or sec.poly.total_degree() != key:
                    raise ArithmeticError(
                        f"section by {plane.to_text()} = 0 does not have the predicted degree {key}"
                    )
                try:
                    cp = parametrize_plane_curve(sec, budget=point_budget, param="t")
                    curve3 = lift_to_space(cp, sec.frame)
                    if cls.tag == CONICAL:
                        result = build_conical(cls.apex, curve3)
                    else:
                        result = build_cylindrical(cls.direction, curve3)
                    if refine:
                        result = reduce_directrix(result)
                    if not verify_on_surface(result, Fs):
                        # the section, the apex and the direction are all certified
                        raise ArithmeticError(f"rebuild from the section by {plane.to_text()} = 0 is off the surface")
                    out.parametrization = result.with_verification(
                        "substitution into the defining polynomial reduced to zero"
                    )
                    return out
                except NotRationalError as err:
                    # Sections of full degree are birational over Q to every
                    # other admissible section (central projection from the
                    # rational apex, or projection along the direction), and
                    # rationality over Q is a birational invariant: no other
                    # plane can succeed.  A section of degree d - 1 has lost
                    # a plane component through the apex to infinity, which
                    # other sections keep as a line, so the sweep goes on.
                    # An unsupported family or a missed point search says
                    # nothing about other sections and never stops it.
                    if key == d:
                        out.failure = str(err)
                        return out
                    last = str(err)
                except DevsurfError as err:
                    last = str(err)
            out.failure = last
            return out

        # tangential
        last = "no cuspidal edge candidate could be parametrized"
        # classification already found the first system; the others are
        # computed only if it fails
        rest = (s for s in _iter_singular_systems(Fs) if s != cls.edge_system)
        for h, g in itertools.chain([cls.edge_system], rest):
            try:
                kept = tuple(n for n in COORDS if n not in (_elim_var(h, g),))
                frame = EdgeFrame(relation=h, kept=kept, solved=_elim_var(h, g))
                curve = PlaneCurve(g, frame)
                cp = parametrize_plane_curve(curve, budget=point_budget, param="t")
                edge = lift_to_space(cp, frame)
                if not substitute_map_is_zero(Fs, edge):
                    last = "candidate edge does not lie on the surface"
                    continue
                result = build_tangential(edge)
                if refine:
                    # s -> s + q(t): certified together with the unreduced map
                    result = reduce_directrix(result)
                if not verify_on_surface(result, Fs):
                    last = "tangent surface of the candidate edge failed verification"
                    continue
                out.parametrization = result.with_verification(
                    "substitution into the defining polynomial reduced to zero"
                )
                return out
            except DevsurfError as err:
                last = str(err)
                continue
        out.failure = last
        return out
    except DevsurfError as err:
        out.failure = str(err)
        return out


def _elim_var(h: MultiPoly, g: MultiPoly) -> str:
    for v in COORDS:
        if v in h.vars and v not in g.vars:
            return v
    for v in COORDS:
        if v not in g.vars:
            return v
    raise ValueError("edge system has no lift coordinate")
