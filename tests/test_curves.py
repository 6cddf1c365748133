"""Plane-curve parametrization: conics, (d-1)-fold curves, nodal quartics,
lifting, properness, the rational-point decision for conics."""

import ast
import math
import random
import time
from pathlib import Path

import pytest

import devsurf.curves
from devsurf.poly import MultiPoly, Q, exact_div, gcd_many, gcd_multi, resultant, squarefree_part
from devsurf.ratfunc import RatFunc, RationalMap3, _form_is_zero, projective_form, substitute, substitute_map
from devsurf.exprs import parse_map, parse_poly
from devsurf.errors import NotRationalError, PointSearchExhaustedError, UnsupportedCurveError
from devsurf.curves import (
    CurveParam,
    EdgeFrame,
    PlaneCurve,
    PlaneFrame,
    is_proper_curve,
    lift_to_space,
    parametrize_conic,
    parametrize_monomial_like,
    parametrize_plane_curve,
    parametrize_quartic_adjoint,
    plane_frame,
    rational_point_on_curve,
    section_implicit,
)
from devsurf.curves import _conic_point_decision, _is_square, _smooth_genus
from devsurf.arith import factor, gcd_mod, is_prime, legendre, modulus, newton_step, res_mod

from conftest import check_frozen_record, map2_with_zero, random_space_curve, rf_subs, ternary_form_solvable

import cases

X, Y, Z, T = (MultiPoly.var(v) for v in "xyzt")


def on_curve(cp: CurveParam, poly: MultiPoly) -> bool:
    return _form_is_zero(poly, cp.names, cp.form, (cp.param,))


class TestConic:
    def test_cone_section_conic(self):
        c = parse_poly(cases.ELLIPTIC_CONE_SECTION_2D, ("x", "y"))
        cp = parametrize_conic(PlaneCurve(c, None))
        assert on_curve(cp, c)
        assert cp.proper and cp.tracing_index == 1
        # the reference parametrization traces the same conic
        ref = parse_map(map2_with_zero(cases.ELLIPTIC_CONE_SECTION_MAP_2D), params=("t",))
        assert _form_is_zero(c, ("x", "y"), projective_form(ref.components[:2]), ("t",))

    def test_circle(self):
        c = X**2 + Y**2 - 1
        cp = parametrize_conic(PlaneCurve(c, None))
        assert on_curve(cp, c)
        assert cp.proper

    def test_empty_conic_provably_not_rational(self):
        with pytest.raises(NotRationalError):
            parametrize_conic(PlaneCurve(X**2 + Y**2 + 1, None))

    def test_projected_section_conic(self):
        c = parse_poly(cases.IMPROPER_CONE_SECTION_CONIC, ("x", "y"))
        cp = parametrize_conic(PlaneCurve(c, None))
        assert on_curve(cp, c) and cp.proper

    def test_pair_of_rational_lines(self):
        c = X**2 - Y**2  # crossing lines, singular rational point at 0
        cp = parametrize_conic(PlaneCurve(c, None))
        assert on_curve(cp, c) and cp.proper


class TestMonomialLike:
    def test_cuspidal_planar_cubic(self):
        c = parse_poly(cases.TANGENT_EDGE_PLANAR_CUBIC, ("y", "z"))
        cp = parametrize_monomial_like(PlaneCurve(c, None))
        assert on_curve(cp, c)
        assert cp.proper and cp.tracing_index == 1
        # the reference parametrization (corrected z-component) lies on it
        ref = parse_map(map2_with_zero(cases.TANGENT_EDGE_CUBIC_MAP_2D), params=("t",))
        assert _form_is_zero(c, ("y", "z"), projective_form(ref.components[:2]), ("t",))

    def test_standard_cusp(self):
        c = Y**2 - Z**3
        curve = PlaneCurve(c, None)
        cp = parametrize_plane_curve(curve)
        assert on_curve(cp, c) and cp.proper

    def test_smooth_cubic_rejected(self):
        c = Y**2 - Z**3 + Z  # nonsingular: genus one
        with pytest.raises(UnsupportedCurveError):
            parametrize_monomial_like(PlaneCurve(c, None))

    def test_quartic_with_triple_point(self):
        # y^3 * (linear) + quartic terms: triple point at the origin
        c = Y**3 - Z**4 + Y * Z**3
        cp = parametrize_monomial_like(PlaneCurve(c, None))
        assert on_curve(cp, c) and cp.proper

    def test_chart_fault_is_internal_error(self, monkeypatch):
        # a pencil in a projective chart that misses the curve is a fault in
        # devsurf, not one more chart to try and in the end an exit-2 verdict
        calls = []

        def fake_pencil(c, names, t):
            calls.append(c)
            if len(calls) == 1:  # the affine chart: no fold point
                return None
            tv = MultiPoly.var(t)
            return (tv, tv, MultiPoly.const(1))  # (u, w) = (1, 1/t): off the curve

        monkeypatch.setattr("devsurf.curves._fold_point_pencil", fake_pencil)
        with pytest.raises(ArithmeticError, match="fails to satisfy its curve"):
            parametrize_monomial_like(PlaneCurve(Y**3 + Z**3 + 1, None))
        assert len(calls) == 2


class TestQuarticAdjoint:
    def test_cylinder_profile_quartic(self, quartic_cylinder):
        sec = section_implicit(quartic_cylinder, X)  # plane x = 0
        assert sec is not None and sec.poly.total_degree() == 4
        cp = parametrize_quartic_adjoint(sec)
        assert on_curve(cp, sec.poly)
        assert cp.proper and cp.tracing_index == 1

    def test_constructed_trinodal_quartic(self):
        # implicitize a known rational quartic map, then re-parametrize it
        y_t = T**3 - 2 * T
        z_t = T**4 - T
        ey = (RatFunc(Y) - RatFunc(y_t)).num
        ez = (RatFunc(Z) - RatFunc(z_t)).num
        c = squarefree_part(resultant(ey, ez, "t"))
        assert c.total_degree() == 4
        cp = parametrize_plane_curve(PlaneCurve(c, None))
        assert on_curve(cp, c) and cp.proper

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("u^4+w^4-1", NotRationalError, "smooth plane curve of degree 4, genus 3"),
            # singular only at (1 : 0 : 0): no claim, the families' text
            ("u^2*w^2+w^4+1+u-w", UnsupportedCurveError, "quartic adjoint construction failed"),
        ],
        ids=["fermat", "singular-at-infinity"],
    )
    def test_no_affine_singular_point_stops_at_first_shear(self, monkeypatch, text, error, message):
        # a shear maps affine singular points one to one, so an empty affine
        # scheme ends the attempt after one pair of eliminants
        calls = []
        original = devsurf.curves._scheme_eliminant

        def spy(*args):
            calls.append(args[3:])
            return original(*args)

        monkeypatch.setattr(devsurf.curves, "_scheme_eliminant", spy)
        c = parse_poly(text, ("u", "w"))
        with pytest.raises(UnsupportedCurveError, match="^quartic adjoint construction failed$"):
            parametrize_quartic_adjoint(PlaneCurve(c, None))
        assert calls == [("w", "u"), ("u", "w")]
        calls.clear()
        with pytest.raises(error) as err:
            parametrize_plane_curve(PlaneCurve(c, None))
        assert str(err.value) == message
        assert len(calls) == 2

    def test_off_curve_result_is_internal_error(self, monkeypatch):
        # a parametrization that misses its curve is a fault to surface,
        # not one more retry that ends as an unsupported curve
        y_t, z_t = T**3 - 2 * T, T**4 - T
        c = squarefree_part(resultant((RatFunc(Y) - RatFunc(y_t)).num, (RatFunc(Z) - RatFunc(z_t)).num, "t"))
        monkeypatch.setattr("devsurf.curves._pencil_residual", lambda *args: (T, T, MultiPoly.const(1)))
        with pytest.raises(ArithmeticError):
            parametrize_quartic_adjoint(PlaneCurve(c, None))


class TestSmoothCertificate:
    """The genus certificate: a plane curve proven smooth modulo
    P = 2^61 - 1 is smooth over Q, so only smooth curves are certified."""

    U, W = MultiPoly.var("u"), MultiPoly.var("w")
    P = 2**61 - 1

    @pytest.mark.parametrize(
        "text, genus",
        [("u^3+w^3-1", 1), ("u^4+w^4-1", 3), ("u^5+w^5-1", 6), ("u^3/2+w^3/3-1", 1)],
    )
    def test_smooth_curves_certified_with_genus(self, text, genus):
        c = parse_poly(text, ("u", "w"))
        assert _smooth_genus(c, ("u", "w")) == genus
        with pytest.raises(NotRationalError, match=f"^smooth plane curve of degree {c.total_degree()}, genus {genus}$"):
            parametrize_plane_curve(PlaneCurve(c, None))

    @pytest.mark.parametrize(
        "text",
        [
            "w^2-u^3-u^2",  # nodal cubic
            "w^2-u^3",  # cuspidal cubic
            "(u^2+w^2)^2+3*u^2*w-w^3",  # trifolium: ordinary triple point
            "u^4+w^4-u^2*w^2+w^3",  # triple point with one tangent line
            "u^2*w^2-u^2-w^2",  # trinodal: nodes at 0, (1 : 0 : 0), (0 : 1 : 0)
        ],
    )
    def test_singular_curves_never_certified(self, text):
        assert _smooth_genus(parse_poly(text, ("u", "w")), ("u", "w")) is None

    def test_singular_point_at_infinity_never_certified(self):
        # u^2*w^2 + w^4 + h^4 + u*h^3 - w*h^3 is singular at (1 : 0 : 0), on
        # the line w = 0 of the first shift that keeps every partial's
        # h^3 coefficient nonzero
        c = parse_poly("u^2*w^2+w^4+1+u-w", ("u", "w"))
        assert _smooth_genus(c, ("u", "w")) is None

    def test_bad_reduction_claims_nothing(self):
        # smooth over Q (the cubic u^3 + N*u + N is squarefree, and the
        # point at infinity is a flex), but w^2 = u^3 modulo both primes
        # tried, the factors of N: no claim, and the families' error comes
        # back unchanged
        N = self.P * modulus(1)
        c = self.W**2 - self.U**3 - N * self.U - N
        assert _smooth_genus(c, ("u", "w")) is None
        with pytest.raises(UnsupportedCurveError) as err:
            parametrize_plane_curve(PlaneCurve(c, None))
        assert str(err.value) == (
            "degree-3 curve outside the supported families: no rational (d-1)-fold singular point found"
        )

    def test_bad_reduction_at_the_first_prime_certified_at_the_second(self):
        # w^2 = u^3 mod P, smooth modulo the second prime
        c = self.W**2 - self.U**3 - self.P * self.U - self.P
        assert _smooth_genus(c, ("u", "w")) == 1
        with pytest.raises(NotRationalError, match="^smooth plane curve of degree 3, genus 1$"):
            parametrize_plane_curve(PlaneCurve(c, None))

    def test_nodal_cubic_claims_nothing_at_either_prime(self, monkeypatch):
        moduli = set()
        monkeypatch.setattr(devsurf.curves, "gcd_mod", lambda a, b, p: moduli.add(p) or gcd_mod(a, b, p))
        assert _smooth_genus(parse_poly("w^2-u^3-u^2", ("u", "w")), ("u", "w")) is None
        assert moduli == {self.P, modulus(1)}

    def test_resultant_and_interpolation_mod_p(self):
        # sparse small coefficients make remainder degrees drop by more than
        # one, where the sign and the power of lc(b) matter
        rng = random.Random(4242)
        for _ in range(200):
            a, b = ([rng.choice((-2, -1, 0, 0, 0, 1, 2)) for _ in range(rng.randint(1, 6))] + [rng.choice((-1, 1, 3))] for _ in range(2))
            pa, pb = (MultiPoly(("t",), {(k,): cf for k, cf in enumerate(v)}) for v in (a, b))
            exact = resultant(pa, pb, "t").constant_value()
            assert res_mod([cf % self.P for cf in a], [cf % self.P for cf in b], self.P) == exact % self.P
            values = [sum(cf * x**k for k, cf in enumerate(a)) % self.P for x in range(len(a) + rng.randint(0, 3))]
            interp, node = {}, [1]
            for x, v in enumerate(values):
                node = newton_step(interp, node, x, {0: v}, self.P)
            assert interp.get(0, []) == [cf % self.P for cf in a]

    def test_certified_curves_are_smooth_by_groebner_oracle(self):
        # seeded curves of degree 3 and 4, every third one forced singular at
        # a rational point; each certified curve must have Jacobian ideal
        # [1] in all three affine charts of its projective closure
        import sympy

        u, w, h = sympy.symbols("u w h")
        rng = random.Random(20260811)
        certified = 0
        for k in range(42):
            d = 3 + k % 2
            terms = {}
            for i in range(d + 1):
                for j in range(d + 1 - i):
                    if rng.random() < 0.6:
                        terms[i, j] = Q(rng.randint(-3, 3))
            terms[d, 0], terms[0, d] = Q(rng.choice((-2, -1, 1, 2))), Q(rng.choice((-2, -1, 1, 2)))
            if k % 3 == 0:  # no constant or linear term: singular at the origin
                terms = {e: cf for e, cf in terms.items() if sum(e) >= 2}
                p1, p2 = rng.randint(-2, 2), rng.randint(-2, 2)
            c = MultiPoly(("u", "w"), terms)
            if k % 3 == 0:
                c = c.subs_poly({"u": self.U - p1, "w": self.W - p2})
            genus = _smooth_genus(c, ("u", "w"))
            if genus is None:
                continue
            assert k % 3 and genus == (d - 1) * (d - 2) // 2
            certified += 1
            F = sympy.expand(sympy.sympify(c.to_text().replace("^", "**")).subs({u: u / h, w: w / h}) * h**d)
            jac = [F] + [sympy.diff(F, v) for v in (u, w, h)]
            for chart in (u, w, h):
                rest = [v for v in (u, w, h) if v != chart]
                basis = sympy.groebner([sympy.expand(g.subs(chart, 1)) for g in jac], *rest, order="grevlex")
                assert list(basis.exprs) == [1], (c.to_text(), chart)
        assert certified >= 15


class TestLift:
    def test_lift_through_slanted_plane(self, elliptic_cone):
        plane = X - Z
        frame = plane_frame(plane)
        cp2 = parse_map(map2_with_zero(cases.ELLIPTIC_CONE_SECTION_MAP_2D), params=("t",))
        cp = CurveParam(
            form=tuple(projective_form(cp2.components[:2])),
            names=frame.kept,
            param="t",
            proper=True,
            tracing_index=1,
            source="plane-section",
        )
        lifted = lift_to_space(cp, frame)
        ref = parse_map(cases.ELLIPTIC_CONE_CURVE_3D, params=("t",))
        assert lifted == ref
        assert substitute_map(elliptic_cone, lifted).is_zero()

    def test_lift_through_edge_relation(self):
        h = parse_poly(cases.TANGENT_EDGE_SYSTEM[0], ("x", "y", "z"))
        frame = EdgeFrame(relation=h, kept=("y", "z"), solved="x")
        cp2 = parse_map(map2_with_zero(cases.TANGENT_EDGE_CUBIC_MAP_2D), params=("t",))
        cp = CurveParam(
            form=tuple(projective_form(cp2.components[:2])),
            names=("y", "z"),
            param="t",
            proper=True,
            tracing_index=1,
            source="cuspidal-edge",
        )
        lifted = lift_to_space(cp, frame)
        ref = parse_map(cases.TANGENT_EDGE_MAP, params=("t",))
        assert lifted == ref

    def test_lift_line(self):
        frame = plane_frame(Z)
        cp = CurveParam(
            form=(T, MultiPoly.zero(), MultiPoly.const(1)),
            names=("x", "y"),
            param="t",
            proper=True,
            tracing_index=1,
            source="plane-section",
        )
        lifted = lift_to_space(cp, frame)
        assert lifted == parse_map("(t, 0, 0)", params=("t",))


class TestProperness:
    def test_twisted_cubic_proper(self):
        m = parse_map(cases.TWISTED_CUBIC, params=("t",))
        proper, idx = is_proper_curve(m, "t")
        assert proper and idx == 1

    def test_double_cover_improper(self):
        m = parse_map("(t^2, t^4, t^6)", params=("t",))
        proper, idx = is_proper_curve(m, "t")
        assert not proper and idx == 2

    def test_reference_cylinder_directrix_proper(self):
        m = parse_map(cases.QUARTIC_CYLINDER_DIRECTRIX, params=("t",))
        proper, idx = is_proper_curve(m, "t")
        assert proper and idx == 1

    def test_reference_space_curve_proper(self):
        m = parse_map(cases.ELLIPTIC_CONE_CURVE_3D, params=("t",))
        proper, idx = is_proper_curve(m, "t")
        assert proper and idx == 1


def index_oracle(comps):
    """Tracing index in t as the degree of the exact gcd over Q[t, w] of the
    cross polynomials of all nonconstant components."""
    g = MultiPoly.zero()
    for c in comps:
        if not c.is_constant():
            n2, d2 = c.num.rename_vars({"t": "w"}), c.den.rename_vars({"t": "w"})
            g = gcd_multi(g, c.num * d2 - n2 * c.den)
    return g.degree_in("t")


def seeded_curve_maps():
    """Proper-looking rational maps in t: space curves and plane pairs, with
    common or separate denominators and rational coefficients."""
    rng = random.Random(20260811)
    maps = []
    for _ in range(16):
        m = random_space_curve(rng, rng.randint(1, 3), rng.randint(0, 2), mixed=rng.random() < 0.5)
        comps = [c * Q(rng.randint(1, 5), rng.randint(1, 4)) for c in m.components]
        maps.append(tuple(comps[: rng.choice([2, 3])]))
    return maps


class TestProperImage:
    """The modular certificate of index 1 against the exact bivariate gcd."""

    T = RatFunc(MultiPoly.var("t"))
    REPARAMETRIZATIONS = [
        (T * T, 2),
        ((T * T + 1) / T, 2),
        (T * T * T - T, 3),
        # every image at w0 = 2 loses degree: lc_t of the gcd is -(w - 2)
        ((T - 2) / (T * T + 1), 2),
    ]

    @staticmethod
    def compose(comps, r):
        return tuple(rf_subs(c, {"t": r}) for c in comps)

    @pytest.mark.parametrize("comps", seeded_curve_maps())
    def test_seeded_maps_match_exact_gcd(self, comps):
        idx = index_oracle(comps)
        assert is_proper_curve(projective_form(comps), "t") == (idx == 1, idx)

    @pytest.mark.parametrize("comps", seeded_curve_maps()[:8])
    @pytest.mark.parametrize("r, k", REPARAMETRIZATIONS)
    def test_composed_maps_match_exact_gcd(self, comps, r, k):
        base = index_oracle(comps)
        composed = self.compose(comps, r)
        idx = index_oracle(composed)
        assert idx == k * base
        assert is_proper_curve(projective_form(composed), "t") == (idx == 1, idx)

    def test_drop_in_degree_proves_nothing(self):
        composed = self.compose((self.T, self.T * self.T), (self.T - 2) / (self.T * self.T + 1))
        *X, W = projective_form(composed)
        assert not devsurf.curves._index_one_image(X, W, "t")
        assert is_proper_curve(X + [W], "t") == (False, 2)

    def test_pole_at_the_first_point_is_skipped(self, monkeypatch):
        # both components have a double pole at w0 = 2, where every image
        # would be a multiple of (t - 2)^2
        calls = []
        monkeypatch.setattr(devsurf.curves, "gcd_multi", lambda *a: calls.append(a) or gcd_multi(*a))
        comps = parse_map("((2*t-6)/(t-2)^2, (2*t-8)/(t-2)^2, 0)", params=("t",)).components
        assert devsurf.curves._IMAGE_POINTS[0] == 2
        assert is_proper_curve(projective_form(comps), "t") == (True, 1)
        assert calls == []
        assert index_oracle(comps) == 1

    @staticmethod
    def planted(comps, seed):
        """The projective form of comps with a factor g(t) planted in one
        pair (Xi, W): Xi and W times g, the other entries as they are, so
        the form keeps gcd 1 and the other components gain a pole at g."""
        rng = random.Random(seed)
        form = projective_form(comps)
        while True:
            i = rng.randrange(len(form) - 1)
            if form[i].is_zero():
                continue
            g = T + rng.randint(-3, 3) if rng.random() < 0.5 else T**2 + rng.randint(-3, 3) * T + rng.randint(-3, 3)
            out = [e * g if k in (i, len(form) - 1) else e for k, e in enumerate(form)]
            if gcd_many(out).is_constant():
                return out, i

    @pytest.mark.parametrize("k", range(16))
    def test_unreduced_pair_in_seeded_maps(self, k):
        form, i = self.planted(seeded_curve_maps()[k], k)
        assert not gcd_multi(form[i], form[-1]).is_constant()
        idx = index_oracle([RatFunc(x, form[-1]) for x in form[:-1]])
        assert is_proper_curve(form, "t") == (idx == 1, idx)

    @pytest.mark.parametrize("comps", seeded_curve_maps()[:8])
    @pytest.mark.parametrize("r, k", REPARAMETRIZATIONS)
    def test_unreduced_pair_in_composed_maps(self, comps, r, k):
        # planted before composing, so the map stays a composition with r:
        # the pair (Xi, W) of the composed form shares the numerator of g(r)
        base_form, i = self.planted(comps, k)
        base = [RatFunc(x, base_form[-1]) for x in base_form[:-1]]
        composed = self.compose(base, r)
        form = projective_form(composed)
        assert not gcd_multi(form[i], form[-1]).is_constant()
        idx = index_oracle(composed)
        assert idx == k * index_oracle(base)
        assert is_proper_curve(form, "t") == (idx == 1, idx)

    def test_unreduced_pair_with_pole_at_the_first_point(self, monkeypatch):
        # (t - 2) planted in the first pair: W = (t - 2)^3 still vanishes at
        # w0 = 2, and the certificate at w0 = 3 decides without the gcd
        calls = []
        monkeypatch.setattr(devsurf.curves, "gcd_multi", lambda *a: calls.append(a) or gcd_multi(*a))
        m = parse_map("((2*t-6)/(t-2)^2, (2*t-8)/(t-2)^2, 0)", params=("t",))
        X1, X2, X3, W = m.form
        form = [X1 * (T - 2), X2, X3, W * (T - 2)]
        assert gcd_many(form).is_constant()
        assert is_proper_curve(form, "t") == (True, 1)
        assert calls == []
        assert index_oracle([RatFunc(x, form[-1]) for x in form[:-1]]) == 1

    def test_constant_and_foreign_components(self):
        one = RatFunc(MultiPoly.const(1))
        assert is_proper_curve(projective_form((one, one)), "t") == (False, 0)
        assert is_proper_curve(projective_form((self.T, one)), "t") == (True, 1)
        s = RatFunc(MultiPoly.var("s"))
        assert is_proper_curve(projective_form((self.T * s, self.T * self.T)), "t") == (True, 1)

    def test_cone_pencil_never_reaches_the_gcd(self, monkeypatch):
        from devsurf.implicit import analyze_implicit

        calls = []
        monkeypatch.setattr(devsurf.curves, "gcd_multi", lambda *a: calls.append(a) or gcd_multi(*a))
        a = analyze_implicit(parse_poly(cases.ELLIPTIC_CONE_F, ("x", "y", "z")))
        assert a.parametrization is not None and a.parametrization.verified
        assert calls == []


# The parametrizers' former RatFunc route, kept as the oracle of the
# triples: each family built reduced rational functions, and the lift
# substituted them into the frame.


def old_graph(c, names, t):
    u, w = names
    tv = RatFunc(MultiPoly.var(t))
    for solved, free in ((w, u), (u, w)):
        if c.degree_in(solved) == 1:
            coeffs = c.coeffs_in(solved)
            val = -substitute(coeffs.get(0, MultiPoly.zero()), {free: tv}) / substitute(coeffs[1], {free: tv})
            return (tv, val) if free == u else (val, tv)
    return None


def old_pencil(c, names, point, t):
    u, w = names
    d = c.total_degree()
    p1, p2 = point
    sh = c.subs_poly({u: MultiPoly.var(u) + p1, w: MultiPoly.var(w) + p2})
    forms = {d - 1: {}, d: {}}
    for exps, cf in sh.terms.items():
        e = dict(zip(sh.vars, exps))
        i, j = e.get(u, 0), e.get(w, 0)
        if i + j in forms:
            forms[i + j][(j,)] = cf
    if not forms[d - 1]:
        return None
    lam = RatFunc(-MultiPoly((t,), forms[d - 1]), MultiPoly((t,), forms[d]))
    return RatFunc(MultiPoly.const(p1)) + lam, RatFunc(MultiPoly.const(p2)) + lam * RatFunc(MultiPoly.var(t))


def old_line_pair(c, names, point, t):
    u, w = names
    A, B, C = (c.coeff({u: 2 - j, w: j}) for j in range(3))
    direction = (Q(1), Q(0)) if A == 0 else ((-B + _is_square(B * B - 4 * A * C)) / (2 * A), Q(1))
    return tuple(RatFunc(MultiPoly.const(p) + MultiPoly.var(t) * dv) for p, dv in zip(point, direction))


def old_pencil_residual(c, Qt, names, g, gw, point, t):
    u, w = names
    out = []
    for v, known in ((u, g * g * (MultiPoly.var(u) - point[0])), (w, gw * gw * (MultiPoly.var(w) - point[1]))):
        other = w if v == u else u
        lin = exact_div(resultant(c, Qt, other), known).coeffs_in(v)
        out.append(RatFunc(-lin.get(0, MultiPoly.zero()), lin[1]))
    return tuple(out)


def old_lift(comps, names, frame, t):
    values = dict(zip(names, comps))
    if isinstance(frame, PlaneFrame):
        values[frame.solved] = substitute(frame.expr, values)
    else:
        coeffs = frame.relation.coeffs_in(frame.solved)
        values[frame.solved] = -substitute(coeffs.get(0, MultiPoly.zero()), values) / substitute(coeffs[1], values)
    return RationalMap3([values[n] for n in "xyz"], (t,))


def trinodal_quartic():
    y_t, z_t = T**3 - 2 * T, T**4 - T
    return squarefree_part(resultant(X - y_t, Y - z_t, "t"))


class TestCurveForm:
    """Each family's triple [U : V : W] against the former RatFunc route:
    the same components, and the same lift through a slanted plane and
    through an edge relation."""

    FRAMES = (
        plane_frame(2 * Z - X + 3 * Y - 1),
        # a1 and a0 of unequal degrees: both must be cleared over one power of W
        EdgeFrame(relation=(X + Y + 3) * Z - X * Y**2 + 2, kept=("x", "y"), solved="z"),
    )

    CASES = [
        ("graph-in-y", "x^2*y+y-x^3+1", parametrize_plane_curve, "graph"),
        ("graph-in-x", "x*y^2+x-y^3", parametrize_plane_curve, "graph"),
        ("conic-with-point", "x^2+y^2-1", parametrize_conic, "pencil"),
        ("conic-fractional", "3*x^2-x*y+y^2/2-x-7/2", parametrize_conic, "pencil"),
        ("line-pair", "x^2-y^2", parametrize_conic, "lines"),
        ("line-pair-horizontal", "x*y-y^2", parametrize_conic, "lines"),
        ("triple-point", "x^3-y^4+x*y^3", parametrize_monomial_like, "pencil"),
        ("shifted-cusp", "(y-1)^2-(x+2)^3", parametrize_monomial_like, "pencil"),
        ("chart-w", "y*(x^2+1)+x^3+2*x+3", parametrize_monomial_like, "chart-w"),
        ("chart-w-quartic", "y*(x^3+1)+x^4+x+2", parametrize_monomial_like, "chart-w"),
        ("chart-u", "x*(y^2+1)+y^3+y+3", parametrize_monomial_like, "chart-u"),
        ("quartic-adjoint", None, parametrize_quartic_adjoint, "quartic"),
        ("quartic-adjoint-sheared", "y^4+x^3+7*x*y^2-2*x^2-18*y^2", parametrize_quartic_adjoint, "sheared"),
    ]

    @pytest.mark.parametrize("text, family, route", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
    def test_triple_matches_ratfunc_route(self, monkeypatch, text, family, route):
        c = parse_poly(text, ("x", "y")) if text else trinodal_quartic()
        spied = {}
        for name in ("_pencil", "_pencil_residual"):

            def spy(*args, _name=name, _real=getattr(devsurf.curves, name)):
                spied[_name] = args  # the last call builds the result
                return _real(*args)

            monkeypatch.setattr(devsurf.curves, name, spy)
        cp = family(PlaneCurve(c, None))
        U, V, W = cp.form
        assert gcd_many([U, V, W]).is_constant()
        coeffs = [cf for e in cp.form for cf in e.terms.values()]
        assert all(type(cf) is int for cf in coeffs) and math.gcd(*coeffs) == 1
        assert W.leading()[1] > 0
        assert cp.names == ("x", "y") and cp.param == "t"

        if route == "graph":
            old = old_graph(c, cp.names, "t")
        elif route in ("quartic", "sheared"):
            args = spied["_pencil_residual"]
            u_t, w_t = old_pencil_residual(*args)
            k = next(k for k in range(4) if c.subs_poly({"x": X + k * Y}) == args[0])
            assert (k > 0) == (route == "sheared")
            old = (u_t + w_t * k, w_t)
        else:
            args = spied["_pencil"]
            if route == "lines":
                assert old_pencil(*args) is None
                old = old_line_pair(*args)
            else:
                old = old_pencil(*args)
                if route == "chart-w":
                    old = (old[0] / old[1], 1 / old[1])
                elif route == "chart-u":
                    old = (1 / old[1], old[0] / old[1])
        assert (RatFunc(U, W), RatFunc(V, W)) == old
        assert on_curve(cp, c)
        for frame in self.FRAMES:
            assert lift_to_space(cp, frame) == old_lift(old, cp.names, frame, "t")


class TestImplicitizeRoundTrip:
    def test_conic_reparametrization_same_implicit_curve(self):
        # implicitize a known conic parametrization, re-parametrize the
        # curve, implicitize again: the curves agree exactly
        circle = parse_map(map2_with_zero("( (1-t^2)/(1+t^2), 2*t/(1+t^2) )"), params=("t",))
        ex = (RatFunc(X) - circle.components[0]).num
        ey = (RatFunc(Y) - circle.components[1]).num
        conic = squarefree_part(resultant(ex, ey, "t"))
        cp = parametrize_conic(PlaneCurve(conic, None))
        U, V, W = cp.form
        ex2 = (RatFunc(X) - RatFunc(U, W)).num
        ey2 = (RatFunc(Y) - RatFunc(V, W)).num
        conic2 = squarefree_part(resultant(ex2, ey2, "t"))
        assert conic2 == conic.normalized()


class TestSectionMachinery:
    def test_section_skips_contained_plane(self):
        F = Z * (X**2 + Y**2 - 1)
        assert section_implicit(F, Z) is None

    def test_conic_with_real_but_no_rational_points(self):
        # x^2 + y^2 = 3 * 7^2: real points, but 3 = 3 mod 4 rules out rational ones
        with pytest.raises(NotRationalError, match="not a square modulo 3"):
            parametrize_conic(PlaneCurve(X**2 + Y**2 - 147, None), budget=30)

    def test_rational_point_search_budget_error(self):
        # x^2 + y^2 = 1009 has the rational point (28, 15), of height beyond
        # the sweep at budget 30 and at the default 200
        c = X**2 + Y**2 - 1009
        for budget in (30, 200):
            assert rational_point_on_curve(c, ("x", "y"), budget=budget) is None
            with pytest.raises(PointSearchExhaustedError, match="has a rational point"):
                parametrize_conic(PlaneCurve(c, None), budget=budget)


class TestLegendre:
    """The conic rational-point decision against brute-force oracles."""

    def test_diagonal_forms_match_holzer_oracle(self):
        rng = random.Random(20260811)
        nonzero = [v for v in range(-30, 31) if v]
        for _ in range(300):
            a, b, c = (rng.choice(nonzero) for _ in range(3))
            assert legendre(a, b, c)[0] is ternary_form_solvable(a, b, c), (a, b, c)

    def test_nondiagonal_conics_match_holzer_oracle(self):
        # M = U^T diag(a, b, c) U with det U != 0 has a rational zero exactly
        # when the diagonal form does; the decision sees only the affine
        # conic of M, divided by a small integer
        rng = random.Random(4242)
        nonzero = [v for v in range(-12, 13) if v]
        v = (X, Y, MultiPoly.const(1))
        checked = 0
        while checked < 120:
            d = [rng.choice(nonzero) for _ in range(3)]
            u = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
            det = (
                u[0][0] * (u[1][1] * u[2][2] - u[1][2] * u[2][1])
                - u[0][1] * (u[1][0] * u[2][2] - u[1][2] * u[2][0])
                + u[0][2] * (u[1][0] * u[2][1] - u[1][1] * u[2][0])
            )
            if det == 0:
                continue
            m = [[sum(u[k][i] * d[k] * u[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
            c = sum(
                (v[i] * v[j] * m[i][j] for i in range(3) for j in range(3)), MultiPoly.zero()
            ) * Q(1, rng.randint(1, 6))
            if c.total_degree() != 2:
                continue
            expected = ternary_form_solvable(*d)
            assert _conic_point_decision(c, ("x", "y"))[0] is expected, (d, u)
            if checked < 30:
                try:
                    cp = parametrize_conic(PlaneCurve(c, None), budget=30)
                except NotRationalError:
                    assert not expected, (d, u)
                except PointSearchExhaustedError as err:
                    assert expected and "has a rational point" in str(err), (d, u)
                else:
                    assert expected and on_curve(cp, c), (d, u)
            checked += 1

    def test_conics_with_zero_pivots(self):
        # a zero in the matrix diagonal is a rational point at infinity
        for c in (X * Y - 1, 2 * X * Y - 2 * Y**2 - 1, Y**2 - X, X * Y + Y**2 + X + 3):
            assert _conic_point_decision(c, ("x", "y"))[0] is True, c
        assert _conic_point_decision(X * Y, ("x", "y"))[0] is None

    def test_factor_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(11)
        samples = [1, 2, 97, 2**61 - 1, 999983**3, 2**10 * 3**7 * 1009**2]
        # a strong pseudoprime to the bases 2, 3, ..., 23
        samples.append(3825123056546413051)
        samples += [rng.randint(1, 10**12) for _ in range(150)]
        for _ in range(30):
            samples.append(
                sympy.prod(sympy.randprime(2, 10**7) for _ in range(rng.randint(2, 3)))
            )
        for n in samples:
            assert factor(int(n)) == sympy.factorint(n), n

    def test_probable_primes_are_never_taken_for_primes(self):
        # strong pseudoprime to the bases 2, ..., 37; base 41 exposes it
        assert not is_prime(318665857834031151167461)
        # strong pseudoprime to all 13 bases, hence the exactness bound
        assert factor(3317044064679887385961981) is None

    def test_large_semiprime_coefficient_is_undecided_within_bounds(self):
        # two 12-digit factors: below the primality bound, beyond rho's budget
        start = time.perf_counter()
        assert factor(399165290221 * 798330580441) is None
        # two 20-digit factors: the product is past the primality bound
        c = X**2 + Y**2 - 10000000000000000051 * 30000000000000000041
        assert _conic_point_decision(c, ("x", "y"))[0] is None
        with pytest.raises(PointSearchExhaustedError, match="not found within the search budget"):
            parametrize_conic(PlaneCurve(c, None))
        assert time.perf_counter() - start < 10


@pytest.mark.parametrize("module", ["curves", "implicit"])
def test_curve_modules_never_touch_the_ratfunc_route(module):
    # a plane curve is one projective triple from parametrizer to lift:
    # these modules import, bind and name none of the RatFunc route
    banned = {"RatFunc", "substitute", "compose_is_zero"}
    tree = ast.parse((Path(devsurf.curves.__file__).parent / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found = {alias.name.split(".")[-1] for alias in node.names} & banned
        elif isinstance(node, ast.Name):
            found = {node.id} & banned
        elif isinstance(node, ast.Attribute):
            found = {node.attr} & banned
        else:
            continue
        assert not found, f"{module}.py line {node.lineno}: {sorted(found)}"


class TestRecords:
    def test_plane_frame(self):
        frame = plane_frame(X + Y + Z - 1)
        fields = dict(plane=frame.plane, kept=("x", "y"), solved="z", expr=1 - X - Y)
        assert frame == PlaneFrame(**fields)
        check_frozen_record(PlaneFrame, fields, dict(plane=X, kept=("y", "x"), solved="y", expr=X))

    def test_edge_frame(self):
        fields = dict(relation=X * Z - Y, kept=("x", "y"), solved="z")
        check_frozen_record(EdgeFrame, fields, dict(relation=Z, kept=("y", "x"), solved="x"))

    def test_plane_curve(self):
        fields = dict(poly=X**2 - Y, frame=EdgeFrame(X * Z - Y, ("x", "y"), "z"))
        curve = check_frozen_record(PlaneCurve, fields, dict(poly=X - Y, frame=None))
        assert curve.names == ("x", "y")
        assert PlaneCurve(Y - Z**2) == PlaneCurve(Y - Z**2, None) and PlaneCurve(Y - Z**2).names == ("y", "z")

    def test_curve_param(self):
        cp = parametrize_plane_curve(PlaneCurve(Y - X**2), param="t")
        fields = dict(form=cp.form, names=("x", "y"), param="t", proper=True, tracing_index=1, source=cp.source)
        assert cp == CurveParam(*fields.values())
        changed = dict(form=(T, T, T), names=("y", "x"), param="s", proper=False, tracing_index=2, source="other")
        check_frozen_record(CurveParam, fields, changed)


def old_planes():
    """The candidate section planes as sums of var * n products: the
    oracle of the term table ``curves._PLANES``."""
    return tuple(
        (sum((MultiPoly.var(v) * n for v, n in zip("xyz", normal)), MultiPoly.const(-c)), normal, -c)
        for c in (0, 1, -1, 2, -2, 3, -3)
        for normal in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, -1), (1, 1, 1))
    )


def test_plane_table_matches_the_arithmetic_construction():
    table = devsurf.curves.plane_candidates(35)
    assert table == old_planes() and len(table) == 35
    assert devsurf.curves.plane_candidates(0) == table[:1] and devsurf.curves.plane_candidates(7) == table[:7]
    for (plane, normal, b), (old, _, _) in zip(table, old_planes()):
        assert plane.vars == tuple(v for v, n in zip("xyz", normal) if n)
        assert list(plane.terms.items()) == list(old.terms.items())
        assert all(type(c) is int for c in (*plane.terms.values(), *normal, b))
