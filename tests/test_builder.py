"""Standard-form assembly, implicitization, verification, refinement."""

import random

import pytest

from devsurf.poly import MultiPoly, Q, gcd_multi, squarefree_part
from devsurf.ratfunc import RatFunc, RationalMap3, cross3, substitute_map_is_zero
from devsurf.exprs import parse_map, parse_poly
from devsurf.errors import DevsurfError
from devsurf.builder import (
    ParamResult,
    build_conical,
    build_cylindrical,
    build_tangential,
    implicitize_ruled,
    reduce_directrix,
    ruling_triple_product,
    verify_on_surface,
)
from conftest import check_frozen_record, random_cone, random_cylinder, random_space_curve, random_tangent_surface, rf_sub
import cases

X, Y, Z, T = (MultiPoly.var(v) for v in "xyzt")
CIRCLE_Z1 = "( (1-t^2)/(1+t^2), 2*t/(1+t^2), 1 )"
EQUATOR = "( (1-t^2)/(1+t^2), 2*t/(1+t^2), 0 )"
# a homogeneous form G(x, y, z) and a curve (X, Y, W)(t) with G(X, Y, W) == 0:
# two rational conics, a cuspidal and a nodal cubic
PLANE_CURVES = [
    ("x*z - y^2", ("1", "t", "t^2")),
    ("x^2 + y^2 - z^2", ("1 - t^2", "2*t", "1 + t^2")),
    ("y^2*z - x^3", ("t^2", "t^3", "1")),
    ("y^2*z - x^2*(x + z)", ("t^2 - 1", "t^3 - t", "1")),
]


def _matmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def _unimodular(rng):
    """A seeded integer matrix L*U of determinant 1 and its inverse."""
    a, b, c, d, e, f = (rng.randint(-2, 2) for _ in range(6))
    L, L_inv = [[1, 0, 0], [a, 1, 0], [b, c, 1]], [[1, 0, 0], [-a, 1, 0], [a * c - b, -c, 1]]
    U, U_inv = [[1, d, e], [0, 1, f], [0, 0, 1]], [[1, -d, d * f - e], [0, 1, -f], [0, 0, 1]]
    return _matmul(L, U), _matmul(U_inv, L_inv)


def _curve(nums, den):
    return RationalMap3([RatFunc(n, den) for n in nums], ("t",))


class TestBuildConical:
    def test_reference_cone_assembly(self, elliptic_cone):
        curve = parse_map(cases.ELLIPTIC_CONE_CURVE_3D, params=("t",))
        result = build_conical((Q(1, 2), Q(1, 3), 0), curve)
        assert result.kind == "Conical"
        ref = parse_map(cases.ELLIPTIC_CONE_FULL_MAP, params=("s", "t"))
        assert result.full_map() == ref
        assert verify_on_surface(result, elliptic_cone)

    def test_quadric_cone_implicitization(self):
        curve = parse_map(CIRCLE_Z1, params=("t",))
        result = build_conical((0, 0, 0), curve)
        F = implicitize_ruled(result)
        assert F == (X**2 + Y**2 - Z**2).normalized()

    def test_apex_on_curve_rejected(self):
        curve = parse_map(cases.TWISTED_CUBIC, params=("t",))
        with pytest.raises(DevsurfError, match="apex"):
            build_conical((1, 1, 1), curve)  # t = 1 maps there


class TestBuildCylindrical:
    def test_reference_cylinder_assembly(self, quartic_cylinder):
        directrix = parse_map(cases.QUARTIC_CYLINDER_DIRECTRIX, params=("t",))
        result = build_cylindrical(cases.QUARTIC_CYLINDER_DIRECTION, directrix)
        assert result.kind == "Cylindrical"
        assert verify_on_surface(result, quartic_cylinder)

    def test_circular_cylinder_implicitization(self):
        circle = parse_map("( (1-t^2)/(1+t^2), 2*t/(1+t^2), 0 )", params=("t",))
        result = build_cylindrical((0, 0, 1), circle)
        F = implicitize_ruled(result)
        assert F == (X**2 + Y**2 - 1).normalized()

    def test_plane_not_parallel_to_direction_accepted(self):
        # directrix in the plane x = 0, rulings along (1, 0, 0)
        directrix = parse_map("( 0, t, t^2 )", params=("t",))
        result = build_cylindrical((1, 0, 0), directrix)
        assert verify_on_surface(result, implicitize_ruled(result))

    def test_directrix_along_ruling_rejected(self):
        line = parse_map("( t, t, t )", params=("t",))
        with pytest.raises(DevsurfError, match="parallel"):
            build_cylindrical((1, 1, 1), line)


class TestHomogeneousBuilders:
    """build_conical and build_cylindrical decide on the homogeneous form
    X/W of the directrix; the RatFunc cross products they replace are the
    oracle, on seeded curves with nonconstant denominators."""

    @staticmethod
    def seeded(seed, count=15):
        rng = random.Random(seed)
        for _ in range(count):
            curve = random_space_curve(rng, rng.randint(1, 3), den_deg=rng.randint(1, 2))
            point = [Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
            yield rng, curve, point

    def test_cone_identity_matches_ratfunc_cross(self):
        # p1 x curve' == (n x n')/W^2 for p1 = curve - a = n/W
        for _, curve, a in self.seeded(20260811):
            *X, W = curve.form
            assert not W.is_constant()
            n = [x - ai * W for x, ai in zip(X, a)]
            p1 = rf_sub(curve, RationalMap3.constant(a, ("t",)))
            oracle = cross3(p1.components, curve.derivative("t").components)
            assert [RatFunc(c, W * W) for c in cross3(n, [c.derivative("t") for c in n])] == list(oracle)

    def test_cylinder_identity_matches_ratfunc_cross(self):
        # curve' x v == ((X'W - XW') x v)/W^2
        for _, curve, v in self.seeded(4242):
            *X, W = curve.form
            tangent = [x.derivative("t") * W - x * W.derivative("t") for x in X]
            oracle = cross3(curve.derivative("t").components, [RatFunc(c) for c in v])
            assert [RatFunc(c, W * W) for c in cross3(tangent, v)] == list(oracle)

    def test_builds_agree_with_ratfunc_route(self):
        # both degeneracy verdicts, on general curves and on curves forced
        # onto a ruling, against the RatFunc cross products
        for rng, curve, a in self.seeded(1, 20):
            v = [rng.randint(-2, 2) for _ in range(3)]
            if not any(v):
                v[0] = 1
            r = RatFunc(MultiPoly.const(rng.randint(1, 3)), random_space_curve(rng, 2).components[0].num)
            if r.is_constant():
                continue
            line = RationalMap3([RatFunc(MultiPoly.const(ai)) + r * vi for ai, vi in zip(a, v)], ("t",))
            for c in (curve, line):
                p1 = rf_sub(c, RationalMap3.constant(a, ("t",)))
                cone_flat = all(x.is_zero() for x in cross3(p1.components, c.derivative("t").components))
                cyl_flat = all(x.is_zero() for x in cross3(c.derivative("t").components, [RatFunc(vi) for vi in v]))
                assert cone_flat == cyl_flat == (c is line)
                for build, arg, flat in ((build_conical, a, cone_flat), (build_cylindrical, v, cyl_flat)):
                    try:
                        build(arg, c)
                    except DevsurfError as err:
                        assert flat and "degenerates" in str(err)
                    else:
                        assert not flat

    def test_cone_over_a_ruling_rejected(self):
        # c = a + r(t)*v with r = 2/(t^2 + 1): every point on one ruling,
        # and r has no zero, so the apex check passes first
        a, v = (Q(1, 2), -1, 3), (2, 1, -1)
        r = RatFunc(MultiPoly.const(2), T**2 + 1)
        curve = RationalMap3([RatFunc(MultiPoly.const(ai)) + r * vi for ai, vi in zip(a, v)], ("t",))
        with pytest.raises(DevsurfError, match="^cone degenerates: directrix runs along a single ruling$"):
            build_conical(a, curve)

    def test_cylinder_over_a_ruling_rejected(self):
        # c = p + r(t)*v with r = (t^3 - t)/(t^2 + 3)
        p, v = (0, Q(-2, 3), 5), (1, -1, -1)
        r = RatFunc(T**3 - T, T**2 + 3)
        curve = RationalMap3([RatFunc(MultiPoly.const(pi)) + r * vi for pi, vi in zip(p, v)], ("t",))
        with pytest.raises(DevsurfError, match="^cylinder degenerates: directrix is parallel to the rulings$"):
            build_cylindrical(v, curve)

    def test_apex_on_rational_directrix_rejected(self):
        # the circle through the apex (1, 0, 1), reached at t = 0
        with pytest.raises(DevsurfError, match="^directrix passes through the apex$"):
            build_conical((1, 0, 1), parse_map(CIRCLE_Z1, params=("t",)))
        with pytest.raises(DevsurfError, match="^directrix passes through the apex$"):
            build_conical((1, 2, 3), parse_map("( 1, 2, 3 )", params=("t",)))

    def test_full_map_is_reduced_sum(self):
        # p0(t) + s*p1(t) pointwise, each component in lowest terms
        for rng, curve, a in self.seeded(2024):
            v = [rng.randint(-2, 2) for _ in range(2)] + [1]
            built = []
            for build, args in ((build_cylindrical, (v, curve)), (build_conical, (a, curve)), (build_tangential, (curve,))):
                try:
                    built.append(build(*args))
                except DevsurfError:
                    pass
            assert built
            for p in built:
                full = p.full_map()
                for c in full.components:
                    assert gcd_multi(c.num, c.den).is_constant()
                for s, t in ((Q(1, 2), Q(-3)), (Q(-2), Q(5, 7)), (Q(0), Q(1, 3))):
                    p0, p1 = p.p0.eval_all({"t": t}), p.p1.eval_all({"t": t})
                    if p0 is not None and p1 is not None:
                        assert full.eval_all({"s": s, "t": t}) == tuple(x + s * y for x, y in zip(p0, p1))


class TestBuildTangential:
    def test_reference_edge(self, tangent_quartic):
        edge = parse_map(cases.TANGENT_EDGE_MAP, params=("t",))
        result = build_tangential(edge)
        assert result.p1 == edge.derivative("t")
        assert verify_on_surface(result, tangent_quartic)

    def test_twisted_cubic_direct_derivative(self):
        edge = parse_map(cases.TWISTED_CUBIC, params=("t",))
        result = build_tangential(edge)
        expected = parse_map("( t + s, t^2 + 2*s*t, t^3 + 3*s*t^2 )", params=("s", "t"))
        assert result.full_map() == expected

    def test_planar_edge_rejected(self):
        flat = parse_map("( t, t^2, 0 )", params=("t",))
        with pytest.raises(DevsurfError, match="planar"):
            build_tangential(flat)

    def test_tangent_surface_singular_along_base(self):
        # the normal of edge + s*edge' vanishes identically at s = 0
        edge = parse_map(cases.TWISTED_CUBIC, params=("t",))
        result = build_tangential(edge)
        full = result.full_map()
        Ps = full.derivative("s")
        Pt = full.derivative("t")
        normal = cross3(Ps.components, Pt.components)
        for comp in normal:
            assert comp.num.eval_partial({"s": 0}).is_zero()


class TestImplicitize:
    def test_tangent_reference_quartic(self):
        edge = parse_map(cases.TANGENT_DEV_EDGE, params=("t",))
        result = build_tangential(edge)
        F = implicitize_ruled(result)
        target = parse_poly(cases.TANGENT_DEV_IMPLICIT, ("x", "y", "z"))
        assert F == target.normalized()

    def test_verify_round_trip_property(self):
        rng = random.Random(23)
        for _ in range(4):
            curve = random_space_curve(rng, 2)
            try:
                result = build_cylindrical((0, 1, 1), curve)
            except DevsurfError:
                continue
            F = implicitize_ruled(result)
            assert verify_on_surface(result, F)

    @pytest.mark.parametrize(
        "p0, p1",
        [
            ("( t, t, t )", "( 1, 1, 1 )"),  # every ruling is the line x = y = z
            ("( t, t^2, t^3 )", "( 0, 0, 0 )"),  # no ruling direction at all
        ],
    )
    def test_degenerate_lines_rejected(self, p0, p1):
        lines = ParamResult(parse_map(p0, params=("t",)), parse_map(p1, params=("t",)), "Cylindrical")
        with pytest.raises(DevsurfError, match="surface"):
            implicitize_ruled(lines)

    def test_sympy_oracle(self):
        sympy = pytest.importorskip("sympy")

        def to_sympy(poly):
            return sympy.Add(*(
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(sympy.Symbol(v) ** e for v, e in zip(poly.vars, exps)))
                for exps, c in poly.terms.items()
            ))

        rng = random.Random(2001)
        surfaces = [random_cone(rng, 2)[0], random_cone(rng, 3)[0], random_cylinder(rng, 2)[0],
                    random_cylinder(rng, 3)[0], random_tangent_surface(rng, 3)[0],
                    random_tangent_surface(rng, 2, with_denominator=True)[0],
                    build_tangential(parse_map("( 1/t, t^2/(t+1), t^3 )", params=("t",)))]
        improper = parse_map("( (1-t^4)/(1+t^4), 2*t^2/(1+t^4), 1 )", params=("t",))
        cone = build_conical((0, 0, 0), improper)
        assert implicitize_ruled(cone) == (X**2 + Y**2 - Z**2).normalized()
        for built in surfaces + [cone]:
            F = to_sympy(implicitize_ruled(built))
            _, factors = sympy.factor_list(F)
            assert len(factors) == 1 and factors[0][1] == 1
            point = [to_sympy(c.num) / to_sympy(c.den) for c in built.full_map().components]
            assert sympy.cancel(F.subs(dict(zip(sympy.symbols("x y z"), point)), simultaneous=True)) == 0


class TestVerify:
    def test_reference_pairs(self, elliptic_cone, quartic_cylinder):
        cone_map = parse_map(cases.ELLIPTIC_CONE_CURVE_3D, params=("t",))
        cone = build_conical((Q(1, 2), Q(1, 3), 0), cone_map)
        assert verify_on_surface(cone, elliptic_cone)
        cyl = build_cylindrical(
            cases.QUARTIC_CYLINDER_DIRECTION,
            parse_map(cases.QUARTIC_CYLINDER_DIRECTRIX, params=("t",)),
        )
        assert verify_on_surface(cyl, quartic_cylinder)

    def test_mismatch_detected(self, sphere):
        cone = build_conical((0, 0, 0), parse_map(CIRCLE_Z1, params=("t",)))
        assert not verify_on_surface(cone, sphere)

    def test_cone_needs_homogeneity_about_its_apex(self, sphere):
        # the equator lies on the sphere, so F(directrix) == 0, but the cone
        # from (0, 0, 2) over it does not: Euler's identity must fail it
        equator = parse_map(EQUATOR, params=("t",))
        cone = build_conical((0, 0, 2), equator)
        assert substitute_map_is_zero(sphere, equator)
        assert not verify_on_surface(cone, sphere)

    def test_cylinder_needs_its_direction_in_the_kernel(self, sphere):
        # F(directrix) == 0 again, but v.grad F = 2z is not zero
        cyl = build_cylindrical((0, 0, 1), parse_map(EQUATOR, params=("t",)))
        assert substitute_map_is_zero(sphere, cyl.p0)
        assert not verify_on_surface(cyl, sphere)

    @pytest.mark.parametrize("seed", [3, 17, 2024])
    @pytest.mark.parametrize("form, curve", PLANE_CURVES, ids=["conic", "circle", "cuspidal", "nodal"])
    def test_one_parameter_agrees_with_two_parameter_grid(self, seed, form, curve):
        rng = random.Random(seed)
        M, M_inv = _unimodular(rng)
        assert _matmul(M, M_inv) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        a = [Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)]
        G = parse_poly(form, ("x", "y", "z"))
        X_, Y_, W_ = (parse_poly(c, ("t",)) for c in curve)
        w = [sum((M_inv[i][j] * (v - aj) for j, (v, aj) in enumerate(zip((X, Y, Z), a))), MultiPoly.zero())
             for i in range(3)]
        e1 = [M[i][0] for i in range(3)]

        # the cone with apex a over the model curve scaled by a seeded h(t)
        F = G.subs_poly(dict(zip("xyz", w)))
        h = T**2 + rng.randint(1, 3) if rng.random() < 0.5 else MultiPoly.const(1)
        model = (X_, Y_, W_)
        D = _curve([a[i] * h + sum(M[i][j] * model[j] for j in range(3)) for i in range(3)], h)
        off = _curve([(a[i] + e1[i]) * h + sum(M[i][j] * model[j] for j in range(3)) for i in range(3)], h)
        apex = RationalMap3.constant(a, ("t",))
        wrong = RationalMap3.constant([ai + ei for ai, ei in zip(a, e1)], ("t",))
        cones = [
            (ParamResult(apex, rf_sub(D, apex), "Conical"), True),
            (ParamResult(wrong, rf_sub(D, wrong), "Conical"), False),  # a wrong apex
            (ParamResult(apex, rf_sub(off, apex), "Conical"), False),  # a directrix off the surface
        ]

        # the cylinder along v = M e3 over the model curve in w3 = 0
        F_cyl = G.subs_poly({"z": MultiPoly.const(1)}).subs_poly({"x": w[0], "y": w[1]})
        v = RationalMap3.constant([M[i][2] for i in range(3)], ("t",))
        D = _curve([a[i] * W_ + M[i][0] * X_ + M[i][1] * Y_ for i in range(3)], W_)
        off = _curve([(a[i] + e1[i]) * W_ + M[i][0] * X_ + M[i][1] * Y_ for i in range(3)], W_)
        tilted = RationalMap3.constant([M[i][2] + M[i][0] for i in range(3)], ("t",))
        cylinders = [
            (ParamResult(D, v, "Cylindrical"), True),
            (ParamResult(D, tilted, "Cylindrical"), False),  # a wrong direction
            (ParamResult(off, v, "Cylindrical"), False),  # a directrix off the surface
        ]
        for surface, maps in ((F, cones), (F_cyl, cylinders)):
            for p, expected in maps:
                assert substitute_map_is_zero(surface, p.full_map()) is expected
                assert verify_on_surface(p, surface) is expected


class TestReduceDirectrix:
    def test_minimal_unchanged(self):
        cone = build_conical((0, 0, 0), parse_map(CIRCLE_Z1, params=("t",)))
        reduced = reduce_directrix(cone)
        assert reduced.p0 == cone.p0 and not reduced.refined

    def test_cone_returned_without_division(self, monkeypatch):
        # a cone's p0 is its apex, of degree 0 already: no ratio is formed
        divisions = []
        truediv = RatFunc.__truediv__

        def spy(self, other):
            divisions.append(other)
            return truediv(self, other)

        cone = build_conical((1, -2, Q(1, 3)), parse_map(CIRCLE_Z1, params=("t",)))
        cylinder = build_cylindrical((0, 1, 1), parse_map("( t, t^2, 0 )", params=("t",)))
        monkeypatch.setattr(RatFunc, "__truediv__", spy)
        assert reduce_directrix(cone) is cone
        assert divisions == []
        # a cylinder still forms its ratios, so the spy does see divisions
        reduce_directrix(cylinder)
        assert divisions

    def test_adversarial_degrees_drop_back(self):
        rng = random.Random(4)
        base = parse_map("( t, t^2, 1 )", params=("t",))
        direction = (0, 0, 1)
        plain = build_cylindrical(direction, base)
        q = RatFunc(T**3 - 2 * T)
        inflated_p0 = RationalMap3(
            [a + q * b for a, b in zip(plain.p0.components, plain.p1.components)], ("t",)
        )
        inflated = ParamResult(p0=inflated_p0, p1=plain.p1, kind="Cylindrical")
        reduced = reduce_directrix(inflated)
        before = max(max(c.num.degree_in("t"), c.den.degree_in("t")) for c in inflated_p0.components)
        after = max(max(c.num.degree_in("t"), c.den.degree_in("t")) for c in reduced.p0.components)
        assert before == 3 and after == 2  # back to the degrees of the base
        assert implicitize_ruled(reduced) == implicitize_ruled(plain)

    def test_reference_refinement_same_surface(self, tangent_quartic):
        edge = parse_map(cases.TANGENT_EDGE_MAP, params=("t",))
        mine = reduce_directrix(build_tangential(edge))
        ref_p0 = parse_map(cases.TANGENT_REFINED_P0, params=("t",))
        ref_p1 = parse_map(cases.TANGENT_REFINED_P1, params=("t",))
        published = ParamResult(p0=ref_p0, p1=ref_p1, kind="Tangential", refined=True)
        mine_F = implicitize_ruled(mine)
        published_F = implicitize_ruled(published)
        assert mine_F == published_F
        assert mine_F == squarefree_part(tangent_quartic)
        # refinement really dropped the directrix degrees
        deg = max(max(c.num.degree_in("t"), c.den.degree_in("t")) for c in mine.p0.components)
        assert deg <= 2


class TestTripleProduct:
    def test_vanishes_for_all_builds(self):
        cone = build_conical((0, 0, 1), parse_map(CIRCLE_Z1, params=("t",)))
        cyl = build_cylindrical((0, 0, 1), parse_map("( t, t^2, 0 )", params=("t",)))
        tan = build_tangential(parse_map(cases.TWISTED_CUBIC, params=("t",)))
        for built in (cone, cyl, tan):
            assert ruling_triple_product(built.p0, built.p1).is_zero()

    def test_nonzero_for_skew_ruled(self):
        # hyperbolic paraboloid in standard ruled form
        p0 = parse_map("( 0, t, 0 )", params=("t",))
        p1 = parse_map("( 1, 0, t )", params=("t",))
        assert not ruling_triple_product(p0, p1).is_zero()


class TestParamResultRecord:
    def fields(self):
        built = build_conical((0, 0, 1), parse_map(CIRCLE_Z1, params=("t",)))
        return dict(p0=built.p0, p1=built.p1, kind="Conical", verified=False, certificate="", refined=False)

    def test_frozen_record(self):
        fields = self.fields()
        changed = dict(p0=fields["p1"], p1=fields["p0"], kind="Cylindrical", verified=True, certificate="c", refined=True)
        check_frozen_record(ParamResult, fields, changed)
        assert ParamResult(fields["p0"], fields["p1"], "Conical") == ParamResult(**fields)

    def test_with_verification_returns_a_new_record(self):
        fields = self.fields()
        result = ParamResult(**{**fields, "refined": True})
        verified = result.with_verification("proof")
        assert type(verified) is ParamResult and verified is not result
        assert verified == ParamResult(**{**fields, "refined": True, "verified": True, "certificate": "proof"})
        assert result == ParamResult(**{**fields, "refined": True})
        assert verified.full_map() == result.full_map()
