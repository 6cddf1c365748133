"""Standard-form assembly, implicitization, verification, refinement."""

import random

import pytest

from devsurf.poly import MultiPoly, Q, squarefree_part
from devsurf.ratfunc import RatFunc, RationalMap3, cross3
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
from conftest import random_cone, random_cylinder, random_space_curve, random_tangent_surface
import cases

X, Y, Z, T = (MultiPoly.var(v) for v in "xyzt")
CIRCLE_Z1 = "( (1-t^2)/(1+t^2), 2*t/(1+t^2), 1 )"


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
            at_base = comp.subs({"s": RatFunc(MultiPoly.zero())})
            assert at_base.is_zero()


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


class TestReduceDirectrix:
    def test_minimal_unchanged(self):
        cone = build_conical((0, 0, 0), parse_map(CIRCLE_Z1, params=("t",)))
        reduced = reduce_directrix(cone)
        assert reduced.p0 == cone.p0 and not reduced.refined

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
