"""Parametric pipeline: K(s,t), tangent-plane fixed point, ruling kernel,
singular parameter loci, cuspidal edges, rebuild with verification."""

import contextlib
import io
import itertools
import json
import random
from pathlib import Path

import pytest

from devsurf.poly import MultiPoly, Q, det3
from devsurf.ratfunc import RatFunc, RationalMap3, cross3, dot3, substitute, substitute_map_is_zero
from devsurf.exprs import parse_map, parse_poly
from devsurf.errors import DegenerateInputError, DevsurfError
from devsurf.builder import (
    affine_plane,
    build_conical,
    build_cylindrical,
    build_tangential,
    implicitize_ruled,
    ruling_triple_product,
)
from devsurf.parametric import (
    _parameter_lines,
    analyze_parametric,
    cuspidal_edge,
    detect_apex_parametric,
    detect_direction_parametric,
    gaussian_form_parametric,
    section_parametric,
    singular_parameter_locus,
    surface_normal,
)
from devsurf.curves import is_proper_curve
from devsurf.implicit import SurfaceClass, admissible_planes
from devsurf.cli import main as cli_main

from conftest import random_cone, random_cylinder, random_space_curve, random_tangent_surface, rf_derivative
import cases

X, Y, Z = (MultiPoly.var(v) for v in "xyz")


def k_oracle(P: RationalMap3) -> bool:
    """Independent developability form: naive RatFunc cross products and a
    cofactor determinant written out by hand."""
    Ps = [rf_derivative(c, "s") for c in P.components]
    Pt = [rf_derivative(c, "t") for c in P.components]
    l = Ps[1] * Pt[2] - Ps[2] * Pt[1]
    m = Ps[2] * Pt[0] - Ps[0] * Pt[2]
    n = Ps[0] * Pt[1] - Ps[1] * Pt[0]
    rows = [(rf_derivative(c, "s"), rf_derivative(c, "t"), c) for c in (l, m, n)]
    det = (
        rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
    )
    return det.is_zero()


class TestGaussianForm:
    def test_reference_cone_map_is_developable(self, improper_cone_map):
        assert gaussian_form_parametric(improper_cone_map).is_zero()

    def test_plane_is_developable(self):
        P = parse_map(cases.PLANE_MAP, params=("s", "t"))
        assert gaussian_form_parametric(P).is_zero()

    def test_paraboloid_is_not(self):
        P = parse_map(cases.PARABOLOID_MAP, params=("s", "t"))
        K = gaussian_form_parametric(P)
        assert not K.is_zero()
        assert k_oracle(P) is False

    def test_hyperbolic_paraboloid_is_not(self):
        P = parse_map(cases.HYPERBOLIC_PARABOLOID_MAP, params=("s", "t"))
        assert not gaussian_form_parametric(P).is_zero()
        assert k_oracle(P) is False

    def test_matches_oracle_on_reference(self, improper_cone_map):
        assert k_oracle(improper_cone_map) is True


def quotient_rule_k(P: RationalMap3) -> RatFunc:
    """Reference developability form: the reduced RatFunc normal n = a/b,
    bordered by its derivatives by the quotient rule,
    det(a_s*b - a*b_s, a_t*b - a*b_t, a*b) / prod(b^2)."""
    rows = []
    den = MultiPoly.const(1)
    for c in cross3(P.derivative("s").components, P.derivative("t").components):
        a, b = c.num, c.den
        rows.append(
            [
                a.derivative("s") * b - a * b.derivative("s"),
                a.derivative("t") * b - a * b.derivative("t"),
                a * b,
            ]
        )
        den = den * b * b
    return RatFunc(det3(rows), den)


def minor_test_maps():
    """Every reference map of cases.py; seeded cones, cylinders, tangent
    surfaces and general ruled surfaces, with and without denominators;
    and the stereographic sphere."""
    names = [n for n in dir(cases) if n.endswith("_MAP")]
    maps = [pytest.param(parse_map(getattr(cases, n), params=("s", "t")), id=n) for n in names]
    rng = random.Random(20261018)
    for i in range(2):
        maps.append(pytest.param(random_cone(rng, 2 + i)[0].full_map(), id=f"cone-{i}"))
        maps.append(pytest.param(random_cylinder(rng, 2 + i)[0].full_map(), id=f"cylinder-{i}"))
        maps.append(pytest.param(random_tangent_surface(rng, 3)[0].full_map(), id=f"tangent-{i}"))
        # every component over one denominator in t
        conic, cubic = (random_space_curve(rng, d, den_deg=1, mixed=False) for d in (2, 3))
        maps.append(pytest.param(build_conical((1, -1, 2), conic).full_map(), id=f"rational-cone-{i}"))
        maps.append(pytest.param(build_cylindrical((1, 2, 0), conic).full_map(), id=f"rational-cylinder-{i}"))
        maps.append(pytest.param(build_tangential(cubic).full_map(), id=f"rational-tangent-{i}"))
        # a general ruled surface, not developable
        ruling = random_space_curve(rng, 1)
        comps = [a + RatFunc(MultiPoly.var("s")) * b for a, b in zip(conic.components, ruling.components)]
        maps.append(pytest.param(RationalMap3(comps, ("s", "t")), id=f"rational-ruled-{i}"))
    sphere = "( 2*s/(1+s^2+t^2), 2*t/(1+s^2+t^2), (s^2+t^2-1)/(1+s^2+t^2) )"
    maps.append(pytest.param(parse_map(sphere, params=("s", "t")), id="rational-sphere"))
    # no denominator, but a stored form with the constant W = 210
    fractional = parse_map("(s/2 + t^2/3, t/5 - s*t, s^2/7 + t)", params=("s", "t"))
    maps.append(pytest.param(fractional, id="fractional-polynomial"))
    return maps


MINOR_TEST_MAPS = minor_test_maps()


class TestTangentPlaneMinors:
    """surface_normal's four polynomials against RatFunc cross products."""

    @pytest.mark.parametrize("P", MINOR_TEST_MAPS)
    def test_minors_are_the_cleared_normal(self, P):
        N = cross3(P.derivative("s").components, P.derivative("t").components)
        if all(n.is_zero() for n in N):  # a curve map, such as TANGENT_EDGE_MAP
            with pytest.raises(DegenerateInputError):
                surface_normal(P)
            return
        nd = surface_normal(P)
        den = P.form[3] ** 3
        assert tuple(RatFunc(m, den) for m in nd.m[:3]) == N
        # the plane M.x + M4 = 0 passes through P(s, t)
        assert RatFunc(nd.m[3], den) == -dot3(N, P.components)

    @pytest.mark.parametrize("P", MINOR_TEST_MAPS)
    def test_gaussian_form_matches_quotient_rule(self, P):
        N = cross3(P.derivative("s").components, P.derivative("t").components)
        if all(n.is_zero() for n in N):
            return
        assert gaussian_form_parametric(P) == quotient_rule_k(P)


class TestAffinePlane:
    def test_planar_surface(self):
        # (u, v, 3 - u + 2*v) for rational u(s, t), v(s, t)
        u = RatFunc(MultiPoly.var("s"), 1 + MultiPoly.var("t") ** 2)
        v = RatFunc(MultiPoly.var("t"), 1 + MultiPoly.var("s") ** 2)
        P = RationalMap3([u, v, 3 - u + v * 2], ("s", "t"))
        assert affine_plane(P) == (X - 2 * Y + Z - 3).normalized()
        assert affine_plane(parse_map(cases.PLANE_MAP, params=("s", "t"))) == Z

    def test_nonplanar_surfaces(self):
        for text in (cases.PARABOLOID_MAP, cases.UNIT_CIRCLE_CONE_MAP, cases.IMPROPER_CONE_MAP):
            assert affine_plane(parse_map(text, params=("s", "t"))) is None

    def test_planar_curves(self):
        circle = parse_map("( (1-t^2)/(1+t^2), 2*t/(1+t^2), 0 )", params=("t",))
        assert affine_plane(circle) == Z
        slanted = parse_map("( t^3, t^2/(t+1), 1 - t^3 - t^2/(t+1) )", params=("t",))
        assert affine_plane(slanted) == X + Y + Z - 1

    def test_nonplanar_curves(self):
        for text in (cases.TWISTED_CUBIC, cases.TANGENT_EDGE_MAP, cases.TANGENT_DEV_EDGE):
            assert affine_plane(parse_map(text, params=("t",))) is None

    @pytest.mark.parametrize("text", (cases.PLANE_MAP, cases.PARABOLOID_MAP, cases.UNIT_CIRCLE_CONE_MAP))
    def test_normal_data_plane_matches_affine_plane(self, text):
        P = parse_map(text, params=("s", "t"))
        assert surface_normal(P).plane() == affine_plane(P)

    @pytest.mark.parametrize("text", ("(s, t^2/(1+s^2), 2*s - t^2/(1+s^2) + 1)", cases.UNIT_CIRCLE_CONE_MAP))
    def test_analysis_clears_the_map_once(self, text, monkeypatch):
        # the parser clears P; the analysis reads its stored form
        import devsurf.ratfunc

        clears = []
        original = devsurf.ratfunc.projective_form

        def counted(funcs):
            clears.append(tuple(funcs))
            return original(funcs)

        monkeypatch.setattr(devsurf.ratfunc, "projective_form", counted)
        P = parse_map(text, params=("s", "t"))
        out = analyze_parametric(P)
        assert out.parametrization is not None
        assert clears.count(P.components) == 1


class TestApexDetection:
    def test_reference_apex(self, improper_cone_map):
        nd = surface_normal(improper_cone_map)
        status, apex = detect_apex_parametric(nd)
        assert status == "point" and apex == (Q(1), Q(1), Q(0))

    def test_round_trip_through_build(self, elliptic_cone):
        curve = parse_map(cases.ELLIPTIC_CONE_CURVE_3D, params=("t",))
        built = build_conical((Q(1, 2), Q(1, 3), 0), curve)
        nd = surface_normal(built.full_map())
        status, apex = detect_apex_parametric(nd)
        assert status == "point" and apex == (Q(1, 2), Q(1, 3), Q(0))

    def test_plane_degenerate(self):
        P = parse_map(cases.PLANE_MAP, params=("s", "t"))
        nd = surface_normal(P)
        status, _ = detect_apex_parametric(nd)
        assert status == "degenerate"


class TestDirectionDetection:
    def test_round_trip_through_build(self, quartic_cylinder):
        directrix = parse_map(cases.QUARTIC_CYLINDER_DIRECTRIX, params=("t",))
        built = build_cylindrical(cases.QUARTIC_CYLINDER_DIRECTION, directrix)
        nd = surface_normal(built.full_map())
        status, d = detect_direction_parametric(nd)
        assert status == "vector" and d == (1, -1, -1)

    def test_circular_cylinder(self):
        circle = parse_map("( (1-t^2)/(1+t^2), 2*t/(1+t^2), 0 )", params=("t",))
        built = build_cylindrical((0, 0, 1), circle)
        nd = surface_normal(built.full_map())
        status, d = detect_direction_parametric(nd)
        assert status == "vector" and d == (0, 0, 1)

    def test_cone_has_no_direction(self, improper_cone_map):
        nd = surface_normal(improper_cone_map)
        status, _ = detect_direction_parametric(nd)
        assert status == "none"


class TestSingularLocus:
    def test_tangent_standard_form_locus_is_base_line(self):
        edge = parse_map(cases.TWISTED_CUBIC, params=("t",))
        built = build_tangential(edge)
        loci = singular_parameter_locus(built.full_map())
        assert any(l == MultiPoly.var("s") for l in loci)

    def test_plane_rejected(self):
        P = parse_map(cases.PLANE_MAP, params=("s", "t"))
        with pytest.raises(DevsurfError):
            singular_parameter_locus(P)

    @pytest.mark.parametrize(
        "text, loci",
        [("(1 + s^3, (t^2 + 1)/s, 1)", ["t"]), ("((t + s^3)/t, 1, (1 + s^2)/s)", ["s + 1", "s - 1"])],
    )
    def test_pole_lines_removed(self, text, loci):
        # the normal also vanishes on the pole line s = 0
        P = parse_map(text, params=("s", "t"))
        assert [l.to_text() for l in singular_parameter_locus(P)] == loci

    def test_locus_on_poles_only(self):
        P = parse_map("((1 + t^3)/t, (t^3 + s)/s, 1 + t^2)", params=("s", "t"))
        with pytest.raises(DevsurfError, match="entirely on the map's poles"):
            singular_parameter_locus(P)


class TestRebuild:
    def test_cone_rebuild_with_projection(self, improper_cone_map):
        a = analyze_parametric(improper_cone_map)
        assert a.classification.tag == "Conical"
        assert a.classification.apex == (Q(1), Q(1), Q(0))
        assert a.parametrization is not None and a.parametrization.verified
        # rebuilt directrix is proper even though the input is improper
        proper, idx = is_proper_curve(a.parametrization.p0, "t")
        p1_proper, _ = is_proper_curve(a.parametrization.p1, "t")
        assert proper or a.parametrization.p0.is_constant()
        assert substitute_map_is_zero(a.implicit_equation, improper_cone_map)

    def test_plane_z1_projection_divisible_by_reference_conic(self, improper_cone_map):
        # the section read off the map lies on the irreducible reference conic
        cls = SurfaceClass(tag="Conical", apex=(Q(1), Q(1), Q(0)))
        sec = section_parametric(improper_cone_map, Z - 1, cls)
        conic = parse_poly(cases.IMPROPER_CONE_SECTION_CONIC, ("x", "y"))
        assert substitute_map_is_zero(conic, sec)

    def test_tangent_rebuild_matches_reference_implicit(self, tangent_dev_map):
        a = analyze_parametric(tangent_dev_map)
        assert a.classification.tag == "Tangential"
        assert a.parametrization is not None and a.parametrization.verified
        target = parse_poly(cases.TANGENT_DEV_IMPLICIT, ("x", "y", "z"))
        assert a.implicit_equation == target.normalized()
        assert substitute_map_is_zero(a.implicit_equation, tangent_dev_map)

    def test_plane_input_canonical_rebuild(self):
        P = parse_map(cases.PLANE_MAP, params=("s", "t"))
        a = analyze_parametric(P)
        assert a.classification.tag == "Plane"
        assert a.parametrization is not None
        assert a.parametrization.full_map() == P

    def test_degenerate_curve_image(self):
        P = parse_map("(t, t^2, t^3)", params=("s", "t"))
        with pytest.raises(DegenerateInputError):
            analyze_parametric(P)

    def test_improper_cylinder_map(self):
        circle = parse_map("( (1-t^2)/(1+t^2), 2*t/(1+t^2), 0 )", params=("t",))
        cyl = build_cylindrical((0, 0, 1), circle)
        doubled = cyl.full_map().subs({"t": RatFunc(MultiPoly.var("t") ** 2)}, ("s", "t"))
        a = analyze_parametric(doubled)
        assert a.classification.tag == "Cylindrical"
        assert a.classification.direction == (0, 0, 1)
        assert a.parametrization is not None and a.parametrization.verified
        proper, _ = is_proper_curve(a.parametrization.p0, "t")
        assert proper

    def test_improper_tangent_map_reparametrized_edge(self):
        tw = parse_map(cases.TWISTED_CUBIC, params=("t",))
        tan = build_tangential(tw)
        doubled = tan.full_map().subs({"t": RatFunc(MultiPoly.var("t") ** 2)}, ("s", "t"))
        a = analyze_parametric(doubled)
        assert a.classification.tag == "Tangential"
        assert a.parametrization is not None and a.parametrization.verified

    def test_warped_improper_cylinder(self):
        # compose with the 2:1 plane map (s, t) -> (s + t^2, t^2)
        circle = parse_map("( (1-t^2)/(1+t^2), 2*t/(1+t^2), 0 )", params=("t",))
        cyl = build_cylindrical((1, 1, 2), circle)
        s, t = RatFunc(MultiPoly.var("s")), RatFunc(MultiPoly.var("t"))
        warped = cyl.full_map().subs({"s": s + t * t, "t": t * t}, ("s", "t"))
        a = analyze_parametric(warped)
        assert a.classification.tag == "Cylindrical"
        assert a.classification.direction == (1, 1, 2)
        assert a.parametrization is not None and a.parametrization.verified

    def test_improper_scaling_of_parameters(self):
        # the same cone traced twice: K still vanishes, rebuild still proper
        curve = parse_map("( (1-t^2)/(1+t^2), 2*t/(1+t^2), 1 )", params=("t",))
        built = build_conical((0, 0, 0), curve)
        full = built.full_map()
        doubled = full.subs({"t": RatFunc(MultiPoly.var("t") ** 2)}, ("s", "t"))
        a = analyze_parametric(doubled)
        assert a.classification.tag == "Conical"
        assert a.classification.apex == (Q(0), Q(0), Q(0))
        assert a.parametrization is not None and a.parametrization.verified


QUINTIC_CONE = "(s*(t^5+2*t+1), s*(t^4-3*t^2+2), s*(t^3+t+5))"
QUINTIC_CONE_TRANSLATED = "(s*(t^5+2*t+1)+1, s*(t^4-3*t^2+2)+2, s*(t^3+t+5)-1)"
QUINTIC_CYLINDER = "(t^5 + s, t^3 - t + 2*s, t^2 + 3*s)"


def run_parametric(text):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["parametric", text])
    return code, json.loads(buf.getvalue())


def section_oracle(P, plane, cls):
    """The section of a cone or cylinder built with RatFunc arithmetic on
    the components of P: a line L(t) is sent into the plane from the apex
    A, A + lam*(L - A), or along the direction v, L + lam*v."""
    bound = 2 + sum(max(c.num.degree_in(v), c.den.degree_in(v)) for c in P.components for v in ("s", "t"))
    if cls.tag == "Conical":
        level = plane.eval_all(dict(zip("xyz", cls.apex)))
    else:
        rate = plane.eval_all(dict(zip("xyz", cls.direction))) - plane.eval_all(dict.fromkeys("xyz", 0))
    polys = [f.num for f in P.components] + [f.den for f in P.components]
    for line in _parameter_lines(polys, bound):
        if any(d.is_zero() for d in line[3:]):
            continue
        L = [RatFunc(n, d) for n, d in zip(line[:3], line[3:])]
        ell = substitute(plane, dict(zip("xyz", L)))
        if cls.tag == "Conical":
            if (ell - level).is_zero():
                continue
            lam = level / (level - ell)
            point = [lam * (x - a) + a for a, x in zip(cls.apex, L)]
        else:
            lam = ell * (-1 / rate)
            point = [x + lam * v for x, v in zip(L, cls.direction)]
        if not all(x.is_constant() for x in point):
            return RationalMap3(point, ("t",))


def seeded_sections():
    """(P, SurfaceClass) for seeded cones and cylinders, each also with
    s -> 1/s, which puts the line s = 0 on a pole, plus two rational cones
    whose line s = 0 is a pole.  The first one's line t = 0 lies in the
    plane x = 1 through its apex.  The second one's ruling s + 2t is not
    constant on s = 0, so that line, read projectively, would give another
    parametrization of the section."""
    rng = random.Random(4242)
    s = RatFunc(MultiPoly.var("s"))
    out = []
    for _ in range(4):
        built, (_, apex, _) = random_cone(rng, 2)
        out.append((built.full_map(), SurfaceClass(tag="Conical", apex=apex)))
        built, (_, _, d) = random_cylinder(rng, 2)
        out.append((built.full_map(), SurfaceClass(tag="Cylindrical", direction=d)))
    out += [(P.subs({"s": 1 / s}, ("s", "t")), cls) for P, cls in out]
    for u in ("t", "(s+2*t)"):
        P = parse_map(f"(1 + {u}/s, 2 + ({u}^2+1)/s, -1 + ({u}^2-{u}+2)/s)", params=("s", "t"))
        out.append((P, SurfaceClass(tag="Conical", apex=(Q(1), Q(2), Q(-1)))))
    return out


class TestSectionFromMap:
    """Cone and cylinder sections are read off the input map."""

    @pytest.mark.parametrize("P, cls", seeded_sections())
    def test_homogeneous_section_matches_ratfunc_construction(self, P, cls):
        for plane, _ in itertools.islice(admissible_planes(cls, 35), 6):
            assert section_parametric(P, plane, cls) == section_oracle(P, plane, cls)

    def test_skipped_lines(self):
        # s = 0 is a pole, and t = 0 maps into x = 1, the plane through the
        # apex parallel to the section x = 0.  On s = 1, L = (1 + t, t^2 + 3,
        # t^2 - t + 1) is sent from the apex A by lam = 1/(1 - x(L)) = -1/t
        P = parse_map("(1 + t/s, 2 + (t^2+1)/s, -1 + (t^2-t+2)/s)", params=("s", "t"))
        sec = section_parametric(P, X, SurfaceClass(tag="Conical", apex=(Q(1), Q(2), Q(-1))))
        assert sec == parse_map("(0, -(t-1)^2/t, -(t^2+2)/t)", params=("t",))

    @pytest.mark.parametrize("text", [QUINTIC_CONE, QUINTIC_CONE_TRANSLATED, QUINTIC_CYLINDER])
    def test_quintic_rebuild_verified(self, text):
        code, report = run_parametric(text)
        assert code == 0 and report["parametrization"]["verified"] is True
        assert report["classification"]["tag"] in ("Conical", "Cylindrical")

    @pytest.mark.parametrize("text", [QUINTIC_CONE, QUINTIC_CONE_TRANSLATED, QUINTIC_CYLINDER])
    def test_quintic_sympy_oracle(self, text):
        # independent of devsurf's kernels: the printed equation is
        # irreducible over Q and vanishes on the input map
        sympy = pytest.importorskip("sympy")
        _, report = run_parametric(text)
        F = sympy.sympify(report["implicit_equation"].replace("^", "**"))
        _, factors = sympy.factor_list(F)
        assert len(factors) == 1 and factors[0][1] == 1
        point = sympy.sympify(text.replace("^", "**"))
        assert sympy.cancel(F.subs(dict(zip(sympy.symbols("x y z"), point)), simultaneous=True)) == 0

    def test_lines_inside_rulings_are_skipped(self):
        # s = 0 maps to the apex (1, 2, -1) and t = 0 into one ruling
        P = parse_map(QUINTIC_CONE_TRANSLATED, params=("s", "t"))
        cls = SurfaceClass(tag="Conical", apex=(Q(1), Q(2), Q(-1)))
        sec = section_parametric(P, X, cls)
        assert sec.components[0].is_zero() and not sec.is_constant()
        assert substitute_map_is_zero(analyze_parametric(P).implicit_equation, sec)

    def test_index_three_circle_cone(self):
        u = "(t^3 + t)"
        text = f"( s*(1-{u}^2)/(1+{u}^2), s*2*{u}/(1+{u}^2), s )"
        P = parse_map(text, params=("s", "t"))
        a = analyze_parametric(P)
        assert a.classification.tag == "Conical"
        assert a.parametrization is not None and a.parametrization.verified
        assert a.implicit_equation == (X**2 + Y**2 - Z**2).normalized()
        assert is_proper_curve(a.parametrization.p1, "t")[0]

    def test_improper_directrix_outside_families_is_unsupported(self):
        # a degree-10 directrix of index 2 whose proper quintic lies outside
        # the plane-curve families
        code, report = run_parametric("(s*(t^10+2*t^2+1), s*(t^8-3*t^4+2), s*(t^6+t^2+5))")
        assert code == 2
        assert report["classification"]["tag"] == "Conical"
        assert "could be reparametrized" in report["failure"]
        assert "outside the supported families" in report["failure"]

    def test_moebius_composed_cone_keeps_golden_directrix(self, improper_cone_map):
        golden = json.loads((Path(__file__).parent / "goldens" / "improper_cone_parametric.json").read_text())
        tv = MultiPoly.var("t")
        composed = improper_cone_map.subs({"t": RatFunc(2 * tv + 1, tv - 3)}, ("s", "t"))
        a = analyze_parametric(composed)
        assert a.parametrization is not None and a.parametrization.verified
        assert a.parametrization.p1 == parse_map(golden["parametrization"]["p1"], params=("t",))

    def test_wrong_section_is_internal_error(self, monkeypatch):
        # the section is a curve of the surface by construction, so a
        # rebuilt surface that misses the input map is a fault, not exit 2
        wrong = parse_map("(0, t, t^3)", params=("t",))
        monkeypatch.setattr("devsurf.parametric.section_parametric", lambda *args: wrong)
        code, report = run_parametric(cases.IMPROPER_CONE_MAP)
        assert code == 5
        assert report["error"].startswith("internal error: ArithmeticError")


# the tangent surface of (t, t^2, t^3) composed with (s, t) -> (s^2 + t^3 - 7, t):
# its singular parameter locus contains the genus-1 curve s^2 + t^3 = 7
GENUS_ONE_LOCUS_TANGENT = (
    "(t^3 + s^2 + t - 7, 2*t^4 + 2*s^2*t + t^2 - 14*t, 3*t^5 + 3*s^2*t^2 + t^3 - 21*t^2)"
)


def plane_maps():
    s, t = RatFunc(MultiPoly.var("s")), RatFunc(MultiPoly.var("t"))
    return {
        "s+t^2": (s + t * t, t),
        "s*t+1": (s * t + 1, t),
        "s^2+t": (s * s + t, t),
        "moebius": (s, (t + 1) / (t - 2)),
    }


class TestCuspidalEdge:
    """The edge of a tangent surface read off three tangent planes."""

    @pytest.mark.parametrize("text", [cases.TWISTED_CUBIC, cases.TANGENT_EDGE_MAP])
    def test_standard_form_gives_its_edge(self, text):
        edge = parse_map(text, params=("t",))
        # s = 0 maps onto the edge itself, where M vanishes; s = 1 is read
        assert cuspidal_edge(surface_normal(build_tangential(edge).full_map())) == edge

    def test_genus_one_parameter_locus(self):
        code, report = run_parametric(GENUS_ONE_LOCUS_TANGENT)
        assert code == 0
        assert report["classification"]["tag"] == "Tangential"
        assert report["parametrization"]["verified"] is True
        tangent = build_tangential(parse_map(cases.TWISTED_CUBIC, params=("t",)))
        assert parse_poly(report["implicit_equation"], ("x", "y", "z")) == implicitize_ruled(tangent)

    @pytest.mark.parametrize("seed", [20261018, 7])
    @pytest.mark.parametrize("warp", sorted(plane_maps()))
    def test_composed_with_plane_maps(self, seed, warp):
        # against an independent construction: the implicit equation of the
        # tangent surface of the known edge
        rng = random.Random(seed)
        built, _ = random_tangent_surface(rng, 3, with_denominator=seed % 2 == 1)
        u, v = plane_maps()[warp]
        a = analyze_parametric(built.full_map().subs({"s": u, "t": v}, ("s", "t")))
        assert a.classification.tag == "Tangential"
        assert a.parametrization is not None and a.parametrization.verified
        assert a.implicit_equation == implicitize_ruled(build_tangential(built.p0))

    @pytest.mark.parametrize(
        "text, reason",
        [
            (cases.UNIT_CIRCLE_CONE_MAP, "share one point"),
            ("(t^3, t^2 + s, s)", "meet at infinity"),
            (cases.PLANE_MAP, "no usable parameter line"),  # every line: pi is constant
        ],
    )
    def test_not_a_tangent_surface_is_internal_error(self, text, reason):
        with pytest.raises(ArithmeticError, match=reason):
            cuspidal_edge(surface_normal(parse_map(text, params=("s", "t"))))

    def test_wrong_edge_is_internal_error(self, monkeypatch):
        twisted_cubic = parse_map(cases.TWISTED_CUBIC, params=("t",))
        monkeypatch.setattr("devsurf.parametric.cuspidal_edge", lambda nd: twisted_cubic)
        code, report = run_parametric(cases.TANGENT_DEV_MAP)
        assert code == 5
        assert report["error"].startswith("internal error: ArithmeticError")


class TestTripleProductEquivalence:
    def test_k_iff_triple_product_on_constructions(self):
        rng = random.Random(99)
        agreements = 0
        for i in range(8):
            curve = random_space_curve(rng, 2)
            p1 = random_space_curve(rng, 1)
            try:
                p0 = curve
                full = RationalMap3(
                    [a + RatFunc(MultiPoly.var("s")) * b for a, b in zip(p0.components, p1.components)],
                    ("s", "t"),
                )
                K_zero = gaussian_form_parametric(full).is_zero()
                tp_zero = ruling_triple_product(p0, p1).is_zero()
                assert K_zero == tp_zero
                agreements += 1
            except DegenerateInputError:
                continue
        assert agreements >= 5
