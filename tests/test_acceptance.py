"""Acceptance suite: one test per acceptance criterion, exact tolerances.

Each test prints a PASS line on success (run with -s to see them); pytest
itself reports the fail state per criterion.
"""

import contextlib
import io
import random

from devsurf.poly import MultiPoly, Q, divides, gcd_multi, resultant
from devsurf.ratfunc import RatFunc, RationalMap3, substitute_map, substitute_map_is_zero
from devsurf.exprs import parse_map, parse_poly
from devsurf.errors import DegenerateInputError
from devsurf.implicit import SurfaceClass, analyze_implicit, classify_implicit, gaussian_form_implicit, vanishes_on_surface
from devsurf.parametric import (
    analyze_parametric,
    detect_apex_parametric,
    gaussian_form_parametric,
    section_parametric,
    surface_normal,
)
from devsurf.builder import (
    implicitize_ruled,
    ruling_triple_product,
    verify_on_surface,
)
from devsurf.cli import main as cli_main

from conftest import (
    perm_det,
    random_cone,
    random_cylinder,
    random_small_multipoly,
    random_space_curve,
    random_tangent_surface,
    sylvester_oracle,
)
import cases

X, Y, Z = (MultiPoly.var(v) for v in "xyz")


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_elliptic_cone_end_to_end(elliptic_cone):
    K = gaussian_form_implicit(elliptic_cone)
    assert K == elliptic_cone * 576
    analysis = analyze_implicit(elliptic_cone)
    assert analysis.classification.tag == "Conical"
    assert analysis.classification.apex == (Q(1, 2), Q(1, 3), Q(0))
    assert analysis.parametrization is not None and analysis.parametrization.verified
    assert substitute_map(elliptic_cone, analysis.parametrization.full_map()).is_zero()
    report(1, "quadric cone: K = 576*F, apex (1/2, 1/3, 0), parametrization substitutes to zero")


def test_criterion_2_quartic_cylinder_end_to_end(quartic_cylinder):
    K = gaussian_form_implicit(quartic_cylinder)
    assert vanishes_on_surface(K, quartic_cylinder)
    analysis = analyze_implicit(quartic_cylinder)
    assert analysis.classification.tag == "Cylindrical"
    assert analysis.classification.direction in ((1, -1, -1), (-1, 1, 1))
    assert analysis.parametrization is not None and analysis.parametrization.verified
    assert substitute_map(quartic_cylinder, analysis.parametrization.full_map()).is_zero()
    report(2, "quartic cylinder: K = 0 on S, direction (1, -1, -1), parametrization substitutes to zero")


def test_criterion_3_tangent_surface_end_to_end(tangent_quartic):
    analysis = analyze_implicit(tangent_quartic, refine=False)
    assert analysis.classification.tag == "Tangential"
    edge_system = analysis.classification.edge_system
    assert edge_system
    reference_edge = parse_map(cases.TANGENT_EDGE_MAP, params=("t",))
    for poly in edge_system:
        assert substitute_map_is_zero(poly, reference_edge)
    assert analysis.parametrization is not None and analysis.parametrization.verified
    assert substitute_map(tangent_quartic, analysis.parametrization.full_map()).is_zero()
    report(3, "tangent surface: edge system vanishes on the reference edge, assembly verifies against F")


def test_criterion_4_parametric_cone(improper_cone_map):
    assert gaussian_form_parametric(improper_cone_map).is_zero()
    nd = surface_normal(improper_cone_map)
    status, apex = detect_apex_parametric(nd)
    assert status == "point" and apex == (Q(1), Q(1), Q(0))
    # the z = 1 section read off the map lies on the reference conic; both
    # are irreducible, so they are the same curve
    section = section_parametric(improper_cone_map, Z - 1, SurfaceClass(tag="Conical", apex=apex))
    conic = parse_poly(cases.IMPROPER_CONE_SECTION_CONIC, ("x", "y"))
    assert substitute_map_is_zero(conic, section)
    analysis = analyze_parametric(improper_cone_map)
    assert analysis.classification.tag == "Conical"
    assert analysis.parametrization is not None and analysis.parametrization.verified
    assert substitute_map_is_zero(analysis.implicit_equation, improper_cone_map)
    report(4, "parametric cone: K(s,t) = 0, apex (1, 1, 0), z = 1 section on the conic, verified rebuild")


def test_criterion_5_parametric_tangent(tangent_dev_map):
    analysis = analyze_parametric(tangent_dev_map)
    assert analysis.classification.tag == "Tangential"
    assert analysis.parametrization is not None and analysis.parametrization.verified
    target = parse_poly(cases.TANGENT_DEV_IMPLICIT, ("x", "y", "z"))
    assert analysis.implicit_equation == target.normalized()
    assert substitute_map_is_zero(analysis.implicit_equation, tangent_dev_map)
    report(5, "parametric tangent surface: rebuilt implicitization equals the reference quartic, original map satisfies it")


def test_criterion_6_negative_controls(sphere):
    code, _ = run_cli(["implicit", cases.SPHERE_F])
    assert code == 3
    code, _ = run_cli(["parametric", cases.HYPERBOLIC_PARABOLOID_MAP])
    assert code == 3
    # brute-force determinant oracles confirm the nonzero forms
    from conftest import bordered_hessian_oracle

    K_sphere = bordered_hessian_oracle(sphere)
    assert not K_sphere.is_zero()
    assert not vanishes_on_surface(K_sphere, sphere)
    hp = parse_map(cases.HYPERBOLIC_PARABOLOID_MAP, params=("s", "t"))
    assert not gaussian_form_parametric(hp).is_zero()
    report(6, "sphere and hyperbolic paraboloid rejected with exit code 3; oracles agree the forms are nonzero")


def _check_round_trip(built, expected):
    tag, apex, direction = expected
    F = implicitize_ruled(built)
    cls, K, Fs = classify_implicit(F)
    assert cls.tag == tag, f"expected {tag}, classified {cls.tag}"
    if apex is not None:
        assert cls.apex == apex
    if direction is not None:
        assert cls.direction == direction
    analysis = analyze_implicit(F)
    assert analysis.parametrization is not None, f"rebuild failed: {analysis.failure}"
    assert analysis.parametrization.verified
    assert verify_on_surface(analysis.parametrization, Fs)


def test_criterion_7_round_trip_suite():
    rng = random.Random(20260811)
    count = 0
    for deg in (2, 2, 2, 2, 3, 3, 3, 4, 4, 2):
        built, expected = random_cone(rng, deg)
        _check_round_trip(built, expected)
        count += 1
    for deg in (2, 2, 2, 3, 3, 3, 4, 4, 2, 4):
        built, expected = random_cylinder(rng, deg)
        _check_round_trip(built, expected)
        count += 1
    for deg, denom in ((3, False),) * 6 + ((2, True),) * 4:
        built, expected = random_tangent_surface(rng, deg, with_denominator=denom)
        _check_round_trip(built, expected)
        count += 1
    assert count >= 30
    report(7, f"{count}/{count} random cones, cylinders and tangent surfaces round-trip exactly")


def test_criterion_8_triple_product_equivalence():
    rng = random.Random(8088)
    checked = 0
    # developable constructions: K and the triple product both vanish
    developables = []
    for deg in (2, 2, 3, 4):
        developables.append(random_cone(rng, deg)[0])
    for deg in (2, 2, 3, 4):
        developables.append(random_cylinder(rng, deg)[0])
    for deg, denom in ((3, False), (3, False), (2, True)):
        developables.append(random_tangent_surface(rng, deg, with_denominator=denom)[0])
    for built in developables:
        K = gaussian_form_parametric(built.full_map())
        tp = ruling_triple_product(built.p0, built.p1)
        assert K.is_zero() and tp.is_zero()
        checked += 1
    # general ruled surfaces: exact agreement in both directions
    attempts = 0
    while checked < 40 and attempts < 200:
        attempts += 1
        p0 = random_space_curve(rng, rng.choice((1, 2)))
        p1 = random_space_curve(rng, rng.choice((1, 2)))
        s = RatFunc(MultiPoly.var("s"))
        try:
            full = RationalMap3(
                [a + s * b for a, b in zip(p0.components, p1.components)], ("s", "t")
            )
            K = gaussian_form_parametric(full)
        except DegenerateInputError:
            continue
        tp = ruling_triple_product(p0, p1)
        assert K.is_zero() == tp.is_zero()
        if not K.is_zero():
            checked += 1
    assert checked >= 40
    report(8, f"K(s,t) = 0 iff the ruling triple product vanishes, on {checked} ruled surfaces")


def test_criterion_9_kernel_oracles():
    rng = random.Random(314159)
    # resultants vs the permutation-determinant of the Sylvester matrix
    checked = 0
    while checked < 200:
        extra = rng.choice(((), ("y",)))
        p = random_small_multipoly(rng, ("x",) + extra, 2, density=0.9, lo=-3, hi=3)
        q = random_small_multipoly(rng, ("x",) + extra, 2, density=0.9, lo=-3, hi=3)
        if p.degree_in("x") == 0 and q.degree_in("x") == 0:
            continue
        if p.is_zero() or q.is_zero():
            continue
        assert resultant(p, q, "x") == sylvester_oracle(p, q, "x")
        checked += 1
    # determinants vs the permutation formula
    from devsurf.poly import det3, det4, det_bareiss

    for k in range(200):
        n = 3 if k % 2 == 0 else 4
        rows = [
            [random_small_multipoly(rng, ("x", "y"), 1, density=0.7, lo=-2, hi=2) for _ in range(n)]
            for _ in range(n)
        ]
        oracle = perm_det(rows)
        mine = det3(rows) if n == 3 else det4(rows)
        assert mine == oracle
        assert det_bareiss([list(r) for r in rows]) == oracle
    # gcds: divide both ways, coprime cofactors, and Euclidean degrees at
    # random univariate restrictions
    for _ in range(200):
        g = random_small_multipoly(rng, ("x", "y"), 2, density=0.8)
        a = random_small_multipoly(rng, ("x", "y"), 2, density=0.8)
        b = random_small_multipoly(rng, ("x", "y"), 2, density=0.8)
        d = gcd_multi(g * a, g * b)
        ok1, ca = divides(d, g * a)
        ok2, cb = divides(d, g * b)
        assert ok1 and ok2
        assert gcd_multi(ca, cb).is_constant()
        okg, _ = divides(gcd_multi(d, g), g)
        assert okg
        # restriction oracle: at a random y the univariate gcd degree in x
        # matches (up to the finitely many unlucky evaluation points)
        from devsurf.poly import _gcd_univar

        y0 = Q(rng.randint(2, 60))
        du = _gcd_univar((g * a).eval_partial({"y": y0}), (g * b).eval_partial({"y": y0}), "x")
        if not du.is_zero():
            # the restriction of d divides both restrictions, so the
            # univariate Euclidean gcd can only be larger
            assert du.degree_in("x") >= d.eval_partial({"y": y0}).degree_in("x")
    report(9, "600 randomized kernel instances match brute-force oracles")
