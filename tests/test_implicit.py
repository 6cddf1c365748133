"""Implicit pipeline: the K(x,y,z) test, classification, apex and ruling
extraction, singular-locus systems, full analyses."""

import itertools
import random

import pytest

from devsurf.poly import MultiPoly, Q, gcd_many, resultant, squarefree_part
from devsurf.ratfunc import substitute_map_is_zero
from devsurf.exprs import parse_map, parse_poly
from devsurf.curves import plane_candidates
from devsurf.implicit import (
    ImplicitAnalysis,
    SurfaceClass,
    _sections_by_degree,
    admissible_planes,
    analyze_implicit,
    classify_implicit,
    detect_apex,
    detect_ruling_direction,
    gaussian_form_implicit,
    singular_locus_curve,
    vanishes_on_surface,
)
from devsurf.builder import build_tangential, verify_on_surface
from devsurf import poly as poly_module

from conftest import bordered_hessian_oracle, check_frozen_record, check_mutable_record
import cases

X, Y, Z = (MultiPoly.var(v) for v in "xyz")


class TestGaussianForm:
    def test_cone_is_constant_multiple(self, elliptic_cone):
        K = gaussian_form_implicit(elliptic_cone)
        assert K == elliptic_cone * 576

    def test_plane_vanishes(self):
        assert gaussian_form_implicit(Z).is_zero()

    def test_sphere_matches_oracle(self, sphere):
        K = gaussian_form_implicit(sphere)
        assert K == bordered_hessian_oracle(sphere)
        assert K == -16 * (X**2 + Y**2 + Z**2)


class TestVanishesOnSurface:
    def test_constant_multiple(self, elliptic_cone):
        assert vanishes_on_surface(elliptic_cone * 576, elliptic_cone)

    def test_sphere_rejected(self, sphere):
        assert not vanishes_on_surface(-16 * (X**2 + Y**2 + Z**2), sphere)

    def test_zero_vanishes(self, elliptic_cone):
        assert vanishes_on_surface(MultiPoly.zero(), elliptic_cone)

    @pytest.mark.parametrize(
        "text, exact",
        [
            (cases.SPHERE_F, False),
            ("x^3 + 2*x^2*y - y^3 + 3*x*y*z - 2*z^3 + x*z^2 - y^2 + 4*x - z + 1", False),
            (cases.ELLIPTIC_CONE_F, True),
        ],
    )
    def test_no_is_refuted_without_exact_division(self, monkeypatch, text, exact):
        # a non-developable surface's "F does not divide K" is read off the
        # modular image; only a developable one reaches the exact quotient
        calls = []
        quotient = poly_module._quotient

        def spy(rem, divisor, p=0):
            calls.append(p)
            return quotient(rem, divisor, p)

        monkeypatch.setattr(poly_module, "_quotient", spy)
        verdict, _, _ = classify_implicit(parse_poly(text, ("x", "y", "z")))
        assert (verdict.tag == "NotDevelopable") is not exact
        assert bool(calls) is exact

    def test_vanishes_modulo_square(self):
        F = (X + Y) ** 2 * (X - Z)
        K = (X + Y) * (X - Z) * (Y + 7)
        assert vanishes_on_surface(K, F)


class TestApex:
    def test_reference_cone(self, elliptic_cone):
        status, apex = detect_apex(elliptic_cone)
        assert status == "point"
        assert apex == (Q(1, 2), Q(1, 3), Q(0))

    def test_homogeneous_cone(self):
        status, apex = detect_apex(X**2 + Y**2 - Z**2)
        assert status == "point" and apex == (Q(0), Q(0), Q(0))

    def test_translated_cone(self):
        F = (X - 1) ** 2 + (Y - 2) ** 2 - Z**2
        status, apex = detect_apex(F)
        assert status == "point" and apex == (Q(1), Q(2), Q(0))

    def test_euler_identity_holds_exactly(self, elliptic_cone):
        status, apex = detect_apex(elliptic_cone)
        d = elliptic_cone.total_degree()
        lhs = MultiPoly.zero()
        for v, a in zip(("x", "y", "z"), apex):
            lhs = lhs + (MultiPoly.var(v) - a) * elliptic_cone.derivative(v)
        assert lhs == elliptic_cone * d

    def test_cylinder_has_no_apex(self, quartic_cylinder):
        status, _ = detect_apex(quartic_cylinder)
        assert status == "none"

    def test_plane_pair_apex_underdetermined(self):
        status, _ = detect_apex(X**2 - Y**2)
        assert status == "degenerate"


class TestRulingDirection:
    def test_reference_cylinder(self, quartic_cylinder):
        status, d = detect_ruling_direction(quartic_cylinder)
        assert status == "vector" and d == (1, -1, -1)
        # the direction annihilates the gradient as a polynomial identity
        combo = MultiPoly.zero()
        for v, c in zip(("x", "y", "z"), d):
            combo = combo + quartic_cylinder.derivative(v) * c
        assert combo.is_zero()

    def test_axis_cylinder(self):
        status, d = detect_ruling_direction(X**2 + Y**2 - 1)
        assert status == "vector" and d == (0, 0, 1)

    def test_sphere_has_none(self, sphere):
        status, d = detect_ruling_direction(sphere)
        assert status == "none" and d is None

    def test_parallel_plane_pair_degenerate_kernel(self):
        status, _ = detect_ruling_direction(X**2 - 1)
        assert status == "degenerate"


class TestSingularLocus:
    def test_tangent_surface_system_equivalent_to_reference(self, tangent_quartic):
        systems = singular_locus_curve(tangent_quartic)
        assert systems
        edge = parse_map(cases.TANGENT_EDGE_MAP, params=("t",))
        h, g = systems[0]
        # our system vanishes along the reference edge parametrization
        assert substitute_map_is_zero(h, edge)
        assert substitute_map_is_zero(g, edge)
        # the reference system vanishes on sampled points of our variety:
        # realized downstream, where the analyzer's own edge lies on both
        ref_polys = [parse_poly(s, ("x", "y", "z")) for s in cases.TANGENT_EDGE_SYSTEM]
        analysis = analyze_implicit(tangent_quartic, refine=False)
        own_edge = analysis.parametrization.p0  # the extracted cuspidal edge
        for p in ref_polys:
            assert substitute_map_is_zero(p, own_edge)

    def test_twisted_cubic_tangent_surface(self):
        from devsurf.builder import implicitize_ruled

        edge = parse_map(cases.TWISTED_CUBIC, params=("t",))
        built = build_tangential(edge)
        F = implicitize_ruled(built)
        systems = singular_locus_curve(F)
        assert systems
        found = False
        for h, g in systems:
            if substitute_map_is_zero(h, edge) and substitute_map_is_zero(g, edge):
                found = True
                break
        assert found

    def test_cone_rejected(self, elliptic_cone):
        with pytest.raises(ValueError, match="conical"):
            singular_locus_curve(elliptic_cone)

    def test_one_squarefree_part_of_the_eliminants(self, tangent_quartic):
        # the squarefree part of the gcd of the raw eliminants is the
        # product of the irreducible factors common to all of them, the
        # same as the gcd of their squarefree parts
        # the tangent developable of the twisted cubic (t, t^2, t^3)
        twisted = 4 * (X**2 - Y) * (Y**2 - X * Z) - (X * Y - Z) ** 2
        rng = random.Random(20261019)
        quartics = [tangent_quartic]
        while len(quartics) < 4:
            # an affine image x -> M x + b, M unimodular
            rows = [[int(i == j) for j in range(3)] for i in range(3)]
            for _ in range(3):
                i, j = rng.sample(range(3), 2)
                rows[i] = [a + rng.choice((-1, 1)) * b for a, b in zip(rows[i], rows[j])]
            image = {v: sum((X, Y, Z)[j] * rows[i][j] for j in range(3)) + rng.randint(-2, 2) for i, v in enumerate("xyz")}
            quartics.append(twisted.subs_poly(image))
        nontrivial = 0
        for F in quartics:
            F = squarefree_part(F)
            base = [p for p in [F.derivative(v) for v in "xyz"] + [F] if not p.is_zero()]
            eliminants = set()
            for elim in "xyz":
                positive = [p for p in base if p.degree_in(elim) > 0]
                raw = [p for p in base if p.degree_in(elim) == 0]
                raw += [r for p, q in itertools.combinations(positive, 2) if not (r := resultant(p, q, elim)).is_zero()]
                if not raw:
                    continue
                once = squarefree_part(gcd_many(raw))
                assert once == squarefree_part(gcd_many([squarefree_part(r) for r in raw]))
                nontrivial += not once.is_constant()
                eliminants.add(once)
            systems = singular_locus_curve(F)
            assert systems and {g for _, g in systems} <= eliminants
        assert nontrivial >= len(quartics)


class TestClassification:
    def test_tags(self, elliptic_cone, quartic_cylinder, tangent_quartic, sphere):
        assert classify_implicit(elliptic_cone)[0].tag == "Conical"
        assert classify_implicit(quartic_cylinder)[0].tag == "Cylindrical"
        assert classify_implicit(tangent_quartic)[0].tag == "Tangential"
        assert classify_implicit(sphere)[0].tag == "NotDevelopable"
        hyper = parse_poly(cases.HYPERBOLOID_F, ("x", "y", "z"))
        assert classify_implicit(hyper)[0].tag == "NotDevelopable"

    def test_every_plane_and_quadric_cone_developable(self):
        for F in (X + 2 * Y - Z + 3, X**2 + Y**2 - Z**2, (X - 1) ** 2 - Y**2 + Z**2):
            K = gaussian_form_implicit(squarefree_part(F))
            assert vanishes_on_surface(K, F)

    def test_squarefree_normalization(self):
        cls, K, Fs = classify_implicit((X + Y - Z) ** 2)
        assert cls.tag == "Plane"
        assert Fs.total_degree() == 1

    def test_crossing_plane_pair_classified_cylindrical(self):
        # reducible but developable; the apex system is underdetermined and
        # the ruling kernel is one-dimensional
        cls, K, Fs = classify_implicit(X**2 - Y**2)
        assert cls.tag == "Cylindrical"
        assert cls.direction == (0, 0, 1)


class TestFullAnalysis:
    def test_cone_end_to_end(self, elliptic_cone):
        a = analyze_implicit(elliptic_cone)
        assert a.classification.tag == "Conical"
        assert a.classification.apex == (Q(1, 2), Q(1, 3), Q(0))
        assert a.parametrization is not None and a.parametrization.verified
        assert verify_on_surface(a.parametrization, elliptic_cone)

    def test_cylinder_end_to_end(self, quartic_cylinder):
        a = analyze_implicit(quartic_cylinder)
        assert a.classification.tag == "Cylindrical"
        assert a.classification.direction == (1, -1, -1)
        assert a.parametrization is not None and a.parametrization.verified
        assert verify_on_surface(a.parametrization, quartic_cylinder)

    def test_tangent_end_to_end(self, tangent_quartic):
        a = analyze_implicit(tangent_quartic)
        assert a.classification.tag == "Tangential"
        assert a.parametrization is not None and a.parametrization.verified
        assert verify_on_surface(a.parametrization, tangent_quartic)

    def test_sphere_has_no_parametrization(self, sphere):
        a = analyze_implicit(sphere)
        assert a.classification.tag == "NotDevelopable"
        assert a.parametrization is None

    def test_plane_parametrized(self):
        a = analyze_implicit(X + 2 * Y - 3 * Z + 1)
        assert a.classification.tag == "Plane"
        assert a.parametrization is not None
        assert verify_on_surface(a.parametrization, X + 2 * Y - 3 * Z + 1)

    def test_classification_invariant_under_affine_changes(
        self, elliptic_cone, quartic_cylinder, tangent_quartic
    ):
        subs_list = [
            {"x": X + 1, "y": Y - 2, "z": Z + 3},   # translation
            {"x": Y, "y": Z, "z": X},               # coordinate permutation
            {"x": X + Y, "y": Y, "z": Z + X},       # invertible shear
        ]
        expect = [
            (elliptic_cone, "Conical"),
            (quartic_cylinder, "Cylindrical"),
            (tangent_quartic, "Tangential"),
        ]
        for F, tag in expect:
            for sub in subs_list:
                G = F.subs_poly(sub)
                a = analyze_implicit(G)
                assert a.classification.tag == tag
                assert a.parametrization is not None and a.parametrization.verified

    def test_cone_without_rational_sections_reports_honestly(self):
        # x^2 + y^2 = 3 z^2: developable cone, but its section conics have
        # no rational points, so no parametrization over the rationals
        a = analyze_implicit(X**2 + Y**2 - 3 * Z**2)
        assert a.classification.tag == "Conical"
        assert a.parametrization is None
        assert "no rational point" in a.failure
        assert "not a square modulo 3" in a.failure


class TestOneCertificate:
    @pytest.mark.parametrize("surface", ["elliptic_cone", "quartic_cylinder", "tangent_quartic"])
    def test_verify_on_surface_runs_once_per_result(self, monkeypatch, request, surface):
        import devsurf.implicit

        calls = []

        def spy(p, F):
            calls.append(p.kind)
            return verify_on_surface(p, F)

        monkeypatch.setattr(devsurf.implicit, "verify_on_surface", spy)
        a = analyze_implicit(request.getfixturevalue(surface))
        assert a.parametrization is not None and a.parametrization.verified
        assert calls == [a.parametrization.kind]


def admissible_oracle(cls, budget):
    """The candidate planes that do not vanish at the apex, or whose value
    changes along the direction, by evaluating each plane."""
    out = []
    for plane, normal, _ in plane_candidates(budget):
        if cls.tag == "Conical":
            keep = plane.eval_all(dict(zip("xyz", cls.apex))) != 0
        else:
            keep = plane.eval_all(dict(zip("xyz", cls.direction))) != plane.eval_all(dict.fromkeys("xyz", 0))
        if keep:
            out.append((plane, normal))
    return out


def seeded_classes():
    rng = random.Random(20260811)
    cones = [tuple(Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)) for _ in range(12)]
    # apexes on candidate planes: x = 0 and x + y + z = -2; x, y, z = 1,
    # x - z = 0 and x + y + z = 3; x - z = 0 and x + y + z = 1
    cones += [(Q(0), Q(5), Q(-7)), (Q(1), Q(1), Q(1)), (Q(1, 3), Q(1, 3), Q(1, 3))]
    directions = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(12)]
    # directions parallel to the candidates x = c, x - z = c, x + y + z = c
    directions += [(0, 1, 0), (1, 0, 1), (1, -1, 0), (0, 0, 1)]
    return [SurfaceClass(tag="Conical", apex=a) for a in cones] + [
        SurfaceClass(tag="Cylindrical", direction=d) for d in directions if any(d)
    ]


class TestAdmissiblePlanes:
    """A candidate n.x + c is admissible when n.a + c != 0 at the apex a of
    a cone, or n.v != 0 for the direction v of a cylinder."""

    @pytest.mark.parametrize("cls", seeded_classes())
    @pytest.mark.parametrize("budget", [35, 12])
    def test_matches_plane_evaluation(self, cls, budget):
        assert list(admissible_planes(cls, budget)) == admissible_oracle(cls, budget)

    def test_planes_through_the_apex_or_along_the_direction_are_skipped(self):
        on_five = SurfaceClass(tag="Conical", apex=(Q(1), Q(1), Q(1)))
        assert len(list(admissible_planes(on_five, 35))) == 30
        along_y = SurfaceClass(tag="Cylindrical", direction=(0, 1, 0))
        assert [normal for _, normal in admissible_planes(along_y, 35)] == [
            n for _, n, _ in plane_candidates(35) if n[1] != 0
        ]


def sections_by_degree_oracle(Fs, cls, budget):
    """Admissible planes keyed by section degree: deg Fs, or deg Fs - 1 when
    the top-degree form, built as a polynomial, evaluates to zero at the
    d + 1 rational points (1, k) of each plane's direction plane."""
    d = Fs.total_degree()
    top = MultiPoly(Fs.vars, {e: c for e, c in Fs.terms.items() if sum(e) == d})
    keyed = []
    for plane, normal in admissible_oracle(cls, budget):
        s = max(i for i in range(3) if normal[i])
        u, w = (i for i in range(3) if i != s)
        vanishes = True
        for k in range(d + 1):
            point = [Q(0)] * 3
            point[u], point[w], point[s] = Q(normal[s]), Q(k * normal[s]), Q(-normal[u] - k * normal[w])
            vanishes = vanishes and top.eval_all(dict(zip("xyz", point))) == 0
        keyed.append((plane, d - 1 if vanishes else d))
    keyed.sort(key=lambda pk: pk[1])
    return keyed


def seeded_keyed_surfaces():
    """(F, class) pairs: cones with fractional apexes, cylinders, and cones
    times a plane through the apex."""
    rng = random.Random(20260811)
    xyz = (X, Y, Z)
    out = []
    for _ in range(10):
        d = rng.randint(2, 3)
        form = sum(
            (Q(rng.randint(-3, 3)) * X**i * Y**j * Z ** (d - i - j) for i in range(d + 1) for j in range(d + 1 - i)),
            MultiPoly.zero(),
        )
        apex = tuple(Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
        cone = form.subs_poly({v: p - a for v, p, a in zip("xyz", xyz, apex)})
        out.append((cone, SurfaceClass(tag="Conical", apex=apex)))
        normal = rng.choice([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, -1), (1, 1, 1), (2, -1, 1)])
        plane = sum((n * (p - a) for n, p, a in zip(normal, xyz, apex)), MultiPoly.zero())
        out.append((cone * plane, SurfaceClass(tag="Conical", apex=apex)))
    for _ in range(8):
        v = (rng.randint(-2, 2), rng.randint(-2, 2), rng.choice([-2, -1, 1, 3]))
        u, w = v[2] * X - v[0] * Z, v[2] * Y - v[1] * Z
        g = sum(
            (Q(rng.randint(-3, 3)) * u**i * w**j for i in range(4) for j in range(4 - i) if rng.random() < 0.6),
            u**2 - w,
        )
        out.append((g, SurfaceClass(tag="Cylindrical", direction=v)))
    # x^2 + z^2 - y*z vanishes at the direction points (0, 1, k) of the
    # planes x = c for k = 0 and 1 but not for k = 2
    out.append((X**2 + Z**2 - Y * Z, SurfaceClass(tag="Conical", apex=(Q(0), Q(0), Q(0)))))
    out.append(((X**2 + Y**2 - Z**2) * (X - Z), SurfaceClass(tag="Conical", apex=(Q(0), Q(0), Q(0)))))
    half = (Q(1, 2),) * 3
    out.append((parse_poly("(2*x-1)^2+(2*y-1)^2-(2*z-1)^2", ("x", "y", "z")), SurfaceClass(tag="Conical", apex=half)))
    return out


class TestSectionDegreeKeys:
    @pytest.mark.parametrize("F, cls", seeded_keyed_surfaces())
    @pytest.mark.parametrize("budget", [35, 12])
    def test_keys_match_top_form_evaluation(self, F, cls, budget):
        Fs = squarefree_part(F)
        assert _sections_by_degree(Fs, cls, budget) == sections_by_degree_oracle(Fs, cls, budget)

    def test_plane_through_the_apex_gives_lower_keys_first(self):
        Fs = squarefree_part((X**2 + Y**2 - Z**2) * (X - Z))
        keyed = _sections_by_degree(Fs, SurfaceClass(tag="Conical", apex=(Q(0), Q(0), Q(0))), 35)
        assert [k for _, k in keyed[:6]] == [2] * 6 and {k for _, k in keyed[6:]} == {3}
        assert all(plane.vars == ("x", "z") for plane, _ in keyed[:6])


class TestSectionSweep:
    """Sections are computed one at a time, in degree order, and a section
    with no rational parametrization ends the sweep when it certifies that
    no other section can have one."""

    @staticmethod
    def _count(monkeypatch, name):
        import devsurf.implicit as implicit

        calls = []
        original = getattr(implicit, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(implicit, name, counting)
        return calls

    @pytest.mark.parametrize("src", [cases.ELLIPTIC_CONE_F, cases.QUARTIC_CYLINDER_F])
    def test_reference_surfaces_compute_one_section(self, monkeypatch, src):
        calls = self._count(monkeypatch, "section_implicit")
        a = analyze_implicit(parse_poly(src, ("x", "y", "z")))
        assert a.parametrization is not None
        assert len(calls) == 1

    @pytest.mark.parametrize("surface", ["elliptic_cone", "quartic_cylinder", "tangent_quartic"])
    def test_success_paths_never_run_the_genus_certificate(self, monkeypatch, request, surface):
        import devsurf.curves

        calls = []
        monkeypatch.setattr(devsurf.curves, "_smooth_genus", lambda *args: calls.append(args))
        a = analyze_implicit(request.getfixturevalue(surface))
        assert a.parametrization is not None and a.parametrization.verified
        assert calls == []

    def test_certified_stop_after_one_conic(self, monkeypatch):
        # every section of x^2 + y^2 = 3 z^2 off the apex is a conic without
        # a rational point, and all of them are birational to each other
        calls = self._count(monkeypatch, "parametrize_plane_curve")
        a = analyze_implicit(X**2 + Y**2 - 3 * Z**2)
        assert a.parametrization is None
        assert "not a square modulo 3" in a.failure
        assert len(calls) == 1

    def test_degree_order_kept(self):
        # the conic y = 1 has degree 2 and is tried before the cubic x = 1,
        # which precedes it among the candidate planes
        from devsurf.exprs import print_map

        a = analyze_implicit(Y * (X**2 + Y**2 - Z**2))
        assert print_map(a.parametrization.p1) == "((2*t)/(t^2 - 1), 1, (t^2 + 1)/(t^2 - 1))"

    def test_degree_dropped_section_does_not_stop(self):
        # y = 1 cuts y*(x^2 - 2 z^2) in two conjugate lines (no rational
        # parametrization), but the plane component y = 0 lies at infinity
        # there; the section x = 1 keeps it as the line y = 0
        from devsurf.exprs import print_map

        a = analyze_implicit(Y * (X**2 - 2 * Z**2))
        assert a.parametrization is not None
        assert print_map(a.parametrization.p1) == "(1, 0, t)"

    def test_section_degree_differs_from_key(self, monkeypatch):
        import devsurf.implicit as implicit
        from devsurf.curves import PlaneCurve, plane_frame

        def wrong_degree(F, plane):
            return PlaneCurve(MultiPoly.var("x") ** 3 + MultiPoly.var("y"), plane_frame(plane))

        monkeypatch.setattr(implicit, "section_implicit", wrong_degree)
        with pytest.raises(ArithmeticError, match="predicted degree 2"):
            analyze_implicit(X**2 + Y**2 - Z**2)

    def test_tangential_reuses_first_singular_system(self, monkeypatch, tangent_quartic):
        import devsurf.implicit as implicit

        started = []
        original = implicit._iter_singular_systems

        def counting(F):
            started.append(F)
            yield from original(F)

        monkeypatch.setattr(implicit, "_iter_singular_systems", counting)
        a = analyze_implicit(tangent_quartic)
        assert a.parametrization is not None
        assert len(started) == 1  # the classification's, never restarted


class TestRecords:
    def test_surface_class(self):
        fields = dict(tag="Conical", apex=(Q(1, 2), Q(1, 3), Q(0)), direction=None, edge_system=None, note="")
        changed = dict(tag="Cylindrical", apex=None, direction=(0, 0, 1), edge_system=(X, Y), note="n")
        check_frozen_record(SurfaceClass, fields, changed)
        assert SurfaceClass("Plane") == SurfaceClass(tag="Plane", apex=None, direction=None, edge_system=None, note="")

    def test_analysis_calls(self, elliptic_cone):
        a = analyze_implicit(elliptic_cone)
        assert a.parametrization is not None and a.failure == ""
        names = ("classification", "k_poly", "surface", "parametrization", "failure")
        fields = {k: getattr(a, k) for k in names}
        check_mutable_record(ImplicitAnalysis, {**fields, "failure": "f"}, dict(parametrization=None, failure=""))
