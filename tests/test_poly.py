"""Kernel arithmetic: exactness of derivatives, determinants, resultants,
gcds, squarefree parts and division, checked against independent oracles."""

import contextlib
import io
import itertools
import random

import pytest

from devsurf.poly import (
    MultiPoly,
    Q,
    canonical_vars,
    det3,
    det4,
    det_bareiss,
    divides,
    exact_div,
    gcd_multi,
    partial_derivative,
    poly_divmod_univar,
    rational_roots,
    resultant,
    squarefree_part,
    subresultant_linear,
)
from devsurf.cli import main as cli_main
from devsurf.exprs import parse_poly
from devsurf.implicit import gaussian_form_implicit
from devsurf.linalg import common_direction, common_point
from devsurf import poly as poly_module

from conftest import bordered_hessian_oracle, perm_det, random_small_multipoly, sylvester_oracle

X, Y, Z, T = (MultiPoly.var(v) for v in "xyzt")


def P(text, vars_=("x", "y", "z", "t")):
    return parse_poly(text, vars_)


class TestDerivative:
    def test_quadric_cone_partial(self, elliptic_cone):
        assert partial_derivative(elliptic_cone, "x") == 8 * X - 4

    def test_constant_derivative_is_zero(self):
        assert partial_derivative(MultiPoly.const(5), "x").is_zero()

    def test_sphere_partial(self, sphere):
        assert partial_derivative(sphere, "z") == 2 * Z

    def test_linearity_and_product_rule_randomized(self):
        rng = random.Random(101)
        for _ in range(25):
            p = random_small_multipoly(rng, ("x", "y"), 3)
            q = random_small_multipoly(rng, ("x", "y"), 3)
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            lin = partial_derivative(p * a + q * b, "x")
            assert lin == a * partial_derivative(p, "x") + b * partial_derivative(q, "x")
            prod = partial_derivative(p * q, "y")
            assert prod == partial_derivative(p, "y") * q + p * partial_derivative(q, "y")


class TestDeterminants:
    def test_identity(self):
        one, zero = MultiPoly.const(1), MultiPoly.zero()
        rows = [[one if i == j else zero for j in range(4)] for i in range(4)]
        assert det4(rows) == 1

    def test_repeated_row_vanishes(self):
        row = [X, Y, Z, X * Y]
        rows = [row, [Y, Z, X, X], row, [X + Y, Z, Z, Y]]
        assert det4(rows).is_zero()

    def test_sphere_bordered_hessian_matches_oracle(self, sphere):
        expected = bordered_hessian_oracle(sphere)
        assert expected == -16 * (X**2 + Y**2 + Z**2)
        coords = ("x", "y", "z")
        grad = [sphere.derivative(v) for v in coords]
        hess = [[sphere.derivative(a).derivative(b) for b in coords] for a in coords]
        rows = [hess[i] + [grad[i]] for i in range(3)] + [grad + [MultiPoly.zero()]]
        assert det4(rows) == expected

    @staticmethod
    def bareiss_grids():
        rng = random.Random(77)
        for _ in range(30):
            n = rng.choice((3, 4))
            yield [
                [random_small_multipoly(rng, ("x", "y"), 1, density=0.8, lo=-3, hi=3) for _ in range(n)]
                for _ in range(n)
            ]
        # sparse 5x5 and 6x6 grids, rational coefficients in 2-3 variables
        rng = random.Random(79)
        zero = MultiPoly.zero()
        for n in (5, 5, 5, 5, 6, 6, 6):
            names = rng.choice((("x", "y"), ("x", "y", "z"), ("y", "s", "t")))
            yield [
                [
                    random_small_multipoly(rng, names, 2, density=0.4) * Q(rng.randint(-5, 5) or 1, rng.choice((1, 2, 3, 7)))
                    if rng.random() < 0.5
                    else zero
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
        one = MultiPoly.const(1)
        # the pivot cases: a negative constant first pivot; a zero first
        # pivot and a pivot that vanishes after one step, each needing a row
        # swap (a sign flip); an all-zero column; nonconstant pivots whose
        # content is 2 and -3
        yield [[MultiPoly.const(-2), X, Y], [X, one, Y + 1], [Y, X - 1, MultiPoly.const(3)]]
        yield [[zero, X, one], [Y, one, X], [one, Y, MultiPoly.const(2)]]
        yield [[one, one, X, Y], [one, one, Y, X], [X, 2 * one, one, Y], [Y, X, X + Y, one]]
        yield [[X, zero, Y], [one, zero, 2 * one], [Y, zero, X]]
        yield [[2 * X + 4, Y, one, X], [X, 3 * one, Y, one], [one, X, 2 * one, Y], [Y, one, X, X * Y]]
        yield [[-3 * X * Y - 6, Y, one], [X, 3 * Y - 1, Y], [Q(1, 2) * X, X, 2 * one]]

    def test_bareiss_equals_permutation_oracle_randomized(self):
        for rows in self.bareiss_grids():
            assert det_bareiss([list(r) for r in rows]) == perm_det(rows)

    def test_det4_equals_permutation_oracle_randomized(self):
        rng = random.Random(78)
        for _ in range(30):
            rows = [
                [random_small_multipoly(rng, ("x", "y", "z"), 2, density=0.6, lo=-3, hi=3) for _ in range(4)]
                for _ in range(4)
            ]
            rows[rng.randrange(4)][rng.randrange(4)] = MultiPoly.zero()
            assert det4(rows) == perm_det(rows)


def _det(rows):
    got = det3(rows) if len(rows) == 3 else det4(rows)
    assert det_bareiss([list(r) for r in rows]) == got
    return got


class TestDeterminantKernel:
    """det3, det4 and det_bareiss scale rows to integers and pack exponents
    into one int key; each case here stresses one of those steps against
    perm_det."""

    @pytest.mark.parametrize("n", (3, 4))
    def test_rows_with_different_denominators(self, n):
        rng = random.Random(300 + n)
        for _ in range(10):
            rows = []
            for i in range(n):
                den = rng.choice((1, 2, 3, 5, 7, 12))
                rows.append(
                    [
                        random_small_multipoly(rng, ("x", "y"), 2, density=0.6) * Q(rng.randint(1, 9), den * (j + 1))
                        for j in range(n)
                    ]
                )
            assert _det(rows) == perm_det(rows)

    @pytest.mark.parametrize("n", (3, 4))
    def test_disjoint_variable_sets(self, n):
        rng = random.Random(310 + n)
        for _ in range(10):
            rows = [
                [
                    random_small_multipoly(rng, ("x", "y") if j % 2 == 0 else ("s", "t"), 2, density=0.7)
                    for j in range(n)
                ]
                for _ in range(n)
            ]
            assert _det(rows) == perm_det(rows)

    @pytest.mark.parametrize("n", (3, 4))
    def test_high_exponents_at_the_radix(self, n):
        # every row's largest exponents sit on one diagonal entry, so the
        # identity-permutation term reaches the packing radix minus one
        big = X**40 * Y**37
        rows = [
            [big - j if i == j else MultiPoly.const(i + 2 * j + 1) for j in range(n)]
            for i in range(n)
        ]
        rows[n - 1][0] = Y**37 + 3
        got = _det(rows)
        assert got == perm_det(rows)
        assert got.degree_in("x") == 40 * n
        assert got.degree_in("y") == 37 * n

    @pytest.mark.parametrize("n", (3, 4))
    def test_zero_row_zero_column_and_singular(self, n):
        rng = random.Random(320 + n)
        rows = [[random_small_multipoly(rng, ("x", "z"), 2) for _ in range(n)] for _ in range(n)]
        zero = MultiPoly.zero()
        zero_row = [list(r) for r in rows]
        zero_row[1] = [zero] * n
        zero_col = [[zero if j == n - 1 else e for j, e in enumerate(r)] for r in rows]
        singular = [list(r) for r in rows]
        singular[0] = [a * Q(2, 3) - b * X for a, b in zip(rows[1], rows[2])]
        for grid in (zero_row, zero_col, singular):
            assert perm_det(grid).is_zero()
            assert _det(grid).is_zero()

    def test_bordered_hessian_of_non_primitive_fraction_polynomial(self, sphere):
        F = sphere * Q(1, 3) + Q(2, 7)
        assert gaussian_form_implicit(F) == bordered_hessian_oracle(F)


class TestBorderedHessian:
    """gaussian_form_implicit differentiates F's packed integer primitive
    part, mirrors the six second derivatives into H and scales K by the
    content to the fourth power; each case compares it with the
    permutation formula of bordered_hessian_oracle."""

    @staticmethod
    def surfaces():
        rng = random.Random(1717)
        for deg in range(1, 6):
            # free of no coordinate, of y, and of two coordinates
            for names in (("x", "y", "z"), ("x", "z"), ("y",)):
                F = random_small_multipoly(rng, names, deg, density=0.5)
                # non-primitive, fractional and negative scalings
                yield F * Q(rng.choice((1, 6, -4, 25)), rng.choice((1, 3, 14)))
        # cylinders along an axis
        for text in ("x^2 + y^2 - 1", "y^3 - x^2", "z^2 - 2*z + 5", "x*y - 1"):
            yield P(text, ("x", "y", "z"))

    def test_equals_permutation_oracle_randomized(self):
        count = 0
        for F in self.surfaces():
            if F.is_constant():
                continue
            assert gaussian_form_implicit(F) == bordered_hessian_oracle(F), F
            count += 1
        assert count >= 16

    def test_dense_surfaces_of_each_degree(self):
        # every monomial of degree <= d in x, y, z, with the content 6/5
        for d in range(2, 5):
            F = MultiPoly(
                ("x", "y", "z"),
                {e: Q(6 * (1 + sum(e) + 2 * e[1]), 5) for e in itertools.product(range(d + 1), repeat=3) if sum(e) <= d},
            )
            assert gaussian_form_implicit(F) == bordered_hessian_oracle(F)

    def test_content_enters_to_the_fourth_power(self, sphere):
        K = gaussian_form_implicit(sphere)
        assert gaussian_form_implicit(sphere * Q(-6, 5)) == K * Q(6, 5) ** 4

    def test_plane_has_zero_form(self):
        plane = 2 * X - 3 * Y + Z * Q(1, 5) - 7
        assert bordered_hessian_oracle(plane).is_zero()
        assert gaussian_form_implicit(plane).is_zero()


class TestResultant:
    def test_substitution_case(self):
        assert resultant(X - T, X**2 - Y, "x") == T**2 - Y

    def test_constant_resultant_matches_root_product_oracle(self):
        p = X**2 + 1
        q = X**2 - 1
        assert sylvester_oracle(p, q, "x") == MultiPoly.const(4)
        assert resultant(p, q, "x") == 4

    def test_common_factor_forces_zero(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_small_multipoly(rng, ("x", "y"), 2)
            if g.degree_in("x") == 0:
                continue
            a = random_small_multipoly(rng, ("x", "y"), 2)
            b = random_small_multipoly(rng, ("x", "y"), 2)
            if (g * a).degree_in("x") == 0 or (g * b).degree_in("x") == 0:
                continue
            assert resultant(g * a, g * b, "x").is_zero()

    def test_coprime_nonzero(self):
        assert not resultant(X * Y + 1, X + Y, "x").is_zero()

    def test_both_constant_in_var_rejected(self):
        with pytest.raises(ValueError):
            resultant(Y + 1, Y**2, "x")

    def test_sympy_oracle(self, monkeypatch):
        # seeded trivariate pairs whose Sylvester matrices have 8-12 rows,
        # then every resultant the analysis of the degree-10 cone map takes
        # (the first one 20x20)
        sympy = pytest.importorskip("sympy")
        rng = random.Random(1)

        def univariate(d):
            # degree d in x, nonzero constant term, coefficients in y and z
            p = MultiPoly.zero()
            for k in range(d + 1):
                if k in (0, d) or rng.random() < 0.6:
                    c = {
                        (rng.randint(0, 1), rng.randint(0, 1)): Q(rng.choice((-7, -3, -1, 1, 2, 5)), rng.choice((1, 2, 3)))
                        for _ in range(rng.randint(1, 3))
                    }
                    p = p + MultiPoly(("y", "z"), c) * X**k
            return p

        pairs = []
        for size in (8, 9, 10, 11, 12):
            m = rng.randint(2, size - 2)
            pairs.append((univariate(m), univariate(size - m), "x"))
        calls = []

        def recording(p, q, var):
            calls.append((p, q, var))
            return resultant(p, q, var)

        for module in ("implicit", "curves", "parametric", "builder"):
            monkeypatch.setattr(f"devsurf.{module}.resultant", recording)
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(["parametric", "(s*(t^10+2*t^2+1), s*(t^8-3*t^4+2), s*(t^6+t^2+5))"])
        assert max(p.degree_in(v) + q.degree_in(v) for p, q, v in calls) == 20
        for p, q, var in pairs + calls:
            sp, sq, got = (sympy.sympify(f.to_text().replace("^", "**")) for f in (p, q, resultant(p, q, var)))
            # sympy agrees when the first argument has the higher degree; for
            # deg p < deg q its resultant(p, q) is Res(q, p) = (-1)^(mn) Res(p, q)
            m, n, v = p.degree_in(var), q.degree_in(var), sympy.Symbol(var)
            expected = sympy.resultant(sp, sq, v) if m >= n else (-1) ** (m * n) * sympy.resultant(sq, sp, v)
            assert sympy.expand(got - expected) == 0


class TestGcd:
    def test_simple(self):
        assert gcd_multi(X**2 - 1, X - 1) == X - 1

    def test_self_gcd_is_normalized_self(self):
        p = 4 * X**2 - 4
        assert gcd_multi(p, p) == X**2 - 1

    def test_gcd_with_zero(self):
        assert gcd_multi(MultiPoly.zero(), 3 * X - 3) == X - 1

    def test_two_sided_division_oracle(self):
        p = (X + Y) ** 2 * (X - Y)
        q = (X + Y) * (X - Y) ** 2
        g = gcd_multi(p, q)
        ok_p, hp = divides(g, p)
        ok_q, hq = divides(g, q)
        assert ok_p and ok_q
        # greatest: the cofactors are coprime
        assert gcd_multi(hp, hq).is_constant()
        assert g == (X + Y) * (X - Y) * Q(1)

    def test_randomized_constructed_gcds(self):
        rng = random.Random(9)
        for _ in range(25):
            g = random_small_multipoly(rng, ("x", "y"), 2)
            a = random_small_multipoly(rng, ("x", "y"), 2)
            b = random_small_multipoly(rng, ("x", "y"), 2)
            d = gcd_multi(g * a, g * b)
            ok1, c1 = divides(d, g * a)
            ok2, c2 = divides(d, g * b)
            assert ok1 and ok2
            okg, _ = divides(gcd_multi(d, g), g)
            assert okg
            assert gcd_multi(c1, c2).is_constant()

    def test_unlucky_first_point_retries_interpolation(self, monkeypatch):
        # 4(s-1)(2t-s+1) and (s-1)^4: t is interpolated, and at t = 0 the
        # image gcd is (s-1)^2; that point alone fills the bound, its
        # interpolation fails the division test mod p, and t = 1 gives s - 1
        tests = []
        quotient = poly_module._quotient

        def record(rem, divisor, p=0):
            if p:
                tests.append(p)
            return quotient(rem, divisor, p)

        monkeypatch.setattr(poly_module, "_quotient", record)
        p = P("8*t*s - 4*s^2 - 8*t + 8*s - 4", ("s", "t"))
        assert gcd_multi(p, P("(s-1)^4", ("s", "t"))) == P("s - 1", ("s",))
        # the division test mod p fails once, for (s-1)^2, then passes twice
        assert len(tests) == 3
        assert exact_div(p, P("(s-1)^2", ("s",))) is None
        # with s and t swapped, t - 1 is the content in the interpolated t
        p = P("8*s*t - 4*t^2 - 8*s + 8*t - 4", ("s", "t"))
        assert gcd_multi(p, P("(t-1)^4", ("s", "t"))) == T - 1

    def test_unlucky_prime_is_skipped(self):
        # the two agree modulo the first prime, so its image is x + 1,
        # which fails the trial division over Z; the next prime proves 1
        p0 = poly_module._modulus(0)
        assert gcd_multi(X + 1, X + 1 + p0) == 1
        assert gcd_multi((X + 1) * (X * Y - 2), (X + 1 + p0) * (X * Y - 2)) == X * Y - 2
        # a prime dividing a leading coefficient is passed over
        assert gcd_multi(p0 * X + 1, (p0 * X + 1) * (X - 1)) == p0 * X + 1
        # y is interpolated, and lc_x(p) = y - c vanishes at the evaluation
        # point y = c: with the first q so does gamma, and the point is
        # skipped; with the second only the image of p drops its degree
        g = X * Y - 2
        for c in range(3):
            p = (Y - c) * X**2 + X + Y
            for q in ((Y - c) * X**2 + 1, X**2 + Y):
                assert gcd_multi(p, q) == 1
                assert gcd_multi(g * p, g * q) == g

    def test_moduli_are_the_primes_below_2_61(self):
        sympy = pytest.importorskip("sympy")
        moduli = [poly_module._modulus(i) for i in range(12)]
        assert moduli[0] == 2**61 - 1
        for m, nxt in zip(moduli, moduli[1:]):
            assert sympy.isprime(m) and sympy.prevprime(m) == nxt

    def test_gcd_independent_of_call_history(self, monkeypatch):
        # the moduli and the evaluation points are fixed: the same gcds
        # compute the same images mod p whatever ran before
        calls = []
        pgcd = poly_module._pgcd

        def record(a, b, p):
            calls.append((a, b, p))
            return pgcd(a, b, p)

        monkeypatch.setattr(poly_module, "_pgcd", record)
        rng = random.Random(12)
        pairs = []
        for _ in range(12):
            g, a, b = (random_small_multipoly(rng, ("x", "y", "z"), 2) for _ in range(3))
            pairs.append((g * a, g * b))

        def run():
            calls.clear()
            return [gcd_multi(p, q) for p, q in pairs], list(calls)

        first = run()
        assert first[1]
        for p, q in pairs[:4]:
            gcd_multi(p * (X + 3), q * Y)
            gcd_multi(X + 1, X + 1 + poly_module._modulus(0))
            rational_roots((T - 2) ** 2 * (T**2 + 1), "t")
        assert run() == first

    def test_sympy_oracle_multi_prime(self):
        # gcds whose coefficients exceed 2^61: one modulus cannot hold them,
        # so the images of two or more primes are combined
        sympy = pytest.importorskip("sympy")
        names = ("x", "y", "z")
        gens = sympy.symbols(names)
        rng = random.Random(20261019)

        def factor(bits):
            terms = {}
            for _ in range(rng.randint(2, 4)):
                terms[tuple(rng.randint(0, 2) for _ in names)] = rng.choice((-1, 1)) * rng.getrandbits(bits)
            return MultiPoly(names, terms)

        for _ in range(12):
            g, a, b = factor(90), factor(4), factor(4)
            if g.is_constant() or g.content_unit() != 1:
                continue
            mine = gcd_multi(g * a, g * b)
            assert max(abs(c) for c in mine.terms.values()) > 2**61
            expected = sympy.gcd(*(sympy.Poly(sympy.sympify(f.to_text().replace("^", "**")), *gens) for f in (g * a, g * b)))
            assert sympy.Poly(sympy.sympify(mine.to_text().replace("^", "**")), *gens).monic() == expected.monic()

    def test_sympy_oracle(self):
        sympy = pytest.importorskip("sympy")
        names = ("x", "y", "z", "t")
        gens = sympy.symbols(names)

        def to_sympy(p):
            return sympy.Poly(
                {tuple(dict(zip(p.vars, e)).get(n, 0) for n in names): sympy.Rational(c.numerator, c.denominator)
                 for e, c in p.terms.items()},
                *gens,
                domain="QQ",
            )

        rng = random.Random(20261018)

        def factor(vars_):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exps = tuple(rng.randint(0, 2) for _ in vars_)
                terms[exps] = Q(rng.choice((-5, -2, -1, 1, 3, 7)), rng.choice((1, 1, 2, 3)))
            return MultiPoly(vars_, terms)

        for _ in range(60):
            vars_ = rng.sample(names, rng.randint(2, 4))
            g, a, b = factor(vars_), factor(vars_), factor(vars_)
            mine = to_sympy(gcd_multi(g * a, g * b))
            expected = sympy.gcd(to_sympy(g * a), to_sympy(g * b))
            assert mine.monic() == expected.monic()


class TestSquarefree:
    def test_square_drops(self):
        assert squarefree_part((X - 1) ** 2) == X - 1

    def test_squarefree_unchanged(self):
        p = X**2 + Y - 1
        assert squarefree_part(p) == p

    def test_cube_factor_division_oracle(self):
        base = X**2 + Y**2 - 1
        p = base**3 * Z
        sf = squarefree_part(p)
        assert sf == (base * Z).normalized()
        ok, _ = divides(sf**3, p * sf * sf)
        assert ok

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_part(MultiPoly.zero())


class TestDivision:
    def test_constant_multiple(self, elliptic_cone):
        ok, h = divides(elliptic_cone, elliptic_cone * 576)
        assert ok and h == MultiPoly.const(576)

    def test_non_divisor(self, elliptic_cone):
        ok, h = divides(elliptic_cone, elliptic_cone + 1)
        assert not ok and h is None

    def test_product(self):
        ok, h = divides(X + Y, (X + Y) * (X**2 - 3))
        assert ok and h == X**2 - 3

    def test_leading_coefficient_not_divisible(self):
        # 3x^2 + x = x*(2x + 1) + x^2: the lower terms cancel exactly, only
        # the leading coefficient 3 is not a multiple of 2
        assert exact_div(3 * X**2 + X, 2 * X + 1) is None
        assert exact_div(6 * X**2 + 3 * X, 2 * X + 1) == 3 * X
        assert exact_div(3 * X**2 + X, 2 * X + 1 - Y) is None

    def test_differential_against_exact_div(self):
        # p*h must divide with quotient h; p*h + r, r nonzero and of lower
        # degree than p, must not
        rng = random.Random(4711)
        refuted = 0
        for _ in range(80):
            names = rng.choice((("x", "y", "z"), ("x", "y"), ("y", "t")))
            p = random_small_multipoly(rng, names, rng.randint(1, 3)) * Q(rng.randint(1, 5), rng.choice((1, 2, 9)))
            h = random_small_multipoly(rng, rng.choice((names, ("x", "t"))), rng.randint(0, 2))
            q = p * h
            assert divides(p, q) == (True, exact_div(q, p))
            assert exact_div(q, p) == h
            if p.is_constant():
                continue
            r = random_small_multipoly(rng, names, p.total_degree() - 1) * Q(1, rng.randint(1, 4))
            assert exact_div(q + r, p) is None
            assert divides(p, q + r) == (False, None)
            refuted += poly_module._image_refutes(p, q + r)
        assert refuted >= 40

    def test_image_vanishing_at_the_evaluation_point(self):
        # the i-th variable of the joint tuple, other than p's main one, is
        # set to 2i + 3: y (i = 1) to 5 and z (i = 2) to 7 here
        pairs = [
            ((Y - 5) * (X**2 + 1), X + Y),  # p's image is zero
            ((Y - 5) * X**2 + X + 1, X - Y),  # p's image drops in degree
            ((Z - 7) * (X**2 + 1), Y + 1),  # y comes from q alone
            ((2**61 - 1) * X * Y, X + 2),  # P divides p's content
            ((2**61 - 1) * X + (2**62 - 2) * Y, X - Y + 1),
        ]
        for p, h in pairs:
            q = p * h
            assert not poly_module._image_refutes(p, q)
            ok, quo = divides(p, q)
            assert ok and quo == h
            assert divides(p, q + 1) == (False, None)
        # a zero image of p, where an exact remainder exists
        assert divides((Y - 5) * (X**2 + 1), (X**2 + 1) * (Y - 4)) == (False, None)

    def test_degenerate_arguments(self):
        assert divides(X + 1, MultiPoly.zero()) == (True, MultiPoly.zero())
        assert divides(MultiPoly.const(Q(2, 3)), X + 1) == (True, (X + 1) * Q(3, 2))
        with pytest.raises(ZeroDivisionError):
            divides(MultiPoly.zero(), X)

    def test_division_matches_evaluation_at_random_points(self):
        rng = random.Random(31)
        p = X**2 + 3 * Y - 1
        q = p * (X * Y - 2)
        ok, h = divides(p, q)
        assert ok
        for _ in range(50):
            pt = {"x": Q(rng.randint(-40, 40)), "y": Q(rng.randint(-40, 40))}
            assert q.eval_all(pt) == p.eval_all(pt) * h.eval_all(pt)


class TestRingAxioms:
    def test_distributivity_randomized(self):
        rng = random.Random(13)
        for _ in range(30):
            p = random_small_multipoly(rng, ("x", "y", "z"), 2)
            q = random_small_multipoly(rng, ("x", "y", "z"), 2)
            r = random_small_multipoly(rng, ("x", "y", "z"), 2)
            assert (p + q) * r == p * r + q * r
            assert p * q == q * p
            assert (p - p).is_zero()


def assert_canonical(r):
    """r is stored canonically and equals its re-canonicalized twin."""
    assert r.vars == canonical_vars(r.vars)
    for i in range(len(r.vars)):
        assert any(e[i] for e in r.terms), f"unused variable {r.vars[i]}"
    for e, c in r.terms.items():
        assert len(e) == len(r.vars)
        assert type(c) is Q and c != 0
    twin = MultiPoly(r.vars, r.terms)
    assert r == twin and hash(r) == hash(twin)


class TestIntegerKernel:
    """Differential check of the integer-coefficient products, sums and
    exact division on seeded random pairs: 1-4 variables, differing
    variable sets, integer and rational coefficients, cancelling sums."""

    NAMES = ("t", "z", "x", "y")  # deliberately not in canonical order

    @classmethod
    def random_poly(cls, rng):
        names = rng.sample(cls.NAMES, rng.randint(1, 4))
        dens = (1,) if rng.random() < 0.5 else (1, 2, 3, 14)
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exps = tuple(rng.randint(0, 3) for _ in names)
            terms[exps] = Q(rng.choice((-9, -4, -1, 1, 2, 3, 8)), rng.choice(dens))
        return MultiPoly(names, terms)

    @classmethod
    def pairs(cls, count=150):
        rng = random.Random(20260811)
        for i in range(count):
            a, b = cls.random_poly(rng), cls.random_poly(rng)
            if i % 4 == 0:
                b = b - a  # a + b cancels every term of a
            yield a, b

    def test_results_are_canonical(self):
        for a, b in self.pairs():
            for r in (a + b, a - b, a * b, -a, a - a, (a + b) - b, a * 3, a * Q(-2, 7)):
                assert_canonical(r)
            assert (a - a).is_zero() and (a - a).vars == ()
            assert (a + b) - b == a
            h = exact_div(a * b, a)
            assert_canonical(h)
            for v in a.vars:
                assert_canonical(a.derivative(v))
                for c in a.coeffs_in(v).values():
                    assert_canonical(c)
                part = a.eval_partial({v: Q(-3, 2)})
                assert_canonical(part)
                point = {n: Q(k + 2, 3) for k, n in enumerate(a.vars)}
                point[v] = Q(-3, 2)
                assert part.eval_all(point) == a.eval_all(point)

    def test_exact_div_recovers_factor(self):
        for a, b in self.pairs():
            if b.is_zero():
                continue
            assert exact_div(a * b, a) == b
            assert exact_div(a * b, b) == a
            if not a.is_constant():
                assert exact_div(a * b + 1, a) is None
                assert exact_div(a * b + Q(1, 3), a) is None

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        gens = sympy.symbols(self.NAMES)
        by_name = dict(zip(self.NAMES, gens))

        def to_sympy(p):
            expr = sympy.Add(*(
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(by_name[v] ** e for v, e in zip(p.vars, exps)))
                for exps, c in p.terms.items()
            ))
            return sympy.Poly(expr, *gens, domain="QQ")

        for a, b in self.pairs(100):
            sa, sb = to_sympy(a), to_sympy(b)
            assert to_sympy(a * b) == sa * sb
            assert to_sympy(a + b) == sa + sb
            assert to_sympy(a - b) == sa - sb
            ab = a * b
            bumped = ab + MultiPoly(ab.vars, {ab.leading()[0]: 1})  # lc(ab) + 1
            for num in (ab, ab + b, b, bumped):
                quo, rem = sympy.div(to_sympy(num), sa)
                h = exact_div(num, a)
                if rem.is_zero:
                    assert h is not None and to_sympy(h) == quo
                else:
                    assert h is None


class TestUnivariateHelpers:
    def test_divmod(self):
        p = P("t^3 - 2*t + 5", ("t",))
        q = P("t - 1", ("t",))
        quo, rem = poly_divmod_univar(p, q, "t")
        assert quo * q + rem == p
        assert rem.total_degree() == 0

    def test_rational_roots_exact(self):
        wanted = [Q(1), Q(1, 2), Q(-1, 3)]
        p = MultiPoly.const(6)
        for r in wanted:
            p = p * (T - r)
        roots = rational_roots(p, "t")
        assert roots == sorted(wanted)

    def test_rational_roots_ignores_irrational(self):
        assert rational_roots(P("t^2 - 2", ("t",)), "t") == []

    def test_rational_roots_large_root(self):
        p = (T - 37) * (2 * T + 91)
        roots = rational_roots(p, "t")
        assert roots == sorted([Q(37), Q(-91, 2)])

    @pytest.mark.parametrize(
        "text, roots",
        [
            # tiny, huge and close roots, each missed by a grid scan with
            # continued fractions capped at denominator 10^7
            ("t - 1/20000000", [Q(1, 20000000)]),
            ("(1000*t-1)*(1000*t-2)*(t^2+1)", [Q(1, 1000), Q(1, 500)]),
            ("(t-100001)*(t-100002)", [Q(100001), Q(100002)]),
            ("(12345678*t-1)*(t^2+2)", [Q(1, 12345678)]),
            ("(t-1/3)*(t-1/3-1/1000)*(t^2+5)", [Q(1, 3), Q(1003, 3000)]),
            # roots 1 and 4 meet mod 3 and f has a double root mod 2
            ("(t-1)*(t-4)*(t^2+1)", [Q(1), Q(4)]),
            # 3 and 5 divide the leading coefficient
            ("(15*t-1)*(t-2)", [Q(1, 15), Q(2)]),
            ("(15*t-1)*(t-3)", [Q(1, 15), Q(3)]),
            ("t^3*(2*t-3)^2*(t^2-2)", [Q(0), Q(3, 2)]),
            ("7*t^4", [Q(0)]),
        ],
    )
    def test_rational_roots_complete(self, text, roots):
        assert rational_roots(P(text, ("t",)), "t") == roots

    @staticmethod
    def _random_products(seed, count):
        rng = random.Random(seed)
        quadratics = [T**2 + 1, T**2 - 2, 3 * T**2 + 5, T**2 + T + 1, 2 * T**2 - 7]
        for _ in range(count):
            p = MultiPoly.const(rng.choice([1, -2, 3]))
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.7:
                    p = p * (rng.randint(1, 12) * T - rng.randint(-12, 12))
                else:
                    p = p * rng.choice(quadratics)
            yield p

    def test_rational_roots_brute_force_oracle(self):
        # rational root theorem: every root is +-u/v with u | a0 and v | an
        def divisors(n):
            return [d for d in range(1, int(n) + 1) if n % d == 0]

        for p in self._random_products(20261018, 60):
            dense = {k: c.constant_value() for k, c in p.coeffs_in("t").items()}
            low = min(dense)
            a0, an = abs(dense[low]), abs(dense[max(dense)])
            assert a0.denominator == an.denominator == 1
            wanted = {Q(0)} if low > 0 else set()
            for u in divisors(a0):
                for v in divisors(an):
                    wanted |= {r for r in (Q(u, v), Q(-u, v)) if p.eval_all({"t": r}) == 0}
            assert rational_roots(p, "t") == sorted(wanted)

    def test_rational_roots_sympy_oracle(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        rng = random.Random(7)
        polys = list(self._random_products(4242, 30))
        polys += [
            sum((rng.randint(-9, 9) * T**k for k in range(1, rng.randint(2, 7))), MultiPoly.const(rng.randint(-9, 9)))
            for _ in range(30)
        ]
        for p in polys:
            if p.is_constant():
                continue
            expr = sympy.Add(
                *(sympy.Rational(c.numerator, c.denominator) * t ** e[0] for e, c in p.terms.items())
            )
            expected = sorted(Q(int(r.p), int(r.q)) for r in sympy.Poly(expr, t).ground_roots())
            assert rational_roots(p, "t") == expected

    def test_rational_roots_rejects_bad_input(self):
        with pytest.raises(ValueError):
            rational_roots(MultiPoly.zero(), "t")
        with pytest.raises(ValueError):
            rational_roots(T * X - 1, "t")
        assert rational_roots(MultiPoly.const(3), "t") == []

    def test_subresultant_linear_tracks_shared_root(self):
        p = (T - 1) * (T - 2)
        q = (T - 1) * (T - 3)
        s1 = subresultant_linear(p, q, "t")
        assert s1 is not None
        a, b = s1
        val = a * T + b
        assert val.eval_partial({"t": Q(1)}).is_zero() or val.eval_all({"t": Q(1)}) == 0


S = MultiPoly.var("s")


class TestLinearIdentities:
    """common_point and common_direction on families of planes and normals
    whose coefficients are polynomials in s and t."""

    def test_point_unique(self):
        # planes s*x + t*y + z = s + 2*t + 3 all pass through (1, 2, 3)
        planes = [S, T, MultiPoly.const(1), -(S + 2 * T + 3)]
        assert common_point(planes, ("s", "t")) == ("point", (Q(1), Q(2), Q(3)))

    def test_point_underdetermined(self):
        # planes s*x + t*y = s + 2*t all contain the line x = 1, y = 2
        planes = [S, T, MultiPoly.zero(), -(S + 2 * T)]
        assert common_point(planes, ("s", "t")) == ("degenerate", None)

    def test_point_inconsistent(self):
        # the planes x = -s are parallel: no common point
        planes = [MultiPoly.const(1), MultiPoly.zero(), MultiPoly.zero(), S]
        assert common_point(planes, ("s", "t")) == ("none", None)

    def test_direction_none(self):
        assert common_direction([MultiPoly.const(1), S, T], ("s", "t")) == ("none", None)

    def test_direction_one_dimensional(self):
        assert common_direction([-S, S, T], ("s", "t")) == ("vector", (1, 1, 0))

    def test_direction_two_dimensional(self):
        assert common_direction([S, S, MultiPoly.zero()], ("s", "t")) == ("degenerate", None)
