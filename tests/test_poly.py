"""Kernel arithmetic: exactness of derivatives, determinants, resultants,
gcds, squarefree parts and division, checked against independent oracles."""

import contextlib
import io
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from devsurf.poly import (
    MultiPoly,
    Q,
    bordered_hessian,
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
    sylvester_matrix,
)
from devsurf.arith import modulus
from devsurf.cli import main as cli_main
from devsurf.exprs import MAX_CONSTANT_BITS, parse_poly
from devsurf.implicit import gaussian_form_implicit
from devsurf.linalg import common_direction, common_point
from devsurf import poly as poly_module

from conftest import bordered_hessian_oracle, perm_det, random_small_multipoly, sylvester_oracle
import devsurf
import stored_forms

TESTS = Path(__file__).parent
SRC = Path(devsurf.__file__).parents[1]

X, Y, Z, S, T = (MultiPoly.var(v) for v in "xyzst")


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


# bit lengths k of the coefficients 2^k - 1 in the Kronecker width tests
WIDE_BITS = (7, 8, 63, 64, 200)


def _det(rows):
    got = det3(rows) if len(rows) == 3 else det4(rows)
    assert det_bareiss([list(r) for r in rows]) == got
    return got


class TestDeterminantKernel:
    """det3, det4 and det_bareiss scale rows to integers and decode one
    Kronecker image of the determinant, radix S + 1 per variable: det3 and
    det4 expand Laplace minors of images split by the first variable,
    det_bareiss maps each entry to one int and runs Bareiss on the ints;
    each case here stresses one of those steps against perm_det."""

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

    # Kronecker images hold coefficients in slots of w bits, w =
    # bit_length(B) + 1 in whole bytes: for det3, det4 and the bordered
    # Hessian B is the permanent of the entries' L1 norms, for det_bareiss
    # and resultant the Goldstein-Graham bound isqrt(prod_r sum_j
    # |m_rj|_1^2).  Coefficients of 2^k - 1 on a permutation's places put
    # either B at k * n bits, a multiple of 8 for k = 8, 64 and 200, where a
    # width one bit short loses a byte.

    def test_width_comes_from_the_permanent(self):
        # a triangular grid: only the diagonal survives in the permanent,
        # 255^3 (24 bits), though the rows' summed norms multiply to about 2^49
        big = 2**20
        assert poly_module._slot_width([[255, big, big], [0, 255, big], [0, 0, 255]]) == 32
        # bit_length(B) + 1 = 32 fills four bytes, 33 takes a fifth
        assert poly_module._slot_width([[2**15, 0, 0], [0, 2**15, 0], [0, 0, 1]]) == 32
        assert poly_module._slot_width([[2**16, 0, 0], [0, 2**15, 0], [0, 0, 1]]) == 40
        # a bordered grid [[0, a^T], [a, N]] with N diagonal: only the three
        # permutations through a diagonal cofactor survive, 3 * 255^4
        a, n = 255, 255
        assert poly_module._slot_width([[0, a, a, a], [a, n, 0, 0], [a, 0, n, 0], [a, 0, 0, n]]) == 40
        assert poly_module._slot_width([]) == 8  # a 0x0 grid's permanent is 1
        # B = 0 bounds every coefficient by 0: no width, the determinant is 0
        assert poly_module._slot_width([[1, 2, 3], [0, 0, 0], [4, 5, 6]]) == 0
        assert poly_module._slot_width([[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]]) == 0

    @pytest.mark.parametrize("k", WIDE_BITS)
    @pytest.mark.parametrize("n", (3, 4))
    def test_coefficient_at_the_width_bound(self, n, k):
        # one monomial per row, at a permutation's places: each row's L1 sum
        # is c = 2^k - 1, so the determinant's one coefficient is +-c^n = +-B,
        # and each of its exponents is the sum of the rows' largest, S; the
        # second monomial is free of x, the fourth is a constant
        c = 2**k - 1
        zero = MultiPoly.zero()
        monomials = [X * Y**2 * T, Y**3, X**2 * T**2, MultiPoly.const(1)]
        for perm in (list(range(n)), list(range(n))[::-1], [*range(1, n), 0]):
            for signs in itertools.product((1, -1), repeat=n):
                rows = [[zero] * n for _ in range(n)]
                for i, j in enumerate(perm):
                    rows[i][j] = signs[i] * c * monomials[i]
                got = _det(rows)
                assert got == perm_det(rows)
                assert [abs(v) for v in got.terms.values()] == [c**n]

    @pytest.mark.parametrize("k", WIDE_BITS)
    def test_alternating_signs_in_adjacent_slots(self, k):
        # a triangular grid: the determinant c^3 * x * y * (t - 1)^3 has the
        # signs +, -, +, - in adjacent slots of t, so a slot read without
        # the borrow from the one below it is off by one
        c = 2**k - 1
        rows = [
            [c * X * (T - 1), c * Y * T - 1, c * X * Y - c],
            [MultiPoly.zero(), c * (T - 1), c * T**2 - c * T + c],
            [MultiPoly.zero(), MultiPoly.zero(), c * Y * (T - 1)],
        ]
        got = _det(rows)
        assert got == perm_det(rows) == c**3 * X * Y * (T - 1) ** 3
        rows[2][0] = c * T**3 - c * X  # no longer triangular
        assert _det(rows) == perm_det(rows)

    @staticmethod
    def _wide(rng, names, k):
        """Up to 8 terms in names with coefficients +-(2^k - 1), +-2^(k-1) -
        1 or +-1, the sign alternating with the total degree."""
        c = 2**k - 1
        deg = 2 if len(names) <= 2 else 1
        terms = {
            e: (-1) ** sum(e) * rng.choice((c, c >> 1, 1))
            for e in itertools.product(range(deg + 1), repeat=len(names))
            if rng.random() < 0.6
        }
        return MultiPoly(names, terms) if terms else MultiPoly.const(-c)

    @pytest.mark.parametrize("k", WIDE_BITS)
    @pytest.mark.parametrize("names", ((), ("t",), ("x", "t"), ("x", "y", "t"), ("x", "y", "s", "t")))
    def test_wide_grids_over_each_number_of_variables(self, names, k):
        rng = random.Random(1000 * k + len(names))
        head = MultiPoly.var(names[0]) if names else MultiPoly.const(3)
        for n in (3, 4):
            for _ in range(2):
                # about a third of the entries are free of the first variable
                rows = [[self._wide(rng, names[1:] if rng.random() < 0.3 else names, k) for _ in range(n)] for _ in range(n)]
                rows[1] = [p * Q(2**k - 1, 6) for p in rows[1]]
                rows[2] = [p * Q(1, 2 ** (k // 2) * 7) for p in rows[2]]
                assert _det(rows) == perm_det(rows)
                rows[0] = [a * Q(2**k + 1, 5) - b * head for a, b in zip(rows[1], rows[2])]
                assert perm_det(rows).is_zero()
                assert _det(rows).is_zero()


    def test_width_comes_from_the_goldstein_graham_bound(self, monkeypatch):
        # det_bareiss hands the decoder w = bit_length(B) + 1 in whole bytes,
        # B = isqrt(prod_r sum_j |m_rj|_1^2); rows orthogonal as vectors
        # reach B, here the determinant -2^31 and the coefficients 2^30
        widths = []
        decode = poly_module._kronecker_det

        def spy(image, w, radix):
            widths.append(w)
            return decode(image, w, radix)

        monkeypatch.setattr(poly_module, "_kronecker_det", spy)
        one, zero, c = MultiPoly.const(1), MultiPoly.zero(), 2**15
        grids = [
            ([[255 * X, zero, zero], [zero, 255 * one, zero], [zero, zero, 255 * Y]], 32),  # 255^3: 24 bits
            ([[c * one, c * one], [c * one, -c * one]], 40),  # 2^31: 32 bits
            ([[c * X, c * one], [-c * one, c * X]], 40),
            ([[c * X, one], [one, c * Y]], 32),  # isqrt((2^30 + 1)^2) = 2^30 + 1: 31 bits
            ([[X + 1, Y], [3 * one, zero]], 8),  # isqrt(5 * 9) = 6
            ([[X, Y], [zero, zero]], 8),  # a zero row bounds every coefficient by 0
        ]
        for rows, w in grids:
            widths.clear()
            assert det_bareiss(rows) == perm_det(rows)
            assert widths == [w]

    @pytest.mark.parametrize("k", WIDE_BITS)
    @pytest.mark.parametrize("n", (1, 2, 3, 5))
    def test_diagonal_at_the_goldstein_graham_bound(self, n, k):
        # a diagonal of +-(2^k - 1) times one monomial per row: each row's
        # sum of squares is c^2, so B = c^n is the determinant's one
        # coefficient, in a slot whose top bit is the sign bit; the
        # monomials reach each radix S + 1 minus one, and the constant
        # diagonal has no variable at all
        c = 2**k - 1
        zero = MultiPoly.zero()
        monomials = [X**2 * T, Y, MultiPoly.const(1), X * Y * Z, T**3]
        for diag in (monomials[:n], [MultiPoly.const(1)] * n):
            for signs in ((1,) * n, tuple((-1) ** i for i in range(n))):
                rows = [[signs[i] * c * diag[i] if i == j else zero for j in range(n)] for i in range(n)]
                got = det_bareiss(rows)
                assert got == math.prod(signs) * c**n * math.prod(diag, start=MultiPoly.const(1))
                assert [abs(v) for v in got.terms.values()] == [c**n]
                if n in (3, 4):
                    assert _det(rows) == got

    def test_kernels_never_divide_polynomials(self, monkeypatch):
        # every division by a nonconstant pivot is an integer division of
        # images, so _quotient never runs in a determinant or resultant
        calls = []
        quotient = poly_module._quotient

        def spy(*args):
            calls.append(args)
            return quotient(*args)

        monkeypatch.setattr(poly_module, "_quotient", spy)
        p, q = P("(x*y + 2*z - 1)*x^2 + (y^2 - z)*x + 3*y - z^2"), P("(y - z)*x^3 - 2*x + y*z + 1")
        assert not resultant(p, q, "x").is_zero()
        assert subresultant_linear(p, q, "x") is not None
        for rows in TestDeterminants.bareiss_grids():
            det_bareiss([list(r) for r in rows])
            if len(rows) in (3, 4):
                _det(rows)
        assert calls == []


class TestBorderedHessian:
    """gaussian_form_implicit differentiates F's packed integer primitive
    part, mirrors the six second derivatives into H, forms K = -g^T adj(H) g
    on Kronecker images and scales it by the content to the fourth power;
    each case compares it with the permutation formula of
    bordered_hessian_oracle."""

    @staticmethod
    def dense(d):
        """Every monomial of degree <= d in x, y, z, signs alternating with
        the degree."""
        exps = [e for e in itertools.product(range(d + 1), repeat=3) if sum(e) <= d]
        return MultiPoly(("x", "y", "z"), {e: (-1) ** sum(e) * (1 + e[0] + 2 * e[1] + 3 * e[2]) for e in exps})

    @pytest.mark.parametrize("d", (2, 3, 4, 5))
    def test_form_reaches_the_capped_radix(self, d):
        # K's exponent of each tail variable (y, z) reaches 4d - 6, one below
        # its radix min(4d, 4d - 6) + 1, so a radix one smaller carries
        F = self.dense(d)
        K = bordered_hessian(F, ("x", "y", "z"))
        assert K == bordered_hessian_oracle(F)
        assert K.degree_in("y") == K.degree_in("z") == 4 * d - 6

    @pytest.mark.parametrize("n", range(2, 7))
    def test_rank_one_hessian_pays_only_the_cofactors(self, n, monkeypatch):
        # F = u^n + x, u = x + y + z + 1: H = n(n-1) u^(n-2) times the all-ones
        # matrix has rank 1, so all six cofactors cancel and K = 0; past the
        # 12 cofactor products no product has two nonzero factors
        F = P(f"(x+y+z+1)^{n} + x", ("x", "y", "z"))
        assert bordered_hessian_oracle(F).is_zero()
        paid = []
        add_product = poly_module._add_product

        def spy(acc, a, b, sign):
            paid.append(bool(a) and bool(b))
            add_product(acc, a, b, sign)

        monkeypatch.setattr(poly_module, "_add_product", spy)
        assert bordered_hessian(F, ("x", "y", "z")).is_zero()
        assert sum(paid) == 12

    def test_free_of_the_head_of_two_coordinates_of_a_parameter_and_planes(self):
        # the head is F's first variable: y when F is free of x, z when F is
        # in z alone; t is no coordinate but enters the degree bound
        for text in ("y^3*z - 2*y*z^2 + 5*z - 7", "y^2 + z^2/3 - y*z", "3*z^4 - z + 2", "x^2*t + y*z*t^2 - z^3"):
            F = P(text)
            assert bordered_hessian(F, ("x", "y", "z")) == bordered_hessian_oracle(F), F
        for text in ("2*x - 3*y + z/5 - 7", "y/2 + 4", "t + x", "5"):
            F = P(text)
            assert bordered_hessian_oracle(F).is_zero()
            assert bordered_hessian(F, ("x", "y", "z")).is_zero()

    @pytest.mark.parametrize(
        "text", ("-2*x*y^2 + 17*z^3", "-43*x*y^2 + 3*z^3", "-271*x*y^2 + 3*z^3", "x^3 - 15*y*z", "4*x^3 - y*z")
    )
    def test_coefficient_in_the_top_half_of_the_width(self, text):
        # B, the permanent of the bordered grid's L1 norms, has a multiple of
        # 8 bits here, and a coefficient of K is at least 2^(bit_length(B) -
        # 1), so a width one bit short of bit_length(B) + 1 loses it
        F = P(text, ("x", "y", "z"))
        grad = [F.derivative(v) for v in "xyz"]
        grid = [[MultiPoly.zero(), *grad]] + [[g] + [g.derivative(v) for v in "xyz"] for g in grad]
        norms = [[sum(map(abs, p.terms.values())) for p in row] for row in grid]
        bound = sum(math.prod(row[j] for row, j in zip(norms, perm)) for perm in itertools.permutations(range(4)))
        bits = bound.bit_length()
        K = bordered_hessian(F, ("x", "y", "z"))
        assert bits % 8 == 0 and max(map(abs, K.terms.values())) >= 2 ** (bits - 1)
        assert K == bordered_hessian_oracle(F)

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

    @pytest.mark.parametrize("k", WIDE_BITS)
    def test_wide_coefficients(self, k):
        # K's Kronecker images take F's first variable as the head; here F
        # is free of x, of two coordinates, or constant, and its
        # coefficients +-(2^k - 1) alternate in sign with the degree
        rng = random.Random(2000 + k)
        c = 2**k - 1
        for names in (("x", "y", "z"), ("y", "z"), ("x", "z"), ("z",), ()):
            for deg in (2, 3, 4):
                terms = {
                    e: (-1) ** sum(e) * rng.choice((c, c >> 1, 1))
                    for e in itertools.product(range(deg + 1), repeat=len(names))
                    if sum(e) <= deg and rng.random() < 0.7
                }
                F = MultiPoly(names, terms or {(0,) * len(names): c}) * Q(rng.choice((1, -2)), rng.choice((1, 3)))
                assert bordered_hessian(F, ("x", "y", "z")) == bordered_hessian_oracle(F), F


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


    @staticmethod
    def pairs():
        """Seeded pairs in x over 0-3 more variables, each scaled by a
        rational; then pairs with a common factor (resultant 0) and with a
        constant resultant."""
        rng = random.Random(2026)
        for names in ((), ("y",), ("y", "z"), ("y", "z", "t")):
            count = 0
            while count < 6:
                p, q = (
                    random_small_multipoly(rng, ("x", *names), d, density=0.6) * Q(rng.choice((1, -2, 3)), rng.choice((1, 5, 6)))
                    for d in (rng.randint(1, 3), rng.randint(2, 3))
                )
                if p.degree_in("x") and q.degree_in("x") and p.degree_in("x") + q.degree_in("x") <= 5:
                    count += 1
                    yield p, q
        yield (X - Y) * (X + 2), (X - Y) * (X * Z - 1) * Q(3, 4)
        yield X**2 + 1, X**3 - 2 * X + 5
        yield X**2 * Q(1, 3) + Q(1, 2), (X - 1) * Q(-2, 7)

    @staticmethod
    def s1_oracle(p, q, var):
        """(a, b) of S1 = a*var + b from the subresultant matrix, by perm_det."""
        if p.degree_in(var) < q.degree_in(var):
            p, q = q, p
        rows = sylvester_matrix(p, q, var, 1)
        r = len(rows)
        return tuple(perm_det([row[: r - 1] + [row[c]] for row in rows]) for c in (r - 1, r))

    def test_kernels_match_permutation_oracles(self):
        # resultant builds its images from p's and q's coefficients, det_bareiss
        # from the Sylvester matrix and subresultant_linear from the subresultant
        # matrix; all three run one integer determinant
        seen = set()
        for p, q in self.pairs():
            got = resultant(p, q, "x")
            assert got == sylvester_oracle(p, q, "x"), (p, q)
            assert det_bareiss(sylvester_matrix(p, q, "x")) == got
            assert resultant(q, p, "x") == (-1) ** (p.degree_in("x") * q.degree_in("x")) * got
            if min(p.degree_in("x"), q.degree_in("x")) >= 2:
                assert subresultant_linear(p, q, "x") == self.s1_oracle(p, q, "x"), (p, q)
            seen.add(len(got.vars) if got else "zero")
        assert seen == {0, 1, 2, 3, "zero"}

    def test_row_swap_flips_the_sign(self):
        # the second pivot of Res(x^2 + y, x^3 + x) vanishes, so the kernel
        # swaps rows once: y * (1 - y)^2, not its negative
        p, q = X**2 + Y, X**3 + X
        assert resultant(p, q, "x") == Y * (1 - Y) ** 2 == sylvester_oracle(p, q, "x")
        assert resultant(q, p, "x") == Y * (1 - Y) ** 2

    def test_contents_scale_the_result(self):
        # cp^deg q * cq^deg p times the resultant of the primitive parts
        p, q = X**2 * Y + 3 * X - 1, 2 * X**3 - Y * X + 5
        base = resultant(p, q, "x")
        assert resultant(p * Q(-3, 7), q * Q(5, 2), "x") == base * Q(-3, 7) ** 3 * Q(5, 2) ** 2

    def test_subresultant_finds_a_shared_rational_root(self):
        rng = random.Random(41)
        for _ in range(12):
            r = Q(rng.randint(-5, 5), rng.randint(1, 4))
            a = random_small_multipoly(rng, ("x",), rng.randint(1, 3)) + X ** rng.randint(1, 3)
            b = random_small_multipoly(rng, ("x",), rng.randint(1, 3)) * 2 + X ** rng.randint(1, 3)
            if resultant(a, b, "x").is_zero() or a.eval_all({"x": r}) == 0 or b.eval_all({"x": r}) == 0:
                continue
            s1 = subresultant_linear((X - r) * a, (X - r) * b, "x")
            assert s1 is not None and not s1[0].is_zero()
            assert -s1[1].constant_value() / s1[0].constant_value() == r

    def test_sympy_agrees_over_each_number_of_variables(self):
        sympy = pytest.importorskip("sympy")
        for p, q in self.pairs():
            sp, sq, got = (sympy.sympify(f.to_text().replace("^", "**")) for f in (p, q, resultant(p, q, "x")))
            m, n, x = p.degree_in("x"), q.degree_in("x"), sympy.Symbol("x")
            expected = sympy.resultant(sp, sq, x) if m >= n else (-1) ** (m * n) * sympy.resultant(sq, sp, x)
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
        p0 = modulus(0)
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
        moduli = [modulus(i) for i in range(12)]
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
            gcd_multi(X + 1, X + 1 + modulus(0))
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


def gcd_route(p):
    """The squarefree part by gcds alone, the route behind the line-image
    certificate: p over the gcd of p and its partial derivatives."""
    g = p
    for v in p.vars:
        g = gcd_multi(g, p.derivative(v))
    return exact_div(p, g).normalized()


@contextlib.contextmanager
def gcd_spy(monkeypatch):
    """Records every gcd_multi call that squarefree_part makes."""
    calls = []
    inner = poly_module.gcd_multi
    monkeypatch.setattr(poly_module, "gcd_multi", lambda p, q: calls.append((p, q)) or inner(p, q))
    yield calls
    monkeypatch.setattr(poly_module, "gcd_multi", inner)


class TestSquarefreeCertificate:
    """squarefree_part certifies a squarefree p on its image on the line
    a + t*b, a = (13, -7, 29) and b = (17, 31, -11), and takes the gcd route
    for every input the image leaves open."""

    A, B = (13, -7, 29), (17, 31, -11)

    def substituted(self, p):
        """p's integer primitive part on the line, by substitution; a
        univariate p is its own image."""
        w = MultiPoly.var("w")
        q = p * (1 / abs(p.content_unit()))
        q = q.rename_vars({p.vars[0]: "w"}) if len(p.vars) == 1 else q.subs_poly({v: a + b * w for v, a, b in zip(p.vars, self.A, self.B)})
        return [q.coeff({"w": k}) for k in range(p.total_degree() + 1)]

    def test_line_image_matches_substitution(self):
        rng = random.Random(20261020)
        # x + n*y: at n = 1059 the bound 60(n + 1) = 63,600 has 16 bits and the
        # t-coefficient 31n + 17 = 32,846 exceeds 2^15: w needs a bit above it
        polys = [X + Y * n for n in range(1, 2200)]
        polys += [X * Y - Z**3 * Q(7, 4), (X - Y) ** 5 * Z + 1, 3 * Y**2 - 6 * Z + 9, (Y + Z + 1) ** 12]
        for _ in range(40):
            names = rng.choice((("x",), ("y", "z"), ("x", "t"), ("x", "y", "z")))
            polys.append(random_small_multipoly(rng, names, rng.randint(1, 5)) * Q(rng.randint(1, 9), rng.randint(1, 9)))
        big = 2 ** (MAX_CONSTANT_BITS - 1)
        polys += [big * X**3 - (big + 1) * Y * Z + big - 3, X**4 * big + Y**4 * (big + 7) - Z * (big - 1)]
        polys += [(2**61 - 1) * X**2 + Y, T**7 - 3 * T + 5]
        for p in polys:
            if not p.is_constant():
                assert poly_module._line_image(p, poly_module._primitive_ints(p.terms)[2]) == self.substituted(p), p

    def test_matches_gcd_route_and_sympy(self):
        rng = random.Random(29)
        sympy_mod = None
        with contextlib.suppress(ImportError):
            import sympy as sympy_mod
        big = 2 ** (MAX_CONSTANT_BITS - 8)
        cases = []
        while len(cases) < 50:
            names = rng.choice((("x",), ("x", "y"), ("y", "z"), ("x", "y", "z")))
            p = MultiPoly.const(Q(rng.randint(1, 7), rng.randint(1, 7)) * rng.choice((-1, 1)))
            for _ in range(rng.randint(1, 3)):
                p *= random_small_multipoly(rng, names, rng.randint(1, 2)) ** rng.choice((1, 1, 2, 3))
            if p.total_degree() <= 8:
                cases.append(p)
        for i in range(6):  # coefficients near the parser's cap
            names = rng.choice((("x", "y"), ("x", "y", "z")))
            f = random_small_multipoly(rng, names, 2) * big + random_small_multipoly(rng, names, 1)
            cases.append(f * (X + 2 * Y - 1) if i else f**2 * (Y - 3))
        for p in cases:
            if p.is_constant():
                continue
            sf = squarefree_part(p)
            assert sf == gcd_route(p), p
            if sympy_mod is not None:
                expr = sympy_mod.sympify(p.to_text().replace("^", "**"))
                gens = sympy_mod.symbols(p.vars)
                assert sympy_mod.Poly(sf.to_text().replace("^", "**"), *gens).monic() == sympy_mod.Poly(
                    sympy_mod.sqf_part(expr), *gens
                ).monic()

    def test_squares_are_never_certified(self, monkeypatch):
        rng = random.Random(4242)
        squares = [
            X**2 + Y**2 - Z**2,  # homogeneous: a cone with its apex at the origin
            4 * X**2 + 9 * Y**2 - 4 * X - 6 * Y - Z**2 + 2,
            X - 2 * Y + 3 * Z,  # a plane through the origin
            X**2 + Y - 3,  # free of z
            Y * Z - 1,  # free of x
            X**3 - Z**2,  # free of y
            2 * X - Y + 3 * Z - 1,  # linear
            31 * X - 17 * Y + 1,  # linear, top form zero at b: its image is a constant
            X * (11 * Y + 31 * Z) - 1,  # a quadric whose top form is zero at b
        ]
        cofactors = [MultiPoly.const(Q(-3, 2)), X + Y + Z, X * Z + 2 * Y, 31 * X - 17 * Y + 5]
        cofactors += [random_small_multipoly(rng, ("x", "y", "z"), 2) for _ in range(4)]
        for g in squares:
            for h in cofactors:
                for k in (2, 3):
                    p = g**k * h
                    with gcd_spy(monkeypatch) as calls:
                        sf = squarefree_part(p)
                    assert calls, p
                    assert sf == gcd_route(p) and sf.total_degree() < p.total_degree(), p
        # the line has three coordinates: a fourth variable takes the gcd route
        for p in ((X + T) ** 2 * (Y + Z), (X + Y + Z + T) * (X - T)):
            with gcd_spy(monkeypatch) as calls:
                sf = squarefree_part(p)
            assert calls and sf == gcd_route(p), p

    def test_top_form_vanishing_at_b_is_declined(self, monkeypatch):
        # 31*17 - 17*31 = 0: the top form vanishes at b, the image drops a degree
        for p in ((31 * X - 17 * Y) * (X + Z) + Y - 1, (11 * Y + 31 * Z) ** 3 + X * Y - 2, (X + Z * Q(17, 11)) * Y**2 + 5):
            with gcd_spy(monkeypatch) as calls:
                sf = squarefree_part(p)
            assert calls, p
            assert sf == p.normalized() == gcd_route(p)

    def test_certified_with_no_gcd(self, monkeypatch):
        rng = random.Random(1)
        monomials = [e for e in itertools.product(range(5), repeat=3) if sum(e) <= 4]
        quartic = MultiPoly(("x", "y", "z"), {e: Q(rng.choice((-3, -2, -1, 1, 2, 3))) for e in monomials})
        certified = [quartic, quartic * Q(-5, 7), X**4 + Y + Z, Y**4 + X + Z, Z**4 + X + Y, X**2 + Y**2 - 1, T**3 - T]
        for p in certified:
            with gcd_spy(monkeypatch) as calls:
                sf = squarefree_part(p)
            assert not calls, p
            assert sf == p.normalized()
        cone = X**2 + Y**2 - Z**2
        with gcd_spy(monkeypatch) as calls:
            assert squarefree_part(cone**2) == cone
        assert calls


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
    """r is stored canonically and equals its re-canonicalized twin: each
    coefficient is an int exactly when it is integral, else a Q."""
    assert r.vars == canonical_vars(r.vars)
    for i in range(len(r.vars)):
        assert any(e[i] for e in r.terms), f"unused variable {r.vars[i]}"
    for e, c in r.terms.items():
        assert len(e) == len(r.vars)
        assert c != 0
        assert type(c) is int if c.denominator == 1 else type(c) is Q
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


class TestIntCoefficients:
    """A stored coefficient is an int exactly when it is integral; the
    value accessors still return Q."""

    @staticmethod
    def int_polys(seed=7, count=40):
        rng = random.Random(seed)
        for _ in range(count):
            yield random_small_multipoly(rng, ("x", "y", "t"), rng.randint(1, 3))

    @staticmethod
    def all_int(p):
        return all(type(c) is int for c in p.terms.values())

    def test_integer_inputs_stay_int(self):
        polys = list(self.int_polys())
        for a, b in zip(polys, polys[1:]):
            for r in (a * b, a + b, a - b, -a, a * 3, 3 * a, a.normalized(), gcd_multi(a * b, b * b)):
                assert self.all_int(r)
                assert_canonical(r)
            for v in a.vars:
                assert self.all_int(a.derivative(v)) and self.all_int(a.eval_partial({v: 2}))
            if not b.is_zero():
                h = exact_div(a * b, b)
                assert h == a and self.all_int(h)

    def test_integral_results_of_rationals_become_int(self):
        half_x = X * Q(1, 2)
        assert type(half_x.terms[(1,)]) is Q
        for r in (half_x * 2, half_x + half_x, (X * Q(3, 2)) - half_x, (half_x**2).derivative("x") * 2,
                  (half_x + Q(1, 2)).normalized(), exact_div(half_x * (X + 1), half_x),
                  (X**2 * Q(1, 2) + X).eval_partial({"x": 2}), MultiPoly.const(Q(4, 2)),
                  MultiPoly(("x",), {(1,): Q(6, 3)})):
            assert self.all_int(r) and not r.is_zero()
            assert_canonical(r)

    def test_value_accessors_return_q(self):
        for p in (MultiPoly.const(3), MultiPoly.zero(), X + 2, 2 * X + 4 * Y, -6 * X * Y):
            if p.is_constant():
                assert type(p.constant_value()) is Q
            assert type(p.content_unit()) is Q
            assert type(p.eval_all({"x": 2, "y": -1})) is Q
        assert (2 * X + 4 * Y).content_unit() == 2 and (-6 * X * Y).content_unit() == -6
        assert MultiPoly.const(3).constant_value() == 3 and MultiPoly.zero().constant_value() == 0

    def test_floats_are_refused(self):
        # a float's binary expansion is not the number it was written as;
        # a binding is read by the substitution kernel, which refuses it too
        from devsurf.ratfunc import RatFunc, RationalMap3, substitute

        p = X**2 + Y
        curve = RationalMap3.from_form([T, T**2, T + 1, MultiPoly.const(1)], ("t",))
        for build in (lambda: MultiPoly.const(0.1), lambda: MultiPoly.const(2.0),
                      lambda: MultiPoly(("x",), {(1,): 0.1}),
                      lambda: p.eval_partial({"x": 0.1}), lambda: p.eval_all({"x": 0.1, "y": 1}),
                      lambda: p.eval_all({"x": 1, "y": 2.0}), lambda: p.subs_poly({"x": 0.1}),
                      lambda: p.subs_poly({"x": Y, "y": 0.5}), lambda: substitute(p, {"x": 0.1, "y": T}),
                      lambda: substitute(p, {"x": RatFunc(T, T + 1), "y": 2.0}),
                      lambda: curve.subs({"t": 0.1}, ("t",)),
                      lambda: poly_module.compose(p, {"x": (1, 0.5)})):
            with pytest.raises(TypeError, match="exact rationals, not floats"):
                build()
        for value in ("1/2", [1], None):
            with pytest.raises(TypeError, match="exact rationals"):
                p.eval_partial({"x": value})

    def test_no_float_stored_through_the_cli(self):
        # every polynomial built while the reference surfaces of
        # tests/cases.py go through the CLI keeps the stored form
        assert stored_forms.check() > 1000

    @staticmethod
    def run_stored_forms(*path):
        # a fresh interpreter, so that devsurf binds Q on import
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([*map(str, path), str(SRC)]))
        out = subprocess.run([sys.executable, str(TESTS / "stored_forms.py")], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        return out.stdout

    def test_stored_forms_under_mpz_numerators(self):
        # the stand-in's mpq reads numerators as mpz, whose true division
        # gives a float: none may reach storage or an accessor
        out = self.run_stored_forms(TESTS / "gmpy2_stub")
        assert out.startswith("gmpy2.mpq: ") and int(out.split()[1]) > 1000

    def test_stored_forms_under_gmpy2(self):
        gmpy2 = pytest.importorskip("gmpy2")
        out = self.run_stored_forms()
        assert out.startswith(f"{gmpy2.mpq.__module__}.mpq: ") and int(out.split()[1]) > 1000

    def test_coeff_accessor(self):
        p = X * Q(1, 2) + 3 * Y**2 - 4
        assert p.coeff({"x": 1}) == Q(1, 2) and p.coeff({"y": 2}) == 3 and p.coeff({}) == -4
        assert p.coeff({"y": 1}) == 0 and p.coeff({"x": 1, "t": 1}) == 0 and p.coeff({"t": 0, "x": 1}) == Q(1, 2)
        for m in ({"x": 1}, {"y": 2}, {}, {"t": 3}):
            assert type(p.coeff(m)) is Q

    def test_quotient_leaves_its_arguments(self):
        # _int_terms hands back a polynomial's own terms when they are all
        # ints, so the division that consumes them must work on a copy
        a, b = X**2 * Y - 2 * X + 3, X * Y + T
        prod = a * b
        kept = {e: c for e, c in prod.terms.items()}
        den, ints = poly_module._int_terms(prod.terms)
        assert den == 1 and ints is prod.terms
        assert poly_module._quotient(ints, b.terms) is not None
        assert prod.terms == kept and exact_div(prod, b) == a
        assert poly_module._quotient(poly_module._int_terms((prod + 1).terms)[1], b.terms) is None
        assert prod.terms == kept

    def test_gcd_of_disjoint_variables_is_one(self):
        assert gcd_multi(X**2 + 2 * X, Y * T - 3) == 1
        assert gcd_multi(2 * X, 4 * Y) == 1


class TestTrimming:
    """Results of the kernels that can cancel terms or lose variables, on
    seeded inputs built to do so: each is in canonical form and equals the
    public constructor's canonical form of its own terms."""

    NAMES = ("x", "y", "z", "t")

    @staticmethod
    def check(p):
        stored_forms.assert_stored(p)
        twin = MultiPoly(p.vars, dict(p.terms))
        assert (p.vars, p.terms) == (twin.vars, twin.terms)
        return p

    @classmethod
    def polys(cls, count=40):
        """Pairs (a, b) of seeded polynomials, b free of x and z, with
        rational coefficients in a."""
        rng = random.Random(20260811)
        for _ in range(count):
            a = random_small_multipoly(rng, rng.sample(cls.NAMES, rng.randint(1, 4)), rng.randint(1, 3))
            a = MultiPoly(a.vars, {e: Q(c, rng.choice((1, 2, 3))) for e, c in a.terms.items()})
            yield a, random_small_multipoly(rng, ("y", "t"), rng.randint(1, 2))

    def test_sums_and_differences(self):
        for a, b in self.polys():
            assert self.check(a - a) == 0 and (a - a).vars == ()
            assert self.check((a + b) - b) == a and self.check((b + a) - b) == a
            assert self.check((a - X * b) + b * X) == a
            assert self.check((X + Y) - Y) == X

    def test_products_that_cancel(self):
        assert self.check((X + 1) * (X - 1)) == X**2 - 1
        for a, b in self.polys():
            # (a + b)(a - b): the cross terms cancel; a^2 and b^2 may cancel too
            assert self.check((a + b) * (a - b)) == self.check(a * a - b * b)
            assert self.check((a * Q(1, 2) + b) * (a * 2 - b * 4)) == self.check(a * a - b * b * 4)

    def test_derivatives_that_remove_variables(self):
        assert self.check((X * Y + Y**2 + 3 * X).derivative("x")) == Y + 3
        assert self.check((X + Y).derivative("x")).vars == ()
        for a, b in self.polys():
            for v in self.NAMES:
                self.check((X * b + a).derivative(v))
                self.check((X * a + b).derivative(v))

    def test_coeffs_in(self):
        assert {k: self.check(c) for k, c in (X * Y + Z**2).coeffs_in("y").items()} == {1: X, 0: Z**2}
        for a, b in self.polys():
            for v in self.NAMES:
                for c in (X * a + b * Z).coeffs_in(v).values():
                    self.check(c)

    def test_compose_binding_to_zero(self):
        assert self.check((X * Y + 1).eval_partial({"x": 0})) == 1
        for a, b in self.polys():
            for v in self.NAMES:
                self.check((X * a + b).eval_partial({v: 0}))
                self.check((X * a + b).subs_poly({v: Y - Y**2 if v != "y" else T}))
                self.check(poly_module.compose(a * Z, {"z": (0, 1)}))

    def test_exact_div_that_removes_a_variable(self):
        assert self.check(exact_div(X * Y + X, Y + 1)) == X
        for a, b in self.polys():
            if not b.is_constant():
                assert self.check(exact_div(a * b, b)) == a
                assert self.check(exact_div(a * b * Z, b * Z)) == a

    def test_zero_and_constants(self):
        for value in (0, Q(0), Q(0, 5)):
            zero = self.check(MultiPoly.const(value))
            assert zero.terms == {} and zero.vars == () and zero == MultiPoly.zero()
        assert self.check(X * 0) == 0 and self.check(X * Q(0)) == 0 and self.check(0 * X) == 0
        assert self.check(MultiPoly.const(Q(6, 3))).terms == {(): 2}


def subs_poly_oracle(p, bindings):
    """Term-by-term composition: one polynomial per term, powers of each
    binding cached as polynomials, the terms added one at a time."""
    caches = {name: [MultiPoly.const(1)] for name in p.vars if name in bindings}
    result = MultiPoly.zero()
    for exps, coeff in p.terms.items():
        term = MultiPoly.const(coeff)
        for name, e in zip(p.vars, exps):
            if e == 0:
                continue
            if name in caches:
                cache = caches[name]
                while len(cache) <= e:
                    cache.append(cache[-1] * bindings[name])
                term = term * cache[e]
            else:
                term = term * MultiPoly._make((name,), {(e,): 1})
        result = result + term
    return result


class TestSubsPoly:
    """`subs_poly` against the term-by-term oracle."""

    @staticmethod
    def rational_poly(rng, variables, deg):
        p = random_small_multipoly(rng, variables, deg, density=0.5)
        return MultiPoly(p.vars, {e: Q(c, rng.choice([1, 1, 2, 3, 6])) for e, c in p.terms.items()})

    @staticmethod
    def check(p, bindings):
        r = p.subs_poly(bindings)
        assert r == subs_poly_oracle(p, bindings)
        if not r.is_zero():
            assert_canonical(r)
        return r

    def test_seeded_rational_bindings(self):
        rng = random.Random(20260811)
        for _ in range(60):
            p = self.rational_poly(rng, ("x", "y", "z"), rng.randint(1, 4))
            names = rng.sample(("x", "y", "z"), rng.randint(1, 3))
            pool = ("x", "y", "z", "t")
            bindings = {n: self.rational_poly(rng, rng.sample(pool, 2), rng.randint(0, 2)) for n in names}
            self.check(p, bindings)

    def test_constant_bindings(self):
        rng = random.Random(4242)
        for _ in range(30):
            p = self.rational_poly(rng, ("x", "y", "z"), 3)
            self.check(p, {"z": MultiPoly.const(1)})
            self.check(p, {"x": MultiPoly.const(Q(-2, 3)), "y": MultiPoly.const(0)})
            self.check(p, {v: MultiPoly.const(Q(rng.randint(-5, 5), rng.randint(1, 4))) for v in "xyz"})
        assert P("x^2*y + 3", ("x", "y")).subs_poly({"x": MultiPoly.const(Q(1, 2))}) == P("1/4*y + 3", ("y",))

    def test_bindings_share_the_free_variables(self):
        rng = random.Random(1)
        for _ in range(30):
            p = self.rational_poly(rng, ("x", "y", "z"), 3)
            b = self.rational_poly(rng, ("y", "z"), 2)
            self.check(p, {"x": b})
            self.check(p, {"x": X + b, "z": Z * Q(1, 2) - Y})
        # the section of a cone by the plane x - z = 1, as section_implicit forms it
        r = self.check(P("x^2 + y^2 - z^2", ("x", "y", "z")), {"z": X - 1})
        assert r == P("y^2 + 2*x - 1", ("x", "y"))

    def test_swap_is_simultaneous(self):
        rng = random.Random(7)
        for _ in range(20):
            p = self.rational_poly(rng, ("x", "y", "z"), 3)
            r = self.check(p, {"x": Y, "y": X})
            assert r == p.rename_vars({"x": "y", "y": "x"})
            assert r.subs_poly({"x": Y, "y": X}) == p

    def test_results_that_cancel_to_zero(self):
        rng = random.Random(11)
        for _ in range(20):
            f = self.rational_poly(rng, ("x",), rng.randint(1, 4))
            p = f - f.rename_vars({"x": "y"})
            assert self.check(p, {"x": Y}).is_zero()
            b = self.rational_poly(rng, ("t",), 2)
            assert self.check(p, {"x": b, "y": b}).is_zero()
        assert self.check(P("x^2 - y", ("x", "y")), {"y": X**2}).is_zero()
        assert self.check(P("x*y - 1", ("x", "y")), {"x": T, "y": T}) == P("t^2 - 1", ("t",))

    def test_unbound_polynomial_is_returned(self):
        p = P("x^2 + y", ("x", "y"))
        assert p.subs_poly({"t": X}) is p
        assert p.eval_partial({"t": 3, "s": Q(1, 2)}) is p and p.eval_partial({}) is p
        assert MultiPoly.zero().subs_poly({"x": Y}).is_zero()

    def test_eval_all_needs_every_variable(self):
        p = P("x^2 + y", ("x", "y"))
        with pytest.raises(KeyError, match="unbound variable 'y'"):
            p.eval_all({"x": 1})
        assert p.eval_all({"x": Q(1, 2), "y": 3, "t": 7}) == Q(13, 4)


def compose_oracle(p, pairs, caps=None):
    """sum_e c_e * prod_v N_v^e_v * D_v^(cap_v - e_v) in RatFunc
    arithmetic: p at N_v/D_v term by term, times prod_v D_v^cap_v."""
    from devsurf.ratfunc import RatFunc

    caps = {v: (caps or {}).get(v, p.degree_in(v)) for v in pairs}
    total = RatFunc(MultiPoly.zero())
    for exps, coeff in p.terms.items():
        term = RatFunc(MultiPoly.const(coeff))
        for name, e in zip(p.vars, exps):
            term = term * (RatFunc(*pairs[name]) ** e if name in pairs else RatFunc(MultiPoly.var(name) ** e))
        total = total + term
    for name, cap in caps.items():
        total = total * RatFunc(pairs[name][1]) ** cap
    assert total.is_polynomial()
    return total.as_poly()


class TestCompose:
    """The one substitution kernel `poly.compose` against the RatFunc
    route, the term-by-term oracle and sympy."""

    rational_poly = staticmethod(TestSubsPoly.rational_poly)

    @staticmethod
    def check(p, pairs, caps=None):
        r = poly_module.compose(p, pairs, caps)
        assert r == compose_oracle(p, pairs, caps)
        if not r.is_zero():
            assert_canonical(r)
        return r

    def random_pairs(self, rng, names, pool):
        pairs = {}
        for name in names:
            num = self.rational_poly(rng, rng.sample(pool, 2), rng.randint(0, 2))
            den = self.rational_poly(rng, rng.sample(pool, 2), rng.randint(0, 2))
            if den.is_zero():
                den = MultiPoly.const(Q(rng.randint(1, 5), rng.randint(1, 4)))
            pairs[name] = (num, den)
        return pairs

    def test_rational_bindings_with_polynomial_denominators(self):
        rng = random.Random(3303)
        for _ in range(40):
            p = self.rational_poly(rng, ("x", "y", "z"), rng.randint(1, 3))
            names = rng.sample(("x", "y", "z"), rng.randint(1, 3))
            # the pool brings in new variables and shares p's own
            pairs = self.random_pairs(rng, names, ("x", "y", "s", "t"))
            self.check(p, pairs)
            self.check(p, pairs, {v: p.degree_in(v) + rng.randint(0, 2) for v in names})

    def test_numbers_over_number_denominators(self):
        rng = random.Random(77)
        for _ in range(30):
            p = self.rational_poly(rng, ("x", "y", "z"), 3)
            pairs = {v: (Q(rng.randint(-9, 9), rng.randint(1, 7)), Q(rng.randint(1, 9), rng.randint(1, 5)))
                     for v in rng.sample("xyz", rng.randint(1, 3))}
            r = self.check(p, pairs)
            if set(pairs) == set(p.vars):
                assert r.is_constant()
            # (N, 1) is evaluation at N, and so is N alone
            values = {v: n for v, (n, _) in pairs.items()}
            assert poly_module.compose(p, {v: (n, 1) for v, n in values.items()}) == p.eval_partial(values)
            assert p.eval_partial(values) == subs_poly_oracle(p, {v: MultiPoly.const(n) for v, n in values.items()})

    def test_unbound_variables_stay(self):
        p = P("x^2*y + 3*x*z - y^3 + 1/2", ("x", "y", "z"))
        r = self.check(p, {"x": (T + 1, T - 2)})
        assert r == P("(t+1)^2*y + 3*(t+1)*(t-2)*z - (t-2)^2*y^3 + (t-2)^2/2", ("y", "z", "t"))
        self.check(p, {"x": (Y * Q(1, 3), Z + 1)})
        assert poly_module.compose(p, {"t": (X, Y)}) is p

    def test_swap_is_simultaneous(self):
        rng = random.Random(8)
        for _ in range(20):
            p = self.rational_poly(rng, ("x", "y", "z"), 3)
            assert self.check(p, {"x": (Y, 1), "y": (X, 1)}) == p.rename_vars({"x": "y", "y": "x"})
            self.check(p, {"x": (Y, X + 2), "y": (X, Y - 3)})

    def test_zero_bindings(self):
        p = P("x^3 - 2*x*y + y^2/3 + 5", ("x", "y"))
        assert self.check(p, {"x": (0, 1)}) == P("y^2/3 + 5", ("y",))
        assert self.check(p, {"x": (MultiPoly.zero(), T + 1)}) == P("(t+1)^3*(y^2/3 + 5)", ("y", "t"))
        assert self.check(p, {"x": (0, 1), "y": (0, Q(1, 2))}) == Q(5, 4)

    def test_caps_above_the_degree(self):
        p = P("x^2 + x*y - 1", ("x", "y"))
        r = self.check(p, {"x": (T, T + 1), "y": (S, 2)}, {"x": 4, "y": 2})
        assert r == P("4*t^2*(t+1)^2 + 2*t*s*(t+1)^3 - 4*(t+1)^4", ("s", "t"))
        # a capped name p lacks contributes its denominator alone
        assert self.check(p, {"z": (T, T + 1)}, {"z": 2}) == p * (T + 1) ** 2
        assert self.check(p, {"x": (T, 3)}, {"x": 3, "z": 5}) == compose_oracle(p, {"x": (T, 3)}, {"x": 3})
        with pytest.raises(ValueError, match="below its degree"):
            poly_module.compose(p, {"x": (T, T + 1)}, {"x": 1})

    def test_zero_and_constant_p(self):
        for p in (MultiPoly.zero(), MultiPoly.const(Q(-7, 3))):
            assert poly_module.compose(p, {"x": (T, T + 1)}) is p
            assert self.check(p, {"x": (T, T + 1)}, {"x": 2}) == p * (T + 1) ** 2

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")

        def to_sympy(poly):
            return sympy.sympify(poly.to_text().replace("^", "**"))

        # sympy's own polynomial terms and expansion: sum_e c_e * N^e * D^(cap - e)
        rng = random.Random(5150)
        for _ in range(8):
            p = self.rational_poly(rng, ("x", "y", "z"), rng.randint(1, 3))
            names = rng.sample(("x", "y", "z"), rng.randint(1, 3))
            pairs = self.random_pairs(rng, names, ("x", "z", "s", "t"))
            caps = {v: p.degree_in(v) + rng.randint(0, 1) for v in names}
            gens = [sympy.Symbol(v) for v in names]
            want = 0
            for exps, c in sympy.Poly(to_sympy(p), *gens).terms():
                for v, e in zip(names, exps):
                    c *= to_sympy(pairs[v][0]) ** e * to_sympy(pairs[v][1]) ** (caps[v] - e)
                want += c
            assert sympy.expand(to_sympy(poly_module.compose(p, pairs, caps)) - want) == 0


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
