"""Fraction-free linear algebra on integer rows, checked against the
Gauss-Jordan elimination over the rationals that it replaced, and against
sympy where it imports."""

import math
import random
from fractions import Fraction

import pytest

from devsurf.linalg import _rref, coefficient_rows, nullspace, primitive_integer_vector, solve_exact
from devsurf.poly import MultiPoly, Q


def rref_oracle(rows):
    """Gauss-Jordan elimination over the rationals: (reduced rows,
    pivot columns).  This is the body the integer kernel replaced."""
    m = [[Fraction(v) for v in r] for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def nullspace_oracle(rows, ncols):
    if not rows:
        return [[Fraction(int(i == j)) for i in range(ncols)] for j in range(ncols)]
    m, pivots = rref_oracle(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -m[i][f]
        basis.append(vec)
    return basis


def solve_oracle(rows, rhs):
    n = len(rows[0]) if rows else 0
    m, pivots = rref_oracle([list(r) + [b] for r, b in zip(rows, rhs)])
    if any(all(v == 0 for v in row[:-1]) and row[-1] != 0 for row in m) or n in pivots:
        return "inconsistent", None
    if len(pivots) < n:
        return "underdetermined", None
    sol = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        sol[c] = m[i][-1]
    return "unique", sol


def reduced(rows):
    """The reduced row echelon form read off the integer kernel."""
    m, pivots = _rref(rows)
    return [[Q(v, row[c]) for v in row] for row, c in zip(m, pivots)], pivots


def random_entry(rng):
    """An int, or a Fraction with one of several denominators, either sign."""
    n = rng.randint(-6, 6)
    return n if rng.random() < 0.5 else Fraction(n, rng.choice((1, 2, 3, 5, 7, 12, 35)))


def random_matrix(rng, nrows, ncols, rank=None):
    """Seeded mixed int/Fraction matrix; with ``rank``, its rows beyond the
    first ``rank`` are integer combinations of those, so they eliminate to
    zero."""
    rows = [[random_entry(rng) for _ in range(ncols)] for _ in range(rank if rank is not None else nrows)]
    while len(rows) < nrows:
        coeffs = [rng.randint(-2, 2) for _ in range(rank)]
        rows.insert(rng.randrange(len(rows) + 1), [sum(k * r[j] for k, r in zip(coeffs, rows)) for j in range(ncols)])
    return rows


SHAPES = [(30, 4), (10, 12), (4, 30), (3, 3), (5, 5), (1, 6), (6, 1), (2, 7), (7, 2)]


def matrices():
    rng = random.Random(20260811)
    out = []
    for nrows, ncols in SHAPES:
        for _ in range(4):
            out.append(random_matrix(rng, nrows, ncols))
        for rank in sorted({0, 1, min(nrows, ncols) // 2}):
            out.append(random_matrix(rng, nrows, ncols, rank))
    # negative pivots, a pivot below a zero, and a zero matrix
    out.append([[-3, Fraction(1, 2), 5], [Fraction(-7, 3), 1, 0], [6, -1, -10]])
    out.append([[0, -2, Fraction(4, 9)], [0, Fraction(-5, 7), 1], [-1, 0, 0]])
    out.append([[0] * 4 for _ in range(3)])
    return out


class TestRref:
    @pytest.mark.parametrize("rows", matrices())
    def test_matches_gauss_jordan_over_q(self, rows):
        expect, pivots = rref_oracle(rows)
        got, got_pivots = reduced(rows)
        assert got_pivots == pivots
        assert got == expect[: len(pivots)]
        # the integer rows: one per input row, zero past the rank
        m, _ = _rref(rows)
        assert len(m) == len(rows) and all(type(v) is int for row in m for v in row)
        assert all(v == 0 for row in m[len(pivots):] for v in row)

    def test_rows_that_eliminate_to_zero(self):
        # the third row is the sum of the first two; its content is 0
        rows = [[1, Fraction(1, 2), 3], [Fraction(2, 3), -1, 4], [Fraction(5, 3), Fraction(-1, 2), 7]]
        m, pivots = _rref(rows)
        assert pivots == [0, 1]
        assert m[2] == [0, 0, 0]

    def test_degenerate_shapes(self):
        assert _rref([]) == ([], [])
        assert _rref([[]]) == ([[]], [])
        assert _rref([[], []]) == ([[], []], [])
        assert _rref([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], [])

    def test_rank_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        for rows in matrices():
            expect, pivots = sympy.Matrix(rows).rref()
            got, got_pivots = reduced(rows)
            assert tuple(got_pivots) == pivots
            assert [[Fraction(int(v.p), int(v.q)) for v in expect.row(i)] for i in range(len(pivots))] == got


class TestNullspace:
    @pytest.mark.parametrize("rows", matrices())
    def test_matches_gauss_jordan_over_q(self, rows):
        ncols = len(rows[0])
        basis = nullspace(rows, ncols)
        assert basis == nullspace_oracle(rows, ncols)
        for vec in basis:
            assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in rows)

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        for rows in matrices():
            expect = [[Fraction(int(v.p), int(v.q)) for v in vec] for vec in sympy.Matrix(rows).nullspace()]
            assert nullspace(rows, len(rows[0])) == expect

    def test_empty_and_zero(self):
        identity = [[Q(1), Q(0), Q(0)], [Q(0), Q(1), Q(0)], [Q(0), Q(0), Q(1)]]
        assert nullspace([], 3) == identity
        assert nullspace([[0, 0, 0]], 3) == identity
        assert nullspace([[0, 0, 0], [0, 0, 0]], 3) == identity

    def test_returns_rationals(self):
        basis = nullspace([[2, -4, Fraction(2, 3)], [1, 1, 1]], 3)
        assert all(isinstance(v, Q) for vec in basis for v in vec)


class TestSolveExact:
    @pytest.mark.parametrize("rows", matrices())
    def test_matches_gauss_jordan_over_q(self, rows):
        rng = random.Random(len(rows) * 100 + len(rows[0]))
        ncols = len(rows[0])
        # a consistent right-hand side from a known x, and a random one
        x = [random_entry(rng) for _ in range(ncols)]
        consistent = [sum(a * v for a, v in zip(row, x)) for row in rows]
        for rhs in (consistent, [random_entry(rng) for _ in rows]):
            status, sol = solve_exact(rows, rhs)
            assert (status, sol) == solve_oracle(rows, rhs)
            if status == "unique":
                assert all(sum(a * v for a, v in zip(row, sol)) == b for row, b in zip(rows, rhs))

    def test_unique(self):
        rows = [[2, Fraction(1, 3)], [Fraction(-1, 2), 4]]
        status, sol = solve_exact(rows, [1, Fraction(5, 7)])
        assert status == "unique"
        assert [2 * sol[0] + sol[1] / 3, -sol[0] / 2 + 4 * sol[1]] == [1, Fraction(5, 7)]
        assert all(isinstance(v, Q) for v in sol)

    def test_inconsistent(self):
        # the rows are dependent, the right-hand side is not
        rows = [[1, Fraction(1, 2)], [2, 1], [0, 3]]
        assert solve_exact(rows, [1, 3, 0]) == ("inconsistent", None)
        assert solve_exact([[0, 0]], [Fraction(1, 5)]) == ("inconsistent", None)

    def test_underdetermined(self):
        assert solve_exact([[1, Fraction(2, 3), -1]], [4]) == ("underdetermined", None)
        assert solve_exact([[1, 2], [Fraction(1, 2), 1]], [3, Fraction(3, 2)]) == ("underdetermined", None)
        assert solve_exact([[0, 0], [0, 0]], [0, 0]) == ("underdetermined", None)

    def test_empty(self):
        assert solve_exact([], []) == ("unique", [])
        assert solve_exact([[]], [0]) == ("unique", [])
        assert solve_exact([[]], [1]) == ("inconsistent", None)


def test_coefficient_rows_fill_with_int_zero():
    t = MultiPoly.var("t")
    flat = [v for row in coefficient_rows([t * Q(1, 2) + 3, t * t], ("t",)) for v in row]
    assert flat == [3, 0, Q(1, 2), 0, 0, 1]
    assert [type(v) for v in flat] == [int, int, Q, int, int, int]


def primitive_oracle(vec):
    """Divide by the first nonzero entry, then clear denominators by their
    lcm: the entries are coprime, and the first nonzero one is positive."""
    lead = next((Fraction(v) for v in vec if v), None)
    if lead is None:
        return tuple(0 for _ in vec)
    w = [Fraction(v) / lead for v in vec]
    den = 1
    for v in w:
        den = den * v.denominator // math.gcd(den, v.denominator)
    return tuple(int(v * den) for v in w)


class TestPrimitiveIntegerVector:
    def test_matches_fraction_oracle(self):
        rng = random.Random(140)
        for _ in range(300):
            vec = [Q(rng.choice((0, rng.randint(-40, 40))), rng.randint(1, 30)) for _ in range(rng.randint(1, 5))]
            got = primitive_integer_vector(vec)
            assert got == primitive_oracle(vec), vec
            assert all(type(v) is int for v in got)
            assert math.gcd(*got) == (1 if any(vec) else 0)

    def test_fixed_vectors(self):
        # the zero vector is returned as zeros
        assert primitive_integer_vector([Q(0), Q(0), Q(0)]) == (0, 0, 0)
        # a negative leading entry flips every sign
        assert primitive_integer_vector([Q(-2, 3), Q(1, 2)]) == (4, -3)
        assert primitive_integer_vector([Q(0), Q(-2), Q(4)]) == (0, 1, -2)
        # mixed denominators: lcm 30 and content 1, then lcm 70 and content 3
        assert primitive_integer_vector([Q(1, 6), Q(1, 10), Q(1, 15)]) == (5, 3, 2)
        assert primitive_integer_vector([Q(6, 35), Q(-9, 14), Q(3, 10)]) == (4, -15, 7)
