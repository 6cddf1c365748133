"""Exact linear algebra over the rationals (dense, small systems) on
integer rows.

Each row is scaled to integers by the lcm of its denominators, and the
elimination is fraction-free (Bareiss, Math. Comp. 22, 1968): a row is
replaced by p*row_i - a*row_r and divided by its content, so entries stay
integers of moderate size.  A rational is made only for an entry that is
returned.  The reduced row echelon form is unique, so every basis,
solution and rank is the one that Gauss-Jordan elimination over the
rationals gives."""

from __future__ import annotations

import math
from typing import Sequence

from .poly import MultiPoly, Q, _num_den


def _primitive(ints: list[int]) -> list[int]:
    """An integer row divided by its content; a zero row, of content 0, is
    returned as it is."""
    g = math.gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _rref(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form on integer rows: returns (m, pivots), each
    row of m a multiple of the reduced row, so the reduced entry (i, j) is
    m[i][j] / m[i][pivots[i]].  A row that eliminates to zero has content
    0 and is left as it is."""
    m = []
    for entries in rows:  # each row times the lcm of its denominators
        pairs = [_num_den(v) for v in entries]
        scale = math.lcm(*(d for _, d in pairs))
        m.append(_primitive([n * (scale // d) for n, d in pairs]))
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
        row = m[r]
        p = row[c]
        for i in range(len(m)):
            a = m[i][c]
            if i != r and a != 0:
                m[i] = _primitive([p * x - a * y for x, y in zip(m[i], row)])
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def coefficient_rows(polys: Sequence[MultiPoly], variables: Sequence[str]) -> list[list]:
    """Coefficient matrix of a linear identity among polynomials: one row
    per monomial in ``variables`` of the union of their supports, in sorted
    exponent order, and one column per polynomial.  Entries are the stored
    coefficients, ints or rationals, with 0 where a monomial is missing."""
    maps = []
    for p in polys:
        pos = [p.vars.index(v) if v in p.vars else None for v in variables]
        maps.append({tuple(0 if i is None else e[i] for i in pos): c for e, c in p.terms.items()})
    return [[m.get(key, 0) for m in maps] for key in sorted(set().union(*maps))]


def solve_exact(rows: Sequence[Sequence], rhs: Sequence) -> tuple[str, list[Q] | None]:
    """Solve A x = b exactly.

    Returns ("unique", solution), ("inconsistent", None) or
    ("underdetermined", None).
    """
    n = len(rows[0]) if rows else 0
    m, pivots = _rref([[*r, b] for r, b in zip(rows, rhs)])
    if n in pivots:  # a row 0 = b with b != 0
        return "inconsistent", None
    if len(pivots) < n:
        return "underdetermined", None
    return "unique", [Q(row[-1], row[c]) for row, c in zip(m, pivots)]


def nullspace(rows: Sequence[Sequence], ncols: int) -> list[list[Q]]:
    """Basis of the right null space of A (ncols columns)."""
    if not rows:
        return [[Q(1) if i == j else Q(0) for i in range(ncols)] for j in range(ncols)]
    m, pivots = _rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Q(0)] * ncols
        vec[f] = Q(1)
        for row, c in zip(m, pivots):
            vec[c] = Q(-row[f], row[c])
        basis.append(vec)
    return basis


def common_point(planes: Sequence[MultiPoly], variables: Sequence[str]) -> tuple[str, tuple[Q, ...] | None]:
    """The point shared by a family of planes L1*x + L2*y + L3*z + L4 = 0
    whose coefficients L1..L4 are polynomials in ``variables``: the x with
    sum_i x_i*L_i + L4 == 0 as an identity.

    Returns ("point", x), ("degenerate", None) when the solution is not
    unique, or ("none", None).
    """
    rows = coefficient_rows(planes, variables)
    status, sol = solve_exact([r[:3] for r in rows], [-r[3] for r in rows])
    if status == "unique":
        return "point", tuple(sol)
    if status == "underdetermined":
        return "degenerate", None
    return "none", None


def common_direction(normals: Sequence[MultiPoly], variables: Sequence[str]) -> tuple[str, tuple[int, ...] | None]:
    """The direction v orthogonal to a family of normals (L1, L2, L3) whose
    entries are polynomials in ``variables``: the kernel of
    sum_i v_i*L_i == 0.

    Returns ("vector", v) as primitive integers, ("degenerate", None) when
    the kernel has dimension 2 or more, or ("none", None).
    """
    basis = nullspace(coefficient_rows(normals, variables), 3)
    if not basis:
        return "none", None
    if len(basis) > 1:
        return "degenerate", None
    return "vector", primitive_integer_vector(basis[0])


def primitive_integer_vector(vec: Sequence[Q]) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, first nonzero positive."""
    pairs = [_num_den(v) for v in vec]
    den = math.lcm(*(d for _, d in pairs))
    ints = _primitive([n * (den // d) for n, d in pairs])
    if next((v for v in ints if v), 0) < 0:
        ints = [-v for v in ints]
    return tuple(ints)
