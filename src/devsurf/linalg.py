"""Exact linear algebra over the rationals (dense, small systems)."""

from __future__ import annotations

from typing import Sequence

from .poly import MultiPoly, Q


def _rref(rows: list[list[Q]]) -> tuple[list[list[Q]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = [list(r) for r in rows]
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


def coefficient_rows(polys: Sequence[MultiPoly], variables: Sequence[str]) -> list[list[Q]]:
    """Coefficient matrix of a linear identity among polynomials: one row
    per monomial in ``variables`` of the union of their supports, in sorted
    exponent order, and one column per polynomial."""
    maps = []
    for p in polys:
        pos = [p.vars.index(v) if v in p.vars else None for v in variables]
        maps.append({tuple(0 if i is None else e[i] for i in pos): c for e, c in p.terms.items()})
    return [[m.get(key, Q(0)) for m in maps] for key in sorted(set().union(*maps))]


def solve_exact(rows: Sequence[Sequence[Q]], rhs: Sequence[Q]) -> tuple[str, list[Q] | None]:
    """Solve A x = b exactly.

    Returns ("unique", solution), ("inconsistent", None) or
    ("underdetermined", None).
    """
    n = len(rows[0]) if rows else 0
    aug = [list(map(Q, r)) + [Q(b)] for r, b in zip(rows, rhs)]
    m, pivots = _rref(aug)
    for row in m:
        if all(v == 0 for v in row[:-1]) and row[-1] != 0:
            return "inconsistent", None
    if n in pivots:
        return "inconsistent", None
    if len(pivots) < n:
        return "underdetermined", None
    sol = [Q(0)] * n
    for i, c in enumerate(pivots):
        sol[c] = m[i][-1]
    return "unique", sol


def nullspace(rows: Sequence[Sequence[Q]], ncols: int) -> list[list[Q]]:
    """Basis of the right null space of A (ncols columns)."""
    if not rows:
        return [[Q(1) if i == j else Q(0) for i in range(ncols)] for j in range(ncols)]
    m, pivots = _rref([list(map(Q, r)) for r in rows])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Q(0)] * ncols
        vec[f] = Q(1)
        for i, c in enumerate(pivots):
            vec[c] = -m[i][f]
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
    from math import gcd

    lcm = 1
    for v in vec:
        lcm = lcm * v.denominator // gcd(lcm, v.denominator)
    ints = [int(v * lcm) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g:
        ints = [v // g for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-w for w in ints]
            break
    return tuple(ints)
