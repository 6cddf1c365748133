"""Exact multivariate polynomial arithmetic over the rationals.

A :class:`MultiPoly` stores a mapping from exponent vectors to exact
rational coefficients, together with the tuple of variable names the
exponents refer to.  The representation is canonical:

* no zero coefficients are stored,
* the variable tuple is sorted in the fixed global order
  ``x, y, z, s, t, u, v, w`` (further names alphabetically), and
* variables that do not actually occur are dropped.

Canonical storage makes structural equality and hashing coincide with
mathematical equality, which the rest of the package relies on: every
geometric decision reduces to "is this polynomial identically zero".
Coefficients are fractions.Fraction, or gmpy2.mpq when the optional
gmpy2 extra is installed; there is no floating point anywhere in a
decision path.  Products and exact divisions work on Python integers:
each operand is scaled to integer numerators over one common denominator
(read through ``.numerator`` and ``.denominator`` only, which both types
provide), and only the output terms become rationals again.  Internal
results that are canonical by construction skip re-canonicalization
through the trusted constructor ``MultiPoly._make``.

Besides the arithmetic operators, the module provides the elimination
toolkit used by the analyzers: formal derivatives, 3x3 and 4x4
determinants (integer rows, exponent vectors packed into one int key,
each minor of the trailing rows computed once), Sylvester resultants
(fraction-free Bareiss elimination), multivariate gcd (a certified
coprimality probe at one fixed point, then a complete, deterministic
evaluation-interpolation certified by exact division), squarefree parts,
exact division, and linear subresultants.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction
from operator import add, mul, neg, sub
from typing import Iterable, Mapping, Optional, Sequence

try:  # optional extra: gmpy2's mpq is a drop-in exact rational
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover - slower but fully equivalent
    Q = Fraction

_COEFF_TYPES = (int, Q, Fraction)

_CANONICAL = ("x", "y", "z", "s", "t", "u", "v", "w")
_CANON_RANK = {name: i for i, name in enumerate(_CANONICAL)}

def var_sort_key(name: str) -> tuple[int, str]:
    return (_CANON_RANK.get(name, len(_CANONICAL)), name)


def canonical_vars(names: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(set(names), key=var_sort_key))


def _grlex_key(exps: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return (sum(exps), exps)


class MultiPoly:
    """Immutable multivariate polynomial with exact rational coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], object]):
        nvars = len(variables)
        cleaned: dict[tuple[int, ...], Q] = {}
        for exps, coeff in terms.items():
            if isinstance(coeff, float):
                raise TypeError("coefficients must be exact rationals, not floats")
            c = coeff if isinstance(coeff, Q) else Q(coeff)
            if c == 0:
                continue
            if len(exps) != nvars:
                raise ValueError("exponent vector length does not match variable count")
            key = tuple(exps)
            prev = cleaned.get(key)
            cleaned[key] = c if prev is None else prev + c
        cleaned = {e: c for e, c in cleaned.items() if c}

        # Drop unused variables, then sort the remainder canonically.
        used = [i for i in range(nvars) if any(e[i] for e in cleaned)]
        names = [variables[i] for i in used]
        order = sorted(range(len(names)), key=lambda k: var_sort_key(names[k]))
        object.__setattr__(self, "vars", tuple(names[k] for k in order))
        remap = {}
        for exps, c in cleaned.items():
            key = tuple(exps[used[k]] for k in order)
            remap[key] = c
        object.__setattr__(self, "terms", remap)

    @staticmethod
    def _make(variables: tuple[str, ...], terms: dict[tuple[int, ...], Q]) -> "MultiPoly":
        """Trusted constructor for internal results: ``variables`` are in
        canonical order and every coefficient is already a ``Q``.  Only
        zero terms and unused variables are dropped."""
        terms = {e: c for e, c in terms.items() if c}
        used = [i for i, col in enumerate(zip(*terms)) if any(col)]
        if len(used) != len(variables):
            variables = tuple(variables[i] for i in used)
            terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
        obj = object.__new__(MultiPoly)
        object.__setattr__(obj, "vars", variables)
        object.__setattr__(obj, "terms", terms)
        return obj

    def __setattr__(self, *_):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly((), {})

    @staticmethod
    def const(value) -> "MultiPoly":
        return MultiPoly((), {(): Q(value)})

    @staticmethod
    def var(name: str) -> "MultiPoly":
        return MultiPoly((name,), {(1,): Q(1)})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.vars

    def constant_value(self) -> Q:
        if self.vars:
            raise ValueError("polynomial is not constant")
        return self.terms.get((), Q(0))

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: str) -> int:
        if var not in self.vars:
            return 0
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def leading(self) -> tuple[tuple[int, ...], Q]:
        """Leading (exponents, coefficient) under graded lexicographic order."""
        key = max(self.terms, key=_grlex_key)
        return key, self.terms[key]

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, _COEFF_TYPES):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"MultiPoly({self.to_text()})"

    # -- textual form ----------------------------------------------------

    def to_text(self) -> str:
        """Deterministic text form: graded-lex descending, explicit '*'."""
        if not self.terms:
            return "0"
        pieces = []
        for exps in sorted(self.terms, key=_grlex_key, reverse=True):
            coeff = self.terms[exps]
            n, d = coeff.numerator, coeff.denominator
            factors = "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(self.vars, exps) if e)
            mag = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
            if not factors:
                body = mag
            elif mag == "1":
                body = factors
            else:
                body = mag + "*" + factors
            pieces.append(("- " if n < 0 else "+ ") + body)
        text = " ".join(pieces)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    # -- alignment helpers ---------------------------------------------

    def _aligned(self, other: "MultiPoly"):
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        unified = canonical_vars(self.vars + other.vars)
        return unified, _reindex(self.terms, self.vars, unified), _reindex(other.terms, other.vars, unified)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, _COEFF_TYPES):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        vars_, a, b = self._aligned(other)
        out = dict(a)
        for e, c in b.items():
            prev = out.get(e)
            out[e] = c if prev is None else prev + c
        return MultiPoly._make(vars_, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._make(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, _COEFF_TYPES):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        vars_, a, b = self._aligned(other)
        out = dict(a)
        for e, c in b.items():
            prev = out.get(e)
            out[e] = -c if prev is None else prev - c
        return MultiPoly._make(vars_, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _COEFF_TYPES):
            c = Q(other)
            if c == 0:
                return MultiPoly.zero()
            return MultiPoly._make(self.vars, {e: co * c for e, co in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        # Convolve integer numerators over one common denominator per
        # operand; only the output terms become rationals.
        vars_, a, b = self._aligned(other)
        da, a = _int_terms(a)
        db, b = _int_terms(b)
        out = _mul_terms(a, b)
        den = da * db
        if den == 1:
            return MultiPoly._make(vars_, {e: Q(n) for e, n in out.items() if n})
        return MultiPoly._make(vars_, {e: Q(n, den) for e, n in out.items() if n})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = MultiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other):
        from .ratfunc import RatFunc

        if isinstance(other, _COEFF_TYPES):
            c = Q(other)
            if c == 0:
                raise ZeroDivisionError("division by zero")
            return self * (1 / c)
        if isinstance(other, MultiPoly):
            return RatFunc(self, other)
        return NotImplemented

    # -- evaluation and substitution ---------------------------------------

    def eval_all(self, bindings: Mapping[str, object]) -> Q:
        """Evaluate at a rational point; every variable must be bound."""
        vals = []
        for name in self.vars:
            if name not in bindings:
                raise KeyError(f"unbound variable {name!r}")
            vals.append(Q(bindings[name]))
        total = Q(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(vals, exps):
                if e:
                    term *= v**e
            total += term
        return total

    def eval_partial(self, bindings: Mapping[str, object]) -> "MultiPoly":
        """Substitute rational values for a subset of the variables."""
        keep = [i for i, name in enumerate(self.vars) if name not in bindings]
        if len(keep) == len(self.vars):
            return self
        den, ints = _int_terms(self.terms)
        # a value a/b of a variable of degree d enters as a^k * b^(d-k) over
        # b^d, so every term stays an integer over one common denominator
        powers = []
        for i, name in enumerate(self.vars):
            if name in bindings:
                value = Q(bindings[name])
                a, b = value.numerator, value.denominator
                d = max((e[i] for e in ints), default=0)
                powers.append((i, [a**k * b ** (d - k) for k in range(d + 1)]))
                den *= b**d
        out: dict[tuple[int, ...], int] = {}
        for exps, n in ints.items():
            for i, pw in powers:
                n *= pw[exps[i]]
            key = tuple(exps[i] for i in keep)
            out[key] = out.get(key, 0) + n
        vars_ = tuple(self.vars[i] for i in keep)
        return MultiPoly._make(vars_, {e: Q(n, den) for e, n in out.items() if n})

    def subs_poly(self, bindings: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Substitute polynomials for variables (pure polynomial composition)."""
        caches: dict[str, list[MultiPoly]] = {}
        for name in self.vars:
            if name in bindings:
                caches[name] = [MultiPoly.const(1)]
        result = MultiPoly.zero()
        for exps, coeff in self.terms.items():
            term = MultiPoly.const(coeff)
            for name, e in zip(self.vars, exps):
                if e == 0:
                    continue
                if name in caches:
                    cache = caches[name]
                    while len(cache) <= e:
                        cache.append(cache[-1] * bindings[name])
                    term = term * cache[e]
                else:
                    term = term * MultiPoly((name,), {(e,): Q(1)})
            result = result + term
        return result

    def rename_vars(self, mapping: Mapping[str, str]) -> "MultiPoly":
        new_names = [mapping.get(n, n) for n in self.vars]
        if len(set(new_names)) != len(new_names):
            raise ValueError("variable rename collides")
        return MultiPoly(tuple(new_names), dict(self.terms))

    # -- calculus ----------------------------------------------------------

    def derivative(self, var: str) -> "MultiPoly":
        if var not in self.vars:
            return MultiPoly.zero()
        i = self.vars.index(var)
        out: dict[tuple[int, ...], Q] = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e:
                out[exps[:i] + (e - 1,) + exps[i + 1 :]] = coeff * e
        return MultiPoly._make(self.vars, out)

    # -- views as a univariate polynomial -----------------------------------

    def coeffs_in(self, var: str) -> dict[int, "MultiPoly"]:
        """Coefficients of powers of ``var``, each a polynomial in the rest."""
        if var not in self.vars:
            return {0: self} if self.terms else {}
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1 :]
        buckets: dict[int, dict[tuple[int, ...], Q]] = {}
        for exps, coeff in self.terms.items():
            k = exps[i]
            key = exps[:i] + exps[i + 1 :]
            buckets.setdefault(k, {})[key] = coeff
        return {k: MultiPoly._make(rest, t) for k, t in buckets.items()}

    def lead_coeff_in(self, var: str) -> "MultiPoly":
        coeffs = self.coeffs_in(var)
        if not coeffs:
            return MultiPoly.zero()
        return coeffs[max(coeffs)]

    # -- normalization -------------------------------------------------------

    def content_unit(self) -> Q:
        """Positive rational c such that self/c has primitive integer
        coefficients; the sign of the graded-lex leading coefficient moves
        into c as well."""
        if not self.terms:
            return Q(1)
        unit, _ = _primitive_ints(self.terms)
        return -unit if self.leading()[1] < 0 else unit

    def normalized(self) -> "MultiPoly":
        """Integer-primitive representative with positive leading coefficient."""
        if not self.terms:
            return self
        _, ints = _primitive_ints(self.terms)
        sign = -1 if self.leading()[1] < 0 else 1
        return MultiPoly._make(self.vars, {e: Q(sign * n) for e, n in ints.items()})


def _int_terms(terms: Mapping[tuple[int, ...], Q]) -> tuple[int, dict[tuple[int, ...], int]]:
    """Common denominator d and integer numerators n with terms == n / d."""
    den = 1
    for c in terms.values():
        d = c.denominator
        if d != 1:
            den = den * d // math.gcd(den, d)
    if den == 1:
        return 1, {e: c.numerator for e, c in terms.items()}
    return den, {e: c.numerator * (den // c.denominator) for e, c in terms.items()}


def _mul_terms(a: Mapping[tuple[int, ...], object], b: Mapping[tuple[int, ...], object]) -> dict:
    """Product of two term dicts over one variable tuple; terms that sum
    to zero are kept."""
    out: dict[tuple[int, ...], object] = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(map(add, ea, eb))
            out[key] = get(key, 0) + ca * cb
    return out


def _primitive_ints(terms: Mapping[tuple[int, ...], Q]) -> tuple[Q, dict[tuple[int, ...], int]]:
    """Positive content c and integer primitive part n with terms == c * n."""
    den, ints = _int_terms(terms)
    g = 0
    for n in ints.values():
        g = math.gcd(g, n)
    if g != 1:
        ints = {e: n // g for e, n in ints.items()}
    return Q(g, den), ints


def _reindex(terms, old_vars, new_vars):
    pos = [new_vars.index(v) for v in old_vars]
    n = len(new_vars)
    out = {}
    for exps, c in terms.items():
        key = [0] * n
        for p, e in zip(pos, exps):
            key[p] = e
        out[tuple(key)] = c
    return out


def poly_from_var_power(var: str, k: int, coeff=1) -> MultiPoly:
    return MultiPoly((var,), {(k,): Q(coeff)})


# ---------------------------------------------------------------------------
# kernel operations
# ---------------------------------------------------------------------------


def partial_derivative(p: MultiPoly, var: str) -> MultiPoly:
    """Exact formal derivative; variables absent from p differentiate to 0."""
    return p.derivative(var)


def _det_ints(rows: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Determinant of a square grid of polynomials on Python integers.

    Each row is scaled by the lcm of its entries' denominators, so every
    entry has integer coefficients, and the determinant is divided by the
    product of those scales once, at the end.  An exponent vector is packed
    into one int with a radix per variable of one more than the sum over
    rows of the row's largest exponent: every term of every minor takes one
    entry per row, so no exponent reaches its radix and a product of terms
    is a sum of keys.  The minors of the trailing rows are computed once
    per column subset, bottom-up."""
    n = len(rows)
    variables = canonical_vars(v for row in rows for p in row for v in p.vars)
    slot = {v: i for i, v in enumerate(variables)}
    radix = [1] * len(variables)
    for row in rows:
        row_top = [0] * len(variables)
        for p in row:
            for v, col in zip(p.vars, zip(*p.terms)):
                row_top[slot[v]] = max(row_top[slot[v]], *col)
        radix = list(map(add, radix, row_top))
    place = list(itertools.accumulate(radix, mul, initial=1))
    scale = 1
    packed = []
    for row in rows:
        den = math.lcm(*(c.denominator for p in row for c in p.terms.values()))
        scale *= den
        packed_row = []
        for p in row:
            weights = [place[slot[v]] for v in p.vars]
            packed_row.append(
                {sum(map(mul, weights, e)): c.numerator * (den // c.denominator) for e, c in p.terms.items()}
            )
        packed.append(packed_row)

    # minors[cols]: the minor of the trailing rows on the sorted columns cols
    minors = {(j,): packed[n - 1][j] for j in range(n)}
    for r in range(n - 2, -1, -1):
        row = packed[r]
        upper = {}
        for cols in itertools.combinations(range(n), n - r):
            acc: dict[int, int] = {}
            get = acc.get
            for k, j in enumerate(cols):
                sign = -1 if k & 1 else 1
                b = minors[cols[:k] + cols[k + 1 :]]
                for ka, ca in row[j].items():
                    ca *= sign
                    for kb, cb in b.items():
                        key = ka + kb
                        acc[key] = get(key, 0) + ca * cb
            upper[cols] = {key: c for key, c in acc.items() if c}
        minors = upper

    terms = {}
    for key, c in minors[tuple(range(n))].items():
        exps = []
        for base in radix:
            key, e = divmod(key, base)
            exps.append(e)
        terms[tuple(exps)] = Q(c, scale)
    return MultiPoly._make(variables, terms)


def det3(rows: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """3x3 determinant on integer rows with packed exponent keys."""
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise ValueError("det3 expects a 3x3 grid")
    return _det_ints(rows)


def det4(rows: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """4x4 determinant on integer rows with packed exponent keys: each
    2x2 and 3x3 minor of the trailing rows is computed once."""
    if len(rows) != 4 or any(len(r) != 4 for r in rows):
        raise ValueError("det4 expects a 4x4 grid")
    return _det_ints(rows)


def det_bareiss(rows: list[list[MultiPoly]]) -> MultiPoly:
    """Determinant of a square polynomial matrix by fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return MultiPoly.const(1)
    m = [list(r) for r in rows]
    sign = 1
    prev = MultiPoly.const(1)
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot_row = None
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    pivot_row = i
                    break
            if pivot_row is None:
                return MultiPoly.zero()
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                q = exact_div(num, prev)
                if q is None:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                m[i][j] = q
            m[i][k] = MultiPoly.zero()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def sylvester_matrix(p: MultiPoly, q: MultiPoly, var: str) -> list[list[MultiPoly]]:
    m = p.degree_in(var)
    n = q.degree_in(var)
    pc = p.coeffs_in(var)
    qc = q.coeffs_in(var)
    size = m + n
    zero = MultiPoly.zero()
    rows = []
    for shift in range(n):
        row = [zero] * size
        for k in range(m + 1):
            row[shift + k] = pc.get(m - k, zero)
        rows.append(row)
    for shift in range(m):
        row = [zero] * size
        for k in range(n + 1):
            row[shift + k] = qc.get(n - k, zero)
        rows.append(row)
    return rows


def resultant(p: MultiPoly, q: MultiPoly, var: str) -> MultiPoly:
    """Sylvester resultant eliminating ``var``; exact.

    Equals the determinant of the Sylvester matrix with p's coefficient
    rows on top, i.e. lc(p)^deg(q) * prod q(alpha) over the roots of p.
    Swapping the arguments flips the sign when deg(p)*deg(q) is odd;
    some systems use that opposite convention.
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of a zero polynomial")
    m = p.degree_in(var)
    n = q.degree_in(var)
    if m == 0 and n == 0:
        raise ValueError(f"neither argument involves {var!r}")
    if m == 0:
        return p**n
    if n == 0:
        return q**m
    return det_bareiss(sylvester_matrix(p, q, var))


def exact_div(q: MultiPoly, p: MultiPoly) -> Optional[MultiPoly]:
    """Quotient h with q = p*h, or None when p does not divide q exactly.

    Divides the integer primitive parts.  By Gauss's lemma their quotient,
    if any, has integer coefficients, so a remainder whose leading
    coefficient is not a multiple of p's already certifies "no".
    """
    if p.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if q.is_zero():
        return MultiPoly.zero()
    if p.is_constant():
        return q * (1 / p.constant_value())
    if not set(p.vars) <= set(q.vars):
        return None
    vars_, qt, pt = q._aligned(p)
    cq, rem = _primitive_ints(qt)
    cp, pi = _primitive_ints(pt)
    lead_p = max(pi, key=_grlex_key)
    lc_p = pi.pop(lead_p)
    # max-heap on graded-lex order; entries of cancelled terms go stale
    heap = [(-sum(e), tuple(map(neg, e)), e) for e in rem]
    heapq.heapify(heap)
    quot: dict[tuple[int, ...], int] = {}
    while heap:
        lead_r = heapq.heappop(heap)[2]
        cr = rem.pop(lead_r, 0)
        if not cr:
            continue
        diff = tuple(map(sub, lead_r, lead_p))
        if min(diff) < 0:
            return None
        h, r = divmod(cr, lc_p)
        if r:
            return None
        quot[diff] = h
        for e, c in pi.items():
            key = tuple(map(add, e, diff))
            prev = rem.get(key)
            if prev is None:
                heapq.heappush(heap, (-sum(key), tuple(map(neg, key)), key))
                prev = 0
            val = prev - h * c
            if val:
                rem[key] = val
            else:
                del rem[key]
    scale = cq / cp
    num, den = scale.numerator, scale.denominator
    return MultiPoly._make(vars_, {e: Q(h * num, den) for e, h in quot.items()})


def divides(p: MultiPoly, q: MultiPoly) -> tuple[bool, Optional[MultiPoly]]:
    """True (with the quotient h, q = p*h) when p divides q exactly."""
    h = exact_div(q, p)
    return (h is not None), h


# -- gcd machinery -----------------------------------------------------------


def _int_coeff_list(p: MultiPoly, var: str) -> list[int]:
    """Dense integer coefficient list (ascending), content removed; p is
    univariate in var."""
    _, ints = _primitive_ints(p.terms)
    dense = [0] * (p.degree_in(var) + 1)
    for (k,), n in ints.items():
        dense[k] = n
    return dense


def _primitive_list(v: list[int]) -> list[int]:
    g = 0
    for c in v:
        g = math.gcd(g, c)
    return [c // g for c in v] if g > 1 else v


def _gcd_ints(a: list[int], b: list[int]) -> list[int]:
    """gcd of two nonzero dense (ascending) primitive integer coefficient
    lists by the primitive pseudo-remainder sequence; primitive, of either
    sign."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        lc, db = b[-1], len(b) - 1
        r = list(a)
        while len(r) > db:
            cr, shift = r[-1], len(r) - 1 - db
            r = [lc * c for c in r]
            for k, c in enumerate(b):
                r[k + shift] -= cr * c
            while r and r[-1] == 0:
                r.pop()
        a, b = b, _primitive_list(r)
    return a


def _div_ints(f: list[int], g: list[int]) -> list[int]:
    """Quotient of dense integer lists when g divides f; for a primitive g
    the quotient is integral by Gauss's lemma, so the division is exact."""
    r = list(f)
    quot = [0] * (len(f) - len(g) + 1)
    for k in reversed(range(len(quot))):
        quot[k] = r[k + len(g) - 1] // g[-1]
        for j, c in enumerate(g):
            r[k + j] -= quot[k] * c
    return quot


def _gcd_univar(p: MultiPoly, q: MultiPoly, var: str) -> MultiPoly:
    """gcd of two univariate polynomials, over the integers."""
    if p.is_zero():
        return q.normalized()
    if q.is_zero():
        return p.normalized()
    if p.is_constant() or q.is_constant():
        return MultiPoly.const(1)
    g = _gcd_ints(_int_coeff_list(p, var), _int_coeff_list(q, var))
    if len(g) == 1:
        return MultiPoly.const(1)
    return MultiPoly((var,), {(k,): Q(c) for k, c in enumerate(g)}).normalized()


def _strip_monomial(p: MultiPoly) -> tuple[tuple[int, ...], MultiPoly]:
    """Split off the largest monomial dividing every term."""
    if not p.terms:
        return (), p
    mins = None
    for e in p.terms:
        mins = list(e) if mins is None else [min(a, b) for a, b in zip(mins, e)]
    if not any(mins):
        return tuple(0 for _ in p.vars), p
    stripped = {tuple(a - b for a, b in zip(e, mins)): c for e, c in p.terms.items()}
    return tuple(mins), MultiPoly._make(p.vars, stripped)


def _probe_value(i: int) -> int:
    """Coordinate of the fixed coprimality probe point for the variable at
    position i of the sorted variables: nonzero, at most 3559 in absolute
    value, distinct for i < 3559 (3559 is prime)."""
    return (-1) ** i * ((i + 1) * 1579 % 3559 + 1)


def _certified_coprime(p: MultiPoly, q: MultiPoly, common: Sequence[str]) -> bool:
    """Certified test that gcd(p, q) is constant.

    For each shared variable v, evaluate every other variable at one fixed
    point (``_probe_value`` of its position in the sorted variables of p
    and q).  If p keeps its v-degree there, so does any common divisor g,
    since lc_v(g) | lc_v(p); a constant univariate gcd of the images then
    certifies deg_v(gcd) = 0.  Succeeding for every shared variable proves
    the gcd constant.  There is one probe per variable and no retry: when
    lc_v(p) vanishes at the point, the image of q is zero or the images
    share a factor, the probe returns False and the caller's complete
    route decides.
    """
    names = canonical_vars(p.vars + q.vars)
    for v in common:
        point = {n: _probe_value(i) for i, n in enumerate(names) if n != v}
        if p.lead_coeff_in(v).eval_all(point) == 0:
            return False
        qu = q.eval_partial(point)
        if qu.is_zero():
            return False
        if not qu.is_constant() and not _gcd_univar(p.eval_partial(point), qu, v).is_constant():
            return False
    return True


def _content_wrt(p: MultiPoly, var: str) -> MultiPoly:
    coeffs = list(p.coeffs_in(var).values())
    g = MultiPoly.zero()
    for c in coeffs:
        g = gcd_multi(g, c)
        if g.is_constant() and not g.is_zero():
            return MultiPoly.const(1)
    return g


def _interp_newton(xs: list[int], ys: list[MultiPoly], var: str) -> MultiPoly:
    """Newton interpolation with polynomial values at integer nodes."""
    n = len(xs)
    coef = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) * Q(1, xs[i] - xs[i - j])
    result = MultiPoly.zero()
    basis = MultiPoly.const(1)
    vpoly = MultiPoly.var(var)
    for i in range(n):
        result = result + coef[i] * basis
        if i < n - 1:
            basis = basis * (vpoly - xs[i])
    return result


def _gcd_primitive(p: MultiPoly, q: MultiPoly, v: str) -> MultiPoly:
    """gcd G of p and q, both primitive in v, normalized; complete and
    deterministic (W. S. Brown, "On Euclid's algorithm and the computation
    of polynomial greatest common divisors", J. ACM 18, 1971).

    With no other variable this is the univariate gcd.  Otherwise w is the
    last other variable and gamma = gcd(lc_v p, lc_v q).  Points w = c run
    through 0, 1, -1, 2, ...; points where gamma, lc_v p or lc_v q vanish
    are skipped.  At any other point the image gcd(p(c), q(c)) has v-degree
    at least deg_v G, since G(c) keeps its v-degree and divides both.  An
    image of v-degree 0 therefore proves G = 1 at once.  Only images of
    the least v-degree seen are kept, each scaled by rho so that its
    leading coefficient in v is gamma(c); the scaled images of degree
    deg_v G are the values of gamma * G / lc_v(G), whose w-degree is below
    ``bound``.  Once ``bound`` images are in, Newton interpolation in w,
    removal of the v-content and trial division of p and q certify the
    result: a divisor of both whose v-degree is at least deg_v G is G.

    If the division fails, every image used had too high a degree; no
    image of that degree or higher is used again, and sampling goes on.
    The loop ends: the unlucky points, where the image degree exceeds
    deg_v G, are roots of the resultant in v of the cofactors p/G and q/G,
    which is nonzero; rho fails only where the image picks up a content
    in the remaining variables, also at finitely many points; and each
    failed division lowers the admissible degree.
    """
    others = [n for n in canonical_vars(p.vars + q.vars) if n != v]
    if not others:
        return _gcd_univar(p, q, v)
    w = others[-1]
    lcp, lcq = p.lead_coeff_in(v), q.lead_coeff_in(v)
    gamma = gcd_multi(lcp, lcq)
    bound = gamma.degree_in(w) + min(p.degree_in(w), q.degree_in(w)) + 1
    # every image kept has v-degree best; no image exceeds min(deg_v p, deg_v q)
    best = min(p.degree_in(v), q.degree_in(v)) + 1
    xs: list[int] = []
    ys: list[MultiPoly] = []
    c = 0
    while True:
        point = c
        c = -c if c > 0 else -c + 1  # 0, 1, -1, 2, -2, ...
        ev = {w: point}
        gev = gamma.eval_partial(ev)
        if gev.is_zero() or lcp.eval_partial(ev).is_zero() or lcq.eval_partial(ev).is_zero():
            continue
        ge = gcd_multi(p.eval_partial(ev), q.eval_partial(ev))
        dg = ge.degree_in(v)
        if dg == 0:
            return MultiPoly.const(1)
        if dg > best:
            continue
        if dg < best:
            best, xs, ys = dg, [], []
        rho = exact_div(gev, ge.lead_coeff_in(v))
        if rho is None:
            continue
        xs.append(point)
        ys.append(ge * rho)
        if len(xs) < bound:
            continue
        h = _interp_newton(xs, ys, w)
        h = exact_div(h, _content_wrt(h, v)).normalized()
        if exact_div(p, h) is not None and exact_div(q, h) is not None:
            return h
        best, xs, ys = best - 1, [], []


def gcd_multi(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """A greatest common divisor, primitive with positive leading coefficient."""
    if p.is_zero():
        return q.normalized()
    if q.is_zero():
        return p.normalized()
    if p.is_constant() or q.is_constant():
        return MultiPoly.const(1)

    mp, p1 = _strip_monomial(p)
    mq, q1 = _strip_monomial(q)
    mono = {}
    for name, e in zip(p.vars, mp):
        if e:
            mono[name] = e
    shared_mono = MultiPoly.const(1)
    for name, e in zip(q.vars, mq):
        if name in mono and e:
            shared_mono = shared_mono * poly_from_var_power(name, min(e, mono[name]))

    common = [v for v in p1.vars if v in q1.vars]
    if not common or _certified_coprime(p1, q1, common):
        return shared_mono.normalized()

    # Main variable: the smallest worst-case degree keeps the images small.
    var = min(common, key=lambda v: min(p1.degree_in(v), q1.degree_in(v)))

    cp = _content_wrt(p1, var)
    cq = _content_wrt(q1, var)
    cont = gcd_multi(cp, cq)
    a = exact_div(p1, cp)
    b = exact_div(q1, cq)
    if a is None or b is None:
        raise ArithmeticError("gcd content division lost exactness")
    return (shared_mono * cont * _gcd_primitive(a, b, var)).normalized()


def gcd_many(polys: Iterable[MultiPoly]) -> MultiPoly:
    g = MultiPoly.zero()
    for p in polys:
        g = gcd_multi(g, p)
        if g.is_constant() and not g.is_zero():
            return g
    return g


def squarefree_part(p: MultiPoly) -> MultiPoly:
    """Product of the distinct irreducible factors of p, normalized."""
    if p.is_zero():
        raise ValueError("squarefree part of the zero polynomial")
    if p.is_constant():
        return MultiPoly.const(1)
    g = p
    for v in p.vars:
        g = gcd_multi(g, p.derivative(v))
        if g.is_constant():
            return p.normalized()
    h = exact_div(p, g)
    if h is None:
        raise ArithmeticError("squarefree division lost exactness")
    return h.normalized()


# -- substitution of rational functions is provided by ratfunc.substitute --


def subresultant_linear(p: MultiPoly, q: MultiPoly, var: str) -> Optional[tuple[MultiPoly, MultiPoly]]:
    """First subresultant S1 = a*var + b of p, q with respect to var.

    S1 is proportional to the common root whenever the gcd of the two
    polynomials specialises to degree exactly one.  Returns None when the
    construction degenerates (for example matching degrees below 1).
    """
    m = p.degree_in(var)
    n = q.degree_in(var)
    if m < n:
        p, q, m, n = q, p, n, m
    if n < 1:
        return None
    if n == 1:
        qc = q.coeffs_in(var)
        return qc.get(1, MultiPoly.zero()), qc.get(0, MultiPoly.zero())
    pc = p.coeffs_in(var)
    qc = q.coeffs_in(var)
    zero = MultiPoly.zero()
    ncols = m + n - 1
    rows = []
    for shift in range(n - 1):
        row = [zero] * ncols
        for k in range(m + 1):
            row[shift + k] = pc.get(m - k, zero)
        rows.append(row)
    for shift in range(m - 1):
        row = [zero] * ncols
        for k in range(n + 1):
            row[shift + k] = qc.get(n - k, zero)
        rows.append(row)
    r = len(rows)  # = ncols - 1
    base = [row[: r - 1] for row in rows]
    a = det_bareiss([base[i] + [rows[i][r - 1]] for i in range(r)])
    b = det_bareiss([base[i] + [rows[i][r]] for i in range(r)])
    return a, b


# -- univariate helpers ------------------------------------------------------


def poly_divmod_univar(p: MultiPoly, q: MultiPoly, var: str) -> tuple[MultiPoly, MultiPoly]:
    """Division with remainder for univariate polynomials over the rationals."""
    if q.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    for poly in (p, q):
        if any(v != var for v in poly.vars):
            raise ValueError("poly_divmod_univar expects univariate input")
    a = {k: v.constant_value() for k, v in p.coeffs_in(var).items()} if not p.is_zero() else {}
    b = {k: v.constant_value() for k, v in q.coeffs_in(var).items()}
    db = max(b) if b else 0
    lc = b[db]
    quo: dict[int, Q] = {}
    while a and max(a) >= db:
        da = max(a)
        c = a[da] / lc
        quo[da - db] = c
        for k, v in b.items():
            key = k + da - db
            nv = a.get(key, Q(0)) - c * v
            if nv == 0:
                a.pop(key, None)
            else:
                a[key] = nv
    to_poly = lambda d: MultiPoly((var,), {(k,): v for k, v in d.items()})
    return to_poly(quo), to_poly(a)


def _eval_mod(coeffs: list[int], x: int, m: int) -> int:
    """Value mod m at x of the ascending integer coefficient list."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def _primes() -> Iterable[int]:
    n = 2
    while True:
        if all(n % q for q in range(2, math.isqrt(n) + 1)):
            yield n
        n += 1


def rational_roots(p: MultiPoly, var: str) -> list[Q]:
    """All rational roots of a univariate polynomial, exactly and sorted.

    p-adic lifting (R. Loos, "Computing rational zeros of integral
    polynomials by p-adic expansion", SIAM J. Comput. 12, 1983).  Take the
    primitive integer polynomial f = a*t^d + ... + f0, strip the factor
    t^k (root 0) so that f0 != 0, and make f squarefree.  Pick the first
    prime p with p not dividing a and f'(r) != 0 mod p at every root r of
    f mod p; only the finitely many primes dividing a*disc(f) fail.  Each
    root mod p is Newton-lifted to a root mod M > 2*|a*f0|, and the
    symmetric residue n of a*r mod M gives the candidate n/a, kept only
    when f(n/a) == 0 exactly.

    Completeness: a root u/v in lowest terms has u | f0 and v | a, so p
    does not divide v and u/v is a simple root mod p, which lifts
    uniquely; a*u/v is an integer with |a*u/v| <= |a*f0| < M/2, so it is
    the symmetric residue of a*r.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has every root")
    if p.is_constant():
        return []
    if p.vars != (var,):
        raise ValueError("rational_roots expects univariate input")
    f = _int_coeff_list(p, var)
    roots = [Q(0)] if f[0] == 0 else []
    f = f[next(k for k, c in enumerate(f) if c) :]
    if len(f) == 1:
        return roots
    if len(f) > 2:  # a linear f is squarefree
        g = _gcd_ints(f, _primitive_list([k * c for k, c in enumerate(f)][1:]))
        if len(g) > 1:
            f = _div_ints(f, g)
    a, d = f[-1], len(f) - 1
    df = [k * c for k, c in enumerate(f)][1:]
    for prime in _primes():
        if a % prime:
            residues = [r for r in range(prime) if _eval_mod(f, r, prime) == 0]
            if all(_eval_mod(df, r, prime) for r in residues):
                break
    bound = 2 * abs(a * f[0])
    m = prime
    while m <= bound:
        m *= m
        residues = [(r - _eval_mod(f, r, m) * pow(_eval_mod(df, r, m), -1, m)) % m for r in residues]
    for r in residues:
        n = a * r % m
        if n > m // 2:
            n -= m
        if sum(c * n**k * a ** (d - k) for k, c in enumerate(f)) == 0:
            roots.append(Q(n, a))
    return sorted(roots)
