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
toolkit used by the analyzers: formal derivatives, determinants,
Sylvester resultants, multivariate gcd, squarefree parts, exact
division, and linear subresultants.  Determinants run on integer rows
with each exponent vector packed into one int key: 3x3 and 4x4 ones by
Laplace expansion, Sylvester matrices by fraction-free Bareiss
elimination, whose radix is 2S + 1 (S bounds a minor's exponents, and
each step multiplies two minors) and whose exact divisions by the
previous pivot raise ArithmeticError on a remainder; the bordered Hessian
differentiates on packed keys and shares the Laplace expansion.

The gcd is Brown's dense modular algorithm on plain Python integers:
images modulo fixed primes below 2^61, each computed by evaluation and
Newton interpolation one variable at a time down to a univariate
Euclid, are combined by the Chinese remainder theorem.  It is complete
and deterministic.  Unlucky primes and unlucky evaluation points are
finitely many and show in an image's leading monomial, and every result
is certified by exact division of both inputs over Z.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from fractions import Fraction
from operator import add, mul, neg, sub
from typing import Collection, Iterable, Mapping, Optional, Sequence

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


def decimal(c) -> str:
    """Decimal text of an int or a rational ("n" or "n/d"), of any size: an
    int past the interpreter's limit on int-to-str conversion is split by a
    power of ten into halves, so no process-wide limit needs lifting."""
    try:
        return str(c)
    except ValueError:
        n, d = c.numerator, c.denominator
        if d != 1:
            return f"{decimal(n)}/{decimal(d)}"
        k = n.bit_length() * 3 // 20  # about half of n's digits
        high, low = divmod(abs(n), 10**k)
        return ("-" if n < 0 else "") + decimal(high) + decimal(low).zfill(k)


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
            mag = decimal(abs(n)) if d == 1 else f"{decimal(abs(n))}/{decimal(d)}"
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


# ---------------------------------------------------------------------------
# kernel operations
# ---------------------------------------------------------------------------


def partial_derivative(p: MultiPoly, var: str) -> MultiPoly:
    """Exact formal derivative; variables absent from p differentiate to 0."""
    return p.derivative(var)


def _add_product(acc: dict, a: Mapping[int, int], b: Mapping[int, int], sign: int) -> None:
    """acc += sign * a * b on term dicts with packed keys."""
    get = acc.get
    for ka, ca in a.items():
        ca *= sign
        for kb, cb in b.items():
            key = ka + kb
            acc[key] = get(key, 0) + ca * cb


def _unpack_all(keys: Collection[int], radix: Sequence[int]) -> list[tuple[int, ...]]:
    """The exponent tuples of packed keys, in order, one pass per variable."""
    cols = []
    place = 1
    for base in radix:
        cols.append([key // place % base for key in keys])
        place *= base
    return list(zip(*cols)) if cols else [()] * len(keys)


def _decode(variables: tuple[str, ...], radix: Sequence[int], acc: Mapping[int, int], num: int, den: int) -> MultiPoly:
    """num/den times the integer term dict acc with packed keys."""
    return MultiPoly._make(variables, dict(zip(_unpack_all(acc, radix), [Q(c * num, den) for c in acc.values()])))


def _pack_grid(rows: Sequence[Sequence[MultiPoly]], spread: int):
    """A square grid as integer term dicts with packed keys: (packed rows,
    radix, decoder).  Each row is scaled by the lcm of its entries'
    denominators; the decoder divides by the product of those scales.  An
    exponent vector packs into one int with a radix per variable of
    spread * S + 1, S the sum over rows of the row's largest exponent of
    that variable, so a product of terms is a sum of keys while no
    exponent exceeds spread * S."""
    variables = canonical_vars(v for row in rows for p in row for v in p.vars)
    slot = {v: i for i, v in enumerate(variables)}
    top = [0] * len(variables)
    for row in rows:
        row_top = [0] * len(variables)
        for p in row:
            for v, col in zip(p.vars, zip(*p.terms)):
                row_top[slot[v]] = max(row_top[slot[v]], *col)
        top = list(map(add, top, row_top))
    radix = [spread * s + 1 for s in top]
    place = list(itertools.accumulate(radix, mul, initial=1))
    scale = 1
    packed = []
    for row in rows:
        den = math.lcm(*(c.denominator for p in row for c in p.terms.values()))
        scale *= den
        weights = [[place[slot[v]] for v in p.vars] for p in row]
        packed.append([
            {sum(map(mul, w, e)): c.numerator * (den // c.denominator) for e, c in p.terms.items()}
            for p, w in zip(row, weights)
        ])

    def decode(acc: Mapping[int, int], sign: int = 1) -> MultiPoly:
        return _decode(variables, radix, acc, sign, scale)

    return packed, radix, decode


def _laplace(packed: Sequence[Sequence[Mapping[int, int]]]) -> dict[int, int]:
    """Determinant of a square grid of integer term dicts whose packed keys
    add without carries, by Laplace expansion along the top row; each minor
    of the trailing rows is computed once, and zeros are skipped."""
    n = len(packed)
    # minors[cols]: the minor of the trailing rows on the sorted columns cols
    minors = {(j,): packed[n - 1][j] for j in range(n)}
    for r in range(n - 2, -1, -1):
        row = packed[r]
        upper = {}
        for cols in itertools.combinations(range(n), n - r):
            acc: dict[int, int] = {}
            for k, j in enumerate(cols):
                minor = minors[cols[:k] + cols[k + 1 :]]
                if row[j] and minor:
                    _add_product(acc, row[j], minor, -1 if k & 1 else 1)
            upper[cols] = {key: c for key, c in acc.items() if c}
        minors = upper
    return minors[tuple(range(n))]


def _det_ints(rows: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Determinant by ``_laplace`` on the integer rows of ``_pack_grid``
    (spread 1: a minor's term takes one entry per row, so no exponent
    exceeds S)."""
    packed, _, decode = _pack_grid(rows, 1)
    return decode(_laplace(packed))


def bordered_hessian(F: MultiPoly, coords: Sequence[str]) -> MultiPoly:
    """det [[H, g], [g^T, 0]] for the gradient g and the Hessian H of F in
    the n coordinates coords.  F = c * G with G integer primitive; every
    entry is linear in F, so the determinant is c^(n+1) times G's.  G packs
    with a radix of (n+1) * deg_v G + 1 per variable v (a minor's term takes
    at most n + 1 entries), and d/dv maps key to key - place_v, times e_v;
    H is symmetric, so each second derivative is taken once."""
    n = len(coords)
    content, ints = _primitive_ints(F.terms)
    radix = [(n + 1) * max(col) + 1 for col in zip(*ints)]
    place = list(itertools.accumulate(radix, mul, initial=1))
    slots = [F.vars.index(v) if v in F.vars else None for v in coords]

    def diff(terms: dict[int, int], i: Optional[int]) -> dict[int, int]:
        if i is None:
            return {}
        step, base = place[i], radix[i]
        return {key - step: c * e for key, c in terms.items() if (e := key // step % base)}

    packed = {sum(map(mul, place, e)): c for e, c in ints.items()}
    grad = [diff(packed, i) for i in slots]
    hess = [[{}] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            hess[a][b] = hess[b][a] = diff(grad[a], slots[b])
    scale = content ** (n + 1)
    rows = [hess[a] + [grad[a]] for a in range(n)] + [grad + [{}]]
    return _decode(F.vars, radix, _laplace(rows), scale.numerator, scale.denominator)


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
    """Determinant of a square polynomial grid by fraction-free elimination
    (Bareiss, Math. Comp. 22, 1968) on the integer rows of ``_pack_grid``.

    After step k every entry of the trailing rows is a (k+1)x(k+1) minor of
    the integer grid: it has integer coefficients and no exponent above S.
    Each product in the numerator m[k][k]*m[i][j] - m[i][k]*m[k][j] takes
    two such minors, with exponents up to 2S, so the radix is 2S + 1
    (spread 2); with S + 1 its keys would carry into the next variable.
    The exact division by the previous pivot takes two steps: by the
    pivot's signed content (a constant pivot divides by itself, sign
    included), then by the primitive part through ``_quotient`` on
    unpacked exponent tuples.  A remainder in either step raises
    ArithmeticError."""
    n = len(rows)
    if n == 0:
        return MultiPoly.const(1)
    m, radix, decode = _pack_grid(rows, 2)
    place = list(itertools.accumulate(radix, mul, initial=1))
    sign, content, prim = 1, 1, None
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return MultiPoly.zero()
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        top = m[k]
        for row in m[k + 1 :]:
            for j in range(k + 1, n):
                acc: dict[int, int] = {}
                _add_product(acc, top[k], row[j], 1)
                _add_product(acc, row[k], top[j], -1)
                out = {key: c // content for key, c in acc.items() if c}
                if any(c % content for c in acc.values()):
                    out = None
                elif prim is not None and out:
                    out = _quotient(dict(zip(_unpack_all(out, radix), out.values())), prim)
                if out is None:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                row[j] = out if prim is None else {sum(map(mul, place, e)): c for e, c in out.items()}
        content = math.gcd(*top[k].values()) * (1 if next(iter(top[k].values())) > 0 else -1)
        prim = None if list(top[k]) == [0] else dict(zip(_unpack_all(top[k], radix), [c // content for c in top[k].values()]))
    return decode(m[n - 1][n - 1], sign)


def sylvester_matrix(p: MultiPoly, q: MultiPoly, var: str, k: int = 0) -> list[list[MultiPoly]]:
    """The k-th subresultant matrix of p and q in var: n - k shifted rows of
    p's coefficients over m - k of q's, m + n - k columns (m, n the degrees
    in var); k = 0 gives the Sylvester matrix."""
    m, n = p.degree_in(var), q.degree_in(var)
    zero = MultiPoly.zero()
    rows = []
    for f, d, count in ((p, m, n - k), (q, n, m - k)):
        c = f.coeffs_in(var)
        band = [c.get(d - i, zero) for i in range(d + 1)]
        rows += [[zero] * shift + band + [zero] * (m + n - k - d - 1 - shift) for shift in range(count)]
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
    quot = _quotient(rem, pi)
    if quot is None:
        return None
    scale = cq / cp
    num, den = scale.numerator, scale.denominator
    return MultiPoly._make(vars_, {e: Q(h * num, den) for e, h in quot.items()})


def _quotient(rem: dict, divisor: Mapping[tuple[int, ...], int], p: int = 0) -> Optional[dict]:
    """Quotient of integer term dicts over one variable tuple when divisor
    divides rem exactly, else None; over Z, or over Z_p for a prime p > 0.
    Consumes rem.

    Over Z the divisor must be primitive: by Gauss's lemma the quotient, if
    any, then has integer coefficients, so a remainder whose leading
    coefficient is not a multiple of the divisor's already certifies "no"."""
    rest = dict(divisor)
    lead_d = max(rest, key=_grlex_key)
    lc_d = rest.pop(lead_d)
    inv = pow(lc_d, -1, p) if p else 0
    # max-heap on graded-lex order; entries of cancelled terms go stale
    heap = [(-sum(e), tuple(map(neg, e)), e) for e in rem]
    heapq.heapify(heap)
    quot: dict[tuple[int, ...], int] = {}
    while heap:
        lead_r = heapq.heappop(heap)[2]
        cr = rem.pop(lead_r, 0)
        if not cr:
            continue
        diff = tuple(map(sub, lead_r, lead_d))
        if min(diff) < 0:
            return None
        if p:
            h = cr * inv % p
        else:
            h, r = divmod(cr, lc_d)
            if r:
                return None
        quot[diff] = h
        for e, c in rest.items():
            key = tuple(map(add, e, diff))
            prev = rem.get(key)
            if prev is None:
                heapq.heappush(heap, (-sum(key), tuple(map(neg, key)), key))
                prev = 0
            val = (prev - h * c) % p if p else prev - h * c
            if val:
                rem[key] = val
            else:
                del rem[key]
    return quot


def divides(p: MultiPoly, q: MultiPoly) -> tuple[bool, Optional[MultiPoly]]:
    """True (with the quotient h, q = p*h) when p divides q exactly.  A "no"
    is first sought on a univariate image (``_image_refutes``); ``exact_div``
    decides every "yes" and every case the image leaves open."""
    if _image_refutes(p, q):
        return False, None
    h = exact_div(q, p)
    return (h is not None), h


def _image_refutes(p: MultiPoly, q: MultiPoly) -> bool:
    """True when the images of p and q in Z_P[v], P = 2^61 - 1, leave a
    nonzero remainder, which proves that p does not divide q over Q.

    v is p's variable of highest degree; the i-th other variable of the
    joint tuple (from 0) is set to 2i + 3.  Each side is mapped through its
    integer numerators p', q' over a common denominator (a unit).  If
    q = p*h, Gauss's lemma gives q' = p' * h' * c, h' integer and c rational
    with a denominator dividing p's content; when p's image is nonzero, P
    divides no coefficient of p', so c reduces mod P and the ring map keeps
    the divisibility.  A zero image of p or a zero remainder proves nothing."""
    if not p.vars or q.is_zero():
        return False
    k_var = max(p.vars, key=p.degree_in)
    vars_, pt, qt = p._aligned(q)
    k = vars_.index(k_var)
    P = _modulus(0)
    images = []
    for terms in (pt, qt):
        ints = _int_terms(terms)[1]
        image = [0] * (1 + max(e[k] for e in ints))
        for e, c in ints.items():
            for i, x in enumerate(e):
                if x and i != k:
                    c *= (2 * i + 3) ** x
            image[e[k]] += c
        images.append(_trim([c % P for c in image]))
    a, b = images
    return bool(a) and bool(_divmod_mod(b, a, P)[1])


# -- gcd machinery -----------------------------------------------------------


def _strip_monomial(terms: dict) -> tuple[tuple[int, ...], dict]:
    """Split off the largest monomial dividing every term of a term dict."""
    mins = tuple(map(min, zip(*terms)))
    if not any(mins):
        return mins, terms
    return mins, {tuple(map(sub, e, mins)): c for e, c in terms.items()}


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: deterministic for
    n < 3.3e24, far above the 2^61 the gcd moduli need."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.cache
def _modulus(i: int) -> int:
    """The i-th gcd modulus: the primes below 2^61 from the largest down,
    the Mersenne prime 2^61 - 1 first; each is found on first use."""
    n = 2**61 - 1 if i == 0 else _modulus(i - 1) - 2
    while not _is_prime(n):
        n -= 2
    return n


# -- dense univariate arithmetic mod p on ascending coefficient lists ----------


def _trim(v: list[int]) -> list[int]:
    while v and not v[-1]:
        v.pop()
    return v


def _mul_mod(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [c % p for c in out]


def _divmod_mod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by the trimmed nonzero b mod p."""
    r = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    quot = [0] * max(len(r) - db, 0)
    for k in range(len(r) - 1 - db, -1, -1):
        c = r[k + db] * inv % p
        if c:
            quot[k] = c
            r[k : k + db] = [(x - c * y) % p for x, y in zip(r[k : k + db], b)]
    return quot, _trim(r[:db])


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd mod p of two lists, not both zero."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _primitive_mod(split: dict, p: int) -> tuple[list[int], dict]:
    """Monic content in Z_p[xk] and primitive part of a split polynomial."""
    c: list[int] = []
    for v in split.values():
        c = _gcd_mod(c, v, p)
        if len(c) == 1:
            return c, split
    return c, {h: _divmod_mod(v, c, p)[0] for h, v in split.items()}


# -- multivariate images mod p: term dicts {exponent tuple: int} ----------------


def _split_last(a: dict) -> dict:
    """View a polynomial in x1..xk as one in x1..x(k-1) whose coefficients
    are dense lists in xk: {head exponents: ascending list}."""
    out: dict[tuple[int, ...], list[int]] = {}
    for e, c in a.items():
        v = out.setdefault(e[:-1], [])
        d = e[-1]
        if len(v) <= d:
            v.extend([0] * (d + 1 - len(v)))
        v[d] = c
    return out


def _join_last(split: dict) -> dict:
    return {h + (d,): c for h, v in split.items() for d, c in enumerate(v) if c}


def _pgcd(a: dict, b: dict, p: int) -> dict:
    """Monic gcd of nonzero a and b in Z_p[x1..xk] (lex-leading
    coefficient 1), by evaluation and Newton interpolation in xk.

    a and b are split over Z_p[xk], their contents in Z_p[xk] removed, and
    gamma is the gcd of their lex-leading coefficients.  Since lc(G) divides
    gamma, at a point xk = x with gamma(x) != 0 the image G(x) keeps the
    lex-leading monomial of the gcd G of the primitive parts and divides
    the image gcd, whose lex-leading monomial is therefore no smaller; a
    constant image proves G = 1.  Images are scaled to leading coefficient
    gamma(x) and only those of the least lex-leading monomial seen are
    kept.  deg gamma + min deg_xk + 1 of them determine gamma * G / lc(G),
    whose primitive part in x1..x(k-1) is G when it divides both primitive
    parts.  When it does not, every kept image had too large a leading
    monomial, and no image with one that large is kept again.  Unlucky
    points are finitely many, so the loop ends."""
    k = len(next(iter(a)))
    if k == 1:
        g = _gcd_mod(_split_last(a)[()], _split_last(b)[()], p)
        return {(d,): c for d, c in enumerate(g) if c}
    zero = (0,) * (k - 1)
    ca, A = _primitive_mod(_split_last(a), p)
    cb, B = _primitive_mod(_split_last(b), p)
    cont = _gcd_mod(ca, cb, p)
    if len(A) == 1 and zero in A or len(B) == 1 and zero in B:
        return {zero + (d,): c for d, c in enumerate(cont) if c}
    gamma = _gcd_mod(A[max(A)], B[max(B)], p)
    bound = len(gamma) + min(max(map(len, A.values())), max(map(len, B.values()))) - 1
    limit = best = None
    for x in range(p):
        gx = _eval_mod(gamma, x, p)
        if not gx:
            continue
        ax = {h: c for h, v in A.items() if (c := _eval_mod(v, x, p))}
        bx = {h: c for h, v in B.items() if (c := _eval_mod(v, x, p))}
        image = _pgcd(ax, bx, p)
        m = max(image)
        if not any(m):
            return {zero + (d,): c for d, c in enumerate(cont) if c}
        if limit is not None and m >= limit or best is not None and m > best:
            continue
        if best is None or m < best:
            best, npts, node = m, 1, [-x % p, 1]
            interp = {h: [c * gx % p] for h, c in image.items()}
        else:
            # Newton step: interp += node * (image * gx - interp(x)) / node(x)
            inv = pow(_eval_mod(node, x, p), -1, p)
            for h in interp.keys() | image.keys():
                v = interp.get(h, [])
                d = (image.get(h, 0) * gx - _eval_mod(v, x, p)) * inv % p
                if d:
                    v = v + [0] * (len(node) - len(v))
                    interp[h] = [(s + d * t) % p for s, t in zip(v, node)]
            node = [(s - x * t) % p for s, t in zip([0] + node, node + [0])]
            npts += 1
        if npts < bound:
            continue
        G = _primitive_mod(interp, p)[1]
        g = _join_last(G)
        if _quotient(_join_last(A), g, p) is not None and _quotient(_join_last(B), g, p) is not None:
            inv = pow(G[max(G)][-1], -1, p)
            cont = [c * inv % p for c in cont]
            return _join_last({h: _mul_mod(v, cont, p) for h, v in G.items()})
        limit, best = best, None
    raise ArithmeticError("ran out of evaluation points")


def gcd_multi(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """The greatest common divisor of p and q, primitive over the integers
    with a positive graded-lex leading coefficient: Brown's dense modular
    algorithm (W. S. Brown, J. ACM 18, 1971; Geddes, Czapor & Labahn,
    *Algorithms for Computer Algebra*, 1992, ch. 7, MGCD).

    p and q become primitive integer term dicts a and b, each with its
    largest monomial factor split off (the factor both share goes back on
    the result), and g = gcd(la, lb) of their lex-leading coefficients.  For each modulus P of ``_modulus`` that
    divides neither la nor lb, ``_pgcd`` gives the monic gcd of the images
    mod P.  Its lex-leading monomial is no smaller than that of the gcd G
    over Z, and equal except at the finitely many unlucky primes; a
    constant image proves G = 1.  Images of the least leading monomial
    seen, scaled by g, are combined by the Chinese remainder theorem into
    g * G / lc(G) mod M.  After each prime the symmetric residue's
    primitive part H is trial-divided into a and b over Z; once M exceeds
    twice the largest coefficient of g * G / lc(G), H = G.  A divisor of
    both whose leading monomial is no smaller than G's is G itself, so
    every result is certified and the algorithm is complete."""
    if p.is_zero():
        return q.normalized()
    if q.is_zero():
        return p.normalized()
    if p.is_constant() or q.is_constant():
        return MultiPoly.const(1)
    vars_, a, b = p._aligned(q)
    ma, a = _strip_monomial(_primitive_ints(a)[1])
    mb, b = _strip_monomial(_primitive_ints(b)[1])
    shared = tuple(map(min, ma, mb))
    used_a = [any(col) for col in zip(*a)]
    used_b = [any(col) for col in zip(*b)]
    if any(u and v for u, v in zip(used_a, used_b)):
        h = _mgcd(a, b)
    else:  # no variable occurs in both
        h = {(0,) * len(vars_): 1}
    if any(shared):
        h = {tuple(map(add, e, shared)): c for e, c in h.items()}
    sign = -1 if h[max(h, key=_grlex_key)] < 0 else 1
    return MultiPoly._make(vars_, {e: Q(sign * c) for e, c in h.items()})


def _mgcd(a: dict, b: dict) -> dict:
    """Primitive gcd, of either sign, of two nonzero integer term dicts
    over one variable tuple; see ``gcd_multi``."""
    la, lb = a[max(a)], b[max(b)]
    g = math.gcd(la, lb)
    best = None
    for i in itertools.count():
        P = _modulus(i)
        if not la % P or not lb % P:
            continue
        image = _pgcd({e: c % P for e, c in a.items() if c % P}, {e: c % P for e, c in b.items() if c % P}, P)
        m = max(image)
        if not any(m):
            return {m: 1}
        if best is not None and m > best:
            continue
        image = {e: c * g % P for e, c in image.items()}
        if best is None or m < best:
            best, lifted, M = m, image, P
        else:
            inv = pow(M, -1, P)
            for e in lifted.keys() | image.keys():
                h = lifted.get(e, 0)
                lifted[e] = h + M * ((image.get(e, 0) - h) * inv % P)
            M *= P
        half = M // 2
        h = _primitive_ints({e: c - M if c > half else c for e, c in lifted.items() if c})[1]
        if _quotient(dict(a), h) is not None and _quotient(dict(b), h) is not None:
            return h


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
    rows = sylvester_matrix(p, q, var, 1)
    r = len(rows)  # = ncols - 1
    return tuple(det_bareiss([row[: r - 1] + [row[c]] for row in rows]) for c in (r - 1, r))


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
    f = [0] * (p.degree_in(var) + 1)  # dense, ascending, content removed
    for (k,), n in _primitive_ints(p.terms)[1].items():
        f[k] = n
    roots = [Q(0)] if f[0] == 0 else []
    f = f[next(k for k, c in enumerate(f) if c) :]
    if len(f) == 1:
        return roots
    if len(f) > 2:  # a linear f is squarefree
        fd = {(k,): c for k, c in enumerate(f) if c}
        g = _mgcd(fd, {(k - 1,): k * c for (k,), c in fd.items() if k})
        if any(max(g)):
            f = [0] * (len(f) - max(g)[0])
            for (k,), c in _quotient(fd, g).items():
                f[k] = c
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
