"""Exact multivariate polynomial arithmetic over the rationals.

A :class:`MultiPoly` stores a mapping from exponent vectors to exact
rational coefficients, together with the tuple of variable names the
exponents refer to.  The representation is canonical:

* no zero coefficients are stored,
* a coefficient is a Python ``int`` exactly when it is integral, and
  otherwise a reduced ``Q`` (fractions.Fraction, or gmpy2.mpq when the
  optional gmpy2 extra is installed),
* the variable tuple is sorted in the fixed global order
  ``x, y, z, s, t, u, v, w`` (further names alphabetically), and
* variables that do not actually occur are dropped.

Canonical storage makes structural equality and hashing coincide with
mathematical equality, which the rest of the package relies on: every
geometric decision reduces to "is this polynomial identically zero".
There is no floating point anywhere in a decision path.  The stored
form stays inside this module: outside it, coefficients are read through
the accessors ``coeff``, ``constant_value``, ``eval_all`` and
``content_unit``, which always return a ``Q``, so a caller that divides
never meets int / int.  Products, exact divisions, gcds, evaluations and
substitutions work on Python integers: each operand is scaled to integer
numerators over one common denominator (read as Python ints through
``_num_den``, since gmpy2 gives an mpz, and mpz / mpz is a float; an
all-int operand is used as it is), and an output term becomes a rational
only when that denominator does not divide it.  Every evaluation and
substitution, here and in ``ratfunc`` and ``curves``, is the one kernel
``compose``, which reads each binding (a float is refused).  Outside
input is canonicalized by the public constructor; internal results are
stored by the trusted ``MultiPoly._make``, behind ``_trimmed`` in each
kernel that can cancel terms or lose variables.

Besides the arithmetic operators, the module provides the elimination
toolkit used by the analyzers: formal derivatives, determinants,
Sylvester resultants, multivariate gcd, squarefree parts, exact
division, and linear subresultants.  Determinants run on integer rows
and on Kronecker images of their entries: radices bound the result's
exponents and a slot width w its coefficients, and the result alone is
decoded.  ``det_bareiss`` and ``resultant`` map each entry to one int
and run fraction-free Bareiss elimination on the ints (w from the
Goldstein-Graham bound), whose exact divisions by the previous pivot
raise ArithmeticError on a remainder.  The 3x3 and 4x4 determinants
(Laplace expansion) and the bordered Hessian (the quadratic form -g^T
adj(H) g) map each exponent of an entry's first variable, the head, to
its polynomial in the others, the tail, at powers of 2^w (w from the
permanent of the entries' L1 norms).

Two univariate images answer the common case before an exact algorithm
runs.  ``divides`` seeks a nonzero remainder on a coordinate image mod
2^61 - 1 (``_image_refutes``: every variable but one set to a fixed
integer).  ``squarefree_part`` certifies a squarefree input on its line
image (``_line_image``: p on the fixed line a + t*b, its exact integer
coefficients read from one evaluation at a power of 2) when that image
keeps its degree mod 2^61 - 1 and is coprime to its derivative there.
Either image only shortcuts a "no" or a "squarefree"; every other input
takes the exact route.

The gcd is Brown's dense modular algorithm on plain Python integers:
images modulo fixed primes below 2^61, each computed by evaluation and
Newton interpolation one variable at a time down to a univariate
Euclid, are combined by the Chinese remainder theorem.  It is complete
and deterministic.  Unlucky primes and unlucky evaluation points are
finitely many and show in an image's leading monomial, and every result
is certified by exact division of both inputs over Z.  The moduli, the
primality test and the dense arithmetic mod p, Newton's step included,
are those of ``arith``.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from fractions import Fraction
from operator import add, getitem, itemgetter, mul, neg, sub
from typing import Iterable, Mapping, Optional, Sequence

from .arith import decimal, divmod_mod, eval_mod, gcd_mod, is_prime, modulus, mul_mod, newton_step, trim

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


@functools.lru_cache(maxsize=4096)
def _monomial_text(variables: tuple[str, ...], exps: tuple[int, ...]) -> str:
    """A monomial's text ("" for 1), cached: monomials recur across prints."""
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(variables, exps) if e)


def _terms_text(terms: Mapping, variables: tuple[str, ...], digits) -> str:
    """The text of a nonzero polynomial.  The terms are sorted by a stable
    degree sort of their lex-descending order; each is one expression, its
    sign and then its magnitude ("n" or "n/d", by ``digits``) and its
    monomial joined by '*', either left out when it is 1; one join."""
    text = "".join([
        (" - " if (c := terms[e]) < 0 else " + ")
        + (m if (m := _monomial_text(variables, e)) and (c == 1 or c == -1)
           else f"{digits(abs(c))}*{m}" if m else digits(abs(c)))
        for e in sorted(sorted(terms, reverse=True), key=sum, reverse=True)
    ])
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _canon(c):
    """The stored form of an exact coefficient: an ``int`` when it
    is integral, else the reduced rational itself."""
    if type(c) is int:
        return c
    return int(c.numerator) if c.denominator == 1 else c


def _num_den(c) -> tuple[int, int]:
    """Numerator and denominator of an exact coefficient as Python ints.
    gmpy2's mpq reads them as mpz, which must not reach storage: mpz / mpz
    is a float."""
    if type(c) is int:
        return c, 1
    return int(c.numerator), int(c.denominator)


def _as_q(c) -> Q:
    """A stored coefficient as a ``Q``."""
    return c if isinstance(c, Q) else Q(c)


def _ratio(n: int, d: int):
    """n/d for ints n and d > 0 in stored form."""
    if d == 1:
        return n
    q, r = divmod(n, d)
    return Q(n, d) if r else q


def _exact(value) -> Q:
    """A number given from outside as a ``Q``; a float is refused, as its
    binary expansion is not the number it was written as, and so is any
    other object that is not an int or a rational."""
    if not isinstance(value, _COEFF_TYPES):
        kind = "floats" if isinstance(value, float) else type(value).__name__
        raise TypeError(f"coefficients must be exact rationals, not {kind}")
    return value if type(value) is Q else Q(value)


class MultiPoly:
    """Immutable multivariate polynomial with exact rational coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], object]):
        nvars = len(variables)
        cleaned: dict[tuple[int, ...], Q] = {}
        for exps, coeff in terms.items():
            c = coeff if type(coeff) is int or isinstance(coeff, Q) else _exact(coeff)
            if c == 0:
                continue
            if len(exps) != nvars:
                raise ValueError("exponent vector length does not match variable count")
            key = tuple(exps)
            prev = cleaned.get(key)
            cleaned[key] = c if prev is None else prev + c
        cleaned = {e: _canon(c) for e, c in cleaned.items() if c}

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
        """Trusted constructor for internal results: it stores and checks
        nothing.  The caller guarantees the canonical form: ``variables`` in
        canonical order, each of positive degree in some term, every key as
        long as ``variables``, and every coefficient nonzero and in stored
        form.  A negation, a nonzero scaling and a rename keep that form, a
        product keeps every variable and drops its zero terms itself, and
        every other kernel stores through ``_trimmed``."""
        obj = object.__new__(MultiPoly)
        _set_vars(obj, variables)
        _set_terms(obj, terms)
        return obj

    def __setattr__(self, *_):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly._make((), {})

    @staticmethod
    def const(value) -> "MultiPoly":
        c = value if type(value) is int else _canon(_exact(value))
        return MultiPoly._make((), {(): c} if c else {})

    @staticmethod
    def var(name: str) -> "MultiPoly":
        return MultiPoly._make((name,), {(1,): 1})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.vars

    def constant_value(self) -> Q:
        if self.vars:
            raise ValueError("polynomial is not constant")
        return _as_q(self.terms.get((), 0))

    def coeff(self, monomial: Mapping[str, int]) -> Q:
        """The coefficient, as a ``Q``, of the monomial with the exponent
        ``monomial[v]`` in each variable v (0 for the names it omits)."""
        if any(e and v not in self.vars for v, e in monomial.items()):
            return Q(0)
        return _as_q(self.terms.get(tuple(monomial.get(v, 0) for v in self.vars), 0))

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

    # operators test for a MultiPoly first: isinstance(_, Q) runs ABCMeta's check
    def __eq__(self, other) -> bool:
        if type(other) is not MultiPoly:
            if not isinstance(other, _COEFF_TYPES):
                return NotImplemented
            other = MultiPoly.const(other)
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        if not self.vars:  # a constant equals its value, so hashes as it
            return hash(self.terms.get((), 0))
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"MultiPoly({self.to_text()})"

    # -- textual form ----------------------------------------------------

    def to_text(self) -> str:
        """Deterministic text form: graded-lex descending, explicit '*'.
        Integer coefficients print with ``str``, and with ``arith.decimal``
        only when one is past the interpreter's int-to-str digit limit."""
        if not self.terms:
            return "0"
        try:
            return _terms_text(self.terms, self.vars, str)
        except ValueError:
            return _terms_text(self.terms, self.vars, decimal)

    # -- alignment helpers ---------------------------------------------

    def _aligned(self, other: "MultiPoly"):
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        unified = _union(self.vars, other.vars)
        return unified, _reindex(self.terms, self.vars, unified), _reindex(other.terms, other.vars, unified)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if type(other) is not MultiPoly:
            if not isinstance(other, _COEFF_TYPES):
                return NotImplemented
            other = MultiPoly.const(other)
        vars_, a, b = self._aligned(other)
        out = dict(a)
        for e, c in b.items():
            prev = out.get(e)
            out[e] = c if prev is None else _canon(prev + c)
        # a variable can go only with a cancelled term
        return _trimmed(vars_, out) if 0 in out.values() else MultiPoly._make(vars_, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._make(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not MultiPoly:
            if not isinstance(other, _COEFF_TYPES):
                return NotImplemented
            other = MultiPoly.const(other)
        vars_, a, b = self._aligned(other)
        out = dict(a)
        for e, c in b.items():
            prev = out.get(e)
            out[e] = -c if prev is None else _canon(prev - c)
        return _trimmed(vars_, out) if 0 in out.values() else MultiPoly._make(vars_, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is MultiPoly and other.vars and self.vars:
            # Convolve integer numerators over one common denominator per
            # operand; only the output terms become rationals.  Degrees add
            # over an integral domain: terms may cancel, but no variable goes.
            vars_, a, b = self._aligned(other)
            da, a = _int_terms(a)
            db, b = _int_terms(b)
            out = _mul_terms(a, b)
            den = da * db
            return MultiPoly._make(vars_, {e: _ratio(n, den) for e, n in out.items() if n}
                                   if den != 1 or 0 in out.values() else out)
        if type(other) is MultiPoly:  # a constant factor scales the terms of the other
            p, c = (self, other.terms.get((), 0)) if self.vars else (other, self.terms.get((), 0))
        elif isinstance(other, _COEFF_TYPES):
            p, c = self, other if type(other) is int else _canon(other if type(other) is Q else Q(other))
        else:
            return NotImplemented
        if not c:
            return MultiPoly.zero()
        return p if c == 1 else MultiPoly._make(p.vars, {e: _canon(co * c) for e, co in p.terms.items()})

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
        for name in self.vars:
            if name not in bindings:
                raise KeyError(f"unbound variable {name!r}")
        return self.eval_partial(bindings).constant_value()

    def eval_partial(self, bindings: Mapping[str, object]) -> "MultiPoly":
        """Substitute exact numbers or polynomials for some variables, all
        at once (so {x: y, y: x} swaps them), by `compose`.  A float, or
        any other object, raises TypeError."""
        return compose(self, bindings)

    # one kernel: substituting polynomials is evaluating at them
    subs_poly = eval_partial

    def rename_vars(self, mapping: Mapping[str, str]) -> "MultiPoly":
        names = tuple([mapping.get(n, n) for n in self.vars])
        if len(set(names)) != len(names):
            raise ValueError("variable rename collides")
        new = canonical_vars(names)
        return MultiPoly._make(new, self.terms if new == names else _reindex(self.terms, names, new))

    # -- calculus ----------------------------------------------------------

    def derivative(self, var: str) -> "MultiPoly":
        if var not in self.vars:
            return MultiPoly.zero()
        i = self.vars.index(var)
        out: dict[tuple[int, ...], Q] = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e:
                out[exps[:i] + (e - 1,) + exps[i + 1 :]] = _canon(coeff * e)
        return _trimmed(self.vars, out)  # var goes at degree 1, and so may a variable of the dropped terms

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
        return {k: _trimmed(rest, t) for k, t in buckets.items()}

    # -- normalization -------------------------------------------------------

    def content_unit(self) -> Q:
        """Positive rational c such that self/c has primitive integer
        coefficients; the sign of the graded-lex leading coefficient moves
        into c as well."""
        if not self.terms:
            return Q(1)
        g, den, _ = _primitive_ints(self.terms)
        return Q(-g if self.leading()[1] < 0 else g, den)

    def normalized(self) -> "MultiPoly":
        """Integer-primitive representative with positive leading coefficient."""
        if not self.terms:
            return self
        return self._signed(_primitive_ints(self.terms)[2])

    def _signed(self, ints: Mapping[tuple[int, ...], int]) -> "MultiPoly":
        """``normalized`` from the integer primitive part ``ints`` of the
        nonzero self, when the caller has it already."""
        if self.leading()[1] > 0:
            return self if ints is self.terms else MultiPoly._make(self.vars, ints)
        return MultiPoly._make(self.vars, {e: -n for e, n in ints.items()})


_set_vars, _set_terms = MultiPoly.vars.__set__, MultiPoly.terms.__set__


def _trimmed(variables: tuple[str, ...], terms: dict) -> MultiPoly:
    """``MultiPoly._make`` for the result of a kernel that can cancel terms
    or lose variables: zero terms and variables of degree 0 are dropped."""
    if 0 in terms.values():
        terms = {e: c for e, c in terms.items() if c}
    used = list(map(any, zip(*terms)))
    if len(used) == len(variables) and all(used):
        return MultiPoly._make(variables, terms)
    kept = tuple(itertools.compress(variables, used))
    return MultiPoly._make(kept, _reindex(terms, variables, kept))


@functools.lru_cache(maxsize=1024)
def _union(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    """The canonical variables of two operands; few pairs recur."""
    return canonical_vars(a + b)


def _int_terms(terms: Mapping[tuple[int, ...], Q]) -> tuple[int, Mapping[tuple[int, ...], int]]:
    """Common denominator d and integer numerators n with terms == n / d.
    Stored terms whose coefficients are all ints come back as they are:
    the result is read-only (``_quotient`` copies what it consumes)."""
    den = 1
    for c in terms.values():
        if type(c) is not int:
            den = math.lcm(den, int(c.denominator))
    if den == 1:
        return 1, terms
    out = {}
    for e, c in terms.items():
        n, d = _num_den(c)
        out[e] = n * (den // d)
    return den, out


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


def _primitive_ints(terms: Mapping[tuple[int, ...], Q]) -> tuple[int, int, Mapping[tuple[int, ...], int]]:
    """(g, den, n) for the positive content g/den, two coprime ints, and the
    integer primitive part n, with terms == g/den * n; like ``_int_terms``,
    n may be terms itself and is read-only.  A caller that reads the
    content builds its ``Q``."""
    den, ints = _int_terms(terms)
    g = 0
    for n in ints.values():
        g = math.gcd(g, n)
    if g != 1:
        ints = {e: n // g for e, n in ints.items()}
    return g, den, ints


def _reindex(terms, old_vars, new_vars):
    """terms over old_vars as terms over new_vars: a name only new_vars has
    gets exponent 0, and one it lacks must have exponent 0 throughout."""
    if old_vars == new_vars:
        return terms
    get = _key_getter(old_vars, new_vars)
    return {get((*e, 0)): c for e, c in terms.items()}


@functools.lru_cache(maxsize=1024)
def _key_getter(old_vars: tuple[str, ...], new_vars: tuple[str, ...]) -> itemgetter:
    """Picks ``_reindex``'s keys in C from (*e, 0), 0 at len(old_vars); a
    slice stands for one position, whose itemgetter returns no tuple."""
    pos = [old_vars.index(v) if v in old_vars else len(old_vars) for v in new_vars]
    return itemgetter(*pos) if len(pos) > 1 else itemgetter(slice(pos[0], pos[0] + 1) if pos else slice(0))


def compose(p: MultiPoly, pairs: Mapping[str, tuple], caps: Optional[Mapping[str, int]] = None) -> MultiPoly:
    """The one substitution kernel: sum_e c_e * prod_v N_v^e_v *
    D_v^(cap_v - e_v) over the terms c_e * x^e of p, i.e. p at all v = N_v/D_v
    at once times prod_v D_v^cap_v, for the pairs (N_v, D_v) of numbers or
    MultiPolys (N_v alone means (N_v, 1)).  Unpaired variables stay, cap_v
    >= deg_v p defaults to deg_v p, a name p lacks counts only with a cap,
    and p comes back when nothing is bound.  Each bound variable has one
    table of N^k * D^(cap - k): number factors as ints that multiply a
    term's numerator, polynomial ones as terms that `_mul_terms` multiplies."""
    names, terms, caps = p.vars, p.terms, caps or {}
    absent = tuple([v for v in pairs if caps.get(v) and v not in names]) if caps else ()
    if absent:  # a name bound by its cap alone: exponent 0 throughout
        names, terms = names + absent, {e + (0,) * len(absent): c for e, c in terms.items()}
    bound, keep = [], []
    for i, v in enumerate(names):
        if v not in pairs:
            keep.append(i)
        else:  # (i, N, D), N alone standing for (N, 1)
            bound.append((i, *x) if type(x := pairs[v]) is tuple else (i, x, 1))
    if not bound:
        return p
    # keys: the free exponents, then the pairs' new variables (reordered at the end)
    layout = vars_ = tuple([names[i] for i in keep])
    extra = [u for _, n, d in bound if MultiPoly in (type(n), type(d))
             for x in (n, d) if type(x) is MultiPoly for u in x.vars if u not in layout]
    if extra:
        extra = canonical_vars(extra)
        layout += extra
        vars_ = canonical_vars(layout)
    den, ints = _int_terms(terms)
    nums, polys = [], []
    for i, n, d in bound:
        deg = max([e[i] for e in ints]) if ints else 0
        cap = caps.get(names[i], deg)
        if cap < deg:
            raise ValueError(f"cap {cap} of {names[i]!r} is below its degree {deg}")
        (da, a), (db, b) = _operand(n, layout), (1, d) if type(d) is int else _operand(d, layout)
        # N^k * D^(cap-k) = (a*db)^k * (b*da)^(cap-k) / (da*db)^cap
        den *= (da * db) ** cap
        ka, a = (a * db, None) if type(a) is int else (db, a)
        kb, b = (b * da, None) if type(b) is int else (da, b)
        nums.append((i, [ka**k * kb ** (cap - k) for k in range(cap + 1)]))
        if a or b:  # a product with the unit `one` is its other factor
            one = {(0,) * len(layout): 1}
            pw = zip(_powers(a, cap, one), _powers(b, cap, one)[::-1])
            polys.append((i, [x if y is one else y if x is one else _mul_terms(x, y) for x, y in pw]))
    pad = (0,) * len(extra)
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for exps, c in ints.items():
        for i, table in nums:
            c *= table[exps[i]]
        key = tuple([exps[i] for i in keep]) + pad
        if not polys:
            out[key] = get(key, 0) + c
        elif c:
            acc = {key: c}
            for i, table in polys:
                acc = _mul_terms(acc, table[exps[i]])
            for x, c in acc.items():
                out[x] = get(x, 0) + c
    if vars_ != layout:
        out = _reindex(out, layout, vars_)
    return _trimmed(vars_, {e: _ratio(c, den) for e, c in out.items() if c})


def _operand(x, layout: tuple[str, ...]):
    """(d, n) with x == n / d for an entry x of a pair: n an int, or the
    integer terms of x over ``layout``; anything else raises TypeError."""
    if type(x) is int:
        return 1, x
    if isinstance(x, MultiPoly):
        if x.vars:
            return _int_terms(x.terms if x.vars == layout else _reindex(x.terms, x.vars, layout))
        x = x.terms.get((), 0)
    n, d = _num_den(x if type(x) is int or isinstance(x, Q) else _exact(x))
    return d, n


def _powers(x, cap: int, one) -> list:
    """[one, x, ..., x^cap] for integer terms x, or cap + 1 ones for None."""
    if x is None:
        return [one] * (cap + 1)
    return list(itertools.accumulate(itertools.repeat(x, cap), _mul_terms, initial=one))


# ---------------------------------------------------------------------------
# kernel operations
# ---------------------------------------------------------------------------


def partial_derivative(p: MultiPoly, var: str) -> MultiPoly:
    """Exact formal derivative; variables absent from p differentiate to 0."""
    return p.derivative(var)


def _add_product(acc: dict, a: Mapping[int, int], b: Mapping[int, int], sign: int) -> None:
    """acc += sign * a * b on term dicts whose keys add: head exponents with
    Kronecker images as values."""
    get = acc.get
    for ka, ca in a.items():
        ca *= sign
        for kb, cb in b.items():
            key = ka + kb
            acc[key] = get(key, 0) + ca * cb


def _int_grid(rows: Sequence[Sequence[MultiPoly]]):
    """A square grid on integers: (variables, top, scale, grid).  variables
    are the grid's canonical variables, and top[i] is S for variable i: the
    sum over rows of the row's largest exponent of it, which bounds that
    exponent in every minor.  Each row is scaled by the lcm of its entries'
    denominators, and scale is the product of those lcms.  grid[r][j] is
    (the integer terms of entry rj, its factor): the scaled entry is the
    terms times the factor."""
    variables = canonical_vars(v for row in rows for p in row for v in p.vars)
    slot = {v: i for i, v in enumerate(variables)}
    top = [0] * len(variables)
    scale = 1
    grid = []
    for row in rows:
        row_top = [0] * len(variables)
        for p in row:
            for v, col in zip(p.vars, zip(*p.terms)):
                row_top[slot[v]] = max(row_top[slot[v]], *col)
        top = list(map(add, top, row_top))
        ints = [_int_terms(p.terms) for p in row]
        den = math.lcm(*(d for d, _ in ints))
        scale *= den
        grid.append([(terms, den // d) for d, terms in ints])
    return variables, top, scale, grid


def _laplace(grid: Sequence[Sequence[Mapping[int, int]]]) -> dict[int, int]:
    """Determinant of a square grid of term dicts whose keys add, by Laplace
    expansion along the top row, each minor of the trailing rows computed
    once and zero ones skipped; minors of Kronecker images need no bound."""
    n = len(grid)
    # minors[cols]: the minor of the trailing rows on the sorted columns cols
    minors = {(j,): grid[n - 1][j] for j in range(n)}
    for r in range(n - 2, -1, -1):
        row = grid[r]
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


def _slot_width(norms: Sequence[Sequence[int]]) -> int:
    """Bits per Kronecker slot for the determinant of a grid with entries of
    L1 norms norms: bit_length(B) + 1 in whole bytes, B the permanent of
    norms, which bounds the determinant's L1 norm; 0 when B = 0 (det = 0)."""
    bound = sum([math.prod(map(getitem, norms, p)) for p in itertools.permutations(range(len(norms)))])
    return (bound.bit_length() + 8) // 8 * 8 if bound else 0


def _kronecker_det(image: Mapping[int, int], w: int, radix: Sequence[int]) -> dict[tuple[int, ...], int]:
    """A determinant's term dict from its Kronecker image, which maps h to
    its coefficient of head^h with tail^e at 2^(w*k), k = sum e_i * place_i,
    place_i the product of the radices after i: a key is h, then k's digits.
    Evaluation at 2^w is a ring homomorphism, so the entries' images
    multiply and add to the determinant's, and only the result must fit:
    tail exponents below their radices, coefficients below 2^(w-1) in
    absolute value (``_slot_width``, ``_det_image``).  An offset of 2^(w-1)
    per slot makes each a digit in [0, 2^w), with no borrow, read from the
    sum's bytes; if slot m is the top nonzero one, |image| > 2^(w*m - 1),
    so bit_length // w + 1 slots hold them all."""
    size, half = w // 8, 1 << (w - 1)
    zero = half.to_bytes(size, "little")
    out = {}
    for h, v in image.items():
        count = v.bit_length() // w + 1
        raw = (v + int.from_bytes(zero * count, "little")).to_bytes(count * size, "little")
        # the keys of slots 0, 1, ... in order: h, then the slot's digits
        for key, i in zip(itertools.product((h,), *map(range, radix)), range(0, count * size, size)):
            digit = raw[i : i + size]
            if digit != zero:
                out[key] = int.from_bytes(digit, "little") - half
    return out


def _det_image(entries: list, rows: list, variables: tuple, radix: Sequence[int], num: int, den: int) -> MultiPoly:
    """num/den times the determinant of a square grid over variables whose
    entry rj is entries[rows[r][j]] = (names, terms, f), f times an integer
    term dict over names (weight 0 for a name not in variables), so that a
    Sylvester band maps each coefficient once.  An entry maps to one int,
    variable i at 2^(w * place_i), place_i the product of the radices after
    i.  Every coefficient of the determinant is at most B = isqrt(prod_r
    sum_j |m_rj|_1^2) (Goldstein & Graham, SIAM Review 16, 1974), and w =
    bit_length(B) + 1 in whole bytes.  Bareiss's elimination (Math. Comp.
    22, 1968) runs on the ints: evaluation is a ring map, so each division
    by the previous pivot is exact (Sylvester's identity), and a remainder
    raises ArithmeticError.  Only the result is decoded."""
    norms = [sum(map(abs, terms.values())) * f for _, terms, f in entries]
    w = (math.isqrt(math.prod(sum(norms[i] ** 2 for i in row) for row in rows)).bit_length() + 8) // 8 * 8
    shift = dict(zip(variables, [w * math.prod(radix[i + 1 :]) for i in range(len(radix))]))  # bits per unit
    images = []
    for names, terms, f in entries:
        weights = [shift.get(v, 0) for v in names]
        images.append(sum([n * f << sum(map(mul, weights, e)) for e, n in terms.items()]))
    m = [[images[i] for i in row] for row in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return MultiPoly._make((), {})
            m[k], m[swap], sign = m[swap], m[k], -sign
        top = m[k]
        for row in m[k + 1 :]:
            for j in range(k + 1, n):
                row[j], r = divmod(top[k] * row[j] - row[k] * top[j], prev)
                if r:
                    raise ArithmeticError("fraction-free elimination lost exactness")
        prev = top[k]
    terms = _kronecker_det({0: sign * (m[-1][-1] if m else 1)}, w, radix)
    return _trimmed(variables, {e[1:]: _ratio(c * num, den) for e, c in terms.items()})


def _det_ints(rows: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """``_laplace`` on Kronecker images of ``_int_grid``'s integer rows, then
    ``_kronecker_det``; radix S + 1, as a term takes one entry per row."""
    variables, top, scale, grid = _int_grid(rows)
    radix = [s + 1 for s in top]
    w = _slot_width([[sum(map(abs, terms.values())) * f for terms, f in row] for row in grid])
    if not w:
        return MultiPoly._make((), {})
    shift = dict(zip(variables, [0] + [w * math.prod(radix[i + 1 :]) for i in range(1, len(radix))]))  # bits per unit
    images = []
    for poly_row, row in zip(rows, grid):
        image_row = []
        for p, (terms, f) in zip(poly_row, row):
            weights = [shift[v] for v in p.vars]
            has_head = bool(p.vars) and p.vars[0] == variables[0]  # else all terms go to key 0
            image: dict[int, int] = {}
            for e, n in terms.items():
                h = e[0] if has_head else 0
                image[h] = image.get(h, 0) + (n << sum(map(mul, weights, e)))
            image_row.append(image if f == 1 else {h: v * f for h, v in image.items()})
        images.append(image_row)
    terms = _kronecker_det(_laplace(images), w, radix[1:])
    if scale != 1 or not variables:  # a grid of constants has no head: key (0,) becomes ()
        terms = {e[: len(variables)]: _ratio(c, scale) for e, c in terms.items()}
    return _trimmed(variables, terms)


def bordered_hessian(F: MultiPoly, coords: Sequence[str]) -> MultiPoly:
    """K = det [[0, g^T], [g, H]] = -g^T adj(H) g for the gradient g and the
    Hessian H of F in the three coordinates coords: c^4 times G's for F = c
    * G, G integer primitive.  A term of K is a cofactor of H (degree 2(d -
    2), d = deg G) times g_i * g_j (degree 2(d - 1)), so G packs with the
    radix min(4 deg_v G, 4d - 6) + 1 per variable v, above deg_v G if d > 1
    (a plane has K = 0); d/dv maps key to key - place_v, times e_v.  Images
    take the head key // place_0 and the tail slot key % place_0.  Six
    cofactors of two products give adj(H), w_j = sum_i adj_ij g_i and K =
    -sum_j w_j g_j; zero cofactors are skipped: a rank-1 H costs 12."""
    cn, cd, ints = _primitive_ints(F.terms)
    d = max(map(sum, ints), default=0)
    if d < 2:
        return MultiPoly._make((), {})
    radix = [min(4 * max(col), 4 * d - 6) + 1 for col in zip(*ints)]
    place = [math.prod(radix[i + 1 :]) for i in range(len(radix))]
    slots = [F.vars.index(v) if v in F.vars else None for v in coords]

    def diff(terms: dict[int, int], i: Optional[int]) -> dict[int, int]:
        if i is None:
            return {}
        step, base = place[i], radix[i]
        return {key - step: c * e for key, c in terms.items() if (e := key // step % base)}

    def image(entry: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for key, c in entry.items():
            h, k = divmod(key, place[0])
            out[h] = out.get(h, 0) + (c << w * k)
        return out

    grad = [diff({sum(map(mul, place, e)): c for e, c in ints.items()}, i) for i in slots]
    # H is symmetric: each second derivative, and its image, is taken once
    lower = [[diff(grad[a], slots[b]) for b in range(a + 1)] for a in range(3)]
    hess = [[lower[max(a, b)][min(a, b)] for b in range(3)] for a in range(3)]
    norms = [sum(map(abs, entry.values())) for entry in grad]
    w = _slot_width([[0, *norms]] + [[norms[a]] + [sum(map(abs, e.values())) for e in hess[a]] for a in range(3)])
    if not w:
        return MultiPoly._make((), {})
    g, images = [image(entry) for entry in grad], [[image(entry) for entry in row] for row in lower]
    H = [[images[max(a, b)][min(a, b)] for b in range(3)] for a in range(3)]
    adj = [[{}] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):  # rows i+1, i+2 and columns j+1, j+2 (mod 3) carry the sign
            acc: dict[int, int] = {}
            _add_product(acc, H[i - 2][j - 2], H[i - 1][j - 1], 1)
            _add_product(acc, H[i - 2][j - 1], H[i - 1][j - 2], -1)
            adj[i][j] = adj[j][i] = {key: c for key, c in acc.items() if c}
    K: dict[int, int] = {}
    for j in range(3):
        acc = {}
        for i in range(3):
            _add_product(acc, adj[i][j], g[i], 1)
        _add_product(K, {key: c for key, c in acc.items() if c}, g[j], -1)
    terms = _kronecker_det(K, w, radix[1:])
    if cn != 1 or cd != 1:
        num, den = cn**4, cd**4
        terms = {e: _ratio(c * num, den) for e, c in terms.items()}
    return _trimmed(F.vars, terms)


def det3(rows: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """3x3 determinant on integer rows by Laplace expansion on Kronecker
    images, decoded once (``_det_ints``)."""
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise ValueError("det3 expects a 3x3 grid")
    return _det_ints(rows)


def det4(rows: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """4x4 determinant as ``det3``: each 2x2 and 3x3 minor of the trailing
    rows is computed once, as an image, and only the result is decoded."""
    if len(rows) != 4 or any(len(r) != 4 for r in rows):
        raise ValueError("det4 expects a 4x4 grid")
    return _det_ints(rows)


def det_bareiss(rows: list[list[MultiPoly]]) -> MultiPoly:
    """Determinant of a square polynomial grid: ``_det_image`` on
    ``_int_grid``'s integer rows, radix S + 1 (a term takes one entry per
    row); the row scales are divided out of the result alone."""
    variables, top, scale, grid = _int_grid(rows)
    entries = [(p.vars, terms, f) for prow, row in zip(rows, grid) for p, (terms, f) in zip(prow, row)]
    n = len(rows)
    return _det_image(entries, [range(r * n, r * n + n) for r in range(n)], variables, [s + 1 for s in top], 1, scale)


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

    For p = cp * P and q = cq * Q, P and Q integer primitive, each of their
    coefficients in var is one int image, shared by its rows, and
    ``_det_image`` gives cp^deg q * cq^deg p * Res(P, Q); another variable v
    has the radix deg q * deg_v p + deg p * deg_v q + 1.
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
    variables = canonical_vars(v for f in (p, q) for v in f.vars if v != var)
    radix = [n * p.degree_in(v) + m * q.degree_in(v) + 1 for v in variables]
    entries, matrix, scale = [((), {}, 1)], [], Q(1)  # entries[0] is zero
    for f, d, count in ((p, m, n), (q, n, m)):
        cn, cd, ints = _primitive_ints(f.terms)
        at, band = f.vars.index(var), list(range(len(entries), len(entries) + d + 1))
        coeffs = [{} for _ in band]  # coeffs[i]: the terms with var^(d - i)
        for e, c in ints.items():
            coeffs[d - e[at]][e] = c
        entries += [(f.vars, terms, 1) for terms in coeffs]  # var's exponent gets weight 0
        matrix += [[0] * i + band + [0] * (count - 1 - i) for i in range(count)]
        scale *= Q(cn, cd) ** count
    return _det_image(entries, matrix, variables, radix, *_num_den(scale))


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
    nq, dq, rem = _primitive_ints(qt)
    n_p, dp, pi = _primitive_ints(pt)
    quot = _quotient(rem, pi)
    if quot is None:
        return None
    num, den = _num_den(Q(nq * dp, dq * n_p))
    return _trimmed(vars_, {e: _ratio(h * num, den) for e, h in quot.items()})


def _quotient(dividend: Mapping, divisor: Mapping[tuple[int, ...], int], p: int = 0) -> Optional[dict]:
    """Quotient of integer term dicts over one variable tuple when divisor
    divides dividend exactly, else None; over Z, or over Z_p for a prime
    p > 0.  Neither argument is modified.

    Over Z the divisor must be primitive: by Gauss's lemma the quotient, if
    any, then has integer coefficients, so a remainder whose leading
    coefficient is not a multiple of the divisor's already certifies "no"."""
    rem = dict(dividend)
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
    P = modulus(0)
    images = []
    for terms in (pt, qt):
        ints = _int_terms(terms)[1]
        image = [0] * (1 + max(e[k] for e in ints))
        for e, c in ints.items():
            for i, x in enumerate(e):
                if x and i != k:
                    c *= (2 * i + 3) ** x
            image[e[k]] += c
        images.append(trim([c % P for c in image]))
    a, b = images
    return bool(a) and bool(divmod_mod(b, a, P)[1])


# -- gcd machinery -----------------------------------------------------------


def _strip_monomial(terms: dict) -> tuple[tuple[int, ...], dict]:
    """Split off the largest monomial dividing every term of a term dict."""
    mins = tuple(map(min, zip(*terms)))
    if not any(mins):
        return mins, terms
    return mins, {tuple(map(sub, e, mins)): c for e, c in terms.items()}


def _primitive_mod(split: dict, p: int) -> tuple[list[int], dict]:
    """Monic content in Z_p[xk] and primitive part of a split polynomial."""
    c: list[int] = []
    for v in split.values():
        c = gcd_mod(c, v, p)
        if len(c) == 1:
            return c, split
    return c, {h: divmod_mod(v, c, p)[0] for h, v in split.items()}


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
        g = gcd_mod(_split_last(a)[()], _split_last(b)[()], p)
        return {(d,): c for d, c in enumerate(g) if c}
    zero = (0,) * (k - 1)
    ca, A = _primitive_mod(_split_last(a), p)
    cb, B = _primitive_mod(_split_last(b), p)
    cont = gcd_mod(ca, cb, p)
    if len(A) == 1 and zero in A or len(B) == 1 and zero in B:
        return {zero + (d,): c for d, c in enumerate(cont) if c}
    gamma = gcd_mod(A[max(A)], B[max(B)], p)
    bound = len(gamma) + min(max(map(len, A.values())), max(map(len, B.values()))) - 1
    limit = best = None
    for x in range(p):
        gx = eval_mod(gamma, x, p)
        if not gx:
            continue
        ax = {h: c for h, v in A.items() if (c := eval_mod(v, x, p))}
        bx = {h: c for h, v in B.items() if (c := eval_mod(v, x, p))}
        image = _pgcd(ax, bx, p)
        m = max(image)
        if not any(m):
            return {zero + (d,): c for d, c in enumerate(cont) if c}
        if limit is not None and m >= limit or best is not None and m > best:
            continue
        if best is None or m < best:
            best, interp, node = m, {}, [1]
        node = newton_step(interp, node, x, {h: c * gx % p for h, c in image.items()}, p)
        if len(node) - 1 < bound:  # node has one root per kept point
            continue
        G = _primitive_mod(interp, p)[1]
        g = _join_last(G)
        if _quotient(_join_last(A), g, p) is not None and _quotient(_join_last(B), g, p) is not None:
            inv = pow(G[max(G)][-1], -1, p)
            cont = [c * inv % p for c in cont]
            return _join_last({h: mul_mod(v, cont, p) for h, v in G.items()})
        limit, best = best, None
    raise ArithmeticError("ran out of evaluation points")


def gcd_multi(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """The greatest common divisor of p and q, primitive over the integers
    with a positive graded-lex leading coefficient: Brown's dense modular
    algorithm (W. S. Brown, J. ACM 18, 1971; Geddes, Czapor & Labahn,
    *Algorithms for Computer Algebra*, 1992, ch. 7, MGCD).

    p and q become primitive integer term dicts a and b, each with its
    largest monomial factor split off (the factor both share goes back on
    the result), and g = gcd(la, lb) of their lex-leading coefficients.  For each modulus P of ``modulus`` that
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
    if p.is_constant() or q.is_constant() or set(p.vars).isdisjoint(q.vars):
        # a factor of p involves only p's variables
        return MultiPoly.const(1)
    vars_, a, b = p._aligned(q)
    ma, a = _strip_monomial(_primitive_ints(a)[2])
    mb, b = _strip_monomial(_primitive_ints(b)[2])
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
    return _trimmed(vars_, {e: sign * c for e, c in h.items()})


def _mgcd(a: dict, b: dict) -> dict:
    """Primitive gcd, of either sign, of two nonzero integer term dicts
    over one variable tuple; see ``gcd_multi``."""
    la, lb = a[max(a)], b[max(b)]
    g = math.gcd(la, lb)
    best = None
    for i in itertools.count():
        P = modulus(i)
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
        h = _primitive_ints({e: c - M if c > half else c for e, c in lifted.items() if c})[2]
        if _quotient(a, h) is not None and _quotient(b, h) is not None:
            return h


def gcd_many(polys: Iterable[MultiPoly]) -> MultiPoly:
    g = MultiPoly.zero()
    for p in polys:
        g = gcd_multi(g, p)
        if g.is_constant() and not g.is_zero():
            return g
    return g


# the line a + t*b of ``_line_image``.  Generic entries: a line through
# small integer points meets the apexes of cones with small integer
# apexes, and a small b is often a zero of an input's top form; either
# only sends a squarefree input to the gcd.
_LINE = ((13, -7, 29), (17, 31, -11))


def _line_image(p: MultiPoly, ints: Mapping[tuple[int, ...], int]) -> list[int]:
    """Ascending integer coefficients of p'(a + t*b), p' the integer
    primitive part of the nonconstant p in at most three variables (its
    terms ``ints``, from ``_primitive_ints``), its i-th variable set to
    a_i + t*b_i (``_LINE``); a univariate p' is its own image.  Each
    coefficient is at most B = |p'|_1 * (max |a_i| + max |b_i|)^d in
    absolute value, d = deg p, so the one integer
    p'(a + 2^w * b), 2^(w-1) > B, evaluated by Horner's rule one variable
    at a time, holds them all as balanced base-2^w digits
    (``_kronecker_det``)."""
    d = max(map(sum, ints))
    if len(p.vars) == 1:
        return _split_last(ints)[()]
    a, b = _LINE
    bound = sum(map(abs, ints.values())) * (max(map(abs, a)) + max(map(abs, b))) ** d
    w = (bound.bit_length() + 8) // 8 * 8
    for x in reversed([ai + (bi << w) for ai, bi in zip(a, b)][: len(p.vars)]):
        ints = {h: functools.reduce(lambda acc, c: acc * x + c, reversed(v), 0) for h, v in _split_last(ints).items()}
    image = [0] * (d + 1)
    for (_, k), c in _kronecker_det(ints, w, [d + 1]).items():
        image[k] = c
    return image


def _squarefree_image(q: list[int]) -> bool:
    """The certificate of ``squarefree_part`` for ascending integer
    coefficients q of degree at least 1."""
    P = modulus(0)
    q = [c % P for c in q]
    return bool(q[-1]) and len(gcd_mod(q, [k * c % P for k, c in enumerate(q)][1:], P)) == 1


def squarefree_part(p: MultiPoly) -> MultiPoly:
    """Product of the distinct irreducible factors of p, normalized.

    A squarefree p in at most three variables is certified with no gcd
    when its line image q = ``_line_image(p)`` keeps the degree d of p mod
    P = 2^61 - 1 and is coprime to q' there.  That is sound: if p = g^2 h
    with g nonconstant, g and h may be taken integer (Gauss's lemma), and
    q = G^2 H for their images G and H.  The leading coefficient of q is
    top(p)(b), top the homogeneous part of degree d (the leading
    coefficient if p is univariate), and top(p) = top(g)^2 top(h); so
    top(p)(b) != 0 mod P forces top(g)(b) != 0 mod P.  Then G keeps its
    degree, at least 1, mod P, and G^2 divides q, so G divides gcd(q, q').
    Every other p takes the gcd of p and its partial derivatives, then
    one exact division."""
    if p.is_zero():
        raise ValueError("squarefree part of the zero polynomial")
    if p.is_constant():
        return MultiPoly.const(1)
    if len(p.vars) <= len(_LINE[0]):
        ints = _primitive_ints(p.terms)[2]
        if _squarefree_image(_line_image(p, ints)):
            return p._signed(ints)
    g = p
    for v in p.vars:
        g = gcd_multi(g, p.derivative(v))
        if g.is_constant():
            return p.normalized()
    h = exact_div(p, g)
    if h is None:
        raise ArithmeticError("squarefree division lost exactness")
    return h.normalized()


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
    a, b = ({e[0] if e else 0: _as_q(c) for e, c in poly.terms.items()} for poly in (p, q))
    db, quo = max(b), {}
    while a and max(a) >= db:
        shift = max(a) - db
        c = quo[shift] = a[db + shift] / b[db]
        for k, v in b.items():
            a[k + shift] = a.get(k + shift, 0) - c * v
        a = {k: v for k, v in a.items() if v}
    return tuple(_trimmed((var,), {(k,): _canon(c) for k, c in d.items()}) for d in (quo, a))


def rational_roots(p: MultiPoly, var: str) -> list[Q]:
    """All rational roots of a univariate polynomial, exactly and sorted.

    p-adic lifting (R. Loos, "Computing rational zeros of integral
    polynomials by p-adic expansion", SIAM J. Comput. 12, 1983).  Take the
    primitive integer polynomial f = a*t^d + ... + f0, strip the factor
    t^k (root 0) so that f0 != 0, and make f squarefree: by a gcd with f'
    only when ``_squarefree_image`` does not certify f.  Pick the first
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
    for (k,), n in _primitive_ints(p.terms)[2].items():
        f[k] = n
    roots = [Q(0)] if f[0] == 0 else []
    f = f[next(k for k, c in enumerate(f) if c) :]
    if len(f) == 1:
        return roots
    if len(f) > 2 and not _squarefree_image(f):  # a linear f is squarefree too
        fd = {(k,): c for k, c in enumerate(f) if c}
        g = _mgcd(fd, {(k - 1,): k * c for (k,), c in fd.items() if k})
        if any(max(g)):
            f = [0] * (len(f) - max(g)[0])
            for (k,), c in _quotient(fd, g).items():
                f[k] = c
    a, d = f[-1], len(f) - 1
    df = [k * c for k, c in enumerate(f)][1:]
    for prime in filter(is_prime, itertools.count(2)):
        if a % prime:
            residues = [r for r in range(prime) if eval_mod(f, r, prime) == 0]
            if all(eval_mod(df, r, prime) for r in residues):
                break
    bound = 2 * abs(a * f[0])
    m = prime
    while m <= bound:
        m *= m
        residues = [(r - eval_mod(f, r, m) * pow(eval_mod(df, r, m), -1, m)) % m for r in residues]
    for r in residues:
        n = a * r % m
        if n > m // 2:
            n -= m
        if sum(c * n**k * a ** (d - k) for k, c in enumerate(f)) == 0:
            roots.append(Q(n, a))
    return sorted(roots)
