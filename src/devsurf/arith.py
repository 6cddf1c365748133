"""Exact integer arithmetic behind the polynomial and curve code: a leaf
module, which imports nothing from devsurf.

* Number theory: ``decimal`` text of any int or rational; ``is_prime``,
  Miller-Rabin with the first 13 prime bases, a proof of primality below
  ``_MR_EXACT_BOUND`` = 3317044064679887385961981, the least strong
  pseudoprime to all 13 (J. Sorenson and J. Webster, "Strong
  pseudoprimes to twelve prime bases", Math. Comp. 86, 2017); the moduli
  ``modulus(i)``; ``factor``, which gives up rather than trust a probable
  prime, and Legendre's theorem on it, ``legendre``.
* Dense univariate arithmetic mod a prime p on ascending coefficient
  lists, and one Newton interpolation, ``newton_step``.
"""

from __future__ import annotations

import functools
import math
from typing import Mapping, Optional


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


# -- number theory ------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BOUND = 3317044064679887385961981
_TRIAL_LIMIT = 1000
_RHO_BUDGET = 1 << 16


def is_prime(n: int) -> bool:
    """Miller-Rabin with the bases _MR_BASES; exact for n < _MR_EXACT_BOUND."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.cache
def modulus(i: int) -> int:
    """The i-th modulus: the primes below 2^61 from the largest down, the
    Mersenne prime 2^61 - 1 first; each is found on first use."""
    n = 2**61 - 1 if i == 0 else modulus(i - 1) - 2
    while not is_prime(n):
        n -= 2
    return n


def _rho_factor(n: int) -> Optional[int]:
    """A proper factor of the odd composite n by Pollard rho with Brent's
    cycle search, or None once _RHO_BUDGET iterations are spent."""
    steps = 0
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(128, r - k)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += batch
            steps += 2 * r
            if steps > _RHO_BUDGET:
                return None
            r *= 2
        if g == n:
            # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factor(n: int) -> Optional[dict[int, int]]:
    """Prime factorization {p: e} of the integer n >= 1, or None when it
    cannot be certified: a cofactor at or past _MR_EXACT_BOUND, or Pollard
    rho past _RHO_BUDGET iterations."""
    factors: dict[int, int] = {}
    d = 2
    while d < _TRIAL_LIMIT and d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if m >= _MR_EXACT_BOUND:
            return None
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        f = _rho_factor(m)
        if f is None:
            return None
        pending += [f, m // f]
    return factors


def legendre(a: int, b: int, c: int) -> tuple[Optional[bool], str]:
    """Whether a x^2 + b y^2 + c z^2 = 0 (nonzero integers a, b, c) has a
    nontrivial rational solution, by Legendre's theorem: (True, ""),
    (False, reason) or (None, reason) when factoring is out of bounds."""
    if (a > 0) == (b > 0) == (c > 0):
        return False, "it has no real point"
    primes = []
    for v in (a, b, c):
        f = factor(abs(v))
        if f is None:
            return None, f"{decimal(abs(v))} could not be factored within the bounds"
        primes.append({p for p, e in f.items() if e % 2})
    # squarefree parts made pairwise coprime: p | a, b turns a, b, c into
    # a/p, b/p, c*p (multiply by p, scale x, y by p), p^2 | c*p drops out
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        common = primes[i] & primes[j]
        primes[i] -= common
        primes[j] -= common
        primes[k] ^= common
    coef = [(1 if v > 0 else -1) * math.prod(ps) for v, ps in zip((a, b, c), primes)]
    # -bc, -ca, -ab must be squares modulo |a|, |b|, |c|; modulo 2 every
    # residue is a square, so only odd primes are checked (Euler's criterion)
    for i in range(3):
        other = -coef[(i + 1) % 3] * coef[(i + 2) % 3]
        for p in sorted(primes[i]):
            if p != 2 and pow(other % p, (p - 1) // 2, p) != 1:
                return False, f"{decimal(other)} is not a square modulo {p} (Legendre's theorem)"
    return True, ""


# -- dense univariate arithmetic mod p on ascending coefficient lists ----------


def trim(v: list[int]) -> list[int]:
    while v and not v[-1]:
        v.pop()
    return v


def mul_mod(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [c % p for c in out]


def divmod_mod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
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
    return quot, trim(r[:db])


def gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd mod p of two lists, not both zero."""
    a, b = trim(list(a)), trim(list(b))
    while b:
        a, b = b, divmod_mod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def eval_mod(coeffs: list[int], x: int, m: int) -> int:
    """Value mod m at x of the ascending integer coefficient list."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def res_mod(a: list[int], b: list[int], p: int) -> int:
    """Resultant mod p of two lists with nonzero leading coefficients, by
    Euclid: Res(a, b) = (-1)^(mn) lc(b)^(m-r) Res(b, a mod b), m, n and r
    the degrees of a, b and a mod b."""
    res = 1
    while len(b) > 1:
        r = divmod_mod(a, b, p)[1]
        if not r:
            return 0
        if (len(a) - 1) * (len(b) - 1) % 2:
            res = -res
        res = res * pow(b[-1], len(a) - len(r), p) % p
        a, b = b, r
    return res * pow(b[0], len(a) - 1, p) % p


def newton_step(interp: dict, node: list[int], x: int, values: Mapping, p: int) -> list[int]:
    """Extend Newton interpolants mod p by the point x, and return
    node * (t - x), the node of the next step.

    ``interp`` maps each key to an ascending coefficient list, interpolating
    that key's values at the points so far; ``node`` is the product of
    t - y over those points, so x must not be one of them.  At x the key h
    takes values.get(h, 0), and a key missing from ``interp`` has so far
    been 0.  Each h becomes interp[h] + node * (value - interp[h](x)) /
    node(x), in place; a list that changes ends in a nonzero coefficient.
    A step from ({}, [1]) starts the interpolation."""
    inv = pow(eval_mod(node, x, p), -1, p)
    for h in interp.keys() | values.keys():
        v = interp.get(h, [])
        d = (values.get(h, 0) - eval_mod(v, x, p)) * inv % p
        if d:
            v = v + [0] * (len(node) - len(v))
            interp[h] = [(s + d * t) % p for s, t in zip(v, node)]
    return [(s - x * t) % p for s, t in zip([0] + node, node + [0])]
