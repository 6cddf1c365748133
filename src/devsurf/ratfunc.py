"""Reduced rational functions and rational maps built on :mod:`devsurf.poly`.

A :class:`RatFunc` is a quotient num/den of multivariate polynomials kept in
a canonical reduced form: gcd(num, den) is constant and den is
integer-primitive with positive leading coefficient.  Structural equality
therefore coincides with mathematical equality.

A :class:`RationalMap3` bundles three rational functions sharing one
parameter list; arity 1 maps are space curves, arity 2 maps are surfaces.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Mapping, Sequence

from .poly import MultiPoly, Q, _int_terms, _reindex, canonical_vars, exact_div, gcd_multi, poly_divmod_univar

_ONE = MultiPoly.const(1)


def _coerce_poly(value) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value
    if isinstance(value, (int, Fraction, Q)):
        return MultiPoly.const(value)
    raise TypeError(f"cannot interpret {value!r} as a polynomial")


class RatFunc:
    """Quotient of two MultiPoly values, always reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=_ONE, *, _reduced=False):
        num = _coerce_poly(num)
        den = _coerce_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator polynomial")
        if num.is_zero():
            den = _ONE
        else:
            if not _reduced and not den.is_constant():
                g = gcd_multi(num, den)
                if not g.is_constant():
                    num = exact_div(num, g)
                    den = exact_div(den, g)
            if den != _ONE:
                unit = den.content_unit()
                if unit != 1:
                    num = num * (1 / unit)
                    den = den * (1 / unit)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("RatFunc is immutable")

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Q:
        return self.num.constant_value() / self.den.constant_value()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def as_poly(self) -> MultiPoly:
        if not self.den.is_constant():
            raise ValueError("rational function has a nonconstant denominator")
        return self.num * (1 / self.den.constant_value())

    @property
    def vars(self) -> tuple[str, ...]:
        return canonical_vars(self.num.vars + self.den.vars)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Q, MultiPoly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den == _ONE:
            return f"RatFunc({self.num.to_text()})"
        return f"RatFunc(({self.num.to_text()})/({self.den.to_text()}))"

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction, Q, MultiPoly)):
            return RatFunc(other)
        return None

    def _addsub(self, o: "RatFunc", sign: int) -> "RatFunc":
        # gcd of numerator and combined denominator divides gcd(d1, d2),
        # so only that much reduction work is ever needed
        if self.den == o.den:
            num = self.num + o.num * sign
            g = self.den if not self.den.is_constant() else None
        else:
            g = gcd_multi(self.den, o.den)
            if g.is_constant():
                g = None
                num = self.num * o.den + o.num * self.den * sign
                return RatFunc(num, self.den * o.den, _reduced=True)
            dq = exact_div(o.den, g)
            sq = exact_div(self.den, g)
            num = self.num * dq + o.num * sq * sign
            den = self.den * dq
            if num.is_zero():
                return RatFunc(MultiPoly.zero())
            h = gcd_multi(num, g)
            if not h.is_constant():
                num = exact_div(num, h)
                den = exact_div(den, h)
            return RatFunc(num, den, _reduced=True)
        if num.is_zero():
            return RatFunc(MultiPoly.zero())
        if g is not None:
            h = gcd_multi(num, g)
            if not h.is_constant():
                return RatFunc(exact_div(num, h), exact_div(self.den, h), _reduced=True)
        return RatFunc(num, self.den, _reduced=True)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._addsub(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, _reduced=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._addsub(o, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.num, self.den
        c, d = o.num, o.den
        if not d.is_constant() and not a.is_zero():
            g1 = gcd_multi(a, d)
            if not g1.is_constant():
                a = exact_div(a, g1)
                d = exact_div(d, g1)
        if not b.is_constant() and not c.is_zero():
            g2 = gcd_multi(c, b)
            if not g2.is_constant():
                c = exact_div(c, g2)
                b = exact_div(b, g2)
        return RatFunc(a * c, b * d, _reduced=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * RatFunc(o.den, o.num, _reduced=True)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RatFunc(self.den ** (-n), self.num ** (-n), _reduced=True)
        return RatFunc(self.num**n, self.den**n, _reduced=True)

    # -- calculus ------------------------------------------------------------

    def derivative(self, var: str) -> "RatFunc":
        dn = self.num.derivative(var)
        dd = self.den.derivative(var)
        if dd.is_zero():
            return RatFunc(dn, self.den)
        return RatFunc(dn * self.den - self.num * dd, self.den * self.den)

    # -- evaluation ------------------------------------------------------------

    def eval_all(self, bindings: Mapping[str, object]):
        """Exact value at a rational point, or None at a pole."""
        d = self.den.eval_all(bindings)
        if d == 0:
            return None
        return self.num.eval_all(bindings) / d

    def polynomial_part(self, var: str) -> MultiPoly:
        """Polynomial part of a univariate rational function in var."""
        if self.den.is_constant():
            return self.as_poly()
        quo, _ = poly_divmod_univar(self.num, self.den, var)
        return quo

    def rename_vars(self, mapping: Mapping[str, str]) -> "RatFunc":
        return RatFunc(self.num.rename_vars(mapping), self.den.rename_vars(mapping))

    def subs(self, bindings: Mapping[str, "RatFunc"]) -> "RatFunc":
        """Compose; variables without a binding stay themselves."""
        full = dict(bindings)
        for v in self.vars:
            if v not in full:
                full[v] = RatFunc(MultiPoly.var(v))
        num = substitute(self.num, full)
        den = substitute(self.den, full)
        if den.is_zero():
            raise ZeroDivisionError("substitution makes the denominator vanish identically")
        return num / den

    def to_text(self) -> str:
        if self.den == _ONE:
            return self.num.to_text()
        return f"({self.num.to_text()})/({self.den.to_text()})"


def substitute(p, bindings: Mapping[str, object]) -> RatFunc:
    """Compose a polynomial or rational function with rational functions.

    Every variable of ``p`` must be bound; bindings may be RatFunc,
    MultiPoly or rational constants.  The result is reduced once at the
    end, after assembling a single common-denominator numerator.
    """
    binds: dict[str, RatFunc] = {}
    for k, v in bindings.items():
        binds[k] = v if isinstance(v, RatFunc) else RatFunc(_coerce_poly(v))
    if isinstance(p, RatFunc):
        return p.subs(binds)
    p = _coerce_poly(p)
    for v in p.vars:
        if v not in binds:
            raise KeyError(f"unbound variable {v!r}")
    if p.is_constant():
        return RatFunc(p)
    names = list(p.vars)
    caps = {name: p.degree_in(name) for name in names}
    num_pows: dict[str, list[MultiPoly]] = {}
    den_pows: dict[str, list[MultiPoly]] = {}
    for name in names:
        b = binds[name]
        num_pows[name] = [MultiPoly.const(1)]
        den_pows[name] = [MultiPoly.const(1)]
        for _ in range(caps[name]):
            num_pows[name].append(num_pows[name][-1] * b.num)
            den_pows[name].append(den_pows[name][-1] * b.den)
    total = MultiPoly.zero()
    for exps, coeff in p.terms.items():
        term = MultiPoly.const(coeff)
        for name, e in zip(p.vars, exps):
            term = term * num_pows[name][e]
            if caps[name] - e:
                term = term * den_pows[name][caps[name] - e]
        total = total + term
    den = MultiPoly.const(1)
    for name in names:
        den = den * den_pows[name][caps[name]]
    return RatFunc(total, den)


class RationalMap3:
    """Triple of rational functions sharing one parameter tuple."""

    __slots__ = ("components", "params")

    def __init__(self, components: Sequence[RatFunc], params: Sequence[str]):
        comps = tuple(c if isinstance(c, RatFunc) else RatFunc(_coerce_poly(c)) for c in components)
        if len(comps) != 3:
            raise ValueError("a space map needs exactly 3 components")
        params = tuple(params)
        for c in comps:
            extra = set(c.vars) - set(params)
            if extra:
                raise ValueError(f"component uses variables {sorted(extra)} outside parameters {params}")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "params", params)

    def __setattr__(self, *_):
        raise AttributeError("RationalMap3 is immutable")

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __eq__(self, other):
        if not isinstance(other, RationalMap3):
            return NotImplemented
        return self.components == other.components and self.params == other.params

    def __hash__(self):
        return hash((self.components, self.params))

    def __repr__(self):
        return f"RationalMap3({self.to_text()}; params={self.params})"

    def to_text(self) -> str:
        return "(" + ", ".join(c.to_text() for c in self.components) + ")"

    def is_constant(self) -> bool:
        return all(c.is_constant() for c in self.components)

    def derivative(self, var: str | None = None) -> "RationalMap3":
        v = var if var is not None else self.params[0]
        return RationalMap3([c.derivative(v) for c in self.components], self.params)

    def subs(self, bindings: Mapping[str, RatFunc], params: Sequence[str]) -> "RationalMap3":
        return RationalMap3([c.subs(bindings) for c in self.components], params)

    def rename_params(self, mapping: Mapping[str, str]) -> "RationalMap3":
        return RationalMap3(
            [c.rename_vars(mapping) for c in self.components],
            tuple(mapping.get(p, p) for p in self.params),
        )

    def eval_all(self, bindings: Mapping[str, object]):
        """Exact point on the map, or None when a denominator vanishes."""
        out = []
        for c in self.components:
            v = c.eval_all(bindings)
            if v is None:
                return None
            out.append(v)
        return tuple(out)

    def sub(self, other: "RationalMap3") -> "RationalMap3":
        params = self.params if len(self.params) >= len(other.params) else other.params
        return RationalMap3([a - b for a, b in zip(self.components, other.components)], params)

    @staticmethod
    def constant(point: Sequence, params: Sequence[str]) -> "RationalMap3":
        return RationalMap3([RatFunc(MultiPoly.const(Q(p))) for p in point], params)


def cross3(a: Sequence, b: Sequence) -> tuple:
    """Cross product of two triples of RatFunc or of MultiPoly."""
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def dot3(a: Sequence, b: Sequence):
    """Dot product of two triples of RatFunc or of MultiPoly."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def substitute_map(p: MultiPoly, map3: RationalMap3, coords=("x", "y", "z")) -> RatFunc:
    """Substitute a space map into a polynomial in the given coordinates."""
    bindings = dict(zip(coords, map3.components))
    extra = set(p.vars) - set(coords)
    if extra:
        raise KeyError(f"polynomial involves non-coordinate variables {sorted(extra)}")
    return substitute(p, {v: bindings[v] for v in p.vars})


def _int_binding(rf: RatFunc, params: tuple[str, ...]) -> tuple[list, list]:
    """Numerator and denominator of rf as integer term lists over params,
    both scaled by one common integer, so that their ratio is rf."""
    dn, num = _int_terms(rf.num.terms)
    dd, den = _int_terms(rf.den.terms)
    scale = math.lcm(dn, dd)
    out = []
    for poly, ints, factor in ((rf.num, num, scale // dn), (rf.den, den, scale // dd)):
        for v in poly.vars:
            if v not in params:
                raise KeyError(f"unbound variable {v!r}")
        out.append([(e, n * factor) for e, n in _reindex(ints, poly.vars, params).items()])
    return out[0], out[1]


def _row(terms: list, lead: tuple[int, ...]) -> list[int]:
    """Coefficients in the last parameter, highest first, at lead."""
    top = max((e[-1] for e, _ in terms), default=0)
    row = [0] * (top + 1)
    for exps, n in terms:
        for x, e in zip(lead, exps):
            if e:
                n *= x**e
        row[top - exps[-1]] += n
    return row


def compose_is_zero(p: MultiPoly, bindings: Mapping[str, RatFunc], params: Sequence[str]) -> bool:
    """Certified exact test that p composed with the bindings vanishes
    identically, without expanding the composition.

    The cleared numerator N = sum_e c_e * prod_n num_n^e_n * den_n^(cap_n - e_n)
    (cap_n the degree of p in n) has a computable degree bound in each of
    the 1 or 2 parameters; N vanishes on an integer grid one point wider
    than those bounds in each parameter exactly when N = 0.  The test runs
    in Python ints: p is scaled to integer coefficients over one
    denominator, and each binding's numerator and denominator by one
    common integer L_n, which leaves the binding unchanged and multiplies
    N by the nonzero integer den_p * prod_n L_n^cap_n.  The grid is walked
    row by row: each binding is restricted once per value of the first
    parameter (once in all for one parameter) to a dense coefficient list
    in the last one, which is then evaluated along the row by Horner's
    rule.  There is no sampling uncertainty.
    """
    for v in p.vars:
        if v not in bindings:
            raise KeyError(f"unbound variable {v!r}")
    if p.is_zero():
        return True
    if p.is_constant():
        return p.constant_value() == 0
    params = tuple(params)
    if len(params) not in (1, 2):
        raise ValueError("compose_is_zero supports 1 or 2 parameters")
    caps = [p.degree_in(n) for n in p.vars]
    pairs = [_int_binding(bindings[n], params) for n in p.vars]
    # degree bound of the cleared numerator in each parameter
    bounds = []
    for i in range(len(params)):
        dn = [max((e[i] for e, _ in num), default=0) for num, _ in pairs]
        dd = [max((e[i] for e, _ in den), default=0) for _, den in pairs]
        bounds.append(max(
            sum(e * a + (cap - e) * b for e, a, b, cap in zip(exps, dn, dd, caps))
            for exps in p.terms
        ))
    _, coeffs = _int_terms(p.terms)
    terms = list(coeffs.items())
    for lead in itertools.product(*(range(b + 1) for b in bounds[:-1])):
        rows = [(_row(num, lead), _row(den, lead)) for num, den in pairs]
        for x in range(bounds[-1] + 1):
            pows = []
            for (num, den), cap in zip(rows, caps):
                nv = dv = 0
                for c in num:
                    nv = nv * x + c
                for c in den:
                    dv = dv * x + c
                npow, dpow = [1], [1]
                for _ in range(cap):
                    npow.append(npow[-1] * nv)
                    dpow.append(dpow[-1] * dv)
                pows.append((npow, dpow))
            acc = 0
            for exps, c in terms:
                for (npow, dpow), e, cap in zip(pows, exps, caps):
                    c *= npow[e] * dpow[cap - e]
                acc += c
            if acc:
                return False
    return True


def substitute_map_is_zero(p: MultiPoly, map3: RationalMap3, coords=("x", "y", "z")) -> bool:
    """Exact zero test for p composed with a space map (grid-certified)."""
    bindings = dict(zip(coords, map3.components))
    extra = set(p.vars) - set(coords)
    if extra:
        raise KeyError(f"polynomial involves non-coordinate variables {sorted(extra)}")
    return compose_is_zero(p, {v: bindings[v] for v in p.vars}, map3.params)
