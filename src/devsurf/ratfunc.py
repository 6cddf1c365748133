"""Reduced rational functions and rational maps built on :mod:`devsurf.poly`.

A :class:`RatFunc` is a quotient num/den of multivariate polynomials kept in
a canonical reduced form: gcd(num, den) is constant and den is
integer-primitive with positive leading coefficient.  Structural equality
therefore coincides with mathematical equality.  It is the public value
type and the parser's (``exprs``): its arithmetic forms the unreduced
result and reduces it once, in the constructor.  The pipeline does no
RatFunc arithmetic; it computes on the stored forms below.

A :class:`RationalMap3` is a map P = X/W of one parameter (a space curve)
or two (a surface) into space, stored as its projective form
[X1 : X2 : X3 : W]: four integer polynomials whose coefficients have gcd 1,
whose gcd is 1, and with W of positive leading coefficient.  That form is
canonical, so equal maps have equal forms.  Map operations and the
substitution certificate work on it, and so does every plane-curve
parametrization, a triple [U : V : W] (:mod:`devsurf.curves`).  The
reduced components Xi/W are a view; its readers are the printing,
``builder.full_map`` and ``build_conical`` (each forms the components of
the map it builds from the views of its inputs, with no RatFunc
arithmetic, and hands them on), ``builder.reduce_directrix``, which
measures degrees on the components of its candidates,
``parametric._mobius_normalized`` and
``parametric.reparametrize_space_curve`` with its audit ``_same_curve``,
whose eliminants x_i*den_i - num_i are read off the components.
Composition (``substitute``, ``RationalMap3.subs``) is ``poly.compose`` on
the pairs (num, den) of the bindings, with no RatFunc arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from .poly import (
    MultiPoly,
    Q,
    _int_terms,
    _kronecker_det,
    canonical_vars,
    compose,
    exact_div,
    gcd_many,
    gcd_multi,
)

_ONE = MultiPoly.const(1)


def _coerce_poly(value) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value
    if isinstance(value, (int, Fraction, Q)):
        return MultiPoly.const(value)
    raise TypeError(f"cannot interpret {value!r} as a polynomial")


class RatFunc:
    """Quotient of two MultiPoly values, always reduced: each operation
    builds its unreduced result, (a*d + c*b)/(b*d) for a/b + c/d, and the
    constructor takes its one gcd and normalizes the denominator."""

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
        if self.den == _ONE:  # it equals its numerator, so hashes as it
            return hash(self.num)
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

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, _reduced=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

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

    def to_text(self) -> str:
        if self.den == _ONE:
            return self.num.to_text()
        return f"({self.num.to_text()})/({self.den.to_text()})"


def _pair(value) -> tuple:
    """A binding as the pair (N, D) of `poly.compose`, which checks N."""
    return (value.num, value.den) if isinstance(value, RatFunc) else (value, 1)


def substitute(p, bindings: Mapping[str, object]) -> RatFunc:
    """Compose a polynomial with rational functions (`poly.compose` over
    prod_v den_v^(deg_v p), reduced once).  Every variable of ``p`` must be
    bound; bindings may be RatFunc, MultiPoly or rational constants."""
    p = _coerce_poly(p)
    pairs = {v: _pair(bindings[v]) for v in p.vars}
    den = math.prod((d ** p.degree_in(v) for v, (_, d) in pairs.items()), start=_ONE)
    return RatFunc(compose(p, pairs), den)


def projective_form(funcs: Sequence[RatFunc]) -> list[MultiPoly]:
    """[X1, ..., Xn, W] with Xi/W = funcs[i]: W is the lcm of the
    denominators (1 when every function is a polynomial), and all entries
    are scaled by one rational to integer coefficients with gcd 1.  The
    entries have gcd 1 as well: an irreducible factor of W divides some
    denominator to its full power in W, and that numerator is prime to it."""
    W = _ONE
    for f in funcs:
        if not f.den.is_constant() and f.den != W:
            W = f.den if W == _ONE else W * exact_div(f.den, gcd_multi(W, f.den))
    return _primitive([f.num if f.den == W else f.num * exact_div(W, f.den) for f in funcs] + [W])


def _primitive(entries: list[MultiPoly]) -> list[MultiPoly]:
    """The entries times the one rational that makes their coefficients
    integers with gcd 1 and the leading coefficient of the last positive."""
    scaled = [_int_terms(e.terms) for e in entries]
    den = math.lcm(*(d for d, _ in scaled))
    g = 0
    for d, ints in scaled:
        for n in ints.values():
            g = math.gcd(g, n * (den // d))
    if entries[-1].leading()[1] < 0:
        g = -g
    if den == 1 and g == 1:
        return entries
    return [
        MultiPoly._make(e.vars, {k: n * (den // d) // g for k, n in ints.items()}) for e, (d, ints) in zip(entries, scaled)
    ]


class RationalMap3:
    """A map P = X/W of one or two parameters into space, stored as its
    canonical projective form ``form = (X1, X2, X3, W)`` (see the module
    docstring); ``components``, the reduced Xi/W, is computed on first use.

    ``RationalMap3(components, params)`` clears three rational functions
    with `projective_form`; ``RationalMap3.from_form(entries, params)``
    divides four polynomials by their gcd.  Every map is built by one of
    the two."""

    __slots__ = ("form", "params", "_components")

    def __init__(self, components: Sequence[RatFunc], params: Sequence[str]):
        comps = tuple(c if isinstance(c, RatFunc) else RatFunc(c) for c in components)
        if len(comps) != 3:
            raise ValueError("a space map needs exactly 3 components")
        self._store(projective_form(comps), params, comps)

    @classmethod
    def from_form(
        cls, entries: Sequence[MultiPoly], params: Sequence[str], *, _reduced=False, _components=None
    ) -> "RationalMap3":
        """The map X/W of the entries [X1, X2, X3, W], W nonzero.  A caller
        that has proven their gcd constant passes ``_reduced=True``, and
        the reduced components when it has them without a gcd."""
        entries = list(entries)
        if entries[3].is_zero():
            raise ZeroDivisionError("zero denominator polynomial")
        g = _ONE if _reduced else gcd_many(entries[3:] + entries[:3])
        if not g.is_constant():
            entries = [exact_div(e, g) for e in entries]
        m = object.__new__(cls)
        m._store(_primitive(entries), params, _components)
        return m

    def _store(self, form: list[MultiPoly], params: Sequence[str], comps) -> None:
        params = tuple(params)
        extra = set().union(*(e.vars for e in form)) - set(params)
        if extra:
            raise ValueError(f"component uses variables {sorted(extra)} outside parameters {params}")
        object.__setattr__(self, "form", tuple(form))
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "_components", comps)

    def __setattr__(self, *_):
        raise AttributeError("RationalMap3 is immutable")

    @property
    def components(self) -> tuple[RatFunc, RatFunc, RatFunc]:
        if self._components is None:
            *X, W = self.form
            object.__setattr__(self, "_components", tuple(RatFunc(x, W) for x in X))
        return self._components

    def __eq__(self, other):
        if not isinstance(other, RationalMap3):
            return NotImplemented
        return self.form == other.form and self.params == other.params

    def __hash__(self):
        return hash((self.form, self.params))

    def __repr__(self):
        return f"RationalMap3({self.to_text()}; params={self.params})"

    def to_text(self) -> str:
        return "(" + ", ".join(c.to_text() for c in self.components) + ")"

    def is_constant(self) -> bool:
        # X = c*W for a constant c makes W divide X, so W is constant
        return all(e.is_constant() for e in self.form)

    def derivative(self, var: str | None = None) -> "RationalMap3":
        """(X/W)' = (X'*W - X*W')/W^2."""
        v = var if var is not None else self.params[0]
        *X, W = self.form
        dW = W.derivative(v)
        if dW.is_zero():
            return RationalMap3.from_form([x.derivative(v) for x in X] + [W], self.params)
        return RationalMap3.from_form([x.derivative(v) * W - x * dW for x in X] + [W * W], self.params)

    def subs(self, bindings: Mapping[str, RatFunc], params: Sequence[str]) -> "RationalMap3":
        """Compose with rational functions of the new parameters; a
        parameter without a binding stays itself.  `poly.compose` clears
        each entry over the same denominator, prod_v den_v^(max deg_v of
        the entries)."""
        pairs = {v: _pair(bindings[v]) for v in self.params if v in bindings}
        caps = {v: max(e.degree_in(v) for e in self.form) for v in pairs}
        return RationalMap3.from_form([compose(e, pairs, caps) for e in self.form], params)

    def eval_all(self, bindings: Mapping[str, object]):
        """Exact point on the map, or None at a pole: a zero of W, which is
        a zero of some component's denominator."""
        *X, W = self.form
        w = W.eval_all(bindings)
        if w == 0:
            return None
        return tuple(x.eval_all(bindings) / w for x in X)

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


def _check_coords(p: MultiPoly, coords) -> None:
    extra = set(p.vars) - set(coords)
    if extra:
        raise KeyError(f"polynomial involves non-coordinate variables {sorted(extra)}")


def substitute_map(p: MultiPoly, map3: RationalMap3, coords=("x", "y", "z")) -> RatFunc:
    """Substitute a space map X/W into a polynomial in the given coordinates:
    N/W^d for d = deg p and N = p^h(X, W), decoded from the one Kronecker
    image that the substitution certificate tests (`_form_image`; its slots
    are whole bytes, so `poly._kronecker_det` reads them), then divided by
    p's integer denominator.  Nothing is expanded but W^d."""
    _check_coords(p, coords)
    if p.is_constant():
        return RatFunc(p)
    image, w, step, den = _form_image(p, coords, map3.form, map3.params)
    # slot k holds the coefficient of s^(k // step) * t^(k % step), or of t^k
    terms = _kronecker_det({0: image}, w, [image.bit_length() // w + 1, step])
    N = MultiPoly(map3.params, {e[1 : 1 + len(map3.params)]: Q(c, den) for e, c in terms.items()})
    return RatFunc(N, map3.form[-1] ** p.total_degree())


def _power_sum(terms: list, values: Sequence[int], caps: Sequence[int]) -> int:
    """sum c * prod_i values[i]^e_i over the terms (e, c), e_i <= caps[i],
    each power computed once."""
    pows = []
    for x, cap in zip(values, caps):
        pw = [1]
        for _ in range(cap):
            pw.append(pw[-1] * x)
        pows.append(pw)
    acc = 0
    for exps, c in terms:
        for pw, e in zip(pows, exps):
            c *= pw[e]
        acc += c
    return acc


def _form_is_zero(p: MultiPoly, names: Sequence[str], form: Sequence[MultiPoly], params: Sequence[str]) -> bool:
    """Certified exact test that p vanishes identically on X/W, for a
    projective form [X1, ..., Xn, W] of integer polynomials in 1 or 2
    parameters, W nonzero and Xi standing for names[i], without expanding
    the composition.

    For d = deg p, p(X/W) = N/W^d with N = sum_e c_e * X^e * W^(d - |e|)
    the homogenization of p at (X, W), so p(X/W) == 0 exactly when N == 0.
    p is scaled to integer coefficients c_e over one denominator, which
    multiplies N by a nonzero integer.  As |fg|_1 <= |f|_1 * |g|_1, every
    coefficient of N is at most B = sum_e |c_e| * prod_i |Xi|_1^e_i *
    |W|_1^(d - |e|) in absolute value.  N is evaluated once, in Python
    ints, at the Kronecker point t = T for the last parameter t and, with
    two parameters (s, t), s = T^(D_t + 1), for T = 2^w, w = bit_length(B)
    + 1 in whole bytes, and D_t = d * max deg_t of W and of the Xi that p
    involves, which bounds deg_t N (`_form_image`).  That makes N(T) a
    polynomial in T whose coefficients a_k are exactly N's.
    If N != 0, its lowest nonzero coefficient a_m has 0 < |a_m| <= B < T,
    while N(T) = a_m * T^m mod T^(m + 1); so N(T) = 0 exactly when N = 0.
    There is no sampling uncertainty.
    """
    if p.is_constant():
        return p.is_zero()
    return _form_image(p, names, form, params)[0] == 0


def _form_image(p: MultiPoly, names: Sequence[str], form: Sequence[MultiPoly], params: Sequence[str]):
    """(N(T), w, step, den) for the nonconstant p: N, T and w as in
    `_form_is_zero`, step the slots per unit of the first parameter (D_t + 1
    for two, 1 for one) and den the denominator of p's integer coefficients
    c_e, so that `poly._kronecker_det` decodes N(T)."""
    if len(params) not in (1, 2):
        raise ValueError("the substitution certificate supports 1 or 2 parameters")
    d = p.total_degree()
    entries = [form[names.index(v)] for v in p.vars] + [form[-1]]
    for e in entries:
        for v in e.vars:
            if v not in params:
                raise KeyError(f"unbound variable {v!r}")
    den, coeffs = _int_terms(p.terms)
    terms = [(exps + (d - sum(exps),), c) for exps, c in coeffs.items()]
    caps = [max(col) for col in zip(*(exps for exps, _ in terms))]
    norms = [sum(map(abs, e.terms.values())) for e in entries]
    w = (_power_sum([(exps, abs(c)) for exps, c in terms], norms, caps).bit_length() + 8) // 8 * 8
    # bits per unit of exponent: t = T = 2^w and s = T^(D_t + 1)
    bits = {params[-1]: w}
    if len(params) == 2:
        bits[params[0]] = w * (d * max(e.degree_in(params[1]) for e in entries) + 1)
    images = []
    for e in entries:
        place = [bits[v] for v in e.vars]
        images.append(sum(n << sum(b * k for b, k in zip(place, exps)) for exps, n in e.terms.items()))
    return _power_sum(terms, images, caps), w, bits[params[0]] // w, den


def substitute_map_is_zero(p: MultiPoly, map3: RationalMap3, coords=("x", "y", "z")) -> bool:
    """Exact zero test for p composed with a space map: `_form_is_zero`
    on its stored form, with the one denominator W."""
    _check_coords(p, coords)
    return _form_is_zero(p, coords, map3.form, map3.params)
