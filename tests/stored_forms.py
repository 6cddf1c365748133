"""Stored-form check shared by the coefficient tests.

While the reference surfaces of cases.py go through the CLI and a few
kernel operations run on rational coefficients, every MultiPoly built is
inspected, through each constructor (the public one, the trusted
``MultiPoly._make`` and ``poly._trimmed`` wherever it is bound), for the
whole canonical form: no zero coefficient, each stored coefficient a
Python ``int`` or a non-integral ``Q``, the variables strictly increasing
under ``var_sort_key``, each of positive degree in some term, and every
exponent tuple as long as the variable tuple.  The value accessors must
return a ``Q``.  Every
RationalMap3 built on the way is inspected too: its stored form
[X1 : X2 : X3 : W] must hold Python ``int`` coefficients with gcd 1,
entries with gcd 1, and W with a positive leading coefficient.

``check()`` runs in-process.  Run as a script, ``python stored_forms.py``
prints the coefficient type and exits 0 when the check passes; the tests
run it that way under gmpy2's mpq, or under the stand-in in gmpy2_stub/.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from devsurf.cli import main as cli_main
from devsurf import poly
from devsurf.poly import MultiPoly, Q, bordered_hessian, det3, exact_div, gcd_many, gcd_multi, resultant, var_sort_key
from devsurf.ratfunc import RationalMap3

import cases

IMPLICIT = (cases.ELLIPTIC_CONE_F, cases.QUARTIC_CYLINDER_F, cases.TANGENT_QUARTIC_F, cases.SPHERE_F,
            cases.HYPERBOLOID_F)
PARAMETRIC = (cases.IMPROPER_CONE_MAP, cases.UNIT_CIRCLE_CONE_MAP, cases.HYPERBOLIC_PARABOLOID_MAP,
              cases.PARABOLOID_MAP, cases.PLANE_MAP)
EXIT_CODES = [0, 0, 0, 3, 3, 0, 0, 3, 3, 0]


def assert_stored(p: MultiPoly) -> None:
    """p is in canonical form, as the module docstring lists it."""
    for c in p.terms.values():
        assert c != 0 and (type(c) is int or type(c) is Q and c.denominator != 1), (p.vars, p.terms)
    keys = list(map(var_sort_key, p.vars))
    assert all(a < b for a, b in zip(keys, keys[1:])), p.vars
    assert all(len(e) == len(p.vars) for e in p.terms), (p.vars, p.terms)
    assert all(any(e[i] for e in p.terms) for i in range(len(p.vars))), (p.vars, p.terms)


def assert_stored_map(m: RationalMap3) -> None:
    coeffs = [c for e in m.form for c in e.terms.values()]
    assert all(type(c) is int for c in coeffs), m.form
    assert math.gcd(*coeffs) == 1 and m.form[3].leading()[1] > 0, m.form
    assert gcd_many(m.form).is_constant(), m.form


def assert_q(value) -> None:
    assert type(value) is Q, repr(value)


def _kernel_values() -> list:
    """Results of the kernel operations that read rational coefficients
    through their numerators and denominators, checked as they go."""
    x, y, t = (MultiPoly.var(v) for v in "xyt")
    a = x * Q(1, 2) + y * Q(2, 3) + 1
    b = x * y * Q(3, 4) - t * 2 + Q(5, 6)
    c = x * 3 + y * 6 - t * 9
    F = x * x * Q(1, 2) + y * y * Q(2, 3) - t * t
    polys = [a * b, a * c, (a * b).normalized(), gcd_multi(a * b, a * c), exact_div(a * b, a),
             exact_div(c * b, c), (a * b).eval_partial({"x": Q(1, 3), "y": 2}), bordered_hessian(F, "xyt"),
             det3([[a, b, c], [c, a, b], [b, c, a]]), resultant(a * x + b, c * x - a, "x"),
             (a * Q(6)).derivative("x")]
    for p in polys:
        assert_stored(p)
    values = [(a * b).eval_all({"x": Q(1, 3), "y": Q(-2), "t": Q(7, 5)}), c.content_unit(), a.content_unit(),
              MultiPoly.const(Q(4, 2)).constant_value(), a.coeff({"x": 1}), c.coeff({"y": 1}), c.coeff({"z": 1})]
    for v in values:
        assert_q(v)
    return polys + values


def check() -> int:
    """Run the whole check; the number of polynomials inspected."""
    seen, maps, calls = [], [], {"_make": 0, "__init__": 0, "_trimmed": 0}
    make, init, trimmed, store = MultiPoly._make, MultiPoly.__init__, poly._trimmed, RationalMap3._store
    # every module that binds _trimmed under that name calls the spy
    homes = [m for name, m in sys.modules.items() if name.startswith("devsurf.") and vars(m).get("_trimmed") is trimmed]

    def spy_make(variables, terms):
        p = make(variables, terms)
        assert_stored(p)
        seen.append(p)
        calls["_make"] += 1
        return p

    def spy_init(self, variables, terms):
        init(self, variables, terms)
        assert_stored(self)
        seen.append(self)
        calls["__init__"] += 1

    def spy_trimmed(variables, terms):
        p = trimmed(variables, terms)
        assert_stored(p)
        calls["_trimmed"] += 1
        return p

    def spy_store(self, form, params, comps):
        store(self, form, params, comps)
        assert_stored_map(self)
        maps.append(self)

    MultiPoly._make = staticmethod(spy_make)
    MultiPoly.__init__ = spy_init
    for m in homes:
        m._trimmed = spy_trimmed
    RationalMap3._store = spy_store
    try:
        _kernel_values()
        codes = []
        for mode, texts in (("implicit", IMPLICIT), ("parametric", PARAMETRIC)):
            for text in texts:
                with contextlib.redirect_stdout(io.StringIO()):
                    codes.append(cli_main([mode, text]))
        assert codes == EXIT_CODES, codes
        assert len(maps) > 10, len(maps)
        assert all(calls.values()), calls
    finally:
        MultiPoly._make = staticmethod(make)
        MultiPoly.__init__ = init
        for m in homes:
            m._trimmed = trimmed
        RationalMap3._store = store
    return len(seen)


if __name__ == "__main__":
    count = check()
    print(f"{Q.__module__}.{Q.__name__}: {count} polynomials, stored forms ok")
