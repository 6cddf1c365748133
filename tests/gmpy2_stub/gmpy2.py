"""A stand-in for gmpy2's ``mpq`` and ``mpz``, for hosts without gmpy2.

It keeps the two properties of gmpy2 that the coefficient code must
survive: an mpq reads its numerator and denominator as mpz, and arithmetic
on mpz stays mpz, except true division, which gives a float (gmpy2 gives
an mpfr).  Unlike the real mpz, this one is an ``int`` subclass, so only a
``type(c) is int`` test tells it apart.  Arithmetic on mpq gives mpq.
Put this directory first on ``sys.path`` to import devsurf over it.
"""

from fractions import Fraction

__all__ = ["mpq", "mpz"]


class mpz(int):
    def __repr__(self):
        return f"mpz({int(self)})"


def _closed_z(name):
    op = getattr(int, name)

    def method(self, *args):
        r = op(self, *args)
        if type(r) is int:
            return mpz(r)
        if type(r) is tuple:
            return tuple(mpz(x) for x in r)
        return r

    return method


for _name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__floordiv__",
              "__rfloordiv__", "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__",
              "__neg__", "__pos__", "__abs__", "__lshift__", "__rshift__"):
    setattr(mpz, _name, _closed_z(_name))


class mpq(Fraction):
    __slots__ = ()

    @property
    def numerator(self):
        return mpz(self._numerator)

    @property
    def denominator(self):
        return mpz(self._denominator)

    def __repr__(self):
        return f"mpq({self._numerator},{self._denominator})"


def _closed_q(name):
    op = getattr(Fraction, name)

    def method(self, *args):
        r = op(self, *args)
        return mpq(r) if isinstance(r, Fraction) else r

    return method


for _name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
              "__rtruediv__", "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__", "__mod__", "__rmod__"):
    setattr(mpq, _name, _closed_q(_name))
