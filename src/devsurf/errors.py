"""Error types shared across the analyzers."""

from __future__ import annotations


class DevsurfError(Exception):
    """Base class for analysis failures."""


class DegenerateInputError(DevsurfError):
    """The input does not describe a genuine surface (for example a map
    whose image is a curve or a point)."""


class UnsupportedCurveError(DevsurfError):
    """The plane curve falls outside the supported parametrization
    families (line, conic with a rational point, curve with a rational
    (d-1)-fold point, quartic with three double points)."""


class PointSearchExhaustedError(DevsurfError):
    """A rational point exists, or its existence was not decided, and the
    bounded point search missed it.  Distinct from provable
    non-rationality."""


class NotRationalError(DevsurfError):
    """Provably no parametrization over the rationals exists: a conic
    without a rational point (no real point, or a failed condition of
    Legendre's theorem), or a plane curve of degree d >= 3 proven smooth,
    hence of genus (d-1)(d-2)/2 > 0."""
