#!/usr/bin/env python3
"""A quartic cylinder: ruling direction from exact linear algebra, profile
curve parametrized by adjoint conics through its three double points.

The profile quartic has no rational triple point, so the pencil-of-lines
trick cannot work; the adjoint construction handles the (possibly
conjugate) double points without ever computing their coordinates.
"""

from devsurf import (
    MultiPoly,
    RatFunc,
    analyze_implicit,
    detect_ruling_direction,
    parse_poly,
    parametrize_quartic_adjoint,
    print_map,
    print_poly,
    print_ratfunc,
    section_implicit,
    verify_on_surface,
)

F = parse_poly(
    "x^4+4*x^3*y+6*x^2*y^2+4*x*y^3+y^4-10*x^3-27*x^2*y-3*x^2*z-18*x*y^2"
    "-18*x*y*z+6*x*z^2-2*y^3-12*y^2*z+3*y*z^2+z^3+16*x^2+8*x*y+24*x*z"
    "+16*y^2-24*y*z+24*z^2+64*x-32*y+96*z",
    ("x", "y", "z"),
)
print("surface degree:", F.total_degree())

status, direction = detect_ruling_direction(F)
print("ruling direction (kernel of the gradient coefficients):", direction)

section = section_implicit(F, MultiPoly.var("x"))
print("profile curve in the plane x = 0:")
print("   ", print_poly(section.poly))

cp = parametrize_quartic_adjoint(section)
U, V, W = cp.form  # the profile's coordinates are U/W and V/W
print("adjoint parametrization of the profile (proper:", cp.proper, "):")
print("   ", cp.names[0], "=", print_ratfunc(RatFunc(U, W)))
print("   ", cp.names[1], "=", print_ratfunc(RatFunc(V, W)))

analysis = analyze_implicit(F)
result = analysis.parametrization
print()
print("classification:", analysis.classification.tag, analysis.classification.direction)
print("P(s,t) =", print_map(result.full_map()))
print("exact verification:", verify_on_surface(result, F))
