"""Reference surfaces of the test suite (tests/cases.py), copied so that a
change to the tests cannot change the benchmark's input."""

ELLIPTIC_CONE_F = '4*x^2 + 9*y^2 - 4*x - 6*y - z^2 + 2'
QUARTIC_CYLINDER_F = 'x^4+4*x^3*y+6*x^2*y^2+4*x*y^3+y^4-10*x^3-27*x^2*y-3*x^2*z-18*x*y^2-18*x*y*z+6*x*z^2-2*y^3-12*y^2*z+3*y*z^2+z^3+16*x^2+8*x*y+24*x*z+16*y^2-24*y*z+24*z^2+64*x-32*y+96*z'
TANGENT_QUARTIC_F = '11+16*z-12*y-36*x-4*z^2-48*y*z+12*y^2-36*x*z+36*x*y+42*x^2+48*y^2*z+72*x*y*z-24*x*y^2+24*x^2*z-36*x^2*y-20*x^3-32*z*y^3-48*y^2*z*x-24*z*y*x^2+12*x^2*y^2-4*z*x^3+12*x^3*y+3*x^4'
IMPROPER_CONE_MAP = '( (4*s^2+t+1-2*s+t^2+2*t*s)/(1-2*t-2*s+t^2+2*t*s+s^2), (6*t*s^2+7*t^2+6*s^3+8*t*s-s^2-4*t+1-2*s)/(1-2*t-2*s+t^2+2*t*s+s^2), (t^2*s^2+2*t*s^3+6*t*s^2+t^3+2*t^2*s+5*t^2+s^4+5*s^3+5*t*s)/(1-2*t-2*s+t^2+2*t*s+s^2) )'
UNIT_CIRCLE_CONE_MAP = '( s*(1-t^2)/(1+t^2), s*2*t/(1+t^2), s )'
SPHERE_F = 'x^2 + y^2 + z^2 - 1'
HYPERBOLOID_F = 'x^2 + y^2 - z^2 - 1'
HYPERBOLIC_PARABOLOID_MAP = '(s, t, s*t)'
PARABOLOID_MAP = '(s, t, s^2 + t^2)'
