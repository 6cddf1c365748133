"""Print the CLI report of every benchmark input, without its timings.

Usage (from the repository root)::

    python3 tools/reports.py [SEED ...]

For each seed (default 20260811, 4242 and 1) and each workload of
perfbench/gen.py, every input is given to ``devsurf.cli.main``
in-process, and one line is printed per input: the workload, the case
name and the JSON report with ``timings_ms`` removed.  After the seeded
workloads, the reports of a few fixed inputs that no workload holds are
printed once, under the workload name ``extra``: the tangent surface
``TANGENT_DEV_MAP`` of tests/cases.py (the two-parameter certificate of
a parametric input), the cylinder (x+y+z+1)^8 + x (a large
one-parameter certificate), and three inputs whose bordered Hessian
misses a path of the seeded ones: a non-developable quadric with a
fractional, non-primitive equation, a cylinder free of z and a plane.
Then two cones whose sections are proven smooth (a cubic and a quartic),
and a degree-10 cone map of tracing index 2 whose proper quintic
projection is singular and outside the plane-curve families.  Last, three
maps whose first parameter lines the parametric section skips: a quintic
cone whose line s = 0 is its apex and whose line t = 0 is a ruling, a
rational cone whose line s = 0 is a pole and whose line t = 0 lies in the
plane through the apex parallel to the section, and a rational cylinder
whose line s = 0 is a pole and whose line t = 0 is a ruling.  Then two
implicit cones for the integer plane tests: one with the fractional apex
(1/2, 1/2, 1/2), and one times the plane x - z through its apex, whose
sections by the planes x - z = c lose a degree and come first.  Then
the cone x^2 + y^2 - 2000009000009 z^2, whose coefficient is 1000003 *
2000003: both factors lie past the trial division of the factoring
behind Legendre's theorem, so Pollard rho splits the product and the
primality test proves both factors prime, before -1 is found to be no
square modulo 1000003 and the conic to have no rational point.  Last,
the cubic cone y^2 z = x^3 + P x z^2 + P z^3 for P = 2^61 - 1: its
section is smooth over Q but cuspidal mod P, so the genus certificate
proves it smooth modulo the second prime.  Then two non-developable
inputs with 20-digit coefficients, whose determinants need Kronecker
slots wider than 64 bits: a dense quartic surface, every monomial of
degree at most 4 with signs alternating in the degree, and a ruled map.
Last, two inputs that are not squarefree, so that ``squarefree_part``
declines its line-image certificate and takes the gcd: the squared
elliptic cone, whose verdict and parametrization are those of the cone,
and a squared cone times a plane.  Last, two ``verify`` calls, whose
exact_zero the substitution certificate decides: README's matching pair
(a cone and its rational parametrization), and the same cone against a
map whose components have the distinct denominators t^2 + 1 and t + 1,
which prints its nonzero residue over the one denominator of the stored
form.  Last, two parametric maps that the round-trip workloads, which
refine only polynomial edges, do not hold: the tangent surface of the
rational edge (t, t^2, t^3)/(t^2 + 1), whose directrix refinement
divides on forms X/W and Y/V with W and V both nonconstant, and a
cylinder map whose components the parser adds over the distinct
denominators t + 1 and t^2 + 1.  When two commits print the same text, they agree on every exit
code, classification, apex, direction, printed K, parametrization,
implicit equation, failure text and verify residue of these inputs.  perfbench/gen.py is imported as it is, so sympy is needed, as
for the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import cases  # noqa: E402
import devsurf.cli  # noqa: E402
import gen  # noqa: E402

# the tangent surface of the edge t -> (t, t^2, t^3)/(t^2 + 1)
RATIONAL_EDGE_TANGENT_MAP = (
    "( -(s*t^2 - s - t^3 - t)/(t^2 + 1)^2, t*(2*s + t^3 + t)/(t^2 + 1)^2, "
    "t^2*(s*t^2 + 3*s + t^3 + t)/(t^2 + 1)^2 )"
)
WORKLOADS = ("implicit-roundtrip", "parametric-roundtrip", "reject", "unsupported")
DEFAULT_SEEDS = (20260811, 4242, 1)
EXTRA = (
    ("TANGENT_DEV_MAP", ["parametric", cases.TANGENT_DEV_MAP]),
    ("(x+y+z+1)^8+x", ["implicit", "(x+y+z+1)^8+x"]),
    ("fractional quadric", ["implicit", "6/5*x^2 + 12/5*y*z - 18/5*z^2 + 3/5*x - 6/5"]),
    ("cylinder free of z", ["implicit", "x^2 + 4*y^2 - 1"]),
    ("plane", ["implicit", "2*x - 3*y + z/5 - 7"]),
    ("smooth cubic cone", ["implicit", "x^3+y^3-2*z^3"]),
    ("smooth quartic cone", ["implicit", "x^4+y^4-z^4"]),
    ("degree-10 index-2 cone map", ["parametric", "(s*(t^10+2*t^2+1), s*(t^8-3*t^4+2), s*(t^6+t^2+5))"]),
    ("translated quintic cone map", ["parametric", "(s*(t^5+2*t+1)+1, s*(t^4-3*t^2+2)+2, s*(t^3+t+5)-1)"]),
    ("rational cone map", ["parametric", "(1 + t/s, 2 + (t^2+1)/s, -1 + (t^2-t+2)/s)"]),
    ("rational cylinder map", ["parametric", "((t^2+1)/(t+2) + 1/s, t/(t+2) + 2/s, (t^2-3)/(t+2) - 1/s)"]),
    ("cone with apex (1/2, 1/2, 1/2)", ["implicit", "(2*x-1)^2+(2*y-1)^2-(2*z-1)^2"]),
    ("cone times a plane through its apex", ["implicit", "(x^2+y^2-z^2)*(x-z)"]),
    ("cone over a conic with no rational point", ["implicit", "x^2+y^2-2000009000009*z^2"]),
    ("cubic cone of bad reduction at 2^61 - 1",
     ["implicit", "y^2*z - x^3 - 2305843009213693951*x*z^2 - 2305843009213693951*z^3"]),
    ("dense quartic with 20-digit coefficients", ["implicit", " ".join(
        f"{'-' if sum(e) % 2 else '+'} {31415926535897932384 + 2718281828459045235 * i}"
        + "".join(f"*{v}^{k}" for v, k in zip("xyz", e) if k)
        for i, e in enumerate(e for e in itertools.product(range(5), repeat=3) if sum(e) <= 4)
    )]),
    ("ruled map with 20-digit coefficients",
     ["parametric", "(s*(t^2 + 123456789012345678901) + t, 98765432109876543210*s*t + t^2, s*t^2 - 55555555555555555555*t^3 + s)"]),
    ("squared elliptic cone", ["implicit", "(4*x^2 + 9*y^2 - 4*x - 6*y - z^2 + 2)^2"]),
    ("squared cone times a plane", ["implicit", "(x^2+y^2-z^2)^2*(x+y+2)"]),
    ("verify README's cone", ["verify", "x^2+y^2-z^2", "( s*(1-t^2)/(1+t^2), s*2*t/(1+t^2), s )"]),
    ("verify residue over distinct denominators", ["verify", "x^2+y^2-z^2", "( s*(1-t^2)/(1+t^2), s*2*t/(1+t), s )"]),
    ("tangent surface of a rational edge", ["parametric", RATIONAL_EDGE_TANGENT_MAP]),
    ("cylinder map added over distinct denominators",
     ["parametric", "( 1/(t+1) + t/(t^2+1) + s, t/(t+1) - 2/(t^2+1) + 2*s, 3/(t+1) + s )"]),
)


def report_lines(argv: list[str]) -> list[str]:
    """The reports of one CLI call as JSON lines, timings removed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        devsurf.cli.main(argv)
    lines = []
    for line in buf.getvalue().splitlines():
        report = json.loads(line)
        report.pop("timings_ms", None)
        lines.append(json.dumps(report))
    return lines


def main(argv=None) -> int:
    seeds = [int(a) for a in (sys.argv[1:] if argv is None else argv)] or list(DEFAULT_SEEDS)
    for seed in seeds:
        print(f"# seed {seed}")
        for name in WORKLOADS:
            for case in gen.workload(name, seed):
                for line in report_lines(case.argv()):
                    print(f"{name}\t{case.name}\t{line}", flush=True)
    print("# extra")
    for case_name, case_argv in EXTRA:
        for line in report_lines(case_argv):
            print(f"extra\t{case_name}\t{line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
