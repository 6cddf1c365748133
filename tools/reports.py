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
When two commits
print the same text, they agree on every exit code, classification,
apex, direction, printed K, parametrization, implicit equation and
failure text of the benchmark inputs.  perfbench/gen.py is imported as
it is, so sympy is needed, as for the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import cases  # noqa: E402
import devsurf.cli  # noqa: E402
import gen  # noqa: E402

WORKLOADS = ("implicit-roundtrip", "parametric-roundtrip", "reject", "unsupported")
DEFAULT_SEEDS = (20260811, 4242, 1)
EXTRA = (
    ("TANGENT_DEV_MAP", ["parametric", cases.TANGENT_DEV_MAP]),
    ("(x+y+z+1)^8+x", ["implicit", "(x+y+z+1)^8+x"]),
    ("fractional quadric", ["implicit", "6/5*x^2 + 12/5*y*z - 18/5*z^2 + 3/5*x - 6/5"]),
    ("cylinder free of z", ["implicit", "x^2 + 4*y^2 - 1"]),
    ("plane", ["implicit", "2*x - 3*y + z/5 - 7"]),
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
