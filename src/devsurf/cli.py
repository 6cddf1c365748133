"""Command-line interface.

Subcommands:

* ``devsurf implicit <expr|file>``    analyze an implicit surface F(x, y, z)
* ``devsurf parametric <expr|file>``  analyze a rational map P(s, t)
* ``devsurf verify <F> <P>``          exact substitution check
* ``devsurf mesh <P> --s a:b --t a:b --res N``  sample a map to a mesh

Reports are single JSON documents on stdout (``--pretty`` switches to a
human-readable rendering).  Exit codes: 0 rational developable surface
with a verified parametrization, 1 input error, 2 developable but
unsupported / not rational / degenerate input, 3 not developable,
4 verification mismatch, 5 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction
from typing import Optional

from .arith import decimal
from .errors import DevsurfError
from .exprs import ParseError, parse_map, parse_poly, print_map, print_poly, print_ratfunc
from .implicit import NOT_DEVELOPABLE, analyze_implicit
from .parametric import analyze_parametric
from .ratfunc import substitute_map, substitute_map_is_zero

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNSUPPORTED = 2
EXIT_NOT_DEVELOPABLE = 3
EXIT_VERIFY_FAILED = 4
EXIT_INTERNAL = 5


def _read_source(value: str) -> str:
    if os.path.isfile(value):
        with open(value, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    return value


def _classification_dict(cls) -> dict:
    return {
        "tag": cls.tag,
        "apex": [decimal(a) for a in cls.apex] if cls.apex is not None else None,
        "direction": [decimal(d) for d in cls.direction] if cls.direction is not None else None,
        "edge_system": [print_poly(p) for p in cls.edge_system] if cls.edge_system else None,
        "note": cls.note,
    }


def _param_dict(result) -> Optional[dict]:
    if result is None:
        return None
    return {
        "kind": result.kind,
        "p0": print_map(result.p0),
        "p1": print_map(result.p1),
        "surface_map": print_map(result.full_map()),
        "refined": result.refined,
        "verified": result.verified,
    }


def _render_pretty(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    if "error" in report:
        lines.append(f"input: {report.get('input', '')}")
        lines.append(f"error: {report['error']}")
        lines.append(f"exit code: {report['exit_code']}")
        return "\n".join(lines)
    lines.append(f"input: {report['input']}")
    cls = report["classification"]
    lines.append(f"classification: {cls['tag']}")
    if cls.get("apex"):
        lines.append(f"  apex: ({', '.join(cls['apex'])})")
    if cls.get("direction"):
        lines.append(f"  ruling direction: ({', '.join(cls['direction'])})")
    if cls.get("edge_system"):
        lines.append("  cuspidal edge system:")
        for p in cls["edge_system"]:
            lines.append(f"    {p} = 0")
    if cls.get("note"):
        lines.append(f"  note: {cls['note']}")
    lines.append(f"developability form: {report['k_poly']}")
    param = report.get("parametrization")
    if param:
        lines.append(f"parametrization ({param['kind']}, verified={param['verified']}):")
        lines.append(f"  P0(t) = {param['p0']}")
        lines.append(f"  P1(t) = {param['p1']}")
        lines.append(f"  P(s,t) = {param['surface_map']}")
    if report.get("implicit_equation"):
        lines.append(f"implicit equation of rebuilt surface: {report['implicit_equation']} = 0")
    lines.append(f"verification: {report['verification']}")
    if report.get("failure"):
        lines.append(f"failure: {report['failure']}")
    lines.append(f"exit code: {report['exit_code']}")
    return "\n".join(lines)


def _emit(report: dict, pretty: bool) -> None:
    if pretty:
        print(_render_pretty(report))
    else:
        print(json.dumps(report))


def _analyze_source(kind: str, src: str, args) -> dict:
    implicit = kind == "implicit"
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    if implicit:
        surface = parse_poly(src, allowed_vars=("x", "y", "z"))
        if surface.is_constant():
            raise ParseError("implicit surface polynomial is constant", 1, 1)
    else:
        surface = parse_map(src, params=("s", "t"))
    timings["parse_ms"] = round((time.perf_counter() - t0) * 1000, 3)
    t0 = time.perf_counter()
    analysis = (analyze_implicit if implicit else analyze_parametric)(
        surface,
        plane_budget=args.plane_budget,
        point_budget=args.point_search_budget,
        refine=not args.no_refine,
    )
    timings["analyze_ms"] = round((time.perf_counter() - t0) * 1000, 3)
    cls = analysis.classification
    if cls.tag == NOT_DEVELOPABLE:
        code = EXIT_NOT_DEVELOPABLE
        verification = "K(x, y, z) does not vanish on the surface" if implicit else "K(s, t) is not identically zero"
    elif analysis.parametrization is not None:
        code = EXIT_OK
        verification = analysis.parametrization.certificate
    else:
        code = EXIT_UNSUPPORTED
        verification = f"developable, but no rational {'' if implicit else 're'}parametrization was produced"
    equation = None if implicit else analysis.implicit_equation
    return {
        "command": kind,
        "input": print_poly(surface) if implicit else print_map(surface),
        "classification": _classification_dict(cls),
        "k_poly": print_poly(analysis.k_poly) if implicit else print_ratfunc(analysis.k_func),
        "parametrization": _param_dict(analysis.parametrization),
        "implicit_equation": None if equation is None else print_poly(equation),
        "verification": verification,
        "failure": analysis.failure,
        "exit_code": code,
        "timings_ms": timings,
    }


def _run_one(kind: str, src: str, args) -> dict:
    try:
        return _analyze_source(kind, src, args)
    except ParseError as err:
        error, code = str(err), EXIT_INPUT
    except DevsurfError as err:
        error, code = str(err), EXIT_UNSUPPORTED
    except Exception as err:  # a fault in devsurf itself, never a verdict
        import traceback  # only on this path: keeps start-up lean

        traceback.print_exc()
        error, code = f"internal error: {type(err).__name__}: {err}", EXIT_INTERNAL
    return {"command": kind, "input": src, "error": error, "exit_code": code, "timings_ms": {}}


def _cmd_analyze(kind: str, args) -> int:
    for flag, value, least in (
        ("--plane-budget", args.plane_budget, 1),
        ("--point-search-budget", args.point_search_budget, 0),
        ("--jobs", args.jobs, 1),
    ):
        if value < least:
            error = f"{flag} must be at least {least}, got {value}"
            _emit({"command": kind, "error": error, "exit_code": EXIT_INPUT}, args.pretty)
            return EXIT_INPUT
    sources = [_read_source(v) for v in args.source]
    # fork starts every worker on the first submit: never more than can run
    workers = min(args.jobs, len(sources), os.cpu_count() or 1) if args.jobs > 1 else 1
    if workers > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(functools.partial(_run_one, kind, args=args), sources))
    else:
        reports = [_run_one(kind, src, args) for src in sources]
    code = 0
    for report in reports:
        _emit(report, args.pretty)
        code = max(code, report["exit_code"])
    return code


def _input_error(command: str, error: str) -> int:
    print(json.dumps({"command": command, "error": error, "exit_code": EXIT_INPUT}))
    return EXIT_INPUT


def _cmd_verify(args) -> int:
    try:
        F = parse_poly(_read_source(args.surface), allowed_vars=("x", "y", "z"))
        src = _read_source(args.parametrization)
        P = parse_map(src, params=("s", "t"))
    except ParseError as err:
        return _input_error("verify", str(err))
    # a mismatch decodes its residue from the certificate's image
    ok = substitute_map_is_zero(F, P)
    report = {
        "command": "verify",
        "surface": print_poly(F),
        "parametrization": print_map(P),
        "exact_zero": ok,
        "residue": "0" if ok else print_ratfunc(substitute_map(F, P)),
        "exit_code": EXIT_OK if ok else EXIT_VERIFY_FAILED,
    }
    _emit(report, args.pretty)
    return report["exit_code"]


def _parse_range(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"range must look like a:b, got {text!r}")
    lo, hi = Fraction(parts[0]), Fraction(parts[1])
    if lo >= hi:
        raise ValueError("range lower bound must be below the upper bound")
    return lo, hi


def _cmd_mesh(args) -> int:
    try:
        P = parse_map(_read_source(args.parametrization), params=("s", "t"))
        s_lo, s_hi = _parse_range(args.s)
        t_lo, t_hi = _parse_range(args.t)
        if args.res < 1:
            raise ValueError("resolution must be a positive integer")
    except (ParseError, ValueError) as err:
        return _input_error("mesh", str(err))
    n = args.res
    index = {}
    vertices = []
    skipped = 0
    for i in range(n):
        sval = s_lo if n == 1 else s_lo + (s_hi - s_lo) * Fraction(i, n - 1)
        for j in range(n):
            tval = t_lo if n == 1 else t_lo + (t_hi - t_lo) * Fraction(j, n - 1)
            pt = P.eval_all({"s": sval, "t": tval})
            if pt is None:
                skipped += 1
                continue
            index[(i, j)] = len(vertices) + 1
            vertices.append(pt)
    if not vertices:
        print(json.dumps({"command": "mesh", "error": "every grid point hits a pole", "exit_code": EXIT_UNSUPPORTED}))
        return EXIT_UNSUPPORTED
    lines = [f"# devsurf mesh: {len(vertices)} vertices, {skipped} pole skips"]
    try:
        lines += ["v " + " ".join(format(float(v), ".12g") for v in pt) for pt in vertices]
    except OverflowError as err:
        return _input_error("mesh", f"a vertex coordinate is outside the float range: {err}")
    faces = 0
    for i in range(n - 1):
        for j in range(n - 1):
            corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
            if all(c in index for c in corners):
                lines.append("f " + " ".join(str(index[c]) for c in corners))
                faces += 1
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            return _input_error("mesh", f"cannot write {args.out}: {err.strerror or err}")
        print(
            json.dumps(
                {
                    "command": "mesh",
                    "vertices": len(vertices),
                    "faces": faces,
                    "pole_skips": skipped,
                    "out": args.out,
                    "exit_code": EXIT_OK,
                }
            )
        )
    else:
        sys.stdout.write(text)
        if skipped:
            print(f"# warning: {skipped} grid points hit poles", file=sys.stderr)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse with bad arguments as an input error: exit 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache  # built on the first call, reused by every later main()
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="devsurf",
        description="Exact developability analysis and rational parametrization of algebraic surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--pretty", action="store_true", help="human-readable report instead of JSON")
        p.add_argument("--plane-budget", type=int, default=35, help="number of candidate section planes")
        p.add_argument(
            "--point-search-budget", type=int, default=200, help="rational point search sweep budget"
        )
        p.add_argument("--no-refine", action="store_true", help="skip directrix degree reduction")
        p.add_argument("--jobs", type=int, default=1, help="parallel workers for multiple inputs")

    p_imp = sub.add_parser("implicit", help="analyze an implicit surface F(x, y, z)")
    p_imp.add_argument("source", nargs="+", help="polynomial expression or file")
    add_common(p_imp)

    p_par = sub.add_parser("parametric", help="analyze a rational parametrization P(s, t)")
    p_par.add_argument("source", nargs="+", help="rational map expression or file")
    add_common(p_par)

    p_ver = sub.add_parser("verify", help="check a parametrization against an implicit surface")
    p_ver.add_argument("surface", help="implicit polynomial expression or file")
    p_ver.add_argument("parametrization", help="rational map expression or file")
    p_ver.add_argument("--pretty", action="store_true")

    p_mesh = sub.add_parser("mesh", help="sample a rational map to a vertex/face mesh")
    p_mesh.add_argument("parametrization", help="rational map expression or file")
    p_mesh.add_argument("--s", required=True, help="s range a:b (rationals)")
    p_mesh.add_argument("--t", required=True, help="t range a:b (rationals)")
    p_mesh.add_argument("--res", type=int, required=True, help="grid resolution per axis")
    p_mesh.add_argument("--out", help="output file (default: stdout)")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # join range flags with their values so negative bounds parse: --t -3:3
    joined = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--s", "--t") and i + 1 < len(argv):
            joined.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            joined.append(tok)
            i += 1
    args = build_parser().parse_args(joined)
    if args.command == "implicit":
        return _cmd_analyze("implicit", args)
    if args.command == "parametric":
        return _cmd_analyze("parametric", args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "mesh":
        return _cmd_mesh(args)
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
