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

import functools
import json
import os
import re
import sys
import time
from fractions import Fraction
from types import SimpleNamespace
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


# The command line as one table.  Each subcommand has its help text, its
# positionals (dest, nargs: 1, or "+" for one or more, help) and its flags
# (name, dest, type int, str or bool, default, required, help; a required
# flag has no default); every subcommand also takes -h/--help.
_ANALYZE_FLAGS = (
    ("--pretty", "pretty", bool, False, False, "human-readable report instead of JSON"),
    ("--plane-budget", "plane_budget", int, 35, False, "number of candidate section planes"),
    ("--point-search-budget", "point_search_budget", int, 200, False, "rational point search sweep budget"),
    ("--no-refine", "no_refine", bool, False, False, "skip directrix degree reduction"),
    ("--jobs", "jobs", int, 1, False, "parallel workers for multiple inputs"),
)
_COMMANDS = {
    "implicit": (
        "analyze an implicit surface F(x, y, z)",
        (("source", "+", "polynomial expression or file"),),
        _ANALYZE_FLAGS,
    ),
    "parametric": (
        "analyze a rational parametrization P(s, t)",
        (("source", "+", "rational map expression or file"),),
        _ANALYZE_FLAGS,
    ),
    "verify": (
        "check a parametrization against an implicit surface",
        (
            ("surface", 1, "implicit polynomial expression or file"),
            ("parametrization", 1, "rational map expression or file"),
        ),
        _ANALYZE_FLAGS[:1],
    ),
    "mesh": (
        "sample a rational map to a vertex/face mesh",
        (("parametrization", 1, "rational map expression or file"),),
        (
            ("--s", "s", str, None, True, "s range a:b (rationals)"),
            ("--t", "t", str, None, True, "t range a:b (rationals)"),
            ("--res", "res", int, None, True, "grid resolution per axis"),
            ("--out", "out", str, None, False, "output file (default: stdout)"),
        ),
    ),
}
_HELP = ("-h", "--help")
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _usage(prog: str) -> str:
    command = prog.partition(" ")[2]
    if not command:
        return f"usage: devsurf [-h] {{{','.join(_COMMANDS)}}} ..."
    _, positionals, flags = _COMMANDS[command]
    words = ["[-h]"]
    for name, dest, kind, _, required, _ in flags:
        word = name if kind is bool else f"{name} {dest.upper()}"
        words.append(word if required else f"[{word}]")
    words += [dest if nargs == 1 else f"{dest} [{dest} ...]" for dest, nargs, _ in positionals]
    return f"usage: {prog} {' '.join(words)}"


def _fail(prog: str, message: str):
    """A bad command line is an input error: usage and message on stderr, exit 1."""
    print(_usage(prog), file=sys.stderr)
    print(f"{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_INPUT)


def _help(prog: str, value: Optional[str]):
    """Print the help of ``prog``, from the table, and exit 0."""
    if value is not None:
        _fail(prog, f"argument -h/--help: ignored explicit argument {value!r}")
    command = prog.partition(" ")[2]
    if command:
        about, positionals, flags = _COMMANDS[command]
        options = [(name if kind is bool else f"{name} {dest.upper()}", text) for name, dest, kind, *_, text in flags]
        sections = {
            "positional arguments": [(dest, text) for dest, _, text in positionals],
            "options": [("-h, --help", "show this help message and exit"), *options],
        }
    else:
        about = "Exact developability analysis and rational parametrization of algebraic surfaces."
        sections = {"commands": [(name, spec[0]) for name, spec in _COMMANDS.items()]}
    lines = [_usage(prog), "", about]
    for title, rows in sections.items():
        lines += ["", f"{title}:"]
        lines += [f"  {label:<21} {text}" if len(label) < 22 else f"  {label}\n{'':24}{text}" for label, text in rows]
    print("\n".join(lines))
    raise SystemExit(EXIT_OK)


def _flag(token: str, names, prog: str) -> Optional[tuple[str, Optional[str]]]:
    """(name, inline value) of the flag a token before "--" gives: its
    exact name, "name=value", the one long name it is a prefix of, or -h
    with the rest of a "-h..." token; ("", None) for an unknown option.
    None for a positional: no leading "-", a lone "-", a negative number
    or a token with a blank in it."""
    if token in names:
        return token, None
    if token[:1] != "-" or token == "-":
        return None
    name, eq, value = token.partition("=")
    if eq and name in names:
        return name, value
    if token[1] == "-":
        hits = [n for n in names if n.startswith(name)]
    else:  # "-hx" is -h with the inline value "x"
        hits = [token[:2]] if token[:2] in names else []
        value, eq = token[2:], "="
    if len(hits) > 1:
        _fail(prog, f"ambiguous option: {token} could match {', '.join(hits)}")
    if hits:
        return hits[0], value if eq else None
    return None if _NUMBER.match(token) or " " in token else ("", None)


def read_argv(argv: list[str]) -> SimpleNamespace:
    """The command line ``argv`` (without the program name) as a
    namespace with the table's dests and ``command``.

    The first token that is not -h or --help is the subcommand.  After it,
    a flag takes the next token as its value (``--t -3:3``), "--" ends the
    flags, and the other tokens fill the positionals in order; a "+"
    positional takes one run of them between two flags.  -h prints help
    and exits 0.  An ambiguous prefix anywhere before "--", then the first
    bad flag or value in order, then a missing or a surplus argument is an
    input error (``_fail``)."""
    stray = []  # unknown flags, reported once the rest is read
    for i, token in enumerate(argv):
        found = None if token == "--" else _flag(token, _HELP, "devsurf")
        if found is None:
            break
        if found[0]:
            _help("devsurf", found[1])
        stray.append(token)
    else:
        _fail("devsurf", "the following arguments are required: command")
    command = argv[i]
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _fail("devsurf", f"argument command: invalid choice: {command!r} (choose from {choices})")
    prog = f"devsurf {command}"
    _, positionals, flags = _COMMANDS[command]
    table = dict.fromkeys(_HELP) | {flag[0]: flag for flag in flags}
    rest = argv[i + 1 :]
    for token in rest[: rest.index("--") if "--" in rest else None]:
        _flag(token, table, prog)  # an ambiguous prefix fails before any flag acts
    args = SimpleNamespace(command=command, **{flag[1]: flag[3] for flag in flags})
    given, runs, dash_run = [], 0, None
    tokens = iter(rest)
    for token in tokens:
        if dash_run is None and token == "--":
            dash_run = runs  # the run of positionals that "--" stands in
            continue
        found = _flag(token, table, prog) if dash_run is None else None
        if found is None:
            given.append((runs, token))
            continue
        runs += 1
        name, value = found
        if not name:
            stray.append(token)
            continue
        if name in _HELP:
            _help(prog, value)
        _, dest, kind, *_ = table[name]
        if kind is bool:
            if value is not None:
                _fail(prog, f"argument {name}: ignored explicit argument {value!r}")
            value = True
        elif value is None and (value := next(tokens, None)) is None:
            _fail(prog, f"argument {name}: expected one argument")
        try:
            setattr(args, dest, kind(value))
        except ValueError:
            _fail(prog, f"argument {name}: invalid int value: {value!r}")
    for dest, nargs, _ in positionals:
        if not given:
            break
        taken = given[:1] if nargs == 1 else [g for g in given if g[0] == given[0][0]]
        setattr(args, dest, taken[0][1] if nargs == 1 else [token for _, token in taken])
        if taken[-1][0] == dash_run:
            dash_run = None
        given = given[len(taken) :]
    missing = [dest for dest, *_ in positionals if not hasattr(args, dest)]
    missing += [name for name, dest, *_, required, _ in flags if required and getattr(args, dest) is None]
    if missing:
        _fail(prog, f"the following arguments are required: {', '.join(missing)}")
    # "--" is kept only by a run that fills a positional
    stray += [token for _, token in given] + ["--"] * (dash_run is not None)
    if stray:
        _fail(prog, f"unrecognized arguments: {' '.join(stray)}")
    return args


def main(argv=None) -> int:
    args = read_argv(list(sys.argv[1:] if argv is None else argv))
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "mesh":
        return _cmd_mesh(args)
    return _cmd_analyze(args.command, args)


if __name__ == "__main__":
    sys.exit(main())
