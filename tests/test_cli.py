"""Command-line interface: exit codes, report structure, golden files,
mesh sampling."""

import argparse
import concurrent.futures
import contextlib
import io
import json
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import devsurf
from devsurf.arith import decimal
from devsurf.cli import main, read_argv

import cases

GOLDEN_DIR = Path(__file__).parent / "goldens"


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


class TestExitCodes:
    def test_cone_ok(self):
        code, out = run_cli(["implicit", cases.ELLIPTIC_CONE_F])
        report = json.loads(out)
        assert code == 0 and report["exit_code"] == 0
        assert report["classification"]["tag"] == "Conical"
        assert report["classification"]["apex"] == ["1/2", "1/3", "0"]
        assert report["parametrization"]["verified"] is True

    def test_sphere_not_developable(self):
        code, out = run_cli(["implicit", cases.SPHERE_F])
        assert code == 3
        assert json.loads(out)["classification"]["tag"] == "NotDevelopable"

    def test_numbers_past_the_int_to_str_limit(self):
        # c has 4,817 digits, past the interpreter's default limit of 4,300
        # on int-to-str conversion; the report prints it, in-process, without
        # lifting that limit for the process
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        c = 2**16000
        code, out = run_cli(["implicit", "x^2+y^2-" + "*".join([str(2**4000)] * 4) + "*z^2"])
        assert code == 0 and json.loads(out)["exit_code"] == 0
        assert max(map(len, re.findall(r"\d+", out))) > 4300
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

        def read(text):  # int() of at most 1,000 digits at a time
            sign, digits = (-1, text[1:]) if text[0] == "-" else (1, text)
            n = 0
            for i in range(0, len(digits), 1000):
                n = n * 10 ** len(digits[i : i + 1000]) + int(digits[i : i + 1000])
            return sign * n

        for n in (0, 7, -10**2000, c, -(3**20000) + 1, 10**6020 - 1):
            text = decimal(n)
            assert read(text) == n
            assert text == "0" or text.lstrip("-")[0] != "0"  # no leading zero
        num, den = decimal(Fraction(c + 1, 3**7000)).split("/")
        assert (read(num), read(den)) == (c + 1, 3**7000)

    def test_syntax_error(self):
        code, out = run_cli(["implicit", "x^2 +"])
        assert code == 1
        assert "error" in json.loads(out)

    def test_syntax_error_pretty(self):
        code, out = run_cli(["implicit", "x^2 +", "--pretty"])
        assert code == 1
        assert "error:" in out

    def test_parametric_cone_ok(self):
        code, out = run_cli(["parametric", cases.IMPROPER_CONE_MAP])
        report = json.loads(out)
        assert code == 0
        assert report["classification"]["apex"] == ["1", "1", "0"]

    def test_hyperbolic_paraboloid_rejected(self):
        code, out = run_cli(["parametric", cases.HYPERBOLIC_PARABOLOID_MAP])
        assert code == 3

    def test_unresolved_degenerate_surface(self):
        # parallel plane pair: developable but with no single ruling kernel
        code, out = run_cli(["implicit", "x^2 - 1"])
        report = json.loads(out)
        assert code == 2
        assert report["classification"]["tag"] == "DevelopableUnresolved"

    def test_smooth_cubic_cone_stops_at_first_section(self, monkeypatch):
        # the first section is a smooth cubic: its genus certificate proves
        # that no other section can be parametrized either
        import devsurf.implicit

        calls = []
        original = devsurf.implicit.parametrize_plane_curve

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(devsurf.implicit, "parametrize_plane_curve", spy)
        code, out = run_cli(["implicit", "x^3+y^3-2*z^3"])
        report = json.loads(out)
        assert code == 2 and report["classification"]["tag"] == "Conical"
        assert report["failure"] == "smooth plane curve of degree 3, genus 1"
        assert len(calls) == 1

    def test_smooth_section_of_degree_twelve(self):
        code, out = run_cli(["implicit", "x^12+y^12-z^12"])
        assert code == 2
        assert json.loads(out)["failure"] == "smooth plane curve of degree 12, genus 55"

    def test_degenerate_curve_image(self):
        code, out = run_cli(["parametric", "(t, t^2, t^3)"])
        assert code == 2
        assert "curve" in json.loads(out)["error"]

    @pytest.mark.parametrize(
        "module, argv",
        [
            ("devsurf.implicit", ["implicit", cases.ELLIPTIC_CONE_F]),
            ("devsurf.parametric", ["parametric", cases.IMPROPER_CONE_MAP]),
        ],
    )
    def test_kernel_fault_is_internal_error(self, monkeypatch, module, argv):
        # a fault inside a section attempt must not read as "unsupported"
        def broken(*args, **kwargs):
            raise ArithmeticError("fraction-free elimination lost exactness")

        # the step each pipeline runs on its section plane
        step = {"devsurf.implicit": "parametrize_plane_curve", "devsurf.parametric": "section_parametric"}[module]
        monkeypatch.setattr(f"{module}.{step}", broken)
        code, out = run_cli(argv)
        report = json.loads(out)
        assert code == 5 and report["exit_code"] == 5
        assert report["error"] == "internal error: ArithmeticError: fraction-free elimination lost exactness"

    @pytest.mark.parametrize(
        "argv",
        [
            ["implicit", "x", "--plane-budget", "abc"],  # a bad option value
            ["implicit"],  # a missing source
            ["frobnicate", "x"],  # an unknown subcommand
            ["implicit", "x", "--bogus"],  # an unknown flag
        ],
    )
    def test_bad_arguments_are_input_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["implicit", cases.ELLIPTIC_CONE_F, "--plane-budget", "-5"], "--plane-budget"),
            (["implicit", cases.ELLIPTIC_CONE_F, "--plane-budget", "0"], "--plane-budget"),
            (["parametric", cases.PLANE_MAP, "--jobs", "-3"], "--jobs"),
            (["implicit", cases.SPHERE_F, cases.ELLIPTIC_CONE_F, "--jobs", "0"], "--jobs"),
            (["implicit", cases.ELLIPTIC_CONE_F, "--point-search-budget", "-1"], "--point-search-budget"),
        ],
    )
    def test_out_of_range_budgets_are_input_errors(self, argv, flag):
        code, out = run_cli(argv)
        [report] = [json.loads(line) for line in out.splitlines()]
        assert code == 1 and report["exit_code"] == 1
        assert report["error"].startswith(flag + " must be at least")

    def test_smallest_budgets_are_accepted(self):
        argv = ["implicit", cases.ELLIPTIC_CONE_F, "--plane-budget", "1", "--point-search-budget", "0", "--jobs", "1"]
        code, out = run_cli(argv)
        assert code != 1 and json.loads(out)["exit_code"] == code

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["implicit", "-h"])
        assert exc.value.code == 0

    @pytest.mark.parametrize(
        "check, argv",
        [
            ("devsurf.parametric.substitute_map_is_zero", ["parametric", cases.PLANE_MAP]),
            ("devsurf.implicit.verify_on_surface", ["implicit", "x + y + z - 1"]),
        ],
    )
    def test_failed_plane_certificate_is_internal_error(self, monkeypatch, check, argv):
        # the plane is solved from the input itself, so a failed check is a
        # fault, not "unsupported"
        monkeypatch.setattr(check, lambda *args: False)
        code, out = run_cli(argv)
        assert code == 5
        assert json.loads(out)["error"].startswith("internal error: ArithmeticError")

    def test_failed_section_rebuild_is_internal_error(self, monkeypatch):
        # the section and the apex are both certified, so a cone that fails
        # its surface certificate is a fault, not a reason to try another plane
        monkeypatch.setattr("devsurf.implicit.verify_on_surface", lambda *args: False)
        code, out = run_cli(["implicit", cases.ELLIPTIC_CONE_F])
        assert code == 5
        assert json.loads(out)["error"].startswith("internal error: ArithmeticError")
        src = Path(__file__).resolve().parent.parent / "src" / "devsurf"
        assert not any("section rebuild failed exact verification" in f.read_text() for f in src.glob("*.py"))

    def test_bad_reduction_cone_proven_smooth_at_the_second_prime(self):
        # the section w^2 - u^3 - P*u - P, P = 2^61 - 1, is smooth over Q
        # and cuspidal mod P; modulo the next prime it is proven smooth
        code, out = run_cli(["implicit", "y^2*z - x^3 - 2305843009213693951*x*z^2 - 2305843009213693951*z^3"])
        report = json.loads(out)
        assert code == 2
        assert report["classification"]["tag"] == "Conical"
        assert report["failure"] == "smooth plane curve of degree 3, genus 1"

    def test_unbounded_cylinder_certified_once_in_one_parameter(self, monkeypatch):
        # (x+y+z+1)^8 + x is a cylinder along (0, 1, -1); its certificate
        # runs in t alone, once
        import devsurf.builder

        real = devsurf.builder.substitute_map_is_zero
        params_seen = []

        def spy(p, map3):
            params_seen.append(map3.params)
            return real(p, map3)

        monkeypatch.setattr(devsurf.builder, "substitute_map_is_zero", spy)
        code, out = run_cli(["implicit", "(x+y+z+1)^8+x"])
        report = json.loads(out)
        assert code == 0 and report["parametrization"]["verified"] is True
        d = [Fraction(c) for c in report["classification"]["direction"]]
        assert d[0] == 0 and d[1] == -d[2] != 0
        assert params_seen == [("t",)]


class TestVerifyCommand:
    def test_matching_pair(self):
        directrix = cases.QUARTIC_CYLINDER_DIRECTRIX.strip()
        inner = directrix[1 : directrix.rfind(")")]
        comps = []
        depth = 0
        start = 0
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                comps.append(inner[start:i])
                start = i + 1
        comps.append(inner[start:])
        full = "( {} + s, {} - s, {} - s )".format(*comps)
        code, out = run_cli(["verify", cases.QUARTIC_CYLINDER_F, full])
        assert code == 0
        assert json.loads(out)["exact_zero"] is True

    def test_mismatch(self):
        code, out = run_cli(["verify", cases.ELLIPTIC_CONE_F, "( t, s, 0 )"])
        assert code == 4
        assert json.loads(out)["exact_zero"] is False

    def test_malformed_map(self):
        code, out = run_cli(["verify", cases.ELLIPTIC_CONE_F, "( t, s"])
        assert code == 1

    def test_residue_over_distinct_denominators(self):
        # the components have the denominators t^2 + 1 and t + 1; the
        # residue is F(X/W) over the one denominator W of the stored form,
        # printed in lowest terms
        code, out = run_cli(["verify", "x^2+y^2-z^2", "( s*(1-t^2)/(1+t^2), s*2*t/(1+t), s )"])
        assert code == 4
        assert json.loads(out)["residue"] == (
            "(4*s^2*t^6 + 4*s^2*t^4 - 8*s^2*t^3)/(t^6 + 2*t^5 + 3*t^4 + 4*t^3 + 3*t^2 + 2*t + 1)"
        )

    def test_composition_expanded_only_for_a_nonzero_residue(self, monkeypatch):
        # exact_zero is decided by the substitution certificate; the
        # composition is built once, to print the residue of a mismatch
        import devsurf.cli

        real = devsurf.cli.substitute_map
        calls = []

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(devsurf.cli, "substitute_map", spy)
        code, out = run_cli(["verify", "x^2+y^2-z^2", "( s*(1-t^2)/(1+t^2), s*2*t/(1+t^2), s )"])
        assert code == 0 and json.loads(out)["residue"] == "0" and json.loads(out)["exact_zero"] is True
        assert calls == []
        code, out = run_cli(["verify", "x^2+y^2-z^2", "( s*(1-t^2)/(1+t^2), s*2*t/(1+t), s )"])
        assert code == 4 and len(calls) == 1
        assert json.loads(out)["residue"] == (
            "(4*s^2*t^6 + 4*s^2*t^4 - 8*s^2*t^3)/(t^6 + 2*t^5 + 3*t^4 + 4*t^3 + 3*t^2 + 2*t + 1)"
        )


class TestMesh:
    def test_cone_grid_complete(self, tmp_path):
        out_file = tmp_path / "cone.obj"
        code, out = run_cli(
            ["mesh", cases.UNIT_CIRCLE_CONE_MAP, "--s", "0:1", "--t", "-3:3", "--res", "20", "--out", str(out_file)]
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["vertices"] == 400 and summary["pole_skips"] == 0
        text = out_file.read_text()
        assert sum(1 for line in text.splitlines() if line.startswith("v ")) == 400

    def test_pole_skipping(self, tmp_path):
        out_file = tmp_path / "poles.obj"
        code, out = run_cli(
            ["mesh", "( 1/(t-1), s, s+t )", "--s", "0:1", "--t", "-3:3", "--res", "4", "--out", str(out_file)]
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["pole_skips"] == 4  # the whole t = 1 grid line

    def test_entire_grid_on_poles_rejected(self):
        code, out = run_cli(
            ["mesh", "( 1/(s*t*(s-1)*(t-1)), s, t )", "--s", "0:1", "--t", "0:1", "--res", "2"]
        )
        assert code == 2
        assert "pole" in json.loads(out)["error"]

    def test_zero_resolution_rejected(self):
        code, out = run_cli(["mesh", cases.PLANE_MAP, "--s", "0:1", "--t", "0:1", "--res", "0"])
        assert code == 1

    def test_vertex_past_the_float_range_is_an_input_error(self):
        code, out = run_cli(["mesh", "(s, t, s*t)", "--s", "0:1e400", "--t", "0:1", "--res", "2"])
        assert code == 1
        report = json.loads(out)
        assert report["command"] == "mesh" and report["exit_code"] == 1
        assert report["error"].startswith("a vertex coordinate is outside the float range")

    def test_unwritable_output_is_an_input_error(self, tmp_path):
        target = tmp_path / "missing" / "x.obj"
        code, out = run_cli(["mesh", "(s, t, s*t)", "--s", "0:1", "--t", "0:1", "--res", "2", "--out", str(target)])
        assert code == 1
        report = json.loads(out)
        assert report == {"command": "mesh", "error": f"cannot write {target}: No such file or directory", "exit_code": 1}
        assert not target.parent.exists()


class TestGoldenReports:
    CASES = {
        "elliptic_cone_implicit": ("implicit", cases.ELLIPTIC_CONE_F),
        "quartic_cylinder_implicit": ("implicit", cases.QUARTIC_CYLINDER_F),
        "tangent_quartic_implicit": ("implicit", cases.TANGENT_QUARTIC_F),
        "improper_cone_parametric": ("parametric", cases.IMPROPER_CONE_MAP),
        "tangent_dev_parametric": ("parametric", cases.TANGENT_DEV_MAP),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_report_is_byte_stable(self, name):
        cmd, src = self.CASES[name]
        code, out = run_cli([cmd, src])
        report = json.loads(out)
        report["timings_ms"] = {}  # wall-clock times are not part of the contract
        produced = json.dumps(report, indent=2, sort_keys=True) + "\n"
        golden = (GOLDEN_DIR / f"{name}.json").read_text()
        assert produced == golden

    def test_squared_cone_reports_the_cone(self):
        # not squarefree: squarefree_part takes the gcd route, and every
        # field but the echoed input is the cone's golden report
        code, out = run_cli(["implicit", f"({cases.ELLIPTIC_CONE_F})^2"])
        report = json.loads(out)
        golden = json.loads((GOLDEN_DIR / "elliptic_cone_implicit.json").read_text())
        assert code == 0
        for key in ("input", "timings_ms"):
            del report[key], golden[key]
        assert report == golden

    def test_emitted_parametrization_passes_own_verify(self):
        code, out = run_cli(["implicit", cases.TANGENT_QUARTIC_F])
        report = json.loads(out)
        surface_map = report["parametrization"]["surface_map"]
        vcode, vout = run_cli(["verify", cases.TANGENT_QUARTIC_F, surface_map])
        assert vcode == 0


class TestMultipleInputs:
    def test_two_inputs_ndjson_and_max_exit(self):
        code, out = run_cli(["implicit", cases.ELLIPTIC_CONE_F, cases.SPHERE_F])
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 2
        assert json.loads(lines[0])["exit_code"] == 0
        assert json.loads(lines[1])["exit_code"] == 3
        assert code == 3

    def test_file_input(self, tmp_path):
        f = tmp_path / "surface.txt"
        f.write_text(cases.ELLIPTIC_CONE_F + "\n")
        code, out = run_cli(["implicit", str(f)])
        assert code == 0
        assert json.loads(out)["classification"]["tag"] == "Conical"

    def test_no_refine_flag(self):
        code, out = run_cli(["implicit", cases.TANGENT_QUARTIC_F, "--no-refine"])
        report = json.loads(out)
        assert code == 0
        assert report["parametrization"]["refined"] is False
        code2, out2 = run_cli(["implicit", cases.TANGENT_QUARTIC_F])
        assert json.loads(out2)["parametrization"]["refined"] is True

    def test_jobs_fanout_preserves_order(self):
        code, out = run_cli(["implicit", cases.SPHERE_F, cases.ELLIPTIC_CONE_F, "--jobs", "2"])
        lines = [json.loads(l) for l in out.splitlines() if l.strip()]
        assert [r["exit_code"] for r in lines] == [3, 0]
        assert code == 3

    @pytest.mark.parametrize("cpus, workers", [(64, 3), (2, 2)])
    def test_jobs_capped_without_starting_processes(self, monkeypatch, cpus, workers):
        created = []

        class InlinePool:
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                fn = pickle.loads(pickle.dumps(fn))  # the job must reach a worker
                return [fn(item) for item in items]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        argv = ["implicit", cases.SPHERE_F, "x^2 +", cases.ELLIPTIC_CONE_F, "--jobs", "10000"]
        code, out = run_cli(argv)
        assert created == [workers]
        assert [json.loads(l)["exit_code"] for l in out.splitlines() if l.strip()] == [3, 1, 0]
        assert code == 3

    def test_pretty_renders_text(self):
        code, out = run_cli(["implicit", cases.ELLIPTIC_CONE_F, "--pretty"])
        assert code == 0
        assert "classification: Conical" in out
        assert "apex: (1/2, 1/3, 0)" in out


class TestParserReuse:
    ARGVS = [
        ["implicit", cases.TANGENT_QUARTIC_F, "--no-refine"],
        ["implicit", cases.SPHERE_F, "--pretty"],
        ["parametric", cases.UNIT_CIRCLE_CONE_MAP],
        ["verify", cases.ELLIPTIC_CONE_F, cases.ELLIPTIC_CONE_FULL_MAP],
        ["mesh", cases.UNIT_CIRCLE_CONE_MAP, "--s", "0:1", "--t", "-3:3", "--res", "3"],
        ["implicit", cases.TANGENT_QUARTIC_F],
        ["implicit", "x^2 +* y"],
    ]

    @staticmethod
    def _stable(out):
        lines = []
        for line in out.splitlines():
            if line.startswith("{"):
                report = json.loads(line)
                report.pop("timings_ms", None)
                line = json.dumps(report, sort_keys=True)
            lines.append(line)
        return lines

    def test_successive_calls_match_fresh_ones(self):
        # every call reads its argv afresh from the flag table: running the
        # commands in reverse order, so that each follows another one,
        # changes no exit code and no report
        fresh = [run_cli(argv) for argv in reversed(self.ARGVS)][::-1]
        reused = [run_cli(argv) for argv in self.ARGVS]
        assert [code for code, _ in reused] == [code for code, _ in fresh] == [0, 3, 0, 0, 0, 0, 1]
        for (_, a), (_, b) in zip(reused, fresh):
            assert self._stable(a) == self._stable(b)
        # a flag given to one call does not leak into the next
        assert json.loads(reused[5][1])["parametrization"]["refined"] is True
        alone = [vars(read_argv(argv)) for argv in self.ARGVS]
        every_flag = ["--pretty", "--no-refine", "--jobs", "2", "--plane-budget", "3", "--point-search-budget", "4"]
        for argv in self.ARGVS:
            read_argv([*argv[:2], *every_flag] if argv[0] == "implicit" else argv)
            assert [vars(read_argv(argv)) for argv in self.ARGVS] == alone
        assert vars(read_argv(["implicit", "x"])) == dict(
            command="implicit", source=["x"], pretty=False, plane_budget=35, point_search_budget=200, no_refine=False, jobs=1
        )


def _oracle_parser():
    """The argparse parser the command line was read with before the flag
    table: the oracle of ``TestArgvReader``."""

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = Parser(prog="devsurf")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--pretty", action="store_true")
        p.add_argument("--plane-budget", type=int, default=35)
        p.add_argument("--point-search-budget", type=int, default=200)
        p.add_argument("--no-refine", action="store_true")
        p.add_argument("--jobs", type=int, default=1)

    for name in ("implicit", "parametric"):
        p = sub.add_parser(name)
        p.add_argument("source", nargs="+")
        add_common(p)
    p_ver = sub.add_parser("verify")
    p_ver.add_argument("surface")
    p_ver.add_argument("parametrization")
    p_ver.add_argument("--pretty", action="store_true")
    p_mesh = sub.add_parser("mesh")
    p_mesh.add_argument("parametrization")
    p_mesh.add_argument("--s", required=True)
    p_mesh.add_argument("--t", required=True)
    p_mesh.add_argument("--res", type=int, required=True)
    p_mesh.add_argument("--out")
    return parser


def _oracle(argv):
    # range flags were joined with their values so negative bounds parsed
    joined, i = [], 0
    while i < len(argv):
        if argv[i] in ("--s", "--t") and i + 1 < len(argv):
            joined.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            joined.append(argv[i])
            i += 1
    return _oracle_parser().parse_args(joined)


def _outcome(read, argv):
    """The attributes ``read`` gives argv, or "help" (exit 0, usage on
    stdout) or "error" (exit 1, usage and error on stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(read(list(argv)))
    except SystemExit as exc:
        if exc.code == 0 and out.getvalue().startswith("usage: devsurf"):
            return "help"
        if exc.code == 1 and err.getvalue().startswith("usage: devsurf") and ": error: " in err.getvalue():
            return "error"
        raise AssertionError(f"exit {exc.code} with stdout {out.getvalue()!r} and stderr {err.getvalue()!r}")


MESH = ["mesh", "P", "--s", "0:1", "--t", "0:1", "--res", "3"]


class TestArgvReader:
    """The flag table's reader against the argparse parser it replaced, as
    Python 3.10 and 3.11 run it: equal attributes, or an input error on
    both, or help on both."""

    CORPUS = [
        # -h first, in the middle and last, for every subcommand and alone
        ["-h"],
        ["--help"],
        ["--he"],
        ["-h", "implicit", "x"],
        ["implicit", "-h"],
        ["implicit", "-h", "x", "--pretty"],
        ["implicit", "x", "-h", "--pretty"],
        ["implicit", "x", "--pretty", "-h"],
        ["parametric", "--help", "(s, t, s*t)"],
        ["parametric", "(s, t, s*t)", "--h", "--jobs", "2"],
        ["parametric", "(s, t, s*t)", "--jobs", "2", "-h"],
        ["verify", "-h", "F", "P"],
        ["verify", "F", "-h", "P"],
        ["verify", "F", "P", "-h"],
        ["mesh", "-h", *MESH[1:]],
        ["mesh", "P", "--s", "0:1", "-h", "--t", "0:1", "--res", "3"],
        [*MESH, "--h"],
        ["mesh", "--help"],
        # help wins over an unknown flag or a missing argument, not over an
        # ambiguous prefix or a bad value before it
        ["implicit", "--bogus", "-h"],
        ["mesh", "P", "-h"],
        ["implicit", "-h", "--p", "5"],
        ["implicit", "x", "--jobs", "abc", "-h"],
        ["implicit", "x", "-hx"],
        ["implicit", "x", "--help=1"],
        # unique and ambiguous prefixes
        ["implicit", "x", "--plane", "5"],
        ["implicit", "x", "--pl", "5", "--po", "7", "--pr", "--no", "--j", "2"],
        ["implicit", "x", "--p", "5"],
        ["parametric", "x", "--p"],
        ["verify", "F", "P", "--p"],
        ["mesh", "P", "--s", "0:1", "--t", "0:1", "--r", "3", "--o", "m.obj"],
        ["implicit", "x", "--=1"],
        # --flag=value
        ["implicit", "x", "--jobs=2", "--plane-budget=4", "--point-search-budget=0"],
        ["implicit", "x", "--plane=4"],
        ["implicit", "x", "--p=4"],
        ["mesh", "P", "--s=0:1", "--t=-3:3", "--res=4", "--out=m.obj"],
        ["mesh", "P", "--s=0:1", "--t=0:1", "--res=4", "--out="],
        ["implicit", "x", "--pretty=1"],
        ["implicit", "x", "--no-refine="],
        ["implicit", "x", "--jobs="],
        # "--" ends the flags
        ["implicit", "--", "-x^2+y^2-z^2"],
        ["implicit", "-x^2+y^2-z^2"],
        ["implicit", "--pretty", "--", "-x^2+y^2-z^2", "--pretty"],
        ["implicit", "x", "--", "-x^2+y^2-z^2"],
        ["implicit", "x", "--"],
        ["implicit", "--"],
        ["implicit", "x", "--pretty", "--"],
        ["implicit", "x", "--jobs", "2", "--"],
        ["implicit", "x", "--pretty", "--", "y"],
        ["verify", "--", "-x", "-y"],
        ["verify", "F", "--", "-y"],
        ["verify", "F", "P", "--"],
        ["verify", "F", "P", "--pretty", "--"],
        ["verify", "F", "--pretty", "--", "P"],
        ["--", "implicit", "x"],
        # numbers and texts with a blank are positionals, even with a "-"
        ["implicit", "-2"],
        ["implicit", "-1.5", "-.5"],
        ["implicit", "-2*x^2 + 2*x*y - y^2 + z"],
        ["implicit", "-2*x^2", "x"],
        ["implicit", "x", "--plane-budget", "-5"],
        ["implicit", "x", "--pretty x"],
        ["implicit", "-"],
        ["mesh", "P", "--s", "0:1", "--t", "0:1", "--res", "-1"],
        # range flags take the next token, a negative bound too
        ["mesh", "P", "--s", "-3:3", "--t", "-1:-1/2", "--res", "3"],
        ["mesh", "P", "--t", "-3:3", "--s", "--res", "--res", "3"],
        ["mesh", "P", "--s", "-h", "--t", "0:1", "--res", "3"],
        ["mesh", "P", "--s", "0:1", "--t", "0:1", "--res", "3", "--s"],
        # missing, bad and repeated values
        ["mesh", "P", "--s", "0:1", "--t", "0:1"],
        ["mesh", "P"],
        ["mesh", "--s", "0:1", "--t", "0:1", "--res", "3"],
        ["mesh", "P", "--s", "0:1", "--t", "0:1", "--res", "abc"],
        ["mesh", "P", "--s", "0:1", "--t", "0:1", "--res"],
        ["implicit", "x", "--jobs", "--pretty"],
        ["implicit", "x", "--jobs", "-h"],
        ["implicit", "x", "--jobs", "2.5"],
        ["implicit", "x", "--jobs", " 7 "],
        ["implicit", "x", "--jobs", "2", "--jobs", "3", "--pretty", "--pretty"],
        [*MESH, "--res", "4", "--out", "a.obj", "--out", "b.obj"],
        # positionals: in order, a "+" run between two flags, no surplus
        ["verify", "F", "P"],
        ["parametric", "(s, t, s*t)", "--no-refine", "--point-search-budget", "9"],
        ["verify", "--pretty", "F", "P"],
        ["verify", "F", "--pretty", "P"],
        ["verify", "F", "P", "Q"],
        ["verify", "F"],
        ["implicit", "x", "y", "--pretty", "--no-refine"],
        ["implicit", "--pretty", "x", "y"],
        ["implicit", "--jobs", "2", "x", "y"],
        ["implicit", "x", "--pretty", "y"],
        ["implicit", "x", "--jobs", "2", "y"],
        ["mesh", "--s", "0:1", "--t", "0:1", "--res", "3", "P"],
        [*MESH, "Q"],
        ["implicit"],
        # unknown flags and subcommands
        ["implicit", "x", "--bogus"],
        ["implicit", "x", "-q"],
        ["implicit", "x", "--s", "0:1"],
        ["--bogus", "implicit", "x"],
        ["--bogus"],
        ["frobnicate", "x"],
        ["-2", "x"],
        ["Implicit", "x"],
        [],
    ]

    @pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
    def test_reader_matches_argparse(self, argv):
        assert _outcome(read_argv, argv) == _outcome(_oracle, argv)

    def test_corpus_reaches_every_outcome(self):
        outcomes = [_outcome(read_argv, argv) for argv in self.CORPUS]
        assert outcomes.count("help") >= 20 and outcomes.count("error") >= 40
        assert {o["command"] for o in outcomes if isinstance(o, dict)} == {"implicit", "parametric", "verify", "mesh"}

    @pytest.mark.parametrize(
        "argv, outcome",
        [
            # a flag takes the next token as its value, even one that starts
            # with "-" (argparse took one only for --s and --t, as joined)
            ([*MESH, "--out", "-m.obj"], dict(command="mesh", parametrization="P", s="0:1", t="0:1", res=3, out="-m.obj")),
            ([*MESH, "--out", "--"], dict(command="mesh", parametrization="P", s="0:1", t="0:1", res=3, out="--")),
            # --s and --t are flags of mesh alone; argparse joined them to
            # the next token under every subcommand
            (["implicit", "--s", "-h", "x"], "help"),
            # -h takes no inline value; argparse read -hh as -h -h
            (["implicit", "x", "-hh"], "error"),
            # a range's value is classified like every token before "--"
            (["mesh", "P", "--s", "--=1", "--t", "0:1", "--res", "3"], "error"),
        ],
    )
    def test_departures_from_argparse(self, argv, outcome):
        assert _outcome(read_argv, argv) == outcome

    def test_error_names_the_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "F", "P", "Q"])
        assert exc.value.code == 1
        usage, error = capsys.readouterr().err.splitlines()
        assert usage.startswith("usage: devsurf verify [-h] [--pretty] surface parametrization")
        assert error == "devsurf verify: error: unrecognized arguments: Q"

    def test_help_lists_the_table(self, capsys):
        for argv, words in (
            (["-h"], ["implicit", "parametric", "verify", "mesh"]),
            (["mesh", "--help"], ["parametrization", "--s S", "--t T", "--res RES", "--out OUT", "grid resolution"]),
            (["implicit", "-h"], ["source [source ...]", "--plane-budget PLANE_BUDGET", "--no-refine", "--jobs JOBS"]),
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            out = capsys.readouterr().out
            assert exc.value.code == 0 and all(word in out for word in words), out


def test_fresh_import_loads_no_oracle_or_introspection_modules():
    # devsurf runs as a one-shot process, so its import and its first
    # verdict are part of every verdict: neither may load the sympy test
    # oracle, nor dataclasses or the inspect, ast and dis machinery that
    # dataclasses pulls in, nor argparse and the gettext and locale it
    # pulls in
    code = (
        "import sys, devsurf.cli\n"
        "banned = {'sympy', 'dataclasses', 'inspect', 'argparse', 'gettext', 'locale'}\n"
        "imported = sorted(banned & set(sys.modules))\n"
        "code = devsurf.cli.main(['implicit', 'x^2+y^2-z^2'])\n"
        "print(imported, sorted(banned & set(sys.modules)), code)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(devsurf.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[] [] 0"
