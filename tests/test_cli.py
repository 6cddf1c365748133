"""Command-line interface: exit codes, report structure, golden files,
mesh sampling."""

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
from devsurf.cli import main

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
        from devsurf.cli import build_parser

        fresh = []
        for argv in self.ARGVS:
            build_parser.cache_clear()
            fresh.append(run_cli(argv))
        build_parser.cache_clear()
        reused = [run_cli(argv) for argv in self.ARGVS]
        assert build_parser.cache_info().misses == 1
        assert [code for code, _ in reused] == [code for code, _ in fresh] == [0, 3, 0, 0, 0, 0, 1]
        for (_, a), (_, b) in zip(reused, fresh):
            assert self._stable(a) == self._stable(b)
        # a flag given to one call does not leak into the next
        assert json.loads(reused[5][1])["parametrization"]["refined"] is True


def test_fresh_import_loads_no_oracle_or_introspection_modules():
    # devsurf runs as a one-shot process, so its import is part of every
    # verdict: it must not load the sympy test oracle, nor dataclasses or
    # the inspect, ast and dis machinery that dataclasses pulls in
    code = "import sys, devsurf.cli; print(sorted({'sympy', 'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(devsurf.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
