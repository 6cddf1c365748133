"""Per-layer tracing of devsurf from outside its source.

``Tracer.install`` wraps chosen public functions of each devsurf module
in every devsurf module namespace that bound them (``from .poly import
gcd_multi`` makes a second binding that patching ``devsurf.poly`` alone
would miss) and counts ``MultiPoly`` and ``RatFunc`` constructions.  Each
wrapped call records a span: name, start, end, parent span and input id.
Spans stay in memory; ``summary`` derives the per-layer metrics from them
and ``write_spans`` writes them out once the pass is over.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

def _gcd_nontrivial(args, result):
    return 0 if result.is_constant() else 1


def _sylvester_dim(args, result):
    p, q, var = args[:3]
    return p.degree_in(var) + q.degree_in(var)


def _returned(args, result):
    return 1


# module -> {public function: note}; a note turns a call's (args, result)
# into a number stored on its span
WRAPPED = {
    "cli": {"main": None},
    "exprs": {n: None for n in ("parse_poly", "parse_map", "parse_ratfunc", "print_poly", "print_map", "print_ratfunc")},
    "poly": {
        "gcd_multi": _gcd_nontrivial,
        "resultant": _sylvester_dim,
        "exact_div": None,
        "squarefree_part": None,
        "det4": None,
        "rational_roots": None,
    },
    "ratfunc": {"substitute_map_is_zero": None},
    "linalg": {"nullspace": None, "solve_exact": None},
    "curves": {"section_implicit": None, "parametrize_plane_curve": _returned, "is_proper_curve": None},
    "implicit": {n: None for n in ("analyze_implicit", "gaussian_form_implicit", "vanishes_on_surface")},
    "parametric": {
        n: None
        for n in (
            "analyze_parametric",
            "surface_normal",
            "gaussian_form_parametric",
            "section_parametric",
            "singular_parameter_locus",
            "rebuild_and_verify",
        )
    },
    "builder": {n: None for n in ("implicitize_ruled", "verify_on_surface", "reduce_directrix")},
}

# per-layer metric -> (statistic, span names); see README.md for the
# end-to-end metric and workload each one should move
METRICS = {
    "poly.multipoly.constructed": ("constructed", "MultiPoly"),
    "poly.gcd_multi.calls": ("calls", "poly.gcd_multi"),
    "poly.gcd_multi.self_ms": ("self_ms", "poly.gcd_multi"),
    "poly.gcd_multi.nontrivial_ratio": ("note_ratio", "poly.gcd_multi"),
    "poly.resultant.calls": ("calls", "poly.resultant"),
    "poly.resultant.self_ms": ("self_ms", "poly.resultant"),
    "poly.resultant.sylvester_dim_max": ("note_max", "poly.resultant"),
    "poly.exact_div.calls": ("calls", "poly.exact_div"),
    "poly.exact_div.self_ms": ("self_ms", "poly.exact_div"),
    "poly.squarefree_part.self_ms": ("self_ms", "poly.squarefree_part"),
    "poly.det4.self_ms": ("self_ms", "poly.det4"),
    "poly.rational_roots.calls": ("calls", "poly.rational_roots"),
    "poly.rational_roots.self_ms": ("self_ms", "poly.rational_roots"),
    "implicit.gaussian_form_implicit.ms": ("ms", "implicit.gaussian_form_implicit"),
    "implicit.vanishes_on_surface.ms": ("ms", "implicit.vanishes_on_surface"),
    "parametric.gaussian_form_parametric.ms": ("ms", "parametric.gaussian_form_parametric"),
    "parametric.surface_normal.ms": ("ms", "parametric.surface_normal"),
    "curves.section_implicit.calls": ("calls", "curves.section_implicit"),
    "curves.section_implicit.self_ms": ("self_ms", "curves.section_implicit"),
    "curves.parametrize_plane_curve.calls": ("calls", "curves.parametrize_plane_curve"),
    "curves.parametrize_plane_curve.self_ms": ("self_ms", "curves.parametrize_plane_curve"),
    "curves.parametrize_plane_curve.useful_ratio": ("note_ratio", "curves.parametrize_plane_curve"),
    "curves.is_proper_curve.self_ms": ("self_ms", "curves.is_proper_curve"),
    "parametric.section_parametric.calls": ("calls", "parametric.section_parametric"),
    "parametric.section_parametric.ms": ("ms", "parametric.section_parametric"),
    "parametric.singular_parameter_locus.ms": ("ms", "parametric.singular_parameter_locus"),
    "parametric.rebuild_and_verify.ms": ("ms", "parametric.rebuild_and_verify"),
    "builder.implicitize_ruled.calls": ("calls", "builder.implicitize_ruled"),
    "builder.implicitize_ruled.ms": ("ms", "builder.implicitize_ruled"),
    "builder.verify_on_surface.ms": ("ms", "builder.verify_on_surface"),
    "builder.reduce_directrix.ms": ("ms", "builder.reduce_directrix"),
    "ratfunc.substitute_map_is_zero.calls": ("calls", "ratfunc.substitute_map_is_zero"),
    "ratfunc.substitute_map_is_zero.self_ms": ("self_ms", "ratfunc.substitute_map_is_zero"),
    "ratfunc.ratfunc.constructed": ("constructed", "RatFunc"),
    "linalg.self_ms": ("self_ms", "linalg.nullspace", "linalg.solve_exact"),
    "exprs.parse_ms": ("ms", "exprs.parse_poly", "exprs.parse_map", "exprs.parse_ratfunc"),
    "exprs.print_ms": ("ms", "exprs.print_poly", "exprs.print_map", "exprs.print_ratfunc"),
    "cli.self_ms": ("self_ms", "cli.main"),
}

# statistics that must repeat exactly between two traced passes
COUNT_STATS = ("constructed", "calls", "note_ratio", "note_max")


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, input id, note]
        self.spans: list[list] = []
        self.input_id = -1
        self.constructed = {"MultiPoly": 0, "RatFunc": 0}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.input_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        return traced

    def _count_init(self, cls):
        original = cls.__init__
        counts, key = self.constructed, cls.__name__

        @functools.wraps(original)
        def counted(obj, *args, **kwargs):
            counts[key] += 1
            original(obj, *args, **kwargs)

        cls.__init__ = counted
        self._undo.append((cls, "__init__", original))

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "devsurf" or n.startswith("devsurf.")]
        for mod_name, functions in WRAPPED.items():
            home = importlib.import_module(f"devsurf.{mod_name}")
            for fname, note in functions.items():
                fn = getattr(home, fname)
                traced = self._wrap(f"{mod_name}.{fname}", fn, note)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, traced)
                            self._undo.append((mod, attr, fn))
        from devsurf.poly import MultiPoly
        from devsurf.ratfunc import RatFunc

        self._count_init(MultiPoly)
        self._count_init(RatFunc)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def summary(self) -> dict[str, float]:
        """Per-layer metrics.  ``self_ms`` excludes the time of wrapped
        child spans; ``ms`` is inclusive and counts a recursive call once."""
        spans = self.spans
        child_ms = [0.0] * len(spans)
        for sp in spans:
            if sp[3] >= 0:
                child_ms[sp[3]] += sp[2] - sp[1]
        by_name: dict[str, list[int]] = {}
        for i, sp in enumerate(spans):
            by_name.setdefault(sp[0], []).append(i)

        def outermost(i, names):
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] in names:
                    return False
                p = spans[p][3]
            return True

        out = {}
        for metric, (stat, *names) in METRICS.items():
            if stat == "constructed":
                out[metric] = self.constructed[names[0]]
                continue
            idx = [i for n in names for i in by_name.get(n, [])]
            notes = [spans[i][5] or 0 for i in idx]
            if stat == "calls":
                value = len(idx)
            elif stat == "self_ms":
                value = sum(spans[i][2] - spans[i][1] - child_ms[i] for i in idx) * 1000
            elif stat == "ms":
                value = sum(spans[i][2] - spans[i][1] for i in idx if outermost(i, set(names))) * 1000
            elif stat == "note_ratio":
                value = sum(notes) / len(idx) if idx else 0.0
            else:
                value = max(notes, default=0)
            out[metric] = value
        return out

    def write_spans(self, path: str) -> None:
        t0 = min((sp[1] for sp in self.spans), default=0.0)
        rows = [[n, round((a - t0) * 1e6), round((b - t0) * 1e6), p, i] for n, a, b, p, i, _ in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_us", "end_us", "parent", "input"], "spans": rows}, fh)
