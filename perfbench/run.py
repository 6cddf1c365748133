"""Time to a certified verdict on seeded devsurf workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of implicit-roundtrip, parametric-roundtrip, reject,
unsupported, or ``all``.  The inputs are generated from the seed (see
gen.py) and given to ``devsurf.cli.main`` in-process, one pass over them
per fresh interpreter (worker.py), passes repeated for about S seconds.
Every report is checked against the answer the input was built with
(check.py).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of layers.py with
``--trace 1``.  See README.md for what each metric should show.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# A pass is repeated at least this often.  It also fixes the tail
# percentile, so that a faster commit that fits more passes into the same
# time is not read at a different percentile.
MIN_PASSES = 3
PASS_TIMEOUT_S = 170
# set-up is also timed in this many empty passes after each pass, so that
# its median spans the whole run
SETUP_PROBES = 3
# Times are reported in reference seconds.  The speed of a shared machine
# drifts by 30 % and more within seconds, far beyond any useful regression
# bound.  worker.calibrate() samples it before the first input and after
# each one; an input's time is scaled by CAL_REF_MS over the mean of the
# two samples around it, set-up by CAL_REF_MS over the first sample.  On
# one seed, this cut the run-to-run spread of per-input times from 21 % to
# 5 %.  CAL_REF_MS is about calibrate() on a quiet 2-core x86-64 host, so
# scaled times are about that host's seconds.
CAL_REF_MS = 2.5

END_TO_END_UNITS = {
    "wall_s": "s",
    "verdict_ms.p50": "ms",
    "verdict_ms.tail": "ms",
    "verdict_ms.geomean": "ms",
    "correct_ratio": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def unit(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith((".calls", ".constructed")):
        return "count"
    if metric.endswith("ms"):
        return "ms"
    if metric.endswith("_max"):
        return "rows"
    return "fraction" if metric.endswith(("useful_ratio", "nontrivial_ratio")) else "ratio"


def run_pass(inputs, trace=False, spans=None) -> dict:
    """One pass in a fresh interpreter.  The hash seed is fixed so that
    set iteration orders, and with them the kernel counts, repeat."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    job = json.dumps({"inputs": inputs, "trace": trace, "spans": spans})
    spawned = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=job,
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass failed with exit code {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout)
    out["setup_s"] = out["ready"] - spawned
    return out


def scaled_ms(p) -> list[float]:
    """The pass's verdict times in reference milliseconds."""
    cal = p["cal_ms"]
    return [r["ms"] * 2 * CAL_REF_MS / (cal[i] + cal[i + 1]) for i, r in enumerate(p["results"])]


def scaled_setup_s(p) -> float:
    return p["setup_s"] * CAL_REF_MS / p["cal_ms"][0]


def pass_scale(p) -> float:
    return CAL_REF_MS / statistics.fmean(p["cal_ms"])


def tail_percentile(n_inputs: int) -> int:
    """Highest whole percentile with at least 10 of MIN_PASSES * n samples beyond it."""
    return math.floor(100 * (1 - 10 / (MIN_PASSES * n_inputs)))


def nearest_rank(sorted_values, pct: int) -> float:
    return sorted_values[max(1, math.ceil(pct / 100 * len(sorted_values))) - 1]


def grade(cases, passes, seed) -> tuple[int, int, float]:
    """(attempted, failed, correct_ratio); an input is correct only when it
    is correct in every pass."""
    from check import check

    failed = 0
    bad = set()
    for p in passes:
        for case, result in zip(cases, p["results"]):
            reason = check(case, result, seed)
            if reason is not None:
                failed += 1
                if case.name not in bad:
                    print(f"# INCORRECT {case.name}: {reason}", file=sys.stderr)
                bad.add(case.name)
    return len(cases) * len(passes), failed, 1 - len(bad) / len(cases)


def end_to_end(cases, passes, probes, correct_ratio) -> dict:
    times = [scaled_ms(p) for p in passes]
    pooled = sorted(ms for t in times for ms in t)
    per_input = [statistics.median(t[i] for t in times) for i in range(len(cases))]
    pct = tail_percentile(len(cases))
    print(f"# verdict_ms: {len(pooled)} pooled samples; tail is p{pct}")
    return {
        "wall_s": sum(per_input) / 1000,
        "verdict_ms.p50": statistics.median(pooled),
        "verdict_ms.tail": nearest_rank(pooled, pct),
        "verdict_ms.geomean": math.exp(statistics.fmean(math.log(ms) for ms in per_input)),
        "correct_ratio": correct_ratio,
        "setup_s": statistics.median(scaled_setup_s(p) for p in passes + probes),
        "peak_rss_mb": statistics.median(p["rss_kb"] / 1024 for p in passes),
    }


def per_layer(plain, traced) -> dict:
    from layers import COUNT_STATS, METRICS

    counters = [{m: t["layers"][m] for m, (stat, *_) in METRICS.items() if stat in COUNT_STATS} for t in traced]
    if counters[0] != counters[1]:
        diff = {m: (counters[0][m], counters[1][m]) for m in counters[0] if counters[0][m] != counters[1][m]}
        raise SystemExit(f"traced passes disagree on counters: {diff}")
    metrics = {
        m: counters[0][m] if m in counters[0] else statistics.fmean(t["layers"][m] * pass_scale(t) for t in traced)
        for m in METRICS
    }
    traced_ms = statistics.fmean(sum(scaled_ms(t)) for t in traced)
    metrics["trace.overhead_ratio"] = traced_ms / sum(scaled_ms(plain))
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import gen

    cases = gen.workload(name, seed)
    inputs = [c.argv() for c in cases]
    digest = hashlib.sha256(json.dumps(inputs).encode()).hexdigest()
    warm = run_pass([])  # byte-compiles devsurf once; users pay that only once
    print(f"# {name}: seed {seed}, {len(cases)} inputs, input sha256 {digest}")
    print(
        f"# python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"coefficients {warm['coeff_type']}, min passes {MIN_PASSES}, {seconds:g} s"
    )
    OUT.mkdir(exist_ok=True)
    if trace:
        spans = OUT / f"spans-{name}-{seed}.json"
        plain = run_pass(inputs)
        traced = [run_pass(inputs, True, str(spans)), run_pass(inputs, True)]
        passes, probes = [plain, *traced], []
        metrics = per_layer(plain, traced)
        print(f"# spans of the first traced pass: {spans.relative_to(ROOT)}")
    else:
        passes, probes = [], []
        started = time.perf_counter()
        while True:
            begun = time.perf_counter()
            passes.append(run_pass(inputs))
            probes += [run_pass([]) for _ in range(SETUP_PROBES)]
            now = time.perf_counter()
            # start another pass only if one more should still end in time
            if len(passes) >= MIN_PASSES and now - started + (now - begun) > seconds:
                break
    cal_ms = statistics.fmean(c for p in passes + probes for c in p["cal_ms"])
    print(f"# {len(passes)} passes; mean calibration {cal_ms:.3f} ms against {CAL_REF_MS} ms")
    attempted, failed, ratio = grade(cases, passes, seed)
    if not trace:
        metrics = end_to_end(cases, passes, probes, ratio)
    for m, value in metrics.items():
        print(f"{name:22s} {m:45s} {value:14.6f} {unit(m)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": unit(m)} for m, v in metrics.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "input_sha256": digest,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "coefficients": warm["coeff_type"],
        "mean_calibration_ms": cal_ms,
        **result,
        "per_input_median_ms_unscaled": {
            c.name: statistics.median(p["results"][i]["ms"] for p in passes) for i, c in enumerate(cases)
        },
    }
    (OUT / f"result-{name}-{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return result


def main(argv=None) -> int:
    # SystemExit unwinds through subprocess.run, which kills and reaps the pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(HERE))
    import gen

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "devsurf" / "cli.py").is_file():
        print(f"devsurf sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
