"""One benchmark pass, run in a fresh interpreter.

Reads {"inputs": [argv, ...], "trace": bool, "spans": path|null} as JSON
on stdin, calls ``devsurf.cli.main(argv)`` for each input in order and
writes one JSON object to stdout: the time the imports finished, each
input's exit code, report text and verdict time, the calibration times
taken before the first input and after each one, and the peak RSS.  With tracing on, the per-layer summary is added and the
spans are written to the given path.
"""

import time

import devsurf  # noqa: F401  (import cost is part of set-up)
import devsurf.cli

READY = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402


def calibrate() -> float:
    """Seconds for a fixed slice of Fraction and dict work of the kind
    devsurf's kernel does; the machine's speed at this moment."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(1, 126):
        a = Fraction(i, i + 7)
        for j in range(4):
            key = (i % 11, j)
            acc[key] = acc.get(key, 0) + a * Fraction(j + 1, 3)
    return time.perf_counter() - t0


def peak_rss_kb() -> int:
    """High-water RSS of this process image.  ru_maxrss would also count
    the parent's RSS at fork, which Linux carries across exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    cal = [calibrate()]
    for i, argv in enumerate(job["inputs"]):
        if tracer is not None:
            tracer.input_id = i
        buf = io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = devsurf.cli.main(argv)
        except (Exception, SystemExit) as err:  # counted as incorrect, never fatal
            code, error = None, f"{type(err).__name__}: {err}"
        ms = (time.perf_counter() - t0) * 1000
        results.append({"ms": ms, "exit": code, "out": buf.getvalue(), "error": error})
        cal.append(calibrate())
    out = {
        "ready": READY,
        "cal_ms": [c * 1000 for c in cal],
        "rss_kb": peak_rss_kb(),
        "coeff_type": f"{devsurf.poly.Q.__module__}.{devsurf.poly.Q.__qualname__}",
        "results": results,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.summary()
        if job.get("spans"):
            tracer.write_spans(job["spans"])
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
