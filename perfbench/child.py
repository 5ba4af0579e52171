"""One round of a workload in a fresh interpreter.

Usage (run by run.py, not by hand): ``python3 child.py SPEC_JSON``.  SPEC
names the workload, seed, round index, sizes, the expected ``src`` directory
of pavekit, and whether to trace or only set up.  The child prints one JSON
object: the monotonic time at which set-up finished, the calibration
kernel's time after set-up (and after the operations), then (unless set-up
only) per-operation latencies and decoded outputs, the round's wall time,
peak RSS, the BLAS thread count and, when traced, its spans and counters.

Set-up is: interpreter start, ``import pavekit`` and input generation.  The
timed region runs the round's operations back to back; decoding outputs and
serialising spans happen after it.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from fractions import Fraction


def calibrate() -> float:
    """Best-of-5 time of a fixed pure-Python kernel: float and integer
    arithmetic, ``Fraction`` sums and dict updates, the kinds of work
    pavekit's hot paths do.  run.py divides by it to take out the host's
    speed drift (see README.md)."""
    best = float("inf")
    for _ in range(5):
        t = time.perf_counter()
        x, acc = 0.0, 0
        for i in range(40000):
            x = x * 0.5 + i
            acc += i * i % 7
        frac = Fraction(0)
        for k in range(1, 300):
            frac += Fraction(1, k * (k + 1))
        counts: dict[int, int] = {}
        for k in range(20000):
            counts[k % 509] = counts.get(k % 509, 0) + k
        best = min(best, time.perf_counter() - t)
    return best


def peak_rss_kb() -> int:
    """This process's own peak RSS.  ``ru_maxrss`` alone would not do: Linux
    carries the parent's high-water mark into it across exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None when no loaded
    library answers (another BLAS, or no ``/proc``)."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "blas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            query = getattr(lib, symbol, None)
            if query is not None:
                return int(query())
    return None


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    import numpy  # noqa: F401  (part of the set-up every pavekit user pays)

    import pavekit
    import pavekit.cli
    import pavekit.counterexample
    import pavekit.rearrange

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(pavekit.__file__).startswith(src + os.sep):
        print("pavekit imported from %s, expected %s" % (pavekit.__file__, src), file=sys.stderr)
        return 3

    import workloads

    ops = workloads.make_round(spec["workload"], spec["seed"], spec["round"], spec["sizes"])
    prepared = [workloads.prepare(op) for op in ops]
    setup_done = time.monotonic()
    calib = [calibrate()]
    if spec["setup_only"]:
        print(json.dumps({"setup_done": setup_done, "calib_s": calib}))
        return 0

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    raws, errors, latencies = [], [], []
    t_round = time.perf_counter()
    for i, (op, prep) in enumerate(zip(ops, prepared)):
        t0 = time.perf_counter()
        raw, err = None, None
        try:
            if tracer is None:
                raw = workloads.run_op(pavekit, op, prep)
            else:
                with tracer.op(op["kind"], i):
                    raw = workloads.run_op(pavekit, op, prep)
        except Exception as exc:  # a failed operation is data, not a crash
            err = "%s: %s" % (type(exc).__name__, exc)
        latencies.append((time.perf_counter() - t0) * 1000.0)
        raws.append(raw)
        errors.append(err)
    wall_s = time.perf_counter() - t_round
    calib.append(calibrate())
    if tracer is not None:
        tracer.uninstall()

    outputs = []
    for op, raw, err in zip(ops, raws, errors):
        if err is None:
            try:
                outputs.append(workloads.decode_output(op, raw))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                outputs.append({"error": "undecodable output: %s" % exc})
        else:
            outputs.append({"error": err})

    doc = {
        "setup_done": setup_done,
        "wall_s": wall_s,
        "latency_ms": latencies,
        "outputs": outputs,
        "rss_kb": peak_rss_kb(),
        "calib_s": calib,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        doc["spans"] = tracer.spans
        doc["counters"] = dict(tracer.counters)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
