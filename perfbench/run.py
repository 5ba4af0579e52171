"""pavekit benchmark: seeded workloads, independent correctness gate, and
end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 25 --trace 0

Run from the root of a pavekit checkout; pavekit is imported from its
``src/``.  Each round of the workload runs in a fresh interpreter
(child.py), one at a time, with ``--workers 1`` and one BLAS thread.  Rounds
repeat until ``--seconds`` have passed and the workload's minimum round count
is met.  Outputs are checked by oracles.py in this process, outside every
timed region.

``--trace 0`` reports the end-to-end metrics, with times scaled to a
reference host (README.md, "Host drift"); ``--trace 1`` runs every round
twice, untraced and traced, and reports the per-layer metrics (see
README.md).  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  A full report, including an
environment fingerprint and every failure, goes to
``.bench_results/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

if __name__ == "__main__":
    # The parent only checks outputs; one BLAS thread keeps it from spinning
    # while a child is being timed.  Must precede the numpy import.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TAIL_PERCENTILE = 90
SETUP_SAMPLES = 9          # set-up measurements per run (rounds plus set-up-only starts)
START_DEADLINE_S = 150.0   # no round starts later than this ...
RUN_LIMIT_S = 170.0        # ... and none outlives this, so a run ends within 180 s
TRACED_MIN_ROUNDS = 2
# End-to-end times are reported in seconds of a reference host on which
# child.calibrate() and calibrate_numpy() each take this long (see README.md,
# "Host drift").
REFERENCE_CALIB_S = 0.010

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_ms_p50": "ms", "op_ms_tail": "ms",
    "peak_rss_mb": "MB", "success_rate": "ratio",
}

# Per-layer metrics reported by a traced run: name -> (unit, source), where
# source is ("span", span name, "calls" | "self_s"), ("counter", name), or
# ("per_call", span name, tag).
PER_LAYER = {}
for _name in ("linalg.operator_norm", "linalg.SymmetricMatrix", "paving.brute_force_min",
              "rearrange.greedy_rearrange", "linalg.random_projection", "cli.main"):
    PER_LAYER[_name + ".calls"] = ("count", ("span", _name, "calls"))
    PER_LAYER[_name + ".self_s"] = ("s", ("span", _name, "self_s"))
for _r in (3, 5, 7):
    PER_LAYER["linalg.operator_norm.us_per_call.r%d" % _r] = (
        "us", ("per_call", "linalg.operator_norm", _r))
for _name in ("paving.scan", "counterexample.verify_orthonormal",
              "counterexample.min_over_symmetries_v0", "counterexample.build_frame",
              "counterexample.delta_p_exact", "counterexample.row_norm_sq",
              "counterexample.float_projection", "rearrange.single_vector_symmetry"):
    PER_LAYER[_name + ".self_s"] = ("s", ("span", _name, "self_s"))
for _name in ("paving.symmetries_visited", "counterexample.gram_entries",
              "exact.QuadExt.mul_calls", "exact.QuadExt.add_calls",
              "counterexample.lattice_cells", "rearrange.greedy_steps"):
    PER_LAYER[_name] = ("count", ("counter", _name))
PER_LAYER["trace.overhead_s"] = ("s", None)
PER_LAYER["trace.unattributed_s"] = ("s", None)


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    # One BLAS thread: on a shared host, a second spinning BLAS thread made
    # the same matrix-vector loop vary by up to 9x between runs.
    threads = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        env[var] = threads
    return env


def fingerprint(root: str, blas_threads: int | None) -> dict:
    """Environment a result depends on: interpreter, numpy and its BLAS
    (with the thread count a timed child observed), CPUs, and the source
    revision when the checkout is a git repository."""
    blas = {}
    try:
        blas = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (TypeError, KeyError):
        pass
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit, dirty = None, None
    if shutil.which("git") and os.path.isdir(os.path.join(root, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
        try:
            commit = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], env=env,
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "-C", root, "status", "--porcelain", "--untracked-files=no"],
                env=env, capture_output=True, text=True, timeout=30, check=True).stdout.strip())
        except (subprocess.SubprocessError, OSError):
            commit, dirty = None, None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads},
        "nproc": cpu_count(),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "git_dirty": dirty,
    }


def calibrate_numpy() -> float:
    """Best-of-5 time of a fixed numpy kernel shaped like pavekit's
    ``greedy_rearrange``: per step, a row gather from a 600x300 matrix, a
    matrix-vector product and an argmin.  It follows the host's memory and
    BLAS speed, which the pure-Python kernel does not.  It runs in this
    process, just before and after a round, so that its arrays leave the
    timed process's peak RSS and allocator state untouched."""
    rows = np.random.default_rng(0).standard_normal((600, 300))
    best = float("inf")
    for _ in range(5):
        t = time.perf_counter()
        w = rows[0].copy()
        remaining = list(range(1, len(rows)))
        for _step in range(60):
            pick = int(np.argmin(rows[remaining] @ w))
            w += rows[remaining.pop(pick)]
        best = min(best, time.perf_counter() - t)
    return best


class Runner:
    """Spawns the child rounds of one workload and gates their outputs."""

    def __init__(self, root: str, workload: str, seed: int, sizes: dict):
        self.root, self.workload, self.seed, self.sizes = root, workload, seed, sizes
        self.started = time.monotonic()
        self.env = child_env(root)
        self.attempted = 0
        self.failures: list[dict] = []
        self.setup_s: list[float] = []      # scaled to the reference host
        self.raw_setup_s: list[float] = []  # as measured
        self.blas_threads: int | None = None  # as a timed child reports it

    def spawn(self, round_index: int, trace: bool = False, setup_only: bool = False) -> dict | None:
        spec = {"workload": self.workload, "seed": self.seed, "round": round_index,
                "sizes": self.sizes, "trace": trace, "setup_only": setup_only,
                "src": os.path.join(self.root, "src")}
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                                   json.dumps(spec)], env=self.env, cwd=self.root,
                                  capture_output=True, text=True,
                                  timeout=max(1.0, self.started + RUN_LIMIT_S - t_spawn))
        except subprocess.TimeoutExpired:
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            return None
        try:
            doc = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            return None
        raw = doc["setup_done"] - t_spawn
        self.raw_setup_s.append(raw)
        self.setup_s.append(raw * REFERENCE_CALIB_S / doc["calib_s"][0])
        return doc

    def round(self, round_index: int, trace: bool = False) -> dict | None:
        """Run and gate one round; returns the child's report (None if it died)."""
        ops = workloads.make_round(self.workload, self.seed, round_index, self.sizes)
        self.attempted += len(ops)
        calib_numpy = [calibrate_numpy()]
        doc = self.spawn(round_index, trace=trace)
        calib_numpy.append(calibrate_numpy())
        if doc is None:
            self.failures.append({"round": round_index, "trace": trace,
                                  "reasons": ["round process failed or timed out"],
                                  "ops": len(ops)})
            return None
        self.blas_threads = doc["blas_threads"]
        doc["calib_numpy_s"] = calib_numpy
        for i, (op, out) in enumerate(zip(ops, doc["outputs"])):
            reasons = oracles.check(op, out)
            if reasons:
                self.failures.append({"round": round_index, "trace": trace, "op": i,
                                      "input": op, "reasons": reasons})
        return doc

    @property
    def failed(self) -> int:
        return sum(f.get("ops", 1) for f in self.failures)


def host_speed(workload: str, doc: dict) -> float:
    """A round's calibration time: the fastest time of each kernel, weighted
    geometrically by the workload's share of pure-Python work."""
    share = workloads.PYTHON_SHARE[workload]
    return min(doc["calib_s"]) ** share * min(doc["calib_numpy_s"]) ** (1.0 - share)


def end_to_end(runner: Runner, docs: list[dict]) -> tuple[dict, dict]:
    """End-to-end values, each time scaled by its round's host speed."""
    speeds = [host_speed(runner.workload, d) for d in docs]
    scale = [REFERENCE_CALIB_S / c for c in speeds]
    latencies = np.array([x * f for d, f in zip(docs, scale) for x in d["latency_ms"]])
    raw = np.array([x for d in docs for x in d["latency_ms"]])
    p50, tail = (float(x) for x in np.percentile(latencies, [50, TAIL_PERCENTILE]))
    values = {
        "setup_s": statistics.median(runner.setup_s),
        "wall_s": statistics.median(d["wall_s"] * f for d, f in zip(docs, scale)),
        "op_ms_p50": p50,
        "op_ms_tail": tail,
        "peak_rss_mb": max(d["rss_kb"] for d in docs) / 1024.0,
        "success_rate": (runner.attempted - runner.failed) / runner.attempted,
    }
    notes = {"op_ms_tail": "p%d of %d ops, %d beyond it"
             % (TAIL_PERCENTILE, len(latencies), int((latencies > tail).sum())),
             "rounds": len(docs), "setup_samples": len(runner.setup_s),
             "error_rate": runner.failed / runner.attempted,
             "calib_s_median": statistics.median(speeds),
             "unscaled": {"setup_s": statistics.median(runner.raw_setup_s),
                          "wall_s": statistics.median(d["wall_s"] for d in docs),
                          "op_ms_p50": float(np.percentile(raw, 50)),
                          "op_ms_tail": float(np.percentile(raw, TAIL_PERCENTILE)),
                          "round_wall_s": [d["wall_s"] for d in docs]}}
    return values, notes


def per_layer(pairs: list[tuple[dict, dict]]) -> tuple[dict, dict]:
    """Per-round per-layer values, median over the traced rounds."""
    per_round = []
    for _plain, traced in pairs:
        totals = spans.layer_totals(traced["spans"])
        row = {}
        for name, (_unit, source) in PER_LAYER.items():
            if source is None:
                continue
            if source[0] == "span":
                row[name] = totals.get(source[1], {}).get(source[2], 0)
            elif source[0] == "counter":
                row[name] = traced["counters"].get(source[1], 0)
            else:
                calls, total = totals.get(source[1], {}).get("by_tag", {}).get(source[2], (0, 0.0))
                row[name] = total / calls * 1e6 if calls else 0.0
        row["trace.unattributed_s"] = traced["wall_s"] - spans.root_time(traced["spans"])
        per_round.append(row)
    # Counts repeat exactly, so median_low keeps them whole numbers.
    values = {name: (statistics.median_low if PER_LAYER[name][0] == "count"
                     else statistics.median)(r[name] for r in per_round)
              for name in per_round[0]}
    values["trace.overhead_s"] = (statistics.median(t["wall_s"] for _p, t in pairs)
                                  - statistics.median(p["wall_s"] for p, _t in pairs))
    counts = {k: sorted({r[k] for r in per_round}) for k in values
              if PER_LAYER[k][0] == "count"}
    return values, {"rounds": len(pairs), "distinct_counts_across_rounds": counts}


def measure(root: str, workload: str, seed: int, seconds: float, trace: bool,
            sizes: dict = workloads.FULL, setup_samples: int = SETUP_SAMPLES) -> dict:
    """Run one benchmark measurement; returns the report (see module doc)."""
    runner = Runner(root, workload, seed, sizes)
    runner.spawn(0, setup_only=True)  # fill bytecode caches before timing
    runner.setup_s.clear()
    min_rounds = TRACED_MIN_ROUNDS if trace else sizes[workload]["min_rounds"]
    min_rounds = min(min_rounds, sizes[workload]["min_rounds"])
    t0 = runner.started
    docs, pairs = [], []
    r = 0
    while (r < min_rounds or time.monotonic() - t0 < seconds) \
            and time.monotonic() - t0 < START_DEADLINE_S:
        plain = runner.round(r)
        traced = runner.round(r, trace=True) if trace else None
        if plain is not None:
            docs.append(plain)
            if traced is not None:
                pairs.append((plain, traced))
        r += 1
    while (not trace and len(runner.setup_s) < setup_samples
           and time.monotonic() - t0 < START_DEADLINE_S):
        runner.spawn(0, setup_only=True)

    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "attempted": runner.attempted, "failed": runner.failed,
              "failures": runner.failures, "fingerprint": fingerprint(root, runner.blas_threads)}
    if trace and pairs:
        report["metrics"], report["notes"] = per_layer(pairs)
        report["spans"] = {"names": ["name", "start", "end", "parent", "op_id", "tag"],
                           "round0": pairs[0][1]["spans"]}
    elif not trace and docs:
        report["metrics"], report["notes"] = end_to_end(runner, docs)
    else:
        report["metrics"], report["notes"] = {}, {"rounds": 0}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pavekit", "__init__.py")):
        print("error: run from a pavekit checkout (no src/pavekit in %s)" % root, file=sys.stderr)
        return 2
    report = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    if not report["metrics"]:
        print("error: no round completed", file=sys.stderr)
        return 1

    out_dir = os.path.join(root, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)

    units = {k: u for k, (u, _s) in PER_LAYER.items()} if args.trace else END_TO_END_UNITS
    print("fingerprint: " + json.dumps(report["fingerprint"], sort_keys=True))
    print("notes: " + json.dumps(report["notes"], sort_keys=True))
    for name, value in report["metrics"].items():
        print("%-48s %18.9g %s" % (name, value, units[name]))
    for failure in report["failures"][:10]:
        print("FAILED: " + json.dumps(failure, sort_keys=True))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
