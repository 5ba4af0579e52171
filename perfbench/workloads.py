"""Workload definitions: seeded inputs, and the operations a round performs.

A *round* is a fixed batch of operations run in one fresh interpreter (see
child.py).  ``make_round`` turns (workload, seed, round index, sizes) into
plain-JSON inputs; the parent process calls it again to know what each
output must satisfy, so the program under test never sees the seed itself,
only the generated inputs.  ``run_op`` performs one operation through the
public API or ``pavekit.cli.main`` and returns its raw output; decoding
happens after the timed region (``decode_output``).
"""

from __future__ import annotations

import contextlib
import io
import json
import random

WORKLOADS = ("exhaustive", "certificate", "balance")

# Share of the pure-Python calibration kernel in each workload's host-speed
# estimate; the rest is the numpy kernel (run.py, README.md "Host drift").
# Chosen by which mix made ten-run spreads smallest on the 2-vCPU build VM:
# the numpy kernel alone for balance (numpy row gathers and matrix-vector
# products) and, perhaps surprisingly, for certificate (exact arithmetic in
# Python); an equal mix for exhaustive (small LAPACK calls wrapped in Python).
PYTHON_SHARE = {"exhaustive": 0.5, "certificate": 0.0, "balance": 0.0}

# Sizes of one round.  ``min_rounds`` keeps at least 100 operations in an
# untraced run, so that p90 (the reported tail) has >= 10 operations beyond
# it on every workload; the tail percentile is fixed rather than chosen per
# run, so that runs with different operation counts stay comparable.  Each
# round's mix puts p50 and p90 inside one kind of operation, never on the
# boundary between two kinds: exhaustive has equal thirds per rank (p50 in
# rank 5, p90 in rank 7); balance has one counterexample construction per
# five CLI instances (p50 in the CLI instances, p90 in the counterexample
# share of 1/6); certificate's per-m costs rise smoothly with m.
FULL = {
    "exhaustive": {"n": 10, "ranks": [3, 5, 7], "per_rank": 4, "gamma": 0.75,
                   "epsilon": 0.1, "min_rounds": 9},
    "certificate": {"construct_m": 14, "certify_lo": 6, "certify_hi": 32, "min_rounds": 4},
    "balance": {"v0_m": 6, "n": 256, "rank": 128, "count": 5, "min_rounds": 17},
}

# Smallest sizes that still exercise every operation kind and oracle; used by
# the benchmark's own tests.
TINY = {
    "exhaustive": {"n": 6, "ranks": [2, 3, 4], "per_rank": 1, "gamma": 0.75,
                   "epsilon": 0.1, "min_rounds": 1},
    "certificate": {"construct_m": 4, "certify_lo": 6, "certify_hi": 9, "min_rounds": 1},
    "balance": {"v0_m": 4, "n": 16, "rank": 8, "count": 2, "min_rounds": 1},
}


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    # String seeding hashes with SHA-512: stable across runs and platforms.
    return random.Random("%s/%d/%d" % (workload, seed, round_index))


def make_round(workload: str, seed: int, round_index: int, sizes: dict) -> list[dict]:
    """The operations of one round, each a JSON-able dict with a ``kind``."""
    cfg = sizes[workload]
    if workload == "exhaustive":
        rng = _rng(workload, seed, round_index)
        ops = [
            {"kind": "scan_record", "n": cfg["n"], "rank": r,
             "seed": rng.randrange(1 << 31), "gamma": cfg["gamma"], "epsilon": cfg["epsilon"]}
            for r in cfg["ranks"] for _ in range(cfg["per_rank"])
        ]
        rng.shuffle(ops)
        return ops
    if workload == "certificate":
        # The paper's construction has no random inputs: every seed runs the
        # same operations.  The order is fixed (construct first, then m
        # ascending) so the frame cache behaves identically in every round.
        ops = [{"kind": "construct", "m": cfg["construct_m"]}]
        ops += [{"kind": "certify", "m": m}
                for m in range(cfg["certify_lo"], cfg["certify_hi"] + 1)]
        return ops
    if workload == "balance":
        rng = _rng(workload, seed, round_index)
        ops = [{"kind": "balance_v0", "m": cfg["v0_m"]}]
        ops += [{"kind": "balance_cli", "n": cfg["n"], "rank": cfg["rank"],
                 "seed": rng.randrange(1 << 31)} for _ in range(cfg["count"])]
        return ops
    raise ValueError("unknown workload %r" % workload)


def counterexample_v0(m: int):
    """The unit vector v_0 of the construction: 1/(m+1) on the a and b blocks
    (the first m^2 + 2m + 1 coordinates of the canonical a|b|c|d order)."""
    import numpy as np

    n = 2 * m**3 + 8 * m**2 + 7 * m + 2
    v = np.zeros(n)
    v[: m * m + 2 * m + 1] = 1.0 / (m + 1)
    return v


def prepare(op: dict) -> dict:
    """Input generation for one operation (runs in the set-up phase)."""
    if op["kind"] == "scan_record":
        argv = ["scan", "--n", str(op["n"]), "--rank", str(op["rank"]), "--count", "1",
                "--seed", str(op["seed"]), "--gamma", repr(op["gamma"]),
                "--epsilon", repr(op["epsilon"]), "--workers", "1"]
        return {"argv": argv}
    if op["kind"] == "construct":
        return {"argv": ["construct", "--m", str(op["m"])]}
    if op["kind"] == "certify":
        return {"argv": ["certify", "--m", "%d..%d" % (op["m"], op["m"]), "--workers", "1"]}
    if op["kind"] == "balance_cli":
        return {"argv": ["balance", "--n", str(op["n"]), "--rank", str(op["rank"]),
                         "--seed", str(op["seed"])]}
    if op["kind"] == "balance_v0":
        return {"v0": counterexample_v0(op["m"])}
    raise ValueError("unknown operation kind %r" % op["kind"])


def run_op(pavekit_modules, op: dict, prepared: dict):
    """Perform one operation; returns its raw output (decoded later)."""
    if "argv" in prepared:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pavekit_modules.cli.main(prepared["argv"])
        return code, out.getvalue()
    p = pavekit_modules.counterexample.float_projection(op["m"])
    return pavekit_modules.rearrange.single_vector_symmetry(p, prepared["v0"])


# Where each CLI command puts its payload in the JSON envelope.
_PAYLOAD = {"scan_record": "records", "construct": "report", "certify": "results",
            "balance_cli": "report"}


def decode_output(op: dict, raw) -> dict:
    """Raw output to the JSON-able form the oracles check."""
    if op["kind"] == "balance_v0":
        return {"result": raw.to_json_dict()}
    code, text = raw
    body = json.loads(text)[_PAYLOAD[op["kind"]]] if text else None
    return {"exit_code": code, "body": body}
