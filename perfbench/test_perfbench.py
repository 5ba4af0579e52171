"""The benchmark's own tests: self-time arithmetic, tracer installation, the
correctness gate against injected faults, and a tiny-size smoke run of
every workload.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import copy
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children A [1, 4], B [5, 7] and C [8, 9]; A has a
    # child [2, 3].  A second root [20, 21] has no children.
    tree = [
        ["root", 0.0, 10.0, -1, 0, None],
        ["A", 1.0, 4.0, 0, 0, None],
        ["A.child", 2.0, 3.0, 1, 0, None],
        ["B", 5.0, 7.0, 0, 0, None],
        ["C", 8.0, 9.0, 0, 0, 7],
        ["root", 20.0, 21.0, -1, 1, None],
    ]
    assert spans.self_times(tree) == [4.0, 2.0, 1.0, 2.0, 1.0, 1.0]
    totals = spans.layer_totals(tree)
    assert totals["root"]["calls"] == 2 and totals["root"]["self_s"] == 5.0
    assert totals["C"]["by_tag"] == {7: (1, 1.0)}
    assert spans.root_time(tree) == 11.0


def test_tracer_wraps_cross_module_names_and_restores_them():
    import numpy as np

    import pavekit.paving as paving
    from pavekit.linalg import OrthonormalFrame, Projection, SymmetricMatrix

    original_norm = paving.operator_norm
    original_init = SymmetricMatrix.__init__
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert paving.operator_norm is not original_norm
        p = Projection(OrthonormalFrame(np.eye(5)[:2]))
        paving.brute_force_min(p)
    finally:
        tracer.uninstall()
    assert paving.operator_norm is original_norm
    assert SymmetricMatrix.__init__ is original_init
    totals = spans.layer_totals(tracer.spans)
    assert totals["linalg.operator_norm"]["calls"] == 16
    assert totals["linalg.SymmetricMatrix"]["calls"] == 16
    assert totals["linalg.operator_norm"]["by_tag"][2][0] == 16
    assert tracer.counters["paving.symmetries_visited"] == 16
    assert all(s[3] == -1 for s in tracer.spans if s[0] == "paving.brute_force_min")


def _tiny_outputs(workload):
    """Real outputs of one tiny round, produced in this process."""
    import pavekit
    import pavekit.cli  # noqa: F401

    ops = workloads.make_round(workload, 5, 0, workloads.TINY)
    outs = [workloads.decode_output(op, workloads.run_op(pavekit, op, workloads.prepare(op)))
            for op in ops]
    return ops, outs


def _perturb_scan(out):
    out["body"][0]["min_psp_norm"] += 1e-3


def _perturb_certify(out):
    out["body"][0]["verdict"] = "INCONCLUSIVE"


def _perturb_construct(out):
    out["body"]["orthonormal"] = False


def _perturb_balance(out):
    out["result"]["achieved_norm"] *= 1.01


@pytest.mark.parametrize("workload, kind, perturb", [
    ("exhaustive", "scan_record", _perturb_scan),
    ("certificate", "certify", _perturb_certify),
    ("certificate", "construct", _perturb_construct),
    ("balance", "balance_v0", _perturb_balance),
])
def test_gate_catches_and_counts_an_injected_wrong_answer(workload, kind, perturb, monkeypatch):
    ops, outs = _tiny_outputs(workload)
    assert all(oracles.check(op, out) == [] for op, out in zip(ops, outs))
    at = next(i for i, op in enumerate(ops) if op["kind"] == kind
              and (kind != "certify" or op["m"] >= 8))
    bad = copy.deepcopy(outs)
    perturb(bad[at])
    assert oracles.check(ops[at], bad[at])

    runner = run.Runner(ROOT, workload, 5, workloads.TINY)
    doc = {"setup_done": 0.0, "wall_s": 1.0, "latency_ms": [1.0] * len(ops),
           "outputs": bad, "rss_kb": 1024, "calib_s": [0.02, 0.04],
           "blas_threads": 1}
    monkeypatch.setattr(runner, "spawn", lambda *a, **k: doc)
    monkeypatch.setattr(run, "calibrate_numpy", lambda: 0.02)
    runner.round(0)
    assert (runner.attempted, runner.failed) == (len(ops), 1)
    runner.setup_s.append(0.1)
    runner.raw_setup_s.append(0.1)
    values, notes = run.end_to_end(runner, [doc])
    assert values["success_rate"] == pytest.approx(1 - 1 / len(ops))
    assert notes["error_rate"] == pytest.approx(1 / len(ops))
    # Times are scaled by REFERENCE_CALIB_S / the round's fastest calibrations.
    assert values["wall_s"] == pytest.approx(0.5) and notes["unscaled"]["wall_s"] == 1.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run(workload):
    plain = run.measure(ROOT, workload, 3, 0, False, workloads.TINY, setup_samples=1)
    assert plain["failed"] == 0 and plain["attempted"] > 0
    assert set(plain["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(v > 0 for v in plain["metrics"].values())
    traced = run.measure(ROOT, workload, 3, 0, True, workloads.TINY, setup_samples=1)
    assert traced["failed"] == 0
    assert set(traced["metrics"]) == set(run.PER_LAYER)
    assert traced["metrics"]["cli.main.calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "balance", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
