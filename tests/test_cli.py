import argparse
import json
import subprocess
import sys
import time

import pytest

from pavekit import __version__, cli


def run_cli(*args):
    """``python -m pavekit`` in a fresh interpreter: the shell entry point."""
    proc = subprocess.run(
        [sys.executable, "-m", "pavekit", *args],
        capture_output=True,
        text=True,
    )
    return proc


def run_main(capsys, *args):
    """``cli.main`` in this process, captured into the shape ``run_cli`` returns."""
    code = cli.main(list(args))
    out = capsys.readouterr()
    return subprocess.CompletedProcess(args, code, out.out, out.err)


def scrub_timing(obj):
    """Zero out timing fields anywhere in a parsed report."""
    if isinstance(obj, dict):
        return {
            k: (0.0 if k == "runtime_ms" else scrub_timing(v)) for k, v in obj.items()
        }
    if isinstance(obj, list):
        return [scrub_timing(x) for x in obj]
    return obj


def test_construct_m6():
    proc = run_cli("construct", "--m", "6")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["tool"] == "pavekit"
    assert doc["command"] == "construct"
    rep = doc["report"]
    assert rep["dimension"] == 764
    assert rep["orthonormal"] is True
    assert rep["delta_p"]["exact"] == "2/49"
    assert rep["row_norm_sq"]["b"]["exact"] == "2/49"
    assert rep["row_norm_sq"]["d"]["exact"] == "5/252"


def test_construct_m12_is_orthonormal(capsys):
    proc = run_main(capsys, "construct", "--m", "12")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["report"]["orthonormal"] is True


def test_construct_usage_error_on_small_m(capsys):
    proc = run_main(capsys, "construct", "--m", "1")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "m must be" in proc.stderr


@pytest.mark.parametrize("args", [
    ["certify", "--m", "1..3"], ["certify", "--m", "2.5"], ["certify", "--m", "True"],
    ["construct", "--m", "2.5"],
])
def test_m_that_is_no_integer_of_at_least_2_exits_1(args, capsys):
    proc = run_main(capsys, *args)
    assert proc.returncode == 1
    assert proc.stdout == ""


def test_certify_range_with_falsification(capsys):
    proc = run_main(capsys, "certify", "--m", "6..9")
    assert proc.returncode == 0
    results = json.loads(proc.stdout)["results"]
    verdicts = {r["m"]: r["verdict"] for r in results}
    assert verdicts[6] == "INCONCLUSIVE"
    assert verdicts[7] == "INCONCLUSIVE"
    assert verdicts[8] == "FALSIFIES_A"
    assert verdicts[9] == "FALSIFIES_A"


def test_certify_inconclusive_range_exit_code(capsys):
    proc = run_main(capsys, "certify", "--m", "6..7")
    assert proc.returncode == 3


def test_certify_single_m8_values(capsys):
    proc = run_main(capsys, "certify", "--m", "8..8")
    assert proc.returncode == 0
    (result,) = json.loads(proc.stdout)["results"]
    assert result["min_norm_sq"] == "2/729"
    assert result["two_delta_p"] == "4/81"


def test_certify_byte_identical_across_runs_and_workers(capsys):
    base = run_main(capsys, "certify", "--m", "6..9").stdout
    again = run_main(capsys, "certify", "--m", "6..9").stdout
    assert base == again
    pooled = run_main(capsys, "certify", "--m", "6..9", "--workers", "4")
    assert pooled.returncode == 0
    # worker count is echoed in flags; the results must match exactly
    assert json.loads(pooled.stdout)["results"] == json.loads(base)["results"]


def test_certify_rejects_zero_workers(capsys):
    proc = run_main(capsys, "certify", "--m", "6..6", "--workers", "0")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "workers must be >= 1" in proc.stderr


def test_bruteforce_record(capsys):
    proc = run_main(capsys, "bruteforce", "--n", "10", "--rank", "5", "--seed", "7")
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)["record"]
    assert rec["seed"] == 7
    assert rec["n"] == 10 and rec["rank"] == 5
    assert rec["min_psp_norm"] <= rec["two_delta_p"] + 1e-9
    assert len(rec["argmin_signs"]) == 10


def test_bruteforce_cap_refusal_names_flag(capsys):
    proc = run_main(capsys, "bruteforce", "--n", "30", "--rank", "5", "--seed", "7")
    assert proc.returncode == 1
    assert "--max-n" in proc.stderr


def test_bruteforce_cap_checked_before_the_draw(capsys):
    # refused before random_projection, which would draw and factor a
    # 2500 x 5000 block
    start = time.perf_counter()
    assert cli.main(["bruteforce", "--n", "5000", "--rank", "2500", "--seed", "1"]) == 1
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr()
    assert out.out == "" and "--max-n" in out.err


def test_balance_report_respects_bound(capsys):
    proc = run_main(capsys, "balance", "--n", "20", "--rank", "8", "--seed", "7")
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)["report"]
    assert rep["achieved_norm"] <= rep["bound"] + 1e-9
    assert len(rep["signs"]) == 20
    assert sorted(rep["permutation"]) == list(range(20))


def test_scan_json_deterministic_across_workers(capsys):
    args = ("scan", "--n", "8", "--rank", "4", "--count", "6", "--seed", "1")
    a = run_main(capsys, *args)
    b = run_main(capsys, *args, "--workers", "4")
    assert a.returncode == 0 and b.returncode == 0
    da, db = json.loads(a.stdout), json.loads(b.stdout)
    assert scrub_timing(da["records"]) == scrub_timing(db["records"])


def test_scan_csv_shape(capsys):
    proc = run_main(
        capsys, "scan", "--n", "8", "--rank", "4", "--count", "5", "--seed", "1",
        "--format", "csv",
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("# ")
    header = json.loads(lines[0][2:])
    assert header["flags"]["seed"] == 1
    assert lines[1].split(",")[0] == "seed"
    assert len(lines) == 2 + 5


def test_scan_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    proc = run_main(
        capsys, "scan", "--n", "6", "--rank", "3", "--count", "2", "--seed", "2",
        "--output", str(out),
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
    doc = json.loads(out.read_text())
    assert len(doc["records"]) == 2


def test_reports_embed_version_and_flags(capsys):
    proc = run_main(capsys, "certify", "--m", "6..6")
    doc = json.loads(proc.stdout)
    assert doc["version"]
    assert doc["flags"]["m"] == "6..6"
    assert doc["flags"]["workers"] == 1


def test_unknown_command_is_usage_error():
    proc = run_cli("frobnicate")
    assert proc.returncode == 1


def test_scan_rejects_non_finite_conjectureB_parameters(capsys):
    proc = run_main(capsys, "scan", "--n", "4", "--rank", "2", "--count", "1", "--seed", "1",
                    "--gamma", "nan", "--epsilon", "nan")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "gamma must be finite" in proc.stderr


@pytest.mark.parametrize("args, message", [
    (["--n", "0", "--rank", "0", "--count", "1", "--seed", "1"], "n must be >= 1"),
    (["--n", "10", "--rank", "5", "--count", "2", "--seed", "-1"], "seed must be >= 0"),
])
def test_scan_rejects_inputs_every_instance_would_fail_on(args, message, capsys):
    assert cli.main(["scan", *args]) == 1
    out = capsys.readouterr()
    assert out.out == "" and message in out.err


def test_usage_errors_help_and_version_return_their_code_in_process(capsys):
    # argparse exits; main turns that into a return value like every other
    # outcome, so in-process callers never see SystemExit.
    proc = run_main(capsys, "frobnicate")
    assert proc.returncode == 1
    assert proc.stdout == "" and "invalid choice" in proc.stderr
    proc = run_main(capsys, "certify")
    assert proc.returncode == 1
    assert proc.stdout == "" and "--m" in proc.stderr
    proc = run_main(capsys, "--version")
    assert proc.returncode == 0
    assert proc.stdout == "pavekit %s\n" % __version__
    proc = run_main(capsys, "certify", "-h")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: pavekit certify")


def scrub_output(text):
    """A report with runtime_ms zeroed: JSON, scan CSV, or other text as is."""
    if text.startswith("{"):
        return scrub_timing(json.loads(text))
    if text.startswith("# "):  # scan CSV: JSON header line, column names, rows
        rows = [line.split(",") for line in text.splitlines()]
        col = rows[1].index("runtime_ms")
        for row in rows[2:]:
            row[col] = "0"
        return rows
    return text


MIXED_ARGVS = [
    ["scan", "--n", "6", "--rank", "3", "--count", "2", "--seed", "4",
     "--gamma", "0.75", "--epsilon", "0.1", "--format", "csv"],
    ["scan", "--n", "6", "--rank", "3", "--count", "2", "--seed", "4",
     "--gamma", "0.75", "--epsilon", "0.1"],
    ["scan", "--n", "5", "--rank", "2", "--count", "2", "--seed", "1", "--mode", "balance"],
    ["certify", "--m", "6..8"],
    ["certify"],
    ["balance", "--n", "20", "--rank", "8", "--seed", "3"],
    ["bruteforce", "--n", "8", "--rank", "3", "--seed", "5"],
    ["construct", "--m", "4"],
    ["--version"],
    ["certify", "--m", "7..7", "--workers", "0"],
    ["frobnicate"],
    ["certify", "--m", "8..8"],  # after a --workers run: no option value carries over
]


def test_shared_parser_matches_a_fresh_parser_per_call(capsys, monkeypatch):
    def outcomes():
        seen = []
        for argv in MIXED_ARGVS:
            proc = run_main(capsys, *argv)
            seen.append((proc.returncode, scrub_output(proc.stdout), proc.stderr))
        return seen

    shared = outcomes()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = outcomes()
    for argv, got, want in zip(MIXED_ARGVS, shared, fresh):
        assert got == want, argv
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0]


def test_main_builds_its_parser_once_per_process(capsys, monkeypatch):
    cli._parser.cache_clear()  # as in a process that has not called main yet
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    per_call = []
    for argv in (["certify", "--m", "6..6"], ["certify"], ["--version"],
                 ["construct", "--m", "2"], ["certify", "--m", "8..8"]):
        before = len(built)
        cli.main(argv)
        per_call.append(len(built) - before)
    capsys.readouterr()
    # The top-level parser and one per subcommand, all on the first call.
    assert per_call == [6, 0, 0, 0, 0]
