import argparse
import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time
import tracemalloc
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pavekit import __version__, cli, paving


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
    # like every other command, construct checks its input before its first
    # progress line: the refusal is the one line on stderr
    proc = run_main(capsys, "construct", "--m", "1")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: m must be an integer >= 2, got 1\n"


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 7.45 GiB for an array"),
     "error: Unable to allocate 7.45 GiB for an array\n"),
    (MemoryError(), "error: MemoryError\n"),
])
def test_out_of_memory_exits_1_with_an_error_line(error, line, capsys, monkeypatch):
    def draw(n, r, seed):
        raise error

    monkeypatch.setattr(cli, "random_projection", draw)
    for args in (["balance", "--n", "1000000000", "--rank", "1", "--seed", "1"],
                 ["bruteforce", "--n", "20", "--rank", "10", "--seed", "1"]):
        proc = run_main(capsys, *args)
        assert proc.returncode == 1
        assert proc.stdout == "" and proc.stderr == line


@pytest.mark.parametrize("m", [1290, 1600])
def test_construct_refuses_m_past_the_int64_bound_before_building(m, capsys):
    # build_frame's R and D arrays grow as m^2: about 500 MB at m = 1600;
    # the refusal is the one line on stderr, with no progress line before it
    tracemalloc.start()
    try:
        code = cli.main(["construct", "--m", str(m)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err == "error: the int64 Gram check is exact up to m = 1289, got m=%d\n" % m
    assert peak < 5 << 20


NO_M_RANGE = "error: --m must be an integer or an inclusive range lo..hi, got %r\n"


@pytest.mark.parametrize("args, stderr", [
    (["certify", "--m", "1..3"], "error: m must be an integer >= 2, got 1\n"),
    (["certify", "--m", "9..8"], "error: empty m range '9..8'\n"),
    *((["certify", "--m", text], NO_M_RANGE % text)
      for text in ("2.5", "True", "8..", "..8", "8..8..9", "abc", "")),
    (["construct", "--m", "2.5"], "usage: pavekit construct [-h] --m M [--output OUTPUT]\n"
     "pavekit construct: error: argument --m: invalid int value: '2.5'\n"),
])
def test_m_that_is_no_integer_of_at_least_2_exits_1(args, stderr, capsys):
    proc = run_main(capsys, *args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == stderr


@pytest.mark.parametrize("text, ms", [(" 8 ", [8]), ("+8", [8]), ("1_000", [1000]),
                                      ("7.. 8", [7, 8])])
def test_certify_takes_every_integer_text_int_takes(text, ms, capsys):
    proc = run_main(capsys, "certify", "--m", text)
    assert proc.returncode in (0, 3)
    assert [r["m"] for r in json.loads(proc.stdout)["results"]] == ms


def test_construct_exits_2_when_the_exact_check_fails(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_orthonormal", lambda frame: False)
    proc = run_main(capsys, "construct", "--m", "6")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["report"]["orthonormal"] is False
    assert proc.stderr == ("[construct] building exact frame for m=6\n"
                           "[construct] exact orthonormality FAILED (implementation fault)\n")


def test_certify_at_sizes_no_frame_could_have(capsys):
    # m = 10^155 would overflow a float bound; m = 10^400 underflows delta_p
    for m in (10**155, 10**400):
        proc = run_main(capsys, "certify", "--m", str(m))
        assert proc.returncode == 0, proc.stderr
        (result,) = json.loads(proc.stdout)["results"]
        assert result["m"] == m and result["verdict"] == "FALSIFIES_A"
        assert result["delta_p"] == "2/%d" % (m + 1) ** 2
        assert 0.0 <= result["branch_bound"] < 1e-229
    # past Python's 4300-digit limit on int strings, m is a usage error
    proc = run_main(capsys, "certify", "--m", "1" + "0" * 4400)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "error:" in proc.stderr and "4300 digits" in proc.stderr
    # min_norm_sq reaches that limit first: at an odd m of 701 digits, and
    # an even m of 1501; refused before any progress line
    for m in (10**700 + 1, 10**1500):
        proc = run_main(capsys, "certify", "--m", str(m))
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == ("error: m of %d digits: min_norm_sq has more than the 4300 "
                               "digits Python writes as a decimal string\n" % len(str(m)))


def test_certify_refuses_a_range_past_the_cap_up_front(capsys):
    # a range of 10^15 values of m would first allocate their list, then a
    # report of about 3.4 KB per m: refused before either
    tracemalloc.start()
    try:
        code = cli.main(["certify", "--m", "2..1000000000000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err == ("error: m range '2..1000000000000000' has 999999999999999 values; "
                       "certify takes at most %d per run\n" % cli.MAX_CERTIFY_MS)
    assert peak < 1 << 20
    # the cap itself is allowed, one more value is not
    top = 2 + cli.MAX_CERTIFY_MS
    assert run_main(capsys, "certify", "--m", "2..%d" % (top - 1)).returncode == 0
    proc = run_main(capsys, "certify", "--m", "2..%d" % top)
    assert proc.returncode == 1 and proc.stdout == "" and "at most" in proc.stderr


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
    assert "workers must be an integer >= 1, got 0" in proc.stderr


def test_bruteforce_record(capsys):
    proc = run_main(capsys, "bruteforce", "--n", "10", "--rank", "5", "--seed", "7")
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)["record"]
    assert rec["seed"] == 7
    assert rec["n"] == 10 and rec["rank"] == 5
    assert rec["min_psp_norm"] <= rec["two_delta_p"] + 1e-9
    assert len(rec["argmin_signs"]) == 10


@pytest.mark.parametrize("rank, walked", [(0, False), (4, True), (5, False)])
def test_bruteforce_progress_names_the_walk_only_where_it_runs(capsys, rank, walked):
    # ranks 0 and above n/2 are decided by the dimension count, with no walk
    proc = run_main(capsys, "bruteforce", "--n", "8", "--rank", str(rank), "--seed", "1")
    assert proc.returncode == 0
    assert ("walking 128 symmetries" in proc.stderr) == walked
    assert ("no walk" in proc.stderr) != walked


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


def test_scan_balance_past_the_cap_runs_without_the_walk(capsys):
    args = ("scan", "--n", "30", "--rank", "4", "--count", "1", "--seed", "1")
    proc = run_main(capsys, *args, "--mode", "balance", "--gamma", "0.75", "--epsilon", "0.1")
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)["records"][0]
    assert rec["error"] is None
    assert len(rec["single_vector_norms"]) == 30
    assert rec["two_delta_p"] == 2 * rec["delta_p"]
    for key in ("min_psp_norm", "argmin_signs", "conjectureA_satisfied", "conjectureB_holds"):
        assert rec[key] is None
    # conjectureA mode walks every instance, so it still refuses up front
    proc = run_main(capsys, *args)
    assert proc.returncode == 1
    assert proc.stdout == "" and "--max-n" in proc.stderr


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


@pytest.mark.parametrize("args", [
    ("construct", "--m", "6"),
    ("certify", "--m", "6..8"),
    ("bruteforce", "--n", "6", "--rank", "3", "--seed", "1"),
    ("balance", "--n", "8", "--rank", "4", "--seed", "1"),
    ("scan", "--n", "6", "--rank", "3", "--count", "2", "--seed", "1",
     "--gamma", "0.75", "--epsilon", "0.1"),
    # rank 0: every basis vector projects to 0, so every single-vector norm is null
    ("scan", "--n", "4", "--rank", "0", "--count", "2", "--seed", "1", "--mode", "balance"),
])
def test_json_reports_are_one_line_with_sorted_keys(args, tmp_path, capsys, monkeypatch):
    # runtime_ms reads 0, so two runs of one command give the same bytes
    monkeypatch.setattr(paving, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
    proc = run_main(capsys, *args)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert proc.stdout == json.dumps(doc, sort_keys=True) + "\n"
    if "--mode" in args:
        assert all(r["single_vector_norms"] == [None] * 4 for r in doc["records"])
    out = tmp_path / "report.json"
    proc = run_main(capsys, *args, "--output", str(out))
    assert proc.returncode == 0 and proc.stdout == ""
    # the same report, but for the flag that names the file
    doc["flags"]["output"] = str(out)
    assert out.read_text() == json.dumps(doc, sort_keys=True) + "\n"


def test_reports_embed_version_and_flags(capsys):
    proc = run_main(capsys, "certify", "--m", "6..6")
    doc = json.loads(proc.stdout)
    assert doc["version"]
    assert doc["flags"]["m"] == "6..6"
    assert doc["flags"]["workers"] == 1


def test_package_version_is_the_projects_version():
    # written in both files; a regex, as Python 3.10 has no tomllib
    pyproject = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text()
    (version,) = re.findall(r'^version = "([^"]+)"$', pyproject, re.M)
    assert version == __version__


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
    pytest.param(["--n", "0", "--rank", "0", "--count", "1", "--seed", "1"],
                 "n must be an integer >= 1, got 0",
                 id="args0-n must be >= 1"),
    pytest.param(["--n", "10", "--rank", "5", "--count", "2", "--seed", "-1"],
                 "seed must be an integer >= 0, got -1",
                 id="args1-seed must be >= 0"),
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
    # main maps argparse's own exit 2, which the bare parser keeps
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["frobnicate"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_scan_modes_are_the_paving_modes():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    mode = next(a for a in sub.choices["scan"]._actions if a.dest == "mode")
    assert mode.choices == paving.SCAN_MODES


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
    # the fresh side builds every parser it uses: the tree and each command's
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    monkeypatch.setattr(cli, "_command_parser", cli._command_parser.__wrapped__)
    fresh = outcomes()
    for argv, got, want in zip(MIXED_ARGVS, shared, fresh):
        assert got == want, argv
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0]


def test_main_builds_its_parser_once_per_process(capsys, monkeypatch):
    # as in a process that has not called main yet
    cli._parser.cache_clear()
    cli._command_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    per_call = []
    for argv in (["certify", "--m", "6..6"], ["certify"], ["--version"],
                 ["construct", "--m", "2"], ["certify", "--m", "8..8"], ["-h"],
                 ["construct", "--m", "3"], ["certify", "--m", "8", "extra"]):
        before = len(built)
        cli.main(argv)
        per_call.append(built[before:])
    capsys.readouterr()
    tree = ["pavekit", *("pavekit " + name for name in cli._COMMANDS)]
    # a command's own parser on its first call; the tree once, for --version;
    # nothing later, -h and the leftover-token refusal included
    assert per_call == [["pavekit certify"], [], tree, ["pavekit construct"], [], [], [], []]


@pytest.mark.parametrize("name", ["construct", "certify", "bruteforce", "balance", "scan"])
def test_a_commands_own_parser_reads_as_its_subparser_in_the_tree(name):
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command").choices[name]
    own = cli._command_parser.__wrapped__(name)
    assert own.prog == sub.prog == "pavekit " + name
    assert own.format_usage() == sub.format_usage()
    assert own.format_help() == sub.format_help()


SCAN = ["scan", "--n", "6", "--rank", "3", "--count", "2", "--seed", "1"]
COMMAND_ARGVS = [
    ["construct", "--m", "6"],
    ["certify", "--m", "6..8"],
    ["bruteforce", "--n", "6", "--rank", "3", "--seed", "1"],
    ["balance", "--n", "8", "--rank", "4", "--seed", "1"],
    [*SCAN, "--gamma", "0.75", "--epsilon", "0.1"],
]
EDGE_ARGVS = [
    *COMMAND_ARGVS,
    *([argv[0], "-h"] for argv in COMMAND_ARGVS),
    [], ["-h"], ["--version"], ["--vers"], ["frobnicate"], ["cert", "--m", "8"],
    ["certify"], ["certify", "--m"], ["certify", "--m=8"],
    ["certify", "--m", "8", "--wor", "1"], ["certify", "--m", "8", "--m", "9"],
    ["certify", "--m", "8", "--bogus"], ["certify", "--m", "8", "--version"],
    ["certify", "--m", "8", "extra"], ["certify", "--m", "8", "--", "x"],
    ["--", "certify", "--m", "8"], ["certify", "-m", "8"], ["construct", "--m", "x"],
    [*SCAN, "--mode", "bogus"],
    [*SCAN, "--format", "csv"],
]


def report_flags(text):
    """The flags a report echoes: top-level in JSON, in the '# ' header line of CSV."""
    return json.loads(text.splitlines()[0].removeprefix("# "))["flags"]


@pytest.mark.parametrize("argv", [
    *COMMAND_ARGVS, [*SCAN, "--format", "csv"], [*SCAN, "--mode", "balance"],
], ids=" ".join)
def test_every_report_replays_from_its_own_flags(argv, capsys):
    first = run_main(capsys, *argv)
    replay = [argv[0]]
    for dest, value in report_flags(first.stdout).items():
        if value is not None:
            replay += ["--" + dest.replace("_", "-"), str(value)]
    again = run_main(capsys, *replay)
    assert again.returncode == first.returncode, again.stderr
    assert scrub_output(again.stdout) == scrub_output(first.stdout)


def test_scan_refuses_a_count_past_the_cap_before_any_instance(capsys, monkeypatch):
    cap = paving.MAX_SCAN_COUNT
    assert paving.ScanConfig(n=6, rank=2, count=cap, seed=1).count == cap
    # refused here first, so a missing cap fails this test instead of hanging it
    with pytest.raises(ValueError, match="^count must be an integer in"):
        paving.ScanConfig(n=6, rank=2, count=cap + 1, seed=1)
    drawn = []
    monkeypatch.setattr(paving, "random_projection", lambda *a: drawn.append(a))
    count = 10**50 - 1
    proc = run_main(capsys, "scan", "--n", "6", "--rank", "2", "--count", str(count),
                    "--seed", "1", "--gamma", "0.5", "--epsilon", "0.1")
    assert proc.returncode == 1 and proc.stdout == "" and drawn == []
    assert proc.stderr == "error: count must be an integer in [0, %d], got %d\n" % (cap, count)


def parse_all_then_run(argv):
    """main before a command's flags went straight to its own parser: the
    top-level parse, which hands them to the command's parser, then the run."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return cli.EXIT_USAGE if exc.code else cli.EXIT_OK
    return args.func(args)


@pytest.mark.parametrize("argv", EDGE_ARGVS, ids=" ".join)
def test_main_answers_every_argv_as_the_top_level_parse_did(argv, capsys):
    got = run_main(capsys, *argv)
    want_code = parse_all_then_run(argv)
    want = capsys.readouterr()
    assert got.returncode == want_code
    assert scrub_output(got.stdout) == scrub_output(want.out)
    assert got.stderr == want.err


@pytest.mark.parametrize("argv, parsed_by", [
    *((argv, ["pavekit " + argv[0]]) for argv in COMMAND_ARGVS),
    (["--version"], ["pavekit"]), (["frobnicate"], ["pavekit"]), ([], ["pavekit"]),
])
def test_main_parses_each_argv_once(argv, parsed_by, capsys, monkeypatch):
    parsed = []
    parse = argparse.ArgumentParser.parse_known_args

    def counting_parse(self, *args, **kwargs):
        parsed.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting_parse)
    cli.main(argv)
    capsys.readouterr()
    # a command's own parser alone; the top-level parser for everything else
    assert parsed == parsed_by


# Edge texts for the two exact commands' m: the signs and small values, a
# size past each bound, a 5,000-digit int (past Python's digit cap), texts
# int() refuses, non-ASCII digits, and ranges empty, at the cap and malformed.
EDGE_M = ["-1", "0", "1", "2", "8", "53", "1290", str(10**30), "9" * 5000, "1.5", "nan",
          "inf", "", "\u0668", "2..1", "2..10001", "8..", "8..8..9"]
# construct builds its frame in O(m^2) memory: drawing m only up to 40 or
# from 1290, where the int64 bound refuses it, bounds the run time and hides
# no fault, as every m between them takes the path of m = 40
CONSTRUCT_M = [t for t in EDGE_M if t != "53"]
# certify ignores --workers and starts no process; none is drawn above the CPU count
EDGE_WORKERS = [None, "-1", "0", "1", str(min(2, os.cpu_count() or 1)), "1.5", "nan", ""]


@st.composite
def exact_command_argvs(draw):
    command = draw(st.sampled_from(["construct", "certify"]))
    argv = [command, "--m", draw(st.sampled_from(CONSTRUCT_M if command == "construct"
                                                 else EDGE_M))]
    workers = draw(st.sampled_from(EDGE_WORKERS))
    return argv if workers is None else [*argv, "--workers", workers]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(exact_command_argvs())
def test_exact_commands_answer_every_edge_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 3), argv
    assert "Traceback" not in err.getvalue()
    if code == 1:
        lines = err.getvalue().splitlines()
        # argparse's usage line may come first; the refusal is the last line
        assert out.getvalue() == "" and [x for x in lines if "error: " in x] == lines[-1:], argv


def test_readme_examples_run(capsys):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    (code,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(code, "README.md", "exec"), {})
    # the certify example: its command, the fields it shows, and its exit code
    example = readme[readme.index("$ pavekit certify"):]
    example = example[:example.index("```")]
    argv = example.splitlines()[0].split()[2:]
    fields = re.findall(r'^ +"(\w+)": ("[^"]*"|\d+),?$', example, re.M)
    shown = {k: json.loads(v) for k, v in fields}
    assert shown == {"m": 8, "delta_p": "2/81", "min_norm_sq": "2/729", "two_delta_p": "4/81",
                     "argmin_alpha": 32, "argmin_beta": 8, "verdict": "FALSIFIES_A"}
    proc = run_main(capsys, *argv)
    assert example.endswith("$ echo $?\n0\n") and proc.returncode == 0
    (result,) = json.loads(proc.stdout)["results"]
    assert {k: result[k] for k in shown} == shown


def test_public_surface_matches_all_and_readme():
    # every export resolves, retired names stay gone, and the README's python
    # block (run by test_readme_examples_run) imports only exported names
    import pavekit
    import pavekit.paving

    assert len(set(pavekit.__all__)) == len(pavekit.__all__)
    for name in pavekit.__all__:
        assert getattr(pavekit, name) is not None, name
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    for name in ("paving_pair", "PavingPair", "conjectureB_probe"):
        assert name not in pavekit.__all__ and not hasattr(pavekit, name)
        assert not hasattr(pavekit.paving, name) and name not in readme
    (code,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    (imported,) = re.findall(r"^from pavekit import \((.*?)\)", code, re.M | re.S)
    assert set(imported.replace(",", " ").split()) <= set(pavekit.__all__)
