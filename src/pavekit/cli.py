"""Command-line front door: construct, certify, bruteforce, balance, scan.

Reports go to stdout (or --output) as one line of sorted-key JSON, or CSV
for scan; progress lines go to stderr.  Every report embeds the tool
version and the full flag set, so a run is replayable from its own output.

Exit codes: 0 success / certificate found, 1 usage, cap or out-of-memory
error, 2 internal verification failure, 3 certification inconclusive.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .counterexample import (
    BLOCK_REPRESENTATIVES,
    FALSIFIES_A,
    block_sizes,
    build_frame,
    delta_p_exact,
    dimension,
    min_over_symmetries_v0,
    rational_to_str,
    row_norm_sq,
    verify_orthonormal,
)
from .linalg import _integer, random_projection
from .paving import (
    BruteForceCapError,
    DEFAULT_MAX_N,
    SCAN_MODES,
    ScanConfig,
    _check_cap,
    _walked,
    conjectureA_test,
    records_to_csv,
    scan,
)
from .rearrange import single_vector_symmetry

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERNAL = 2
EXIT_INCONCLUSIVE = 3

# The most values of m one certify run takes: its report holds about 1.8 KB
# per m at its peak, so the cap keeps a run near 18 MB.
MAX_CERTIFY_MS = 10_000


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _header(args) -> dict:
    # Every parsed option, so a report replays from its own output.
    flags = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    return {"tool": "pavekit", "version": __version__, "command": args.command, "flags": flags}


def _envelope(args, payload: dict) -> str:
    # The CSV header's rule: without indent, json.dumps runs its C encoder.
    return json.dumps({**_header(args), **payload}, sort_keys=True) + "\n"


def _parse_m_range(text: str) -> range:
    bounds = text.split("..", 1)
    try:
        lo, hi = int(bounds[0]), int(bounds[-1])
    except ValueError as exc:
        if str(exc).startswith("Exceeds the limit"):  # Python's cap on int digits
            raise
        raise ValueError("--m must be an integer or an inclusive range lo..hi, got %r"
                         % text) from None
    if hi < lo:
        raise ValueError("empty m range %r" % text)
    if hi - lo >= MAX_CERTIFY_MS:
        raise ValueError("m range %r has %d values; certify takes at most %d per run"
                         % (text, hi - lo + 1, MAX_CERTIFY_MS))
    return range(lo, hi + 1)


def _rational_pair(x) -> dict:
    return {"exact": rational_to_str(x), "decimal": float(x)}


def cmd_construct(args) -> int:
    m = args.m
    frame = build_frame(m)  # its checks refuse a bad m before any progress line
    _progress("[construct] building exact frame for m=%d" % m)
    ok = verify_orthonormal(frame)
    delta = delta_p_exact(m)
    report = {
        "m": m,
        "dimension": dimension(m),
        "block_sizes": block_sizes(m),
        "orthonormal": ok,
        "delta_p": _rational_pair(delta),
        "row_norm_sq": {
            k: _rational_pair(row_norm_sq(m, ix)) for k, ix in BLOCK_REPRESENTATIVES.items()
        },
    }
    _emit(_envelope(args, {"report": report}), args.output)
    if not ok:
        _progress("[construct] exact orthonormality FAILED (implementation fault)")
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_certify(args) -> int:
    ms = _parse_m_range(args.m)
    _integer("workers", args.workers, 1)
    results = []
    any_falsified = False
    for m in ms:
        rep = min_over_symmetries_v0(m)
        try:
            results.append(rep.to_json_dict())
        except ValueError:
            # Python's limit on the digits of an int string.  min_norm_sq has
            # the longest denominator of the report, about 7 digits per digit
            # of an odd m and 3 of an even m, so it passes the limit first.
            raise ValueError("m of %d digits: min_norm_sq has more than the %d digits Python "
                             "writes as a decimal string"
                             % (len(str(m)), sys.get_int_max_str_digits())) from None
        any_falsified = any_falsified or rep.verdict == FALSIFIES_A
        _progress("[certify] m=%d %s" % (m, rep.verdict))
    _emit(_envelope(args, {"results": results}), args.output)
    return EXIT_OK if any_falsified else EXIT_INCONCLUSIVE


def cmd_bruteforce(args) -> int:
    # Before the draw: the QR of a huge draw would run long or exhaust
    # memory only to be refused by brute_force_min.
    _check_cap(args.n, args.max_n)
    p = random_projection(args.n, args.rank, args.seed)
    if _walked(args.n, args.rank):
        _progress("[bruteforce] walking %d symmetries" % (1 << (args.n - 1)))
    else:
        _progress("[bruteforce] no walk: the dimension count decides rank %d of n=%d"
                  % (args.rank, args.n))
    record = conjectureA_test(p, seed=args.seed, max_n=args.max_n)
    _emit(_envelope(args, {"record": record.to_json_dict()}), args.output)
    return EXIT_OK


def cmd_balance(args) -> int:
    p = random_projection(args.n, args.rank, args.seed)
    vec_rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=args.seed, spawn_key=(1,)))
    )
    v = vec_rng.standard_normal(args.n)
    result = single_vector_symmetry(p, v)
    report = {**result.to_json_dict(), "n": args.n, "rank": args.rank, "seed": args.seed}
    _emit(_envelope(args, {"report": report}), args.output)
    return EXIT_OK


def cmd_scan(args) -> int:
    config = ScanConfig(
        n=args.n,
        rank=args.rank,
        count=args.count,
        seed=args.seed,
        mode=args.mode,
        gamma=args.gamma,
        epsilon=args.epsilon,
        max_n=args.max_n,
    )
    _progress("[scan] %d instances of n=%d rank=%d" % (args.count, args.n, args.rank))
    records = scan(config, workers=args.workers)
    if args.format == "csv":
        text = records_to_csv(records, header=_header(args))
    else:
        text = _envelope(args, {"records": [r.to_json_dict() for r in records]})
    _emit(text, args.output)
    return EXIT_OK


def _construct_flags(sp):
    sp.add_argument("--m", type=int, required=True, help="construction parameter, >= 2")


def _certify_flags(sp):
    sp.add_argument("--m", required=True, help="single value or inclusive range, e.g. 6..12")
    sp.add_argument("--workers", type=int, default=1, help=">= 1; has no effect on certify")


def _instance_flags(sp):
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)


def _bruteforce_flags(sp):
    _instance_flags(sp)
    sp.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, dest="max_n")


def _scan_flags(sp):
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--mode", choices=SCAN_MODES, default="conjectureA")
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--epsilon", type=float, default=None)
    sp.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, dest="max_n")
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--format", choices=["json", "csv"], default="json")


# Each command once: its help line in the top-level help, the flags it takes
# before --output, and the function that runs it.
_COMMANDS = {
    "construct": ("build and exactly verify the counterexample frame",
                  _construct_flags, cmd_construct),
    "certify": ("exhaustive exact certificate over a range of m", _certify_flags, cmd_certify),
    "bruteforce": ("exhaustive Conjecture A test on one random instance",
                   _bruteforce_flags, cmd_bruteforce),
    "balance": ("single-vector cancellation certificate on one instance",
                _instance_flags, cmd_balance),
    "scan": ("seeded batch of instance tests", _scan_flags, cmd_scan),
}


def _add_command(sp: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    _, add_flags, func = _COMMANDS[name]
    add_flags(sp)
    sp.add_argument("--output", default=None, help="write the report to this path")
    sp.set_defaults(func=func)
    return sp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pavekit", description=__doc__)
    parser.add_argument("--version", action="version", version="pavekit %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_line), name)
    return parser


# Parsers are built on the first main() call that needs them rather than at
# import, and kept: parse_args never mutates one, and help, usage and
# --version look up sys.stdout/sys.stderr when they print.  The full tree
# answers only -h, --version, a non-command and the leftover-token refusal.
_parser = functools.cache(build_parser)


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    # The tree's subparser for name, built alone: the same prog, so the same
    # usage, help and error lines.
    return _add_command(argparse.ArgumentParser(prog="pavekit " + name), name)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A command's flags go straight to its own parser, which the top-level
    # parse would hand them to after classifying each token a first time.
    name = argv[0] if argv else None
    try:
        if name not in _COMMANDS:  # -h, --version, no command or an unknown one
            args = _parser().parse_args(argv)
        else:
            args, extras = _command_parser(name).parse_known_args(
                argv[1:], argparse.Namespace(command=name))
            if extras:  # the top-level parse's own refusal, usage line and exit
                _parser().error("unrecognized arguments: %s" % " ".join(extras))
    except SystemExit as exc:
        # argparse exits 2 on a usage error and 0 after -h and --version;
        # in-process callers get the code back like every other outcome.
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except BruteForceCapError as exc:
        _progress("error: %s; raise --max-n to override" % exc)
        return EXIT_USAGE
    except (ValueError, OSError, MemoryError) as exc:
        # A bare MemoryError has no message of its own.
        _progress("error: %s" % (str(exc) or type(exc).__name__))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
