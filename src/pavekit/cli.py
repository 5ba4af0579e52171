"""Command-line front door: construct, certify, bruteforce, balance, scan.

Reports go to stdout (or --output) as deterministic JSON, or CSV for scan;
progress lines go to stderr.  Every report embeds the tool version and the
full flag set, so a run is replayable from its own output.

Exit codes: 0 success / certificate found, 1 usage or cap error, 2 internal
verification failure, 3 certification inconclusive.
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
from .linalg import random_projection
from .paving import (
    BruteForceCapError,
    DEFAULT_MAX_N,
    ScanConfig,
    conjectureA_test,
    records_to_csv,
    scan,
)
from .rearrange import single_vector_symmetry

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERNAL = 2
EXIT_INCONCLUSIVE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _flags(args) -> dict:
    # Every parsed option, so a report replays from its own output.
    return {k: v for k, v in vars(args).items() if k not in ("func", "command")}


def _envelope(command: str, flags: dict, payload: dict) -> str:
    doc = {"tool": "pavekit", "version": __version__, "command": command, "flags": flags}
    doc.update(payload)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _parse_m_range(text: str) -> list[int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if hi < lo:
        raise ValueError("empty m range %r" % text)
    return list(range(lo, hi + 1))


def _rational_pair(x) -> dict:
    return {"exact": rational_to_str(x), "decimal": float(x)}


def cmd_construct(args) -> int:
    m = args.m
    _progress("[construct] building exact frame for m=%d" % m)
    frame = build_frame(m)
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
    _emit(_envelope("construct", _flags(args), {"report": report}), args.output)
    if not ok:
        _progress("[construct] exact orthonormality FAILED (implementation fault)")
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_certify(args) -> int:
    ms = _parse_m_range(args.m)
    if args.workers < 1:
        raise ValueError("workers must be >= 1")
    results = []
    any_falsified = False
    for m in ms:
        rep = min_over_symmetries_v0(m)
        any_falsified = any_falsified or rep.verdict == FALSIFIES_A
        _progress("[certify] m=%d %s" % (m, rep.verdict))
        results.append(rep.to_json_dict())
    _emit(_envelope("certify", _flags(args), {"results": results}), args.output)
    return EXIT_OK if any_falsified else EXIT_INCONCLUSIVE


def cmd_bruteforce(args) -> int:
    if args.n < 1:
        raise ValueError("n must be >= 1")
    # Before the draw: the QR of a huge draw would run long or exhaust
    # memory only to be refused by brute_force_min.
    if args.n > args.max_n:
        raise BruteForceCapError(args.n, args.max_n)
    p = random_projection(args.n, args.rank, args.seed)
    _progress("[bruteforce] walking %d symmetries" % (1 << (args.n - 1)))
    record = conjectureA_test(p, seed=args.seed, max_n=args.max_n)
    _emit(_envelope("bruteforce", _flags(args), {"record": record.to_json_dict()}), args.output)
    return EXIT_OK


def cmd_balance(args) -> int:
    p = random_projection(args.n, args.rank, args.seed)
    vec_rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=args.seed, spawn_key=(1,)))
    )
    v = vec_rng.standard_normal(args.n)
    result = single_vector_symmetry(p, v)
    report = result.to_json_dict()
    report.update({"n": args.n, "rank": args.rank, "seed": args.seed})
    _emit(_envelope("balance", _flags(args), {"report": report}), args.output)
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
    flags = _flags(args)
    _progress("[scan] %d instances of n=%d rank=%d" % (args.count, args.n, args.rank))
    records = scan(config, workers=args.workers)
    if args.format == "csv":
        header = {"tool": "pavekit", "version": __version__, "command": "scan", "flags": flags}
        text = records_to_csv(records, header=header)
    else:
        text = _envelope("scan", flags, {"records": [r.to_json_dict() for r in records]})
    _emit(text, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pavekit", description=__doc__)
    parser.add_argument("--version", action="version", version="pavekit %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--output", default=None, help="write the report to this path")

    sp = sub.add_parser("construct", help="build and exactly verify the counterexample frame")
    sp.add_argument("--m", type=int, required=True, help="construction parameter, >= 2")
    add_common(sp)
    sp.set_defaults(func=cmd_construct, format="json")

    sp = sub.add_parser("certify", help="exhaustive exact certificate over a range of m")
    sp.add_argument("--m", required=True, help="single value or inclusive range, e.g. 6..12")
    sp.add_argument("--workers", type=int, default=1, help=">= 1; has no effect on certify")
    add_common(sp)
    sp.set_defaults(func=cmd_certify, format="json")

    sp = sub.add_parser("bruteforce", help="exhaustive Conjecture A test on one random instance")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, dest="max_n")
    add_common(sp)
    sp.set_defaults(func=cmd_bruteforce, format="json")

    sp = sub.add_parser("balance", help="single-vector cancellation certificate on one instance")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_balance, format="json")

    sp = sub.add_parser("scan", help="seeded batch of instance tests")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--mode", choices=["conjectureA", "balance"], default="conjectureA")
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--epsilon", type=float, default=None)
    sp.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, dest="max_n")
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    add_common(sp)
    sp.set_defaults(func=cmd_scan)
    return parser


# One parser per process, built on the first main() call rather than at
# import: parse_args never mutates it, and help, usage and --version look up
# sys.stdout/sys.stderr when they print.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage errors, -h and --version; in-process callers
        # get the code back like every other outcome.
        return exc.code
    try:
        return args.func(args)
    except BruteForceCapError as exc:
        _progress("error: %s; raise --max-n to override" % exc)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        _progress("error: %s" % exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
