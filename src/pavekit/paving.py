"""Paving experiments on arbitrary projections.

Exhaustive minimum of ||psp|| over diagonal symmetries for small n (one
search over the sign vectors in lexicographic order, shared with the
single-vector minimum, ties going to the lex-smallest; a chunk's +-1 rows
are cached read-only per (n, chunk), and its r x r compressions come from
one batched matmul, each the product ``compress_psp`` forms, so a norm does
not depend on where the search meets it; ranks 0 and above n/2 are not
walked, as the dimension count fixes every norm, and a sign vector is
eigensolved only when lower bounds on its norm can still beat the best so
far: the Rayleigh bound, a Rayleigh quotient on a unit frame column, picks
the rows to compress; the stack bound alone, the 32nd root of the largest
diagonal entry of a compression's 32nd power, cuts the eigensolves past the
first sign vector, so records are those of scoring every one), the
Conjecture A instance test, and a deterministic seeded scan harness that emits
machine-readable records, with an optional Conjecture B verdict per record.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import numbers
import os
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .linalg import (
    FRAME_GRAM_TOL,
    Projection,
    Symmetry,
    SymmetricMatrix,
    Vector,
    _integer,
    _real,
    _real_array,
    compressions,
    delta_p_numeric,
    operator_norm,
    random_projection,
)
from .rearrange import DEGENERATE_TOL, single_vector_symmetry

DEFAULT_MAX_N = 24
CONJECTURE_TOL = 1e-9
SCAN_MODES = ("conjectureA", "balance")
# Norms within TIE_TOL of the minimum tie.  Norms of compressions of a
# projection are at most 1, so this is a few ulps, far below CONJECTURE_TOL.
TIE_TOL = 8 * float(np.finfo(float).eps)
# Sign vectors per batch of the exhaustive search: about 2.5 MB of signs at
# n = 20, whatever the total count.
SIGN_CHUNK = 1 << 14
# Floats per chunk of compressions, r*(n + r) per sign vector for the
# frame-times-signs broadcast and the r x r stack together: 4 MB, so the
# exhaustive search shortens its chunks below SIGN_CHUNK as r grows.  The
# squarings of the stack bound come after the broadcast is freed and hold
# the stack and two more r x r matrices, 3r^2 floats per sign vector, no
# more than r*(n + r) as the walk has 2r <= n.  The Rayleigh bounds of a
# chunk take n floats per sign vector, no more.
COMPRESSION_BLOCK = 1 << 19
# The most instances one scan runs: every record is held until the report is
# written, and a balance-mode record at n = DEFAULT_MAX_N holds about 4.0 KB
# at the peak of a JSON report, so the cap keeps a run near 18 MB.
MAX_SCAN_COUNT = 4_500


class BruteForceCapError(ValueError):
    """Refusal to walk 2^(n-1) symmetries past the cost cap."""

    def __init__(self, n: int, cap: int):
        super().__init__("n=%d exceeds the brute-force cap of %d" % (n, cap))
        self.n = n
        self.cap = cap


def _check_cap(n: int, max_n: int) -> None:
    """Refuse n < 1, max_n < 0 and, with ``BruteForceCapError``, n > max_n."""
    n, max_n = _integer("n", n, 1), _integer("max_n", max_n, 0)
    if n > max_n:
        raise BruteForceCapError(n, max_n)


def _walked(n: int, r: int) -> bool:
    """Whether ``brute_force_min`` walks rank r of n: at ranks 0 and above
    n/2 the dimension count decides every norm."""
    return 1 <= r and 2 * r <= n


@functools.lru_cache(maxsize=1)
def _sign_rows(n: int, start: int, stop: int) -> np.ndarray:
    """Sign vectors start..stop-1, shared read-only by later walks: sign j+1
    of t is bit n-2-j, set for +1, so counting order is lexicographic."""
    codes = np.arange(start, stop)
    rows = np.ones((codes.size, n))
    rows[:, 1:] = 2.0 * ((codes[:, None] >> np.arange(n - 2, -1, -1)) & 1) - 1.0
    rows.setflags(write=False)
    return rows


def _min_over_signs(n: int, norms_of, chunk: int) -> tuple[float, Symmetry]:
    """Exhaustive minimum of ``norms_of`` over the 2^(n-1) sign vectors of a capped n.

    The first sign is pinned to +1 (s and -s give the same norm).  The sign
    vectors are visited in lexicographic order (-1 before +1), ``chunk``
    float rows at a time; ``norms_of(rows, best)`` maps each chunk to its
    norms, given the smallest norm so far, and may give ``inf`` to a row
    whose norm is above best + TIE_TOL, though not to every row.  Returns
    the smallest norm and, among the sign vectors whose norm is within
    TIE_TOL of it, the lexicographically smallest.
    """
    count = 1 << (n - 1)
    best = math.inf
    # Every sign vector before the lex-smallest tie has a norm above the
    # final minimum plus TIE_TOL, so that tie is a strict running minimum:
    # keep those, in order, while they stay within TIE_TOL of the best so
    # far, and the first one left at the end is the answer.
    ties: list[tuple[float, np.ndarray]] = []
    for start in range(0, count, chunk):
        rows = _sign_rows(n, start, min(start + chunk, count))
        norms = norms_of(rows, best)
        before = np.minimum.accumulate(np.concatenate(([best], norms[:-1])))
        ties += [(float(norms[i]), rows[i]) for i in np.flatnonzero(norms < before)]
        best = min(best, float(norms.min()))
        ties = [(x, s) for x, s in ties if x <= best + TIE_TOL]
    return best, Symmetry(ties[0][1])


def _norm_bounds(p: Projection, rows: np.ndarray) -> np.ndarray:
    """Lower bounds on ||psp|| for the sign vectors ``rows`` of a projection
    of rank r >= 1: no computed norm lies below its bound.

    For a unit u, u^T F S F^T u = sum_k s_k (u . f_k)^2 <= ||psp||, with u
    over the unit frame columns f_j/|f_j|.  A sign vector with
    more than n - r signs of one kind gets 1, its exact norm: range(p), of
    dimension r, meets the coordinate subspace of those signs.  Each bound
    is less (r+1)*FRAME_GRAM_TOL: on the shared vector the frame's Gram
    error costs at most r*FRAME_GRAM_TOL, and the rounding of the bound,
    ``compressions`` and eigvalsh is far below one more FRAME_GRAM_TOL.
    """
    n, r = p.n, p.rank
    f = p.frame.rows
    g = f.T @ f
    # A column of squared norm below the smallest normal float is left out:
    # its quotient could round far above the true one.
    live = np.flatnonzero(g.diagonal() > np.finfo(float).tiny)
    w = g[live] ** 2 / g.diagonal()[live, None]
    # (live, k) layout and a matmul row sum, exact on +-1: fast at k >> n.
    bound = np.maximum.reduce(np.abs(w @ rows.T), axis=0)
    bound[np.abs(rows @ np.ones(n)) > n - 2 * r] = 1.0
    return bound - (r + 1) * FRAME_GRAM_TOL


def _stack_bounds(c: np.ndarray) -> np.ndarray:
    """Lower bounds on the norms ``operator_norm(SymmetricMatrix(c_k))`` of a
    (k, r, r) stack of compressions: no computed norm lies below its bound.

    H = (c + c^T)/2, with the bits ``SymmetricMatrix`` gives it, is squared
    four times to H^16, and (H^32)_jj = ||H^16 e_j||^2 <= ||H||^32, so
    max_j ||H^16 e_j||^(1/16) <= ||H||.  As the largest diagonal entry of
    H^32 is at least its trace over r, the bound is never below
    r^(-1/32)*||H||, less the margin below, unless ||H||^32/r underflows,
    which zeroes the bound of any norm below about (r*tiny)^(1/32), 2e-10:
    that costs eigensolves, never soundness.

    Rounding: a squaring of X errs by about r*(eps/2)*|X||X| at most in each
    entry, and || |X||X| || <= r*||X||^2, so the computed bound exceeds
    ||H|| by a factor of about 1 + r^2*eps/2 at most (after k squarings the
    norm errs by a relative (2^k - 1)*r^2*eps/2, so the sum of squares errs
    by 30 times r^2*eps/2 and its 32nd root by less); the bound is
    multiplied by 1 - (r + 64)*r*eps, which leaves 64*r*eps*||H|| for the
    error of the eigensolve.  Underflow only lowers the bound: a largest
    sum of squares below the smallest normal float, which rounding subnormal
    products up could as much as double (a 2.2 % higher root), is taken as
    0, and one that is normal makes every power of H before it exceed
    1e-154 in norm and each subnormal product err by at most 2^-1075, a
    relative r*eps/2 of the sum, inside the margin.
    """
    r = c.shape[1]
    h = 0.5 * c
    h = h + h.transpose(0, 2, 1)
    for _ in range(4):
        h = np.matmul(h, h)
    top = np.einsum("kij,kij->kj", h, h).max(axis=1)
    top[top < np.finfo(float).tiny] = 0.0
    return top ** (1 / 32) * (1.0 - (r + 64) * r * float(np.finfo(float).eps))


def brute_force_min(p: Projection, max_n: int = DEFAULT_MAX_N) -> tuple[float, Symmetry]:
    """Exact-by-exhaustion minimum of ||psp|| over diagonal symmetries.

    The compressions F S F^T of each chunk of sign vectors come from one
    batched matmul (``linalg.compressions``; a chunk holds at most
    COMPRESSION_BLOCK floats), each matrix the same product ``compress_psp``
    forms, so a sign vector's norm does not depend on where the search
    meets it; its +-1 rows are cached read-only per (n, chunk), shared by
    the one-chunk walks at n <= 13.  Returns the smallest norm and the
    lexicographically smallest sign vector (first sign +1) within TIE_TOL of it.

    Ranks 0 and above n/2 are not walked: the dimension count fixes every
    norm at 0, or at exactly 1 (range(p) meets the coordinate subspace of
    the more than n - r signs of one kind that each sign vector has), and
    the answer is ``+--...-``.  At 1 <= r <= n/2 only the sign vectors that
    can still win are eigensolved, as two lower bounds on the norm filter
    them.  The Rayleigh bound (``_norm_bounds``, one matmul per chunk) is
    the largest |u^T F S F^T u| over the unit u along the n frame columns,
    raised to 1 when the sign vector has more than n - r signs of one kind,
    less (r+1)*FRAME_GRAM_TOL.  The stack bound (``_stack_bounds``) is read
    off the compressions by four squarings and is within a factor r^(-1/32)
    of the norm.  A chunk takes two groups in turn: the row with the lowest
    Rayleigh bound, then every row whose Rayleigh bound is at most the best
    norm so far plus TIE_TOL.  Each group forms its compressions once and
    eigensolves them in ascending order of their stack bounds, up to the
    first bound above the best plus TIE_TOL: the Rayleigh bound picks the
    rows to compress; the stack bound alone cuts the eigensolves.  The
    walk's first group, one row with no best to beat, takes no stack bound.
    A skipped sign vector has a norm above the best plus TIE_TOL, so it is
    neither the minimum nor a tie, and the result is what scoring all of
    them gives.
    At n = 10, seeds 1-3, the walk eigensolves 8/2/3 and 2/2/2 of the 512
    sign vectors at ranks 3 and 5.
    """
    n, r = p.n, p.rank
    _check_cap(n, max_n)
    if not _walked(n, r):
        return (0.0 if r == 0 else 1.0), Symmetry([1] + [-1] * (n - 1))
    chunk = min(SIGN_CHUNK, max(1, COMPRESSION_BLOCK // (r * (n + r))))

    def norms_of(rows, best):
        bound = _norm_bounds(p, rows)
        norms = np.full(len(rows), math.inf)
        # Two rounds: the lowest bound alone, whose norm sets the best that
        # filters the rest, then every row still within TIE_TOL of the best.
        todo = np.argmin(bound)[None]
        while todo.size:
            stack = compressions(p, rows[todo])
            tight = bound[todo] if best == math.inf else _stack_bounds(stack)
            for i in np.argsort(tight, kind="stable"):
                if tight[i] > best + TIE_TOL:
                    break
                norms[todo[i]] = x = operator_norm(SymmetricMatrix(stack[i]))
                best = min(best, x)
            bound[todo] = math.inf
            todo = np.flatnonzero(bound <= best + TIE_TOL)
        return norms

    return _min_over_signs(n, norms_of, chunk)


def brute_force_min_vector(
    p: Projection, v: Vector, max_n: int = DEFAULT_MAX_N
) -> tuple[float, Symmetry]:
    """Exhaustive minimum of ||psp(v)|| (a vector norm, not the operator norm).

    Vectorized over each chunk of sign vectors, with the search, memory
    bound and tie rule of ``brute_force_min``.  A v with a NaN, infinite,
    bool or string entry raises ``ValueError``.

    The norms are taken of v scaled by the power of two 2^-e that brings
    max|v| into [1/2, 1), far from where their squares overflow or
    underflow, and the tie rule is applied to them there, so the argmin of
    v and of 2^k v are the same.  Only the minimum is scaled back by 2^e,
    which is exact short of overflow to inf.
    """
    v = _real_array("v", v)
    e = math.frexp(float(np.abs(v).max(initial=0.0)))[1]
    pv = p.apply(np.ldexp(v, -e))
    _check_cap(p.n, max_n)
    f = p.frame.rows
    best, argmin = _min_over_signs(
        p.n, lambda rows, best: np.linalg.norm((rows * pv) @ f.T, axis=1), SIGN_CHUNK)
    with np.errstate(over="ignore"):  # a minimum past the largest float is inf
        return float(np.ldexp(best, e)), argmin


@dataclass(frozen=True)
class ExperimentRecord:
    """One paving-experiment instance, fully replayable from its seed.

    The fields, in order, are the record's JSON keys and CSV columns.
    """

    seed: int
    n: int
    rank: int
    delta_p: float | None = None
    min_psp_norm: float | None = None
    argmin_signs: tuple[int, ...] | None = None
    two_delta_p: float | None = None
    conjectureA_satisfied: bool | None = None
    conjectureB_holds: bool | None = None
    single_vector_norms: tuple[float | None, ...] | None = None
    error: str | None = None
    runtime_ms: float = 0.0

    def to_json_dict(self) -> dict:
        # A fresh list per (flat) tuple: the copy asdict makes, without its deep walk.
        return {k: list(v) if isinstance(v := getattr(self, k), tuple) else v
                for k in CSV_COLUMNS}


CSV_COLUMNS = tuple(f.name for f in fields(ExperimentRecord))


def _csv_cell(value) -> str:
    """A record field as CSV text: empty for None, true/false, floats at 17
    significant digits, sign vectors as +/- strings, and other tuples (the
    single-vector norms) as ;-separated cells."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, tuple):
        if all(isinstance(x, numbers.Integral) for x in value):
            return "".join("+" if x > 0 else "-" for x in value)
        return ";".join(_csv_cell(x) for x in value)
    return str(value)


def records_to_csv(records, header: dict | None = None) -> str:
    """CSV with one row per record; config echoed as a leading '#' JSON line."""
    out = io.StringIO()
    if header is not None:
        out.write("# " + json.dumps(header, sort_keys=True) + "\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(_csv_cell(getattr(rec, name)) for name in CSV_COLUMNS)
    return out.getvalue()


def conjectureA_test(
    p: Projection, seed: int | None = None, max_n: int = DEFAULT_MAX_N
) -> ExperimentRecord:
    """Test one instance of Conjecture A: is min_s ||psp|| <= 2*delta_p?"""
    seed = -1 if seed is None else _integer("seed", seed, 0)
    t0 = time.perf_counter()
    delta = delta_p_numeric(p)
    min_norm, argmin = brute_force_min(p, max_n=max_n)
    return ExperimentRecord(
        seed=seed,
        n=p.n,
        rank=p.rank,
        delta_p=delta,
        min_psp_norm=min_norm,
        argmin_signs=tuple(argmin.signs.tolist()),
        two_delta_p=2.0 * delta,
        conjectureA_satisfied=bool(min_norm <= 2.0 * delta + CONJECTURE_TOL),
        runtime_ms=(time.perf_counter() - t0) * 1000.0,
    )


@dataclass(frozen=True)
class ScanConfig:
    """Deterministic batch configuration; instance i uses seed + i, for at
    most ``MAX_SCAN_COUNT`` instances.

    gamma and epsilon, given together, add a Conjecture B verdict to each
    walked record; they need finite gamma > 0 and 0 < epsilon < 1.
    """

    n: int
    rank: int
    count: int
    seed: int
    mode: str = "conjectureA"
    gamma: float | None = None
    epsilon: float | None = None
    max_n: int = DEFAULT_MAX_N

    def __post_init__(self):
        if self.mode not in SCAN_MODES:
            raise ValueError("mode must be one of %s, got %r" % (SCAN_MODES, self.mode))
        # rank <= n is left to the draw, so each record carries that error.
        for name, lo, hi in (("n", 1, None), ("rank", 0, None), ("count", 0, MAX_SCAN_COUNT),
                             ("seed", 0, None), ("max_n", 0, None)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), lo, hi))
        if (self.gamma is None) != (self.epsilon is None):
            raise ValueError("gamma and epsilon must be given together")
        if self.gamma is not None:
            gamma, epsilon = _real("gamma", self.gamma), _real("epsilon", self.epsilon)
            # NaN fails every comparison, so it is rejected here too.
            if not (0.0 < gamma < math.inf):
                raise ValueError("gamma must be finite and > 0, got %r" % (gamma,))
            if not (0.0 < epsilon < 1.0):
                raise ValueError("epsilon must satisfy 0 < epsilon < 1, got %r" % (epsilon,))
            object.__setattr__(self, "gamma", gamma)
            object.__setattr__(self, "epsilon", epsilon)


def _scan_instance(config: ScanConfig, i: int) -> ExperimentRecord:
    seed = config.seed + i
    t0 = time.perf_counter()
    late = {}  # the fields set after the record is made, in its one replace
    try:
        p = random_projection(config.n, config.rank, seed)
        if config.n <= config.max_n:
            rec = conjectureA_test(p, seed=seed, max_n=config.max_n)
            if config.gamma is not None:
                # Conjecture B: delta_p < gamma implies some symmetry has
                # ||psp|| < 1 - epsilon; vacuously true when delta_p >= gamma.
                b_holds = rec.delta_p >= config.gamma or rec.min_psp_norm < 1 - config.epsilon
                late["conjectureB_holds"] = bool(b_holds)
        else:
            # A balance record past the cap: no walk, so no minimum, argmin or
            # verdicts.
            delta = delta_p_numeric(p)
            rec = ExperimentRecord(
                seed=seed, n=p.n, rank=p.rank, delta_p=delta, two_delta_p=2.0 * delta)
        if config.mode == "balance":
            diag = p.diagonal()
            late["single_vector_norms"] = tuple(
                None
                if diag[k] <= DEGENERATE_TOL**2
                else single_vector_symmetry(p, np.eye(1, config.n, k)[0]).achieved_norm
                for k in range(config.n)
            )
    except Exception as exc:  # per-instance failures land in the record
        rec = ExperimentRecord(seed=seed, n=config.n, rank=config.rank)
        late = {"error": "%s: %s" % (type(exc).__name__, exc)}
    return replace(rec, runtime_ms=(time.perf_counter() - t0) * 1000.0, **late)


def scan(config: ScanConfig, workers: int = 1) -> list[ExperimentRecord]:
    """Run ``count`` seeded instances and return their records in order.

    In ``conjectureA`` mode the brute-force cap is enforced up front.  In
    ``balance`` mode an instance walks only when n <= max_n; above it the
    record leaves the minimum, argmin and both verdicts null and keeps
    delta_p and the single-vector norms.  Everything else that goes wrong
    in an instance is captured in its record's error field.  Records are
    identical across runs and across worker counts (except runtime_ms).
    At most min(workers, os.cpu_count(), count) processes are started.
    """
    if config.mode == "conjectureA":
        _check_cap(config.n, config.max_n)
    workers = min(_integer("workers", workers, 1), config.count)
    if workers > 1:  # os.cpu_count() reads /sys on every call
        workers = min(workers, os.cpu_count() or 1)
    run = functools.partial(_scan_instance, config)
    if workers <= 1:
        return [run(i) for i in range(config.count)]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, range(config.count)))
