"""Paving experiments on arbitrary projections.

Exhaustive minimum of ||psp|| over diagonal symmetries for small n (a Gray
walk over the sign hypercube, building each r x r compression afresh from
the frame, with ties broken by an order-independent rule), Conjecture A /
Conjecture B instance tests, the paving-pair quantity
max(||qpq||, ||(1-q)p(1-q)||) against its 1/2 + delta_p threshold, and a
deterministic seeded scan harness that emits machine-readable records.
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
from dataclasses import asdict, dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .linalg import (
    Projection,
    Symmetry,
    SymmetricMatrix,
    Vector,
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
# Sign patterns per batch in brute_force_min_vector: about 2.5 MB of signs
# at n = 20, whatever the total count.
VECTOR_CHUNK = 1 << 14


class BruteForceCapError(ValueError):
    """Refusal to walk 2^(n-1) symmetries past the cost cap."""

    def __init__(self, n: int, cap: int):
        super().__init__("n=%d exceeds the brute-force cap of %d" % (n, cap))
        self.n = n
        self.cap = cap


def delta_p_numeric(p: Projection) -> float:
    """Largest diagonal entry of the materialized projection."""
    if p.n == 0:
        return 0.0
    return float(p.diagonal().max())


def brute_force_min(p: Projection, max_n: int = DEFAULT_MAX_N) -> tuple[float, Symmetry]:
    """Exact-by-exhaustion minimum of ||psp|| over diagonal symmetries.

    The first sign is pinned to +1 (s and -s give the same norm); the
    remaining 2^(n-1) sign vectors are visited in Gray-code order, and each
    compression F S F^T is built afresh, so a sign vector's norm does not
    depend on where the walk meets it.  Returns the smallest norm and, among
    the sign vectors whose norm is within TIE_TOL of it, the
    lexicographically smallest (-1 before +1).  Neither depends on the order
    of the walk.
    """
    n = p.n
    if n < 1:
        raise ValueError("projection must have n >= 1")
    if n > max_n:
        raise BruteForceCapError(n, max_n)
    if p.rank == 0:
        # Every symmetry compresses to norm 0; the lex-smallest representative
        # with the leading +1 wins the tie outright.
        signs = -np.ones(n, dtype=np.int64)
        signs[0] = 1
        return 0.0, Symmetry(signs)

    f = p.frame.rows
    signs = np.ones(n)
    # The sign vector as an n-bit integer, first sign most significant and
    # +1 as bit 1: integer order is lexicographic order with -1 before +1.
    key = (1 << n) - 1
    best = math.inf
    ties: list[tuple[int, float]] = []
    for t in range(1 << (n - 1)):
        if t:
            j = (t & -t).bit_length()  # trailing zeros + 1: bit 0 stays pinned
            signs[j] = -signs[j]
            key ^= 1 << (n - 1 - j)
        norm = operator_norm(SymmetricMatrix((f * signs) @ f.T))
        if norm <= best + TIE_TOL:
            best = min(best, norm)
            ties = _add_tie(ties, key, norm, best + TIE_TOL)
    key = min(k for k, _ in ties)
    return float(best), Symmetry([1 if key >> (n - 1 - i) & 1 else -1 for i in range(n)])


def _add_tie(ties: list[tuple[int, float]], key: int, norm: float, limit: float):
    """The tie candidates (key, norm) after meeting ``key`` at ``norm``.

    Keeps only the candidates within ``limit`` that no other candidate beats
    on both key and norm: a beaten one is never the final answer, since its
    beater ties whenever it does.  So the list stays a few entries long even
    when every symmetry ties, and the smallest key left at the end is the
    lex-smallest tie whatever the visit order.
    """
    if any(k < key and x <= norm for k, x in ties):
        return ties  # beaten: norm >= best, so the limit has not moved
    kept = [(k, x) for k, x in ties if x <= limit and not (k > key and x >= norm)]
    kept.append((key, norm))
    return kept


def brute_force_min_vector(
    p: Projection, v: Vector, max_n: int = DEFAULT_MAX_N
) -> tuple[float, Symmetry]:
    """Exhaustive minimum of ||psp(v)|| (a vector norm, not the operator norm).

    Vectorized over the 2^(n-1) sign patterns with the first sign pinned +1,
    VECTOR_CHUNK patterns at a time so memory stays bounded; the first
    minimizer in binary-counting order is returned.  A v with a NaN or
    infinite entry raises ``ValueError``.
    """
    n = p.n
    if n < 1:
        raise ValueError("projection must have n >= 1")
    if n > max_n:
        raise BruteForceCapError(n, max_n)
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError("v has a NaN or infinite entry")
    pv = p.apply(v)
    count = 1 << (n - 1)
    shifts = np.arange(n - 1)
    best_norm, best_signs = math.inf, None
    for start in range(0, count, VECTOR_CHUNK):
        codes = np.arange(start, min(start + VECTOR_CHUNK, count))
        signs = np.ones((codes.size, n))
        signs[:, 1:] = 1.0 - 2.0 * ((codes[:, None] >> shifts) & 1)
        norms = np.linalg.norm((signs * pv) @ p.frame.rows.T, axis=1)
        at = int(np.argmin(norms))
        # strict <: an equal norm in a later chunk comes later in the order
        if best_signs is None or norms[at] < best_norm:
            best_norm, best_signs = float(norms[at]), signs[at]
    return best_norm, Symmetry(best_signs.astype(np.int64))


class PavingPair(NamedTuple):
    maxnorm: float
    threshold: float


def paving_pair(p: Projection, q_signs: Symmetry) -> PavingPair:
    """max(||qpq||, ||(1-q)p(1-q)||) for the diagonal projection q given by
    the +1 positions, together with the threshold 1/2 + delta_p."""
    if q_signs.n != p.n:
        raise ValueError("dimension mismatch")
    f = p.frame.rows
    mask = q_signs.signs > 0
    a = operator_norm(SymmetricMatrix(f[:, mask] @ f[:, mask].T))
    b = operator_norm(SymmetricMatrix(f[:, ~mask] @ f[:, ~mask].T))
    return PavingPair(max(a, b), 0.5 + delta_p_numeric(p))


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
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


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
    t0 = time.perf_counter()
    delta = delta_p_numeric(p)
    min_norm, argmin = brute_force_min(p, max_n=max_n)
    return ExperimentRecord(
        seed=-1 if seed is None else seed,
        n=p.n,
        rank=p.rank,
        delta_p=delta,
        min_psp_norm=min_norm,
        argmin_signs=tuple(int(s) for s in argmin.signs),
        two_delta_p=2.0 * delta,
        conjectureA_satisfied=bool(min_norm <= 2.0 * delta + CONJECTURE_TOL),
        runtime_ms=(time.perf_counter() - t0) * 1000.0,
    )


def _check_gamma_epsilon(gamma: float, epsilon: float) -> None:
    # NaN fails every comparison, so it is rejected here too.
    if not (0.0 < gamma < math.inf):
        raise ValueError("gamma must be finite and > 0, got %r" % (gamma,))
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must satisfy 0 < epsilon < 1, got %r" % (epsilon,))


def _conjectureB(delta: float, min_norm: float | None, gamma: float, epsilon: float) -> bool:
    # Reads min_norm only when delta < gamma: the brute force may be skipped.
    return bool(delta >= gamma or min_norm < 1.0 - epsilon)


def conjectureB_probe(
    p: Projection, gamma: float, epsilon: float, max_n: int = DEFAULT_MAX_N
) -> bool:
    """Test one instance of Conjecture B: delta_p < gamma implies some
    symmetry has ||psp|| < 1 - epsilon.  Vacuously true when delta_p >= gamma.
    Needs finite gamma > 0 and 0 < epsilon < 1."""
    _check_gamma_epsilon(gamma, epsilon)
    delta = delta_p_numeric(p)
    min_norm = brute_force_min(p, max_n=max_n)[0] if delta < gamma else None
    return _conjectureB(delta, min_norm, gamma, epsilon)


@dataclass(frozen=True)
class ScanConfig:
    """Deterministic batch configuration; instance i uses seed + i."""

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
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.count < 0:
            raise ValueError("count must be >= 0")
        if (self.gamma is None) != (self.epsilon is None):
            raise ValueError("gamma and epsilon must be given together")
        if self.gamma is not None:
            _check_gamma_epsilon(self.gamma, self.epsilon)

    def to_json_dict(self) -> dict:
        return asdict(self)


def _scan_instance(config: ScanConfig, i: int) -> ExperimentRecord:
    seed = config.seed + i
    t0 = time.perf_counter()
    try:
        p = random_projection(config.n, config.rank, seed)
        rec = conjectureA_test(p, seed=seed, max_n=config.max_n)
        if config.gamma is not None:
            b_holds = _conjectureB(rec.delta_p, rec.min_psp_norm, config.gamma, config.epsilon)
            rec = replace(rec, conjectureB_holds=b_holds)
        if config.mode == "balance":
            diag, basis = p.diagonal(), np.eye(config.n)
            single = tuple(
                None
                if diag[k] <= DEGENERATE_TOL**2
                else single_vector_symmetry(p, basis[k]).achieved_norm
                for k in range(config.n)
            )
            rec = replace(rec, single_vector_norms=single)
    except Exception as exc:  # per-instance failures land in the record
        error = "%s: %s" % (type(exc).__name__, exc)
        rec = ExperimentRecord(seed=seed, n=config.n, rank=config.rank, error=error)
    return replace(rec, runtime_ms=(time.perf_counter() - t0) * 1000.0)


def scan(config: ScanConfig, workers: int = 1) -> list[ExperimentRecord]:
    """Run ``count`` seeded instances and return their records in order.

    The brute-force cap is enforced up front; everything else that goes
    wrong in an instance is captured in its record's error field.  Records
    are identical across runs and across worker counts (except runtime_ms).
    At most min(workers, os.cpu_count(), count) processes are started.
    """
    if config.n > config.max_n:
        raise BruteForceCapError(config.n, config.max_n)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, os.cpu_count() or 1, config.count)
    run = functools.partial(_scan_instance, config)
    if workers <= 1:
        return [run(i) for i in range(config.count)]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, range(config.count)))
