"""Correctness gate, independent of the code being timed.

Every check recomputes what an output must be from the operation's inputs
with numpy and ``fractions`` alone (pavekit is never imported here), using
theorems that must hold on every record:

- exhaustive: a batched ``np.linalg.eigvalsh`` minimum over all 2^(n-1)
  sign patterns; the paving identity ||psp|| = 2 max(||qpq||,
  ||(1-q)p(1-q)||) - 1 for s = 2q - 1; the Marcus-Spielman-Srivastava
  2-paving bound min_s ||psp|| <= 2 delta + 2 sqrt(2 delta)
  (Interlacing families II, arXiv:1306.3969);
- certificate: the construction's closed forms (dimension, block row norms,
  delta_p = 2/(m+1)^2) and an integer recomputation of the (alpha, beta)
  lattice minimum;
- balance: the sqrt(2 delta + 3 delta^2) guarantee, the achieved norm
  recomputed from the returned signs and, on the counterexample, the exact
  lattice minimum as a floor.

Floating-point comparisons use tolerances, never digests, so last-digit
changes from a different eigensolver do not count as failures.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

NORM_TOL = 1e-9      # absolute, on operator and vector norms (all <= 1)
DELTA_TOL = 1e-12    # absolute, on delta_p (a sum of squares, no eigensolve)
DECIDE_TOL = 1e-7    # a threshold comparison this close to the edge is not judged


# -- independent reconstructions of the inputs --------------------------------


def seeded_frame(n: int, rank: int, seed: int) -> np.ndarray:
    """An orthonormal basis (columns, n x rank) of the range pavekit's
    ``random_projection(n, rank, seed)`` documents: the row space of the first
    (rank, n) block of ``Generator(PCG64(seed)).standard_normal``."""
    x = np.random.Generator(np.random.PCG64(seed)).standard_normal((rank, n))
    q, _ = np.linalg.qr(x.T)
    return q


def balance_vector(n: int, seed: int) -> np.ndarray:
    """The test vector the ``balance`` command documents for a seed."""
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(1,))))
    return rng.standard_normal(n)


def construction_frame(m: int) -> np.ndarray:
    """The counterexample's 2m+2 frame vectors as float rows, built from the
    construction's definition in the canonical a|b|c|d coordinate order."""
    w = 2 * m + 1
    d_width = (m + 1) ** 2
    off_b, off_c = m * m, m * m + w
    off_d = off_c + m * w
    f = np.zeros((w + 1, off_d + w * d_width))
    f[0, : off_c] = 1.0 / (m + 1)
    pair = {}
    for i in range(1, w + 1):
        for j in range(i + 1, w + 1):
            pair[(i, j)] = off_c + len(pair)
    for i in range(1, w + 1):
        row = f[i]
        row[:off_b] = -1.0 / (m * m * (m + 1))
        row[off_b + i - 1] = 1.0 / (m + 1)
        for j in range(1, w + 1):
            if j < i:
                row[pair[(j, i)]] = 1.0 / (m * (m + 1))
            elif j > i:
                row[pair[(i, j)]] = -1.0 / (m * (m + 1))
        base = off_d + (i - 1) * d_width
        row[base: base + d_width] = math.sqrt((m - 1) / (m + 1)) / m
    return f


def lattice_min(m: int) -> tuple[Fraction, int, int]:
    """Exact min over (alpha, beta) of ||psp(v_0)||^2, lexicographically first
    argmin.  With S = 2 alpha - m^2 and T = 2 beta - (2m+1) the frame
    coefficients of psp(v_0) are c_0 = (S+T)/(m+1)^2 and
    c_i = (eps'_i - S/m^2)/(m+1)^2; scaled by m^2 (m+1)^2 they are integers."""
    if m > 200:
        raise ValueError("int64 lattice oracle is exact only up to m=200")
    alpha = np.arange(m * m + 1, dtype=np.int64)[:, None]
    beta = np.arange(2 * m + 2, dtype=np.int64)[None, :]
    s = 2 * alpha - m * m
    t = 2 * beta - (2 * m + 1)
    c0 = m * m * (s + t)
    c_plus, c_minus = m * m - s, -m * m - s
    units = c0 * c0 + beta * c_plus * c_plus + (2 * m + 1 - beta) * c_minus * c_minus
    a, b = np.unravel_index(int(np.argmin(units)), units.shape)
    return Fraction(int(units[a, b]), m**4 * (m + 1) ** 4), int(a), int(b)


# -- checks -------------------------------------------------------------------


def _close(x, y, tol) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x - y) <= tol


def _decided(value: float, edge: float) -> bool:
    return abs(value - edge) > DECIDE_TOL


def check_scan_record(op: dict, out: dict) -> list[str]:
    if out.get("exit_code") != 0:
        return ["exit code %r" % out.get("exit_code")]
    records = out.get("body") or []
    if len(records) != 1:
        return ["expected one record, got %d" % len(records)]
    rec = records[0]
    if rec.get("error") is not None:
        return ["record error: %s" % rec["error"]]
    n, r = op["n"], op["rank"]
    if (rec.get("seed"), rec.get("n"), rec.get("rank")) != (op["seed"], n, r):
        return ["record is for another instance"]
    q = seeded_frame(n, r, op["seed"])
    delta = float((q * q).sum(axis=1).max())
    bits = (np.arange(1 << (n - 1))[:, None] >> np.arange(n - 1)[None, :]) & 1
    patterns = np.hstack([np.ones((len(bits), 1)), 1.0 - 2.0 * bits])
    comp = np.einsum("ki,pk,kj->pij", q, patterns, q)
    eig = np.linalg.eigvalsh(comp)
    norms = np.maximum(-eig[:, 0], eig[:, -1])
    best = float(norms.min())

    fails = []
    got = rec.get("min_psp_norm")
    if not _close(got, best, NORM_TOL):
        return ["min_psp_norm %r != oracle %.17g" % (got, best)]
    if not _close(rec.get("delta_p"), delta, DELTA_TOL):
        fails.append("delta_p %r != oracle %.17g" % (rec.get("delta_p"), delta))
    if not _close(rec.get("two_delta_p"), 2 * delta, 2 * DELTA_TOL):
        fails.append("two_delta_p %r != %.17g" % (rec.get("two_delta_p"), 2 * delta))
    signs = np.asarray(rec.get("argmin_signs") or [], dtype=float)
    if signs.shape != (n,) or not np.all(np.abs(signs) == 1) or signs[0] != 1:
        return fails + ["argmin_signs malformed"]
    at = np.linalg.eigvalsh((q * signs[:, None]).T @ q)
    if float(max(-at[0], at[-1])) > best + NORM_TOL:
        fails.append("argmin does not attain the minimum")
    mask = signs > 0
    pair = max(float(np.linalg.eigvalsh(q[mask].T @ q[mask])[-1]),
               float(np.linalg.eigvalsh(q[~mask].T @ q[~mask])[-1]))
    if not _close(got, 2 * pair - 1, NORM_TOL):
        fails.append("paving identity: %r != 2*%.17g - 1" % (got, pair))
    if got > 2 * delta + 2 * math.sqrt(2 * delta) + NORM_TOL:
        fails.append("MSS 2-paving bound violated")
    edge_a = 2 * delta
    if _decided(best, edge_a) and rec.get("conjectureA_satisfied") != (best <= edge_a):
        fails.append("conjectureA_satisfied disagrees with oracle")
    holds = rec.get("conjectureB_holds")
    if delta >= op["gamma"] + DECIDE_TOL:
        if holds is not True:
            fails.append("conjectureB_holds must be vacuously true")
    elif delta < op["gamma"] - DECIDE_TOL and _decided(best, 1 - op["epsilon"]):
        if holds != (best < 1 - op["epsilon"]):
            fails.append("conjectureB_holds disagrees with oracle minimum")
    return fails


def _frac(pair: dict) -> Fraction | None:
    try:
        return Fraction(pair["exact"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return None


def check_construct(op: dict, out: dict) -> list[str]:
    m = op["m"]
    rep = out.get("body") or {}
    fails = []
    if out.get("exit_code") != 0:
        fails.append("exit code %r" % out.get("exit_code"))
    if rep.get("orthonormal") is not True:
        fails.append("frame not reported orthonormal")
    if rep.get("dimension") != 2 * m**3 + 8 * m**2 + 7 * m + 2:
        fails.append("dimension %r" % rep.get("dimension"))
    sizes = {"a": m * m, "b": 2 * m + 1, "c": m * (2 * m + 1), "d": (2 * m + 1) * (m + 1) ** 2}
    if rep.get("block_sizes") != sizes:
        fails.append("block sizes %r" % rep.get("block_sizes"))
    rows = {
        "a": Fraction(1, (m + 1) ** 2) + Fraction(2 * m + 1, m**4 * (m + 1) ** 2),
        "b": Fraction(2, (m + 1) ** 2),
        "c": Fraction(2, m * m * (m + 1) ** 2),
        "d": Fraction(m - 1, m * m * (m + 1)),
    }
    got_rows = rep.get("row_norm_sq") or {}
    for block, want in rows.items():
        if _frac(got_rows.get(block) or {}) != want:
            fails.append("row_norm_sq[%s] != %s" % (block, want))
    if _frac(rep.get("delta_p") or {}) != max(rows.values()):
        fails.append("delta_p != %s" % max(rows.values()))
    return fails


def check_certify(op: dict, out: dict) -> list[str]:
    m = op["m"]
    falsifies = m >= 8
    fails = []
    if out.get("exit_code") != (0 if falsifies else 3):
        fails.append("exit code %r" % out.get("exit_code"))
    results = out.get("body") or []
    if len(results) != 1 or results[0].get("m") != m:
        return fails + ["expected one result for m=%d" % m]
    res = results[0]
    delta = Fraction(2, (m + 1) ** 2)
    want_min, a, b = lattice_min(m)
    try:
        got_min = Fraction(res["min_norm_sq"])
        got_delta, got_two = Fraction(res["delta_p"]), Fraction(res["two_delta_p"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return fails + ["unparsable exact fields"]
    if m >= 6 and (got_delta != delta or got_two != 2 * delta):
        fails.append("delta_p %s != %s" % (got_delta, delta))
    if got_min != want_min:
        fails.append("min_norm_sq %s != oracle %s" % (got_min, want_min))
    if m == 8 and got_min != Fraction(2, 729):
        fails.append("m=8 minimum %s != 2/729" % got_min)
    if (res.get("argmin_alpha"), res.get("argmin_beta")) != (a, b):
        fails.append("argmin %r != oracle %r" % ((res.get("argmin_alpha"), res.get("argmin_beta")), (a, b)))
    verdict = "FALSIFIES_A" if falsifies else "INCONCLUSIVE"
    if res.get("verdict") != verdict:
        fails.append("verdict %r != %s" % (res.get("verdict"), verdict))
    if (want_min > 4 * delta * delta) != falsifies:
        fails.append("oracle lattice minimum contradicts the m >= 8 verdict")
    return fails


def _check_single_vector(res: dict, q: np.ndarray, unit: np.ndarray) -> list[str]:
    """``q`` has orthonormal columns spanning p; ``unit`` = p(v)/||p(v)||."""
    n = q.shape[0]
    signs = np.asarray(res.get("signs") or [], dtype=float)
    if signs.shape != (n,) or not np.all(np.abs(signs) == 1):
        return ["signs malformed"]
    delta = float((q * q).sum(axis=1).max())
    bound = math.sqrt(2 * delta + 3 * delta * delta)
    achieved = res.get("achieved_norm")
    fails = []
    if not _close(res.get("delta_p"), delta, DELTA_TOL):
        fails.append("delta_p %r != oracle %.17g" % (res.get("delta_p"), delta))
    if not _close(res.get("bound"), bound, DELTA_TOL):
        fails.append("bound %r != oracle %.17g" % (res.get("bound"), bound))
    recomputed = float(np.linalg.norm(q.T @ (signs * unit)))
    if not _close(achieved, recomputed, NORM_TOL):
        return fails + ["achieved_norm %r != recomputed %.17g" % (achieved, recomputed)]
    if achieved > bound + NORM_TOL:
        fails.append("achieved_norm %r above the bound %.17g" % (achieved, bound))
    return fails


def check_balance_cli(op: dict, out: dict) -> list[str]:
    if out.get("exit_code") != 0:
        return ["exit code %r" % out.get("exit_code")]
    rep = out.get("body") or {}
    q = seeded_frame(op["n"], op["rank"], op["seed"])
    pv = q @ (q.T @ balance_vector(op["n"], op["seed"]))
    return _check_single_vector(rep, q, pv / np.linalg.norm(pv))


def check_balance_v0(op: dict, out: dict) -> list[str]:
    m = op["m"]
    f = construction_frame(m)
    res = out.get("result") or {}
    fails = _check_single_vector(res, f.T, f[0])
    floor, _, _ = lattice_min(m)
    achieved = res.get("achieved_norm")
    if isinstance(achieved, float) and achieved * achieved < float(floor) - NORM_TOL:
        fails.append("achieved_norm^2 %.17g below the exact minimum %s" % (achieved**2, floor))
    return fails


CHECKS = {
    "scan_record": check_scan_record,
    "construct": check_construct,
    "certify": check_certify,
    "balance_cli": check_balance_cli,
    "balance_v0": check_balance_v0,
}


def check(op: dict, out: dict) -> list[str]:
    """Reasons the output of ``op`` is wrong; empty when it passes."""
    if "error" in out:
        return [out["error"]]
    try:
        return CHECKS[op["kind"]](op, out)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return ["malformed output: %s: %s" % (type(exc).__name__, exc)]
