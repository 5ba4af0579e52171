import dataclasses
import itertools
import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pavekit.counterexample import float_projection
from pavekit.linalg import (
    FRAME_GRAM_TOL,
    OrthonormalFrame,
    Projection,
    Symmetry,
    SymmetricMatrix,
    compress_psp,
    compressions,
    operator_norm,
    random_projection,
)
import pavekit.paving as paving
from pavekit.paving import (
    TIE_TOL,
    BruteForceCapError,
    ExperimentRecord,
    ScanConfig,
    brute_force_min,
    brute_force_min_vector,
    conjectureA_test,
    delta_p_numeric,
    records_to_csv,
    scan,
)


def rank1(vec):
    v = np.asarray(vec, dtype=float)
    return Projection(OrthonormalFrame((v / np.linalg.norm(v))[None, :]))


def test_delta_p_numeric_examples():
    assert delta_p_numeric(Projection(OrthonormalFrame(np.eye(4)))) == pytest.approx(1.0)
    p = rank1([1.0, 1.0, 1.0, 1.0])
    assert delta_p_numeric(p) == pytest.approx(0.25)
    w = float_projection(6)
    assert delta_p_numeric(w) == pytest.approx(2.0 / 49.0, abs=1e-12)


def test_brute_force_examples():
    p = rank1([1.0, 1.0])
    mn, argmin = brute_force_min(p)
    assert mn == pytest.approx(0.0, abs=1e-15)
    assert argmin.signs.tolist() == [1, -1]

    p4 = rank1([1.0, 1.0, 1.0, 1.0])
    mn, _ = brute_force_min(p4)
    assert mn == pytest.approx(0.0, abs=1e-12)  # 2/2 split cancels

    p3 = rank1([1.0, 1.0, 1.0])
    mn, argmin = brute_force_min(p3)
    assert mn == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert abs(float(argmin.signs.sum())) == 1  # best split is 2 vs 1


def test_brute_force_first_sign_pinned_and_cap():
    p = random_projection(6, 3, seed=0)
    _, argmin = brute_force_min(p)
    assert argmin.signs[0] == 1
    # the cap holds at every rank, the ones the dimension count decides too
    for q in (p, random_projection(6, 5, seed=0), Projection(OrthonormalFrame(np.zeros((0, 6))))):
        with pytest.raises(BruteForceCapError):
            brute_force_min(q, max_n=5)
    with pytest.raises(ValueError):
        brute_force_min(Projection(OrthonormalFrame(np.zeros((0, 0)))))


def test_brute_force_rank0_gives_zero_and_lex_tiebreak():
    # ranks 0 and above n/2: the dimension count fixes every norm, at 0 and
    # exactly 1, and the lex-smallest sign vector with the leading +1 wins
    # the tie outright, although (9, 5, 1) and (11, 10, 1) have computed
    # norms a few ulps below 1 at other sign vectors.
    cases = [(Projection(OrthonormalFrame(np.zeros((0, 4)))), 0.0),
             (random_projection(9, 5, 1), 1.0),
             (random_projection(11, 10, 1), 1.0),
             (Projection(OrthonormalFrame(np.ones((1, 1)))), 1.0)]
    for p, want in cases:
        mn, argmin = brute_force_min(p)
        assert mn == want
        assert argmin.signs.tolist() == [1] + [-1] * (p.n - 1)


def test_brute_force_matches_direct_enumeration():
    # independent oracle: enumerate sign vectors directly, one at a time
    rng = np.random.Generator(np.random.PCG64(8))
    for trial in range(5):
        n = 7
        p = random_projection(n, int(rng.integers(1, n + 1)), seed=trial)
        best = math.inf
        for code in range(1 << (n - 1)):
            signs = np.ones(n, dtype=np.int64)
            for b in range(n - 1):
                if (code >> b) & 1:
                    signs[b + 1] = -1
            nor = operator_norm(compress_psp(p, Symmetry(signs)))
            best = min(best, nor)
        mn, _ = brute_force_min(p)
        assert mn == pytest.approx(best, abs=1e-10)


def _signs_str(s):
    return "".join("+" if x > 0 else "-" for x in s.signs)


def test_tie_rule_when_every_symmetry_ties():
    # every compression of p = I has norm 1: the lex-smallest sign vector
    # with the leading +1 wins
    mn, argmin = brute_force_min(Projection(OrthonormalFrame(np.eye(8))))
    assert mn == 1.0 and _signs_str(argmin) == "+-------"
    # rank 7 in R^10: range(p) meets every coordinate subspace of dimension
    # >= 4, and every symmetry has 5 or more equal signs, so every norm is
    # exactly 1
    mn, argmin = brute_force_min(random_projection(10, 7, seed=42))
    assert mn == 1.0
    assert _signs_str(argmin) == "+---------"


def test_tie_rule_is_lex_smallest_within_tie_tol(monkeypatch):
    # independent oracle: norms in lexicographic order (-1 before +1), then
    # the first within TIE_TOL of the minimum; ranks 3 and 4 of 8 are walked
    # (at 4 = n/2 the 4-4 splits are mixed), rank 5 is degenerate: every
    # norm is 1 up to roundoff, and the search returns exactly 1 at the
    # lex-smallest sign vector.  Chunks of 4 put ties on both sides of chunk
    # boundaries.
    tails = list(itertools.product((-1, 1), repeat=7))
    for rank in (3, 4, 5):
        p = random_projection(8, rank, seed=3)
        norms = [operator_norm(compress_psp(p, Symmetry((1,) + t))) for t in tails]
        if 2 * rank > 8:
            assert all(abs(x - 1.0) <= (rank + 1) * FRAME_GRAM_TOL for x in norms)
            want = (1.0, tails[0])
        else:
            best = min(norms)
            want = (best, next(t for t, x in zip(tails, norms) if x <= best + TIE_TOL))
        for chunk in (paving.SIGN_CHUNK, 4):
            monkeypatch.setattr(paving, "SIGN_CHUNK", chunk)
            mn, argmin = brute_force_min(p)
            # each compression is built afresh: no drift
            assert (mn, tuple(argmin.signs[1:].tolist())) == want


def test_brute_force_min_does_not_depend_on_the_chunk_size(monkeypatch):
    # a compression has the same bits wherever its sign vector sits in the
    # batched matmul, so chunks of 1, 4 and 2^14 give the same minimum and
    # argmin; rank 4 = n/2 is the largest the search walks, and rank 8 of 8
    # is p = I up to roundoff, where every norm ties
    for rank in (1, 3, 4, 5, 8):
        p = random_projection(8, rank, seed=11)
        found = set()
        for chunk in (1, 4, 1 << 14):
            monkeypatch.setattr(paving, "SIGN_CHUNK", chunk)
            mn, argmin = brute_force_min(p)
            found.add((mn, tuple(argmin.signs.tolist())))
        assert len(found) == 1


# operator_norm calls of brute_force_min(random_projection(10, rank, seed)),
# seeds 1-3, in one chunk and in chunks of one sign vector
SCORED = {3: ((8, 2, 3), (28, 15, 18)), 5: ((2, 2, 2), (31, 32, 27)),
          7: ((0,) * 3, (0,) * 3)}


@pytest.mark.parametrize("rank", [3, 5, 7])
def test_brute_force_min_scores_only_the_symmetries_that_can_win(rank, monkeypatch):
    # n = 10: a sign vector is scored only while its stack bound is within
    # TIE_TOL of the best norm so far; ranks 3 and 5 skip all but a few of
    # the 512, rank 7 all of them (every norm is 1, and there is no walk).
    # Chunks of one sign vector score more, as a chunk's rows cannot wait
    # for a later, lower norm, and a chunk's first row is compressed whatever
    # its Rayleigh bound, but the running best still prunes across chunks.
    scored = []

    def counting(m):
        scored.append(m)
        return operator_norm(m)

    monkeypatch.setattr(paving, "operator_norm", counting)
    for chunk, calls in zip((1 << 14, 1), SCORED[rank]):
        monkeypatch.setattr(paving, "SIGN_CHUNK", chunk)
        for seed, want in zip((1, 2, 3), calls):
            scored.clear()
            brute_force_min(random_projection(10, rank, seed))
            assert len(scored) == want


def test_sign_table_is_read_only_and_built_once_per_scan():
    # the walk caches its sign table, so a write to it would reach every
    # later walk of the same n and chunk; a scan of six n = 10 records, one
    # chunk each, builds it once
    rows = paving._sign_rows(10, 0, 512)
    with pytest.raises(ValueError):
        rows[0, 0] = -1.0
    paving._sign_rows.cache_clear()
    scan(ScanConfig(n=10, rank=5, count=6, seed=1))
    assert paving._sign_rows.cache_info().misses == 1


def test_cached_sign_table_gives_the_records_of_a_cold_cache(monkeypatch):
    # walks at n = 8 and n = 10 interleaved, each instance twice and then
    # through the vector search, whose one-chunk walks share the table: the
    # records must be those of walks that each start from an empty cache.
    # At 2^14 each instance's second walk and its vector search hit.
    rng = np.random.Generator(np.random.PCG64(5))
    cases = [(random_projection(n, r, seed), rng.standard_normal(n))
             for seed in (1, 2) for n, r in ((8, 3), (10, 5), (8, 4), (10, 3))]

    def records(p, v, cold):
        out = []
        for search in (brute_force_min, brute_force_min, brute_force_min_vector):
            if cold:
                paving._sign_rows.cache_clear()
            mn, argmin = search(p) if search is brute_force_min else search(p, v)
            out.append((mn, argmin.signs.tolist()))
        return out

    for chunk in (1, 4, 1 << 14):
        monkeypatch.setattr(paving, "SIGN_CHUNK", chunk)
        want = [records(p, v, cold=True) for p, v in cases]
        paving._sign_rows.cache_clear()
        assert [records(p, v, cold=False) for p, v in cases] == want
        if chunk == 1 << 14:
            assert paving._sign_rows.cache_info().hits == 2 * len(cases)


def shrunk_projection(n, r, seed):
    # random_projection's frame shrunk along u = (1, ..., 1)/sqrt(r): its Gram
    # matrix is I - eps*u u^T, off by eps/r = 0.95*FRAME_GRAM_TOL in every
    # entry and by eps = 0.95*r*FRAME_GRAM_TOL in norm
    f = random_projection(n, r, seed).frame.rows
    u = np.ones(r) / math.sqrt(r)
    c = 1.0 - math.sqrt(1.0 - 0.95 * r * FRAME_GRAM_TOL)
    return Projection(OrthonormalFrame(f - c * np.outer(u, u @ f)))


@pytest.mark.parametrize("make", [random_projection, shrunk_projection])
def test_skipped_symmetries_change_no_minimum_and_no_argmin(make, monkeypatch):
    # independent oracle: every sign vector's norm from compress_psp, one at
    # a time, in lexicographic order; the minimum and the first sign vector
    # within TIE_TOL of it must come out bit for bit, whatever the chunk, up
    # to rank n/2.  Those with more than n - r signs of one kind are skipped
    # when a mixed one wins, and by the theorem behind the skip their
    # computed norms stay at or above 1 - (r+1)*FRAME_GRAM_TOL, even on the
    # shrunk frames.  Above rank n/2 every sign vector is of that kind, each
    # computed norm is within (r+1)*FRAME_GRAM_TOL of 1, and the search
    # returns exactly 1 at the lex-smallest sign vector.
    shortfall = 0.0
    for n in range(6, 13):
        for r in range(1, n + 1):
            p = make(n, r, n * 13 + r)
            signs = [np.array((1,) + t) for t in itertools.product((-1, 1), repeat=n - 1)]
            norms = [operator_norm(compress_psp(p, Symmetry(s))) for s in signs]
            unmixed = [x for s, x in zip(signs, norms) if abs(s.sum()) > n - 2 * r]
            assert min(unmixed, default=1.0) >= 1.0 - (r + 1) * FRAME_GRAM_TOL
            shortfall = max(shortfall, 1.0 - min(unmixed, default=1.0))
            if 2 * r > n:
                assert all(abs(x - 1.0) <= (r + 1) * FRAME_GRAM_TOL for x in norms)
                best, want = 1.0, signs[0].tolist()
            else:
                best = min(norms)
                want = next(s for s, x in zip(signs, norms) if x <= best + TIE_TOL).tolist()
            for chunk in (1 << 14, 4, 1):
                monkeypatch.setattr(paving, "SIGN_CHUNK", chunk)
                mn, argmin = brute_force_min(p)
                assert mn == best and argmin.signs.tolist() == want
    if make is shrunk_projection:
        # the frame's error reaches the norms beyond one Gram entry's worth
        assert shortfall > 2 * FRAME_GRAM_TOL


@pytest.mark.parametrize("make", [random_projection, shrunk_projection])
@pytest.mark.parametrize("n", [14, 16])
def test_skipped_symmetries_change_nothing_where_most_are_skipped(n, make):
    # the same oracle at r = n/2, where the walk eigensolves 3 of the 8,192
    # sign vectors (n = 14) and 26 of the 32,768 (n = 16), in 3 and 13
    # chunks: the minimum and the first sign vector within TIE_TOL of it must
    # come out bit for bit, on frames exact to rounding and on shrunk ones
    p = make(n, n // 2, 1)
    signs = [(1,) + t for t in itertools.product((-1, 1), repeat=n - 1)]
    norms = [operator_norm(compress_psp(p, Symmetry(s))) for s in signs]
    best = min(norms)
    want = next(s for s, x in zip(signs, norms) if x <= best + TIE_TOL)
    mn, argmin = brute_force_min(p)
    assert mn == best and tuple(argmin.signs.tolist()) == want


def check_stack_bounds(p, rows, norms):
    # the bound the walk eigensolves by: at most the computed norm, and,
    # unless its 32nd power over r underflows, never looser than r^(-1/32)
    # times it, less the rounding margin
    r = p.rank
    bounds = paving._stack_bounds(compressions(p, rows))
    assert (bounds <= norms).all()
    slack = 1.0 - 2 * (r + 64) * r * np.finfo(float).eps
    normal = norms**32 > 2 * r * np.finfo(float).tiny
    assert (bounds[normal] >= slack * r ** (-1 / 32) * norms[normal]).all()


@pytest.mark.parametrize("make", [random_projection, shrunk_projection])
def test_no_computed_norm_lies_below_its_bound(make):
    # the theorems the skips rest on, checked on the computed values: for
    # every sign vector at n = 2..12 and every rank, both bounds the walk
    # filters by are at most the norm operator_norm computes.  At rank 1 each
    # unit frame column spans the whole range, so a mixed sign vector's bound
    # is its norm less the margin.  Each check runs on this test's own array
    # and on the read-only sign table the walk itself passes.
    for n in range(2, 13):
        rows = np.array([(1.0,) + t for t in itertools.product((-1.0, 1.0), repeat=n - 1)])
        table = paving._sign_rows(n, 0, 2 ** (n - 1))
        assert (table == rows).all()
        for r in range(1, n + 1):
            p = make(n, r, n * 17 + r)
            norms = np.array([operator_norm(SymmetricMatrix(c)) for c in compressions(p, rows)])
            for signs in (rows, table):
                bounds = paving._norm_bounds(p, signs)
                assert (bounds <= norms).all()
                if r == 1:
                    mixed = np.abs(signs.sum(axis=1)) <= n - 2
                    gap = bounds[mixed] + 2 * FRAME_GRAM_TOL - norms[mixed]
                    assert np.abs(gap).max() <= 4 * np.finfo(float).eps
                check_stack_bounds(p, signs, norms)


def test_no_computed_norm_lies_below_its_bounds_on_integer_frames():
    # exact ties, exact zeros, a subnormal column, zero columns, norms whose
    # 16th powers are subnormal, and norms whose 32nd powers straddle the
    # smallest normal float.  The Rayleigh bound gives a dead column (squared
    # norm 0 or subnormal) weight 0, not a 0/0: every bound is finite, and a
    # division warning would fail the test.
    for p in integer_frames():
        rows = np.array([(1.0,) + t for t in itertools.product((-1.0, 1.0), repeat=p.n - 1)])
        norms = np.array([operator_norm(SymmetricMatrix(c)) for c in compressions(p, rows)])
        bounds = paving._norm_bounds(p, rows)
        assert np.isfinite(bounds).all() and (bounds <= norms).all()
        check_stack_bounds(p, rows, norms)


def integer_frames():
    # rank-1 frames of integer weights and rank-2 frames of two orthogonal
    # integer vectors: their norms tie exactly in many places
    rng = np.random.Generator(np.random.PCG64(31))
    for _ in range(30):
        a = rng.integers(1, 4, size=int(rng.integers(3, 12)))
        yield Projection(OrthonormalFrame((a / np.linalg.norm(a))[None, :]))
    for _ in range(20):
        n = int(rng.integers(4, 12))
        a = rng.integers(1, 3, size=n) * rng.choice([-1, 1], size=n)
        b = rng.integers(-2, 3, size=n)
        b = (a @ a) * b - (a @ b) * a
        if not b.any():
            b = np.roll(a, 1) * (a @ a) - (a @ np.roll(a, 1)) * a
        yield Projection(OrthonormalFrame(np.array([a / np.linalg.norm(a), b / np.linalg.norm(b)])))
    # a column whose squared norm is subnormal: its quotient rounds above
    # the true one, so it is left out and the other columns bound the row
    # (min 0.125 here)
    v = np.array([1.0, 1e-161, 2.0, 1.0, 1.0, 3.0])
    yield Projection(OrthonormalFrame((v / np.linalg.norm(v))[None, :]))
    # two norms t^2 near 1e-20, whose 16th powers are subnormal: rounded up,
    # they would lift the stack bound up to 1.4 % above the norm
    for t in (8e-11, 1.1e-10):
        yield Projection(OrthonormalFrame(np.array([[0.5, 0.5, 0.5, 0.5, t]])))
    # two norms t^2 near 2e-10, whose 32nd powers are 1.2e-315 (subnormal,
    # so the stack bound is 0) and 1.2e-307 (normal, so it is near the
    # norm); scaled to unit length, as the row fails the Gram check unscaled
    for t in (1.2e-5, 1.6e-5):
        v = np.array([0.5, 0.5, 0.5, 0.5, t])
        yield Projection(OrthonormalFrame((v / np.linalg.norm(v))[None, :]))
    # a rank-1 and a rank-2 frame with an exactly zero column
    yield Projection(OrthonormalFrame(np.array([[1.0, 0.0, 2.0, 1.0, 1.0]]) / math.sqrt(7)))
    yield Projection(OrthonormalFrame(np.array([[1.0, 1.0, 0.0, 1.0, 1.0],
                                                [1.0, -1.0, 0.0, 1.0, -1.0]]) / 2))


def test_brute_force_min_matches_full_enumeration_on_integer_frames(monkeypatch):
    # independent oracle as above, on frames with many exact ties; chunks of
    # 4 split the ties across chunk boundaries
    for p in integer_frames():
        signs = [np.array((1,) + t) for t in itertools.product((-1, 1), repeat=p.n - 1)]
        norms = [operator_norm(compress_psp(p, Symmetry(s))) for s in signs]
        best = min(norms)
        want = next(s for s, x in zip(signs, norms) if x <= best + TIE_TOL).tolist()
        for chunk in (1 << 14, 4):
            monkeypatch.setattr(paving, "SIGN_CHUNK", chunk)
            mn, argmin = brute_force_min(p)
            assert mn == best and argmin.signs.tolist() == want


def test_tie_rule_on_permuted_degenerate_instances():
    # p = vv^T with v = (1, 1, 2, 2, 3, 3) permuted: ||psp|| = |sum s_i v_i^2|
    # / ||v||^2, which is zero (up to roundoff) exactly when the integer sum
    # vanishes.  The argmin must be the lex-smallest such s, however the
    # permutation places the tied symmetries along the walk.
    rng = np.random.Generator(np.random.PCG64(606))
    base = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
    for _ in range(8):
        v = base[rng.permutation(6)]
        w = (v * v).astype(int)
        ties = [s for s in itertools.product((-1, 1), repeat=6)
                if s[0] == 1 and int(np.dot(s, w)) == 0]
        assert len(ties) >= 4
        mn, argmin = brute_force_min(rank1(v))
        assert mn < 1e-15
        assert tuple(argmin.signs.tolist()) == min(ties)


def test_both_searches_share_the_tie_rule_on_permuted_degenerate_instances():
    # p = vv^T as above: ||psp(v)|| = |sum s_i v_i^2| / ||v|| vanishes on the
    # same sign vectors as ||psp||, so the vector and operator searches must
    # return the same lex-smallest tie
    rng = np.random.Generator(np.random.PCG64(606))
    base = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
    for _ in range(8):
        v = base[rng.permutation(6)]
        w = (v * v).astype(int)
        ties = min(s for s in itertools.product((-1, 1), repeat=6)
                   if s[0] == 1 and int(np.dot(s, w)) == 0)
        p = rank1(v)
        assert tuple(brute_force_min(p)[1].signs.tolist()) == ties
        assert tuple(brute_force_min_vector(p, v)[1].signs.tolist()) == ties


def test_s_and_minus_s_compress_to_equal_norms():
    rng = np.random.Generator(np.random.PCG64(123))
    for _ in range(100):
        n = int(rng.integers(2, 12))
        p = random_projection(n, int(rng.integers(1, n + 1)), seed=int(rng.integers(0, 2**31)))
        s = Symmetry(rng.choice([-1, 1], size=n))
        a = operator_norm(compress_psp(p, s))
        b = operator_norm(compress_psp(p, -s))
        assert abs(a - b) < 1e-12


def test_argmin_equivariant_under_coordinate_permutation():
    rng = np.random.Generator(np.random.PCG64(99))
    p = random_projection(9, 4, seed=5)
    mn, argmin = brute_force_min(p)
    for _ in range(10):
        perm = rng.permutation(9)
        rows = p.frame.rows[:, perm]
        pp = Projection(OrthonormalFrame(rows))
        mn2, argmin2 = brute_force_min(pp)
        assert abs(mn - mn2) < 1e-12
        # argmin of the permuted instance is the permuted argmin, up to the
        # global sign flip that restores the pinned +1 leading entry
        moved = argmin.signs[perm]
        if moved[0] == -1:
            moved = -moved
        assert argmin2.signs.tolist() == moved.tolist()


def test_brute_force_min_vector_consistency():
    p = rank1([1.0, 1.0, 1.0])
    mn, argmin = brute_force_min_vector(p, np.array([1.0, 1.0, 1.0]))
    # ||psp(v)|| = |sum of +-1/3| * ||v|| over unit directions; best split 2/1
    assert mn == pytest.approx(math.sqrt(3.0) / 3.0, abs=1e-12)
    with pytest.raises(BruteForceCapError):
        brute_force_min_vector(p, np.ones(3), max_n=2)
    with pytest.raises(ValueError, match="v must hold integers or floats"):
        brute_force_min_vector(random_projection(4, 2, 1), ["1", "0", "0", "1"])


def test_brute_force_min_vector_checks_the_cap_before_it_projects(monkeypatch):
    # n > max_n with a valid v is refused before v is scaled or projected
    def apply(self, v):
        raise AssertionError("Projection.apply called past the cap")

    monkeypatch.setattr(Projection, "apply", apply)
    with pytest.raises(BruteForceCapError):
        brute_force_min_vector(random_projection(6, 3, 1), np.ones(6), max_n=5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_brute_force_min_vector_rejects_non_finite_entries(bad):
    p = random_projection(6, 3, 1)
    with pytest.raises(ValueError):
        brute_force_min_vector(p, [bad, 1, 1, 1, 1, 1])


def test_brute_force_min_vector_scales_past_float_range():
    # unscaled, every norm at 2^520 overflows and at 2^-600 underflows to 0
    p = random_projection(6, 3, 1)
    v = np.random.Generator(np.random.PCG64(8)).standard_normal(6)
    norm, signs = brute_force_min_vector(p, v)
    assert 0.0 < norm < 1.0
    # the tie rule sees the same scaled norms at every k, so the argmin holds
    # where the norms fall far below TIE_TOL (it used to flip from k = -48 on)
    for k in (-600, -520, *range(-60, 61), 520, 1000):
        got_norm, got = brute_force_min_vector(p, np.ldexp(v, k))
        assert got_norm == math.ldexp(norm, k)
        assert got.signs.tolist() == signs.signs.tolist()
    # every norm past the largest float: all tie at inf
    got_norm, got = brute_force_min_vector(Projection(OrthonormalFrame(np.eye(4))),
                                           np.full(4, 1.5e308))
    assert got_norm == math.inf and _signs_str(got) == "+---"


def unchunked_min_vector(p, v):
    # every sign vector at once, first sign pinned +1, in lexicographic order
    # (-1 before +1); the first within TIE_TOL of the minimum wins
    signs = np.array([(1,) + t for t in itertools.product((-1.0, 1.0), repeat=p.n - 1)])
    norms = np.linalg.norm((signs * p.apply(v)) @ p.frame.rows.T, axis=1)
    at = int(np.flatnonzero(norms <= norms.min() + TIE_TOL)[0])
    return float(norms.min()), signs[at].astype(int).tolist()


def test_brute_force_min_vector_chunks_keep_the_first_minimizer(monkeypatch):
    monkeypatch.setattr(paving, "SIGN_CHUNK", 4)
    rng = np.random.Generator(np.random.PCG64(17))
    for n in range(1, 11):
        for rank in {1, (n + 1) // 2}:
            p = random_projection(n, rank, seed=n * 31 + rank)
            v = rng.standard_normal(n)
            want_norm, want_signs = unchunked_min_vector(p, v)
            got_norm, got = brute_force_min_vector(p, v)
            assert got_norm == pytest.approx(want_norm, abs=1e-12)
            assert got.signs.tolist() == want_signs
    # p = I, v = e_1: every pattern ties at norm 1, in every chunk, and the
    # operator search picks the same sign vector
    got_norm, got = brute_force_min_vector(Projection(OrthonormalFrame(np.eye(8))), np.eye(8)[0])
    assert got_norm == 1.0 and _signs_str(got) == "+-------"


def test_brute_force_min_vector_memory_is_bounded():
    p = random_projection(18, 9, seed=4)
    tracemalloc.start()
    try:
        brute_force_min_vector(p, np.ones(18))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_brute_force_min_memory_is_bounded(monkeypatch):
    # r = n/2 is the largest compression stack the search builds: a whole
    # chunk of 2^14 sign vectors would take 2^14 * 9 * (18 + 9) floats,
    # 32 MB.  r = 1 has the largest block of lower bounds: 2^14 sign vectors
    # of r + n floats.  The eigensolve per symmetry only makes r x r
    # temporaries, so it is stubbed (every norm 1, so every sign vector is
    # scored): under tracemalloc the 2^17 real ones take about 15 s.
    monkeypatch.setattr(paving, "SymmetricMatrix", lambda c: c)
    monkeypatch.setattr(paving, "operator_norm", lambda c: 1.0)
    for rank in (9, 1):
        p = random_projection(18, rank, seed=4)
        tracemalloc.start()
        try:
            brute_force_min(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def test_conjectureA_examples():
    rec = conjectureA_test(rank1([1.0, 1.0, 1.0]), seed=7)
    assert rec.delta_p == pytest.approx(1.0 / 3.0)
    assert rec.min_psp_norm == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rec.conjectureA_satisfied
    assert rec.seed == 7

    rec = conjectureA_test(Projection(OrthonormalFrame(np.eye(3))))
    assert rec.min_psp_norm == pytest.approx(1.0)
    assert rec.conjectureA_satisfied  # 1 <= 2


def test_conjectureA_satisfaction_rate_reported():
    # observational reproduction of "counterexamples are rare": the rate is
    # printed, never asserted against a threshold
    satisfied = 0
    count = 20
    for seed in range(count):
        rec = conjectureA_test(random_projection(8, 4, seed=seed), seed=seed)
        satisfied += int(rec.conjectureA_satisfied)
    print("conjecture A satisfied on %d/%d random instances" % (satisfied, count))
    assert 0 <= satisfied <= count


def test_scan_determinism_and_count():
    cfg = ScanConfig(n=10, rank=5, count=5, seed=1)
    a = scan(cfg)
    b = scan(cfg)
    assert len(a) == 5
    assert all(r.conjectureA_satisfied is not None for r in a)
    strip = lambda r: {k: v for k, v in r.to_json_dict().items() if k != "runtime_ms"}
    assert [strip(r) for r in a] == [strip(r) for r in b]
    assert [r.seed for r in a] == [1, 2, 3, 4, 5]
    assert scan(ScanConfig(n=8, rank=4, count=0, seed=1)) == []


def test_scan_workers_agree():
    cfg = ScanConfig(n=7, rank=3, count=6, seed=11)
    strip = lambda r: {k: v for k, v in r.to_json_dict().items() if k != "runtime_ms"}
    assert [strip(r) for r in scan(cfg, workers=1)] == [strip(r) for r in scan(cfg, workers=4)]


def test_scan_cap_checked_up_front():
    with pytest.raises(BruteForceCapError):
        scan(ScanConfig(n=30, rank=4, count=1, seed=1))


def test_scan_balance_mode_populates_single_vector_norms():
    cfg = ScanConfig(n=6, rank=3, count=2, seed=3, mode="balance")
    recs = scan(cfg)
    for rec in recs:
        assert rec.single_vector_norms is not None
        assert len(rec.single_vector_norms) == 6
        delta = rec.delta_p
        bound = math.sqrt(2 * delta + 3 * delta * delta)
        for val in rec.single_vector_norms:
            if val is not None:
                assert val <= bound + 1e-9


def test_balance_scan_records_match_the_instance_tests():
    # seeds 5..11 at gamma 0.75, epsilon 0.3 give Conjecture B held, failed
    # (seed 6: min norm 0.711 >= 0.7) and vacuous (delta_p >= gamma) cases
    cfg = ScanConfig(n=6, rank=3, count=7, seed=5, mode="balance", gamma=0.75, epsilon=0.3)
    recs = scan(cfg)
    assert {r.conjectureB_holds for r in recs} == {True, False}
    for rec in recs:
        p = random_projection(6, 3, rec.seed)
        want = conjectureA_test(p, seed=rec.seed).to_json_dict()
        got = rec.to_json_dict()
        for key in ("runtime_ms", "conjectureB_holds", "single_vector_norms"):
            del want[key], got[key]
        assert got == want
        min_norm = brute_force_min(p)[0]
        assert rec.conjectureB_holds == (rec.delta_p >= 0.75 or min_norm < 1 - 0.3)
        assert len(rec.single_vector_norms) == 6


def test_conjectureA_scan_records_match_the_instance_tests():
    # the same seeds in conjectureA mode: each record is the instance test's,
    # field by field, plus its Conjecture B verdict
    cfg = ScanConfig(n=6, rank=3, count=7, seed=5, gamma=0.75, epsilon=0.3)
    recs = scan(cfg)
    assert {r.conjectureB_holds for r in recs} == {True, False}
    for rec in recs:
        want = conjectureA_test(random_projection(6, 3, rec.seed), seed=rec.seed)
        for key in paving.CSV_COLUMNS:
            if key not in ("runtime_ms", "conjectureB_holds"):
                assert getattr(rec, key) == getattr(want, key), key
        assert rec.conjectureB_holds == (rec.delta_p >= 0.75 or rec.min_psp_norm < 1 - 0.3)


def test_balance_scan_past_the_cap_keeps_the_fields_that_need_no_walk():
    below = scan(ScanConfig(n=8, rank=3, count=3, seed=2, mode="balance", gamma=0.75,
                            epsilon=0.1))
    above = scan(ScanConfig(n=8, rank=3, count=3, seed=2, mode="balance", gamma=0.75,
                            epsilon=0.1, max_n=7))
    walked = ("min_psp_norm", "argmin_signs", "conjectureA_satisfied", "conjectureB_holds")
    for a, b in zip(above, below):
        assert all(getattr(a, key) is None for key in walked)
        assert all(getattr(b, key) is not None for key in walked)
        assert replace(a, runtime_ms=0.0) == replace(
            b, runtime_ms=0.0, **{key: None for key in walked})


def test_scan_gamma_epsilon_populates_conjectureB():
    cfg = ScanConfig(n=6, rank=3, count=2, seed=3, gamma=2.0, epsilon=0.01)
    recs = scan(cfg)
    for rec in recs:
        assert rec.conjectureB_holds is not None


def test_scan_captures_per_instance_errors():
    # rank > n makes random_projection fail; the record carries the error
    cfg = ScanConfig(n=4, rank=9, count=2, seed=0)
    recs = scan(cfg)
    assert len(recs) == 2
    blank = ExperimentRecord(seed=0, n=0, rank=0)
    for rec in recs:
        assert rec.error is not None
        for f in dataclasses.fields(ExperimentRecord):
            if f.name not in ("seed", "n", "rank", "error", "runtime_ms"):
                assert getattr(rec, f.name) == getattr(blank, f.name), f.name
        assert (rec.n, rec.rank) == (4, 9)
    assert [r.seed for r in recs] == [0, 1]


def test_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(n=4, rank=2, count=1, seed=0, mode="annealing")
    with pytest.raises(ValueError):
        ScanConfig(n=4, rank=2, count=-1, seed=0)
    with pytest.raises(ValueError):
        ScanConfig(n=4, rank=2, count=1, seed=0, gamma=0.5)
    # inputs every instance would fail on are refused before the first draw
    with pytest.raises(ValueError, match="n must be an integer >= 1, got 0"):
        ScanConfig(n=0, rank=0, count=1, seed=1)
    with pytest.raises(ValueError, match="seed must be an integer >= 0, got -1"):
        ScanConfig(n=10, rank=5, count=2, seed=-1)
    # gamma and epsilon: any real number but bool, stored as a Python float
    with pytest.raises(ValueError, match="gamma must be a real number, got True"):
        ScanConfig(n=4, rank=2, count=1, seed=0, gamma=True, epsilon=0.1)
    with pytest.raises(ValueError, match="epsilon must be a real number, got '0.1'"):
        ScanConfig(n=4, rank=2, count=1, seed=0, gamma=0.5, epsilon="0.1")
    cfg = ScanConfig(n=4, rank=2, count=1, seed=0, gamma=1, epsilon=np.float64(0.25))
    assert (type(cfg.gamma), type(cfg.epsilon)) == (float, float)


@pytest.mark.parametrize("gamma, epsilon", [
    (math.nan, math.nan), (math.nan, 0.1), (0.5, math.nan), (math.inf, 0.1),
    (0.0, 0.1), (-0.5, 0.1), (0.5, 0.0), (0.5, 1.0), (0.5, -0.1),
    (True, 0.1), (0.5, True), ("0.5", 0.1), (0.5, None),
])
def test_conjectureB_parameters_validated(gamma, epsilon):
    with pytest.raises(ValueError):
        ScanConfig(n=4, rank=2, count=1, seed=0, gamma=gamma, epsilon=epsilon)


@pytest.mark.parametrize("workers, count, expected", [
    (10_000, 5, [3]), (10_000, 2, [2]), (2, 5, [2]), (10_000, 1, []), (1, 5, []),
])
def test_scan_pool_size_is_clamped(workers, count, expected, pool_sizes):
    # min(workers, cpu_count() = 3, count); one process runs inline
    recs = scan(ScanConfig(n=4, rank=2, count=count, seed=5), workers=workers)
    assert pool_sizes == expected
    assert [r.seed for r in recs] == list(range(5, 5 + count))


def test_scan_reads_the_cpu_count_only_for_a_pool(pool_sizes, monkeypatch):
    calls = []
    monkeypatch.setattr(os, "cpu_count", lambda: calls.append(1) or 3)
    scan(ScanConfig(n=4, rank=2, count=3, seed=5), workers=1)
    assert calls == [] and pool_sizes == []
    scan(ScanConfig(n=4, rank=2, count=3, seed=5), workers=2)
    assert calls == [1] and pool_sizes == [2]


def test_record_serialization_shapes():
    rec = ExperimentRecord(seed=1, n=4, rank=2, delta_p=0.5, min_psp_norm=0.25,
                           argmin_signs=(1, -1, 1, -1), two_delta_p=1.0,
                           conjectureA_satisfied=True, runtime_ms=3.25)
    jd = rec.to_json_dict()
    assert jd["argmin_signs"] == [1, -1, 1, -1]
    csv_text = records_to_csv([rec], header={"x": 1})
    lines = csv_text.splitlines()
    assert lines[0].startswith("# ")
    assert lines[1].split(",")[0] == "seed"
    assert lines[2].split(",")[5] == "+-+-"
    # floats at 17 significant digits
    assert "0.5" in lines[2]


def test_record_csv_row_and_json_dict_with_every_field_set():
    rec = ExperimentRecord(seed=3, n=4, rank=2, delta_p=0.1, min_psp_norm=2.0 / 3.0,
                           argmin_signs=(1, -1, -1, 1), two_delta_p=0.2,
                           conjectureA_satisfied=False, conjectureB_holds=True,
                           single_vector_norms=(0.5, None, 1.0 / 3.0, 0.25),
                           error="ValueError: bad, worse", runtime_ms=1.5)
    assert records_to_csv([rec]).splitlines() == [
        "seed,n,rank,delta_p,min_psp_norm,argmin_signs,two_delta_p,conjectureA_satisfied,"
        "conjectureB_holds,single_vector_norms,error,runtime_ms",
        '3,4,2,0.10000000000000001,0.66666666666666663,+--+,0.20000000000000001,false,true,'
        '0.5;;0.33333333333333331;0.25,"ValueError: bad, worse",1.5',
    ]
    assert rec.to_json_dict() == {
        "seed": 3, "n": 4, "rank": 2, "delta_p": 0.1, "min_psp_norm": 2.0 / 3.0,
        "argmin_signs": [1, -1, -1, 1], "two_delta_p": 0.2,
        "conjectureA_satisfied": False, "conjectureB_holds": True,
        "single_vector_norms": [0.5, None, 1.0 / 3.0, 0.25],
        "error": "ValueError: bad, worse", "runtime_ms": 1.5,
    }
    # asdict's keys in asdict's order, with fresh lists the record never sees
    jd = rec.to_json_dict()
    assert list(jd.items()) == [(k, list(v) if isinstance(v, tuple) else v)
                                for k, v in dataclasses.asdict(rec).items()]
    jd["argmin_signs"][0] = -1
    jd["single_vector_norms"].append(9.0)
    again = rec.to_json_dict()
    assert again["argmin_signs"] == [1, -1, -1, 1]
    assert again["single_vector_norms"] == [0.5, None, 1.0 / 3.0, 0.25]
    # unset fields: empty cells, JSON nulls
    bare = ExperimentRecord(seed=0, n=4, rank=9, error="ValueError: need rank <= n")
    assert records_to_csv([bare]).splitlines()[1] == "0,4,9,,,,,,,,ValueError: need rank <= n,0"
    assert bare.to_json_dict()["argmin_signs"] is None
