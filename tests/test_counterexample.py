import json
import math
import operator
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pavekit import counterexample
from pavekit.counterexample import (
    FALSIFIES_A,
    INCONCLUSIVE,
    BasisIndex,
    ExactFrame,
    SignProfile,
    block_sizes,
    branch_lower_bound,
    build_frame,
    delta_p_exact,
    dimension,
    float_frame,
    float_projection,
    min_over_symmetries_v0,
    profile_symmetry,
    psp_v0_coeffs,
    psp_v0_norm_sq,
    row_norm_sq,
    verify_orthonormal,
)
from pavekit.linalg import apply_psp


def random_profile(m, rng):
    return SignProfile(
        eps=tuple(int(x) for x in rng.choice([-1, 1], size=m * m)),
        eps_prime=tuple(int(x) for x in rng.choice([-1, 1], size=2 * m + 1)),
    )


# The four block values as the row_norm_sq docstring displays them, sums of
# fractions; the library reads them from a table of integer numerators.
def block_formulas(m):
    return {
        "a": Fraction(1, (m + 1) ** 2) + Fraction(2 * m + 1, m**4 * (m + 1) ** 2),
        "b": Fraction(2, (m + 1) ** 2),
        "c": Fraction(2, m**2 * (m + 1) ** 2),
        "d": Fraction(m - 1, m**2 * (m + 1)),
    }


def test_dimension_values():
    assert dimension(6) == 764
    assert dimension(8) == 2 * 512 + 8 * 64 + 7 * 8 + 2 == 1594
    with pytest.raises(ValueError):
        dimension(1)


def test_block_sizes_sum_to_dimension():
    for m in range(2, 21):
        assert sum(block_sizes(m).values()) == dimension(m)


def coordinates(m):
    """Every coordinate in the canonical a|b|c|d order, c and d lexicographic."""
    w = 2 * m + 1
    return (
        [BasisIndex.a(i) for i in range(1, m * m + 1)]
        + [BasisIndex.b(i) for i in range(1, w + 1)]
        + [BasisIndex.c(i, j) for i in range(1, w + 1) for j in range(i + 1, w + 1)]
        + [BasisIndex.d(i, j) for i in range(1, w + 1) for j in range(1, (m + 1) ** 2 + 1)]
    )


def displayed_entry(m, k, x):
    """<v_k, e_x> as (rational part, coefficient of sqrt(rho)), written down
    from the displays of v_0 and v_i in the module docstring."""
    if k == 0:
        return (Fraction(1, m + 1) if x.block in "ab" else 0), 0
    if x.block == "a":
        return Fraction(-1, m * m * (m + 1)), 0
    if x.block == "b":
        return (Fraction(1, m + 1) if x.i == k else 0), 0
    if x.block == "c":
        if x.j == k:  # c_{jk} with j < k
            return Fraction(1, m * (m + 1)), 0
        if x.i == k:  # c_{kj} with j > k
            return Fraction(-1, m * (m + 1)), 0
        return 0, 0
    return 0, (Fraction(1, m) if x.i == k else 0)


def dense_classes(f):
    """R, D and mult over every class in canonical order: the frame's dense
    a, b, d classes with its c edges written out as columns between b and d."""
    m, n_c = f.m, f.pairs.shape[1]
    c = np.zeros((f.rank, n_c), dtype=np.int64)
    c[f.pairs[0], np.arange(n_c)] = -m
    c[f.pairs[1], np.arange(n_c)] = m
    split = 2 * m + 2  # the a class and the b classes come before c
    r = np.concatenate([f.R[:, :split], c, f.R[:, split:]], axis=1)
    d = np.concatenate([f.D[:, :split], np.zeros_like(c), f.D[:, split:]], axis=1)
    mult = np.concatenate([f.mult[:split], np.ones(n_c, dtype=np.int64), f.mult[split:]])
    return r, d, mult


def test_frame_entries_match_the_displays():
    # independent oracle: every entry of the expanded frame (dense classes
    # plus c edges), undoing the documented scalings R / (m^2 (m+1)) and
    # D / m, against the displays
    for m in range(2, 7):
        r, d, mult = dense_classes(build_frame(m))
        r, d = np.repeat(r, mult, axis=1), np.repeat(d, mult, axis=1)
        coords = coordinates(m)
        assert r.shape == d.shape == (2 * m + 2, len(coords)) == (2 * m + 2, dimension(m))
        for k in range(2 * m + 2):
            for x, ix in enumerate(coords):
                got = (Fraction(int(r[k, x]), m * m * (m + 1)), Fraction(int(d[k, x]), m))
                assert got == displayed_entry(m, k, ix), (m, k, ix)
    # at m = 6: the a class, b_1..b_13 and d_1..d_13 as dense columns, the
    # 78 c pairs as edges
    f = build_frame(6)
    # the rational part of each squared row norm is 1 with rho = (m-1)/(m+1)
    m, rho = 6, Fraction(6 - 1, 6 + 1)
    r, d, mult = dense_classes(f)
    for k in range(2 * m + 2):
        terms = zip(r[k].tolist(), d[k].tolist(), mult.tolist())
        assert sum(c * (Fraction(r, m * m * (m + 1)) ** 2 + rho * Fraction(d, m) ** 2)
                   for r, d, c in terms) == 1
    assert f.R.dtype == f.D.dtype == f.mult.dtype == f.pairs.dtype == np.int64
    assert f.R.shape == f.D.shape == (14, 1 + 13 + 13)
    assert f.mult.tolist() == [36] + [1] * 13 + [49] * 13
    assert f.pairs.shape == (2, 78) and f.rank == 14
    assert f.pairs[:, :3].tolist() == [[1, 1, 1], [2, 3, 4]]
    assert f.pairs[:, -1].tolist() == [12, 13]
    for a in (f.R, f.D, f.mult, f.pairs):
        assert not a.flags.writeable


def test_float_frame_rounds_each_exact_entry():
    # every entry, in canonical order, against the displays: the correctly
    # rounded rational part, and (1/m) sqrt((m-1)/(m+1)) on d
    for m in range(2, 7):
        rows = float_frame(m).rows
        coords = coordinates(m)
        assert rows.shape == (2 * m + 2, len(coords))
        radical = (1 / m) * math.sqrt((m - 1) / (m + 1))
        for k in range(2 * m + 2):
            for x, ix in enumerate(coords):
                rational, root = displayed_entry(m, k, ix)
                want = radical if root else float(Fraction(rational))
                assert rows[k, x] == want, (m, k, ix)
    m = 6
    rows = float_frame(m).rows
    at = {ix: x for x, ix in enumerate(coordinates(m))}
    assert rows[0, at[BasisIndex.a(1)]] == 1 / 7
    assert rows[1, at[BasisIndex.a(5)]] == -1 / 252
    assert rows[1, at[BasisIndex.b(1)]] == 1 / 7
    assert rows[3, at[BasisIndex.c(3, 5)]] == -1 / 42
    assert rows[1, at[BasisIndex.d(1, 1)]] == (1 / 6) * math.sqrt(5 / 7)
    assert rows[2, at[BasisIndex.d(1, 1)]] == 0


def test_exact_orthonormality():
    assert verify_orthonormal(build_frame(6)) is True
    assert verify_orthonormal(build_frame(12)) is True
    start = time.perf_counter()
    assert verify_orthonormal(build_frame(40)) is True
    assert time.perf_counter() - start < 1.0


def test_large_frames_verify_in_bounded_memory():
    tracemalloc.start()
    try:
        assert delta_p_exact(1000) == Fraction(2, 1001**2)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
        tracemalloc.reset_peak()
        assert verify_orthonormal(build_frame(200)) is True
        assert tracemalloc.get_traced_memory()[1] < 100 << 20
    finally:
        tracemalloc.stop()
    # past m = 1289 the int64 sums could wrap: refused before any arithmetic
    empty = np.zeros((0, 0), dtype=np.int64)
    with pytest.raises(ValueError):
        verify_orthonormal(ExactFrame(m=1290, R=empty, D=empty, mult=empty, pairs=empty))
    # the bound alone, which build_frame checks before it allocates: 2 L^2 < 2^63
    assert counterexample._gram_scale(1289) == 1289**2 * 1290
    with pytest.raises(ValueError, match="exact up to m = 1289, got m=1290"):
        counterexample._gram_scale(1290)


@pytest.mark.parametrize("build, m", [(build_frame, 10**6), (float_frame, 1290),
                                      (float_projection, 1290)])
def test_frames_past_the_int64_bound_are_refused_before_they_are_built(build, m):
    # at m = 10^6 build_frame's R alone would take 58 TiB; the float frame
    # at m = 1290 about 66 GiB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exact up to m = 1289, got m=%d" % m):
            build(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20


@pytest.mark.parametrize("build", [float_frame, float_projection])
@pytest.mark.parametrize("m", [53, 100, np.uint8(100), 1289])
def test_float_frames_past_the_float_budget_are_refused_before_they_are_built(build, m):
    # the dense frame at m = 100 would take 3.4 GB, at m = 1289 about 89 TB;
    # m = 52, the largest allowed, takes 257 MB; a numpy m is sized as an int
    assert (2 * 52 + 2) * dimension(52) <= 1 << 25 < (2 * 53 + 2) * dimension(53)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"at most 33554432 floats \(m <= 52\), got m=%d" % m):
            build(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20


def test_perturbed_frame_fails_verification():
    m, w = 6, 13
    f = build_frame(m)
    fields = dict(m=m, R=f.R, D=f.D, mult=f.mult, pairs=f.pairs)
    # one unit off in a rational part of a dense class
    r = f.R.copy()
    r[0, 0] += 1
    assert verify_orthonormal(ExactFrame(**{**fields, "R": r})) is False
    # c_{12} moved from v_2 to v_3: a c entry off by m on two rows
    pairs = f.pairs.copy()
    pairs[1, 0] = 3
    assert verify_orthonormal(ExactFrame(**{**fields, "pairs": pairs})) is False
    # v_1's radical entry moved from its d_1 class onto the a class and every
    # b class, whose multiplicities also sum to (m+1)^2: the weighted
    # D diag(mult) D^T is unchanged, so only the radical part exposes it
    d_1 = len(f.mult) - w
    d = f.D.copy()
    d[1, d_1] = 0
    d[1, : 1 + w] = 1
    assert np.array_equal((d * f.mult) @ d.T, (f.D * f.mult) @ f.D.T)
    assert verify_orthonormal(ExactFrame(**{**fields, "D": d})) is False


def test_row_norms_match_block_formulas():
    # at m = 60000 the entry squares (up to m^4) leave int64
    for m in (6, 7, 8, 60000):
        want = block_formulas(m)
        assert row_norm_sq(m, BasisIndex.a(1)) == want["a"]
        assert row_norm_sq(m, BasisIndex.b(2)) == want["b"]
        assert row_norm_sq(m, BasisIndex.c(1, 2)) == want["c"]
        assert row_norm_sq(m, BasisIndex.d(2, 3)) == want["d"]


def test_row_norm_values_at_m6():
    assert row_norm_sq(6, BasisIndex.b(1)) == Fraction(2, 49)
    assert row_norm_sq(6, BasisIndex.d(1, 1)) == Fraction(5, 252)
    # 1/49 + 13/(1296*49), reduced
    assert row_norm_sq(6, BasisIndex.a(1)) == Fraction(1309, 63504)
    bad = (
        BasisIndex.c(3, 3), BasisIndex.a(37), BasisIndex.d(14, 1),
        # not integers
        BasisIndex.a(1.5), BasisIndex.b(1.5), BasisIndex.c(1, 2.5), BasisIndex.b(True),
        BasisIndex.a("1"),
        # not coordinates of the layout
        BasisIndex.c(13, 14), BasisIndex("a", 1, 1), BasisIndex("d", 1), BasisIndex("e", 1),
    )
    for ix in bad:
        with pytest.raises(ValueError):
            row_norm_sq(6, ix)
    with pytest.raises(ValueError):
        row_norm_sq(1, BasisIndex.a(1))
    # numpy integers are integers
    assert row_norm_sq(6, BasisIndex.c(np.int64(3), np.int32(5))) == Fraction(2, 49 * 36)


def test_row_norm_sq_refuses_what_is_no_basis_index():
    # a value of another type is refused like a BasisIndex off the layout
    for ix in (5, ("a", 1), "a1", None):
        with pytest.raises(ValueError, match="not a coordinate"):
            row_norm_sq(3, ix)


def test_row_norms_follow_the_dense_frame_at_every_coordinate():
    # every coordinate, in canonical order, against its column of the
    # repeated R and D
    for m in range(2, 6):
        r, d, mult = dense_classes(build_frame(m))
        r, d = np.repeat(r, mult, axis=1), np.repeat(d, mult, axis=1)
        rho = Fraction(m - 1, m + 1)
        for x, ix in enumerate(coordinates(m)):
            rational = [Fraction(int(v), m * m * (m + 1)) for v in r[:, x]]
            radical = [Fraction(int(v), m) for v in d[:, x]]
            assert sum(a * b for a, b in zip(rational, radical)) == 0
            want = sum(a * a for a in rational) + rho * sum(b * b for b in radical)
            assert row_norm_sq(m, ix) == want, (m, ix)


def column_norms_sq(m, r, d):
    # Squared norms of the columns of R and D, as integer numerators over
    # L^2 = (m^2 (m+1))^2: the sum of R's squares plus (m-1) m^2 (m+1) times
    # the sum of D's, in Python ints.  The library computed row norms this
    # way before it read them from a table.
    weight = (m - 1) * m * m * (m + 1)
    return [sum(map(operator.mul, rc, rc)) + weight * sum(map(operator.mul, dc, dc))
            for rc, dc in zip(r.T.tolist(), d.T.tolist())]


def test_diagonal_table_against_the_built_columns():
    # the first and the last class of every block, as built by build_frame:
    # the dense a, b and d columns from R and D, the c classes from the
    # first and the last edge of pairs
    for m in range(2, 401):
        f = build_frame(m)
        w = 2 * m + 1
        dense = {"a": [0, 0], "b": [1, w], "d": [w + 1, 2 * w]}
        c = np.zeros((f.rank, 2), dtype=np.int64)
        c[f.pairs[0, [0, -1]], [0, 1]] = -m
        c[f.pairs[1, [0, -1]], [0, 1]] = m
        norms = {k: column_norms_sq(m, f.R[:, cols], f.D[:, cols]) for k, cols in dense.items()}
        norms["c"] = column_norms_sq(m, c, np.zeros_like(c))
        table = counterexample._diagonal(m)
        assert norms == {k: [v, v] for k, v in table.items()}, m
        scale = (m * m * (m + 1)) ** 2
        for k, ix in counterexample.BLOCK_REPRESENTATIVES.items():
            assert row_norm_sq(m, ix) == Fraction(table[k], scale), (m, k)
        assert delta_p_exact(m) == Fraction(max(max(v) for v in norms.values()), scale), m


def test_diagonal_costs_no_memory_in_m():
    # no array of 2m+2 rows: a few Python ints, at sizes no frame could have
    m = 10**6
    calls = (
        (lambda: delta_p_exact(m), Fraction(2, (m + 1) ** 2)),
        (lambda: row_norm_sq(m, BasisIndex.c(1, 2)), Fraction(2, m**2 * (m + 1) ** 2)),
        (lambda: min_over_symmetries_v0(10**30).verdict, FALSIFIES_A),
    )
    for call, want in calls:
        tracemalloc.start()
        try:
            got = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 64 << 10, (want, peak)


def test_delta_p_values():
    assert delta_p_exact(6) == Fraction(2, 49)
    assert delta_p_exact(10) == Fraction(2, 121)
    assert delta_p_exact(8) == Fraction(2, 81)
    # the frame at m=200 has 16 million coordinates; delta_p reads a table
    # of four integers, so it takes microseconds and no memory to speak of
    start = time.perf_counter()
    assert delta_p_exact(200) == Fraction(2, 201**2)
    assert time.perf_counter() - start < 1.0
    assert delta_p_exact(60000) == Fraction(2, 60001**2)


def test_b_block_strictly_dominates_for_m_at_least_2():
    for m in range(2, 13):
        vals = block_formulas(m)
        assert vals["b"] > vals["a"]
        assert vals["b"] > vals["c"]
        assert vals["b"] > vals["d"]
        assert delta_p_exact(m) == vals["b"]


def test_psp_v0_identity_profile_fixes_v0():
    m = 6
    prof = SignProfile(eps=(1,) * 36, eps_prime=(1,) * 13)
    c0, coeffs = psp_v0_coeffs(m, prof)
    assert c0 == 1
    assert all(c == 0 for c in coeffs)
    assert psp_v0_norm_sq(m, 36, 13) == 1


def test_psp_v0_mixed_profile_closed_form():
    m = 6
    prof = SignProfile(eps=(1,) * 36, eps_prime=(-1,) * 13)
    c0, coeffs = psp_v0_coeffs(m, prof)
    assert c0 == Fraction(23, 49)
    assert all(c == Fraction(-2, 49) for c in coeffs)


def test_flipping_every_sign_negates_coeffs():
    m = 6
    rng = np.random.Generator(np.random.PCG64(10))
    prof = random_profile(m, rng)
    flipped = SignProfile(
        eps=tuple(-e for e in prof.eps), eps_prime=tuple(-e for e in prof.eps_prime)
    )
    c0, coeffs = psp_v0_coeffs(m, prof)
    d0, dcoeffs = psp_v0_coeffs(m, flipped)
    assert d0 == -c0
    assert dcoeffs == [-c for c in coeffs]


def test_psp_v0_norm_sq_example_cell():
    assert psp_v0_norm_sq(6, 18, 6) == Fraction(14, 2401)
    with pytest.raises(ValueError):
        psp_v0_norm_sq(6, 37, 0)
    with pytest.raises(ValueError):
        psp_v0_norm_sq(6, 0, 14)


def test_norm_depends_only_on_counts():
    m = 6
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(25):
        prof = random_profile(m, rng)
        c0, coeffs = psp_v0_coeffs(m, prof)
        exact = c0 * c0 + sum(c * c for c in coeffs)
        assert exact == psp_v0_norm_sq(m, prof.alpha, prof.beta)


def test_flip_symmetry_of_the_lattice():
    for m in (6, 7):
        for alpha in range(0, m * m + 1):
            for beta in range(0, 2 * m + 2):
                assert psp_v0_norm_sq(m, alpha, beta) == psp_v0_norm_sq(
                    m, m * m - alpha, 2 * m + 1 - beta
                )


def test_closed_form_matches_dense_float_apply():
    m = 6
    p = float_projection(m)
    v0 = float_frame(m).rows[0]
    rng = np.random.Generator(np.random.PCG64(12))
    sizes = block_sizes(m)
    tail = sizes["c"] + sizes["d"]
    for _ in range(20):
        prof = random_profile(m, rng)
        s = profile_symmetry(m, prof, cd_signs=rng.choice([-1, 1], size=tail))
        dense = float(np.linalg.norm(apply_psp(p, s, v0)) ** 2)
        exact = float(psp_v0_norm_sq(m, prof.alpha, prof.beta))
        assert abs(dense - exact) < 1e-9
    # c and d signs that are not exactly +-1, or are bools or strings, are
    # refused, not truncated or cast
    for bad in (np.full(tail, 1.9), np.full(tail, -1.5), np.zeros(tail), [True] * tail,
                ["1"] * tail, np.array(["1"] * tail)):
        with pytest.raises(ValueError):
            profile_symmetry(m, prof, cd_signs=bad)
    with pytest.raises(ValueError):
        profile_symmetry(m, prof, cd_signs=np.ones(tail - 1))


def test_certificate_m6_inconclusive():
    rep = min_over_symmetries_v0(6)
    assert rep.min_norm_sq == Fraction(14, 2401)
    assert rep.verdict == INCONCLUSIVE
    assert rep.argmin == (18, 6)
    assert rep.two_delta_p == Fraction(4, 49)
    # sqrt(14)/49 < 4/49
    assert math.sqrt(float(rep.min_norm_sq)) < float(rep.two_delta_p)


def test_certificate_m7_inconclusive():
    assert min_over_symmetries_v0(7).verdict == INCONCLUSIVE


def test_certificate_m8_falsifies():
    rep = min_over_symmetries_v0(8)
    assert rep.min_norm_sq == Fraction(2, 729)
    assert rep.min_norm_sq == Fraction(18, 6561)
    assert rep.two_delta_p == Fraction(4, 81)
    assert rep.min_norm_sq > rep.two_delta_p**2 == Fraction(16, 6561)
    assert rep.verdict == FALSIFIES_A


def test_certificate_verdict_is_exact_comparison():
    for m in (6, 7, 8, 9):
        rep = min_over_symmetries_v0(m)
        expected = FALSIFIES_A if rep.min_norm_sq > (2 * rep.delta_p) ** 2 else INCONCLUSIVE
        assert rep.verdict == expected


def test_lattice_minimum_against_direct_scan():
    # independent oracle: rebuild the minimum from psp_v0_norm_sq alone, over
    # every cell of the lattice
    for m in [*range(2, 25), 40]:
        cells = [
            (psp_v0_norm_sq(m, a, b), a, b)
            for a in range(m * m + 1)
            for b in range(2 * m + 2)
        ]
        value, alpha, beta = min(cells)
        rep = min_over_symmetries_v0(m)
        assert rep.min_norm_sq == value, m
        assert rep.argmin == (alpha, beta), m
        # exactly the two cells the module docstring's proof names reach it:
        # (s, t) = (0, +-1) for even m, (+-1, -+1) for odd m
        st = [(0, 1), (0, -1)] if m % 2 == 0 else [(-1, 1), (1, -1)]
        named = {((s + m * m) // 2, (t + 2 * m + 1) // 2) for s, t in st}
        assert {(a, b) for v, a, b in cells if v == value} == named, m


def row_vertex_scan(m):
    # The per-row scan the certificate ran before the closed form: for fixed
    # beta the value is a strictly convex quadratic in alpha with vertex
    # alpha* = m^2 (m^4 + w - t(m^2 - 1)) / (2 (m^4 + w)), so each row's
    # integer minimizers lie in {floor(alpha*), floor(alpha*) + 1}, clamped
    # to [0, m^2]; the least (units, alpha, beta) of those 2(2m+2) cells.
    m2, w = m * m, 2 * m + 1
    best = None
    for beta in range(w + 1):
        t = 2 * beta - w
        floor = m2 * (m2 * m2 + w - t * (m2 - 1)) // (2 * (m2 * m2 + w))
        for alpha in (floor, floor + 1):
            alpha = min(max(alpha, 0), m2)
            cell = (counterexample._norm_sq_units(m2, w, alpha, beta), alpha, beta)
            if best is None or cell < best:
                best = cell
    return best


def test_closed_form_lattice_minimum_against_the_row_scan():
    for m in range(2, 401):
        units, alpha, beta = row_vertex_scan(m)
        rep = min_over_symmetries_v0(m)
        assert rep.min_norm_sq == Fraction(units, m**4 * (m + 1) ** 4), m
        assert rep.argmin == (alpha, beta), m


def test_lattice_coordinates_must_be_integers():
    for alpha, beta in ((1.5, 2), (2, 2.5), (2.0, 2), (True, 2)):
        with pytest.raises(ValueError):
            psp_v0_norm_sq(8, alpha, beta)
    with pytest.raises(ValueError):
        branch_lower_bound(6, 1.5)
    # numpy integers are integers
    assert psp_v0_norm_sq(8, np.int64(32), np.int32(8)) == Fraction(2, 729)
    assert branch_lower_bound(6, np.int64(9)) == branch_lower_bound(6, 9)
    # and are computed as Python ints: no int64 wraparound at large m
    assert psp_v0_norm_sq(1000, np.int64(0), np.int64(0)) == 1


def test_m_follows_the_one_integer_rule():
    # a numpy integer m is taken as a Python int: the report is the same,
    # JSON included
    want = json.dumps(min_over_symmetries_v0(8).to_json_dict())
    assert json.dumps(min_over_symmetries_v0(np.int64(8)).to_json_dict()) == want
    assert delta_p_exact(np.int64(8)) == delta_p_exact(8)
    assert type(build_frame(np.int32(6)).m) is int
    assert type(branch_lower_bound(np.int64(6), 9)) is float
    c0, _ = psp_v0_coeffs(np.int64(2), SignProfile(eps=(1,) * 4, eps_prime=(-1,) * 5))
    assert c0 == Fraction(-1, 9) and type(c0.denominator) is int
    for fn in (dimension, block_sizes, build_frame, delta_p_exact, min_over_symmetries_v0,
               lambda m: psp_v0_norm_sq(m, 0, 0), lambda m: row_norm_sq(m, BasisIndex.a(1))):
        for bad in (True, 8.0, "8", 1, np.float64(8.0)):
            with pytest.raises(ValueError):
                fn(bad)
    for bad in (True, 6.5, 5):
        with pytest.raises(ValueError):
            branch_lower_bound(bad, 1)
    # the report claims no analytic bound below m = 6
    assert min_over_symmetries_v0(5).branch_bound is None


def test_certificate_at_large_m_is_fast_and_exact():
    start = time.perf_counter()
    rep = min_over_symmetries_v0(1000)
    assert time.perf_counter() - start < 2.0
    assert rep.verdict == FALSIFIES_A
    alpha, beta = rep.argmin
    assert rep.min_norm_sq == psp_v0_norm_sq(1000, alpha, beta)
    # no neighbouring cell does better
    for a, b in ((alpha - 1, beta), (alpha + 1, beta), (alpha, beta - 1), (alpha, beta + 1)):
        assert psp_v0_norm_sq(1000, a, b) >= rep.min_norm_sq


def test_branch_bound_examples():
    assert abs(branch_lower_bound(6, 0) - 5.0 / 49.0) < 1e-15
    assert abs(branch_lower_bound(6, 9) - math.sqrt(13) / 98.0) < 1e-15
    overall = min_over_symmetries_v0(8).branch_bound
    assert abs(overall - (2.0 / 81.0) / 4.0 * math.sqrt(17)) < 1e-15
    assert overall == pytest.approx(0.0255, abs=1e-4)
    # the exact enumeration is strictly stronger at m=8
    assert overall < math.sqrt(2.0 / 729.0)
    with pytest.raises(ValueError):
        branch_lower_bound(5, 0)
    with pytest.raises(ValueError):
        branch_lower_bound(6, 19)  # above m^2/2


def test_branch_bounds_at_huge_m():
    # both bounds round exact rationals, so no m overflows a float: the
    # first branch tends to 1/2, the second and the report's overall bound
    # to 0.0
    for m in (10**153, 2 * 10**154, 10**155, 10**163, 10**400):
        for alpha in (0, m * m // 4 - 1, m * m // 4, m * m // 2):
            bound = branch_lower_bound(m, alpha)
            assert 0.0 <= bound <= 0.5 and not math.isnan(bound), (m, alpha)
        assert 0.0 <= min_over_symmetries_v0(m).branch_bound < 1e-229
    assert branch_lower_bound(10**153, 10**306 // 2) == pytest.approx(math.sqrt(2e153) / 1e306)
    assert min_over_symmetries_v0(10**400).branch_bound == 0.0
    # the overall bound keeps the bits of (delta_p/4) * sqrt(2m+1), the
    # smaller arm of min(m^2 - 4m - 2, sqrt(2m+1)) for every m >= 6
    for m in range(6, 3000):
        want = 2.0 / (m + 1) ** 2 / 4.0 * math.sqrt(2 * m + 1)
        assert min_over_symmetries_v0(m).branch_bound == want


def test_branch_bound_sound_on_every_normalized_cell():
    for m in (6, 7, 8):
        for alpha in range(0, m * m // 2 + 1):
            bound = branch_lower_bound(m, alpha)
            for beta in range(0, 2 * m + 2):
                exact = math.sqrt(float(psp_v0_norm_sq(m, alpha, beta)))
                assert exact >= bound - 1e-12, (m, alpha, beta)


def test_report_serialization():
    rep = min_over_symmetries_v0(8)
    d = rep.to_json_dict()
    assert d["min_norm_sq"] == "2/729"
    assert d["two_delta_p"] == "4/81"
    assert d["delta_p"] == "2/81"
    assert d["verdict"] == FALSIFIES_A
    assert d["argmin_alpha"] == 32 and d["argmin_beta"] == 8


def test_profile_validation():
    with pytest.raises(ValueError):
        SignProfile(eps=(1, 2), eps_prime=(1,))
    prof = SignProfile(eps=(1,) * 4, eps_prime=(1,) * 5)
    prof.validate(2)
    with pytest.raises(ValueError):
        prof.validate(3)
    # the entries follow the one integer rule and are kept as Python ints
    for eps in ((1.0,) * 4, (True,) * 4, (1, 1, 1, 0), ("1",) * 4):
        with pytest.raises(ValueError):
            SignProfile(eps=eps, eps_prime=(1,) * 5)
    prof = SignProfile(eps=tuple(np.array([1, -1, 1, 1])), eps_prime=[1] * 5)
    assert all(type(e) is int for e in prof.eps + prof.eps_prime)
    assert prof == SignProfile(eps=(1, -1, 1, 1), eps_prime=(1,) * 5)
    assert psp_v0_coeffs(2, prof)[0] == Fraction(2 + 5, 9)
