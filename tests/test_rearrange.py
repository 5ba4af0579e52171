import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pavekit.counterexample import float_frame, float_projection
from pavekit.linalg import (
    OrthonormalFrame,
    Projection,
    apply_psp,
    random_projection,
)
from pavekit.rearrange import (
    PREFIX_TOL,
    ZeroSumFamily,
    check_prefix_property,
    greedy_rearrange,
    partial_sum_bound_holds,
    single_vector_symmetry,
)


def rank1(vec):
    v = np.asarray(vec, dtype=float)
    return Projection(OrthonormalFrame((v / np.linalg.norm(v))[None, :]))


def random_zero_sum_family(rng, dim, size):
    v = rng.standard_normal((size - 1, dim))
    v = np.vstack([v, -v.sum(axis=0)])
    return ZeroSumFamily(v)


def single_vector_family(p, unit):
    """The family single_vector_symmetry hands the greedy for the unit
    target ``unit``: the slices' frame coordinates, one vector per row."""
    f = p.frame.rows
    z = f * unit[None, :] - np.outer(f @ unit, unit**2)
    return ZeroSumFamily(
        z.T, sum_tolerance=max(1e-9 * float(np.linalg.norm(z, axis=0).sum()), 1e-12)
    )


def _reference_greedy(family):
    """The greedy as a plain loop: a fresh product, an index mask and the
    full slack at every step.  The order greedy_rearrange must reproduce."""
    k = len(family)
    if k == 0:
        return []
    v = family.vectors
    order = [0]
    used = np.zeros(k, dtype=bool)
    used[0] = True
    w = v[0].copy()
    for _ in range(k - 1):
        dots = v @ w
        dots[used] = np.inf
        idx = int(dots.argmin())
        tol = PREFIX_TOL * family.scale() + family.sum_tolerance * math.sqrt(float(w @ w))
        if float(dots[idx]) > tol:
            raise ValueError("best %g > slack %g" % (float(dots[idx]), tol))
        used[idx] = True
        order.append(idx)
        w += v[idx]
    return order


def test_family_rejects_nonzero_sum():
    with pytest.raises(ValueError):
        ZeroSumFamily([[1.0, 0.0], [0.0, 1.0]])
    # strings and bools are no vectors, although both of these sum to zero
    # once cast to floats
    for bad in ([["1", "0"], ["-1", "0"]], [[True, False], [False, True], [-1, -1]]):
        with pytest.raises(ValueError, match="vectors must hold integers or floats"):
            ZeroSumFamily(bad)
    fam = ZeroSumFamily([[1.0, 0.0], [-1.0, 0.0]])
    assert len(fam) == 2 and fam.dim == 2
    # configurable tolerance admits slightly off-zero sums
    ZeroSumFamily([[1.0, 0.0], [-1.0, 1e-6]], sum_tolerance=1e-5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_family_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="NaN or infinite"):
        ZeroSumFamily([[1.0, bad], [-1.0, 0.0]])


@pytest.mark.parametrize("tol", [math.nan, math.inf, True, np.True_, "0.5"])
def test_family_rejects_non_finite_sum_tolerance(tol):
    # NaN or inf would pass a family that does not sum to zero and switch
    # off the greedy's existence backstop; a bool or string is no tolerance.
    with pytest.raises(ValueError, match="sum_tolerance"):
        ZeroSumFamily([[1.0, 0.0], [1.0, 0.0]], sum_tolerance=tol)


def test_family_rejects_negative_sum_tolerance():
    with pytest.raises(ValueError, match="sum_tolerance"):
        ZeroSumFamily([[1.0, 0.0], [-1.0, 0.0]], sum_tolerance=-1e-9)


# Exactly zero-sum with no ties; at 1.62e153 its largest squared norm,
# 1.7e308, is finite, but a used row's inner product with the partial sum at
# the fifth greedy step would overflow to -inf.
OVERFLOW_ROWS = [[0, 0, -8], [1, 0, 7], [6, -3, -1], [-2, 5, 6],
                 [-1, -1, -4], [1, 2, -1], [0, 0, -4], [-5, -3, 5]]


@pytest.mark.parametrize("vectors, peak", [
    ([[1e308, 1e308], [-1e308, -1e308]], "1e+308"),
    ([[1e200, 0.0], [-1e200, 0.0]], "1e+200"),
    (np.array(OVERFLOW_ROWS, dtype=float) * 1.62e153, "1.296e+154"),
])
def test_family_refuses_vectors_whose_squared_norm_overflows(vectors, peak):
    # Exactly zero-sum, but an inner product with a partial sum, or
    # scale() itself and every slack built on it, could be infinite;
    # refused by name, with no overflow warning (the suite turns warnings
    # into errors).
    with pytest.raises(ValueError, match=re.escape("too large: max |entry| = " + peak)):
        ZeroSumFamily(vectors)


def test_family_default_tolerance_is_scale_free_near_the_float_limit():
    fam = ZeroSumFamily([[1e150, 0.0], [-1e150, 0.0]])
    assert 0.0 < fam.sum_tolerance < math.inf
    assert math.isfinite(fam.scale())
    assert greedy_rearrange(fam) == [0, 1]


def test_family_keeps_k_vectors_of_dimension_zero():
    fam = ZeroSumFamily(np.zeros((3, 0)))
    assert (len(fam), fam.dim) == (3, 0)
    assert greedy_rearrange(fam) == [0, 1, 2]
    assert check_prefix_property(fam, [0, 1, 2])
    assert partial_sum_bound_holds(fam, [2, 1, 0])
    empty = ZeroSumFamily([])
    assert (len(empty), empty.dim) == (0, 0)


@pytest.mark.parametrize("shape", [(2, 3, 0), (0, 2, 2), (2,), ()])
def test_family_refuses_inputs_that_are_not_a_list_of_vectors(shape):
    with pytest.raises(ValueError, match="expected a sequence of equal-length vectors"):
        ZeroSumFamily(np.zeros(shape))


def test_prefix_property_examples():
    fam = ZeroSumFamily([[1.0, 0.0], [-1.0, 0.0]])
    assert check_prefix_property(fam, [0, 1])
    assert check_prefix_property(fam, [1, 0])
    fam2 = ZeroSumFamily([[1.0, 0.0], [1.0, 0.0], [-2.0, 0.0]])
    assert not check_prefix_property(fam2, [0, 1, 2])  # <v2, w1> = 1 > 0
    assert check_prefix_property(fam2, [0, 2, 1])
    assert check_prefix_property(ZeroSumFamily([]), [])
    with pytest.raises(ValueError):
        check_prefix_property(fam, [0, 0])


@pytest.mark.parametrize("check, order", [
    (check_prefix_property, [0.9, 1.5]),
    (partial_sum_bound_holds, [True, False]),
    (check_prefix_property, ["1", "0"]),
])
def test_orders_must_be_permutations_of_integers(check, order):
    # each entry goes through the package's integer rule; a cast with int()
    # read these orders as [0, 1] and [1, 0]
    fam = ZeroSumFamily([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(ValueError, match="^order entry must be an integer, got "):
        check(fam, order)
    assert check(fam, np.array([1, 0], dtype=np.int64))


def test_partial_sum_bound_examples():
    fam = ZeroSumFamily([[1.0, 0.0], [-1.0, 0.0]])
    assert partial_sum_bound_holds(fam, [0, 1])  # {1, 0} <= {1, 2}
    single = ZeroSumFamily([[0.0, 0.0]])
    assert partial_sum_bound_holds(single, [0])  # ||w_1||^2 == ||v_1||^2
    # <v_2, w_1> = 7.6e-10 is positive but within PREFIX_TOL * scale() = 8e-10,
    # so ||w_2||^2 exceeds ||v_1||^2 + ||v_2||^2 by about 1.5e-9; the bound's
    # budget grows by the same slack.
    within = ZeroSumFamily([[2.0, 0.0], [3.8e-10, 2.0], [-2.0 - 3.8e-10, -2.0]])
    assert check_prefix_property(within, [0, 1, 2])
    assert partial_sum_bound_holds(within, [0, 1, 2])


def test_partial_sum_bound_can_fail_without_prefix_property():
    fam = ZeroSumFamily([[1.0], [1.0], [-2.0]])
    # order (0,1,2): w_2 = (2), budget 1+1=2 < 4
    assert not partial_sum_bound_holds(fam, [0, 1, 2])


def test_greedy_order_examples():
    fam = ZeroSumFamily([[1.0, 0.0], [-1.0, 0.0]])
    assert greedy_rearrange(fam) == [0, 1]
    fam2 = ZeroSumFamily([[2.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
    # both candidates tie at <v, w1> = -2; smallest index wins
    assert greedy_rearrange(fam2) == [0, 1, 2]
    assert greedy_rearrange(ZeroSumFamily([])) == []


def test_greedy_alternates_copies_of_plus_minus_v():
    v = np.array([0.6, -0.8, 0.0])
    n = 5
    fam = ZeroSumFamily(np.vstack([np.tile(v, (n, 1)), np.tile(-v, (n, 1))]))
    order = greedy_rearrange(fam)
    assert check_prefix_property(fam, order)
    w = np.zeros(3)
    for idx in order:
        w = w + fam.vectors[idx]
        assert np.linalg.norm(w) <= np.linalg.norm(v) + 1e-12


def test_greedy_error_backstop_on_violated_precondition():
    # The best inner product 1 lies between the slack's floor
    # PREFIX_TOL * scale() = 1e-10 and the full slack 1e-10 + 2 * ||w|| =
    # 2.0000000001, so the greedy must take ||w|| to accept it.
    fam = ZeroSumFamily([[1.0, 0.0], [1.0, 0.0]], sum_tolerance=2.0)
    assert greedy_rearrange(fam) == [0, 1]
    # A correctly constructed family can never trip the greedy existence
    # check (the slack covers the declared sum tolerance), so defeat the
    # tolerance by hand to exercise the backstop.
    object.__setattr__(fam, "sum_tolerance", 0.0)
    with pytest.raises(ValueError, match=re.escape(
        "(best 1 > slack 1e-10); zero-sum precondition violated"
    )):
        greedy_rearrange(fam)



def oracle_families():
    for m in range(2, 7):
        p = float_projection(m)
        yield "v0 m=%d" % m, single_vector_family(
            p, single_vector_symmetry(p, float_frame(m).rows[0]).unit_target
        )
    for seed in range(1, 11):
        # the instance `balance --n 256 --rank 128 --seed <seed>` draws
        p = random_projection(256, 128, seed)
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
        )
        yield "balance seed=%d" % seed, single_vector_family(
            p, single_vector_symmetry(p, rng.standard_normal(256)).unit_target
        )
    rng = np.random.Generator(np.random.PCG64(15))
    drawn = 0
    while drawn < 200:
        n, r = [(64, 8), (40, 20), (128, 3)][drawn % 3]
        p = random_projection(n, r, seed=int(rng.integers(0, 2**31)))
        v = rng.standard_normal(n)
        if np.linalg.norm(p.apply(v)) < 1e-6:
            continue
        drawn += 1
        yield "random n=%d r=%d" % (n, r), single_vector_family(
            p, single_vector_symmetry(p, v).unit_target
        )
    yield "tie", ZeroSumFamily([[2.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])


def test_greedy_order_matches_the_reference_loop():
    for name, fam in oracle_families():
        assert greedy_rearrange(fam) == _reference_greedy(fam), name


def test_greedy_satisfies_both_partial_sum_properties_on_random_corpus():
    rng = np.random.Generator(np.random.PCG64(314159))
    for _ in range(60):
        dim = int(rng.integers(2, 17))
        size = int(rng.integers(2, 41))
        fam = random_zero_sum_family(rng, dim, size)
        order = greedy_rearrange(fam)
        assert sorted(order) == list(range(size))
        assert check_prefix_property(fam, order)
        assert partial_sum_bound_holds(fam, order)


def test_both_checks_accept_the_greedy_order_on_single_vector_families():
    # The family single_vector_symmetry hands the greedy, rebuilt from its
    # result.  On rank 1 every slice is roundoff, so only a slack that grows
    # with sum_tolerance * ||w||, as the greedy's does, accepts its order.
    rng = np.random.Generator(np.random.PCG64(4242))
    rank1_draws = 0
    for _ in range(300):
        n = int(rng.integers(2, 65))
        r = int(rng.integers(1, n + 1))
        p = random_projection(n, r, seed=int(rng.integers(0, 2**31)))
        v = rng.standard_normal(n)
        if np.linalg.norm(p.apply(v)) < 1e-6:
            continue
        res = single_vector_symmetry(p, v)
        family = single_vector_family(p, res.unit_target)
        assert greedy_rearrange(family) == res.permutation
        assert check_prefix_property(family, res.permutation)
        assert partial_sum_bound_holds(family, res.permutation)
        rank1_draws += r == 1
    assert rank1_draws >= 10


@pytest.mark.parametrize("k", [-400, -20, 20, 400])
def test_check_verdicts_do_not_depend_on_the_family_scale(k):
    # Multiplying by 2^k is exact, so every inner product, norm, scale() and
    # default sum_tolerance scales exactly and no verdict may change.
    rng = np.random.Generator(np.random.PCG64(7_000))
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        size = int(rng.integers(2, 41))
        fam = random_zero_sum_family(rng, dim, size)
        scaled = ZeroSumFamily(np.ldexp(fam.vectors, k))
        for order in (greedy_rearrange(fam), range(size), range(size - 1, -1, -1)):
            for check in (check_prefix_property, partial_sum_bound_holds):
                assert check(scaled, order) == check(fam, order)


@st.composite
def ordered_families(draw):
    """A small zero-sum family with integer entries, some nudged by a few
    PREFIX_TOL so that inner products land just above zero, and a random
    order of it."""
    dim = draw(st.integers(1, 4))
    size = draw(st.integers(1, 7))
    entry = st.builds(
        lambda a, b: a + b,
        st.integers(-3, 3),
        st.sampled_from([0.0, 1e-10, -1e-10, 3.8e-10, -5e-10]),
    )
    rows = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                         min_size=size - 1, max_size=size - 1))
    v = np.array(rows, dtype=float).reshape(size - 1, dim)
    fam = ZeroSumFamily(np.vstack([v, -v.sum(axis=0)]))
    return fam, draw(st.permutations(range(size)))


@settings(max_examples=200, deadline=None)
@given(ordered_families())
def test_prefix_property_implies_partial_sum_bound(case):
    fam, order = case
    if check_prefix_property(fam, order):
        assert partial_sum_bound_holds(fam, order)


def test_single_vector_full_cancellation_on_rank1():
    p = rank1([1.0, 1.0])
    v = np.array([1.0, 1.0]) / math.sqrt(2)
    res = single_vector_symmetry(p, v)
    assert res.delta_p == pytest.approx(0.5)
    assert res.alpha_sq == pytest.approx([0.5, 0.5])
    assert res.k == 1
    assert res.signs.signs.tolist() == [1, -1]
    assert res.achieved_norm <= 1e-12
    assert res.bound == pytest.approx(math.sqrt(2 * 0.5 + 3 * 0.25))


def test_single_vector_on_identity_projection_is_vacuous():
    p = Projection(OrthonormalFrame(np.eye(5)))
    v = np.ones(5) / math.sqrt(5)
    res = single_vector_symmetry(p, v)
    assert res.delta_p == pytest.approx(1.0)
    assert res.bound == pytest.approx(math.sqrt(5))
    assert res.achieved_norm <= res.bound + 1e-9
    # delta_p = 1 admits the empty prefix: |1/2 - 0| <= 1/2
    assert res.k == 0
    assert np.allclose(
        apply_psp(p, res.signs, res.unit_target), -res.unit_target
    )


def test_single_vector_rejects_vector_outside_range():
    p = rank1([1.0, 1.0])
    with pytest.raises(ValueError):
        single_vector_symmetry(p, np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        single_vector_symmetry(p, np.zeros(2))
    with pytest.raises(ValueError, match="v must hold integers or floats"):
        single_vector_symmetry(random_projection(4, 2, 1), ["1", "0", "0", "1"])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_single_vector_rejects_non_finite_entries(bad):
    v = np.ones(8)
    v[3] = bad
    with pytest.raises(ValueError):
        single_vector_symmetry(random_projection(8, 4, 1), v)


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_single_vector_is_scale_free_at_the_float_extremes(scale):
    p = random_projection(8, 4, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = single_vector_symmetry(p, scale * np.ones(8))
    want = single_vector_symmetry(p, np.ones(8))
    signs = "".join("+" if x > 0 else "-" for x in res.signs.signs)
    assert signs == "+-------"
    assert np.array_equal(res.signs.signs, want.signs.signs)
    assert res.achieved_norm == want.achieved_norm


def test_single_vector_projects_and_renormalizes():
    p = rank1([1.0, 1.0])
    res = single_vector_symmetry(p, np.array([5.0, 1.0]))
    assert np.allclose(res.unit_target, np.array([1.0, 1.0]) / math.sqrt(2))


def _assert_theorem_in_rn(p, v):
    """The single-vector theorem, checked on the dense n-dimensional slices
    y_i = unit_i (P e_i - unit_i unit) that the construction never builds."""
    res = single_vector_symmetry(p, v)
    unit, delta, k, perm = res.unit_target, res.delta_p, res.k, res.permutation
    pcols = p.frame.rows.T @ p.frame.rows
    y = pcols * unit[None, :] - np.outer(unit, unit * unit)
    family = ZeroSumFamily(y.T, sum_tolerance=1e-9)
    assert sorted(perm) == list(range(p.n))
    assert check_prefix_property(family, perm)
    assert partial_sum_bound_holds(family, perm)
    # the cut is the smallest prefix within delta/2 of 1/2, the prefix sums
    # added left to right as a plain loop
    assert np.array_equal(np.asarray(res.alpha_sq), unit[perm] ** 2)
    prefixes = [0.0]
    for a in res.alpha_sq:
        prefixes.append(prefixes[-1] + a)
    inside = [abs(0.5 - x) <= delta / 2 + 1e-12 for x in prefixes]
    assert k == inside.index(True)
    want_signs = -np.ones(p.n, dtype=np.int64)
    want_signs[perm[:k]] = 1
    assert np.array_equal(res.signs.signs, want_signs)
    assert delta == float(p.diagonal().max())
    assert res.bound == math.sqrt(2 * delta + 3 * delta * delta)
    achieved = float(np.linalg.norm(apply_psp(p, res.signs, unit)))
    assert res.achieved_norm == achieved <= res.bound + 1e-9
    assert sum(res.alpha_sq) == pytest.approx(1.0, abs=1e-9)
    return res


def test_single_vector_guarantees_on_random_instances():
    rng = np.random.Generator(np.random.PCG64(271828))
    ranks = set()
    for trial in range(40):
        n = int(rng.integers(2, 65))
        r = int(rng.integers(1, n + 1))
        p = random_projection(n, r, seed=int(rng.integers(0, 2**31)))
        v = rng.standard_normal(n)
        if np.linalg.norm(p.apply(v)) < 1e-6:
            continue
        _assert_theorem_in_rn(p, v)
        ranks.add(r)
    assert 1 in ranks and max(ranks) > 32


def test_decomposition_identities():
    # x_i + y_i = p q_i p(v); ||x_i|| = alpha_i^2; ||y_i|| = alpha_i * beta_i
    rng = np.random.Generator(np.random.PCG64(17))
    for _ in range(10):
        n = int(rng.integers(3, 30))
        r = int(rng.integers(1, n + 1))
        p = random_projection(n, r, seed=int(rng.integers(0, 2**31)))
        v = rng.standard_normal(n)
        if np.linalg.norm(p.apply(v)) < 1e-6:
            continue
        res = single_vector_symmetry(p, v)
        unit = res.unit_target
        alpha = np.abs(unit)
        pcols = p.frame.rows.T @ p.frame.rows
        # beta_i = ||p2 e_i||, computed as that norm directly
        beta = np.linalg.norm(pcols - np.outer(unit, unit), axis=0)
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            pqipv = p.apply(unit[i] * e)
            x = unit[i] * unit[i] * unit  # p1 q_i p(v)
            y = pqipv - x
            assert np.abs(x + y - pqipv).max() < 1e-10
            assert np.linalg.norm(x) == pytest.approx(alpha[i] ** 2, abs=1e-9)
            assert np.linalg.norm(y) == pytest.approx(alpha[i] * beta[i], abs=1e-9)


def test_single_vector_on_the_exact_construction():
    # the single-vector ceiling coexists with the exhaustive v_0 lower bound
    m = 6
    p = float_projection(m)
    v0 = float_frame(m).rows[0]
    res = _assert_theorem_in_rn(p, v0)
    delta = 2.0 / 49.0
    assert res.delta_p == pytest.approx(delta, abs=1e-12)
    assert res.bound == pytest.approx(math.sqrt(2 * delta + 3 * delta * delta))
    assert res.achieved_norm <= res.bound + 1e-9
    # the guaranteed ceiling sits well above the 2*delta_p conjecture line,
    # which is why a single vector can refute "<= 2*delta_p" but not less
    assert res.bound > 2 * delta


def test_single_vector_builds_no_n_by_n_array():
    # One 4000 x 4000 float array is 128 MB; the r x n slices are 128 kB.
    n = 4000
    p = random_projection(n, 4, seed=5)
    tracemalloc.start()
    try:
        res = single_vector_symmetry(p, np.ones(n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert res.achieved_norm <= res.bound + 1e-9
