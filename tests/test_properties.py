"""Property tests: invariances every exhaustive record must satisfy."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pavekit.linalg import (
    OrthonormalFrame,
    Projection,
    Symmetry,
    compress_psp,
    operator_norm,
    random_projection,
)
from pavekit.paving import brute_force_min


@st.composite
def instances(draw):
    """A seeded random projection with n <= 8 and a permutation of its
    coordinates."""
    n = draw(st.integers(1, 8))
    rank = draw(st.integers(1, n))
    seed = draw(st.integers(0, 2**32 - 1))
    perm = draw(st.permutations(range(n)))
    return random_projection(n, rank, seed), np.array(perm)


@settings(max_examples=25, deadline=None)
@given(instances())
def test_permuting_coordinates_keeps_the_minimum(case):
    p, perm = case
    moved = Projection(OrthonormalFrame(p.frame.rows[:, perm]))
    mn, argmin = brute_force_min(p)
    mn_moved, _ = brute_force_min(moved)
    assert abs(mn - mn_moved) < 1e-12
    # the argmin, carried along by the permutation, attains the minimum
    carried = Symmetry(argmin.signs[perm])
    assert abs(operator_norm(compress_psp(moved, carried)) - mn) < 1e-12


@settings(max_examples=25, deadline=None)
@given(instances(), st.data())
def test_global_sign_flip_keeps_the_norm(case, data):
    p, _ = case
    signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=p.n, max_size=p.n))
    s = Symmetry(signs)
    assert abs(operator_norm(compress_psp(p, -s)) - operator_norm(compress_psp(p, s))) <= 1e-15


@settings(max_examples=50, deadline=None)
@given(instances(), st.data())
def test_paving_identity(case, data):
    # for s = 2q - 1 the compression F S F^T is 2 F_Q F_Q^T - I, so
    # ||psp|| = 2 max(||qpq||, ||(1-q)p(1-q)||) - 1 at every rank >= 1, with
    # ||qpq|| = lambda_max(F_Q F_Q^T) read straight off the frame
    p, _ = case
    signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=p.n, max_size=p.n))
    s = Symmetry(signs)
    norm = operator_norm(compress_psp(p, s))
    f, q = p.frame.rows, s.signs > 0
    paving = max(np.linalg.eigvalsh(g @ g.T)[-1] for g in (f[:, q], f[:, ~q]))
    assert abs(norm - (2.0 * paving - 1.0)) <= 1e-12
