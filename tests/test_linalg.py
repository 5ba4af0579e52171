import math

import numpy as np
import pytest

import pavekit.linalg as linalg
from pavekit.linalg import (
    OrthonormalFrame,
    Projection,
    Symmetry,
    SymmetricMatrix,
    apply_psp,
    compress_psp,
    compressions,
    operator_norm,
    random_projection,
)


def rank1(vec):
    v = np.asarray(vec, dtype=float)
    return Projection(OrthonormalFrame((v / np.linalg.norm(v))[None, :]))


def test_symmetric_matrix_validates_and_symmetrizes():
    m = SymmetricMatrix([[1.0, 2.0], [2.0, 5.0]])
    assert m.n == 2
    with pytest.raises(ValueError):
        SymmetricMatrix([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError):
        SymmetricMatrix(np.zeros((2, 3)))
    # strings and bools are refused, not cast to 1.0 and 0.0
    for bad in ([["1", "0"], ["0", "1"]], [[True, False], [False, True]]):
        with pytest.raises(ValueError, match="matrix must hold integers or floats"):
            SymmetricMatrix(bad)


def test_symmetric_matrix_stores_the_mean_of_a_and_its_transpose():
    rng = np.random.Generator(np.random.PCG64(8))
    for n in (1, 2, 5, 9):
        a = rng.standard_normal((n, n))
        a = a + a.T + 1e-14 * rng.standard_normal((n, n))  # asymmetric within tolerance
        m = SymmetricMatrix(a)
        assert np.array_equal(m.mat, (a + a.T) / 2.0)  # bitwise
        assert np.array_equal(m.mat, m.mat.T)
        assert a.flags.writeable and not m.mat.flags.writeable
        a[0, 0] += 1.0  # the caller's array is not shared
        assert not np.array_equal(m.mat, (a + a.T) / 2.0)


@pytest.mark.parametrize("entries, norm", [
    ([[0.0, 1.7e308], [1.7e308, 0.0]], 1.7e308),
    ([[1.5e308, 0.0], [0.0, 1.0]], 1.5e308),
])
def test_huge_finite_entries_neither_overflow_nor_lose_the_norm(entries, norm):
    # pytest turns warnings into errors, so an overflow in the symmetrization
    # fails here; (a + a.T) / 2 overflowed to inf and the norm read 0.0
    m = SymmetricMatrix(entries)
    assert np.isfinite(m.mat).all()
    assert operator_norm(m) == norm


def test_huge_asymmetric_matrix_is_refused_without_overflow():
    with pytest.raises(ValueError, match="symmetric"):
        SymmetricMatrix([[0.0, 1.7e308], [-1.7e308, 0.0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_rejected_at_construction(bad):
    with pytest.raises(ValueError, match="finite"):
        SymmetricMatrix([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        SymmetricMatrix([[1.0, bad], [bad, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        OrthonormalFrame([[bad, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        OrthonormalFrame([[1.0, 0.0], [0.0, bad]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_compressions_refuse_non_finite_weight_rows(bad):
    p = random_projection(4, 2, 1)
    with pytest.raises(ValueError, match="^rows has a NaN or infinite entry$"):
        compressions(p, [[1.0, -1.0, 1.0, 1.0], [1.0, bad, -1.0, 1.0]])


# (constructor, entries of the writeable float64 array it is given, the array
# the value stores)
IMMUTABLE_TYPES = {
    "SymmetricMatrix": (SymmetricMatrix, [[2.0, 1.0], [1.0, 3.0]], lambda m: m.mat),
    "OrthonormalFrame": (OrthonormalFrame, [[0.6, 0.8]], lambda f: f.rows),
    "Projection": (lambda a: Projection(OrthonormalFrame(a)), [[0.6, 0.8]],
                   lambda p: p.frame.rows),
    "Symmetry": (Symmetry, [1.0, -1.0], lambda s: s.signs),
}


@pytest.mark.parametrize("name", IMMUTABLE_TYPES)
def test_values_are_immutable_and_never_alias_the_callers_array(name):
    build, entries, stored_of = IMMUTABLE_TYPES[name]
    given = np.array(entries)
    value = build(given)
    for attr in (*type(value).__slots__, "other"):
        with pytest.raises(AttributeError, match="^%s is immutable$" % name):
            setattr(value, attr, None)
    stored = stored_of(value)
    before = stored.copy()
    assert not stored.flags.writeable
    assert given.flags.writeable and not np.shares_memory(stored, given)
    given[...] = 0.0
    assert np.array_equal(stored, before)


def test_frame_rejects_non_orthonormal_rows():
    with pytest.raises(ValueError):
        OrthonormalFrame([[1.0, 1.0], [0.0, 1.0]])
    for bad in ([["1", "0"]], [[True, False]]):
        with pytest.raises(ValueError, match="rows must hold integers or floats"):
            OrthonormalFrame(bad)
    f = OrthonormalFrame(np.zeros((0, 4)))
    assert f.rank == 0 and f.n == 4


def test_frames_projections_and_psp_refuse_what_is_not_their_shape():
    for shape in ((4,), (1, 2, 2)):
        with pytest.raises(ValueError) as exc:
            OrthonormalFrame(np.zeros(shape))
        assert str(exc.value) == "expected a 2-d array of rows, got shape %s" % (shape,)
    with pytest.raises(TypeError) as exc:
        Projection(np.eye(2))
    assert str(exc.value) == "Projection expects an OrthonormalFrame"
    with pytest.raises(ValueError) as exc:
        apply_psp(random_projection(3, 1, 1), Symmetry([1, 1]), np.ones(3))
    assert str(exc.value) == "dimension mismatch: symmetry n=2 vs projection n=3"
    # the empty projection has no diagonal entry to take the largest of
    assert linalg.delta_p_numeric(random_projection(0, 0, 1)) == 0.0


@pytest.mark.parametrize("rows", [[[1e200, 0.0]], [[1e200, 1e200], [1e200, -1e200]]])
def test_frame_with_rows_whose_gram_overflows_is_not_orthonormal(rows):
    # the Gram matrix overflows to inf; no overflow warning comes first
    with pytest.raises(ValueError, match="not orthonormal"):
        OrthonormalFrame(rows)


def test_symmetry_validation():
    s = Symmetry([1, -1, 1])
    assert s.n == 3
    assert (-s).signs.tolist() == [-1, 1, -1]
    with pytest.raises(ValueError):
        Symmetry([1, 0, -1])


def test_symmetry_requires_integral_unit_signs():
    s = Symmetry([1.0, -1.0])
    assert s.signs.tolist() == [1, -1] and s.signs.dtype == np.int64
    for bad in ([1.0, -1.9], [1.5, -1], [1, math.nan], [1, math.inf], [0.999, 1]):
        with pytest.raises(ValueError):
            Symmetry(bad)
    assert Symmetry([]).n == 0
    # strings, bools and objects are refused even where a float cast reads 1
    for bad in (["1", "-1"], [True, True], [True, -1], np.array([True, False]),
                [1, None], np.array([1, -1], dtype=object), [1 + 0j, -1], 1, [[1, -1]]):
        with pytest.raises(ValueError):
            Symmetry(bad)
    # integer and float arrays, as paving, rearrange and profile_symmetry pass them
    for good in (np.array([1, -1], dtype=np.int32), np.array([1.0, -1.0]), (1, -1)):
        assert Symmetry(good).signs.tolist() == [1, -1]


def test_compress_psp_examples():
    p = rank1([1.0, 1.0])
    m = compress_psp(p, Symmetry([1, -1]))
    assert np.allclose(m.mat, [[0.0]])
    assert np.allclose(compress_psp(p, Symmetry(np.ones(2))).mat, [[1.0]])
    assert np.allclose(compress_psp(p, Symmetry([1, 1])).mat, [[1.0]])
    with pytest.raises(ValueError):
        compress_psp(p, Symmetry([1, 1, 1]))


def test_compressions_stack_the_single_products():
    rng = np.random.Generator(np.random.PCG64(10))
    for n, r in ((1, 1), (4, 0), (6, 2), (10, 5), (10, 10), (16, 7)):
        p = random_projection(n, r, seed=n + r)
        f = p.frame.rows
        rows = rng.choice([-1.0, 1.0], size=(9, n))
        rows[0] = rng.random(n)  # any weights, not only signs
        stack = compressions(p, rows)
        assert stack.shape == (9, r, r)
        for w, c in zip(rows, stack):
            assert np.array_equal(c, (f * w) @ f.T)  # bitwise, whatever the batch
        s = Symmetry(rows[1])
        assert np.array_equal(compress_psp(p, s).mat, SymmetricMatrix((f * s.signs) @ f.T).mat)
    assert compressions(p, np.zeros((0, 16))).shape == (0, 7, 7)
    for bad in (np.ones(16), np.ones((2, 15))):
        with pytest.raises(ValueError, match="rows"):
            compressions(p, bad)
    with pytest.raises(ValueError, match="rows must hold integers or floats"):
        compressions(random_projection(4, 2, 1), [["1", "1", "1", "1"]])


def test_operator_norm_examples():
    assert operator_norm(SymmetricMatrix(np.diag([3.0, -1.0]))) == 3.0
    assert operator_norm(SymmetricMatrix(np.diag([1.0, -4.0]))) == 4.0
    assert operator_norm(SymmetricMatrix([[-2.5]])) == 2.5
    zero = operator_norm(SymmetricMatrix(np.zeros((5, 5))))
    assert zero == 0.0 and math.copysign(1.0, zero) == 1.0  # never -0.0
    assert abs(operator_norm(SymmetricMatrix([[0.0, 1.0], [1.0, 0.0]])) - 1.0) < 1e-12
    assert operator_norm(SymmetricMatrix(np.zeros((0, 0)))) == 0.0


def test_operator_norm_against_lapack_oracle():
    rng = np.random.Generator(np.random.PCG64(2024))
    for n in (2, 3, 7, 20, 49, 120):
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2.0
        mine = operator_norm(SymmetricMatrix(a))
        ref = float(np.abs(np.linalg.eigvalsh(a)).max())
        assert abs(mine - ref) <= 1e-10 * max(1.0, ref)


def test_operator_norm_of_a_300x300_matrix_with_a_negative_dominant_eigenvalue():
    # a 300 x 300 matrix with a known spectrum whose extreme eigenvalue is
    # negative: the norm is its absolute value, not the largest eigenvalue
    rng = np.random.Generator(np.random.PCG64(5))
    d = np.linspace(-3.0, 2.0, 300)
    q, _ = np.linalg.qr(rng.standard_normal((300, 300)))
    a = (q * d) @ q.T
    a = (a + a.T) / 2.0
    assert abs(operator_norm(SymmetricMatrix(a)) - 3.0) < 1e-8


def test_operator_norm_rayleigh_lower_bound():
    rng = np.random.Generator(np.random.PCG64(77))
    for _ in range(5):
        n = 12
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2.0
        norm = operator_norm(SymmetricMatrix(a))
        for _ in range(100):
            x = rng.standard_normal(n)
            x /= np.linalg.norm(x)
            assert norm >= abs(x @ (a @ x)) - 1e-9


def test_apply_psp_examples():
    p = rank1([1.0, 1.0])
    v = np.array([1.0, -1.0]) / math.sqrt(2)  # perpendicular to range(p)
    assert np.allclose(apply_psp(p, Symmetry([1, 1]), v), 0.0)
    u = np.array([1.0, 1.0]) / math.sqrt(2)
    assert np.allclose(apply_psp(p, Symmetry(np.ones(2)), u), u)
    assert np.allclose(apply_psp(p, Symmetry([1, -1]), u), 0.0)
    with pytest.raises(ValueError):
        apply_psp(p, Symmetry([1, -1]), np.ones(3))
    with pytest.raises(ValueError, match="v must hold integers or floats"):
        random_projection(4, 2, 1).apply(np.array([True, False, True, False]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_apply_refuses_non_finite_vectors(bad):
    p = random_projection(6, 3, 1)
    for v in ([bad] * 6, [1.0, 2.0, bad, 0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="NaN or infinite"):
            p.apply(v)
        with pytest.raises(ValueError, match="NaN or infinite"):
            apply_psp(p, Symmetry(np.ones(6)), v)


def test_random_projection_edges_and_determinism():
    z = random_projection(4, 0, seed=9)
    assert z.rank == 0
    assert z.frame.rows.shape == (0, 4)
    full = random_projection(4, 4, seed=9).frame.rows
    assert np.abs(full.T @ full - np.eye(4)).max() < 1e-9
    a = random_projection(8, 3, seed=42)
    b = random_projection(8, 3, seed=42)
    assert np.array_equal(a.frame.rows, b.frame.rows)  # bitwise
    c = random_projection(8, 3, seed=43)
    assert not np.array_equal(a.frame.rows, c.frame.rows)
    g = a.frame.rows @ a.frame.rows.T
    assert np.abs(g - np.eye(3)).max() < 1e-10
    with pytest.raises(ValueError):
        random_projection(3, 4, seed=1)


def test_random_projection_is_the_gram_schmidt_frame_of_its_draw():
    # independent oracle: modified Gram-Schmidt, with one reorthogonalization
    # pass, on the same Gaussian draw
    for n, r, seed in ((1, 1, 0), (10, 5, 1), (40, 40, 2), (150, 30, 3)):
        q = np.random.Generator(np.random.PCG64(seed)).standard_normal((r, n))
        for i in range(r):
            for _ in range(2):
                for j in range(i):
                    q[i] -= (q[j] @ q[i]) * q[j]
            q[i] /= np.linalg.norm(q[i])
        assert np.abs(random_projection(n, r, seed).frame.rows - q).max() < 1e-13


def test_rank_deficient_draw_is_refused():
    assert linalg._orthonormalize_rows(np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])) is None
    assert linalg._orthonormalize_rows(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])) is None
    assert linalg._orthonormalize_rows(np.array([[3.0, 4.0, 0.0], [0.0, 0.0, -2.0]])) is not None


def test_compression_norm_matches_dense_norm():
    # ||F S F^T|| == ||P S P|| since F^T is an isometry onto range(p)
    rng = np.random.Generator(np.random.PCG64(31337))
    for trial in range(100):
        n = int(rng.integers(2, 41))
        r = int(rng.integers(0, n + 1))
        p = random_projection(n, r, seed=int(rng.integers(0, 2**31)))
        s = Symmetry(rng.choice([-1, 1], size=n))
        small = operator_norm(compress_psp(p, s))
        pm = p.frame.rows.T @ p.frame.rows
        dense = pm @ np.diag(s.signs).astype(float) @ pm
        ref = float(np.abs(np.linalg.eigvalsh((dense + dense.T) / 2)).max())
        assert abs(small - ref) < 1e-9


def test_materialized_projections_idempotent():
    rng = np.random.Generator(np.random.PCG64(4242))
    for _ in range(20):
        n = int(rng.integers(1, 30))
        r = int(rng.integers(0, n + 1))
        f = random_projection(n, r, seed=int(rng.integers(0, 2**31))).frame.rows
        pm = f.T @ f
        assert np.abs(pm @ pm - pm).max() < 1e-9


def test_apply_psp_norm_bounded_by_compression_norm():
    rng = np.random.Generator(np.random.PCG64(555))
    for _ in range(50):
        n = int(rng.integers(2, 25))
        r = int(rng.integers(1, n + 1))
        p = random_projection(n, r, seed=int(rng.integers(0, 2**31)))
        s = Symmetry(rng.choice([-1, 1], size=n))
        bound = operator_norm(compress_psp(p, s))
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        assert np.linalg.norm(apply_psp(p, s, v)) <= bound + 1e-9

