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


def test_frame_rejects_non_orthonormal_rows():
    with pytest.raises(ValueError):
        OrthonormalFrame([[1.0, 1.0], [0.0, 1.0]])
    f = OrthonormalFrame(np.zeros((0, 4)))
    assert f.rank == 0 and f.n == 4


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


def test_compress_psp_examples():
    p = rank1([1.0, 1.0])
    m = compress_psp(p, Symmetry([1, -1]))
    assert np.allclose(m.mat, [[0.0]])
    assert np.allclose(compress_psp(p, Symmetry.identity(2)).mat, [[1.0]])
    assert np.allclose(compress_psp(p, Symmetry([1, 1])).mat, [[1.0]])
    with pytest.raises(ValueError):
        compress_psp(p, Symmetry([1, 1, 1]))


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


def test_operator_norm_power_iteration_path():
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
    assert np.allclose(apply_psp(p, Symmetry.identity(2), u), u)
    assert np.allclose(apply_psp(p, Symmetry([1, -1]), u), 0.0)
    with pytest.raises(ValueError):
        apply_psp(p, Symmetry([1, -1]), np.ones(3))


def test_random_projection_edges_and_determinism():
    z = random_projection(4, 0, seed=9)
    assert z.rank == 0
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

