"""Dense real vectors, symmetric matrices, frames, projections, diagonal
symmetries, and the symmetric operator norm.

A projection is represented by an orthonormal frame of its range (rows of an
r x n matrix F), so p = F^T F.  Compressions p s p are evaluated as the small
r x r matrix F S F^T, which has the same operator norm because F^T restricted
to the coordinate space is an isometry onto range(p).  One kernel,
``compressions``, forms them: a stack F diag(w) F^T for many weight rows w in
one batched matmul, each matrix the same product ``compress_psp`` forms for a
single sign vector.  The operator norm is
read off the extreme eigenvalues from LAPACK's symmetric eigensolver
(``numpy.linalg.eigvalsh``).  Every array argument passes one rule,
``_real_array``: integer or float entries only, never bools or strings cast
to numbers, and every entry finite.  So matrices, frames, signs, the weight
rows of ``compressions`` and the vectors of ``Projection.apply`` with a NaN
or infinite entry are refused, and no NaN reaches an eigensolve.
``delta_p_numeric`` is the one float delta_p, shared by paving and rearrange.

All types are immutable after construction (one rule, ``_Immutable``, shared
with ``rearrange.ZeroSumFamily``) and all operations are pure functions, so
values can be shared freely between threads or worker processes.
"""

from __future__ import annotations

import numbers

import numpy as np

# 1-d float ndarray; the length is fixed when the array is created.
Vector = np.ndarray

SYMMETRY_TOL = 1e-12        # relative asymmetry accepted at construction
FRAME_GRAM_TOL = 1e-10      # max |<v_i, v_j> - delta_ij| accepted for a frame


def _integer(name: str, x, lo: int, hi: int | None = None) -> int:
    # The package's one integer rule: any numbers.Integral but bool, taken as
    # a Python int; anything else, or a value out of range, is a ValueError.
    if not isinstance(x, numbers.Integral) or isinstance(x, bool):
        raise ValueError("%s must be an integer, got %r" % (name, x))
    x = int(x)
    if x < lo or (hi is not None and x > hi):
        span = ">= %d" % lo if hi is None else "in [%d, %d]" % (lo, hi)
        raise ValueError("%s must be an integer %s, got %d" % (name, span, x))
    return x


def _real(name: str, x) -> float:
    # The package's one real-number rule: any numbers.Real but bool, taken as
    # a Python float; anything else is a ValueError.  Ranges are the caller's.
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        raise ValueError("%s must be a real number, got %r" % (name, x))
    return float(x)


def _real_array(name: str, x, copy: bool = False) -> np.ndarray:
    # The package's one array rule: integer and float entries only, taken as
    # a float64 array (a fresh one if ``copy``), every entry finite; anything
    # else is a ValueError.  A float cast would read '1' and True as 1, and a
    # list can mix a bool into numbers without changing the array's dtype,
    # so a list's entries are checked too.  Shapes and ranges are the caller's.
    a = np.asarray(x)
    if a.dtype.kind not in "iuf" or (
            not isinstance(x, np.ndarray)
            and any(isinstance(e, (bool, np.bool_)) for e in np.asarray(x, dtype=object).flat)):
        raise ValueError("%s must hold integers or floats, not bool, str or object" % name)
    a = a.astype(float, copy=copy)
    if not np.isfinite(a).all():
        raise ValueError("%s has a NaN or infinite entry" % name)
    return a


def _max_abs(x: np.ndarray):
    # The ufunc reduce itself skips ndarray.max's Python-level wrapper, which
    # is a measurable share of a reduction over an r x r matrix.
    return np.maximum.reduce(np.abs(x), axis=None)


class _Immutable:
    # The value types' one immutability rule: __init__ sets each slot once,
    # through object.__setattr__, and any later assignment is refused.
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)


class SymmetricMatrix(_Immutable):
    """Dense real symmetric matrix, symmetrized and validated at construction."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        a = _real_array("matrix", mat)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square matrix, got shape %s" % (a.shape,))
        # Halving first is exact (short of subnormals), so h + h.T has the
        # bits of (a + a.T) / 2 and h - h.T those of (a - a.T) / 2, and
        # neither can overflow for finite entries.
        h = 0.5 * a
        if a.size:
            scale = float(_max_abs(a))
            if scale and float(_max_abs(h - h.T)) > 0.5 * SYMMETRY_TOL * scale:
                raise ValueError("matrix is not symmetric within tolerance")
        h = h + h.T
        h.setflags(write=False)
        object.__setattr__(self, "mat", h)

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def __repr__(self) -> str:
        return "SymmetricMatrix(n=%d)" % self.n


class OrthonormalFrame(_Immutable):
    """r orthonormal rows spanning an r-dimensional subspace of R^n."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        a = _real_array("rows", rows, copy=True)
        if a.ndim != 2:
            raise ValueError("expected a 2-d array of rows, got shape %s" % (a.shape,))
        r = a.shape[0]
        if r:
            # A row too long to square makes an inf in the Gram matrix, which
            # the check below refuses.
            with np.errstate(over="ignore"):
                g = a @ a.T
            if float(np.abs(g - np.eye(r)).max()) > FRAME_GRAM_TOL:
                raise ValueError("rows are not orthonormal within %g" % FRAME_GRAM_TOL)
        a.setflags(write=False)
        object.__setattr__(self, "rows", a)

    @property
    def rank(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1]

    def __repr__(self) -> str:
        return "OrthonormalFrame(rank=%d, n=%d)" % (self.rank, self.n)


class Projection(_Immutable):
    """Orthogonal projection given by an orthonormal frame of its range.

    The materialized matrix P = F^T F is automatically symmetric and, because
    the frame Gram matrix is within FRAME_GRAM_TOL of the identity, satisfies
    ||P^2 - P|| <= ||F F^T - I|| at the same tolerance; no separate check is
    needed at construction.
    """

    __slots__ = ("frame",)

    def __init__(self, frame: OrthonormalFrame):
        if not isinstance(frame, OrthonormalFrame):
            raise TypeError("Projection expects an OrthonormalFrame")
        object.__setattr__(self, "frame", frame)

    @property
    def n(self) -> int:
        return self.frame.n

    @property
    def rank(self) -> int:
        return self.frame.rank

    def apply(self, v: Vector) -> Vector:
        """p(v) = F^T (F v).  A v with a NaN, infinite, bool or string entry
        raises ``ValueError``."""
        v = _real_array("v", v)
        if v.shape != (self.n,):
            raise ValueError("dimension mismatch: vector %s vs n=%d" % (v.shape, self.n))
        f = self.frame.rows
        return f.T @ (f @ v)

    def diagonal(self) -> Vector:
        """The diagonal <p e_i, e_i>, i.e. squared column norms of the frame."""
        return (self.frame.rows ** 2).sum(axis=0)

    def __repr__(self) -> str:
        return "Projection(rank=%d, n=%d)" % (self.rank, self.n)


class Symmetry(_Immutable):
    """A diagonal +-1 sign vector; the self-adjoint unitary s = q - q_perp."""

    __slots__ = ("signs",)

    def __init__(self, signs):
        a = _real_array("signs", signs)
        if a.ndim != 1:
            raise ValueError("signs must be a 1-d sequence")
        # Compare before any integer cast, which would truncate 1.9 to 1.
        if not np.all(np.abs(a) == 1):
            raise ValueError("every sign must be exactly +1 or -1")
        a = a.astype(np.int64)
        a.setflags(write=False)
        object.__setattr__(self, "signs", a)

    @property
    def n(self) -> int:
        return self.signs.shape[0]

    def __neg__(self) -> "Symmetry":
        return Symmetry(-self.signs)

    def __repr__(self) -> str:
        return "Symmetry(%s)" % "".join("+" if s > 0 else "-" for s in self.signs)


# -- operations ---------------------------------------------------------------


def compressions(p: Projection, rows) -> np.ndarray:
    """The (k, r, r) stack of F diag(w) F^T, one for each of the k rows w.

    One batched matmul over the stack; each matrix has the bits of the
    single product ``(f * w) @ f.T``, so it does not depend on which rows
    share its batch.  Memory is k*r*(n + r) floats: callers bound k.  A row
    with a NaN or infinite entry, or not of length n, raises ``ValueError``.
    """
    rows = _real_array("rows", rows)
    if rows.ndim != 2 or rows.shape[1] != p.n:
        raise ValueError("expected rows of length n=%d, got shape %s" % (p.n, rows.shape))
    f = p.frame.rows
    return np.matmul(f * rows[:, None, :], f.T)


def compress_psp(p: Projection, s: Symmetry) -> SymmetricMatrix:
    """The r x r compression M = F S F^T with S = diag(signs).

    ||M|| equals ||p s p|| because F^T is an isometry from coordinate space
    onto range(p): p s p = F^T (F S F^T) F.
    """
    return SymmetricMatrix(compressions(p, s.signs[None, :])[0])


def delta_p_numeric(p: Projection) -> float:
    """Largest diagonal entry of the materialized projection."""
    if p.n == 0:
        return 0.0
    return float(p.diagonal().max())


def apply_psp(p: Projection, s: Symmetry, v: Vector) -> Vector:
    """The vector p(s(p(v)))."""
    if s.n != p.n:
        raise ValueError("dimension mismatch: symmetry n=%d vs projection n=%d" % (s.n, p.n))
    return p.apply(s.signs * p.apply(v))


def operator_norm(m: SymmetricMatrix) -> float:
    """Largest absolute eigenvalue of a symmetric matrix, from the extreme
    eigenvalues that ``numpy.linalg.eigvalsh`` (LAPACK) returns in ascending
    order."""
    if m.n == 0:
        return 0.0
    w = np.linalg.eigvalsh(m.mat)
    # The leading 0.0 wins ties with -0.0, so a zero norm never prints as -0.0.
    return float(max(0.0, -w[0], w[-1]))


def random_projection(n: int, r: int, seed: int) -> Projection:
    """Random rank-r projection of R^n from a pinned deterministic generator.

    Draws an (r, n) block of standard Gaussians from
    ``numpy.random.Generator(PCG64(seed)).standard_normal`` and orthonormalizes
    the rows by LAPACK's Householder QR (``numpy.linalg.qr``), signed so that
    row i has a positive component along draw i's residual; this is the
    Gram-Schmidt frame up to roundoff.  Same seed, numpy version, and
    platform give a bitwise-identical frame.  A rank-deficient draw
    (probability ~0) is retried on the continuation of the same stream.
    """
    n = _integer("n", n, 0)
    r = _integer("rank", r, 0, n)
    seed = _integer("seed", seed, 0)
    rng = np.random.Generator(np.random.PCG64(seed))
    for _attempt in range(32):
        x = rng.standard_normal((r, n))
        q = _orthonormalize_rows(x)
        if q is not None:
            return Projection(OrthonormalFrame(q))
    raise RuntimeError("could not draw a rank-%d frame in 32 attempts" % r)


def _orthonormalize_rows(x: np.ndarray) -> np.ndarray | None:
    # Householder QR of the rows as columns: |R_ii| is the norm of row i's
    # residual after projecting out rows 0..i-1, the quantity Gram-Schmidt
    # tests, and flipping each Q column to make diag(R) positive gives the
    # frame Gram-Schmidt would (Q with positive diag(R) is unique).
    q, r = np.linalg.qr(x.T)
    diag = np.diag(r)
    if np.any(np.abs(diag) <= 1e-8 * np.linalg.norm(x, axis=1)):
        return None
    return np.ascontiguousarray((q * np.sign(diag)).T)
