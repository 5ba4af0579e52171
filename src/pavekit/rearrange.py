"""Zero-sum rearrangement and single-vector sign balancing.

Two elementary facts drive this module.  First, if every vector in a
sequence has nonpositive inner product with the preceding partial sum, the
partial sums obey ||w_i||^2 <= ||v_1||^2 + ... + ||v_i||^2.  Second, any
finite family summing to zero can be reordered greedily so that hypothesis
holds: the remaining vectors always sum to -w, so one of them has
nonpositive inner product with w.

Applied to a unit vector v in the range of a projection p: split p into the
rank-one part p1 along v and the rest p2, slice p(v) by coordinates into
x_i + y_i with x_i = alpha_i^2 v parallel to v and y_i perpendicular
(sum x_i = v, sum y_i = 0), reorder the y_i greedily, and cut the order at
the smallest prefix k with |1/2 - sum_1^k alpha_i^2| <= delta_p/2 (one
exists because each alpha_i^2 <= delta_p and the total is 1).  Giving the
prefix +1 and the rest -1 yields a diagonal symmetry s with

    ||p s p (v)||^2 <= delta_p^2 + 2*delta_p + 2*delta_p^2
                     = 2*delta_p + 3*delta_p^2.

So for any single vector, sign cancellation down to ~sqrt(2*delta_p) is
always achievable; lower bounds above that scale need the test vector to
vary with the symmetry.

Every slice y_i lies in range(p), which has dimension r, so the greedy runs
on the frame coordinates z_i = F y_i (F the r x n frame of p) instead of
the y_i themselves.  F^T maps R^r isometrically onto range(p) and
F^T z_i = y_i, so every inner product, norm and zero-sum residual the
greedy and its checks see is the same up to roundoff.  The greedy then
costs O(n^2 r) time and O(n r) memory, where the n-vectors y_i would cost
O(n^3) and O(n^2).

The greedy and both checks share one slack for "nonpositive": <v, w> may
exceed zero by PREFIX_TOL * scale() plus sum_tolerance * ||w||, since the
family sums only to within sum_tolerance of zero, so the vectors left after
w sum to within that of -w.  As ||w + v||^2 = ||w||^2 + 2<v, w> + ||v||^2,
``partial_sum_bound_holds`` allows twice the summed slack, so it holds
wherever ``check_prefix_property`` does.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .linalg import (
    Projection,
    Symmetry,
    Vector,
    _Immutable,
    _integer,
    _real,
    _real_array,
    apply_psp,
    delta_p_numeric,
)

PREFIX_TOL = 1e-10      # slack for "nonpositive" inner products, times scale
PREFIX_CUT_TOL = 1e-12  # slack in the |1/2 - prefix| <= delta/2 cut
DEGENERATE_TOL = 1e-10  # ||p(v)|| below this is a degenerate input


class ZeroSumFamily(_Immutable):
    """A finite family of same-dimension vectors required to sum to zero.

    ``sum_tolerance`` defaults to 1e-9 times the total vector length mass;
    construction fails if ||sum v_i|| exceeds it.  ``[]`` is the empty
    family and a (k, 0) array is k vectors of dimension 0; any other input
    that is not a 2-d array, an entry that is not an integer or float (a
    bool or string), a non-finite entry, k vectors whose k^2 * scale()
    overflows, and a ``sum_tolerance`` that is a bool, no real number, NaN,
    infinite or negative, raise ``ValueError``.
    """

    __slots__ = ("vectors", "sum_tolerance", "_scale")

    def __init__(self, vectors, sum_tolerance: float | None = None):
        a = _real_array("vectors", vectors, copy=True)
        if a.ndim == 1 and a.size == 0:
            a = a.reshape(0, 0)  # [] is the empty family
        if a.ndim != 2:
            raise ValueError("expected a sequence of equal-length vectors")
        a.setflags(write=False)
        object.__setattr__(self, "vectors", a)
        # Norms are taken of a / peak and scaled back in Python floats, so no
        # finite entry overflows them, however close to the float limit.
        peak = float(np.abs(a).max(initial=0.0)) or 1.0
        with np.errstate(over="ignore"):
            object.__setattr__(self, "_scale", float((a**2).sum(axis=1).max(initial=0.0)))
        # Cauchy-Schwarz bounds every <v_i, w> the greedy or a check forms by
        # k * scale() and every w.w by k^2 * scale(); a Python float product
        # overflows to inf without a warning.
        if len(a) * len(a) * self._scale == math.inf:
            raise ValueError(
                "vectors too large: max |entry| = %g, so inner products with "
                "partial sums can overflow" % peak
            )
        if sum_tolerance is None:
            sum_tolerance = 1e-9 * peak * float(np.linalg.norm(a / peak, axis=1).sum())
        # An infinite or NaN tolerance would switch off both this check and
        # the greedy's existence backstop (x > nan is always False).
        sum_tolerance = _real("sum_tolerance", sum_tolerance)
        if not 0.0 <= sum_tolerance < math.inf:
            raise ValueError(
                "sum_tolerance must be finite and >= 0, got %r" % (sum_tolerance,)
            )
        resid = peak * float(np.linalg.norm(a.sum(axis=0) / peak))
        if resid > sum_tolerance:
            raise ValueError(
                "family does not sum to zero: ||sum|| = %g > tolerance %g"
                % (resid, sum_tolerance)
            )
        object.__setattr__(self, "sum_tolerance", sum_tolerance)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def scale(self) -> float:
        """Max squared vector norm; the reference scale for inner-product slack."""
        return self._scale


def _check_order(family: ZeroSumFamily, order) -> list[int]:
    order = [_integer("order entry", i, 0) for i in order]
    if sorted(order) != list(range(len(family))):
        raise ValueError("order is not a permutation of range(%d)" % len(family))
    return order


def _slack(family: ZeroSumFamily, w_norm):
    """How far above zero <v, w> counts as nonpositive, for ||w|| = w_norm."""
    return PREFIX_TOL * family.scale() + family.sum_tolerance * w_norm


def _walk(family: ZeroSumFamily, order):
    """Reordered vectors x_i, partial sums w_0 = 0, ..., w_k, slacks at w_{i-1}."""
    x = family.vectors[_check_order(family, order)]
    w = np.zeros((len(x) + 1, family.dim))
    np.cumsum(x, axis=0, out=w[1:])
    return x, w, _slack(family, np.linalg.norm(w[:-1], axis=1))


def check_prefix_property(family: ZeroSumFamily, order) -> bool:
    """True iff each reordered vector has inner product <= slack with the
    partial sum of its predecessors."""
    x, w, slack = _walk(family, order)
    return bool((np.einsum("ij,ij->i", x, w[:-1]) <= slack).all())


def partial_sum_bound_holds(family: ZeroSumFamily, order) -> bool:
    """True iff every partial sum satisfies ||w_i||^2 <= sum_{j<=i} ||v_j||^2
    plus twice the summed slack.  Implied by check_prefix_property."""
    x, w, slack = _walk(family, order)
    budget = np.cumsum(np.einsum("ij,ij->i", x, x) + 2.0 * slack)
    return bool((np.einsum("ij,ij->i", w[1:], w[1:]) <= budget).all())


def greedy_rearrange(family: ZeroSumFamily) -> list[int]:
    """Reorder a zero-sum family so every vector meets the running partial
    sum at a nonpositive angle.

    Index 0 opens the order; each following slot takes the remaining vector
    with the most negative inner product against the current partial sum,
    ties broken by smallest index.  Such a vector always exists (the
    remaining vectors sum to -w), so a positive best inner product beyond
    slack means the family did not actually sum to zero.

    Each step does one full-height product into a reused buffer, one mask
    of the used rows and one argmin.  ||w|| is taken only when the best
    inner product exceeds the slack's floor PREFIX_TOL * scale(): the slack
    only grows with ||w||, so below the floor no slack can reject it.
    """
    k = len(family)
    if k == 0:
        return []
    v = family.vectors
    order = [0]
    used = np.zeros(k, dtype=bool)
    used[0] = True
    w = v[0].copy()
    dots = np.empty(k)
    floor = _slack(family, 0.0)
    for _ in range(k - 1):
        # The product stays full-height: BLAS row dots over a subset of the
        # rows can round differently, and so can a copy in another layout.
        np.dot(v, w, out=dots)
        # putmask writes the used rows in place: no index array, no temporary.
        np.putmask(dots, used, np.inf)
        idx = int(dots.argmin())  # first minimum = smallest index on ties
        best = float(dots[idx])
        if best > floor:
            tol = _slack(family, math.sqrt(float(w @ w)))
            if best > tol:
                raise ValueError(
                    "no remaining vector has nonpositive inner product "
                    "(best %g > slack %g); zero-sum precondition violated"
                    % (best, tol)
                )
        used[idx] = True
        order.append(idx)
        w += v[idx]
    return order


@dataclass(frozen=True)
class SingleVectorResult:
    """A symmetry cancelling one vector down to sqrt(2*delta_p + 3*delta_p^2).

    ``permutation`` is the greedy order of the perpendicular slices y_i;
    ``alpha_sq`` lists the parallel masses alpha_i^2 in that order, so the
    chosen prefix is alpha_sq[:k].  ``unit_target`` is the normalized
    projected input the guarantee refers to.
    """

    signs: Symmetry
    achieved_norm: float
    bound: float
    delta_p: float
    k: int
    permutation: list[int]
    alpha_sq: list[float]
    unit_target: Vector

    def to_json_dict(self) -> dict:
        return {
            "signs": self.signs.signs.tolist(),
            "achieved_norm": self.achieved_norm,
            "bound": self.bound,
            "delta_p": self.delta_p,
            "k": self.k,
            "permutation": list(self.permutation),
        }


def single_vector_symmetry(p: Projection, v: Vector) -> SingleVectorResult:
    """Construct a diagonal symmetry s with ||psp(v)|| <= sqrt(2d + 3d^2),
    d = delta_p, for the (normalized, projected) vector v.

    Steps: project and renormalize v; form the perpendicular coordinate
    slices y_i = v_i (P e_i - v_i v); greedily reorder them; cut at the
    smallest prefix k with |1/2 - sum alpha^2| <= delta_p/2; s is +1 on the
    prefix coordinates and -1 elsewhere.  The slices are kept as their frame
    coordinates z_i = F y_i = v_i (F e_i - v_i F v), an r x n array, never as
    n-vectors: F^T z_i = y_i and F^T is an isometry, so the greedy sees the
    same inner products up to roundoff.  ``unit_target`` and the final
    guarantee check stay in R^n.  A v with a NaN, infinite, bool or string
    entry, and a v whose projection vanishes relative to max|v_i|, raise
    ``ValueError``.
    """
    v = _real_array("v", v)
    peak = float(np.abs(v).max(initial=0.0))
    if peak == 0.0:
        raise ValueError("v = 0; no direction to cancel")
    # Only the direction of p(v) matters; scaling by max|v_i| first keeps
    # x.dot(x) from overflowing on huge v and DEGENERATE_TOL relative.
    pv = p.apply(v / peak)
    nrm = float(np.linalg.norm(pv))
    if nrm <= DEGENERATE_TOL:
        raise ValueError("p(v) vanishes; no direction to cancel")
    unit = pv / nrm

    n = p.n
    delta = delta_p_numeric(p)
    alpha_sq = unit**2

    f = p.frame.rows
    # Column i is z_i = unit_i * (F e_i - unit_i * F unit).
    z = f * unit[None, :] - np.outer(f @ unit, alpha_sq)
    family = ZeroSumFamily(
        z.T, sum_tolerance=max(1e-9 * float(np.linalg.norm(z, axis=0).sum()), 1e-12)
    )
    perm = greedy_rearrange(family)

    ordered = alpha_sq[perm]
    # np.cumsum adds in sequence, so prefixes[k] is sum(ordered[:k]) summed
    # left to right from 0.0.
    prefixes = np.concatenate(([0.0], np.cumsum(ordered)))
    hits = np.flatnonzero(np.abs(0.5 - prefixes) <= delta / 2.0 + PREFIX_CUT_TOL)
    if hits.size == 0:
        raise RuntimeError(
            "no prefix lands within delta_p/2 of 1/2; "
            "input is numerically inconsistent"
        )
    k = int(hits[0])

    signs = -np.ones(n, dtype=np.int64)
    signs[perm[:k]] = 1
    s = Symmetry(signs)
    achieved = float(np.linalg.norm(apply_psp(p, s, unit)))
    bound = math.sqrt(2.0 * delta + 3.0 * delta * delta)
    if achieved > bound + 1e-9:
        raise RuntimeError(
            "constructed symmetry misses its guarantee: %.17g > %.17g"
            % (achieved, bound)
        )
    return SingleVectorResult(
        signs=s,
        achieved_norm=achieved,
        bound=bound,
        delta_p=delta,
        k=k,
        permutation=perm,
        alpha_sq=[float(x) for x in ordered],
        unit_target=unit,
    )
