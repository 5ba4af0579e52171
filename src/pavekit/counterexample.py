"""Exact construction of a structured projection that defeats diagonal sign
cancellation, with an exhaustive certificate.

For an integer parameter m >= 2 the ambient space carries an orthonormal
basis in four groups,

    a_i      1 <= i <= m^2
    b_i      1 <= i <= 2m+1
    c_{ij}   1 <= i < j <= 2m+1
    d_{ij}   1 <= i <= 2m+1,  1 <= j <= (m+1)^2

for a total dimension of 2m^3 + 8m^2 + 7m + 2.  The projection p has rank
2m+2, spanned by the orthonormal vectors

    v_0 = sum_i 1/(m+1) a_i + sum_i 1/(m+1) b_i

and, for 1 <= i <= 2m+1,

    v_i = sum_j -1/(m^2(m+1)) a_j + 1/(m+1) b_i
          + sum_{j<i} 1/(m(m+1)) c_{ji} - sum_{j>i} 1/(m(m+1)) c_{ij}
          + sum_j (1/m) sqrt((m-1)/(m+1)) d_{ij}.

Every entry is rational except on the d block, where entries are rational
multiples of sqrt(rho), rho = (m-1)/(m+1).  The frame has few distinct
columns: every a_j carries the same column, and so does every d_{ij} of one
i.  ``ExactFrame`` therefore stores one column per coordinate class, in the
canonical order

    a  (multiplicity m^2),
    b_1, ..., b_{2m+1},  then the c_{ij} in lexicographic order  (1 each),
    d_1, ..., d_{2m+1}  (multiplicity (m+1)^2 each),

as two integer arrays R and D, one row per vector, with

    <v_k, e_x> = R[k, x] / (m^2 (m+1)) + D[k, x] * sqrt(rho) / m.

Repeating each class column by its multiplicity gives the dense frame over
the a|b|c|d coordinates in canonical order (the d_{ij} lexicographic).
Read off the displays: R is m^2 on the a and b classes of v_0; on v_i, R is
-1 on the a class, m^2 on b_i, +m on c_{ji} (j < i) and -m on c_{ij}
(j > i), and D is 1 on d_i.  Orthonormality, the row norms and delta_p are
decided in integer and rational arithmetic on these arrays.
The largest diagonal entry of p is delta_p = 2/(m+1)^2 (the b-block value)
for m >= 6.

For a diagonal symmetry s write eps_i = s(a_i), eps'_i = s(b_i).  Expanding
p s p (v_0) in the frame basis gives coefficients

    c_0 = (S + T) / (m+1)^2          on v_0,
    c_i = (-S/m^2 + eps'_i) / (m+1)^2   on v_i,

where S = sum eps_i = 2*alpha - m^2 and T = sum eps'_i = 2*beta - (2m+1)
count the +1 signs on the a and b blocks.  ||psp(v_0)||^2 therefore depends
on s only through (alpha, beta), which collapses the 2^n symmetry search to
the lattice 0 <= alpha <= m^2, 0 <= beta <= 2m+1.  For fixed beta, with
w = 2m+1 and t = 2*beta - w, it is a strictly convex quadratic in alpha
(leading coefficient 4(m^4 + w) > 0) with vertex

    alpha* = m^2 (m^4 + w - t(m^2 - 1)) / (2 (m^4 + w)),

so a row's integer minimizers lie in {floor(alpha*), floor(alpha*) + 1},
clamped to [0, m^2], and the exact value-then-lex lattice minimum is the
least of those 2(2m+2) cells (found with integer floor division).  It
exceeds (2*delta_p)^2 exactly once m >= 8: no diagonal symmetry gets within
2*delta_p of cancelling p, refuting the "||psp|| <= 2 delta_p" paving
conjecture (Conjecture A).  Signs on the c and d blocks never matter because
v_0 is supported on a and b alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import OrthonormalFrame, Projection, Symmetry

FALSIFIES_A = "FALSIFIES_A"
INCONCLUSIVE = "INCONCLUSIVE"

# The analytic per-alpha bound (branch_lower_bound) is only claimed for
# m >= 6; the construction itself is well-formed from m = 2 on.
MIN_M = 2
ANALYTIC_MIN_M = 6


def _check_m(m: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < MIN_M:
        raise ValueError("m must be an integer >= %d, got %r" % (MIN_M, m))


def dimension(m: int) -> int:
    """Ambient dimension 2m^3 + 8m^2 + 7m + 2 (= sum of the block sizes)."""
    _check_m(m)
    return 2 * m**3 + 8 * m**2 + 7 * m + 2


def block_sizes(m: int) -> dict[str, int]:
    """Sizes of the a, b, c, d coordinate blocks."""
    _check_m(m)
    return {
        "a": m * m,
        "b": 2 * m + 1,
        "c": m * (2 * m + 1),
        "d": (2 * m + 1) * (m + 1) ** 2,
    }


@dataclass(frozen=True)
class BasisIndex:
    """A coordinate of the ambient space: block 'a'/'b'/'c'/'d' plus indices
    (a_i, b_i, c_{ij} with i < j, d_{ij}), numbered from 1 as in the module
    docstring."""

    block: str
    i: int
    j: int | None = None

    @classmethod
    def a(cls, i: int) -> "BasisIndex":
        return cls("a", i)

    @classmethod
    def b(cls, i: int) -> "BasisIndex":
        return cls("b", i)

    @classmethod
    def c(cls, i: int, j: int) -> "BasisIndex":
        return cls("c", i, j)

    @classmethod
    def d(cls, i: int, j: int) -> "BasisIndex":
        return cls("d", i, j)

    def validate(self, m: int) -> None:
        _check_m(m)
        ok = False
        if self.block == "a":
            ok = self.j is None and 1 <= self.i <= m * m
        elif self.block == "b":
            ok = self.j is None and 1 <= self.i <= 2 * m + 1
        elif self.block == "c":
            ok = self.j is not None and 1 <= self.i < self.j <= 2 * m + 1
        elif self.block == "d":
            ok = (
                self.j is not None
                and 1 <= self.i <= 2 * m + 1
                and 1 <= self.j <= (m + 1) ** 2
            )
        if not ok:
            raise ValueError("index %r out of bounds for m=%d" % (self, m))


@dataclass(frozen=True, eq=False)
class ExactFrame:
    """The 2m+2 frame vectors with exact entries, one column per coordinate
    class (see the module docstring for the order).

    Entry (k, x) of v_k on a coordinate of class x is
    R[k, x] / (m^2 (m+1)) + D[k, x] * sqrt(rho) / m with rho = (m-1)/(m+1),
    and ``mult[x]`` coordinates share that column, so
    ``np.repeat(R, mult, axis=1)`` is the dense frame's R over all
    2m^3 + 8m^2 + 7m + 2 coordinates (likewise D).  ``R``, ``D`` and ``mult``
    are int64 arrays, read-only when they come from ``build_frame``.
    """

    m: int
    R: np.ndarray
    D: np.ndarray
    mult: np.ndarray

    @property
    def rho(self) -> Fraction:
        return Fraction(self.m - 1, self.m + 1)

    @property
    def rank(self) -> int:
        return self.R.shape[0]


def _class_of(m: int, index: BasisIndex) -> int:
    # The class number of a coordinate in the canonical class order.
    index.validate(m)
    w = 2 * m + 1
    if index.block == "a":
        return 0
    if index.block == "b":
        return index.i
    if index.block == "c":
        # 1 + w + the lexicographic rank of (i, j) among the pairs
        i, j = index.i, index.j
        return 1 + w + (i - 1) * w - i * (i - 1) // 2 + (j - i - 1)
    return 1 + w + w * (w - 1) // 2 + index.i - 1


def _columns(m: int, classes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R and D of the class columns numbered ``classes``, read off the
    displays of v_0 and v_i in the module docstring."""
    w = 2 * m + 1
    c_start, d_start = 1 + w, 1 + w + w * (w - 1) // 2
    cols = np.arange(classes.size)
    r = np.zeros((w + 1, classes.size), dtype=np.int64)
    d = np.zeros_like(r)
    # a_j: 1/(m+1) on v_0, -1/(m^2(m+1)) on every v_i
    on = classes == 0
    r[0, on] = m * m
    r[1:, on] = -1
    # b_i (class i): 1/(m+1) on v_0 and on v_i
    on = (classes >= 1) & (classes < c_start)
    r[0, on] = m * m
    r[classes[on], cols[on]] = m * m
    # c_{ij}, i < j: +1/(m(m+1)) on v_j, -1/(m(m+1)) on v_i; the pairs in
    # lexicographic order, as _class_of counts them
    on = (classes >= c_start) & (classes < d_start)
    lo, hi = np.triu_indices(w, 1)
    pair = classes[on] - c_start
    r[1 + hi[pair], cols[on]] = m
    r[1 + lo[pair], cols[on]] = -m
    # d_{ij} (class d_i): (1/m) sqrt(rho) on v_i
    on = classes >= d_start
    d[1 + classes[on] - d_start, cols[on]] = 1
    return r, d


def build_frame(m: int) -> ExactFrame:
    """Construct the 2m+2 exact frame vectors spanning the projection."""
    _check_m(m)
    w = 2 * m + 1
    # a, then b_1..b_w and the c pairs once each, then d_1..d_w
    mult = np.ones(1 + w + w * (w - 1) // 2 + w, dtype=np.int64)
    mult[0] = m * m
    mult[-w:] = (m + 1) ** 2
    r, d = _columns(m, np.arange(mult.size))
    for a in (r, d, mult):
        a.setflags(write=False)
    return ExactFrame(m=m, R=r, D=d, mult=mult)


def verify_orthonormal(f: ExactFrame) -> bool:
    """Exact check that the frame's Gram matrix is the identity.

    With L = m^2 (m+1) and W = diag(mult), the Gram matrix is

        R W R^T / L^2 + rho D W D^T / m^2 + (R W D^T + D W R^T) sqrt(rho) / (L m).

    rho is never the square of a rational for m >= 2, so it equals I exactly
    when the radical part vanishes and, scaled by L^2, the rational part
    R W R^T + (m-1) m^2 (m+1) D W D^T equals L^2 I.
    """
    # int64 cannot overflow on a built frame: a term R[k,x] mult[x] R[l,x] is
    # at most m^6 (the a class of v_0), and by Cauchy-Schwarz each weighted
    # sum is at most L^2 = m^4 (m+1)^2, the weighted square sum of v_0's R
    # row; D's rows weigh (m+1)^2, so the scaled D sum stays below L^2 too.
    # 2 L^2 < 2^63 up to m = 1200, far past any m whose class columns fit in
    # memory (R alone takes 260 MB at m=200).
    m, r, d = f.m, f.R, f.D
    rm = r * f.mult
    scale = m * m * (m + 1)
    cross = rm @ d.T
    if np.any(cross + cross.T):
        return False
    gram = rm @ r.T + (m - 1) * m * m * (m + 1) * ((d * f.mult) @ d.T)
    return bool(np.array_equal(gram, scale * scale * np.eye(f.rank, dtype=np.int64)))


# One coordinate per block; the diagonal of p is constant on each block.
BLOCK_REPRESENTATIVES = {
    "a": BasisIndex.a(1),
    "b": BasisIndex.b(1),
    "c": BasisIndex.c(1, 2),
    "d": BasisIndex.d(1, 1),
}


def _row_norms_sq(m: int, classes: list[int]) -> list[Fraction]:
    # Sums of the entry squares of the class columns, built in one go.
    r, d = _columns(m, np.array(classes))
    scale = m * m * (m + 1)
    return [
        Fraction(int(rr), scale * scale) + Fraction((m - 1) * int(dd), (m + 1) * m * m)
        for rr, dd in zip((r * r).sum(axis=0), (d * d).sum(axis=0))
    ]


def row_norm_sq(m: int, index: BasisIndex) -> Fraction:
    """Exact squared row norm ||p(e_x)||^2 = sum_k <e_x, v_k>^2.

    This is the diagonal entry of p at the coordinate x; by construction it
    only depends on x through its block:

        a: 1/(m+1)^2 + (2m+1)/(m^4 (m+1)^2)
        b: 2/(m+1)^2
        c: 2/(m^2 (m+1)^2)
        d: (m-1)/(m^2 (m+1))

    Only the class column of x is built.  A coordinate's entries are
    rational on the a, b and c blocks and pure multiples of sqrt(rho) on the
    d block, so the squares never carry a radical.
    """
    return _row_norms_sq(m, [_class_of(m, index)])[0]


def delta_p_exact(m: int) -> Fraction:
    """Exact delta_p: the largest diagonal entry of p.

    Computed as the maximum of the four block values, summed from one built
    column per block (BLOCK_REPRESENTATIVES).  Equals 2/(m+1)^2 for every
    m >= 6.
    """
    _check_m(m)
    return max(_row_norms_sq(m, [_class_of(m, ix) for ix in BLOCK_REPRESENTATIVES.values()]))


@dataclass(frozen=True)
class SignProfile:
    """Signs of a diagonal symmetry on the a block (eps) and b block (eps_prime).

    The c and d signs are irrelevant to psp(v_0) and are not recorded.
    ``alpha`` and ``beta`` are the +1 counts, which are all the norm of
    psp(v_0) depends on.
    """

    eps: tuple[int, ...]
    eps_prime: tuple[int, ...]

    def __post_init__(self):
        if any(e not in (-1, 1) for e in self.eps) or any(
            e not in (-1, 1) for e in self.eps_prime
        ):
            raise ValueError("profile entries must be +1 or -1")

    @property
    def alpha(self) -> int:
        return sum(1 for e in self.eps if e == 1)

    @property
    def beta(self) -> int:
        return sum(1 for e in self.eps_prime if e == 1)

    def validate(self, m: int) -> None:
        _check_m(m)
        if len(self.eps) != m * m or len(self.eps_prime) != 2 * m + 1:
            raise ValueError(
                "profile lengths (%d, %d) do not match m=%d"
                % (len(self.eps), len(self.eps_prime), m)
            )


def psp_v0_coeffs(m: int, prof: SignProfile) -> tuple[Fraction, list[Fraction]]:
    """Coefficients of p s p (v_0) in the frame basis, exactly.

    Returns (c_0, [c_1, ..., c_{2m+1}]) with c_0 = (S+T)/(m+1)^2 and
    c_i = (-S/m^2 + eps'_i)/(m+1)^2, S and T the signed sums over the a and
    b blocks.
    """
    prof.validate(m)
    s = sum(prof.eps)
    t = sum(prof.eps_prime)
    denom0 = (m + 1) ** 2
    c0 = Fraction(s + t, denom0)
    denom = m * m * denom0
    coeffs = [Fraction(-s + e * m * m, denom) for e in prof.eps_prime]
    return c0, coeffs


def _norm_sq_units(m: int, alpha: int, beta: int) -> int:
    # ||psp(v_0)||^2 in units of 1/(m^4 (m+1)^4); pure integer arithmetic so
    # the lattice scan stays fast and exact.
    s = 2 * alpha - m * m
    t = 2 * beta - (2 * m + 1)
    m2 = m * m
    return (
        m2 * m2 * (s + t) ** 2
        + beta * (m2 - s) ** 2
        + (2 * m + 1 - beta) * (m2 + s) ** 2
    )


def _count(name: str, x) -> int:
    # A lattice coordinate as a Python int; numpy integers pass, 1.5 does not.
    if not isinstance(x, numbers.Integral) or isinstance(x, bool):
        raise ValueError("%s must be an integer, got %r" % (name, x))
    return int(x)


def psp_v0_norm_sq(m: int, alpha: int, beta: int) -> Fraction:
    """Exact ||psp(v_0)||^2 for any symmetry with +1 counts (alpha, beta).

    The value is c_0^2 + sum_i c_i^2 where the c_i take just two values
    (eps'_i = +1 or -1); it depends on the profile only through the counts.
    """
    _check_m(m)
    alpha, beta = _count("alpha", alpha), _count("beta", beta)
    if not 0 <= alpha <= m * m:
        raise ValueError("alpha must lie in [0, m^2], got %d" % alpha)
    if not 0 <= beta <= 2 * m + 1:
        raise ValueError("beta must lie in [0, 2m+1], got %d" % beta)
    return Fraction(_norm_sq_units(m, alpha, beta), m**4 * (m + 1) ** 4)


def branch_lower_bound(m: int, alpha: int) -> float:
    """Analytic lower bound on ||psp(v_0)|| as a function of alpha alone.

    Valid for m >= 6 under the normalization alpha <= m^2/2 (replace s by -s
    otherwise).  For alpha below m^2/4 the v_0 component of psp(v_0) is
    bounded below by (m^2-4m-2)/4 * delta_p; from m^2/4 on, the component in
    span(v_1..v_{2m+1}) is bounded below by sqrt(2m+1) * 2*alpha/(m^2(m+1)^2).
    Returns a float (the second branch is irrational); certificate
    comparisons never use it.
    """
    if m < ANALYTIC_MIN_M:
        raise ValueError("the analytic bound assumes m >= %d" % ANALYTIC_MIN_M)
    alpha = _count("alpha", alpha)
    if not 0 <= 2 * alpha <= m * m:
        raise ValueError("alpha=%d outside the normalized range [0, m^2/2]" % alpha)
    delta = 2.0 / (m + 1) ** 2
    if 4 * alpha < m * m:
        return (m * m - 4 * m - 2) / 4.0 * delta
    return math.sqrt(2 * m + 1) * 2.0 * alpha / (m * m * float(m + 1) ** 2)


def branch_bound_overall(m: int) -> float:
    """The alpha-independent form of the analytic bound:
    (delta_p/4) * min(m^2 - 4m - 2, sqrt(2m+1))."""
    if m < ANALYTIC_MIN_M:
        raise ValueError("the analytic bound assumes m >= %d" % ANALYTIC_MIN_M)
    delta = 2.0 / (m + 1) ** 2
    return delta / 4.0 * min(float(m * m - 4 * m - 2), math.sqrt(2 * m + 1))


def rational_to_str(x: Fraction) -> str:
    """Serialize a rational as "numerator/denominator", slash always present."""
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the exhaustive (alpha, beta) scan for one m.

    ``verdict`` is FALSIFIES_A exactly when min_norm_sq > (2*delta_p)^2 as
    rationals: the exact minimum of ||psp(v_0)|| over all diagonal
    symmetries beats the conjectured 2*delta_p ceiling.  ``branch_bound`` is
    the weaker analytic bound for reference (None below m=6, where it is not
    claimed).  ``argmin`` is the lexicographically smallest minimizing cell.
    """

    m: int
    delta_p: Fraction
    two_delta_p: Fraction
    min_norm_sq: Fraction
    argmin: tuple[int, int]
    branch_bound: float | None
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "delta_p": rational_to_str(self.delta_p),
            "delta_p_decimal": float(self.delta_p),
            "two_delta_p": rational_to_str(self.two_delta_p),
            "two_delta_p_decimal": float(self.two_delta_p),
            "min_norm_sq": rational_to_str(self.min_norm_sq),
            "min_norm_sq_decimal": float(self.min_norm_sq),
            "min_norm_decimal": math.sqrt(float(self.min_norm_sq)),
            "argmin_alpha": self.argmin[0],
            "argmin_beta": self.argmin[1],
            "branch_bound": self.branch_bound,
            "verdict": self.verdict,
        }


def _lattice_min(m: int) -> tuple[int, int, int]:
    """Least (units, alpha, beta) over the lattice, from the two candidate
    cells of each row (see the module docstring)."""
    m2, w = m * m, 2 * m + 1
    cells = []
    for beta in range(w + 1):
        t = 2 * beta - w
        floor = m2 * (m2 * m2 + w - t * (m2 - 1)) // (2 * (m2 * m2 + w))
        for alpha in (floor, floor + 1):
            alpha = min(max(alpha, 0), m2)
            cells.append((_norm_sq_units(m, alpha, beta), alpha, beta))
    return min(cells)


def min_over_symmetries_v0(m: int) -> CertificateReport:
    """Exact minimum of ||psp(v_0)||^2 over every diagonal symmetry.

    An exhaustive certificate over all 2^n symmetries, since the norm
    depends on s only through the counts (alpha, beta) and the c/d signs
    are irrelevant.  Ties resolve to the lexicographically smallest
    (alpha, beta).
    """
    _check_m(m)
    units, alpha, beta = _lattice_min(m)
    min_norm_sq = Fraction(units, m**4 * (m + 1) ** 4)
    delta = delta_p_exact(m)
    verdict = FALSIFIES_A if min_norm_sq > 4 * delta * delta else INCONCLUSIVE
    return CertificateReport(
        m=m,
        delta_p=delta,
        two_delta_p=2 * delta,
        min_norm_sq=min_norm_sq,
        argmin=(alpha, beta),
        branch_bound=branch_bound_overall(m) if m >= ANALYTIC_MIN_M else None,
        verdict=verdict,
    )


# -- bridges to the floating-point side ----------------------------------------


def float_frame(m: int) -> OrthonormalFrame:
    """The exact frame rounded to floats, as a dense (2m+2) x dim frame.

    A rational entry is R / L, the correctly rounded quotient of two exactly
    represented integers; every d entry is the float (1/m) * sqrt(rho).
    """
    f = build_frame(m)
    radical = (1.0 / m) * math.sqrt((m - 1) / (m + 1))
    columns = f.R / (m * m * (m + 1)) + f.D * radical
    return OrthonormalFrame(np.repeat(columns, f.mult, axis=1))


def float_projection(m: int) -> Projection:
    """The construction as a floating-point Projection."""
    return Projection(float_frame(m))


def profile_symmetry(m: int, prof: SignProfile, cd_signs=None) -> Symmetry:
    """Extend a SignProfile to a full diagonal symmetry.

    ``cd_signs`` fills the c and d blocks (defaults to all +1; psp(v_0) does
    not depend on it).
    """
    prof.validate(m)
    sizes = block_sizes(m)
    tail = sizes["c"] + sizes["d"]
    if cd_signs is None:
        cd = np.ones(tail, dtype=np.int64)
    else:
        cd = np.asarray(cd_signs, dtype=np.int64)
        if cd.shape != (tail,):
            raise ValueError("cd_signs must have length %d" % tail)
    signs = np.concatenate(
        [np.asarray(prof.eps, dtype=np.int64), np.asarray(prof.eps_prime, dtype=np.int64), cd]
    )
    return Symmetry(signs)
