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
i.  A class is a set of coordinates that share a column; in the canonical
coordinate order they are

    a  (m^2 coordinates),
    b_1, ..., b_{2m+1},  then the c_{ij} in lexicographic order  (1 each),
    d_1, ..., d_{2m+1}  ((m+1)^2 each, the d_{ij} in order of j),

and a class column is written as two integer arrays R and D, one row per
vector, with

    <v_k, e_x> = R[k, x] / (m^2 (m+1)) + D[k, x] * sqrt(rho) / m.

Read off the displays: R is m^2 on the a and b classes of v_0; on v_i, R is
-1 on the a class, m^2 on b_i, +m on c_{ji} (j < i) and -m on c_{ij}
(j > i), and D is 1 on d_i.  ``build_frame`` is the one place that writes
these entries.  It keeps the 2(2m+1)+1 a, b and d classes as dense columns
and each c_{ij} as its edge (i, j), the two rows that carry -m and +m, so
the exact checks cost in proportion to the class count.  ``float_frame``
writes the edges out as columns between the b and d classes, rounds, and
repeats each class by its size: the dense frame in canonical order.
Orthonormality is decided in integer arithmetic.  The diagonal of p is
constant on each block, the squared norm of one class column; over
L^2 = (m^2 (m+1))^2 its numerators are

    a: m^4 + 2m + 1,   b: 2 m^4,   c: 2 m^2,   d: (m-1) m^2 (m+1).

The b value is the largest for every m >= 2, as 2m+1 < m^4, 1 < m^2 and
m^2-1 < 2m^2 (against a, c, d), so delta_p = 2/(m+1)^2.

For a diagonal symmetry s write eps_i = s(a_i), eps'_i = s(b_i).  Expanding
p s p (v_0) in the frame basis gives coefficients

    c_0 = (S + T) / (m+1)^2          on v_0,
    c_i = (-S/m^2 + eps'_i) / (m+1)^2   on v_i,

where S = sum eps_i = 2*alpha - m^2 and T = sum eps'_i = 2*beta - (2m+1)
count the +1 signs on the a and b blocks.  ||psp(v_0)||^2 therefore depends
on s only through (alpha, beta), which collapses the 2^n symmetry search to
the lattice 0 <= alpha <= m^2, 0 <= beta <= 2m+1, and the lattice minimum
has a closed form.  Write U for the value in units of 1/(m^4 (m+1)^4)
(``_norm_sq_units``) and

    s = 2*alpha - m^2 (= S), t = 2*beta - w (= T, w = 2m+1), u = s + t,
    A = 2m^2 + 2m + 1:
        U - (2m+1) m^4 = m^4 u^2 + A s^2 - 2 m^2 u s.

t is odd; s has the parity of m.  For real s, A s^2 - 2 m^2 u s >= -m^4 u^2 / A.
even m (s even, u odd):  s = 0 gives m^4 u^2 >= m^4, with equality iff u = +-1;
    |u| = 1, |s| >= 2 gives A s^2 - 2 m^2 u s >= |s| (A|s| - 2m^2) > 0;
    |u| >= 3 gives at least 9 m^4 (1 - 1/A) > m^4.
    So the minimizers are exactly (s, t) = (0, +-1), and the lex-first is
    (alpha, beta) = (m^2/2, m), with U = (2m+2) m^4.
odd m (s, t odd, u even):  u = 0 gives A s^2 >= A, with equality iff s = +-1;
    |u| >= 2 gives at least 4 m^4 (1 - 1/A) > A, since 8 m^5 (m+1) > A^2
    for m >= 2.
    So the minimizers are exactly (s, t) = (+-1, -+1), and the lex-first is
    (alpha, beta) = ((m^2-1)/2, m+1), with U = (2m+1)(m^4+1) + 2m^2.

Both cells lie in the lattice, so the exact value-then-lex minimum costs
one evaluation per m.  It exceeds (2*delta_p)^2 exactly once m >= 8: no
diagonal symmetry gets within 2*delta_p of cancelling p, refuting the
"||psp|| <= 2 delta_p" paving conjecture (Conjecture A).  Signs on the c and
d blocks never matter because v_0 is supported on a and b alone.

Integer arguments (m, alpha, beta, index fields, profile signs) follow the
package's one integer rule, ``linalg._integer``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .linalg import OrthonormalFrame, Projection, Symmetry, _integer

FALSIFIES_A = "FALSIFIES_A"
INCONCLUSIVE = "INCONCLUSIVE"

# The analytic per-alpha bound (branch_lower_bound) is only claimed for
# m >= 6; the construction itself is well-formed from m = 2 on.
MIN_M = 2
ANALYTIC_MIN_M = 6


class _Block(NamedTuple):
    classes: int
    mult: int  # coordinates per class

    @property
    def size(self) -> int:
        return self.classes * self.mult


def _blocks(m: int) -> tuple[int, dict[str, _Block]]:
    """m checked, and its coordinate layout: the a, b, c, d blocks in
    canonical order."""
    m = _integer("m", m, MIN_M)
    w = 2 * m + 1
    return m, {"a": _Block(1, m * m), "b": _Block(w, 1), "c": _Block(w * (w - 1) // 2, 1),
               "d": _Block(w, (m + 1) ** 2)}


def dimension(m: int) -> int:
    """Ambient dimension 2m^3 + 8m^2 + 7m + 2, the sum of the block sizes."""
    return sum(block_sizes(m).values())


def block_sizes(m: int) -> dict[str, int]:
    """Sizes of the a, b, c, d coordinate blocks."""
    return {k: b.size for k, b in _blocks(m)[1].items()}


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


@dataclass(frozen=True, eq=False)
class ExactFrame:
    """The 2m+2 frame vectors with exact entries, stored by coordinate class
    (see the module docstring for the classes and their order).

    ``R``, ``D`` and ``mult`` hold the a, b_1..b_{2m+1} and d_1..d_{2m+1}
    classes, in that order: entry (k, x) of v_k on a coordinate of dense
    class x is R[k, x] / (m^2 (m+1)) + D[k, x] * sqrt(rho) / m with
    rho = (m-1)/(m+1), and ``mult[x]`` coordinates share that column.
    ``pairs`` holds the c classes in lexicographic order as a (2, m(2m+1))
    array of frame rows: c class t is -1/(m(m+1)) on v_i and +1/(m(m+1)) on
    v_j, (i, j) = pairs[:, t], and 0 elsewhere; on R's scale, -m and +m.
    All four are int64 arrays, read-only when they come from
    ``build_frame``, the frame's one constructor (``float_frame`` rounds
    its output).
    """

    m: int
    R: np.ndarray
    D: np.ndarray
    mult: np.ndarray
    pairs: np.ndarray

    @property
    def rank(self) -> int:
        return self.R.shape[0]


def _check_coordinate(layout: dict[str, _Block], index: BasisIndex) -> None:
    # ValueError unless index is a BasisIndex naming one of the layout's
    # coordinates.
    named = isinstance(index, BasisIndex) and isinstance(index.block, str)
    block = layout.get(index.block) if named else None
    if block is None or (index.j is None) != (index.block in "ab"):
        raise ValueError("%r is not a coordinate of this layout" % (index,))
    w = layout["b"].classes
    i = _integer("i", index.i, 1, {"a": block.mult, "c": w - 1}.get(index.block, w))
    if index.block == "c":
        _integer("j", index.j, i + 1, w)
    elif index.block == "d":
        _integer("j", index.j, 1, block.mult)


def build_frame(m: int) -> ExactFrame:
    """Construct the 2m+2 exact frame vectors spanning the projection,
    written straight from the displays of v_0 and v_i in the module
    docstring: the a class, b_1..b_w and d_1..d_w (w = 2m+1) as columns,
    and the c classes as the lexicographic pairs i < j.  m > 1289, past
    ``verify_orthonormal``'s exact range, is refused before any allocation."""
    m, layout = _blocks(m)
    _gram_scale(m)
    w = layout["b"].classes
    i = np.arange(1, w + 1)
    r = np.zeros((w + 1, 2 * w + 1), dtype=np.int64)
    d = np.zeros_like(r)
    r[0, : w + 1] = m * m  # v_0: 1/(m+1) on a and on every b
    r[1:, 0] = -1  # v_i: -1/(m^2 (m+1)) on a,
    r[i, i] = m * m  # 1/(m+1) on b_i,
    d[i, w + i] = 1  # and (1/m) sqrt(rho) on d_i
    dense = [layout[k] for k in "abd"]
    mult = np.repeat(np.array([b.mult for b in dense], dtype=np.int64), [b.classes for b in dense])
    pairs = 1 + np.stack(np.triu_indices(w, 1))
    for a in (r, d, mult, pairs):
        a.setflags(write=False)
    return ExactFrame(m=m, R=r, D=d, mult=mult, pairs=pairs)


def _gram_scale(m: int) -> int:
    """L = m^2 (m+1) for a checked m, refused where ``verify_orthonormal``'s
    int64 Gram check could overflow.

    A term R[k,x] mult[x] R[l,x] is at most m^6 (the a class of v_0), and by
    Cauchy-Schwarz each weighted sum is at most L^2 = m^4 (m+1)^2, the
    weighted square sum of v_0's R row; D's rows weigh (m+1)^2, so the
    scaled D sum stays below L^2 too.  2 L^2 < 2^63 up to m = 1289; larger m
    are refused, in O(1) memory, by ``build_frame`` before it allocates.
    """
    scale = m * m * (m + 1)
    if 2 * scale * scale >= 1 << 63:
        raise ValueError("the int64 Gram check is exact up to m = 1289, got m=%d" % m)
    return scale


def verify_orthonormal(f: ExactFrame) -> bool:
    """Exact check that the frame's Gram matrix is the identity.

    With L = m^2 (m+1) and W = diag(mult), the dense classes give

        R W R^T / L^2 + rho D W D^T / m^2 + (R W D^T + D W R^T) sqrt(rho) / (L m),

    and each c class, rational with entries -m on v_i and +m on v_j, adds
    m^2 (e_j - e_i)(e_j - e_i)^T / L^2: the Laplacian of the edges ``pairs``.
    rho is never the square of a rational for m >= 2, so the Gram matrix
    equals I exactly when the radical part vanishes and, scaled by L^2, the
    rational part R W R^T + m^2 Lap + (m-1) m^2 (m+1) D W D^T equals L^2 I.
    """
    m, r, d, k = _blocks(f.m)[0], f.R, f.D, f.rank
    scale = _gram_scale(m)
    rm = r * f.mult
    cross = rm @ d.T
    if np.any(cross + cross.T):
        return False
    gram = rm @ r.T + (m - 1) * m * m * (m + 1) * ((d * f.mult) @ d.T)
    i, j = f.pairs
    adjacency = np.bincount(i * k + j, minlength=k * k).reshape(k, k)
    degree = np.bincount(f.pairs.ravel(), minlength=k)
    gram += m * m * (np.diag(degree) - adjacency - adjacency.T)
    return bool(np.array_equal(gram, scale * scale * np.eye(k, dtype=np.int64)))


# One coordinate per block; the diagonal of p is constant on each block.
BLOCK_REPRESENTATIVES = {
    "a": BasisIndex.a(1),
    "b": BasisIndex.b(1),
    "c": BasisIndex.c(1, 2),
    "d": BasisIndex.d(1, 1),
}


def _diagonal(m: int) -> dict[str, int]:
    # The module docstring's table: the diagonal of p on each block as an
    # integer numerator over L^2 = (m^2 (m+1))^2, for a checked m.
    return {"a": m**4 + 2 * m + 1, "b": 2 * m**4, "c": 2 * m * m, "d": (m - 1) * m * m * (m + 1)}


def row_norm_sq(m: int, index: BasisIndex) -> Fraction:
    """Exact squared row norm ||p(e_x)||^2 = sum_k <e_x, v_k>^2.

    This is the diagonal entry of p at the coordinate x; by construction it
    only depends on x through its block:

        a: 1/(m+1)^2 + (2m+1)/(m^4 (m+1)^2)
        b: 2/(m+1)^2
        c: 2/(m^2 (m+1)^2)
        d: (m-1)/(m^2 (m+1))

    x is checked against the layout, and its block's value read from the
    module docstring's table of numerators over L^2, so no column is built.
    """
    m, layout = _blocks(m)
    _check_coordinate(layout, index)
    return Fraction(_diagonal(m)[index.block], (m * m * (m + 1)) ** 2)


def delta_p_exact(m: int) -> Fraction:
    """Exact delta_p: the largest diagonal entry of p.

    The maximum of the module docstring's table of block values, which its
    three inequalities place on the b block: 2/(m+1)^2 for every m >= 2.
    """
    m = _blocks(m)[0]
    return Fraction(max(_diagonal(m).values()), (m * m * (m + 1)) ** 2)


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
        # Stored as tuples of Python ints, so no numpy scalar reaches psp_v0_coeffs.
        for name in ("eps", "eps_prime"):
            signs = tuple(_integer("profile entry", e, -1, 1) for e in getattr(self, name))
            if not all(signs):
                raise ValueError("profile entries must be +1 or -1")
            object.__setattr__(self, name, signs)

    @property
    def alpha(self) -> int:
        return sum(1 for e in self.eps if e == 1)

    @property
    def beta(self) -> int:
        return sum(1 for e in self.eps_prime if e == 1)

    def validate(self, m: int) -> tuple[int, dict[str, _Block]]:
        """The checked m and its layout, once the profile's lengths match it."""
        m, layout = _blocks(m)
        if (len(self.eps), len(self.eps_prime)) != (layout["a"].size, layout["b"].size):
            raise ValueError(
                "profile lengths (%d, %d) do not match m=%d"
                % (len(self.eps), len(self.eps_prime), m)
            )
        return m, layout


def psp_v0_coeffs(m: int, prof: SignProfile) -> tuple[Fraction, list[Fraction]]:
    """Coefficients of p s p (v_0) in the frame basis, exactly.

    Returns (c_0, [c_1, ..., c_{2m+1}]) with c_0 = (S+T)/(m+1)^2 and
    c_i = (-S/m^2 + eps'_i)/(m+1)^2, S and T the signed sums over the a and
    b blocks.
    """
    m = prof.validate(m)[0]
    s = sum(prof.eps)
    t = sum(prof.eps_prime)
    denom0 = (m + 1) ** 2
    c0 = Fraction(s + t, denom0)
    denom = m * m * denom0
    coeffs = [Fraction(-s + e * m * m, denom) for e in prof.eps_prime]
    return c0, coeffs


def _norm_sq_units(m2: int, w: int, alpha: int, beta: int) -> int:
    # ||psp(v_0)||^2 in units of 1/(m^4 (m+1)^4), from the a and b block
    # sizes m2 = m^2 and w = 2m+1; pure integer arithmetic, so exact.
    s = 2 * alpha - m2
    t = 2 * beta - w
    return m2 * m2 * (s + t) ** 2 + beta * (m2 - s) ** 2 + (w - beta) * (m2 + s) ** 2


def psp_v0_norm_sq(m: int, alpha: int, beta: int) -> Fraction:
    """Exact ||psp(v_0)||^2 for any symmetry with +1 counts (alpha, beta).

    The value is c_0^2 + sum_i c_i^2 where the c_i take just two values
    (eps'_i = +1 or -1); it depends on the profile only through the counts.
    """
    m, layout = _blocks(m)
    m2, w = layout["a"].size, layout["b"].size
    alpha, beta = _integer("alpha", alpha, 0, m2), _integer("beta", beta, 0, w)
    return Fraction(_norm_sq_units(m2, w, alpha, beta), m**4 * (m + 1) ** 4)


def branch_lower_bound(m: int, alpha: int) -> float:
    """Analytic lower bound on ||psp(v_0)|| as a function of alpha alone.

    Valid for m >= 6 under the normalization alpha <= m^2/2 (replace s by -s
    otherwise).  For alpha below m^2/4 the v_0 component of psp(v_0) is
    bounded below by (m^2-4m-2)/4 * delta_p; from m^2/4 on, the component in
    span(v_1..v_{2m+1}) is bounded below by sqrt(2m+1) * 2*alpha/(m^2(m+1)^2).
    Returns a float (the second branch is irrational); certificate
    comparisons never use it.  Each rational factor is rounded once from its
    exact value, so no m overflows a float or reads inf/inf.
    """
    m = _integer("m", m, ANALYTIC_MIN_M)
    alpha = _integer("alpha", alpha, 0, m * m // 2)
    if 4 * alpha < m * m:
        return float(Fraction(m * m - 4 * m - 2, 2 * (m + 1) ** 2))
    return _root_w_times(m, float(Fraction(2 * alpha, m * m * (m + 1) ** 2)))


def _root_w_times(m: int, x: float) -> float:
    # sqrt(2m+1) * x, the analytic bound's span(v_1..v_{2m+1}) arm; x is 0.0
    # only past m ~ 1e162, before sqrt(2m+1) could overflow
    return math.sqrt(2 * m + 1) * x if x else 0.0


def rational_to_str(x: Fraction) -> str:
    """Serialize a rational as "numerator/denominator", slash always present."""
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the closed-form (alpha, beta) lattice minimum for one m.

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
    """Least (units, alpha, beta) over the lattice [0, m^2] x [0, 2m+1]: the
    cell (floor(m^2/2), m + m mod 2) that the module docstring proves is the
    value-then-lex minimum, and its value."""
    alpha, beta = m * m // 2, m + m % 2
    return _norm_sq_units(m * m, 2 * m + 1, alpha, beta), alpha, beta


def min_over_symmetries_v0(m: int) -> CertificateReport:
    """Exact minimum of ||psp(v_0)||^2 over every diagonal symmetry.

    A certificate over all 2^n symmetries, since the norm depends on s only
    through the counts (alpha, beta) and the c/d signs are irrelevant; the
    lattice minimum over (alpha, beta) is the closed-form cell proved in the
    module docstring, so each m costs O(1) lattice work.  Ties resolve to
    the lexicographically smallest (alpha, beta).
    """
    m = _integer("m", m, MIN_M)  # not _blocks: no layout is read, and one costs ~4 us
    units, alpha, beta = _lattice_min(m)
    num = max(_diagonal(m).values())  # delta_p over L^2 = (m^2 (m+1))^2
    delta = Fraction(num, (m * m * (m + 1)) ** 2)
    # min_norm_sq = units / (m^4 (m+1)^4) > (2 delta_p)^2 = 4 num^2 / (m^8 (m+1)^4),
    # both sides times m^8 (m+1)^4: integers decide the verdict
    verdict = FALSIFIES_A if units * m**4 > 4 * num * num else INCONCLUSIVE
    return CertificateReport(
        m=m,
        delta_p=delta,
        two_delta_p=2 * delta,
        min_norm_sq=Fraction(units, m**4 * (m + 1) ** 4),
        argmin=(alpha, beta),
        # the alpha-independent form of the analytic bound, (delta_p/4) *
        # min(m^2 - 4m - 2, sqrt(2m+1)), which is (delta_p/4) * sqrt(2m+1) for m >= 6
        branch_bound=_root_w_times(m, float(delta) / 4.0) if m >= ANALYTIC_MIN_M else None,
        verdict=verdict,
    )


# -- bridges to the floating-point side ----------------------------------------

# The most entries float_frame writes: 2^25 floats (256 MB), m <= 52.
_MAX_FLOAT_FRAME_ENTRIES = 1 << 25


def float_frame(m: int) -> OrthonormalFrame:
    """``build_frame(m)`` rounded to floats, as a dense (2m+2) x dim frame in
    the canonical coordinate order.

    A rational entry is R / L, the correctly rounded quotient of two exactly
    represented integers; every d entry is the float (1/m) * sqrt(rho).
    After ``build_frame``'s own refusal, a frame of more than 2^25 floats
    (256 MB, m > 52) is refused before any array is allocated.
    """
    m, layout = _blocks(m)
    scale = _gram_scale(m)  # build_frame's own refusal comes first
    entries = (2 * m + 2) * sum(b.size for b in layout.values())
    if entries > _MAX_FLOAT_FRAME_ENTRIES:
        raise ValueError("float_frame writes at most %d floats (m <= 52), got m=%d with %d"
                         % (_MAX_FLOAT_FRAME_ENTRIES, m, entries))
    f = build_frame(m)
    edges = np.arange(f.pairs.shape[1])
    split = 2 * m + 2  # the a class and the b classes come before c
    # each c edge as a column, -m on row i and +m on row j
    c = np.zeros((f.rank, edges.size), dtype=np.int64)
    c[f.pairs[0], edges] = -m
    c[f.pairs[1], edges] = m
    radical = (1.0 / m) * math.sqrt((m - 1) / (m + 1))
    dense = f.R / scale + f.D * radical
    columns = np.concatenate([dense[:, :split], c / scale, dense[:, split:]], axis=1)
    mult = np.concatenate([f.mult[:split], np.ones(edges.size, dtype=np.int64), f.mult[split:]])
    return OrthonormalFrame(np.repeat(columns, mult, axis=1))


def float_projection(m: int) -> Projection:
    """The construction as a floating-point Projection."""
    return Projection(float_frame(m))


def profile_symmetry(m: int, prof: SignProfile, cd_signs=None) -> Symmetry:
    """Extend a SignProfile to a full diagonal symmetry.

    ``cd_signs`` fills the c and d blocks (defaults to all +1; psp(v_0) does
    not depend on it).
    """
    layout = prof.validate(m)[1]
    tail = layout["c"].size + layout["d"].size
    # Symmetry's own rule decides the signs: a float cast here would pass
    # True and '1' as +1, and an integer cast 1.9.
    cd = np.ones(tail) if cd_signs is None else Symmetry(cd_signs).signs
    if cd.shape != (tail,):
        raise ValueError("cd_signs must have length %d" % tail)
    return Symmetry(np.concatenate([prof.eps, prof.eps_prime, cd]))
