"""Invariant metrics and the connection data on SO(n)/SO(2)xSO(n-3).

The complement m splits into three blocks that no invariant metric mixes:

    m1 <-> entries (0,1), (0,2)          dim 2
    m2 <-> entries (1,j), (2,j), j >= 3  dim 2(n-3)
    m3 <-> entries (0,j), j >= 3         dim n-3

and every invariant Riemannian metric is, up to a positive factor kappa,

    g = g0|m1 + s g0|m2 + t g0|m3,   g0 = kappa Tr(X^T Y),   s, t > 0.

The symmetric part U of the connection comes either from the closed form

    U(X,Y) = (t-s)/2 ([X2,Y3] + [Y2,X3])
           + (t-1)/(2s) ([X1,Y3] + [Y1,X3])
           + (s-1)/(2t) ([X1,Y2] + [Y1,X2])

or, independently, by solving 2 g(U(X,Y), Z) = g(X,[Z,Y]_m) + g([Z,X]_m, Y)
for U in the block basis (the Gram matrix is diagonal there).  Agreement of
the two routes is one of the package's standing cross-checks.

Everything here works on the block basis of m.  :func:`u_nonzeros` gives U
on all basis pairs, by either route, as sorted keys into the (d, d, d)
tensor and their values; its solved mode is the one solved route.  Like
:func:`naturally_reductive_residual`, the split checks and the class set-up,
it reads the bracket tensor B of m off its nonzeros
(``TripleSplit.bracket_nonzeros``), and :func:`u_channels` gives the
closed-form channel of each basis pair.  The connection alpha = (1/2) B + U
has the keys of B, and :func:`connection_compat_residual` checks it on every
basis triple from them.  Nothing here takes a stack of matrices or scatters
nonzeros into a d^3 array; the ad(h)-invariance of the blocks is read off
the space's [h, m] table with the block label of each row of m
(:func:`phispace.ad_h_leak`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .liealg import Subspace, bracket_coords, nonzero_rows, sum_by_key
from .phispace import PhiSpace, ad_h_leak, flag_complement_pattern
from .tolerances import TAU_CYCLIC, TAU_SUBSPACE


@dataclass(frozen=True, eq=False)
class TripleSplit:
    """The block decomposition m = m1 (+) m2 (+) m3 with precomputed brackets.

    ``combined`` carries the block-adapted orthonormal basis (m1 rows first,
    then m2, then m3), m's own rows, and ``block_index`` maps each basis
    vector to its block (1, 2 or 3): a block is the span of the rows with
    its label, and no other form of it is kept.  ``bracket_nonzeros`` is the
    bracket tensor of m, the only form it is kept in: arrays (i, j, r,
    value), sorted by (i, j, r), of the nonzero coefficients r of
    [X_i, X_j]_m (252 of 65^3 at n = 24).
    ``complex_structure`` is J1 (+) J2 (+) 0 over ``combined``, theta acting
    on m1 and m2 as cos + sin J for one angle: a signed permutation, which
    sends each basis vector of m1 and m2 to +-1 times its partner
    (:func:`canonical.sign_pair_matrices`) and m3 to 0.  ``row_tables``
    holds the one nonzero of each row of I, J, J^2, J^T and (J^2)^T
    (:func:`liealg.nonzero_rows`) as a (5, d) column table and a (5, d)
    sign table (0 for a zero row): the class engine scales them by each
    structure's signs.  A J with two nonzeros in a row or a column (a row
    of J^T) is refused with ValueError.
    """

    combined: Subspace
    block_index: np.ndarray
    bracket_nonzeros: tuple[np.ndarray, ...]
    complex_structure: np.ndarray
    row_tables: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        j = self.complex_structure
        jj = j @ j
        col, sign = nonzero_rows(np.eye(len(j)), j, jj, j.T, jj.T)
        if col.shape[-1] > 1:
            m, row = np.argwhere(sign[..., 1] != 0.0)[0].tolist()
            name = ("I", "J", "J^2", "J^T", "(J^2)^T")[m]
            raise ValueError(f"J is not a signed permutation: row {row} of {name} has two nonzeros or more")
        object.__setattr__(self, "row_tables", (col[..., 0], sign[..., 0]))

    @property
    def dim(self) -> int:
        return self.combined.dim


_DERIVED = ("1/s", "1/t", "s + t", "kappa*s", "kappa*t", "t/s", "s/t", "s + t + 1/s + 1/t")


def _derived(s, t, kappa) -> tuple:
    """The quantities _DERIVED of a point, of which the metric weights, the U
    coefficients and the residual scale are built; each must be finite, or a
    residual would read 0 or NaN instead of a verdict."""
    return (1 / s, 1 / t, s + t, kappa * s, kappa * t, t / s, s / t, s + t + 1 / s + 1 / t)


@dataclass(frozen=True)
class MetricParams:
    """Characteristic numbers (s, t) plus the overall normalization kappa, all
    positive and finite; so must be every quantity of :func:`_derived`.  They
    may be given as any real numbers, and are kept as floats."""

    s: float
    t: float
    kappa: float = 1.0

    def __post_init__(self):
        for name in ("s", "t", "kappa"):
            v = getattr(self, name)
            if not (v > 0.0) or not math.isfinite(v):
                raise ValueError(f"{name} must be a positive finite number, got {v}")
            object.__setattr__(self, name, float(v))
        derived = _derived(self.s, self.t, self.kappa)
        if not all(map(math.isfinite, derived)):
            bad = next(name for name, v in zip(_DERIVED, derived) if not math.isfinite(v))
            raise ValueError(f"(s, t) = ({self.s!r}, {self.t!r}) with kappa = {self.kappa!r} overflows {bad}")

    @staticmethod
    def for_space(ps: PhiSpace, s: float, t: float, kappa: float | None = None) -> "MetricParams":
        """Default kappa = n - 1; class memberships do not depend on it."""
        return MetricParams(s=s, t=t, kappa=float(ps.spec.n - 1) if kappa is None else kappa)


@dataclass(frozen=True, eq=False)
class MetricGrid:
    """Points (s, t) at one kappa as two float arrays, in point order.

    Construction checks every point once, as arrays, with the predicates of
    MetricParams, and raises as MetricParams does at the first point it
    refuses; kappa is checked with the points and kept as a float.  A grid
    can then be swept by any number of evaluators without a check per point
    and per evaluator.  The metric functions of this module and the class
    evaluator take either: a MetricParams gives one point's result, a
    MetricGrid the same bits with the points on the last axis.
    """

    s: np.ndarray
    t: np.ndarray
    kappa: float = 1.0

    def __post_init__(self):
        s, t, kappa = self.s, self.t, float(self.kappa)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            derived = _derived(s, t, kappa)
            ok = (s > 0.0) & (t > 0.0) & np.isfinite([s, t, *derived]).all(axis=0) & (0.0 < kappa < math.inf)
        if not ok.all():
            p = int(np.argmin(ok))
            MetricParams(float(s[p]), float(t[p]), self.kappa)
        object.__setattr__(self, "kappa", kappa)

    @staticmethod
    def of(points, kappa: float = 1.0) -> "MetricGrid":
        """The grid of a sequence of (s, t) points.  Plain numbers are checked
        as two float arrays; any other coordinate or kappa (a string, a
        Fraction) goes to MetricParams point by point first."""
        points = list(points)
        st, k = np.array(points), np.array(kappa)
        if not (st.dtype.kind in "biuf" and st.shape == (len(points), 2) and k.dtype.kind in "biuf" and k.ndim == 0):
            for s_, t_ in points:
                MetricParams(s_, t_, kappa)
        s, t = np.ascontiguousarray(np.array(points, dtype=float).reshape(-1, 2).T)
        return MetricGrid(s, t, kappa)


def _per_point(x: np.ndarray, params: MetricParams | MetricGrid) -> np.ndarray:
    """x with an axis of length 1 appended for the points of a grid, so that
    it broadcasts against per-point columns; x itself at one point."""
    return x[(..., *[None] * np.ndim(params.s))]


def build_split(ps: PhiSpace) -> TripleSplit:
    """Read off the three blocks of m for a single-rotation-block flag space.

    Raises ValueError if the space does not have the m_blocks = 1 pattern,
    or if m's rows are not the pattern's rows: the split's basis is m's
    basis, so every operator on m is already over it, and the blocks are
    its rows labelled 1, 2, 3.  All structural invariants (the block
    dimensions, ad(h)-invariance of each block, and the cyclic bracket
    relations [m_i, m_{i+1}] in m_{i+2}) are verified before returning.
    """
    if ps.spec.m_blocks != 1:
        raise ValueError(
            f"splitting requires the m_blocks=1 flag space, got m_blocks={ps.spec.m_blocks}"
        )
    n = ps.spec.n
    pattern = flag_complement_pattern(n)
    if not all(map(np.array_equal, ps.m.entries, pattern.entries)):
        raise ValueError("complement does not match the flag block pattern")

    split = TripleSplit(
        combined=pattern,
        block_index=np.repeat([1, 2, 3], [2, 2 * (n - 3), n - 3]),
        bracket_nonzeros=bracket_coords(pattern, pattern, onto=pattern),
        complex_structure=_complex_structure(ps),
    )
    _check_split_invariants(ps, split)
    return split


def _complex_structure(ps: PhiSpace) -> np.ndarray:
    """J1 (+) J2 (+) 0 over the flag basis, a signed permutation.  theta
    turns each pair (X, JX) of m1 and m2 by an angle 2 pi l / k, 0 < l < k/2,
    up to sign, so J sends each row (0,1), (0,2), (1,j), (2,j) to its partner
    (0,2), (0,1), (2,j), (1,j) with the sign of theta - theta^T there, the
    orientation theta turns by, and m3's rows (0,j), the angle pi, to 0."""
    row, n = np.arange(2 * ps.spec.n - 4), ps.spec.n  # the rows of m1 and m2, in the pattern's order
    partner = np.concatenate([[1, 0], row[n - 1 :], row[2 : n - 1]])
    j = np.zeros_like(ps.theta)
    j[row, partner] = np.sign(ps.theta[row, partner] - ps.theta[partner, row])
    return j


def _check_split_invariants(ps: PhiSpace, split: TripleSplit) -> None:
    n = ps.spec.n
    dims = tuple(np.bincount(split.block_index, minlength=4).tolist())
    if dims != (0, 2, 2 * (n - 3), n - 3):
        raise RuntimeError(f"unexpected block dimensions {dims[1:]}")
    # Each block is ad(h)-invariant: [h_a, m_b] stays in the block of m_b.
    if ad_h_leak(ps, split.block_index) > TAU_SUBSPACE:
        raise RuntimeError("block is not ad(h)-invariant")
    # Cyclic relations: cross-block brackets land in the third block (6 minus
    # the other two), and same-block brackets leave m entirely (they fall into h).
    i, j, r, v = split.bracket_nonzeros
    bi = split.block_index
    same = bi[i] == bi[j]
    if np.max(np.abs(v[same]), initial=0.0) > TAU_CYCLIC:
        raise RuntimeError("same-block bracket has a component in m")
    if np.max(np.abs(v[~same & (bi[r] != 6 - bi[i] - bi[j])]), initial=0.0) > TAU_CYCLIC:
        raise RuntimeError("bracket relation [m_i, m_{i+1}] in m_{i+2} fails")


def block_weights(split: TripleSplit, params: MetricParams | MetricGrid) -> np.ndarray:
    """Diagonal of the metric Gram matrix in the block basis, kappa*(1, s, t):
    (d,) at one point, (d, P) with a column per point of a grid."""
    bi = _per_point(split.block_index, params)
    w = np.where(bi == 1, 1.0, np.where(bi == 2, params.s, params.t))
    return params.kappa * w


def u_nonzeros(
    split: TripleSplit, params: MetricParams | MetricGrid, mode: str = "closed"
) -> tuple[np.ndarray, np.ndarray]:
    """U on all basis pairs, read off the nonzeros of the bracket tensor, as
    sorted flat keys (a d + b) d + z into the (d, d, d) coordinate tensor
    U[a, b, z] and their values, (K,) at one point and (K, P) on a grid.

    mode "closed" scales each nonzero by the closed-form coefficient of its
    block pair; mode "solved" runs the metric-equation solve
    U[a, b, z] = (g_a B[z, b, a] + g_b B[b, z, a]) / (2 g_z), B the bracket
    tensor.  The two agree to rounding for all valid parameters.
    """
    d = split.dim
    i, j, r, v = split.bracket_nonzeros
    v = _per_point(v, params)
    if mode == "closed":
        channel, sign = u_channels(split, i, j)
        c = u_channel_coefficients(params)
        coef = np.concatenate((np.zeros((1, *c.shape[1:])), c))[channel] * _per_point(sign, params)
        return (i * d + j) * d + r, coef * v
    if mode == "solved":
        gd = block_weights(split, params)
        # Each nonzero B[i, j, r] feeds U[r, j, i] (weight g_r) and U[r, i, j] (weight g_i).
        keys = np.concatenate([(r * d + j) * d + i, (r * d + i) * d + j])
        keys, val = sum_by_key(keys, np.concatenate([gd[r] * v, gd[i] * v]))
        return keys, val / (2.0 * gd[keys % d])
    raise ValueError(f"unknown U mode {mode!r}")


def u_channel_coefficients(params: MetricParams | MetricGrid) -> np.ndarray:
    """Closed-form coefficients of the U channels [m2, m3], [m1, m3], [m1, m2]:
    (3,) at one point, (3, P) with a column per point of a grid."""
    s, t = params.s, params.t
    return np.array([0.5 * (t - s), (t - 1.0) / (2.0 * s), (s - 1.0) / (2.0 * t)])


def u_channels(split: TripleSplit, i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The U channel of each basis pair (X_i, X_j) and its sign, so that
    U(X_i, X_j) = sign c[channel - 1] [X_i, X_j] with c = u_channel_coefficients.
    With b the block index, the channel is 6 - b_i - b_j (1: [m2, m3],
    2: [m1, m3], 3: [m1, m2]) and the sign is sign(b_j - b_i); inside one
    block both are 0."""
    bi, bj = split.block_index[i], split.block_index[j]
    return np.where(bi == bj, 0, 6 - bi - bj), np.sign(bj - bi).astype(float)


def connection_compat_residual(split: TripleSplit, params: MetricParams) -> float:
    """Max |g(alpha(Z, X), Y) + g(X, alpha(Z, Y))| over basis triples (Z, X, Y),
    normalized by kappa: 0 for a metric connection (:func:`_compat_form`)."""
    return float(np.max(np.abs(_compat_form(split, params)[1]), initial=0.0) / params.kappa)


def _compat_form(split: TripleSplit, params: MetricParams) -> tuple[np.ndarray, np.ndarray]:
    """g(alpha(X_c, X_a), X_b) + g(X_a, alpha(X_c, X_b)) on every basis triple,
    as sorted keys (c d + a) d + b and their sums, read off the nonzeros of
    alpha = (1/2) B + U, U closed-form (the keys of both are those of B)."""
    d = split.dim
    i, j, r, v = split.bracket_nonzeros
    gr = block_weights(split, params)[r] * (0.5 * v + u_nonzeros(split, params, "closed")[1])
    # alpha[i, j, r] g_r is the first term at (c, a, b) = (i, j, r) and the second at (i, r, j).
    return sum_by_key(np.concatenate([(i * d + j) * d + r, (i * d + r) * d + j]), np.concatenate([gr, gr]))


def naturally_reductive_residual(split: TripleSplit, params: MetricParams | MetricGrid) -> float | np.ndarray:
    """Max violation of g([X,Y]_m, Z) = g(X, [Y,Z]_m) over basis triples,
    normalized by kappa: a float at one point, a (P,) array on a grid."""
    d = split.dim
    gd = block_weights(split, params)
    i, j, r, v = split.bracket_nonzeros
    v = _per_point(v, params)
    # B[i, j, r] g_r is the left side at (i, j, r) and the right side at (r, i, j).
    keys = np.concatenate([(i * d + j) * d + r, (r * d + i) * d + j])
    _, diff = sum_by_key(keys, np.concatenate([v * gd[r], -(gd[r] * v)]))
    residual = np.max(np.abs(diff), axis=0, initial=0.0) / params.kappa
    return residual if residual.ndim else float(residual)
