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

:func:`metric_eval`, :func:`u_tensor_closed`, :func:`u_tensor_solved` and
:func:`nomizu` take two (P, n, n) stacks of elements of m and work pair by
pair (X_p, Y_p); an argument outside m raises ValueError.
:func:`u_coords_tensor` gives U on all basis pairs in block coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .liealg import Subspace, bracket_coords, bracket_row_chunks, brackets, lie_mats, lie_rows
from .phispace import PhiSpace, flag_complement_pattern
from .tolerances import TAU_CYCLIC, TAU_ORTH, TAU_SUBSPACE


@dataclass(frozen=True, eq=False)
class TripleSplit:
    """The block decomposition m = m1 (+) m2 (+) m3 with precomputed brackets.

    ``combined`` carries the block-adapted orthonormal basis (m1 rows first,
    then m2, then m3); ``block_index`` maps each basis vector to its block
    (1, 2 or 3); ``bracket_m`` is the (d, d, d) tensor of the m-projections of
    basis brackets, bracket_m[i, j] = coords of [X_i, X_j]_m.
    """

    m1: Subspace
    m2: Subspace
    m3: Subspace
    combined: Subspace
    block_index: np.ndarray
    bracket_m: np.ndarray

    @property
    def dim(self) -> int:
        return self.combined.dim

    @cached_property
    def bracket_nonzeros(self) -> tuple[np.ndarray, ...]:
        """bracket_m's nonzeros as arrays (i, j, r, value), with the U channel
        of (i, j) (its mask in u_channel_masks plus 1, or 0 off every mask)
        and its mask sign."""
        i, j, r = np.nonzero(self.bracket_m)
        masks = u_channel_masks(self)[:, i, j]
        return i, j, r, self.bracket_m[i, j, r], np.arange(1, 4) @ (masks != 0.0), masks.sum(axis=0)


@dataclass(frozen=True)
class MetricParams:
    """Characteristic numbers (s, t) plus the overall normalization kappa, all
    positive and finite; so must be 1/s, 1/t, s + t, kappa s, kappa t, t/s,
    s/t and s + t + 1/s + 1/t, of which the metric weights, the U coefficients
    and the residual scale are built."""

    s: float
    t: float
    kappa: float = 1.0

    def __post_init__(self):
        for name in ("s", "t", "kappa"):
            v = getattr(self, name)
            if not (v > 0.0) or not math.isfinite(v):
                raise ValueError(f"{name} must be a positive finite number, got {v}")
        s, t, kappa = float(self.s), float(self.t), float(self.kappa)
        derived = (1 / s, 1 / t, s + t, kappa * s, kappa * t, t / s, s / t, s + t + 1 / s + 1 / t)
        if not all(map(math.isfinite, derived)):  # a residual would read 0 or NaN instead of a verdict
            names = ("1/s", "1/t", "s + t", "kappa*s", "kappa*t", "t/s", "s/t", "s + t + 1/s + 1/t")
            bad = next(name for name, v in zip(names, derived) if not math.isfinite(v))
            raise ValueError(f"(s, t) = ({s!r}, {t!r}) with kappa = {kappa!r} overflows {bad}")

    @staticmethod
    def for_space(ps: PhiSpace, s: float, t: float, kappa: float | None = None) -> "MetricParams":
        """Default kappa = n - 1; class memberships do not depend on it."""
        return MetricParams(s=s, t=t, kappa=float(ps.spec.n - 1) if kappa is None else kappa)


def build_split(ps: PhiSpace) -> TripleSplit:
    """Read off the three blocks of m for a single-rotation-block flag space.

    Raises ValueError if the space does not have the m_blocks = 1 pattern.
    All structural invariants (dimensions, exact pairwise orthogonality,
    ad(h)-invariance of each block, and the cyclic bracket relations
    [m_i, m_{i+1}] in m_{i+2}) are verified before returning.
    """
    if ps.spec.m_blocks != 1:
        raise ValueError(
            f"splitting requires the m_blocks=1 flag space, got m_blocks={ps.spec.m_blocks}"
        )
    n = ps.spec.n
    pattern = flag_complement_pattern(n)
    if pattern.dim != ps.m.dim or not np.max(ps.m.residuals(pattern.coords)) < TAU_SUBSPACE:
        raise ValueError("complement does not match the flag block pattern")

    d1, d2, d3 = 2, 2 * (n - 3), n - 3
    combined = pattern
    m1 = Subspace(n, pattern.coords[:d1])
    m2 = Subspace(n, pattern.coords[d1 : d1 + d2])
    m3 = Subspace(n, pattern.coords[d1 + d2 :])
    block_index = np.concatenate([np.full(d1, 1), np.full(d2, 2), np.full(d3, 3)])

    bm = bracket_coords(combined, combined, onto=combined)
    split = TripleSplit(
        m1=m1, m2=m2, m3=m3, combined=combined, block_index=block_index, bracket_m=bm
    )
    _check_split_invariants(ps, split)
    return split


def _check_split_invariants(ps: PhiSpace, split: TripleSplit) -> None:
    n = ps.spec.n
    dims = (split.m1.dim, split.m2.dim, split.m3.dim)
    if dims != (2, 2 * (n - 3), n - 3):
        raise RuntimeError(f"unexpected block dimensions {dims}")
    # Pairwise trace-form orthogonality is exact: supports are disjoint.
    for a, b in ((split.m1, split.m2), (split.m1, split.m3), (split.m2, split.m3)):
        if a.dim and b.dim and np.max(np.abs(a.coords @ b.coords.T)) > TAU_ORTH:
            raise RuntimeError("blocks are not orthogonal")
    # Each block is ad(h)-invariant: [h_a, x] stays in the block of x (absolute leak).
    blocks = (split.m1, split.m2, split.m3)
    owner = np.repeat(np.arange(3), [blk.dim for blk in blocks])
    for _, b, rows in bracket_row_chunks(n, ps.h.coords, np.vstack([blk.coords for blk in blocks])):
        for t, blk in enumerate(blocks):
            if np.max(blk.residuals(rows[owner[b] == t]), initial=0.0) > TAU_SUBSPACE:
                raise RuntimeError("block is not ad(h)-invariant")
    # Cyclic relations: cross-block brackets land in the third block (6 minus
    # the other two), and same-block brackets leave m entirely (they fall into h).
    i, j, r, v = split.bracket_nonzeros[:4]
    bi = split.block_index
    same = bi[i] == bi[j]
    if np.max(np.abs(v[same]), initial=0.0) > TAU_CYCLIC:
        raise RuntimeError("same-block bracket has a component in m")
    if np.max(np.abs(v[~same & (bi[r] != 6 - bi[i] - bi[j])]), initial=0.0) > TAU_CYCLIC:
        raise RuntimeError("bracket relation [m_i, m_{i+1}] in m_{i+2} fails")


def block_weights(split: TripleSplit, params: MetricParams) -> np.ndarray:
    """Diagonal of the metric Gram matrix in the block basis: kappa*(1, s, t)."""
    bi = split.block_index
    w = np.where(bi == 1, 1.0, np.where(bi == 2, params.s, params.t))
    return params.kappa * w


def _m_rows(split: TripleSplit, *stacks: np.ndarray) -> list[np.ndarray]:
    """Lex coordinates of (P, n, n) stacks; ValueError if any element is not in m."""
    out = [lie_rows(mats) for mats in stacks]
    r = np.concatenate([split.combined.relative_residuals(rows) for rows in out])
    if np.any(r > TAU_SUBSPACE):
        raise ValueError(f"argument is not in the complement m (residual {np.nanmax(r):.3e})")
    return out


def metric_eval(split: TripleSplit, params: MetricParams, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """g(X_p, Y_p) = kappa (<X1,Y1> + s <X2,Y2> + t <X3,Y3>), <,> = Tr(X^T Y),
    for each pair of two (P, n, n) stacks of elements of m: shape (P,)."""
    xv, yv = (rows @ split.combined.coords.T for rows in _m_rows(split, xs, ys))
    return np.sum(block_weights(split, params) * xv * yv, axis=1)


def u_tensor_closed(split: TripleSplit, params: MetricParams, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Closed-form U(X_p, Y_p) for two (P, n, n) stacks of elements of m, as a
    (P, n, n) stack; symmetric in (X, Y) and valued in m."""
    xr, yr = _m_rows(split, xs, ys)
    s, t = params.s, params.t
    x1, x2, x3 = (blk.project_rows(xr) for blk in (split.m1, split.m2, split.m3))
    y1, y2, y3 = (blk.project_rows(yr) for blk in (split.m1, split.m2, split.m3))
    out = 0.5 * (t - s) * (brackets(x2, y3) + brackets(y2, x3))
    out = out + ((t - 1.0) / (2.0 * s)) * (brackets(x1, y3) + brackets(y1, x3))
    return out + ((s - 1.0) / (2.0 * t)) * (brackets(x1, y2) + brackets(y1, x2))


def u_tensor_solved(split: TripleSplit, params: MetricParams, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """U(X_p, Y_p) recovered from 2 g(U, Z) = g(X,[Z,Y]_m) + g([Z,X]_m, Y), on stacks.

    The block basis diagonalizes g, so the solve is a componentwise rescale.
    This is the independent oracle for :func:`u_tensor_closed`.
    """
    c = split.combined
    xv, yv = (rows @ c.coords.T for rows in _m_rows(split, xs, ys))
    gd = block_weights(split, params)
    bm = split.bracket_m
    rhs = np.einsum("zjr,pj,pr->pz", bm, yv, gd * xv) + np.einsum("zir,pi,pr->pz", bm, xv, gd * yv)
    return lie_mats(c.ambient_n, (rhs / (2.0 * gd)) @ c.coords)


def u_coords_tensor(split: TripleSplit, params: MetricParams, mode: str = "closed") -> np.ndarray:
    """U on all basis pairs as a (d, d, d) coordinate tensor.

    mode "closed" scales the bracket tensor by the block-pair coefficients of
    the closed form; mode "solved" runs the metric-equation solve.  The two
    agree to rounding for all valid parameters.
    """
    bm = split.bracket_m
    if mode == "closed":
        return np.tensordot(u_channel_coefficients(params), u_channel_masks(split), axes=1)[:, :, None] * bm
    if mode == "solved":
        gd = block_weights(split, params)
        term1 = gd[:, None, None] * bm.transpose(2, 1, 0)
        term2 = gd[None, :, None] * bm.transpose(1, 2, 0)
        return (term1 + term2) / (2.0 * gd[None, None, :])
    raise ValueError(f"unknown U mode {mode!r}")


def u_channel_coefficients(params: MetricParams) -> np.ndarray:
    """Closed-form coefficients of the U channels [m2, m3], [m1, m3], [m1, m2]."""
    s, t = params.s, params.t
    return np.array([0.5 * (t - s), (t - 1.0) / (2.0 * s), (s - 1.0) / (2.0 * t)])


def u_channel_masks(split: TripleSplit) -> np.ndarray:
    """Signed block-pair masks m_k: U(X_i, X_j) = sum_k c_k m_k[i, j] [X_i, X_j]."""
    bi = split.block_index
    masks = np.zeros((3, split.dim, split.dim))
    for mask, (a, b) in zip(masks, ((2, 3), (1, 3), (1, 2))):
        mask[np.ix_(bi == a, bi == b)] = 1.0
        mask[np.ix_(bi == b, bi == a)] = -1.0
    return masks


def nomizu(split: TripleSplit, params: MetricParams, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Connection bilinear map alpha(X, Y) = (1/2)[X, Y]_m + U(X, Y), U closed-form,
    for two (P, n, n) stacks of elements of m: a (P, n, n) stack."""
    return 0.5 * split.combined.project_rows(lie_rows(brackets(xs, ys))) + u_tensor_closed(split, params, xs, ys)


def connection_compat_residual(split: TripleSplit, params: MetricParams, xyz) -> float:
    """max |g(alpha(Z, X), Y) + g(X, alpha(Z, Y))| / kappa over triples (X, Y, Z) given as
    (P, 3, d) block coordinates: 0 for a metric connection.  Every alpha value must lie in m."""
    c = split.combined
    x, y, z = (lie_mats(c.ambient_n, np.asarray(xyz, dtype=float)[:, i] @ c.coords) for i in range(3))
    val = metric_eval(split, params, nomizu(split, params, z, x), y)
    val += metric_eval(split, params, x, nomizu(split, params, z, y))
    return float(np.max(np.abs(val) / params.kappa, initial=0.0))


def naturally_reductive_residual(split: TripleSplit, params: MetricParams) -> float:
    """Max violation of g([X,Y]_m, Z) = g(X, [Y,Z]_m) over basis triples,
    normalized by kappa."""
    gd = block_weights(split, params)
    bm = split.bracket_m
    lhs = bm * gd[None, None, :]
    rhs = np.einsum("i,jki->ijk", gd, bm)
    return float(np.max(np.abs(lhs - rhs)) / params.kappa)
