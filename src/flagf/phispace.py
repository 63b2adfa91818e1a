"""Finite-order inner automorphisms of SO(n) and the induced tangent setup.

An automorphism is conjugation by an orthogonal block matrix

    B = diag{1, eps_1, ..., eps_m, -1, ..., -1},

where eps_t is the 2x2 rotation by 2*pi*t/k.  The induced map phi = Ad(B) on
so(n) has fixed-point subalgebra h = ker(phi - id) and canonical complement
m = im(phi - id); theta is phi restricted to m.

All of them are read off B's blocks, the connected index sets of its
support.  B X B^T maps the lex basis vector of (i, j) into the span of those
of (i', j') with i' in the block of i and j' in the block of j, so phi is
block-diagonal on the lex basis, one block per pair of B's blocks
(:func:`phi_blocks`; of size 1, 2 or 4 for the B above, one block of size
dim so(n) for a dense B).  h and m come block by block from phi - id: a zero
block gives h its lex vectors, a nonsingular one gives them to m, and only a
block that is neither takes an SVD, of its own matrix.  theta is gathered
from the nonzeros of phi into a plain matrix over m's basis, the one basis
every operator on m is held in (the flag basis at m_blocks = 1), and read on
its own blocks (:attr:`PhiSpace.theta_blocks`).  The blocks are the only
form phi is kept in: :func:`check_regularity` reads its ranks off the
singular values of each block of phi - id and of its square, and verify's
three phi checks apply phi to lex rows block by block, once to the probe
pairs and once to their brackets (:func:`phi_residuals`).
Nothing forms a dense dim-so(n) matrix, except the one block of a
hand-built dense B.  The brackets [h, m] are joined once per space, into
:attr:`PhiSpace.h_m_table`; ad(h) on m, reductivity and the
ad(h)-invariance of the split's blocks (:func:`ad_h_leak`, given the block
of each row of m) are read off it.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from functools import cache, cached_property

import numpy as np

from .liealg import Subspace, _coefficients, bracket_coords, brackets, lex_indices, lie_mats, lie_rows, op_powers
from .liealg import operator_on, so_dim, sum_by_key
from .tolerances import TAU_B_ORTH, TAU_NONSINGULAR, TAU_ORDER, TAU_RANK_REL, TAU_SUBSPACE

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class AutomorphismSpec:
    """Conjugation data: the orthogonal matrix B and its intended order k."""

    n: int
    m_blocks: int
    k: int
    b: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        if b.shape != (self.n, self.n):
            raise ValueError(f"B must be {self.n}x{self.n}, got {b.shape}")
        if np.max(np.abs(b @ b.T - np.eye(self.n))) > TAU_B_ORTH:
            raise ValueError("B must be orthogonal")
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "b", b)

    @cached_property
    def phi_blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """:func:`phi_blocks` of B, computed once; the arrays are read-only."""
        blocks = phi_blocks(self.b)
        for arrays in blocks:
            for a in arrays:
                a.flags.writeable = False
        return blocks


@dataclass(frozen=True, eq=False)
class PhiSpace:
    """A reductive homogeneous setup on so(n) derived from an automorphism.

    Attributes
    ----------
    spec : AutomorphismSpec
    h : Subspace
        Fixed-point subalgebra ker(phi - id).
    m : Subspace
        Canonical complement im(phi - id).
    theta : np.ndarray
        Restriction of phi to m: its read-only (dim m, dim m) matrix over
        m's basis, column j the image of basis vector j.
    """

    spec: AutomorphismSpec
    h: Subspace
    m: Subspace
    theta: np.ndarray

    @cached_property
    def theta_blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """theta on the connected sets of its support, as ``spec.phi_blocks`` holds phi: read-only rows of m
        (count, b) and matrices (count, b, b), ascending in b (1, 2, 4 from :func:`build_automorphism`)."""
        blocks = [(r, self.theta[r[:, :, None], r[:, None, :]]) for r in _index_blocks(_support_labels(self.theta))]
        for rows, mats in blocks:
            rows.flags.writeable = mats.flags.writeable = False
        return blocks

    @cached_property
    def theta_block_powers(self) -> list[np.ndarray]:
        """theta^0..theta^(k - 1) of each block stack (:func:`op_powers`), read-only
        (k, count, b, b): every canonical structure is a polynomial of degree < k in theta."""
        powers = [op_powers(mats, self.spec.k) for _, mats in self.theta_blocks]
        for p in powers:
            p.flags.writeable = False
        return powers

    @cached_property
    def theta_order_residual(self) -> float:
        """max |theta @ theta^(k - 1) - id| on the blocks: the theta-order residual build_phi_space raises on."""
        blocks = zip(self.theta_blocks, self.theta_block_powers)
        return float(max((np.abs(mats @ p[-1] - np.eye(p.shape[-1])).max() for (_, mats), p in blocks), default=0.0))

    @cached_property
    def h_m_table(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """[h, m] joined once: the nonzeros of each [h_a, m_b], its m-coefficients and
        its part off m (:func:`bracket_coords` with the rest), read by ad(h) on m and :func:`ad_h_leak`."""
        return bracket_coords(self.h, self.m, self.m, rest=True)

    @cached_property
    def ad_h_nonzeros(self) -> tuple[np.ndarray, ...]:
        """The nonzeros of ad(h) on m as arrays (a, row, column, value), sorted:
        ``value`` is the m-coefficient ``row`` of [h_a, m_column]
        (:attr:`h_m_table`, re-sorted by row)."""
        a, column, row, value = self.h_m_table[1]
        order = np.lexsort((column, row, a))
        return a[order], row[order], column[order], value[order]


def ad_h_leak(ps: PhiSpace, labels: np.ndarray | None = None) -> float:
    """The largest distance of a basis bracket [h_a, m_b] from m, absolute, or
    with ``labels``, the block of each row of m, from the block of m_b.  Read
    off :attr:`PhiSpace.h_m_table`: the distance from the block, squared, is
    the distance from m squared plus the squared coefficients on the rows of
    m labelled otherwise."""
    _, (ca, cb, cr, coef), (ra, rc, _, off) = ps.h_m_table
    d = ps.m.dim
    pair, sq = ra * d + rc, off * off
    if labels is not None:
        other = labels[cb] != labels[cr]
        pair, sq = np.concatenate([pair, (ca * d + cb)[other]]), np.concatenate([sq, coef[other] ** 2])
    return float(np.sqrt(sum_by_key(pair, sq)[1].max(initial=0.0)))


@dataclass(frozen=True)
class RegularityReport:
    """Results of the equivalent decomposition checks for a PhiSpace.

    All four flags must agree; ``agree`` is False only on an internal
    consistency failure, never for a well-formed space.
    """

    direct_sum: bool
    nonsingular_on_image: bool
    kernel_square_stable: bool
    theta_no_fixed_vector: bool

    @property
    def agree(self) -> bool:
        return len(set(asdict(self).values())) == 1


def rotation_block(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, s], [-s, c]])


def build_automorphism(n: int, m_blocks: int = 1, k: int = 4) -> AutomorphismSpec:
    """Construct B = diag{1, eps_1, ..., eps_m, -1, ..., -1} of order k.

    Requires n >= 4, k even and > 2, k >= 2*m_blocks - 2, and enough rows for
    the blocks (n - 2*m_blocks - 1 >= 0).  Conjugation by B then has order
    exactly k on so(n), whatever the parameters: B^k = 1, since each
    eps_t^k = 1 and k is even, so Ad(B)^k = id; and B has the eigen-angle
    indices 0 (its leading 1) and +-1 (eps_1), so Ad(B) has the index
    1 - 0 = 1 (it is eps_1 on the lex vectors of (0, 1) and (0, 2)), an
    eigenvalue of order exactly k.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got n={n}")
    if m_blocks < 1:
        raise ValueError(f"need m_blocks >= 1, got {m_blocks}")
    if k % 2 != 0:
        raise ValueError(f"k must be even, got k={k}")
    if k <= 2:
        raise ValueError(f"k must exceed 2, got k={k}")
    if k < 2 * m_blocks - 2:
        raise ValueError(f"need k >= 2*m_blocks - 2, got k={k}, m_blocks={m_blocks}")
    if n - 2 * m_blocks - 1 < 0:
        raise ValueError(f"need n - 2*m_blocks - 1 >= 0, got n={n}, m_blocks={m_blocks}")

    b = np.zeros((n, n))
    b[0, 0] = 1.0
    for t in range(1, m_blocks + 1):
        r = 2 * t - 1
        b[r : r + 2, r : r + 2] = rotation_block(2.0 * np.pi * t / k)
    for r in range(2 * m_blocks + 1, n):
        b[r, r] = -1.0

    return AutomorphismSpec(n=n, m_blocks=m_blocks, k=k, b=b)


def theta_angles(spec: AutomorphismSpec) -> tuple[int, ...]:
    """The eigen-angles 2 pi l / k of theta, as the sorted indices l folded to
    1 <= l <= k/2 (l and k - l are one angle up to conjugation).

    B has the eigen-angle indices 0, +-t for t = 1..m_blocks and k/2 once per
    -1; Ad(B) on so(n) = Lambda^2 R^n has the pairwise sums, mod k, and m
    keeps the nonzero ones.
    """
    k, mb = spec.k, spec.m_blocks
    idx = [0, *range(1, mb + 1), *range(-mb, 0), *[k // 2] * (spec.n - 2 * mb - 1)]
    sums = {(a + b) % k for a, b in itertools.combinations(idx, 2)}
    return tuple(sorted({min(s, k - s) for s in sums} - {0}))


def phi_residuals(ps: PhiSpace, xy: np.ndarray) -> tuple[float, float, float]:
    """phi, as assembled block by block, against the bracket, the trace form
    and B itself, over a (P, 2, n, n) stack of skew pairs (X, Y): max
    |phi[X, Y] - [phi X, phi Y]| (Frobenius), max |<phi X, phi Y> - <X, Y>|
    and max |phi(Z) - B Z B^T| (entrywise) over every Z of the pairs.  phi
    runs twice, on the pairs as one stack and on their brackets."""
    n, b = ps.spec.n, ps.spec.b
    xs, ys, zs = xy[:, 0], xy[:, 1], xy.reshape(-1, n, n)
    pz, pb = _apply_phi(ps.spec, zs), _apply_phi(ps.spec, brackets(xs, ys))
    px, py = pz[0::2], pz[1::2]
    dev_b = np.linalg.norm(pb - brackets(px, py), axis=(1, 2))
    dev_iso = np.abs(np.sum(px * py, axis=(1, 2)) - np.sum(xs * ys, axis=(1, 2)))
    dev_conj = np.abs(pz - b @ zs @ b.T)
    return tuple(float(np.max(dev, initial=0.0)) for dev in (dev_b, dev_iso, dev_conj))


def phi_blocks(b: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Ad(B) over the lex basis as its diagonal blocks, one per pair of B's
    blocks, stacked by size s: a list of (lex positions (blocks, s), matrices
    (blocks, s, s)), ascending in s; the positions of a block ascend.

    Each entry has the bits of the stacked conjugation B E B^T of the lex
    basis elements E.  Across two blocks of B an entry of B E B^T is one
    product, sqrt(2) ((B[i', i] / sqrt(2)) B[j', j]) or the same with i and j
    swapped and the sign flipped; inside one block of B it sums two, rounded
    as the BLAS kernel rounds them (a fused multiply-add, or not), so those
    columns are the stacked conjugation itself, of their lex basis elements.
    """
    n = len(b)
    lab = _support_labels(b)
    i, j = lex_indices(n)
    lo, hi = np.minimum(lab[i], lab[j]), np.maximum(lab[i], lab[j])
    half = 1.0 / _SQRT2  # the entry of a unit row in lie_mats
    out = []
    for pos in _index_blocks(lo * n + hi):
        s = pos.shape[1]
        ip, jp = i[pos], j[pos]
        u, v = ip[:, :, None], jp[:, :, None]  # row pairs
        ci, cj = ip[:, None, :], jp[:, None, :]  # column pairs
        direct = lab[u] == lab[ci]
        be = np.where(direct, b[u, ci] * half, b[u, cj] * -half)  # (B E)[u, c] for the one c that meets v
        mats = _SQRT2 * (be * np.where(direct, b[v, cj], b[v, ci]))
        inside = lo[pos[:, 0]] == hi[pos[:, 0]]
        if inside.any():  # the stacked conjugation itself, on the lex basis elements E of these blocks
            ic, jc = ip[inside], jp[inside]
            e, at = np.zeros((ic.size, n, n)), np.arange(ic.size)
            e[at, ic.ravel(), jc.ravel()], e[at, jc.ravel(), ic.ravel()] = half, -half  # E as lie_mats makes it
            conj = (b @ e @ b.T).reshape(len(ic), s, n, n)  # [g, c]: B E B^T, E at the lex position pos[g, c]
            g, c = np.arange(len(ic))[:, None, None], np.arange(s)[None, None, :]
            mats[inside] = _SQRT2 * conj[g, c, ic[:, :, None], jc[:, :, None]]  # read as lie_rows does
        out.append((pos, mats))
    return out


def _apply_phi(spec: AutomorphismSpec, mats: np.ndarray) -> np.ndarray:
    """phi of each matrix of a (P, n, n) stack of skew matrices: its lex row
    mapped block by block over :func:`phi_blocks`.  Each block sums its
    columns in order, so an element's image does not depend on the stack."""
    rows = lie_rows(mats)
    out = np.empty_like(rows)
    for pos, blocks in spec.phi_blocks:
        x = rows[:, pos][:, :, None]  # (P, blocks, 1, s)
        acc = blocks[..., 0] * x[..., 0]
        for j in range(1, pos.shape[1]):
            acc = acc + blocks[..., j] * x[..., j]
        out[:, pos] = acc
    return lie_mats(spec.n, out)


def _support_labels(mat: np.ndarray) -> np.ndarray:
    """Each index of a square matrix labelled by the smallest index of its
    connected set, i and j being joined where mat[i, j] or mat[j, i] is nonzero."""
    adj = (mat != 0) | (mat.T != 0)
    lab = np.arange(len(mat))
    while True:
        new = np.minimum(lab, np.where(adj, lab, len(mat)).min(axis=1, initial=len(mat)))
        if (new == lab).all():
            return lab
        lab = new


def _index_blocks(labels: np.ndarray) -> list[np.ndarray]:
    """The indices of each label, ascending, stacked by count: a (blocks, s)
    array per count s, ascending in s, blocks in the order of their labels."""
    order = labels.argsort(kind="stable")
    sorted_labels = labels[order]
    first = np.concatenate(([True], sorted_labels[1:] != sorted_labels[:-1]))[: len(labels)].nonzero()[0]
    size = np.concatenate((first[1:], [len(labels)])) - first
    return [order[first[size == s][:, None] + np.arange(s)] for s in np.bincount(size).nonzero()[0]]


def _stack_singular_values(mats: np.ndarray) -> np.ndarray:
    """Singular values of each matrix of a (count, s, s) stack, descending:
    closed forms for s <= 2, one batched SVD otherwise."""
    s = mats.shape[-1]
    if s == 1:
        return np.abs(mats[:, 0])
    if s == 2:
        a, b, c, d = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1]
        p, q = np.hypot(a + d, c - b), np.hypot(a - d, b + c)
        return np.stack([(p + q) / 2, np.abs(p - q) / 2], axis=1)
    return np.linalg.svd(mats, compute_uv=False)


def build_phi_space(spec: AutomorphismSpec) -> PhiSpace:
    """Compute the fixed subalgebra, the canonical complement and theta, block
    by block over :func:`phi_blocks`.

    A block of phi - id is zero, nonsingular or mixed by its singular values:
    those above TAU_RANK_REL times the largest of all blocks count.  A zero
    block gives h its lex vectors and a nonsingular one gives them to m; a
    mixed block gives h the kernel and m the image of its own SVD.  Lex
    vectors come in lex order, and the SVD vectors of a block in their order
    at the block's first lex position.  If m is the lex vectors of
    :func:`flag_complement_pattern`, as on the single-rotation-block flag
    spaces, it takes that block-adapted order, which keeps downstream metric
    computations exact.  theta is phi over m, gathered from the nonzeros of
    phi.
    """
    n = spec.n
    blocks = spec.phi_blocks
    sv = [_stack_singular_values(mats - np.eye(mats.shape[-1])) for _, mats in blocks]
    top = max(float(v.max()) for v in sv)
    h_parts, m_parts = [], []  # per entry: the vector's sort key (first, index), position, value
    for (pos, mats), v in zip(blocks, sv):
        s = pos.shape[1]
        rank = (v > TAU_RANK_REL * top).sum(axis=1)
        for parts, lex in ((h_parts, pos[rank == 0].ravel()), (m_parts, pos[rank == s].ravel())):
            parts.append((lex, np.zeros(len(lex), dtype=int), lex, np.ones(len(lex))))
        for g in np.flatnonzero((rank > 0) & (rank < s)):
            u, _, vh = np.linalg.svd(mats[g] - np.eye(s))
            for parts, vecs in ((h_parts, vh[rank[g] :]), (m_parts, u[:, : rank[g]].T)):
                at = np.repeat(np.arange(len(vecs)), s)
                parts.append((np.full(vecs.size, pos[g, 0]), at, np.tile(pos[g], len(vecs)), vecs.ravel()))
    h, m = _basis(n, h_parts), None
    if spec.m_blocks == 1 and n >= 4:
        pattern = flag_complement_pattern(n)
        first, _, pos, _ = (np.concatenate(col) for col in zip(*m_parts))
        if np.array_equal(first, pos) and np.array_equal(np.sort(pos), np.sort(pattern.entries[1])):
            m = pattern  # m is lex vectors (keyed by their own position) on the pattern's positions
    if m is None:
        m = _basis(n, m_parts)

    entries = [(pos.repeat(pos.shape[1]), pos.repeat(pos.shape[1], axis=0).ravel(), mats.ravel()) for pos, mats in blocks]
    rows, cols, vals = (np.concatenate(col) for col in zip(*entries))
    theta = operator_on(m, rows, cols, vals)
    theta.flags.writeable = False
    ps = PhiSpace(spec=spec, h=h, m=m, theta=theta)
    _check_phi_space_invariants(ps)
    return ps


def _basis(n: int, parts) -> Subspace:
    """The subspace with one basis row per vector of the parts, in the order
    of their keys (first, index); a part is the arrays (first, index,
    position, value) of its entries, the entries of one vector sharing a key."""
    first, at, pos, val = (np.concatenate(col) for col in zip(*parts))
    order = np.lexsort((at, first))
    first, at = first[order], at[order]
    new = np.concatenate(([True], (first[1:] != first[:-1]) | (at[1:] != at[:-1])))[: len(first)]
    return Subspace.of_entries(n, int(new.sum()), new.cumsum() - 1, pos[order], val[order])


@cache
def flag_complement_pattern(n: int) -> Subspace:
    """Block-adapted complement for SO(n)/SO(2)xSO(n-3): coordinates (0,1),
    (0,2); (1,j), (2,j); (0,j), for j >= 3."""
    position = np.zeros((n, n), dtype=int)
    position[lex_indices(n)] = np.arange(so_dim(n))
    js = np.arange(3, n)
    cols = np.concatenate([position[0, 1:3], position[1, js], position[2, js], position[0, js]])
    return Subspace.of_entries(n, len(cols), np.arange(len(cols)), cols, np.ones(len(cols)))


def _check_phi_space_invariants(ps: PhiSpace) -> None:
    h, m = ps.h, ps.m
    dg = so_dim(ps.spec.n)
    if h.dim + m.dim != dg:
        raise RuntimeError(f"dim h + dim m = {h.dim}+{m.dim} != {dg}")
    # Reductivity: [h, m] stays in m (absolute leak; a zero bracket leaks nothing).
    if ad_h_leak(ps) > TAU_SUBSPACE:
        raise RuntimeError("reductivity failure: [h, m] leaves m")
    if not _fixes_no_vector(ps):
        raise RuntimeError("theta has a fixed vector")
    if ps.theta_order_residual > TAU_ORDER:
        raise RuntimeError("theta^k is not the identity")


def check_regularity(ps: PhiSpace) -> RegularityReport:
    """Evaluate the equivalent decomposition conditions on a PhiSpace.

    Checks: so(n) = h (+) im(A) as an orthogonal direct sum; A restricted
    to its image is nonsingular; ker A^2 = ker A; and theta has no fixed
    vector.  The four answers agree on every well-formed space.  ker A is
    ps.h, as :func:`build_phi_space` computed it, A = phi - id is read block
    by block off ``spec.phi_blocks``, and theta - id off theta's blocks.
    Ranks count the singular values of the blocks of A (of A^2) above
    TAU_RANK_REL times the largest of all blocks.  phi is orthogonal, so A is
    normal, and the singular values of A on its image are its nonzero ones:
    the restriction is nonsingular iff the smallest kept one exceeds
    TAU_NONSINGULAR.  h and m are orthogonal iff their entries, joined on the
    lex position, have no cross Gram entry.
    """
    a = [mats - np.eye(mats.shape[-1]) for _, mats in ps.spec.phi_blocks]
    sv_a, sv_a2 = (np.concatenate([_stack_singular_values(x).ravel() for x in xs]) for xs in (a, [x @ x for x in a]))
    kept = sv_a[sv_a > TAU_RANK_REL * sv_a.max()]
    dg = so_dim(ps.spec.n)
    _, cross = _coefficients(*ps.h.entries, *ps.m.entries, ps.m.dim, dg)  # the nonzeros of h.coords @ m.coords.T

    return RegularityReport(
        direct_sum=bool(ps.h.dim + ps.m.dim == dg and np.max(np.abs(cross), initial=0.0) < TAU_SUBSPACE),
        nonsingular_on_image=bool(np.min(kept, initial=np.inf) > TAU_NONSINGULAR),
        kernel_square_stable=ps.h.dim == np.count_nonzero(sv_a2 <= TAU_RANK_REL * sv_a2.max()),
        theta_no_fixed_vector=_fixes_no_vector(ps),
    )


def _fixes_no_vector(ps: PhiSpace) -> bool:
    """theta - id nonsingular on m: the smallest singular value of each of its blocks above TAU_NONSINGULAR."""
    sv = [_stack_singular_values(mats - np.eye(mats.shape[-1])) for _, mats in ps.theta_blocks]
    return all(v.min() > TAU_NONSINGULAR for v in sv)
