"""Dense linear algebra over so(n).

An element of so(n) is held in one of two forms: a skew-symmetric matrix,
one per slice of a (..., n, n) stack, or a row of lex coordinates, its
coefficients in the fixed orthonormal basis (E_ij - E_ji)/sqrt(2), i < j,
ordered lexicographically in (i, j).  :func:`lie_rows` and :func:`lie_mats`
convert between them, and lie_rows is the one place a matrix is checked for
skew-symmetry.  The lex basis is orthonormal for the trace form
<X, Y> = Tr(X^T Y), so the trace form of two elements is the dot product of
their rows.  :func:`brackets` takes the commutators of two stacks,
:class:`Subspace` holds orthonormal rows and :class:`EndoOnM` an operator on
them.  The fixed basis pins down every operator matrix and report for
reproducibility.

Matrices are small (the benchmark goes up to n = 24, so dim so(n) <= 276) and
entries are O(1).  Each threshold, and the scale it applies to, is named in
:mod:`flagf.tolerances`.

Structural quantities (ad(h) on m, reductivity, the bracket tensor of m) all
come from one batched kernel, :func:`bracket_rows`: for each basis element
x_a it computes the lex coordinates of [x_a, y_b] for a whole basis y with a
single (n, n) @ (n, n * dim y) product.  :func:`bracket_coords` stacks its
output, optionally projected onto a subspace.  Memory stays at one (dim y, dim so(n)) block per step; no
(dim x, dim y, n, n) array is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .tolerances import TAU_ORTH, TAU_RANK_REL, TAU_SKEW, TAU_SUBSPACE

_SQRT2 = np.sqrt(2.0)


def so_dim(n: int) -> int:
    """Dimension n(n-1)/2 of so(n)."""
    return n * (n - 1) // 2


@cache
def lex_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays of the lex basis, ``np.triu_indices(n, 1)``.

    Cached per n; the arrays are read-only.
    """
    iu = np.triu_indices(n, k=1)
    for a in iu:
        a.flags.writeable = False
    return iu


def lie_rows(mats) -> np.ndarray:
    """Lex coordinates of each matrix of a (..., n, n) stack (inverse of :func:`lie_mats`).

    Raises ValueError if a matrix is not skew-symmetric: |X + X^T| above
    TAU_SKEW relative to max(1, max |entry|), matrix by matrix.
    """
    mats = np.asarray(mats, dtype=float)
    dev = np.max(np.abs(mats + mats.swapaxes(-1, -2)), axis=(-2, -1), initial=0.0)
    scale = np.max(np.abs(mats), axis=(-2, -1), initial=1.0)
    if np.any(dev > TAU_SKEW * scale):
        raise ValueError(f"matrix is not skew-symmetric (deviation {np.max(dev):.3e})")
    return _SQRT2 * mats[(..., *lex_indices(mats.shape[-1]))]


def lie_mats(n: int, rows) -> np.ndarray:
    """Skew matrices with the given lex coordinates, one per row: (rows, n, n)."""
    rows = np.asarray(rows, dtype=float)
    i, j = lex_indices(n)
    m = np.zeros((rows.shape[0], n, n))
    m[:, i, j] = rows / _SQRT2
    return m - m.transpose(0, 2, 1)


def brackets(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Commutators X_p Y_p - Y_p X_p of two (..., n, n) stacks of skew matrices."""
    m = xs @ ys
    return m - m.swapaxes(-1, -2)


@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace of so(n) with an orthonormal ordered basis.

    ``coords`` holds one basis element per row, expressed in the lexicographic
    orthonormal basis of so(n), so the Gram matrix under Tr(X^T Y) is exactly
    ``coords @ coords.T``.  Construction rejects bases that are not orthonormal
    within TAU_ORTH.
    """

    ambient_n: int
    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        dg = so_dim(self.ambient_n)
        if c.ndim != 2 or c.shape[1] != dg:
            raise ValueError(f"coords must be (dim, {dg}), got {c.shape}")
        if c.shape[0]:
            gram = c @ c.T
            dev = np.max(np.abs(gram - np.eye(c.shape[0])))
            if dev > TAU_ORTH:
                raise ValueError(f"basis is not orthonormal (Gram deviation {dev:.3e})")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    def project_rows(self, rows: np.ndarray) -> np.ndarray:
        """Projections of lex-coordinate rows onto this subspace, as a (rows, n, n) stack."""
        return lie_mats(self.ambient_n, (self.coords.T @ (self.coords @ rows[..., None]))[..., 0])

    def relative_residuals(self, rows) -> np.ndarray:
        """:meth:`residuals` of lex-coordinate rows relative to their norms (0 for a zero row)."""
        nrm = np.linalg.norm(rows, axis=1)
        return np.divide(self.residuals(rows), nrm, out=np.zeros_like(nrm), where=nrm != 0)

    def residuals(self, rows) -> np.ndarray:
        """Absolute distance of each lex-coordinate row to this subspace: a bracket
        of unit basis vectors that is 0 exactly must not be scaled by its own noise."""
        rows = np.asarray(rows, dtype=float)
        return np.linalg.norm(rows - (rows @ self.coords.T) @ self.coords, axis=1)

    @staticmethod
    def full(n: int) -> "Subspace":
        """All of so(n), with the lexicographic orthonormal basis."""
        return Subspace(n, np.eye(so_dim(n)))

    @staticmethod
    def empty(n: int) -> "Subspace":
        return Subspace(n, np.zeros((0, so_dim(n))))

    @staticmethod
    def span(n: int, rows) -> "Subspace":
        """Orthonormalized span of the given lex-coordinate rows (SVD based)."""
        rows = np.asarray(rows, dtype=float)
        if rows.size == 0:
            return Subspace.empty(n)
        return Subspace(n, _orth_rows(rows))


def _orth_rows(rows: np.ndarray) -> np.ndarray:
    """Orthonormal row basis of the row space, dropping near-dependent rows."""
    u, s, vh = np.linalg.svd(rows, full_matrices=False)
    if s.size == 0:
        return rows[:0]
    rank = int(np.sum(s > TAU_RANK_REL * s[0]))
    return vh[:rank]


@dataclass(frozen=True, eq=False)
class EndoOnM:
    """A linear operator on a subspace, as a matrix over its ordered basis.

    Column j holds the coefficients of the image of basis vector j.
    :meth:`apply_mats` projects its arguments to the domain first; callers
    that need exactness keep them inside the domain.
    """

    domain: Subspace
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        d = self.domain.dim
        if m.shape != (d, d):
            raise ValueError(f"matrix must be {d}x{d}, got {m.shape}")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.domain.dim

    def apply_mats(self, mats: np.ndarray) -> np.ndarray:
        """Images of a (P, n, n) stack of skew matrices, one matrix-vector product per factor."""
        c = self.domain.coords
        return lie_mats(self.domain.ambient_n, (c.T @ (self.matrix @ (c @ lie_rows(mats)[..., None])))[..., 0])

    def matrix_on(self, domain: Subspace) -> np.ndarray:
        """Matrix of this operator over another orthonormal basis of the domain."""
        if np.array_equal(domain.coords, self.domain.coords):
            return np.array(self.matrix)
        r = domain.coords @ self.domain.coords.T
        return r @ self.matrix @ r.T


def poly_in(op: EndoOnM, coeffs) -> EndoOnM:
    """Evaluate sum_m coeffs[m] * op^m."""
    acc = np.zeros((op.dim, op.dim))
    p = np.eye(op.dim)
    for c in coeffs:
        if c != 0.0:
            acc = acc + c * p
        p = op.matrix @ p
    return EndoOnM(op.domain, acc)


def _square_on(m, domain: Subspace) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (domain.dim, domain.dim):
        raise ValueError(f"a {m.shape} matrix does not act on a domain of dim {domain.dim}")
    return m


def nullspace(m, domain: Subspace) -> Subspace:
    """Orthonormal basis of the kernel of the matrix m, which acts on the
    coefficients over the basis of ``domain``.

    Singular values below TAU_RANK_REL times the largest one are treated as
    zero.  The result lives in the ambient so(n) of the domain.
    """
    if domain.dim == 0:
        return Subspace.empty(domain.ambient_n)
    _, s, vh = np.linalg.svd(_square_on(m, domain))
    rank = int(np.sum(s > TAU_RANK_REL * s[0])) if s[0] > 0 else 0
    return Subspace(domain.ambient_n, vh[rank:] @ domain.coords)


def image(m, domain: Subspace) -> Subspace:
    """Orthonormal basis of the column space of the matrix m on ``domain``."""
    if domain.dim == 0:
        return Subspace.empty(domain.ambient_n)
    u, s, _ = np.linalg.svd(_square_on(m, domain))
    rank = int(np.sum(s > TAU_RANK_REL * s[0])) if s[0] > 0 else 0
    return Subspace(domain.ambient_n, u[:, :rank].T @ domain.coords)


def bracket_rows(n: int, x_rows, y_rows):
    """Yield, for each lex-coordinate row x_a of ``x_rows``, the lex
    coordinates of every [x_a, y_b] as a (len(y_rows), dim so(n)) array.

    Rows need not be orthonormal (``Subspace.coords`` or single elements both
    work).  Each step is one (n, n) @ (n, n * len(y_rows)) product, and the
    coordinates are read off as sqrt(2) (P_ij - P_ji), P = X Y, exactly as
    :func:`lie_rows` reads them off :func:`brackets`.
    """
    i, j = lex_indices(n)
    ys = lie_mats(n, y_rows)
    k = ys.shape[0]
    y_flat = ys.transpose(1, 0, 2).reshape(n, k * n)  # [r, b*n + l] = Y_b[r, l]
    for xm in lie_mats(n, x_rows):
        p = (xm @ y_flat).reshape(n, k, n)  # p[r, b, l] = (X Y_b)[r, l]
        yield _SQRT2 * (p[i, :, j] - p[j, :, i]).T


def bracket_coords(x: Subspace, y: Subspace, onto: Subspace | None = None) -> np.ndarray:
    """Coordinates of every basis bracket [x_a, y_b].

    Returns the lex coordinates, shape (dim x, dim y, dim so(n)), or with
    ``onto`` the coefficients of their projections onto that subspace, shape
    (dim x, dim y, dim onto).  Built one x_a at a time from
    :func:`bracket_rows`.
    """
    n = x.ambient_n
    if y.ambient_n != n or (onto is not None and onto.ambient_n != n):
        raise ValueError("ambient dimension mismatch")
    width = so_dim(n) if onto is None else onto.dim
    out = np.empty((x.dim, y.dim, width))
    for a, b in enumerate(bracket_rows(n, x.coords, y.coords)):
        out[a] = b if onto is None else b @ onto.coords.T
    return out


def decompose_orthogonal(whole: Subspace, parts) -> bool:
    """True iff the parts are pairwise orthogonal subspaces of ``whole`` whose
    dimensions add up to dim(whole)."""
    parts = list(parts)
    if any(p.ambient_n != whole.ambient_n for p in parts):
        raise ValueError("ambient dimension mismatch")
    if sum(p.dim for p in parts) != whole.dim:
        return False
    for i, p in enumerate(parts):
        if p.dim and np.max(np.abs(p.coords @ whole.coords.T @ whole.coords - p.coords)) > TAU_SUBSPACE:
            return False
        for q in parts[i + 1 :]:
            if p.dim and q.dim and np.max(np.abs(p.coords @ q.coords.T)) > TAU_ORTH:
                return False
    return True
