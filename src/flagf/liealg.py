"""Linear algebra over so(n).

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

Structural quantities (ad(h) on m, reductivity, the split checks, the
bracket tensor of m) all come from one sparse kernel,
:func:`bracket_nonzeros`: it joins the nonzero entries of the skew matrices
of two sets of rows on their shared matrix index and sums equal keys, so two
lex basis vectors cost one product, and only if they share exactly one index.
:func:`bracket_row_chunks` turns the nonzero brackets into dense rows a chunk
at a time, for residuals and projections; :func:`bracket_coords` projects
them onto a subspace and keeps the nonzero coefficients, again as sorted
index and value arrays.  No (dim x, dim y, n, n) array is ever formed, and
:func:`scatter` is the one way back to a dense array, for references.
:func:`kernel_and_image` reads both subspaces of a matrix off one SVD.
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


def op_powers(op: EndoOnM, count: int) -> np.ndarray:
    """op^0, ..., op^(count - 1) as a (count, d, d) stack, each op @ the one before."""
    powers = np.empty((count, op.dim, op.dim))
    p = np.eye(op.dim)
    for m in range(count):
        powers[m] = p
        if m + 1 < count:
            p = op.matrix @ p
    return powers


def poly_in(op: EndoOnM, coeffs, powers: np.ndarray | None = None) -> EndoOnM:
    """Evaluate sum_m coeffs[m] * op^m, term by term in m.  ``powers`` is
    op_powers(op, count) for some count >= len(coeffs), to reuse across calls."""
    if powers is None:
        powers = op_powers(op, len(coeffs))
    if len(coeffs) > len(powers):
        raise ValueError(f"{len(coeffs)} coefficients need more than {len(powers)} powers")
    acc = np.zeros((op.dim, op.dim))
    for c, p in zip(coeffs, powers):
        if c != 0.0:
            acc = acc + c * p
    return EndoOnM(op.domain, acc)


def kernel_and_image(m, domain: Subspace) -> tuple[Subspace, Subspace]:
    """Orthonormal bases of the kernel and of the column space of the matrix m,
    which acts on the coefficients over the basis of ``domain``: one SVD.

    Singular values below TAU_RANK_REL times the largest one are treated as
    zero.  Both results live in the ambient so(n) of the domain.
    """
    n, m = domain.ambient_n, np.asarray(m, dtype=float)
    if domain.dim == 0:
        return Subspace.empty(n), Subspace.empty(n)
    if m.shape != (domain.dim, domain.dim):
        raise ValueError(f"a {m.shape} matrix does not act on a domain of dim {domain.dim}")
    u, s, vh = np.linalg.svd(m)
    rank = int(np.sum(s > TAU_RANK_REL * s[0])) if s[0] > 0 else 0
    return Subspace(n, vh[rank:] @ domain.coords), Subspace(n, u[:, :rank].T @ domain.coords)


def sum_by_key(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and the sum of each key's values."""
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    del order
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1]))[: len(keys)])
    return keys[first], np.add.reduceat(values, first)


def _entries(n: int, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """The nonzero entries X[r, c] of the skew matrices of lex-coordinate rows,
    as arrays (row, r, c, value), valued exactly as in :func:`lie_mats`."""
    a, p = np.nonzero(rows)
    i, j = lex_indices(n)
    half = rows[a, p] / _SQRT2
    return np.tile(a, 2), np.concatenate([i[p], j[p]]), np.concatenate([j[p], i[p]]), np.concatenate([half, -half])


def bracket_nonzeros(n: int, x_rows, y_rows) -> tuple[np.ndarray, ...]:
    """The nonzero lex coordinates of every bracket [x_a, y_b], as arrays
    (a, b, lex position, value) sorted by (a, b, position).

    Rows need not be orthonormal.  The entries X[r, s] and Y[s, q] of the two
    skew matrices are joined on their shared index s; each product adds to
    (XY)[r, q], and the coordinate of (i, j), i < j, is sqrt(2) ((XY)[i, j] -
    (XY)[j, i]) as in :func:`lie_rows` of :func:`brackets`.  Entries are read
    exactly, with no threshold, and a coordinate that sums to 0 is dropped.
    For rows with one nonzero each, every coordinate is one product, so it
    has the bits of the dense product.
    """
    x_rows, y_rows = (np.asarray(r, dtype=float).reshape(-1, so_dim(n)) for r in (x_rows, y_rows))
    xa, xr, xs, xv = _entries(n, x_rows)
    yb, ys, yq, yv = _entries(n, y_rows)
    order = np.argsort(ys, kind="stable")
    yb, yq, yv = yb[order], yq[order], yv[order]
    start = np.searchsorted(ys[order], np.arange(n + 1))  # Y entries of row s: start[s]:start[s + 1]
    # Every pair (xi, yi) of an X entry (r, s) and a Y entry (s, q).
    count = (start[1:] - start[:-1])[xs]
    xi = np.repeat(np.arange(len(xs)), count)
    yi = np.arange(len(xi)) + np.repeat(start[xs] - (np.cumsum(count) - count), count)
    r, q = xr[xi], yq[yi]
    keep = r != q  # a diagonal entry of XY cancels in XY - YX
    r, q, xi, yi = r[keep], q[keep], xi[keep], yi[keep]
    lo, hi = np.minimum(r, q), np.maximum(r, q)
    pos = lo * n - lo * (lo + 1) // 2 + hi - lo - 1
    dg, dy = so_dim(n), len(y_rows)
    prod = xv[xi] * yv[yi]
    keys, val = sum_by_key((xa[xi] * dy + yb[yi]) * dg + pos, np.where(r < q, prod, -prod))
    val = _SQRT2 * val
    keys, val = keys[val != 0.0], val[val != 0.0]
    return keys // (dy * dg), keys // dg % dy, keys % dg, val


_CHUNK_BYTES = 1 << 18


def bracket_row_chunks(n: int, x_rows, y_rows):
    """Yield (a, b, rows): the nonzero brackets [x_a, y_b] of :func:`bracket_nonzeros`
    as dense lex-coordinate rows, at most 256 kB of rows at a time."""
    a, b, pos, val = bracket_nonzeros(n, x_rows, y_rows)
    new_pair = np.concatenate(([True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])))[: len(a)]
    bounds = np.append(np.flatnonzero(new_pair), len(a))
    step = max(1, _CHUNK_BYTES // (8 * so_dim(n)))
    for lo in range(0, len(bounds) - 1, step):
        edges = bounds[lo : lo + step + 1]  # the entries of bracket lo + p are edges[p]:edges[p + 1]
        rows = np.zeros((len(edges) - 1, so_dim(n)))
        rows[np.repeat(np.arange(len(rows)), np.diff(edges)), pos[edges[0] : edges[-1]]] = val[edges[0] : edges[-1]]
        yield a[edges[:-1]], b[edges[:-1]], rows


def bracket_coords(x: Subspace, y: Subspace, onto: Subspace) -> tuple[np.ndarray, ...]:
    """The nonzero coefficients of the projections of every basis bracket
    [x_a, y_b] onto ``onto``, as arrays (a, b, onto position, value) sorted by
    (a, b, position).  One product per chunk of :func:`bracket_row_chunks`,
    exact zeros dropped."""
    n = x.ambient_n
    if y.ambient_n != n or onto.ambient_n != n:
        raise ValueError("ambient dimension mismatch")
    parts = [(np.zeros(0, dtype=int),) * 3 + (np.zeros(0),)]
    for a, b, rows in bracket_row_chunks(n, x.coords, y.coords):
        coef = rows @ onto.coords.T
        p, r = np.nonzero(coef)  # row-major, and the chunks come in (a, b) order
        parts.append((a[p], b[p], r, coef[p, r]))
    return tuple(np.concatenate(col) for col in zip(*parts))


def scatter(shape, *nonzeros) -> np.ndarray:
    """The dense array of the given shape holding nonzeros = (index arrays...,
    values) at their indices and 0 elsewhere: the one way back from sparse."""
    out = np.zeros(shape)
    out[nonzeros[:-1]] = nonzeros[-1]
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
