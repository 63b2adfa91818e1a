"""Linear algebra over so(n).

An element of so(n) is held in one of two forms: a skew-symmetric matrix,
one per slice of a (..., n, n) stack, or a row of lex coordinates, its
coefficients in the fixed orthonormal basis (E_ij - E_ji)/sqrt(2), i < j,
ordered lexicographically in (i, j).  :func:`lie_rows` and :func:`lie_mats`
convert between them, and lie_rows is the one place a matrix is checked for
skew-symmetry.  The lex basis is orthonormal for the trace form
<X, Y> = Tr(X^T Y), so the trace form of two elements is the dot product of
their rows.  :func:`brackets` takes the commutators of two stacks and
:class:`Subspace` holds orthonormal rows.  An operator on a subspace is a
plain (dim, dim) matrix over its basis, column j the coefficients of the
image of basis vector j (:func:`operator_on`, :func:`op_powers`).  The
fixed basis pins down every operator matrix and report for
reproducibility.  Stacks of matrices serve only the oracles on random and
probe elements (verify's phi checks and the golden actions of the
structures); brackets, and the connection and class conditions built on
them, are computed on basis elements, from nonzeros.

Matrices are small (the benchmark goes up to n = 24, so dim so(n) <= 276) and
entries are O(1).  Each threshold, and the scale it applies to, is named in
:mod:`flagf.tolerances`.

A :class:`Subspace` is built from the nonzeros of its rows (``entries``)
and scatters them into dense lex rows (``coords``) only on first use, so a
subspace of unit lex vectors costs O(dim log dim) to build and check.
Structural quantities (ad(h) on m, reductivity, the split checks, the
bracket tensor of m) all come from one sparse kernel, :func:`_bracket_join`:
it joins the nonzero entries of the skew matrices of two sets of rows on
their shared matrix index and sums equal keys, so two lex basis vectors
cost one product, and only if they share exactly one index.  :func:`bracket_coords` joins those nonzeros with the
entries of a subspace, on the lex position, for the coefficients of each
bracket's projection and, on request, joins once more for each bracket's
part off the subspace (:func:`_projection`).  All keep only nonzeros, as
sorted index and value arrays.  No (dim x, dim y, n, n) array and no dense
bracket row is ever formed, and :func:`scatter` is the one way back to a
dense array, for references.
:func:`nonzero_rows` goes the other way for small operator matrices on m
(the split's J, theta): it reads each row's nonzeros into column and value
tables padded to the widest row, of width 1 for J.
"""

from __future__ import annotations

from functools import cache, cached_property

import numpy as np

from .tolerances import TAU_ORTH, TAU_SKEW

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


class Subspace:
    """A linear subspace of so(n) with an orthonormal ordered basis.

    Each basis element is a row of lex coordinates, given by its nonzeros:
    :meth:`of_entries` is the one constructor, and ``entries`` holds them as
    arrays (row, lex position, value) in row-major order.  ``coords``, the
    rows as a dense (dim, dim so(n)) array, is scattered from them on first
    use; both are read-only.  The Gram matrix under Tr(X^T Y) is
    ``coords @ coords.T``; construction sums it from the entries and rejects
    bases that are not orthonormal within TAU_ORTH.  Subspaces are immutable
    and compare by identity.
    """

    @classmethod
    def of_entries(cls, ambient_n: int, dim: int, row, pos, val) -> "Subspace":
        """The subspace whose basis row ``row[e]`` holds ``val[e]`` at lex
        position ``pos[e]`` and 0 elsewhere; zero values are dropped."""
        val = np.asarray(val, dtype=float).ravel()
        keep = val != 0.0
        row, pos = (np.asarray(a, dtype=np.intp).ravel()[keep] for a in (row, pos))
        val = val[keep]
        dg = so_dim(ambient_n)
        key = row * dg + pos
        if len(key) and (min(row.min(), pos.min()) < 0 or row.max() >= dim or pos.max() >= dg):
            raise ValueError(f"entries out of range for {dim} rows of so({ambient_n})")
        order = key.argsort(kind="stable")
        if (key[order][1:] == key[order][:-1]).any():
            raise ValueError("an entry is given twice")
        entries = row[order], pos[order], val[order]
        for a in entries:
            a.flags.writeable = False
        if dim and (dev := _gram_deviation(dg, dim, *entries)) > TAU_ORTH:
            raise ValueError(f"basis is not orthonormal (Gram deviation {dev:.3e})")
        sp = cls.__new__(cls)
        sp.__dict__.update(ambient_n=ambient_n, dim=dim, entries=entries)
        return sp

    def __setattr__(self, name, value):
        raise AttributeError(f"Subspace is immutable (cannot set {name!r})")

    @cached_property
    def coords(self) -> np.ndarray:
        c = scatter((self.dim, so_dim(self.ambient_n)), *self.entries)
        c.flags.writeable = False
        return c


def _gram_deviation(dg: int, dim: int, row, pos, val) -> float:
    """max |G - I| for the Gram matrix G of rows given by their nonzeros,
    summed over the pairs of entries that share a lex position."""
    li, ri = _join(pos, pos, dg)
    keys, g = sum_by_key(row[li] * dim + row[ri], val[li] * val[ri])
    diag = keys // dim == keys % dim
    missing = dim - np.count_nonzero(diag)  # zero rows
    return max(float(np.abs(g - diag).max(initial=0.0)), 1.0 if missing else 0.0)


def op_powers(op: np.ndarray, count: int) -> np.ndarray:
    """op^0, ..., op^(count - 1) of a (..., d, d) matrix or stack as (count, ..., d, d), each op @ the one before."""
    powers = np.empty((count, *op.shape))
    p = np.broadcast_to(np.eye(op.shape[-1]), op.shape)
    for m in range(count):
        powers[m] = p
        if m + 1 < count:
            p = op @ p
    return powers


def sum_by_key(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and the sum of each key's values."""
    order = keys.argsort(kind="stable")
    keys, values = keys[order], values[order]
    del order
    first = np.concatenate(([True], keys[1:] != keys[:-1]))[: len(keys)].nonzero()[0]
    return keys[first], np.add.reduceat(values, first)


def _join(left: np.ndarray, right: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (li, ri) with left[li] == right[ri], for values in
    range(size): li ascending, and for each li the ri ascending."""
    order = right.argsort(kind="stable")
    start = right[order].searchsorted(np.arange(size + 1))  # right[order[start[v]:start[v + 1]]] == v
    first = start[left]
    count = start[1:][left] - first
    li = np.arange(len(left)).repeat(count)
    ri = order[np.arange(len(li)) + (first - (count.cumsum() - count)).repeat(count)]
    return li, ri


def _matrix_entries(n: int, row, pos, val) -> tuple[np.ndarray, ...]:
    """The nonzero entries X[r, c] of the skew matrices of lex rows given by
    their nonzeros (row, pos, val), as arrays (row, r, c, value), valued
    exactly as in :func:`lie_mats`."""
    i, j = lex_indices(n)
    half = val / _SQRT2
    i, j = i[pos], j[pos]
    return np.concatenate([row, row]), np.concatenate([i, j]), np.concatenate([j, i]), np.concatenate([half, -half])


def _bracket_join(n: int, x_entries, y_entries, dy: int) -> tuple[np.ndarray, ...]:
    """The nonzero lex coordinates of every bracket [x_a, y_b] of rows given by
    their nonzeros (row, pos, val), dy rows of y, as arrays (a, b, lex
    position, value) sorted by (a, b, position).

    Rows need not be orthonormal.  The entries X[r, s] and Y[s, q] of the two
    skew matrices are joined on their shared index s; each product adds to
    (XY)[r, q], and the coordinate of (i, j), i < j, is sqrt(2) ((XY)[i, j] -
    (XY)[j, i]) as in :func:`lie_rows` of :func:`brackets`.  Entries are read
    exactly, with no threshold, and a coordinate that sums to 0 is dropped.
    For rows with one nonzero each, every coordinate is one product, so it
    has the bits of the dense product.
    """
    xa, xr, xs, xv = _matrix_entries(n, *x_entries)
    yb, ys, yq, yv = _matrix_entries(n, *y_entries)
    xi, yi = _join(xs, ys, n)  # every X entry (r, s) with every Y entry (s, q)
    r, q = xr[xi], yq[yi]
    keep = r != q  # a diagonal entry of XY cancels in XY - YX
    r, q, xi, yi = r[keep], q[keep], xi[keep], yi[keep]
    lo, hi = np.minimum(r, q), np.maximum(r, q)
    pos = lo * n - lo * (lo + 1) // 2 + hi - lo - 1
    dg = so_dim(n)
    prod = xv[xi] * yv[yi]
    keys, val = sum_by_key((xa[xi] * dy + yb[yi]) * dg + pos, np.where(r < q, prod, -prod))
    val = _SQRT2 * val
    nz = val != 0.0
    keys, val = keys[nz], val[nz]
    return keys // (dy * dg), keys // dg % dy, keys % dg, val


def _coefficients(pair, pos, val, row, row_pos, row_val, d: int, dg: int):
    """The nonzero inner products of vectors given by their nonzeros (pair, pos,
    val) with d rows given by theirs (row, pos, val), joined on the lex position:
    sorted keys pair d + row and values."""
    bi, oi = _join(pos, row_pos, dg)
    keys, coef = sum_by_key(pair[bi] * d + row[oi], val[bi] * row_val[oi])
    nz = coef != 0.0
    return keys[nz], coef[nz]


def _projection(pair, pos, val, row, row_pos, row_val, d: int, dg: int):
    """:func:`_coefficients` of vectors over d orthonormal rows (keys, values),
    then each vector minus its projection, the coefficients joined back with
    the entries of their rows (sorted keys pair dg + lex position, values)."""
    keys, coef = _coefficients(pair, pos, val, row, row_pos, row_val, d, dg)
    ci, oi = _join(keys % d, row, d)  # each coefficient with the entries of its row
    off_keys = np.concatenate([pair * dg + pos, keys[ci] // d * dg + row_pos[oi]])
    off_keys, off = sum_by_key(off_keys, np.concatenate([val, -(coef[ci] * row_val[oi])]))
    return keys, coef, off_keys[off != 0.0], off[off != 0.0]


def bracket_coords(x: Subspace, y: Subspace, onto: Subspace, rest: bool = False):
    """The nonzero coefficients of the projections of every basis bracket
    [x_a, y_b] onto ``onto``, as arrays (a, b, onto position, value) sorted by
    (a, b, position): the nonzeros of the brackets joined with the entries of
    ``onto`` on the lex position, equal keys summed, exact zeros dropped.  On
    rows of one entry 1.0 each coefficient is one product by 1.0.  With
    ``rest``, three such tuples: the brackets' nonzeros (a, b, lex position,
    value), these coefficients, and each bracket's part off ``onto``
    (orthonormal rows; :func:`_projection`) by lex position."""
    n, dy, d, dg = x.ambient_n, y.dim, onto.dim, so_dim(x.ambient_n)
    if y.ambient_n != n or onto.ambient_n != n:
        raise ValueError("ambient dimension mismatch")
    a, b, pos, val = brackets = _bracket_join(n, x.entries, y.entries, dy)
    keys, coef, *off = (_projection if rest else _coefficients)(a * dy + b, pos, val, *onto.entries, d, dg)
    coords = keys // (dy * d), keys // d % dy, keys % d, coef
    return (brackets, coords, (off[0] // (dy * dg), off[0] // dg % dy, off[0] % dg, off[1])) if rest else coords


def operator_on(space: Subspace, rows, cols, vals) -> np.ndarray:
    """The (dim, dim) matrix C A C^T, C = space.coords, of the operator A on
    so(n) whose nonzeros are A[rows, cols] = vals: its matrix over the basis
    of a subspace it preserves, summed from nonzeros.  On rows of one entry
    1.0 each entry is read off A, a gather."""
    d, dg = space.dim, so_dim(space.ambient_n)
    a, a_pos, a_val = space.entries
    rows, cols, vals = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp), np.asarray(vals, dtype=float)
    li, ri = _join(a_pos, rows, dg)  # C[a, p] A[p, q]
    lj, bj = _join(cols[ri], a_pos, dg)  # ... C[b, q]
    li, ri = li[lj], ri[lj]
    keys, val = sum_by_key(a[li] * d + a[bj], (a_val[li] * vals[ri]) * a_val[bj])
    return scatter(d * d, keys, val).reshape(d, d)


def scatter(shape, *nonzeros) -> np.ndarray:
    """The dense array of the given shape holding nonzeros = (index arrays...,
    values) at their indices and 0 elsewhere: the one way back from sparse."""
    out = np.zeros(shape)
    out[nonzeros[:-1]] = nonzeros[-1]
    return out


def nonzero_rows(*mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonzeros of each row of the given (..., d, d) matrices, all of one
    shape, as (len(mats), ..., d, w) column and value tables, in column order,
    padded with column 0 and value 0 to the widest row w.  Entries are read
    exactly: nothing is thresholded."""
    d = mats[0].shape[-1]
    rows = [m.reshape(-1, d) for m in mats]
    nonzero = [x != 0.0 for x in rows]
    # the rows of all matrices, one after another: row, slot in the row, column and value of each nonzero
    r, c = np.divmod(np.flatnonzero(np.concatenate(nonzero)), d)  # 1-d: np.nonzero of 2-d is slower
    slot = np.arange(len(r)) - np.searchsorted(r, r)
    shape = (len(mats) * len(rows[0]), max(1, int(slot.max(initial=0)) + 1))
    idx, val = np.zeros(shape, dtype=np.intp), np.zeros(shape)
    idx[r, slot] = c
    val[r, slot] = np.concatenate([x[nz] for x, nz in zip(rows, nonzero)])
    shape = (len(mats),) + mats[0].shape[:-1] + (shape[1],)
    return idx.reshape(shape), val.reshape(shape)
