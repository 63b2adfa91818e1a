"""The dense routes that the block-by-block phi-space replaced, kept as
references: phi must keep their bits, and h, m and theta their subspaces.

``phi_matrix`` is the stacked conjugation B E B^T of every lex basis element,
and ``scattered_phi`` the blocks of ``spec.phi_blocks`` scattered into one
dense matrix (the two agree bit for bit on a well-formed spec);
``conjugation_order`` the order of Ad(B) by repeated dense products;
``kernel_and_image`` one SVD of a matrix on a domain; ``dense_phi_space`` h
and m off the SVD of phi - id (m replaced by the flag pattern when it spans
it) and theta as m phi m^T; ``bracket_nonzeros`` the brackets of dense lex
rows from their nonzeros; ``bracket_row_chunks``, ``bracket_coords`` and
``bracket_leak`` the brackets as dense lex rows, a chunk at a time, projected
by one product per chunk; ``sparse_bracket_leak`` the block leak from
nonzeros, as liealg computed it before the [h, m] brackets of a space were
joined once into a table.  ``dense_regularity`` is check_regularity on the
dense A = phi - id and A^2, with every singular value of A^2 and the dense
cross Gram h.coords @ m.coords.T, and theta - id on the dense theta; its
``_nonsingular`` reads the smallest singular value off one eigvalsh, as
phispace did before it read theta's blocks.  ``residuals``, ``relative_residuals`` and
``project_rows`` measure and project dense lex rows against a subspace.
``full_space`` and ``empty_space`` are all of so(n) on the lex basis and the
zero subspace, which only the tests build.  ``apply_on`` applies an operator,
given by its matrix over a subspace's basis, to a stack of skew matrices.
``labelled_blocks`` gives the rows of a subspace with each label as one
subspace per label, and ``split_blocks`` the blocks m1, m2, m3 of a split,
which the split holds only as one label per row of m.  ``dense_subspace``
builds a subspace from dense lex rows, through their nonzeros.
"""

import numpy as np

from flagf.liealg import Subspace, _bracket_join, _join, lie_mats, lie_rows, so_dim, sum_by_key
from flagf.phispace import RegularityReport, flag_complement_pattern
from flagf.tolerances import TAU_NONSINGULAR, TAU_ORDER, TAU_RANK_REL, TAU_SUBSPACE


def phi_matrix(spec) -> np.ndarray:
    """Matrix of X -> B X B^-1 over the lex basis (one stacked conjugation)."""
    return lie_rows(spec.b @ lie_mats(spec.n, np.eye(so_dim(spec.n))) @ spec.b.T).T


def scattered_phi(spec) -> np.ndarray:
    """The blocks of ``spec.phi_blocks`` scattered into one dense matrix."""
    dg = so_dim(spec.n)
    dense = np.zeros((dg, dg))
    for pos, mats in spec.phi_blocks:
        dense[pos[:, :, None], pos[:, None, :]] = mats
    return dense


def residuals(space: Subspace, rows) -> np.ndarray:
    """Absolute distance of each lex-coordinate row to a subspace, rows minus
    their projection by one dense product: a bracket of unit basis vectors
    that is 0 exactly must not be scaled by its own noise."""
    rows = np.asarray(rows, dtype=float)
    return np.linalg.norm(rows - (rows @ space.coords.T) @ space.coords, axis=1)


def relative_residuals(space: Subspace, rows) -> np.ndarray:
    """:func:`residuals` of lex-coordinate rows relative to their norms (0 for a zero row)."""
    nrm = np.linalg.norm(rows, axis=1)
    return np.divide(residuals(space, rows), nrm, out=np.zeros_like(nrm), where=nrm != 0)


def project_rows(space: Subspace, rows: np.ndarray) -> np.ndarray:
    """Projections of lex-coordinate rows onto a subspace, as a (rows, n, n) stack."""
    return lie_mats(space.ambient_n, (space.coords.T @ (space.coords @ rows[..., None]))[..., 0])


def dense_subspace(n: int, coords) -> Subspace:
    """The subspace of so(n) whose basis rows are the dense lex rows ``coords``
    ((dim, dim so(n))), built from their nonzeros."""
    c = np.asarray(coords, dtype=float)
    if c.ndim != 2 or c.shape[1] != so_dim(n):
        raise ValueError(f"coords must be (dim, {so_dim(n)}), got {c.shape}")
    row, pos = np.nonzero(c)
    return Subspace.of_entries(n, len(c), row, pos, c[row, pos])


def labelled_blocks(space: Subspace, labels) -> list[Subspace]:
    """The rows of ``space`` with each label, in their order, one subspace per
    label, labels ascending."""
    return [dense_subspace(space.ambient_n, space.coords[labels == b]) for b in np.unique(labels)]


def split_blocks(split) -> list[Subspace]:
    """The blocks m1, m2, m3 of a split: the rows of ``combined`` labelled 1, 2
    and 3 by ``block_index``."""
    return labelled_blocks(split.combined, split.block_index)


def apply_on(space: Subspace, matrix, mats) -> np.ndarray:
    """Images of a (P, n, n) stack of skew matrices under the operator whose
    (dim, dim) matrix over the basis of ``space`` is given (column j the image
    of basis vector j): each argument projected to the space, then one
    matrix-vector product per factor."""
    c = space.coords
    return lie_mats(space.ambient_n, (c.T @ (matrix @ (c @ lie_rows(mats)[..., None])))[..., 0])


def kernel_dim(mat) -> int:
    """The singular values at or below TAU_RANK_REL times the largest one, counted."""
    sv = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(sv <= TAU_RANK_REL * np.max(sv, initial=0.0)))


def dense_regularity(ps) -> RegularityReport:
    """The four regularity answers from the dense A = phi - id (phi scattered
    from ps.spec.phi_blocks): h (+) m against the dense cross Gram, A on m
    as m A m^T, and the kernel of A^2 from all its singular values."""
    dg = so_dim(ps.spec.n)
    a = scattered_phi(ps.spec) - np.eye(dg)
    cross = ps.h.coords @ ps.m.coords.T if ps.h.dim and ps.m.dim else np.zeros((1, 1))
    return RegularityReport(
        direct_sum=bool(ps.h.dim + ps.m.dim == dg and np.max(np.abs(cross)) < TAU_SUBSPACE),
        nonsingular_on_image=_nonsingular(ps.m.coords @ a @ ps.m.coords.T),
        kernel_square_stable=ps.h.dim == kernel_dim(a @ a),
        theta_no_fixed_vector=_nonsingular(ps.theta - np.eye(ps.m.dim)),
    )


def _nonsingular(mat: np.ndarray) -> bool:
    """Smallest singular value above TAU_NONSINGULAR (True for an empty matrix),
    read as the smallest eigenvalue of mat^T mat above TAU_NONSINGULAR^2: its
    error, about 1e-16 |mat|^2, is far below that bound for O(1) operators."""
    return not mat.size or bool(np.linalg.eigvalsh(mat.T @ mat)[0] > TAU_NONSINGULAR**2)


def conjugation_order(spec, cap: int) -> int | None:
    """The least j <= cap with phi^j = id within TAU_ORDER, or None."""
    p = phi_matrix(spec)
    dg = p.shape[0]
    acc = np.eye(dg)
    for j in range(1, cap + 1):
        acc = p @ acc
        if np.max(np.abs(acc - np.eye(dg))) < TAU_ORDER:
            return j
    return None


def full_space(n: int) -> Subspace:
    """All of so(n), with the lexicographic orthonormal basis."""
    dg = so_dim(n)
    return Subspace.of_entries(n, dg, np.arange(dg), np.arange(dg), np.ones(dg))


def empty_space(n: int) -> Subspace:
    return Subspace.of_entries(n, 0, [], [], [])


def kernel_and_image(m, domain: Subspace) -> tuple[Subspace, Subspace]:
    """Orthonormal bases of the kernel and of the column space of m, which acts
    on the coefficients over the basis of ``domain``: one SVD, singular values
    below TAU_RANK_REL times the largest one counted as zero."""
    n, m = domain.ambient_n, np.asarray(m, dtype=float)
    if domain.dim == 0:
        return empty_space(n), empty_space(n)
    if m.shape != (domain.dim, domain.dim):
        raise ValueError(f"a {m.shape} matrix does not act on a domain of dim {domain.dim}")
    u, s, vh = np.linalg.svd(m)
    rank = int(np.sum(s > TAU_RANK_REL * s[0])) if s[0] > 0 else 0
    return dense_subspace(n, vh[rank:] @ domain.coords), dense_subspace(n, u[:, :rank].T @ domain.coords)


def dense_phi_space(spec) -> tuple[Subspace, Subspace, np.ndarray]:
    """h, m and theta by the dense route: the SVD of phi - id, the flag
    pattern for m where it spans the same space, theta = m phi m^T."""
    n = spec.n
    full = full_space(n)
    phi = phi_matrix(spec)
    h, m = kernel_and_image(phi - np.eye(full.dim), full)
    if spec.m_blocks == 1 and n >= 4:
        pattern = flag_complement_pattern(n)
        if pattern.dim == m.dim and np.max(residuals(m, pattern.coords)) < TAU_SUBSPACE:
            m = pattern
    return h, m, m.coords @ phi @ m.coords.T


def bracket_nonzeros(n: int, x_rows, y_rows) -> tuple[np.ndarray, ...]:
    """The nonzeros (a, b, lex position, value) of every bracket [x_a, y_b] of
    dense lex rows (liealg._bracket_join of their nonzeros)."""
    x_rows, y_rows = (np.asarray(r, dtype=float).reshape(-1, so_dim(n)) for r in (x_rows, y_rows))
    x_nz, y_nz = (np.nonzero(r) for r in (x_rows, y_rows))
    return _bracket_join(n, (*x_nz, x_rows[x_nz]), (*y_nz, y_rows[y_nz]), len(y_rows))


CHUNK_BYTES = 1 << 18


def bracket_row_chunks(n: int, x_rows, y_rows):
    """Yield (a, b, rows): the nonzero brackets [x_a, y_b] of bracket_nonzeros
    as dense lex-coordinate rows, at most CHUNK_BYTES of rows at a time."""
    a, b, pos, val = bracket_nonzeros(n, x_rows, y_rows)
    new_pair = np.concatenate(([True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])))[: len(a)]
    bounds = np.append(np.flatnonzero(new_pair), len(a))
    step = max(1, CHUNK_BYTES // (8 * so_dim(n)))
    for lo in range(0, len(bounds) - 1, step):
        edges = bounds[lo : lo + step + 1]  # the entries of bracket lo + p are edges[p]:edges[p + 1]
        rows = np.zeros((len(edges) - 1, so_dim(n)))
        rows[np.repeat(np.arange(len(rows)), np.diff(edges)), pos[edges[0] : edges[-1]]] = val[edges[0] : edges[-1]]
        yield a[edges[:-1]], b[edges[:-1]], rows


def bracket_coords(x: Subspace, y: Subspace, onto: Subspace) -> tuple[np.ndarray, ...]:
    """The nonzero coefficients (a, b, onto position, value) of the projections
    of every basis bracket onto ``onto``, one product per chunk."""
    parts = [(np.zeros(0, dtype=int),) * 3 + (np.zeros(0),)]
    for a, b, rows in bracket_row_chunks(x.ambient_n, x.coords, y.coords):
        coef = rows @ onto.coords.T
        p, r = np.nonzero(coef)  # row-major, and the chunks come in (a, b) order
        parts.append((a[p], b[p], r, coef[p, r]))
    return tuple(np.concatenate(col) for col in zip(*parts))


def bracket_leak(x: Subspace, y: Subspace, onto: Subspace) -> float:
    """The largest :func:`residuals` of a basis bracket's dense row."""
    chunks = bracket_row_chunks(x.ambient_n, x.coords, y.coords)
    return max([0.0] + [float(np.max(residuals(onto, rows), initial=0.0)) for _, _, rows in chunks])


def sparse_bracket_leak(x: Subspace, *blocks: Subspace) -> float:
    """The largest distance of a basis bracket [x_a, y] from the block of y,
    y a basis vector of one of the blocks, from nonzeros: the brackets of x
    with the stacked rows of the blocks, their coefficients over the rows of
    the same block, and each bracket minus its projection, the coefficients
    joined back with the entries of the block."""
    n, dg = x.ambient_n, so_dim(x.ambient_n)
    if any(blk.ambient_n != n for blk in blocks):
        raise ValueError("ambient dimension mismatch")
    dims = [blk.dim for blk in blocks]
    d, offset = sum(dims), np.cumsum([0] + dims)
    row, pos, val = (np.concatenate([blk.entries[t] + (offset[i] if t == 0 else 0) for i, blk in enumerate(blocks)]) for t in range(3))
    owner = np.repeat(np.arange(len(blocks)), dims)
    a, b, bpos, bval = _bracket_join(n, x.entries, (row, pos, val), d)
    pair = a * d + b
    bi, oi = _join(bpos, pos, dg)
    same_block = owner[b[bi]] == owner[row[oi]]
    bi, oi = bi[same_block], oi[same_block]
    keys, coef = sum_by_key(pair[bi] * d + row[oi], bval[bi] * val[oi])
    ci, oi = _join(keys % d, row, d)  # each coefficient with the entries of its row
    diff_keys = np.concatenate([pair * dg + bpos, keys[ci] // d * dg + pos[oi]])
    diff_keys, diff = sum_by_key(diff_keys, np.concatenate([bval, -(coef[ci] * val[oi])]))
    return float(np.sqrt(np.max(sum_by_key(diff_keys // dg, diff * diff)[1], initial=0.0)))
