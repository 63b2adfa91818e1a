"""Dense linear algebra over so(n).

Everything downstream works with real skew-symmetric n x n matrices, the
commutator bracket, the trace form <X, Y> = Tr(X^T Y), and orthonormal
subspaces of so(n).  Coordinates are always taken with respect to the fixed
orthonormal basis (E_ij - E_ji)/sqrt(2), i < j, ordered lexicographically in
(i, j); this pins down every operator matrix and report for reproducibility.

Matrices are small (the benchmark goes up to n = 24, so dim so(n) <= 276) and
entries are O(1).  Each threshold, and the scale it applies to, is named in
:mod:`flagf.tolerances`.

Structural quantities (ad(h) on m, reductivity, the bracket tensor of m) all
come from one batched kernel, :func:`bracket_rows`: for each basis element
x_a it computes the lex coordinates of [x_a, y_b] for a whole basis y with a
single (n, n) @ (n, n * dim y) product.  :func:`bracket_coords` stacks its
output, optionally projected onto a subspace, and :func:`ad_matrix` is the
one-element case.  Memory stays at one (dim y, dim so(n)) block per step; no
(dim x, dim y, n, n) array is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .tolerances import TAU_ORTH, TAU_RANK_REL, TAU_SKEW, TAU_SUBSPACE

_SQRT2 = np.sqrt(2.0)


def so_dim(n: int) -> int:
    """Dimension n(n-1)/2 of so(n)."""
    return n * (n - 1) // 2


def lex_pairs(n: int) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, in lexicographic order (0-based)."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@cache
def lex_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays of the lex basis, ``np.triu_indices(n, 1)``.

    Cached per n; the arrays are read-only.
    """
    iu = np.triu_indices(n, k=1)
    for a in iu:
        a.flags.writeable = False
    return iu


@dataclass(frozen=True, eq=False)
class LieElement:
    """An element of so(n): a real skew-symmetric n x n matrix.

    Skew-symmetry is enforced on construction within TAU_SKEW and the stored
    matrix is then symmetrized exactly, so ``mat == -mat.T`` holds bitwise.
    Instances are immutable; arithmetic returns new elements.
    """

    n: int
    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=float)
        if mat.shape != (self.n, self.n):
            raise ValueError(f"expected a {self.n}x{self.n} matrix, got {mat.shape}")
        dev = np.max(np.abs(mat + mat.T)) if self.n else 0.0
        if dev > TAU_SKEW * max(1.0, np.max(np.abs(mat))):
            raise ValueError(f"matrix is not skew-symmetric (deviation {dev:.3e})")
        mat = 0.5 * (mat - mat.T)
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)

    def __add__(self, other: "LieElement") -> "LieElement":
        _check_same_n(self, other)
        return LieElement(self.n, self.mat + other.mat)

    def __sub__(self, other: "LieElement") -> "LieElement":
        _check_same_n(self, other)
        return LieElement(self.n, self.mat - other.mat)

    def __neg__(self) -> "LieElement":
        return LieElement(self.n, -self.mat)

    def __mul__(self, c: float) -> "LieElement":
        return LieElement(self.n, c * self.mat)

    __rmul__ = __mul__

    @property
    def norm(self) -> float:
        """Frobenius norm, i.e. sqrt(Tr(X^T X))."""
        return float(np.linalg.norm(self.mat))


def _check_same_n(x: LieElement, y: LieElement) -> None:
    if x.n != y.n:
        raise ValueError(f"dimension mismatch: {x.n} vs {y.n}")


def skew(mat) -> LieElement:
    """Wrap a square matrix as a LieElement (skew-symmetric within TAU_SKEW)."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return LieElement(mat.shape[0], mat)


def basis_element(n: int, i: int, j: int, normalized: bool = True) -> LieElement:
    """E_ij - E_ji (0-based), divided by sqrt(2) when ``normalized``."""
    if not (0 <= i < j < n):
        raise ValueError(f"need 0 <= i < j < n, got ({i}, {j}) for n={n}")
    m = np.zeros((n, n))
    v = 1.0 / _SQRT2 if normalized else 1.0
    m[i, j] = v
    m[j, i] = -v
    return LieElement(n, m)


def lie_coords(x: LieElement) -> np.ndarray:
    """Coordinates of x in the orthonormal lexicographic basis of so(n)."""
    return lie_rows(x.mat)


def lie_rows(mats) -> np.ndarray:
    """Lex coordinates of each matrix of a (..., n, n) stack (inverse of :func:`lie_mats`)."""
    return _SQRT2 * mats[(..., *lex_indices(mats.shape[-1]))]


def lie_from_coords(n: int, v) -> LieElement:
    """Inverse of :func:`lie_coords`."""
    v = np.asarray(v, dtype=float)
    if v.shape != (so_dim(n),):
        raise ValueError(f"expected {so_dim(n)} coordinates for so({n}), got {v.shape}")
    return LieElement(n, lie_mats(n, v[None])[0])


def lie_mats(n: int, rows) -> np.ndarray:
    """Skew matrices with the given lex coordinates, one per row: (rows, n, n)."""
    rows = np.asarray(rows, dtype=float)
    i, j = lex_indices(n)
    m = np.zeros((rows.shape[0], n, n))
    m[:, i, j] = rows / _SQRT2
    return m - m.transpose(0, 2, 1)


def bracket(x: LieElement, y: LieElement) -> LieElement:
    """Commutator [X, Y] = XY - YX."""
    _check_same_n(x, y)
    return LieElement(x.n, brackets(x.mat, y.mat))


def brackets(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Commutators X_p Y_p - Y_p X_p of two (..., n, n) stacks of skew matrices."""
    m = xs @ ys
    return m - m.swapaxes(-1, -2)


def trace_form(x: LieElement, y: LieElement) -> float:
    """Tr(X^T Y); positive definite on skew matrices.

    This is the unnormalized pairing; metric code multiplies by an explicit
    positive constant kappa where an overall normalization is wanted.
    """
    _check_same_n(x, y)
    return float(np.sum(x.mat * y.mat))


def random_skew(rng: np.random.Generator, n: int) -> LieElement:
    a = rng.standard_normal((n, n))
    return LieElement(n, a - a.T)


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

    @cached_property
    def basis(self) -> tuple[LieElement, ...]:
        return tuple(lie_from_coords(self.ambient_n, row) for row in self.coords)

    def coords_of(self, x: LieElement) -> np.ndarray:
        """Coefficients of the orthogonal projection of x onto this subspace."""
        if x.n != self.ambient_n:
            raise ValueError(f"dimension mismatch: {x.n} vs ambient {self.ambient_n}")
        return self.coords @ lie_coords(x)

    def lift(self, v) -> LieElement:
        """Element with the given coefficients in this basis."""
        v = np.asarray(v, dtype=float)
        return lie_from_coords(self.ambient_n, self.coords.T @ v)

    def project(self, x: LieElement) -> LieElement:
        """Trace-form-orthogonal projection of x onto this subspace."""
        return LieElement(x.n, self.project_rows(lie_coords(x)[None])[0])

    def project_rows(self, rows: np.ndarray) -> np.ndarray:
        """Projections of lex-coordinate rows onto this subspace, as a (rows, n, n) stack."""
        return lie_mats(self.ambient_n, (self.coords.T @ (self.coords @ rows[..., None]))[..., 0])

    def member_residual(self, x: LieElement) -> float:
        """Distance from x to this subspace, relative to |x| (0 for x = 0)."""
        if x.n != self.ambient_n:
            raise ValueError(f"dimension mismatch: {x.n} vs ambient {self.ambient_n}")
        return float(self.relative_residuals(lie_coords(x)[None])[0])

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
    def span(n: int, elements) -> "Subspace":
        """Orthonormalized span of the given LieElements (SVD based)."""
        rows = np.array([lie_coords(e) for e in elements])
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

    Column j holds the coefficients of the image of basis vector j.  Operators
    act on LieElements by projecting to the domain first; callers that need
    exactness keep their arguments inside the domain.
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

    def apply(self, x: LieElement) -> LieElement:
        return LieElement(x.n, self.apply_mats(x.mat[None])[0])

    def apply_mats(self, mats: np.ndarray) -> np.ndarray:
        """Images of a (P, n, n) stack of skew matrices, one matrix-vector product per factor."""
        c = self.domain.coords
        return lie_mats(self.domain.ambient_n, (c.T @ (self.matrix @ (c @ lie_rows(mats)[..., None])))[..., 0])

    def __matmul__(self, other: "EndoOnM") -> "EndoOnM":
        return EndoOnM(self.domain, self.matrix @ other.matrix)

    def __add__(self, other: "EndoOnM") -> "EndoOnM":
        return EndoOnM(self.domain, self.matrix + other.matrix)

    def __sub__(self, other: "EndoOnM") -> "EndoOnM":
        return EndoOnM(self.domain, self.matrix - other.matrix)

    def __neg__(self) -> "EndoOnM":
        return EndoOnM(self.domain, -self.matrix)

    def __mul__(self, c: float) -> "EndoOnM":
        return EndoOnM(self.domain, c * self.matrix)

    __rmul__ = __mul__

    def power(self, m: int) -> "EndoOnM":
        return EndoOnM(self.domain, np.linalg.matrix_power(self.matrix, m))

    @staticmethod
    def identity(domain: Subspace) -> "EndoOnM":
        return EndoOnM(domain, np.eye(domain.dim))

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


def _as_matrix_and_domain(op, domain: Subspace | None):
    if isinstance(op, EndoOnM):
        return op.matrix, op.domain
    m = np.asarray(op, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if domain is None:
        raise ValueError("a raw matrix needs an explicit domain subspace")
    if domain.dim != m.shape[0]:
        raise ValueError(f"matrix size {m.shape[0]} != domain dim {domain.dim}")
    return m, domain


def nullspace(op, domain: Subspace | None = None) -> Subspace:
    """Orthonormal basis of the kernel of an operator.

    Singular values below TAU_RANK_REL times the largest one are treated as
    zero.  The result lives in the ambient so(n) of the operator's domain.
    """
    m, dom = _as_matrix_and_domain(op, domain)
    if dom.dim == 0:
        return Subspace.empty(dom.ambient_n)
    _, s, vh = np.linalg.svd(m)
    rank = int(np.sum(s > TAU_RANK_REL * s[0])) if s[0] > 0 else 0
    return Subspace(dom.ambient_n, vh[rank:] @ dom.coords)


def image(op, domain: Subspace | None = None) -> Subspace:
    """Orthonormal basis of the column space of an operator."""
    m, dom = _as_matrix_and_domain(op, domain)
    if dom.dim == 0:
        return Subspace.empty(dom.ambient_n)
    u, s, _ = np.linalg.svd(m)
    rank = int(np.sum(s > TAU_RANK_REL * s[0])) if s[0] > 0 else 0
    return Subspace(dom.ambient_n, u[:, :rank].T @ dom.coords)


def bracket_rows(n: int, x_rows, y_rows):
    """Yield, for each lex-coordinate row x_a of ``x_rows``, the lex
    coordinates of every [x_a, y_b] as a (len(y_rows), dim so(n)) array.

    Rows need not be orthonormal (``Subspace.coords`` or single elements both
    work).  Each step is one (n, n) @ (n, n * len(y_rows)) product, and the
    coordinates are read off as sqrt(2) (P_ij - P_ji), P = X Y, exactly as
    :func:`bracket` and :func:`lie_coords` do element by element.
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


def ad_matrix(h: LieElement, space: Subspace) -> np.ndarray:
    """Matrix of X -> [h, X] compressed to the given subspace basis.

    Meaningful when the subspace is invariant under ad(h); column j holds the
    coefficients of the projection of [h, basis_j].
    """
    if h.n != space.ambient_n:
        raise ValueError(f"dimension mismatch: {h.n} vs ambient {space.ambient_n}")
    b = next(bracket_rows(h.n, lie_coords(h)[None], space.coords))
    return (b @ space.coords.T).T


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
