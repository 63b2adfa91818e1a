"""Finite-order inner automorphisms of SO(n) and the induced tangent setup.

An automorphism is conjugation by an orthogonal block matrix

    B = diag{1, eps_1, ..., eps_m, -1, ..., -1},

where eps_t is the 2x2 rotation by 2*pi*t/k.  The induced map phi = Ad(B) on
so(n) has fixed-point subalgebra h = ker(phi - id) and canonical complement
m = image(phi - id); theta is phi restricted to m.  These are the data on
which canonical structures and invariant metrics are built.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .liealg import (
    EndoOnM,
    Subspace,
    bracket_row_chunks,
    brackets,
    image,
    lex_indices,
    lie_mats,
    lie_rows,
    nullspace,
    so_dim,
)
from .tolerances import TAU_B_ORTH, TAU_NONSINGULAR, TAU_ORDER, TAU_SUBSPACE, TAU_THETA_POWER


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


@dataclass(frozen=True, eq=False)
class PhiSpace:
    """A reductive homogeneous setup on so(n) derived from an automorphism.

    Attributes
    ----------
    spec : AutomorphismSpec
    phi : EndoOnM
        Ad(B) on all of so(n), X -> B X B^-1.
    h : Subspace
        Fixed-point subalgebra ker(phi - id).
    m : Subspace
        Canonical complement image(phi - id).
    theta : EndoOnM
        Restriction of phi to m.
    """

    spec: AutomorphismSpec
    phi: EndoOnM
    h: Subspace
    m: Subspace
    theta: EndoOnM

    @cached_property
    def ad_h_nonzeros(self) -> tuple[np.ndarray, ...]:
        """The nonzeros of ad(h) on m as arrays (a, row, column, value), sorted:
        ``value`` is the m-coefficient ``row`` of [h_a, m_column].  Only the
        nonzero brackets are projected, one product per chunk of them."""
        d = self.m.dim
        keys, values = [np.zeros(0, dtype=int)], [np.zeros(0)]
        for a, b, rows in bracket_row_chunks(self.spec.n, self.h.coords, self.m.coords):
            coef = rows @ self.m.coords.T
            p, row = np.nonzero(coef)
            keys.append((a[p] * d + row) * d + b[p])
            values.append(coef[p, row])
        keys, values = np.concatenate(keys), np.concatenate(values)
        order = np.argsort(keys)
        keys, values = keys[order], values[order]
        return keys // (d * d), keys // d % d, keys % d, values


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

    @property
    def all_pass(self) -> bool:
        return self.agree and self.direct_sum


def rotation_block(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, s], [-s, c]])


def build_automorphism(n: int, m_blocks: int = 1, k: int = 4) -> AutomorphismSpec:
    """Construct B = diag{1, eps_1, ..., eps_m, -1, ..., -1} of order k.

    Requires n >= 4, k even and > 2, k >= 2*m_blocks - 2, and enough rows for
    the blocks (n - 2*m_blocks - 1 >= 0).  Conjugation by B is verified to
    have order exactly k as an operator on so(n); a degenerate parameter
    combination that collapses the order is rejected.
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

    spec = AutomorphismSpec(n=n, m_blocks=m_blocks, k=k, b=b)
    order = _conjugation_order(spec, cap=k)
    if order != k:
        raise ValueError(
            f"conjugation by B has order {order}, not {k} "
            f"(degenerate parameters n={n}, m_blocks={m_blocks}, k={k})"
        )
    return spec


def phi_matrix(spec: AutomorphismSpec) -> np.ndarray:
    """Matrix of X -> B X B^-1 over the lexicographic orthonormal so(n) basis (one stacked conjugation)."""
    return lie_rows(spec.b @ lie_mats(spec.n, np.eye(so_dim(spec.n))) @ spec.b.T).T


def phi_homomorphism_residuals(ps: PhiSpace, xy: np.ndarray) -> tuple[float, float]:
    """max |phi[X, Y] - [phi X, phi Y]| (Frobenius) and max |<phi X, phi Y> - <X, Y>|
    over a (P, 2, n, n) stack of skew pairs (X, Y)."""
    xs, ys = xy[:, 0], xy[:, 1]
    px, py = ps.phi.apply_mats(xs), ps.phi.apply_mats(ys)
    dev_b = np.linalg.norm(ps.phi.apply_mats(brackets(xs, ys)) - brackets(px, py), axis=(1, 2))
    dev_iso = np.abs(np.sum(px * py, axis=(1, 2)) - np.sum(xs * ys, axis=(1, 2)))
    return float(np.max(dev_b, initial=0.0)), float(np.max(dev_iso, initial=0.0))


def _conjugation_order(spec: AutomorphismSpec, cap: int) -> int | None:
    p = phi_matrix(spec)
    dg = p.shape[0]
    acc = np.eye(dg)
    for j in range(1, cap + 1):
        acc = p @ acc
        if np.max(np.abs(acc - np.eye(dg))) < TAU_ORDER:
            return j
    return None


def build_phi_space(spec: AutomorphismSpec) -> PhiSpace:
    """Compute phi, the fixed subalgebra, the canonical complement and theta.

    For the single-rotation-block flag spaces the complement basis is chosen
    block-adapted (rows (0,1), (0,2); then (1,j), (2,j); then (0,j), j >= 3),
    which keeps downstream metric computations exact.  Otherwise an SVD basis
    of image(phi - id) is used.
    """
    n = spec.n
    full = Subspace.full(n)
    phi = EndoOnM(full, phi_matrix(spec))
    a = phi.matrix - np.eye(full.dim)
    h = nullspace(a, full)
    m = image(a, full)

    if spec.m_blocks == 1 and n >= 4:
        pattern = flag_complement_pattern(n)
        if pattern.dim == m.dim and np.max(m.residuals(pattern.coords)) < TAU_SUBSPACE:
            m = pattern

    theta = EndoOnM(m, m.coords @ phi.matrix @ m.coords.T)
    _check_phi_space_invariants(spec, phi, h, m, theta)
    return PhiSpace(spec=spec, phi=phi, h=h, m=m, theta=theta)


def flag_complement_pattern(n: int) -> Subspace:
    """Block-adapted complement for SO(n)/SO(2)xSO(n-3): coordinates (0,1),
    (0,2); (1,j), (2,j); (0,j), for j >= 3."""
    position = np.zeros((n, n), dtype=int)
    position[lex_indices(n)] = np.arange(so_dim(n))
    js = np.arange(3, n)
    cols = np.concatenate([position[0, 1:3], position[1, js], position[2, js], position[0, js]])
    rows = np.zeros((len(cols), so_dim(n)))
    rows[np.arange(len(cols)), cols] = 1.0
    return Subspace(n, rows)


def _check_phi_space_invariants(spec, phi, h, m, theta) -> None:
    dg = so_dim(spec.n)
    if h.dim + m.dim != dg:
        raise RuntimeError(f"dim h + dim m = {h.dim}+{m.dim} != {dg}")
    # Reductivity: [h, m] stays in m (a zero bracket leaks nothing).
    for _, _, rows in bracket_row_chunks(spec.n, h.coords, m.coords):
        if np.max(m.residuals(rows), initial=0.0) > TAU_SUBSPACE:
            raise RuntimeError("reductivity failure: [h, m] leaves m")
    if not _nonsingular(theta.matrix - np.eye(m.dim)):
        raise RuntimeError("theta has a fixed vector")
    if m.dim:
        tk = np.linalg.matrix_power(theta.matrix, spec.k)
        if np.max(np.abs(tk - np.eye(m.dim))) > TAU_THETA_POWER:
            raise RuntimeError("theta^k is not the identity")


def check_regularity(ps: PhiSpace) -> RegularityReport:
    """Evaluate the equivalent decomposition conditions on a PhiSpace.

    Checks: so(n) = h (+) image(A) as an orthogonal direct sum; A restricted
    to its image is nonsingular; ker A^2 = ker A; and theta has no fixed
    vector.  The four answers agree on every well-formed space.  ker A is
    ps.h, as :func:`build_phi_space` computed it.
    """
    full = ps.phi.domain
    a = ps.phi.matrix - np.eye(full.dim)

    dims_ok = ps.h.dim + ps.m.dim == full.dim
    cross = ps.h.coords @ ps.m.coords.T if ps.h.dim and ps.m.dim else np.zeros((1, 1))
    direct_sum = bool(dims_ok and np.max(np.abs(cross)) < TAU_SUBSPACE)

    return RegularityReport(
        direct_sum=direct_sum,
        nonsingular_on_image=_nonsingular(ps.m.coords @ a @ ps.m.coords.T),
        kernel_square_stable=ps.h.dim == nullspace(a @ a, full).dim,
        theta_no_fixed_vector=_nonsingular(ps.theta.matrix - np.eye(ps.m.dim)),
    )


def _nonsingular(mat: np.ndarray) -> bool:
    """Smallest singular value above TAU_NONSINGULAR (True for an empty matrix)."""
    return not mat.size or bool(np.linalg.svd(mat, compute_uv=False)[-1] > TAU_NONSINGULAR)


def fixed_subalgebra_dim(n: int, m_blocks: int) -> int:
    """Expected dim of h away from degenerate rotation angles:
    m_blocks + dim so(n - 2*m_blocks - 1)."""
    r = n - 2 * m_blocks - 1
    return m_blocks + r * (r - 1) // 2
