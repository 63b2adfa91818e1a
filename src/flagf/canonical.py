"""Canonical affinor structures: polynomials in theta, fixed by signs.

On a space of order k every canonical f-structure (f^3 + f = 0) arises as

    f(theta) = (2/k) * sum_m ( sum_j zeta_j sin(2 pi m j / k) ) (theta^m - theta^(k-m)),

with zeta_j in {-1, 0, 1} not all zero, m and j running over 1..u,
u = k/2 - 1 for even k and (k-1)/2 for odd k.  Every canonical almost product
structure (P^2 = id) is P(theta) = sum_m a_m theta^m with

    a_m = a_{k-m} = (2/k) sum_j xi_j cos(2 pi m j / k)                (k odd)
    a_m = a_{k-m} = (1/k) (2 sum_j xi_j cos(2 pi m j / k) + (-1)^m xi_{k/2})   (k even)

over sign tuples xi in {-1, 1}.  Both formulas are discrete transforms: on
the eigenspace of theta at the angle 2 pi l / k, f acts as zeta_l J (and as 0
at the angle pi) and P acts as xi_l.  So a structure is fixed by its signs on
the angles theta has (:func:`phispace.theta_angles`), its sign key, and two
signature tuples give the same operator iff their keys agree.  This module
builds one structure per sign key on theta's blocks (every polynomial in
theta is block-diagonal where theta is), all keys of a kind as one stack per
block size, and labels them from exact sign tables.  On the m_blocks = 1
flag space theta has one angle on each of m1, m2, m3, so an f-structure is
fixed by its sign pair (eps1, eps2) on m1 and m2, and
:func:`sign_pair_matrices` builds it from that pair exactly; the class
engine reads those matrices, and verify ties them to the generated ones.
:func:`verify_structures` re-checks a list of structures on their blocks
(identities, reconstruction, theta-commutation) and bounds from those their
commutation with each other and with ad(h), :func:`negation_residual`
pairs each structure with its negative, and :func:`golden_action_check`
returns the largest entrywise deviation of the k = 4 and k = 6 structures
from their closed-form actions on the flag spaces: the images of all labels
come from one product chain in lex coordinates, and the lower triangle of a
skew image is the negated upper one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .liealg import lex_indices, lie_mats, nonzero_rows, sum_by_key
from .metricgeom import TripleSplit
from .phispace import PhiSpace, theta_angles
from .tolerances import TAU_GENERATED

# The paper's structures of orders 4 and 6, by their signature: zeta_1..zeta_u
# for f, xi_1..xi_{k/2} for P.  A structure takes the first label whose signs
# agree with its key on the angles of theta, "-" marking the negative.
F_LABEL_SIGNS = {
    4: {"f0": (1,)},
    6: {"f1": (1, 1), "f2": (0, 1), "f3": (1, 0), "f4": (1, -1)},
}
P_LABEL_SIGNS = {
    4: {"P0": (-1, 1)},
    6: {"P1": (-1, -1, -1), "P2": (-1, -1, 1), "P3": (-1, 1, -1), "P4": (-1, 1, 1)},
}


@dataclass(frozen=True, eq=False)
class CanonicalStructure:
    """One canonical structure: its blocks and the polynomial that built it.

    kind is "f-structure", "almost-complex" (an f-structure with trivial
    kernel) or "almost-product".  ``signature`` is the coefficient tuple
    (zeta or xi) that produced the operator; ``theta_polynomial`` lists
    a_0..a_{k-1} with the operator sum a_m theta^m, held on theta's blocks as
    ``PhiSpace.theta_blocks`` holds theta (``blocks``, read-only); ``matrix``,
    over m's basis, is scattered from them on first use.  ``sign_pair`` is
    (eps1, eps2), the signs of an f-structure on m1 and m2 of the m_blocks = 1
    flag space (:func:`sign_pair_matrices`), and None for any other one.
    """

    kind: str
    label: str
    signature: tuple[int, ...]
    theta_polynomial: tuple[float, ...]
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]
    sign_pair: tuple[int, int] | None = None

    @cached_property
    def matrix(self) -> np.ndarray:
        out = np.zeros((sum(rows.size for rows, _ in self.blocks),) * 2)
        for rows, mats in self.blocks:
            out[rows[:, :, None], rows[:, None, :]] = mats
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class StructureCheck:
    """Residuals from re-verifying one structure (~1e-15; verify compares them with TAU_STRUCTURE)."""

    label: str
    defining_residual: float
    polynomial_residual: float
    theta_commutation: float
    ad_invariance: float
    pairwise_commutation: float


def u_of_k(k: int) -> int:
    """Number of free coefficients: k/2 - 1 for even k, (k-1)/2 for odd."""
    if k < 3:
        raise ValueError(f"need k >= 3, got {k}")
    return k // 2 - 1 if k % 2 == 0 else (k - 1) // 2


def f_polynomial(k: int, zeta) -> np.ndarray:
    """Coefficients a_0..a_{k-1} of the f-structure for a zeta tuple, or a row of them per row of a stack."""
    zeta = np.asarray(zeta)
    poly = np.zeros(zeta.shape[:-1] + (k,))
    for m in range(1, u_of_k(k) + 1):
        am = (2.0 / k) * sum(zeta[..., j - 1] * np.sin(2.0 * np.pi * m * j / k) for j in range(1, zeta.shape[-1] + 1))
        poly[..., m] += am
        poly[..., k - m] -= am
    return poly


def p_polynomial(k: int, xi) -> np.ndarray:
    """Coefficients a_0..a_{k-1} of the almost product structure for xi, or a row per row of a stack."""
    xi = np.asarray(xi)
    u = u_of_k(k)
    poly = np.zeros(xi.shape[:-1] + (k,))
    for m in range(k):
        acc = 2.0 * sum(xi[..., j - 1] * np.cos(2.0 * np.pi * m * j / k) for j in range(1, min(u, xi.shape[-1]) + 1))
        if k % 2 == 0:
            acc += (-1) ** m * xi[..., u]
        poly[..., m] = acc / k
    return poly


def generate_f_structures(ps: PhiSpace) -> list[CanonicalStructure]:
    """All distinct canonical f-structures on the space, labelled.

    One structure per nonzero sign key in {-1, 0, 1} on the angles of theta
    below pi.  Labels follow the order-4 and order-6 tables (f0; f1..f4)
    where those apply, with "-" marking negatives; otherwise structures are
    labelled f1, f2, ... in key order.
    """
    return _structures(ps, product=False)


def generate_product_structures(ps: PhiSpace) -> list[CanonicalStructure]:
    """All distinct canonical almost product structures, labelled.

    One structure per sign key in {-1, 1} on the angles of theta up to pi;
    the signature xi has k/2 entries, the last one for the angle pi.
    """
    return _structures(ps, product=True)


def _structures(ps: PhiSpace, product: bool) -> list[CanonicalStructure]:
    """One structure per nonzero sign key, keys in itertools.product order.

    The signature is the first zeta (xi) in that order with the key: the key
    on the angles theta has, -1 on the others.  A label is the first of: a
    sign-table entry or its negative; I or -I (P only); the negative of an
    earlier structure's label; a fresh label.  The operators are summed on
    theta's blocks, one stack per block size, and their defining identity
    is checked on each stack.
    """
    k = ps.spec.k
    width = k // 2 if product else u_of_k(k)
    angles = theta_angles(ps.spec)
    on = [l for l in angles if l <= width]
    table = (P_LABEL_SIGNS if product else F_LABEL_SIGNS).get(k, {})
    named = [(name, tuple(signs[l - 1] for l in on)) for name, signs in table.items()]
    keys = [key for key in itertools.product((-1, 1) if product else (-1, 0, 1), repeat=len(on)) if any(key)]
    signatures = np.full((len(keys), width), -1)
    signatures[:, np.subtract(on, 1)] = keys
    polys = (p_polynomial if product else f_polynomial)(k, signatures)

    stacks = [(rows, _polynomial_blocks(polys, p)) for (rows, _), p in zip(ps.theta_blocks, ps.theta_block_powers)]
    res = np.max([_defining_residuals(stack, product) for _, stack in stacks], axis=0, initial=0.0)
    if res.max(initial=0.0) > TAU_GENERATED:  # the generating formulas guarantee the defining identities
        raise RuntimeError(f"generated operator violates its identity ({res[np.argmax(res > TAU_GENERATED)]:.3e})")

    paired = not product and ps.spec.m_blocks == 1
    at = [l - 1 for l in flag_block_angles(k)[:2]]  # the signs of m1 and m2 in a signature
    labels: dict[tuple[int, ...], str] = {}
    out: list[CanonicalStructure] = []
    fresh = 0
    for s, (key, signature, poly) in enumerate(zip(keys, signatures.tolist(), polys.tolist())):
        neg = tuple(-x for x in key)
        label = None
        for name, ref in named:
            if ref in (key, neg):
                label = name if ref == key else "-" + name
                break
        if label is None and product and len(set(key)) == 1:
            label = "I" if key[0] == 1 else "-I"
        if label is None and neg in labels:
            label = labels[neg][1:] if labels[neg].startswith("-") else "-" + labels[neg]
        if label is None:
            fresh += 1
            label = f"{'P' if product else 'f'}{fresh}"
        labels[key] = label
        if product:
            kind = "almost-product"
        else:  # f is 0 at the angle pi and on the angles whose sign is 0
            kind = "almost-complex" if 0 not in key and k // 2 not in angles else "f-structure"
        pair = (signature[at[0]], signature[at[1]]) if paired else None
        blocks = tuple((rows, stack[s]) for rows, stack in stacks)
        out.append(CanonicalStructure(kind, label, tuple(signature), tuple(poly), blocks, pair))
    return out


def _polynomial_blocks(coeffs: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Read-only sum_m coeffs[:, m] powers[m], (S, k) by (k, count, b, b), term by term: each row's own sum."""
    out = np.zeros((len(coeffs), *powers.shape[1:]))
    for c, p in zip(coeffs.T, powers):
        out += c[:, None, None, None] * p
    out.flags.writeable = False
    return out


def _block_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of broadcast block stacks, summed elementwise in order: its bits depend on no stack or BLAS kernel."""
    out = a[..., :, :1] * b[..., :1, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j : j + 1] * b[..., j : j + 1, :]
    return out


def _defining_residuals(f: np.ndarray, product) -> np.ndarray:
    """max |F^2 - I| (where ``product``) or max |F^3 + F| of each structure of an (S, count, b, b) stack."""
    sq = _block_product(f, f)
    return np.where(product, _max_abs(sq - np.eye(f.shape[-1])), _max_abs(_block_product(sq, f) + f))


def flag_block_angles(k: int) -> tuple[int, int, int]:
    """The angle index l of theta on m1, m2 and m3 of the m_blocks = 1 flag
    space, folded to 1 <= l <= k/2 as :func:`phispace.theta_angles` folds
    them: (1, k/2 - 1, k/2).  B has the eigen-angle indices 0 (its leading
    1), +-1 (its rotation) and k/2 (each -1), and m1, m2, m3 are the lex
    positions (0, 1..2), (1..2, j) and (0, j), j >= 3, so theta turns them by
    the sums 1, 1 + k/2 and k/2."""
    return tuple(min(a % k, -a % k) for a in (1, 1 + k // 2, k // 2))


def sign_pair_matrices(pairs, split: TripleSplit) -> np.ndarray:
    """The (S, d, d) stack eps1 J1 (+) eps2 J2 (+) 0 over the split's block
    basis, one matrix per sign pair (eps1, eps2): the m_blocks = 1
    f-structures, exactly.

    On the eigenspace of theta at the angle 2 pi l / k an f-structure acts as
    zeta_l J, J = (theta - theta^-1) / (2 sin(2 pi l / k)) there, and as 0 at
    the angle pi (see the module docstring).  theta has one angle on each
    block (:func:`flag_block_angles`): m1 sits at l = 1, m2 at l = k/2 - 1
    and m3 at k/2, so f is zeta_1 J1 on m1, zeta_(k/2 - 1) J2 on m2 and 0 on
    m3, and its signature enters only through the pair of those two signs.
    J1 and J2 are the split's ``complex_structure``, oriented as theta turns
    each block.  Neither the blocks, nor J, nor the bracket tensor of m
    depends on k, so the class conditions are functions of the sign pair
    alone; k decides only which pairs are canonical.  At k = 4 the two
    blocks share the angle l = 1, so eps1 = eps2 = zeta_1 and only +-(1, 1)
    occur; from k = 6 on, every pair but (0, 0).  J is a signed
    permutation, so every entry is exactly 0 or +-1, at most one per row."""
    return sign_pair_rows(pairs, split)[..., None] * split.complex_structure


def sign_pair_rows(pairs, split: TripleSplit) -> np.ndarray:
    """The (S, d) signs of each sign pair (eps1, eps2) on the block of each
    basis vector of the split: eps1 on m1, eps2 on m2, 0 on m3.  Row r of
    eps1 J1 (+) eps2 J2 (+) 0 is row r of J times the sign of row r."""
    eps = np.zeros((len(pairs), 4))  # indexed by the block, 1..3, of a basis vector
    eps[:, 1:3] = np.reshape(pairs, (-1, 2))
    return eps[:, split.block_index]


def _max_abs(a: np.ndarray) -> np.ndarray:
    """max |entry| of each structure of an (S, count, b, b) block stack."""
    return np.max(np.abs(a), axis=(-3, -2, -1), initial=0.0)


def structure_by_label(structures, label: str) -> CanonicalStructure:
    for cs in structures:
        if cs.label == label:
            return cs
    known = ", ".join(cs.label for cs in structures)
    raise KeyError(f"unknown structure {label!r} (known: {known})")


def verify_structures(structures, ps: PhiSpace) -> list[StructureCheck]:
    """Re-check each structure of the list (on ps.theta's blocks, k coefficients
    each) in O(S) block products, elementwise in a fixed order: measure its own
    defining identity, polynomial reconstruction and commutation with theta,
    and bound from those its commutation with the list and with ad(h).

    Write F_b = sum_m c_{b,m} theta^m + E_b, r_b = max |E_b| the reconstruction
    residual, summed as generation sums it.  For any X, [X, theta^m] telescopes
    to sum_{i<m} theta^i [X, theta] theta^(m-1-i), and max |X Y Z| <= |X|_inf
    max |Y| |Z|_1 (row and column sums), so with
    K_m = sum_{i<m} |theta^i|_inf |theta^(m-1-i)|_1

        max |[X, F_b]| <= max |[X, theta]| sum_m |c_{b,m}| K_m + (|X|_inf + |X|_1) r_b.

    X = F_a gives ``pairwise_commutation`` of F_a, the right side maxed over b
    term by term: t_a max_b (...) + (|F_a|_inf + |F_a|_1) max_b r_b, with
    t_a = max |[F_a, theta]|.  X = ad(h_a) on m, maxed over a, gives
    ``ad_invariance`` of F_b: t_h sum_m |c_{b,m}| K_m + N_A r_b, with
    t_h = max_a max |[A_a, theta]| from one join of ad(h) with theta and
    N_A = max_a (|A_a|_inf + |A_a|_1)."""
    structures = list(structures)
    if not structures:
        return []
    k, count = ps.spec.k, len(structures)
    coeffs = np.array([cs.theta_polynomial for cs in structures]).reshape(count, k)
    product = np.array([cs.kind == "almost-product" for cs in structures])

    defining, polynomial, theta_commutation = np.zeros((3, count))
    f_sums, power_sums = np.zeros((2, count)), np.zeros((2, k))  # max row and column sums of |F_b| and |theta^m|
    for i, ((_, th), powers) in enumerate(zip(ps.theta_blocks, ps.theta_block_powers)):
        f = np.array([cs.blocks[i][1] for cs in structures])  # (S, count, b, b)
        defining = np.maximum(defining, _defining_residuals(f, product))
        polynomial = np.maximum(polynomial, _max_abs(_polynomial_blocks(coeffs, powers) - f))
        theta_commutation = np.maximum(theta_commutation, _max_abs(_block_product(f, th) - _block_product(th, f)))
        for stack, sums in ((f, f_sums), (powers, power_sums)):
            a = np.abs(stack)
            np.maximum(sums, [a.sum(axis=-1).max(axis=(1, 2)), a.sum(axis=-2).max(axis=(1, 2))], out=sums)

    k_m = np.concatenate(([0.0], np.convolve(*power_sums)[: k - 1]))
    reach = sum(np.abs(c) * k_m[m] for m, c in enumerate(coeffs.T))  # term by term: a row's sum is its own
    pairwise = theta_commutation * np.max(reach) + f_sums.sum(axis=0) * np.max(polynomial)

    d = ps.m.dim
    a, x, z, v = ps.ad_h_nonzeros
    by_row, by_col = (np.bincount(a * d + i, np.abs(v), ps.h.dim * d).reshape(-1, d) for i in (x, z))
    ad_norm = np.max(by_row.max(axis=1) + by_col.max(axis=1), initial=0.0)  # N_A
    ad_invariance = _ad_commutator(ps.theta, ps) * reach + ad_norm * polynomial

    columns = (defining, polynomial, theta_commutation, ad_invariance, pairwise)
    return [StructureCheck(cs.label, *values) for cs, *values in zip(structures, *(c.tolist() for c in columns))]


def negation_residual(structures) -> float:
    """max |F + G| over the structures F of the list, G the one labelled as the
    negative of F ("x" and "-x"); infinite if some F has no such partner.
    One stacked sum per block size over each pair once (|G + F| = |F + G|)."""
    by_label = {cs.label: s for s, cs in enumerate(structures)}  # a repeated label names its last structure
    pairs = [(a, by_label.get(label[1:] if label.startswith("-") else "-" + label)) for label, a in by_label.items()]
    if any(b is None for _, b in pairs):
        return np.inf
    a, b = np.transpose([(a, b) for a, b in pairs if a < b]).reshape(2, -1)
    stacks = map(np.array, zip(*([mats for _, mats in cs.blocks] for cs in structures)))  # one per block size
    return max((float(np.max(np.abs(f[a] + f[b]), initial=0.0)) for f in stacks), default=0.0)


def _ad_commutator(x: np.ndarray, ps: PhiSpace) -> float:
    """max |A_a x - x A_a| over the ad(h_a), for one (d, d) matrix x, joined
    from the nonzeros of ad(h) and of x: at m_blocks = 1 each entry is one
    product minus one, as in A @ x."""
    a, r, c, v = ps.ad_h_nonzeros
    d = ps.m.dim
    idx, val = nonzero_rows(x, x.T)
    ax, xa = ((a * d + r) * d)[:, None] + idx[0][c], (a[:, None] * d + idx[1][r]) * d + c[:, None]
    keys = np.concatenate([ax.ravel(), xa.ravel()])
    terms = np.concatenate([(v[:, None] * val[0][c]).ravel(), (-(val[1][r] * v[:, None])).ravel()])
    return float(np.max(np.abs(sum_by_key(keys, terms)[1]), initial=0.0))


def expected_flag_action(label: str, s: np.ndarray) -> np.ndarray:
    """Closed-form action of the named structure on a flag-space tangent
    matrix S, or on each of a (..., n, n) stack (S must have the m pattern).

    f0 and f1: (0,1) <- S[0,2], (0,2) <- -S[0,1], (1,j) <- -S[2,j],
    (2,j) <- S[1,j].  f2 keeps only the (1,j)/(2,j) part, f3 only the
    (0,1)/(0,2) part, f4 flips the sign of the (1,j)/(2,j) part of f1.
    """
    t = np.zeros(s.shape)
    if label in ("f0", "f1", "f3", "f4"):
        t[..., 0, 1] = s[..., 0, 2]
        t[..., 0, 2] = -s[..., 0, 1]
    if label in ("f0", "f1", "f2"):
        t[..., 1, 3:] = -s[..., 2, 3:]
        t[..., 2, 3:] = s[..., 1, 3:]
    elif label == "f4":
        t[..., 1, 3:] = s[..., 2, 3:]
        t[..., 2, 3:] = -s[..., 1, 3:]
    return t - t.swapaxes(-1, -2)


def golden_action_check(ps: PhiSpace, structures) -> float:
    """The largest entrywise deviation of an order-4/order-6 f-structure's
    action from its closed form, over each basis coordinate and a dense
    element.  ``structures`` are the f-structures of ps, as
    generate_f_structures gives them.

    The images of all labels come as one product chain in lex coordinates,
    x C^T F^T C / sqrt(2) for the probes' rows x, C = ps.m.coords: the upper
    triangles of the image matrices.  Their lower triangles are the negated
    upper ones, so the deviation is that of the dense matrices."""
    k, n = ps.spec.k, ps.spec.n
    if k not in (4, 6) or ps.spec.m_blocks != 1:
        raise ValueError("closed-form actions are tabulated for the m_blocks=1 spaces of order 4 or 6")
    labels = sorted(F_LABEL_SIGNS[k])

    # Probes: every basis element of m, then one dense element.
    c = ps.m.coords
    rows = np.vstack([c, (np.arange(1.0, ps.m.dim + 1.0) / 3.0) @ c])
    probes = lie_mats(n, rows)
    f = np.array([structure_by_label(structures, label).matrix for label in labels])
    x = np.sqrt(2.0) * (rows / np.sqrt(2.0))  # lie_rows(probes), bit for bit, without re-checking their skew symmetry
    y = (x @ c.T)[..., None]  # (probes, d, 1)
    # F y one matrix-vector product per (label, probe): one matrix product over
    # the probes would sum the dense probe's image in another order
    got = (f[:, None] @ y)[..., 0] @ c / np.sqrt(2.0)  # (labels, probes, lex)
    want = np.array([expected_flag_action(label, probes)[(..., *lex_indices(n))] for label in labels])
    return float(np.abs(got - want).max())
