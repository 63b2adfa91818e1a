"""Canonical affinor structures: polynomials in theta.

On a space of order k every canonical f-structure (f^3 + f = 0) arises as

    f(theta) = (2/k) * sum_m ( sum_j zeta_j sin(2 pi m j / k) ) (theta^m - theta^(k-m)),

with zeta_j in {-1, 0, 1} not all zero, m and j running over 1..u,
u = k/2 - 1 for even k and (k-1)/2 for odd k.  Every canonical almost product
structure (P^2 = id) is P(theta) = sum_m a_m theta^m with

    a_m = a_{k-m} = (2/k) sum_j xi_j cos(2 pi m j / k)                (k odd)
    a_m = a_{k-m} = (1/k) (2 sum_j xi_j cos(2 pi m j / k) + (-1)^m xi_{k/2})   (k even)

over sign tuples xi in {-1, 1}.  This module enumerates both families,
deduplicates the resulting operators, attaches stable labels, and provides
verification helpers, including an entrywise check of the closed-form actions
of the k = 4 and k = 6 structures on the flag spaces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .liealg import EndoOnM, lie_mats, poly_in, sum_by_key
from .phispace import PhiSpace
from .tolerances import TAU_GENERATED, TAU_GOLDEN, TAU_SAME_OP, TAU_TRIVIAL_KERNEL

# Reference coefficient vectors (index = power of theta) for the small orders.
# The order-6 product P4 is stored with the involution-consistent coefficients
# (-2/3) theta + (1/3) theta^3 + (-2/3) theta^5, which satisfy a_m = a_{k-m}.
SQ3 = np.sqrt(3.0)
REFERENCE_F_COEFFS = {
    4: {"f0": (0.0, 0.5, 0.0, -0.5)},
    6: {
        "f1": (0.0, 1 / SQ3, 0.0, 0.0, 0.0, -1 / SQ3),
        "f2": (0.0, 1 / (2 * SQ3), -1 / (2 * SQ3), 0.0, 1 / (2 * SQ3), -1 / (2 * SQ3)),
        "f3": (0.0, 1 / (2 * SQ3), 1 / (2 * SQ3), 0.0, -1 / (2 * SQ3), -1 / (2 * SQ3)),
        "f4": (0.0, 0.0, 1 / SQ3, 0.0, -1 / SQ3, 0.0),
    },
}
REFERENCE_P_COEFFS = {
    4: {"P0": (0.0, 0.0, 1.0, 0.0)},
    6: {
        "P1": (-1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        "P2": (0.0, 1 / 3, 1.0, 1 / 3, 1.0, 1 / 3),
        "P3": (0.0, 0.0, 0.0, 1.0, 0.0, 0.0),
        "P4": (0.0, -2 / 3, 0.0, 1 / 3, 0.0, -2 / 3),
    },
}


@dataclass(frozen=True, eq=False)
class CanonicalStructure:
    """One canonical structure: its operator and the polynomial that built it.

    kind is "f-structure", "almost-complex" (an f-structure with trivial
    kernel) or "almost-product".  ``signature`` is the coefficient tuple
    (zeta or xi) that produced the operator; ``theta_polynomial`` lists
    a_0..a_{k-1} with op = sum a_m theta^m.
    """

    kind: str
    label: str
    signature: tuple[int, ...]
    theta_polynomial: tuple[float, ...]
    op: EndoOnM


@dataclass(frozen=True)
class StructureCheck:
    """Residuals from re-verifying one structure (~1e-15; verify compares them with TAU_STRUCTURE)."""

    label: str
    defining_residual: float
    polynomial_residual: float
    theta_commutation: float
    ad_invariance: float
    pairwise_commutation: float


@dataclass(frozen=True)
class GoldenActionReport:
    """Entrywise comparison of structure actions against their closed forms."""

    n: int
    k: int
    max_deviation: float
    per_structure: tuple[tuple[str, float], ...]
    mismatches: tuple[tuple[str, tuple[int, int], float, float], ...]

    @property
    def passed(self) -> bool:
        return self.max_deviation < TAU_GOLDEN


def u_of_k(k: int) -> int:
    """Number of free coefficients: k/2 - 1 for even k, (k-1)/2 for odd."""
    if k < 3:
        raise ValueError(f"need k >= 3, got {k}")
    return k // 2 - 1 if k % 2 == 0 else (k - 1) // 2


def f_polynomial(k: int, zeta) -> np.ndarray:
    """Coefficients a_0..a_{k-1} of the f-structure for a zeta tuple."""
    u = u_of_k(k)
    poly = np.zeros(k)
    for m in range(1, u + 1):
        am = (2.0 / k) * sum(
            z * np.sin(2.0 * np.pi * m * j / k) for j, z in enumerate(zeta, start=1)
        )
        poly[m] += am
        poly[k - m] -= am
    return poly


def p_polynomial(k: int, xi) -> np.ndarray:
    """Coefficients a_0..a_{k-1} of the almost product structure for xi."""
    u = u_of_k(k)
    poly = np.zeros(k)
    for m in range(k):
        acc = 2.0 * sum(
            x * np.cos(2.0 * np.pi * m * j / k) for j, x in enumerate(xi[:u], start=1)
        )
        if k % 2 == 0:
            acc += (-1) ** m * xi[u]
        poly[m] = acc / k
    return poly


def generate_f_structures(ps: PhiSpace) -> list[CanonicalStructure]:
    """All distinct canonical f-structures on the space, labelled.

    Enumerates zeta in {-1,0,1}^u minus zero, builds the polynomial operator,
    and deduplicates.  Labels follow the order-4 and order-6 reference lists
    (f0; f1..f4) where those apply, with "-" marking negatives; for other
    orders representatives are labelled f1, f2, ... in generation order.
    """
    k = ps.spec.k
    u = u_of_k(k)
    raw = []
    for zeta in itertools.product((-1, 0, 1), repeat=u):
        if all(z == 0 for z in zeta):
            continue
        poly = f_polynomial(k, zeta)
        op = poly_in(ps.theta, poly)
        raw.append((zeta, poly, op))
    return _dedup_and_label(ps, raw, kind="f", k=k)


def generate_product_structures(ps: PhiSpace) -> list[CanonicalStructure]:
    """All distinct canonical almost product structures, labelled.

    For even k the sign tuple has u + 1 entries (the extra sign drives the
    alternating term); for odd k it has u entries.
    """
    k = ps.spec.k
    u = u_of_k(k)
    width = u + 1 if k % 2 == 0 else u
    raw = []
    for xi in itertools.product((-1, 1), repeat=width):
        poly = p_polynomial(k, xi)
        op = poly_in(ps.theta, poly)
        raw.append((xi, poly, op))
    return _dedup_and_label(ps, raw, kind="p", k=k)


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def nonzero_rows(*mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonzeros of each row of the given (d, d) matrices, as (len(mats),
    d, w) column and value tables padded with zeros to the widest row w.
    Entries are read exactly: nothing is thresholded."""
    w = max(1, max(int(np.count_nonzero(m, axis=1).max(initial=0)) for m in mats))
    idx = np.stack([np.argsort(m == 0.0, axis=1, kind="stable")[:, :w].copy() for m in mats])
    rows = np.arange(len(idx[0]))[:, None]
    return idx, np.stack([m[rows, i] for m, i in zip(mats, idx)])


def _ad_invariance(f: np.ndarray, ps: PhiSpace) -> float:
    """max |A_a f - f A_a| over the ad(h_a), joined from the nonzeros of ad(h)
    and f: at m_blocks = 1 each entry is one product minus one, as in A @ f."""
    a, x, z, v = ps.ad_h_nonzeros
    d = len(f)
    idx, val = nonzero_rows(f, f.T)
    af, fa = ((a * d + x) * d)[:, None] + idx[0, z], (a[:, None] * d + idx[1, x]) * d + z[:, None]
    keys = np.concatenate([af.ravel(), fa.ravel()])
    terms = np.concatenate([(v[:, None] * val[0, z]).ravel(), (-(val[1, x] * v[:, None])).ravel()])
    return float(np.max(np.abs(sum_by_key(keys, terms)[1]), initial=0.0))


def _defining_residual(m: np.ndarray, product: bool) -> float:
    """max |P^2 - 1| for an almost product structure, max |f^3 + f| otherwise."""
    return _max_abs(m @ m - np.eye(len(m)) if product else m @ m @ m + m)


def _dedup_and_label(ps, raw, kind: str, k: int) -> list[CanonicalStructure]:
    d = ps.m.dim
    deduped = []
    for sig, poly, op in raw:
        if any(np.max(np.abs(op.matrix - o.matrix)) < TAU_SAME_OP for _, _, o in deduped):
            continue
        if kind == "f" and d and np.max(np.abs(op.matrix)) < TAU_SAME_OP:
            continue  # the zero operator satisfies f^3 + f = 0 but is no structure
        res = _defining_residual(op.matrix, product=kind == "p")
        if res > TAU_GENERATED:  # the generating formulas guarantee the defining identities
            raise RuntimeError(f"generated operator violates its identity ({res:.3e})")
        deduped.append((sig, poly, op))

    reference = (REFERENCE_F_COEFFS if kind == "f" else REFERENCE_P_COEFFS).get(k, {})
    ref_ops = {
        name: poly_in(ps.theta, coeffs).matrix for name, coeffs in reference.items()
    }

    out: list[CanonicalStructure] = []
    fresh = 0
    for sig, poly, op in deduped:
        label = None
        for name, rm in ref_ops.items():
            if np.max(np.abs(op.matrix - rm)) < TAU_SAME_OP:
                label = name
            elif np.max(np.abs(op.matrix + rm)) < TAU_SAME_OP:
                label = "-" + name
            if label:
                break
        if label is None and kind == "p" and d:
            if np.max(np.abs(op.matrix - np.eye(d))) < TAU_SAME_OP:
                label = "I"
            elif np.max(np.abs(op.matrix + np.eye(d))) < TAU_SAME_OP:
                label = "-I"
        if label is None:
            # Pair with an already labelled negative if present.
            for prev in out:
                if np.max(np.abs(op.matrix + prev.op.matrix)) < TAU_SAME_OP:
                    label = prev.label[1:] if prev.label.startswith("-") else "-" + prev.label
                    break
        if label is None:
            fresh += 1
            label = f"{'f' if kind == 'f' else 'P'}{fresh}"

        if kind == "f":
            trivial_kernel = d > 0 and np.linalg.svd(op.matrix, compute_uv=False)[-1] > TAU_TRIVIAL_KERNEL
            kind_name = "almost-complex" if trivial_kernel else "f-structure"
        else:
            kind_name = "almost-product"
        out.append(
            CanonicalStructure(
                kind=kind_name,
                label=label,
                signature=tuple(int(x) for x in sig),
                theta_polynomial=tuple(float(c) for c in poly),
                op=op,
            )
        )
    return out


def structure_by_label(structures, label: str) -> CanonicalStructure:
    for cs in structures:
        if cs.label == label:
            return cs
    known = ", ".join(cs.label for cs in structures)
    raise KeyError(f"unknown structure {label!r} (known: {known})")


def verify_structure(cs: CanonicalStructure, ps: PhiSpace, others=()) -> StructureCheck:
    """Re-check the defining identity, polynomial reconstruction, commutation
    with theta and with the other structures, and ad(h)-equivariance."""
    f, th = cs.op.matrix, ps.theta.matrix
    return StructureCheck(
        label=cs.label,
        defining_residual=_defining_residual(f, product=cs.kind == "almost-product"),
        polynomial_residual=_max_abs(poly_in(ps.theta, cs.theta_polynomial).matrix - f),
        theta_commutation=_max_abs(f @ th - th @ f),
        ad_invariance=_ad_invariance(f, ps),
        pairwise_commutation=max([0.0] + [_max_abs(f @ o.op.matrix - o.op.matrix @ f) for o in others]),
    )


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


def golden_action_check(ps: PhiSpace) -> GoldenActionReport:
    """Compare every order-4/order-6 f-structure against its closed-form
    action, entrywise, on each basis coordinate and on a dense element."""
    k, n = ps.spec.k, ps.spec.n
    if k not in (4, 6) or ps.spec.m_blocks != 1:
        raise ValueError("closed-form actions are tabulated for the m_blocks=1 spaces of order 4 or 6")
    structures = generate_f_structures(ps)
    labels = sorted(REFERENCE_F_COEFFS[k])

    # Probes: every basis element of m, then one dense element.  Mismatches are
    # listed in the C order of (probe, i, j): probe-major, entries row by row.
    probes = lie_mats(n, np.vstack([ps.m.coords, (np.arange(1.0, ps.m.dim + 1.0) / 3.0) @ ps.m.coords]))

    per = []
    mismatches = []
    for label in labels:
        got = structure_by_label(structures, label).op.apply_mats(probes)
        want = expected_flag_action(label, probes)
        delta = np.abs(got - want)
        per.append((label, float(np.max(delta))))
        for p, i, j in zip(*np.nonzero(delta > TAU_GOLDEN)):
            mismatches.append((label, (int(i), int(j)), float(got[p, i, j]), float(want[p, i, j])))
    return GoldenActionReport(
        n=n,
        k=k,
        max_deviation=max(dev for _, dev in per),
        per_structure=tuple(per),
        mismatches=tuple(mismatches),
    )
