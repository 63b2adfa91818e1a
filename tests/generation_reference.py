"""The per-structure dense generation that the generation on theta's blocks
replaced, kept as the reference: every generated structure must keep its
label, kind, signature, polynomial and operator bits (on the dense powers
where theta's block powers keep their bits, and within rounding elsewhere).

``f_polynomial`` and ``p_polynomial`` evaluate one signature tuple with
Python sums; ``structures_one_at_a_time`` walks the sign keys in
itertools.product order, builds each signature, evaluates its polynomial in
theta with ``poly_in`` on a (k, d, d) power stack and checks its defining
identity on its own, and returns (kind, label, signature, polynomial,
matrix) tuples.  ``poly_in`` sums one polynomial in an operator's matrix
term by term, the float steps every generated operator keeps.  The power
stack is the dense one, op_powers of theta, or ``block_powers``: the powers
of each block stack of theta, as generation takes them, scattered.
"""

import itertools

import numpy as np

from flagf.canonical import F_LABEL_SIGNS, P_LABEL_SIGNS, u_of_k
from flagf.liealg import op_powers
from flagf.phispace import theta_angles
from flagf.tolerances import TAU_GENERATED


def poly_in(op: np.ndarray, coeffs, powers=None) -> np.ndarray:
    """Evaluate sum_m coeffs[m] * op^m for a (d, d) matrix op, term by term in m.  ``powers`` is
    op_powers(op, count) for some count >= len(coeffs), to reuse across calls."""
    if powers is None:
        powers = op_powers(op, len(coeffs))
    if len(coeffs) > len(powers):
        raise ValueError(f"{len(coeffs)} coefficients need more than {len(powers)} powers")
    acc = np.zeros(op.shape)
    for c, p in zip(coeffs, powers):
        if c != 0.0:
            acc = acc + c * p
    return acc


def block_powers(ps) -> np.ndarray:
    """theta^0, ..., theta^(k - 1) as a (k, d, d) stack, scattered from the powers of theta's block stacks."""
    out = np.zeros((ps.spec.k, ps.m.dim, ps.m.dim))
    for (rows, _), powers in zip(ps.theta_blocks, ps.theta_block_powers):
        out[:, rows[:, :, None], rows[:, None, :]] = powers
    return out


def f_polynomial(k: int, zeta) -> np.ndarray:
    """Coefficients a_0..a_{k-1} of the f-structure for a zeta tuple."""
    u = u_of_k(k)
    poly = np.zeros(k)
    for m in range(1, u + 1):
        am = (2.0 / k) * sum(z * np.sin(2.0 * np.pi * m * j / k) for j, z in enumerate(zeta, start=1))
        poly[m] += am
        poly[k - m] -= am
    return poly


def p_polynomial(k: int, xi) -> np.ndarray:
    """Coefficients a_0..a_{k-1} of the almost product structure for xi."""
    u = u_of_k(k)
    poly = np.zeros(k)
    for m in range(k):
        acc = 2.0 * sum(x * np.cos(2.0 * np.pi * m * j / k) for j, x in enumerate(xi[:u], start=1))
        if k % 2 == 0:
            acc += (-1) ** m * xi[u]
        poly[m] = acc / k
    return poly


def structures_one_at_a_time(ps, product: bool, powers=None) -> list[tuple]:
    """The structures of ps, one sign key, one polynomial and one identity check at a time, as
    (d, d) matrices.  ``powers`` is theta's power stack, op_powers(ps.theta, k) by default."""
    k = ps.spec.k
    if powers is None:
        powers = op_powers(ps.theta, k)
    width = k // 2 if product else u_of_k(k)
    angles = theta_angles(ps.spec)
    on = [l for l in angles if l <= width]
    table = (P_LABEL_SIGNS if product else F_LABEL_SIGNS).get(k, {})
    named = [(name, tuple(signs[l - 1] for l in on)) for name, signs in table.items()]
    labels: dict[tuple[int, ...], str] = {}
    out: list[CanonicalStructure] = []
    fresh = 0
    for key in itertools.product((-1, 1) if product else (-1, 0, 1), repeat=len(on)):
        if not any(key):
            continue
        neg = tuple(-s for s in key)
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

        signature = [-1] * width
        for l, sign in zip(on, key):
            signature[l - 1] = sign
        poly = (p_polynomial if product else f_polynomial)(k, signature)
        op = poly_in(ps.theta, poly, powers)
        sq = op @ op
        res = np.max(np.abs(sq - np.eye(len(sq)) if product else sq @ op + op))
        if res > TAU_GENERATED:
            raise RuntimeError(f"generated operator violates its identity ({res:.3e})")
        if product:
            kind = "almost-product"
        else:
            kind = "almost-complex" if 0 not in key and k // 2 not in angles else "f-structure"
        out.append((kind, label, tuple(signature), tuple(float(c) for c in poly), op))
    return out
