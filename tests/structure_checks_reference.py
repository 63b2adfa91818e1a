"""The per-structure routes that verify's stacked checks replaced, kept as
references: every measured StructureCheck field and every U coordinate must
keep their bits, and the two bounds must cover what these routes measure.

``verify_structure`` re-checks one structure against a list of others, one
matrix product at a time (every pair multiplied out), and joins ad(h) with
that structure alone (``ad_commutator``); ``u_coords_tensor`` builds the
dense (d, d, d) U tensor of each route, and ``u_tensor_solved`` solves for U
on stacks of pairs of elements of m by contracting the dense bracket tensor.
"""

import numpy as np

from flagf.canonical import StructureCheck, nonzero_rows
from flagf.liealg import lie_mats, poly_in, scatter, sum_by_key
from flagf.metricgeom import _m_rows, block_weights, u_channel_coefficients, u_channels


def _max_abs(a):
    return float(np.max(np.abs(a))) if a.size else 0.0


def _defining_residual(m, product):
    return _max_abs(m @ m - np.eye(len(m)) if product else m @ m @ m + m)


def ad_commutator(f, ps):
    """max |A_a f - f A_a| over the ad(h_a), joined from the nonzeros of ad(h) and of f."""
    a, x, z, v = ps.ad_h_nonzeros
    d = len(f)
    idx, val = nonzero_rows(f, f.T)
    af, fa = ((a * d + x) * d)[:, None] + idx[0, z], (a[:, None] * d + idx[1, x]) * d + z[:, None]
    keys = np.concatenate([af.ravel(), fa.ravel()])
    terms = np.concatenate([(v[:, None] * val[0, z]).ravel(), (-(val[1, x] * v[:, None])).ravel()])
    return float(np.max(np.abs(sum_by_key(keys, terms)[1]), initial=0.0))


def verify_structure(cs, ps, others=()):
    f, th = cs.op.matrix, ps.theta.matrix
    return StructureCheck(
        label=cs.label,
        defining_residual=_defining_residual(f, product=cs.kind == "almost-product"),
        polynomial_residual=_max_abs(poly_in(ps.theta, cs.theta_polynomial, ps.theta_powers).matrix - f),
        theta_commutation=_max_abs(f @ th - th @ f),
        ad_invariance=ad_commutator(f, ps),
        pairwise_commutation=max([0.0] + [_max_abs(f @ o.op.matrix - o.op.matrix @ f) for o in others]),
    )


def u_coords_tensor(split, params, mode):
    d = split.dim
    i, j, r, v = split.bracket_nonzeros
    if mode == "closed":
        channel, sign = u_channels(split, i, j)
        coef = np.concatenate(([0.0], u_channel_coefficients(params)))[channel] * sign
        return scatter((d, d, d), i, j, r, coef * v)
    gd = block_weights(split, params)
    keys = np.concatenate([(r * d + j) * d + i, (r * d + i) * d + j])
    keys, val = sum_by_key(keys, np.concatenate([gd[r] * v, gd[i] * v]))
    return scatter(d**3, keys, val / (2.0 * gd[keys % d])).reshape(d, d, d)


def u_tensor_solved(split, params, xs, ys):
    """U(X_p, Y_p) recovered from 2 g(U, Z) = g(X,[Z,Y]_m) + g([Z,X]_m, Y), for
    two (P, n, n) stacks of elements of m.  The block basis diagonalizes g,
    so the solve is a componentwise rescale."""
    c = split.combined
    xv, yv = (rows @ c.coords.T for rows in _m_rows(split, xs, ys))
    gd = block_weights(split, params)
    bm = scatter((split.dim,) * 3, *split.bracket_nonzeros)
    rhs = np.einsum("zjr,pj,pr->pz", bm, yv, gd * xv) + np.einsum("zir,pi,pr->pz", bm, xv, gd * yv)
    return lie_mats(c.ambient_n, (rhs / (2.0 * gd)) @ c.coords)
