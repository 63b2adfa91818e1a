"""The per-structure routes that verify's stacked checks replaced, kept as
references: every measured StructureCheck field must equal theirs to
rounding and every U coordinate keep its bits, and the two bounds must cover
what these routes measure.

``verify_structure`` re-checks one structure against a list of others, one
matrix product at a time (every pair multiplied out), and joins ad(h) with
that structure alone (``ad_commutator``); ``u_coords_tensor`` builds the
dense (d, d, d) U tensor of each route, and ``u_tensor_solved`` solves for U
on stacks of pairs of elements of m by contracting the dense bracket tensor.

The dense connection route works on two (P, n, n) stacks of elements of m,
pair by pair (X_p, Y_p); an argument outside m raises ValueError
(``m_rows``).  ``metric_eval`` is g(X_p, Y_p), ``u_tensor_closed`` the
closed-form U from brackets of the block projections, ``nomizu`` the
connection alpha = (1/2)[X, Y]_m + U, and ``compat_form`` the trilinear form
g(alpha(Z, X), Y) + g(X, alpha(Z, Y)) on triples of stacks, whose largest
value over random triples was verify's connection check
(``connection_compat_residual``).  ``scaled_channel`` is a wrong closed-form
U coefficient to patch in, for tests that a check sees it.

``on_theta_blocks`` reads a dense (d, d) operator onto the blocks of a
space's theta (or of a structure), the form a CanonicalStructure holds, and
refuses one with an entry off them; tests build their bent and fake structures with it.
``negation_residual_loop`` takes max |F + G| one label at a time, over a
dict of the structures' matrices.  ``golden_action_dense`` is the
golden-action check on each label's dense (P, n, n) image of the probes,
one ``space_reference.apply_on`` per label, compared with
``expected_flag_action`` entry by entry.  ``kept_entries_from_stacks`` is
the class engine's join with its one-entry row tables scanned off the (S, d,
d) stacks I, f, f^2, f^T and (f^2)^T of the structures f = eps J.
"""

import copy

import numpy as np

from flagf import metricgeom
from flagf.canonical import F_LABEL_SIGNS, StructureCheck, expected_flag_action, structure_by_label
from flagf.classify import _kept_entries  # bound here, so that a test may patch classify's name with this route
from flagf.liealg import brackets, lie_mats, lie_rows, nonzero_rows, scatter, sum_by_key
from flagf.metricgeom import block_weights, u_channel_coefficients, u_channels
from flagf.tolerances import TAU_SUBSPACE
from generation_reference import poly_in
from space_reference import apply_on, project_rows, relative_residuals, split_blocks


def on_theta_blocks(layout, matrix):
    """The blocks of a (d, d) operator on the rows of ``layout``, a space's theta_blocks or a
    structure's blocks, as CanonicalStructure.blocks holds them."""
    blocks = tuple((rows, matrix[rows[:, :, None], rows[:, None, :]]) for rows, _ in layout)
    inside = np.zeros(np.shape(matrix), dtype=bool)
    for rows, _ in blocks:
        inside[rows[:, :, None], rows[:, None, :]] = True
    if np.any(matrix[~inside]):
        raise ValueError("the operator has entries off theta's blocks")
    return blocks


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
    f, th = cs.matrix, ps.theta
    return StructureCheck(
        label=cs.label,
        defining_residual=_defining_residual(f, product=cs.kind == "almost-product"),
        polynomial_residual=_max_abs(poly_in(ps.theta, cs.theta_polynomial) - f),
        theta_commutation=_max_abs(f @ th - th @ f),
        ad_invariance=ad_commutator(f, ps),
        pairwise_commutation=max([0.0] + [_max_abs(f @ o.matrix - o.matrix @ f) for o in others]),
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
    xv, yv = (rows @ c.coords.T for rows in m_rows(split, xs, ys))
    gd = block_weights(split, params)
    bm = scatter((split.dim,) * 3, *split.bracket_nonzeros)
    rhs = np.einsum("zjr,pj,pr->pz", bm, yv, gd * xv) + np.einsum("zir,pi,pr->pz", bm, xv, gd * yv)
    return lie_mats(c.ambient_n, (rhs / (2.0 * gd)) @ c.coords)


def m_rows(split, *stacks):
    """Lex coordinates of (P, n, n) stacks; ValueError if any element is not in m
    (relative to |x|)."""
    out = [lie_rows(mats) for mats in stacks]
    r = np.concatenate([relative_residuals(split.combined, rows) for rows in out])
    if np.any(r > TAU_SUBSPACE):
        raise ValueError(f"argument is not in the complement m (residual {np.nanmax(r):.3e})")
    return out


def metric_eval(split, params, xs, ys):
    """g(X_p, Y_p) = kappa (<X1,Y1> + s <X2,Y2> + t <X3,Y3>), <,> = Tr(X^T Y): shape (P,)."""
    xv, yv = (rows @ split.combined.coords.T for rows in m_rows(split, xs, ys))
    return np.sum(block_weights(split, params) * xv * yv, axis=1)


def u_tensor_closed(split, params, xs, ys):
    """Closed-form U(X_p, Y_p) as a (P, n, n) stack; symmetric in (X, Y) and valued in m."""
    xr, yr = m_rows(split, xs, ys)
    s, t = params.s, params.t
    blocks = split_blocks(split)
    x1, x2, x3 = (project_rows(blk, xr) for blk in blocks)
    y1, y2, y3 = (project_rows(blk, yr) for blk in blocks)
    out = 0.5 * (t - s) * (brackets(x2, y3) + brackets(y2, x3))
    out = out + ((t - 1.0) / (2.0 * s)) * (brackets(x1, y3) + brackets(y1, x3))
    return out + ((s - 1.0) / (2.0 * t)) * (brackets(x1, y2) + brackets(y1, x2))


def nomizu(split, params, xs, ys):
    """alpha(X_p, Y_p) = (1/2)[X_p, Y_p]_m + U(X_p, Y_p), U from this module's
    ``u_tensor_closed`` (looked up at call time, so a test can replace it)."""
    return 0.5 * project_rows(split.combined, lie_rows(brackets(xs, ys))) + u_tensor_closed(split, params, xs, ys)


def compat_form(split, params, zs, xs, ys):
    """g(alpha(Z_p, X_p), Y_p) + g(X_p, alpha(Z_p, Y_p)) for three (P, n, n) stacks: shape (P,)."""
    return metric_eval(split, params, nomizu(split, params, zs, xs), ys) + metric_eval(
        split, params, xs, nomizu(split, params, zs, ys)
    )


def connection_compat_residual(split, params, xyz):
    """max |compat_form| / kappa over triples (X, Y, Z) given as (P, 3, d) block coordinates."""
    c = split.combined
    x, y, z = (lie_mats(c.ambient_n, np.asarray(xyz, dtype=float)[:, i] @ c.coords) for i in range(3))
    return float(np.max(np.abs(compat_form(split, params, z, x, y)) / params.kappa, initial=0.0))


def scaled_channel(channel, factor):
    """metricgeom.u_channel_coefficients with one channel's coefficient times
    factor, to patch in for a wrong closed-form U."""
    original = metricgeom.u_channel_coefficients

    def coefficients(params):
        c = original(params)
        c[channel] *= factor
        return c

    return coefficients


def golden_action_dense(ps, structures):
    n = ps.spec.n
    probes = lie_mats(n, np.vstack([ps.m.coords, (np.arange(1.0, ps.m.dim + 1.0) / 3.0) @ ps.m.coords]))
    per = []
    for label in sorted(F_LABEL_SIGNS[ps.spec.k]):
        got = apply_on(ps.m, structure_by_label(structures, label).matrix, probes)
        per.append(float(np.max(np.abs(got - expected_flag_action(label, probes)))))
    return max(per)


def kept_entries_from_stacks(eps, split):
    """classify._kept_entries, its one-entry row tables read off the exact
    stacks of f = eps J, f^2 and their transposes, one table per structure."""
    f = eps[..., None] * split.complex_structure
    mats = (np.broadcast_to(np.eye(split.dim), f.shape), f, f @ f, f.swapaxes(1, 2), (f @ f).swapaxes(1, 2))
    tables = nonzero_rows(*mats)
    assert tables[0].shape[-1] == 1  # one entry per row
    scanned = copy.copy(split)  # its row tables (S, 5, d), the signs in the values already
    object.__setattr__(scanned, "row_tables", tuple(x[..., 0].swapaxes(0, 1) for x in tables))
    return _kept_entries(np.ones_like(eps), scanned)


def negation_residual_loop(structures):
    by_label = {cs.label: cs.matrix for cs in structures}
    worst = 0.0
    for label, f in by_label.items():
        g = by_label.get(label[1:] if label.startswith("-") else "-" + label)
        if g is None:
            return np.inf
        worst = max(worst, float(np.max(np.abs(f + g), initial=0.0)))
    return worst
