"""The two-parameter family of invariant metrics and its connection data.

The complement splits as m = m1 (+) m2 (+) m3; an invariant metric is
g = g0|m1 + s g0|m2 + t g0|m3 up to scale.  The symmetric connection term U
comes from a closed form and, independently, from solving the defining
metric equation; the demo shows both agree and that U vanishes exactly at
(s, t) = (1, 1), the naturally reductive metric."""

import numpy as np

import flagf
from flagf.liealg import sum_by_key
from flagf.metricgeom import connection_compat_residual, u_nonzeros
from flagf.tolerances import TAU_NAT_RED

n = 5
ps = flagf.build_phi_space(flagf.build_automorphism(n, 1, 4))
split = flagf.build_split(ps)
d1, d2, d3 = np.bincount(split.block_index)[1:]  # the rows of m labelled 1, 2, 3
print(f"m splits into blocks of dims {d1}, {d2}, {d3}")


def closed_vs_solved(p):
    """max |U closed - U solved| over all basis pairs: each route gives the
    nonzeros of the (d, d, d) tensor, and closed minus solved is summed by key."""
    (kc, uc), (ks, us) = (u_nonzeros(split, p, mode) for mode in ("closed", "solved"))
    return float(np.max(np.abs(sum_by_key(np.concatenate([kc, ks]), np.concatenate([uc, -us]))[1]), initial=0.0))


for s, t in [(1.0, 1.0), (2.0, 1.0), (1.0, 4.0 / 3.0), (0.5, 2.5)]:
    p = flagf.MetricParams.for_space(ps, s, t)
    u_max = np.max(np.abs(u_nonzeros(split, p, "closed")[1]), initial=0.0)
    dev = closed_vs_solved(p)
    nat = flagf.naturally_reductive_residual(split, p) < TAU_NAT_RED
    print(f"(s, t) = ({s}, {t}):  max |U| on basis pairs = {u_max:6.4f}   "
          f"closed-vs-solved max dev = {dev:.1e}   naturally reductive: {nat}")

print()
p = flagf.MetricParams.for_space(ps, 1.9, 0.7)
# alpha = (1/2)[X, Y]_m + U(X, Y): closed-form U has the nonzeros of the bracket tensor of m.
alpha = 0.5 * split.bracket_nonzeros[-1] + u_nonzeros(split, p, "closed")[1]
print(f"connection alpha at (1.9, 0.7): {len(alpha)} nonzeros on basis pairs, max |alpha| = {np.max(np.abs(alpha)):.4f}")

# Metric compatibility of the connection: g(alpha(Z,X), Y) + g(X, alpha(Z,Y)) = 0.
print(f"Levi-Civita compatibility residual on every basis triple: {connection_compat_residual(split, p):.1e}")

# U on every basis pair, both ways, on a parameter grid.
grid = np.linspace(0.25, 3.0, 12)
worst = max(closed_vs_solved(flagf.MetricParams(float(s), float(t))) for s in grid for t in grid)
print(f"max closed-vs-solved deviation over a 12x12 grid and all basis pairs: {worst:.1e}")
