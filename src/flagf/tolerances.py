"""Every numerical threshold of flagf: one name per decision, with its scale.

A check passes when its residual is below the bound (above it, for the two
margins).  "Absolute" residuals are built from O(1) quantities: orthonormal
rows, brackets of unit basis vectors, polynomials in theta.  No other module
spells a threshold out (tests/test_tolerances.py guards this).
"""

# so(n) linear algebra (liealg) and the h (+) m split (phispace, metricgeom)
TAU_SKEW = 1e-12  # relative to max(1, max |entry|): |X + X^T| of a matrix taken as an element of so(n)
TAU_ORTH = 1e-12  # absolute: Gram entries of orthonormal rows, within a basis or across disjoint blocks
TAU_RANK_REL = 1e-9  # relative to the largest singular value of all blocks: those counted as nonzero in the blocks of A = phi - id and of A^2
TAU_SUBSPACE = 1e-9  # absolute: distance of unit rows and of brackets of unit basis vectors to a subspace
TAU_B_ORTH = 1e-10  # absolute: max |B B^T - I| of the conjugating matrix
TAU_ORDER = 1e-9  # absolute: max |entry| of theta^k - id, which build_phi_space raises on
TAU_NONSINGULAR = 1e-6  # absolute: smallest singular value of a regularity operator
TAU_CYCLIC = 1e-10  # absolute: bracket tensor nonzeros that the cyclic block relations forbid

# canonical structures (canonical)
TAU_GENERATED = 1e-9  # absolute: max |f^3 + f| or |P^2 - 1| of a freshly generated operator
TAU_STRUCTURE = 1e-10  # absolute: the StructureCheck residuals, and max |f + g| for the negative g of f
# The reconstruction residual is summed on theta's blocks as generation sums it: 0 for a generated structure.
# pairwise_commutation and ad_invariance are bounds read off it and each structure's theta commutation
# (canonical.verify_structures): 0 where both read 0, though products round to 1e-16
TAU_GOLDEN = 1e-12  # absolute: entrywise deviation from the closed-form actions at k = 4, 6

# metrics and connection (metricgeom, classify, the verify checks)
TAU_PHI = 1e-9  # absolute, on random O(1) X, Y: |phi[X, Y] - [phi X, phi Y]|, |<phi X, phi Y> - <X, Y>| and |phi X - B X B^T|
TAU_U_ORACLE = 1e-9  # absolute: max |entry| of U closed-form minus U solved
TAU_U_NEUTRAL = 1e-12  # absolute: max |U| at the neutral metric (s, t) = (1, 1), U solved from the metric equation
TAU_METRIC_COMPAT = 1e-10  # relative to kappa: |g(fX, Y) + g(X, fY)| and |g(PX, PY) - g(X, Y)| on basis pairs
TAU_NAT_RED = 1e-9  # relative to kappa: |g([X, Y]_m, Z) - g(X, [Y, Z]_m)| on basis triples
NAT_RED_MARGIN = 1e-3  # relative to kappa: the same residual off the neutral metric must exceed it
TAU_CONNECTION = 1e-8  # relative to kappa: |g(alpha(Z, X), Y) + g(X, alpha(Z, Y))| on every basis triple

# class membership and zero sets (classify)
TAU_MEMBER = 1e-9  # relative to (1 + s + t + 1/s + 1/t): a class residual below it is a member
NONMEMBER_MARGIN = 1e-3  # same scale: a residual above it is a non-member, in between indeterminate
TAU_RANK = 1e-9  # relative: the band of CharacteristicSet.contains around a zero set's coordinates and equation terms
TAU_GRID = 1e-9  # relative to the grid step: rounding allowance when counting grid values
