"""flagf: canonical f-structures on the oriented flag manifolds
SO(n)/SO(2)xSO(n-3), viewed as homogeneous spaces of even finite order.

The package builds the generating inner automorphisms, the reductive
decomposition so(n) = h (+) m, all canonical f-structures and almost product
structures as polynomials in theta, the two-parameter family g(s, t) of
invariant Riemannian metrics, and decides membership of each f-structure in
the Killing, nearly-Kaehler and G1 classes as a function of (s, t).
"""

from .liealg import (
    Subspace,
    brackets,
    lie_mats,
    lie_rows,
)
from .phispace import (
    AutomorphismSpec,
    PhiSpace,
    RegularityReport,
    build_automorphism,
    build_phi_space,
    check_regularity,
)
from .canonical import (
    CanonicalStructure,
    StructureCheck,
    expected_flag_action,
    generate_f_structures,
    generate_product_structures,
    golden_action_check,
    sign_pair_matrices,
    structure_by_label,
    u_of_k,
    verify_structures,
)
from .metricgeom import (
    MetricGrid,
    MetricParams,
    TripleSplit,
    build_split,
    naturally_reductive_residual,
)
from .classify import (
    CharacteristicSet,
    ClassEvaluator,
    ClassReport,
    ClassSweep,
    build_grid,
    class_evaluators,
    metric_compat_residual,
    product_compat_residual,
    structure_matrices,
    zero_sets,
)

__version__ = "0.1.0"
