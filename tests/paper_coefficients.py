"""The paper's theta-polynomial coefficients of the order-4 and order-6
structures (index = power of theta): the oracle the generated structures and
their labels are checked against.

The order-6 product P4 is stored with the involution-consistent coefficients
(-2/3) theta + (1/3) theta^3 + (-2/3) theta^5, which satisfy a_m = a_{k-m}.
"""

import numpy as np

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
