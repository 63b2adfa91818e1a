"""Build the flag manifold SO(n)/SO(2)xSO(n-3) as a homogeneous space of
even order k and inspect the canonical reductive decomposition."""

import numpy as np

import flagf

np.set_printoptions(precision=3, suppress=True)

for n, k in [(5, 4), (5, 6)]:
    print(f"=== SO({n})/SO(2)xSO({n - 3}) as a {k}-symmetric space ===")
    spec = flagf.build_automorphism(n=n, m_blocks=1, k=k)
    print("generating matrix B (conjugation by B has order exactly k):")
    print(spec.b)

    ps = flagf.build_phi_space(spec)
    print(f"dim so({n}) = {ps.h.dim + ps.m.dim}, dim h = {ps.h.dim}, "
          f"dim m = {ps.m.dim} (= 3n-7 = {3 * n - 7})")

    report = flagf.check_regularity(ps)
    print("decomposition checks:")
    print(f"  so(n) = h (+) m          : {report.direct_sum}")
    print(f"  (phi - id)|_m nonsingular: {report.nonsingular_on_image}")
    print(f"  ker A^2 = ker A          : {report.kernel_square_stable}")
    print(f"  theta has no fixed vector: {report.theta_no_fixed_vector}")

    # theta generates everything downstream; its matrix powers cycle with
    # period exactly k.
    tk = np.linalg.matrix_power(ps.theta, k)
    print(f"max |theta^{k} - id| = {np.max(np.abs(tk - np.eye(ps.m.dim))):.2e}")
    print()
