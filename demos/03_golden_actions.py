"""Show the closed-form coordinate action of the canonical f-structures.

Each structure shuffles the tangent coordinates s_1j, s_2j, s_3j of the flag
space in a fixed pattern; the package checks its polynomial operators against
these patterns entrywise."""

import numpy as np

import flagf

np.set_printoptions(precision=2, suppress=True)

n = 5
ps = flagf.build_phi_space(flagf.build_automorphism(n, 1, 6))
fs = flagf.generate_f_structures(ps)

# A tangent vector with recognizable entries, as a stack of one matrix.
coords = np.arange(1.0, ps.m.dim + 1.0)
sample = flagf.lie_mats(n, coords[None] @ ps.m.coords)
print("sample tangent matrix S:")
print(sample[0])
print()

# A structure's matrix acts on coordinates over the basis of m (column j is
# the image of basis vector j): lex rows -> m coordinates -> image -> lex rows.
c = ps.m.coords
for label in ("f1", "f2", "f3", "f4"):
    cs = flagf.structure_by_label(fs, label)
    out = flagf.lie_mats(n, flagf.lie_rows(sample) @ c.T @ cs.matrix.T @ c)
    want = flagf.expected_flag_action(label, sample)
    print(f"{label}(S) =")
    print(out[0])
    print(f"  matches tabulated action: {np.max(np.abs(out - want)):.1e}")
    print()

deviation = flagf.golden_action_check(ps, fs)
print(f"entrywise check over all basis directions: max deviation {deviation:.2e}")
