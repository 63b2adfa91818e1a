import dataclasses

import numpy as np
import pytest

import flagf
from flagf import canonical
from flagf.canonical import (
    REFERENCE_F_COEFFS,
    REFERENCE_P_COEFFS,
    CanonicalStructure,
    expected_flag_action,
    f_polynomial,
    golden_action_check,
    structure_by_label,
    u_of_k,
    verify_structure,
)
from flagf.liealg import EndoOnM, brackets, lie_mats, lie_rows, nullspace, poly_in
from flagf.tolerances import TAU_GOLDEN


def dense_ad_h(ps):
    """ad(h) on m as a (dim h, d, d) stack from matrix commutators, one h_a at a time."""
    n, ms = ps.spec.n, lie_mats(ps.spec.n, ps.m.coords)
    rows = np.stack([lie_rows(brackets(hm[None], ms)) for hm in lie_mats(n, ps.h.coords)])
    return (rows @ ps.m.coords.T).transpose(0, 2, 1)


def elem(n, i, j):
    """E_ij - E_ji, as a stack of one matrix."""
    m = np.zeros((1, n, n))
    m[0, i, j] = 1.0
    m[0, j, i] = -1.0
    return m


class TestUOfK:
    @pytest.mark.parametrize("k,expected", [(4, 1), (6, 2), (7, 3), (3, 1), (5, 2), (8, 3), (12, 5)])
    def test_values(self, k, expected):
        assert u_of_k(k) == expected

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            u_of_k(2)


class TestOrder4Generation:
    def test_exactly_one_f_structure_up_to_sign(self, get_f_structures):
        fs = get_f_structures(5, 4)
        assert len(fs) == 2
        labels = {cs.label for cs in fs}
        assert labels == {"f0", "-f0"}

    def test_f0_coefficients(self, get_f_structures):
        f0 = structure_by_label(get_f_structures(5, 4), "f0")
        np.testing.assert_allclose(f0.theta_polynomial, (0.0, 0.5, 0.0, -0.5), atol=1e-15)
        assert f0.signature == (1,)

    def test_product_set_contains_theta_squared(self, get_space, get_products):
        ps = get_space(5, 4)
        prods = get_products(5, 4)
        p0 = structure_by_label(prods, "P0")
        np.testing.assert_allclose(p0.op.matrix, np.linalg.matrix_power(ps.theta.matrix, 2), atol=1e-12)
        assert len(prods) == 4  # +-identity and +-theta^2


class TestOrder6Generation:
    def test_exactly_four_f_structures_up_to_sign(self, get_f_structures):
        fs = get_f_structures(5, 6)
        assert len(fs) == 8
        assert {cs.label for cs in fs} == {"f1", "f2", "f3", "f4", "-f1", "-f2", "-f3", "-f4"}

    @pytest.mark.parametrize("label", ["f1", "f2", "f3", "f4"])
    def test_reference_coefficients(self, get_f_structures, label):
        cs = structure_by_label(get_f_structures(5, 6), label)
        np.testing.assert_allclose(cs.theta_polynomial, REFERENCE_F_COEFFS[6][label], atol=1e-12)

    def test_signature_to_label_map(self, get_f_structures):
        by_sig = {cs.signature: cs.label for cs in get_f_structures(5, 6)}
        assert by_sig[(1, 1)] == "f1"
        assert by_sig[(0, 1)] == "f2"
        assert by_sig[(1, 0)] == "f3"
        assert by_sig[(1, -1)] == "f4"

    def test_exactly_four_products_up_to_sign(self, get_space, get_products):
        ps = get_space(5, 6)
        prods = get_products(5, 6)
        assert len(prods) == 8
        assert {cs.label for cs in prods} == {"P1", "P2", "P3", "P4", "-P1", "-P2", "-P3", "-P4"}
        # Reference polynomial operators are reproduced exactly.
        for label, coeffs in REFERENCE_P_COEFFS[6].items():
            want = poly_in(ps.theta, coeffs).matrix
            got = structure_by_label(prods, label).op.matrix
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_p1_is_minus_identity(self, get_products):
        p1 = structure_by_label(get_products(5, 6), "P1")
        np.testing.assert_allclose(p1.op.matrix, -np.eye(8), atol=1e-12)

    def test_p3_is_theta_cubed(self, get_space, get_products):
        ps = get_space(6, 6)
        p3 = structure_by_label(flagf.generate_product_structures(ps), "P3")
        np.testing.assert_allclose(p3.op.matrix, np.linalg.matrix_power(ps.theta.matrix, 3), atol=1e-12)


class TestStructureIdentities:
    @pytest.mark.parametrize("n,k", [(4, 4), (5, 4), (5, 6), (6, 6), (5, 8)])
    def test_defining_identities(self, get_space, n, k):
        ps = get_space(n, k)
        d = ps.m.dim
        for cs in flagf.generate_f_structures(ps):
            f = cs.op.matrix
            assert np.max(np.abs(f @ f @ f + f)) < 1e-10
        for cs in flagf.generate_product_structures(ps):
            p = cs.op.matrix
            assert np.max(np.abs(p @ p - np.eye(d))) < 1e-10

    def test_negation_closure(self, get_f_structures, get_products):
        for family in (get_f_structures(5, 6), get_products(5, 6)):
            for cs in family:
                assert any(
                    np.max(np.abs(cs.op.matrix + other.op.matrix)) < 1e-10 for other in family
                )

    def test_all_structures_commute(self, get_space):
        ps = get_space(5, 6)
        everything = flagf.generate_f_structures(ps) + flagf.generate_product_structures(ps)
        for a in everything:
            for b in everything:
                comm = a.op.matrix @ b.op.matrix - b.op.matrix @ a.op.matrix
                assert np.max(np.abs(comm)) < 1e-10

    def test_verify_structure_residuals(self, get_space):
        ps = get_space(6, 6)
        everything = flagf.generate_f_structures(ps) + flagf.generate_product_structures(ps)
        for cs in everything:
            chk = verify_structure(cs, ps, others=everything)
            assert max(v for k, v in vars(chk).items() if k != "label") < 1e-10, chk

    @pytest.mark.parametrize("n,m_blocks,k", [(5, 1, 4), (8, 1, 6), (16, 1, 6), (7, 2, 6), (9, 3, 4)])
    def test_ad_invariance_matches_dense_commutator(self, get_space, n, m_blocks, k):
        # At m_blocks = 1 every ad(h_a) has one nonzero per row and column, so
        # each entry of A f - f A is one product minus one product: the same
        # bits as the dense route.  Otherwise the sums are reordered.
        ps = get_space(n, k, m_blocks)
        ad = dense_ad_h(ps)
        for cs in flagf.generate_f_structures(ps):
            f = cs.op.matrix
            dense = float(np.max(np.abs(ad @ f - f @ ad)))
            got = verify_structure(cs, ps).ad_invariance
            if m_blocks == 1:
                assert got == dense, cs.label
            else:
                assert abs(got - dense) <= 1e-15, cs.label

    def test_cost_guard_verify_structure(self, get_space, get_f_structures):
        # The dense commutator would allocate (dim h, d, d) temporaries.
        import tracemalloc

        ps = get_space(16, 6)
        fs = get_f_structures(16, 6)
        f4 = structure_by_label(fs, "f4")
        verify_structure(f4, ps, others=fs)
        tracemalloc.start()
        try:
            verify_structure(f4, ps, others=fs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ps.h.dim * ps.m.dim**2 * 8 / 4

    def test_theta_itself_is_not_an_f_structure(self, get_space):
        ps = get_space(5, 6)
        fake = CanonicalStructure(
            kind="f-structure",
            label="theta",
            signature=(),
            theta_polynomial=(0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
            op=ps.theta,
        )
        chk = verify_structure(fake, ps)
        assert chk.defining_residual > 0.5

    def test_no_almost_complex_structures_here(self, get_f_structures):
        # Every canonical f-structure on these spaces kills at least m3.
        for cs in get_f_structures(5, 6) + get_f_structures(5, 4):
            assert cs.kind == "f-structure"


def _golden_per_probe(ps, structures):
    """The golden-action comparison one probe at a time: (max deviation, mismatches)."""
    m, n = ps.m, ps.spec.n

    def lift(v):  # the element of m with coefficients v, one matrix-vector product
        return lie_mats(n, (m.coords.T @ v)[None])[0]

    probes = [lift(v) for v in np.eye(m.dim)] + [lift(np.arange(1.0, m.dim + 1.0) / 3.0)]
    worst, mismatches = 0.0, []
    for label in sorted(REFERENCE_F_COEFFS[ps.spec.k]):
        f = structure_by_label(structures, label).op.matrix
        for x in probes:
            got = lift(f @ (m.coords @ lie_rows(x)))
            want = expected_flag_action(label, x)
            delta = np.abs(got - want)
            worst = max(worst, float(np.max(delta)))
            for i, j in zip(*np.nonzero(delta > TAU_GOLDEN)):
                mismatches.append((label, (int(i), int(j)), float(got[i, j]), float(want[i, j])))
    return worst, tuple(mismatches)


class TestGoldenActions:
    @pytest.mark.parametrize("n", range(5, 17))
    @pytest.mark.parametrize("k", [4, 6])
    def test_stacked_check_equals_per_probe_loop(self, get_space, get_f_structures, n, k):
        rep = golden_action_check(get_space(n, k))
        assert (rep.max_deviation, rep.mismatches) == _golden_per_probe(get_space(n, k), get_f_structures(n, k))

    def test_sign_flipped_structure_lists_mismatches_in_probe_order(self, get_space, monkeypatch):
        ps = get_space(6, 6)
        flipped = [
            dataclasses.replace(cs, op=EndoOnM(cs.op.domain, -cs.op.matrix)) if cs.label == "f2" else cs
            for cs in canonical.generate_f_structures(ps)
        ]
        monkeypatch.setattr(canonical, "generate_f_structures", lambda _: flipped)
        rep = golden_action_check(ps)
        worst, mismatches = _golden_per_probe(ps, flipped)
        assert not rep.passed and rep.max_deviation == worst > 1.0
        assert rep.mismatches == mismatches and {m[0] for m in mismatches} == {"f2"}


    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("k", [4, 6])
    def test_tabulated_actions_reproduced(self, get_space, n, k):
        rep = golden_action_check(get_space(n, k))
        assert rep.passed, rep.mismatches[:5]
        assert rep.max_deviation < 1e-12

    def test_wrong_order_rejected(self, get_space):
        with pytest.raises(ValueError, match="order 4 or 6"):
            golden_action_check(get_space(5, 8))

    def test_f0_on_single_s24_coordinate(self, get_space, get_f_structures):
        # Input with only s24 = 1 maps to output with only the (3,4) slot set
        # (1-based), i.e. rows/cols 2,3 in 0-based indexing.
        f0 = structure_by_label(get_f_structures(4, 4), "f0")
        out = f0.op.apply_mats(elem(4, 1, 3))
        np.testing.assert_allclose(out, elem(4, 2, 3), atol=1e-13)

    def test_f2_kills_m1(self, get_f_structures):
        f2 = structure_by_label(get_f_structures(5, 6), "f2")
        assert np.linalg.norm(f2.op.apply_mats(elem(5, 0, 1))) < 1e-13

    def test_f3_rotates_m1(self, get_f_structures):
        f3 = structure_by_label(get_f_structures(5, 6), "f3")
        out = f3.op.apply_mats(elem(5, 0, 2))
        np.testing.assert_allclose(out, elem(5, 0, 1), atol=1e-13)

    def test_expected_action_oracle_is_skew(self, rng):
        s = elem(6, 0, 1) + 2.0 * elem(6, 1, 4) + 0.5 * elem(6, 0, 4)
        for label in ("f0", "f1", "f2", "f3", "f4"):
            t = expected_flag_action(label, s[0])
            np.testing.assert_allclose(t, -t.T)


class TestKernelStructure:
    def test_f0_kernel_is_m3(self, get_space, get_split, get_f_structures):
        ps = get_space(5, 4)
        split = get_split(5, 4)
        f0 = structure_by_label(get_f_structures(5, 4), "f0")
        ker = nullspace(f0.op.matrix, f0.op.domain)
        assert ker.dim == split.m3.dim
        assert np.all(ker.relative_residuals(split.m3.coords) <= 1e-10)

    def test_f0_squares_to_minus_id_off_kernel(self, get_split, get_f_structures):
        split = get_split(5, 4)
        f0 = structure_by_label(get_f_structures(5, 4), "f0")
        f2 = f0.op.matrix @ f0.op.matrix
        for blk in (split.m1, split.m2):
            v = split.combined.coords @ blk.coords.T  # one column per basis element of the block
            np.testing.assert_allclose(f2 @ v, -v, atol=1e-12)

    def test_ad_equivariance_on_elements(self, get_space, get_f_structures, rng):
        # [h, f X] = f [h, X] for h in the isotropy algebra and X in m.
        ps = get_space(5, 6)
        hs = lie_mats(5, ps.h.coords)[:, None]  # every (h_a, m_b) pair, broadcast
        ms = lie_mats(5, ps.m.coords)[None, :]
        for cs in get_f_structures(5, 6)[:4]:
            lhs = brackets(hs, cs.op.apply_mats(ms[0])[None, :])
            rhs = np.stack([cs.op.apply_mats(b) for b in brackets(hs, ms)])
            assert np.max(np.linalg.norm(lhs - rhs, axis=(2, 3))) < 1e-10
