import dataclasses

import numpy as np
import pytest

import flagf
from flagf.canonical import CanonicalStructure, verify_structures
from flagf.liealg import EndoOnM, Subspace, brackets, lie_mats, lie_rows
from flagf.metricgeom import _check_split_invariants
from flagf.phispace import (
    AutomorphismSpec,
    _check_phi_space_invariants,
    build_automorphism,
    build_phi_space,
    check_regularity,
    fixed_subalgebra_dim,
    phi_homomorphism_residuals,
    phi_matrix,
    theta_angles,
)
from flagf.tolerances import TAU_PHI

TEST_MATRIX = [(n, k) for n in (4, 5, 6, 7, 8) for k in (4, 6)]


def random_skew(rng, n, count=None):
    """A random skew matrix, or a (count, n, n) stack of them."""
    a = rng.standard_normal((n, n) if count is None else (count, n, n))
    return a - a.swapaxes(-1, -2)


def all_brackets(a, b):
    """Lex coordinates of [a_i, b_j] for every pair of basis elements of two subspaces, one row each."""
    n = a.ambient_n
    return lie_rows(brackets(lie_mats(n, a.coords)[:, None], lie_mats(n, b.coords)[None, :])).reshape(-1, a.coords.shape[1])


class TestBuildAutomorphism:
    def test_order4_block_matrix(self):
        spec = build_automorphism(4, 1, 4)
        want = np.zeros((4, 4))
        want[0, 0] = 1.0
        want[1, 2] = 1.0
        want[2, 1] = -1.0
        want[3, 3] = -1.0
        np.testing.assert_allclose(spec.b, want, atol=1e-15)

    def test_order6_block_matrix(self):
        spec = build_automorphism(5, 1, 6)
        want = np.zeros((5, 5))
        want[0, 0] = 1.0
        want[1:3, 1:3] = [[0.5, np.sqrt(3) / 2], [-np.sqrt(3) / 2, 0.5]]
        want[3, 3] = want[4, 4] = -1.0
        np.testing.assert_allclose(spec.b, want, atol=1e-15)

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError, match="even"):
            build_automorphism(4, 1, 3)

    def test_k_two_rejected(self):
        with pytest.raises(ValueError, match="exceed 2"):
            build_automorphism(4, 1, 2)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n >= 4"):
            build_automorphism(3, 1, 4)

    def test_too_many_blocks_rejected(self):
        with pytest.raises(ValueError, match="2\\*m_blocks"):
            build_automorphism(4, 2, 6)

    def test_b_is_orthogonal(self):
        for n, k in TEST_MATRIX:
            b = build_automorphism(n, 1, k).b
            np.testing.assert_allclose(b @ b.T, np.eye(n), atol=1e-14)

    def test_conjugation_order_is_exact(self):
        for n, k in [(4, 4), (5, 6), (6, 8), (7, 10)]:
            spec = build_automorphism(n, 1, k)
            p = phi_matrix(spec)
            acc = np.eye(p.shape[0])
            for j in range(1, k):
                acc = p @ acc
                assert np.max(np.abs(acc - np.eye(p.shape[0]))) > 1e-3, (n, k, j)
            np.testing.assert_allclose(p @ acc, np.eye(p.shape[0]), atol=1e-12)


class TestBatchedPhiChecks:
    """phi_matrix and the homomorphism check run on stacks; these are their per-element references."""

    @pytest.mark.parametrize("n", range(4, 25))
    def test_phi_matrix_equals_per_basis_conjugation_bitwise(self, n):
        for m_blocks in (1, 2):
            for k in (4, 6, 8):
                try:
                    spec = build_automorphism(n, m_blocks, k)
                except ValueError:  # degenerate (n, m_blocks, k)
                    continue
                iu = np.triu_indices(n, 1)
                cols = []
                for i, j in zip(*iu):
                    e = np.zeros((n, n))
                    e[i, j], e[j, i] = 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)
                    cols.append(np.sqrt(2.0) * (spec.b @ e @ spec.b.T)[iu])
                assert np.array_equal(phi_matrix(spec), np.array(cols).T), (n, m_blocks, k)

    @pytest.mark.parametrize("n,k,m_blocks", [(12, 6, 1), (7, 6, 2)])
    def test_homomorphism_residuals_equal_per_element_loop(self, get_space, n, k, m_blocks):
        ps = get_space(n, k, m_blocks)
        full = ps.phi.domain

        def apply(x):  # phi on one (n, n) matrix, through matrix-vector products
            return lie_mats(n, (full.coords.T @ (ps.phi.matrix @ (full.coords @ lie_rows(x))))[None])[0]

        def br(a, b):
            m = a @ b
            return m - m.T

        rng = np.random.default_rng(4242)
        dev_b = dev_iso = 0.0
        for _ in range(10):
            x, y = random_skew(rng, n), random_skew(rng, n)
            px, py = apply(x), apply(y)
            dev_b = max(dev_b, np.linalg.norm(apply(br(x, y)) - br(px, py)))
            dev_iso = max(dev_iso, abs(np.sum(px * py) - np.sum(x * y)))
        a = np.random.default_rng(4242).standard_normal((10, 2, n, n))
        xy = a - a.swapaxes(-1, -2)
        got = phi_homomorphism_residuals(ps, xy)
        np.testing.assert_allclose(got, (dev_b, dev_iso), rtol=1e-12, atol=0)  # norms sum in another order
        assert max(got) < TAU_PHI

    def test_homomorphism_check_fails_with_two_phi_columns_swapped(self, get_space):
        ps = get_space(7, 6)
        bad = ps.phi.matrix.copy()
        bad[:, [0, 1]] = bad[:, [1, 0]]
        broken = dataclasses.replace(ps, phi=EndoOnM(ps.phi.domain, bad))
        a = np.random.default_rng(1).standard_normal((10, 2, 7, 7))
        xy = a - a.swapaxes(-1, -2)
        dev_b, _ = phi_homomorphism_residuals(broken, xy)
        assert dev_b > 0.1


class TestBuildPhiSpace:
    def test_dims_n4_k4(self, get_space):
        ps = get_space(4, 4)
        assert ps.h.dim == 1
        assert ps.m.dim == 5

    @pytest.mark.parametrize("n,k", TEST_MATRIX)
    def test_complement_dimension_formula(self, get_space, n, k):
        ps = get_space(n, k)
        assert ps.m.dim == 3 * n - 7
        assert ps.h.dim == 1 + (n - 3) * (n - 4) // 2

    def test_fixed_dim_general_blocks(self, get_space):
        for n, m_blocks, k in [(7, 2, 6), (9, 2, 8), (9, 3, 8)]:
            ps = get_space(n, k, m_blocks)
            assert ps.h.dim == fixed_subalgebra_dim(n, m_blocks), (n, m_blocks, k)
            assert ps.h.dim + ps.m.dim == n * (n - 1) // 2

    def test_phi_preserves_bracket(self, get_space, rng):
        ps = get_space(5, 6)
        x, y = random_skew(rng, 5, 10), random_skew(rng, 5, 10)
        lhs = ps.phi.apply_mats(brackets(x, y))
        rhs = brackets(ps.phi.apply_mats(x), ps.phi.apply_mats(y))
        assert np.max(np.linalg.norm(lhs - rhs, axis=(1, 2))) < 1e-9

    def test_phi_is_isometry(self, get_space, rng):
        ps = get_space(5, 4)
        x, y = random_skew(rng, 5, 10), random_skew(rng, 5, 10)
        tr = np.sum(ps.phi.apply_mats(x) * ps.phi.apply_mats(y), axis=(1, 2)) - np.sum(x * y, axis=(1, 2))
        assert np.max(np.abs(tr)) < 1e-9

    @pytest.mark.parametrize("n,k", TEST_MATRIX)
    def test_theta_order_and_no_fixed_vector(self, get_space, n, k):
        ps = get_space(n, k)
        d = ps.m.dim
        tk = np.linalg.matrix_power(ps.theta.matrix, k)
        assert np.max(np.abs(tk - np.eye(d))) < 1e-12
        assert np.min(np.linalg.svd(ps.theta.matrix - np.eye(d), compute_uv=False)) > 1e-6

    @pytest.mark.parametrize(
        "n,m_blocks,k",
        [(n, mb, k) for mb, ns in ((1, (4, 5)), (2, (5, 6)), (3, (7, 8))) for n in ns for k in (4, 6, 8, 10, 12)],
    )
    def test_theta_angles_are_those_of_the_numeric_theta(self, get_space, n, m_blocks, k):
        ps = get_space(n, k, m_blocks)
        folded = np.abs(np.angle(np.linalg.eigvals(ps.theta.matrix))) * k / (2 * np.pi)
        assert np.max(np.abs(folded - np.rint(folded))) < 1e-9
        assert theta_angles(ps.spec) == tuple(sorted(set(np.rint(folded).astype(int).tolist())))
        if m_blocks == 1:
            assert set(theta_angles(ps.spec)) == {1, k // 2 - 1, k // 2}

    def test_reductivity(self, get_space):
        ps = get_space(6, 6)
        assert np.max(ps.m.relative_residuals(all_brackets(ps.h, ps.m))) <= 1e-9

    def test_h_orthogonal_to_m(self, get_space):
        ps = get_space(6, 4)
        cross = ps.h.coords @ ps.m.coords.T
        assert np.max(np.abs(cross)) < 1e-10


class TestRegularity:
    @pytest.mark.parametrize("n,k", TEST_MATRIX)
    def test_all_conditions_pass(self, get_space, n, k):
        rep = check_regularity(get_space(n, k))
        assert rep.all_pass
        assert rep.agree

    def test_general_blocks(self, get_space):
        rep = check_regularity(get_space(7, 6, 2))
        assert rep.all_pass

    def test_identity_automorphism_degenerate(self):
        # Hand-built identity conjugation: empty complement, checks vacuous.
        spec = AutomorphismSpec(n=4, m_blocks=1, k=1, b=np.eye(4))
        ps = build_phi_space(spec)
        assert ps.m.dim == 0
        assert ps.h.dim == 6
        rep = check_regularity(ps)
        assert rep.all_pass

    def test_report_agreement_detection(self):
        rep = flagf.RegularityReport(
            direct_sum=True,
            nonsingular_on_image=False,
            kernel_square_stable=True,
            theta_no_fixed_vector=True,
        )
        assert not rep.agree
        assert not rep.all_pass


def dense_ad_h(ps):
    """ad(h) on m as a (dim h, d, d) stack from matrix commutators: [a][:, j] holds
    the m-coefficients of [h_a, m_j]."""
    want = (all_brackets(ps.h, ps.m) @ ps.m.coords.T).reshape(ps.h.dim, ps.m.dim, ps.m.dim)
    return want.transpose(0, 2, 1)


class TestAdStack:
    @pytest.mark.parametrize("n,k,m_blocks", [(5, 4, 1), (7, 6, 1), (12, 6, 1), (8, 6, 2), (12, 8, 3)])
    def test_matches_per_element_brackets(self, get_space, n, k, m_blocks):
        # The m_blocks > 1 spaces have the SVD-basis complement, not the flag pattern.
        ps = get_space(n, k, m_blocks)
        a, row, col, val = ps.ad_h_nonzeros
        got = np.zeros((ps.h.dim, ps.m.dim, ps.m.dim))
        got[a, row, col] = val
        want = dense_ad_h(ps)
        if m_blocks == 1:
            np.testing.assert_array_equal(got, want)
            assert len(val) == np.count_nonzero(want)
        else:
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
        keys = (a * ps.m.dim + row) * ps.m.dim + col
        assert np.all(np.diff(keys) > 0) and np.all(val != 0.0)

    def test_built_once(self, get_space):
        ps = get_space(5, 6)
        assert ps.ad_h_nonzeros is ps.ad_h_nonzeros

    def test_verify_structure_flags_non_equivariant_operator(self, get_space):
        ps = get_space(6, 6)
        d = ps.m.dim
        proj = np.zeros((d, d))
        proj[0, 0] = 1.0  # keeps one basis direction of m1; ad(h) rotates it
        cs = CanonicalStructure(
            kind="f-structure", label="x", signature=(), theta_polynomial=(0.0,), op=EndoOnM(ps.m, proj)
        )
        assert verify_structures([cs], ps)[0].ad_invariance > 1e-3


def _rotate_rows(coords_a, coords_b, angle):
    """Rotate the first row of a into the first row of b (and back)."""
    a, b = np.array(coords_a), np.array(coords_b)
    c, s = np.cos(angle), np.sin(angle)
    a[0], b[0] = c * coords_a[0] + s * coords_b[0], -s * coords_a[0] + c * coords_b[0]
    return a, b


class TestCostGuard:
    """Peak traced allocations at n = 24, k = 6.  With a dense (dim h, d, d)
    ad(h) stack (7.1 MB) ad_h_nonzeros peaked at 9.7 MB, and with the dense
    bracket kernel build_split peaked at 4.9 MB, with the dense bracket
    tensor of m at 3.56 MB."""

    @staticmethod
    def peak(fn):
        import tracemalloc

        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_ad_h_nonzeros_stays_below_1_mb(self, get_space):
        fresh = dataclasses.replace(get_space(24, 6))  # no cached ad(h)
        assert self.peak(lambda: fresh.ad_h_nonzeros) < 1_000_000

    def test_build_split_stays_at_or_below_the_dense_kernel(self, get_space):
        ps = get_space(24, 6)
        assert self.peak(lambda: flagf.build_split(ps)) <= 4_900_000

    def test_build_split_stays_below_one_dense_bracket_tensor(self, get_space):
        # The split keeps the bracket tensor of m as its 252 nonzeros, so its
        # peak (1.37 MB) stays below one (d, d, d) float array, 2.2 MB at d = 65.
        ps = get_space(24, 6)
        assert self.peak(lambda: flagf.build_split(ps)) < ps.m.dim**3 * 8


class TestStructuralChecksStillBite:
    def test_reductivity_fails_on_corrupted_m(self, get_space):
        ps = get_space(6, 4)
        h_rows, m_rows = _rotate_rows(ps.h.coords, ps.m.coords, 0.3)
        h, m = Subspace(6, h_rows), Subspace(6, m_rows)
        theta = EndoOnM(m, m.coords @ ps.phi.matrix @ m.coords.T)
        with pytest.raises(RuntimeError, match="reductivity failure"):
            _check_phi_space_invariants(ps.spec, ps.phi, h, m, theta)

    def test_split_fails_when_m1_is_rotated_into_m3(self, get_space, get_split):
        ps, split = get_space(6, 6), get_split(6, 6)
        m1, m3 = _rotate_rows(split.m1.coords, split.m3.coords, 0.3)
        bad = dataclasses.replace(split, m1=Subspace(6, m1), m3=Subspace(6, m3))
        with pytest.raises(RuntimeError, match="block is not ad\\(h\\)-invariant"):
            _check_split_invariants(ps, bad)

    def test_split_fails_on_a_wrong_bracket_relation(self, get_space, get_split):
        ps, split = get_space(6, 6), get_split(6, 6)

        def with_nonzero(i, j, r, value):
            extra = (np.array([i]), np.array([j]), np.array([r]), np.array([value]))
            nonzeros = tuple(np.concatenate(pair) for pair in zip(split.bracket_nonzeros, extra))
            return dataclasses.replace(split, bracket_nonzeros=nonzeros)

        with pytest.raises(RuntimeError, match="bracket relation"):
            _check_split_invariants(ps, with_nonzero(0, 2, 0, 1e-6))  # [m1, m2] must have no m1 component
        with pytest.raises(RuntimeError, match="same-block"):
            _check_split_invariants(ps, with_nonzero(2, 3, 0, 1e-6))  # [m2, m2] must leave m
