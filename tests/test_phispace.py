import dataclasses

import numpy as np
import pytest

import flagf
from flagf.canonical import CanonicalStructure, verify_structures
from flagf.liealg import bracket_coords, brackets, lex_indices, lie_mats, lie_rows, op_powers
from flagf.metricgeom import _check_split_invariants
from flagf.phispace import (
    AutomorphismSpec,
    PhiSpace,
    _apply_phi,
    _check_phi_space_invariants,
    _stack_singular_values,
    ad_h_leak,
    build_automorphism,
    build_phi_space,
    check_regularity,
    flag_complement_pattern,
    phi_blocks,
    phi_residuals,
    rotation_block,
    theta_angles,
)
from flagf.tolerances import TAU_ORDER, TAU_PHI

import space_reference as ref
from space_reference import _nonsingular, dense_subspace, full_space, phi_matrix, split_blocks
from structure_checks_reference import on_theta_blocks

TEST_MATRIX = [(n, k) for n in (4, 5, 6, 7, 8) for k in (4, 6)]


def random_skew(rng, n, count=None):
    """A random skew matrix, or a (count, n, n) stack of them."""
    a = rng.standard_normal((n, n) if count is None else (count, n, n))
    return a - a.swapaxes(-1, -2)


def fixed_subalgebra_dim(n, m_blocks):
    """Expected dim of h away from degenerate rotation angles:
    m_blocks + dim so(n - 2*m_blocks - 1)."""
    r = n - 2 * m_blocks - 1
    return m_blocks + r * (r - 1) // 2


def with_phi_columns_swapped(ps, p, q):
    """ps with the lex columns p and q of phi swapped, inside every block of
    ``spec.phi_blocks`` that holds both (phi_blocks is cached on the spec)."""
    blocks = []
    for pos, mats in ps.spec.phi_blocks:
        mats = mats.copy()
        for g in np.flatnonzero(np.isin(pos, [p, q]).sum(axis=1) == 2):
            (a,), (b,) = np.flatnonzero(pos[g] == p), np.flatnonzero(pos[g] == q)
            mats[g][:, [a, b]] = mats[g][:, [b, a]]
        blocks.append((pos, mats))
    spec = dataclasses.replace(ps.spec)
    vars(spec)["phi_blocks"] = blocks
    return dataclasses.replace(ps, spec=spec)


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
    def test_phi_residuals_equal_per_element_loop(self, get_space, n, k, m_blocks):
        ps = get_space(n, k, m_blocks)
        b = ps.spec.b

        def apply(x):  # phi on one (n, n) matrix, a stack of one
            return _apply_phi(ps.spec, x[None])[0]

        def br(a, b):
            m = a @ b
            return m - m.T

        rng = np.random.default_rng(4242)
        dev_b = dev_iso = dev_conj = 0.0
        for _ in range(10):
            x, y = random_skew(rng, n), random_skew(rng, n)
            px, py = apply(x), apply(y)
            dev_b = max(dev_b, np.linalg.norm(apply(br(x, y)) - br(px, py)))
            dev_iso = max(dev_iso, abs(np.sum(px * py) - np.sum(x * y)))
            dev_conj = max(dev_conj, np.max(np.abs(px - b @ x @ b.T)), np.max(np.abs(py - b @ y @ b.T)))
        a = np.random.default_rng(4242).standard_normal((10, 2, n, n))
        xy = a - a.swapaxes(-1, -2)
        got = phi_residuals(ps, xy)
        np.testing.assert_allclose(got[:2], (dev_b, dev_iso), rtol=1e-12, atol=0)  # norms sum in another order
        assert got[2] == dev_conj  # one product per element either way
        assert max(got) < TAU_PHI

    @pytest.mark.parametrize("n", [5, 8, 12, 16, 24])
    def test_phi_from_the_blocks_is_the_dense_product(self, n):
        # Bit for bit at one rotation block (blocks of size 1 and 2); to rounding otherwise.
        # An element's image does not depend on the stack it comes in.
        xs = random_skew(np.random.default_rng(n), n, 20)
        for spec in _specs([n], blocks=(1, 2, 3), ks=(4, 6, 8)):
            dense = lie_mats(n, (phi_matrix(spec) @ lie_rows(xs)[..., None])[..., 0])
            one_by_one = np.concatenate([_apply_phi(spec, x[None]) for x in xs])
            assert _apply_phi(spec, xs).tobytes() == one_by_one.tobytes()
            if spec.m_blocks == 1:
                assert _apply_phi(spec, xs).tobytes() == dense.tobytes(), (spec.m_blocks, spec.k)
            else:
                np.testing.assert_allclose(_apply_phi(spec, xs), dense, rtol=0, atol=1e-13)

    def test_homomorphism_check_fails_with_two_phi_columns_swapped(self, get_space):
        ps = get_space(7, 6)
        broken = with_phi_columns_swapped(ps, 0, 1)
        assert not np.array_equal(phi_matrix(ps.spec), ref.scattered_phi(broken.spec))
        a = np.random.default_rng(1).standard_normal((10, 2, 7, 7))
        xy = a - a.swapaxes(-1, -2)
        dev_b, _, _ = phi_residuals(broken, xy)
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
        lhs = _apply_phi(ps.spec, brackets(x, y))
        rhs = brackets(_apply_phi(ps.spec, x), _apply_phi(ps.spec, y))
        assert np.max(np.linalg.norm(lhs - rhs, axis=(1, 2))) < 1e-9

    def test_phi_is_isometry(self, get_space, rng):
        ps = get_space(5, 4)
        x, y = random_skew(rng, 5, 10), random_skew(rng, 5, 10)
        tr = np.sum(_apply_phi(ps.spec, x) * _apply_phi(ps.spec, y), axis=(1, 2)) - np.sum(x * y, axis=(1, 2))
        assert np.max(np.abs(tr)) < 1e-9

    @pytest.mark.parametrize("n,k", TEST_MATRIX)
    def test_theta_order_and_no_fixed_vector(self, get_space, n, k):
        ps = get_space(n, k)
        d = ps.m.dim
        tk = np.linalg.matrix_power(ps.theta, k)
        assert np.max(np.abs(tk - np.eye(d))) < 1e-12
        assert np.min(np.linalg.svd(ps.theta - np.eye(d), compute_uv=False)) > 1e-6

    @pytest.mark.parametrize(
        "n,m_blocks,k",
        [(n, mb, k) for mb, ns in ((1, (4, 5)), (2, (5, 6)), (3, (7, 8))) for n in ns for k in (4, 6, 8, 10, 12)],
    )
    def test_theta_angles_are_those_of_the_numeric_theta(self, get_space, n, m_blocks, k):
        ps = get_space(n, k, m_blocks)
        folded = np.abs(np.angle(np.linalg.eigvals(ps.theta))) * k / (2 * np.pi)
        assert np.max(np.abs(folded - np.rint(folded))) < 1e-9
        assert theta_angles(ps.spec) == tuple(sorted(set(np.rint(folded).astype(int).tolist())))
        if m_blocks == 1:
            assert set(theta_angles(ps.spec)) == {1, k // 2 - 1, k // 2}

    def test_reductivity(self, get_space):
        ps = get_space(6, 6)
        assert np.max(ref.relative_residuals(ps.m, all_brackets(ps.h, ps.m))) <= 1e-9

    def test_h_orthogonal_to_m(self, get_space):
        ps = get_space(6, 4)
        cross = ps.h.coords @ ps.m.coords.T
        assert np.max(np.abs(cross)) < 1e-10


class TestRegularity:
    @pytest.mark.parametrize("n,k", TEST_MATRIX)
    def test_all_conditions_pass(self, get_space, n, k):
        rep = check_regularity(get_space(n, k))
        assert rep.agree and rep.direct_sum
        assert rep.agree

    def test_general_blocks(self, get_space):
        rep = check_regularity(get_space(7, 6, 2))
        assert rep.agree and rep.direct_sum

    def test_identity_automorphism_degenerate(self):
        # Hand-built identity conjugation: empty complement, checks vacuous.
        spec = AutomorphismSpec(n=4, m_blocks=1, k=1, b=np.eye(4))
        ps = build_phi_space(spec)
        assert ps.m.dim == 0
        assert ps.h.dim == 6
        rep = check_regularity(ps)
        assert rep.agree and rep.direct_sum

    def test_report_agreement_detection(self):
        rep = flagf.RegularityReport(
            direct_sum=True,
            nonsingular_on_image=False,
            kernel_square_stable=True,
            theta_no_fixed_vector=True,
        )
        assert not rep.agree
        assert not (rep.agree and rep.direct_sum)


class TestRegularityFromBlocks:
    """check_regularity reads phi - id block by block; space_reference.dense_regularity
    is the dense route it replaced (A and A^2 as dim-so(n) matrices)."""

    def test_equals_the_dense_route_on_every_accepted_spec(self):
        specs = _specs(range(4, 17), blocks=(1, 2, 3, 4))
        assert len(specs) == 293
        for spec in specs:
            ps = build_phi_space(spec)
            rep = check_regularity(ps)
            assert rep == ref.dense_regularity(ps), (spec.n, spec.m_blocks, spec.k)
            assert rep.agree and rep.direct_sum, (spec.n, spec.m_blocks, spec.k)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_identity_and_dense_b(self, n):
        identity = build_phi_space(AutomorphismSpec(n=n, m_blocks=1, k=1, b=np.eye(n)))
        for spec in [identity.spec] + [AutomorphismSpec(n, 1, k, _order_k_dense_b(n, k, seed=n)) for k in (4, 6)]:
            ps = build_phi_space(spec)
            rep = check_regularity(ps)
            assert rep == ref.dense_regularity(ps) and rep.agree and rep.direct_sum, (n, spec.k)

    @pytest.mark.parametrize("n,k,m_blocks", [(6, 4, 1), (8, 6, 1), (9, 8, 2)])
    def test_a_dropped_h_row_fails_both_routes(self, get_space, n, k, m_blocks):
        ps = get_space(n, k, m_blocks)
        broken = dataclasses.replace(ps, h=dense_subspace(n, ps.h.coords[1:]))
        rep = check_regularity(broken)
        assert rep == ref.dense_regularity(broken)
        assert not rep.direct_sum and not rep.kernel_square_stable and not (rep.agree and rep.direct_sum)

    @pytest.mark.parametrize("n,k,m_blocks", [(6, 4, 1), (9, 8, 2)])
    def test_an_m_row_tilted_into_h_fails_both_routes(self, get_space, n, k, m_blocks):
        # m stays orthonormal and of the right dimension, but is no longer orthogonal to h.
        ps = get_space(n, k, m_blocks)
        rows = np.array(ps.m.coords)
        rows[0] = np.cos(0.1) * rows[0] + np.sin(0.1) * ps.h.coords[0]
        broken = dataclasses.replace(ps, m=dense_subspace(n, rows))
        rep = check_regularity(broken)
        assert rep == ref.dense_regularity(broken)
        assert not rep.direct_sum and not (rep.agree and rep.direct_sum)

    @staticmethod
    def with_block(ps, size, g, mat):
        """ps with block g of the given size in ``spec.phi_blocks`` replaced by mat."""
        blocks = [(pos, np.array(mats)) for pos, mats in ps.spec.phi_blocks]
        (_, mats), = [b for b in blocks if b[0].shape[1] == size]
        mats[g] = mat
        spec = dataclasses.replace(ps.spec)
        vars(spec)["phi_blocks"] = blocks
        return dataclasses.replace(ps, spec=spec)

    def test_a_corrupted_phi_block_fails_both_routes(self, get_space):
        ps = get_space(7, 6)
        (_, singles), = [b for b in ps.spec.phi_blocks if b[0].shape[1] == 1]
        fixed = int(np.flatnonzero(singles[:, 0, 0] == 1.0)[0])  # a lex vector of h
        flipped = self.with_block(ps, 1, fixed, [[-1.0]])  # now outside ker(phi - id)
        rep = check_regularity(flipped)
        assert rep == ref.dense_regularity(flipped)
        assert not rep.kernel_square_stable and not rep.agree
        # A rotation of m by 1e-7: A is nonsingular on m in exact terms, but
        # below TAU_NONSINGULAR, and A^2 has a singular value below the rank cut.
        nearly_fixed = self.with_block(ps, 2, 0, rotation_block(1e-7))
        rep = check_regularity(nearly_fixed)
        assert rep == ref.dense_regularity(nearly_fixed)
        assert not rep.nonsingular_on_image and not rep.kernel_square_stable

    def test_cost_guard_below_one_dense_matrix(self, get_space):
        # Regularity and the three phi residuals at n = 24 peak below one 276 x 276
        # float array: no dense dim-so(n) matrix is formed (A^2 alone was one).
        ps = dataclasses.replace(get_space(24, 6))
        xy = random_skew(np.random.default_rng(0), 24, 20).reshape(10, 2, 24, 24)

        def run():
            check_regularity(ps)
            phi_residuals(ps, xy)

        run()
        assert TestCostGuard.peak(run) < 276 * 276 * 8


class TestThetaBlocks:
    """theta on its blocks (PhiSpace.theta_blocks): the rows of m in blocks of 1, 2 and
    4 on every space build_automorphism gives, theta zero off them."""

    def test_blocks_partition_m_and_hold_theta(self):
        specs = _specs(range(4, 17), blocks=(1, 2, 3, 4))
        for spec in specs:
            ps = build_phi_space(spec)
            sizes = [rows.shape[1] for rows, _ in ps.theta_blocks]
            assert sizes == sorted(set(sizes)) and set(sizes) <= {1, 2, 4}, (spec.n, spec.m_blocks, spec.k)
            covered = np.sort(np.concatenate([rows.ravel() for rows, _ in ps.theta_blocks]))
            assert np.array_equal(covered, np.arange(ps.m.dim))
            scattered = np.zeros_like(ps.theta)
            for rows, mats in ps.theta_blocks:
                assert not rows.flags.writeable and not mats.flags.writeable
                scattered[rows[:, :, None], rows[:, None, :]] = mats
            assert scattered.tobytes() == ps.theta.tobytes()

    def test_theta_minus_id_is_read_on_the_blocks(self, monkeypatch):
        # build_phi_space and check_regularity read theta - id block by block: closed forms at
        # blocks of 1 and 2, one batched SVD at blocks of 4, no eigvalsh of a dense d x d matrix.
        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("np.linalg.eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        for n, m_blocks, k in [(24, 1, 6), (9, 2, 8), (40, 9, 16)]:
            ps = build_phi_space(build_automorphism(n, m_blocks, k))
            assert check_regularity(ps).theta_no_fixed_vector

    def test_a_fixed_vector_in_one_block_is_seen(self, get_space):
        # theta as the identity on m1, one block of 2: both routes see the fixed vector.
        ps = get_space(6, 6)
        th = np.array(ps.theta)
        th[:2], th[:, :2] = 0.0, 0.0
        th[:2, :2] = np.eye(2)
        fixing = dataclasses.replace(ps, theta=th)
        assert not check_regularity(fixing).theta_no_fixed_vector
        assert not ref.dense_regularity(fixing).theta_no_fixed_vector
        with pytest.raises(RuntimeError, match="theta has a fixed vector"):
            _check_phi_space_invariants(fixing)


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
            kind="f-structure", label="x", signature=(), theta_polynomial=(0.0,) * ps.spec.k,
            blocks=on_theta_blocks(ps.theta_blocks, proj),
        )
        assert verify_structures([cs], ps)[0].ad_invariance > 1e-3


def _rotate_rows(coords_a, coords_b, angle):
    """Rotate the first row of a into the first row of b (and back)."""
    a, b = np.array(coords_a), np.array(coords_b)
    c, s = np.cos(angle), np.sin(angle)
    a[0], b[0] = c * coords_a[0] + s * coords_b[0], -s * coords_a[0] + c * coords_b[0]
    return a, b


class TestHMTable:
    """ad(h) on m, reductivity and the split's block leak, read off one [h, m] table."""

    SPACES = [(5, 4, 1), (8, 6, 1), (12, 6, 1), (7, 6, 2), (8, 6, 2), (9, 8, 3)]

    @pytest.mark.parametrize("n,k,m_blocks", SPACES)
    def test_ad_h_nonzeros_keep_the_bits_of_bracket_coords(self, get_space, n, k, m_blocks):
        ps = get_space(n, k, m_blocks)
        a, column, row, value = bracket_coords(ps.h, ps.m, ps.m)
        order = np.lexsort((column, row, a))
        for got, want in zip(ps.ad_h_nonzeros, (a[order], row[order], column[order], value[order])):
            assert got.tobytes() == want.tobytes()
        brackets, coords, _ = ps.h_m_table
        assert all(np.array_equal(x, y) for x, y in zip(coords, (a, column, row, value)))
        for x, y in zip(brackets, ref.bracket_nonzeros(n, ps.h.coords, ps.m.coords)):
            assert x.tobytes() == y.tobytes()
        assert ps.h_m_table is ps.h_m_table

    @pytest.mark.parametrize("n,k,m_blocks", SPACES)
    def test_reductivity_leak_matches_the_dense_rows(self, get_space, n, k, m_blocks):
        ps = get_space(n, k, m_blocks)
        want = ref.bracket_leak(ps.h, ps.m, ps.m)
        assert want < 1e-14
        np.testing.assert_allclose(ad_h_leak(ps), want, rtol=1e-12, atol=1e-15)

    def test_reductivity_leak_of_a_corrupted_m_matches_the_dense_rows(self, get_space):
        ps = get_space(6, 4)
        i, j = lex_indices(6)
        r = np.flatnonzero(ps.h.coords[:, np.flatnonzero((i == 4) & (j == 5))[0]])[0]
        h_rows, m_rows = _rotate_rows(np.roll(ps.h.coords, -r, axis=0), ps.m.coords, 0.3)
        bad = PhiSpace(ps.spec, dense_subspace(6, h_rows), dense_subspace(6, m_rows), ps.theta)
        want = ref.bracket_leak(bad.h, bad.m, bad.m)
        assert want > 0.1
        np.testing.assert_allclose(ad_h_leak(bad), want, rtol=1e-12)
        # With labels, the part off m counts too: one label is the leak off m, three add the leak across them.
        assert ad_h_leak(bad, np.zeros(bad.m.dim, dtype=int)) == ad_h_leak(bad)
        labels = np.repeat([1, 2, 3], [2, 6, 3])
        want = max(ref.bracket_leak(bad.h, blk, blk) for blk in ref.labelled_blocks(bad.m, labels))
        np.testing.assert_allclose(ad_h_leak(bad, labels), want, rtol=1e-10)

    @pytest.mark.parametrize("n,k,m_blocks", SPACES)
    def test_block_leak_of_labelled_rows_matches_the_dense_rows(self, get_space, n, k, m_blocks):
        ps = get_space(n, k, m_blocks)
        labels = np.random.default_rng(n * k + m_blocks).permutation(np.arange(ps.m.dim) % 3)
        want = max(ref.bracket_leak(ps.h, blk, blk) for blk in ref.labelled_blocks(ps.m, labels))
        assert want > 0.01
        np.testing.assert_allclose(ad_h_leak(ps, labels), want, rtol=1e-10)
        assert ad_h_leak(ps, np.zeros(ps.m.dim, dtype=int)) == ad_h_leak(ps)  # one block: the leak off m

    @pytest.mark.parametrize("n,k", [(5, 4), (8, 6), (12, 6), (24, 6)])
    def test_split_blocks_leak_nothing_and_a_leaning_h_leaks(self, get_space, get_split, n, k):
        # The split's labels on m's own rows leak nothing, as the dense rows of each block; with
        # h's first row turned into m they leak as the dense rows do, above 0.1.
        ps, split = get_space(n, k), get_split(n, k)
        assert ad_h_leak(ps, split.block_index) == 0.0
        assert max(ref.bracket_leak(ps.h, blk, blk) for blk in split_blocks(split)) < 1e-14
        h_rows, _ = _rotate_rows(ps.h.coords, ps.m.coords, 0.3)
        leaning = PhiSpace(ps.spec, dense_subspace(n, h_rows), ps.m, ps.theta)
        want = max(ref.bracket_leak(leaning.h, blk, blk) for blk in split_blocks(split))
        assert ad_h_leak(leaning, split.block_index) > 0.1
        np.testing.assert_allclose(ad_h_leak(leaning, split.block_index), want, rtol=1e-10)


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
        # peak (0.32 MB; 1.37 MB with dense bracket rows) stays below one (d, d, d)
        # float array, 2.2 MB at d = 65.
        ps = get_space(24, 6)
        assert self.peak(lambda: flagf.build_split(ps)) < ps.m.dim**3 * 8


class TestStructuralChecksStillBite:
    def test_reductivity_fails_on_corrupted_m(self, get_space):
        ps = get_space(6, 4)
        # Rotating e_12 into e_01 keeps [h, m] in m, so rotate h's row e_45 into m's first row.
        i, j = lex_indices(6)
        r = np.flatnonzero(ps.h.coords[:, np.flatnonzero((i == 4) & (j == 5))[0]])[0]
        h_rows, m_rows = _rotate_rows(np.roll(ps.h.coords, -r, axis=0), ps.m.coords, 0.3)
        h, m = dense_subspace(6, h_rows), dense_subspace(6, m_rows)
        theta = m.coords @ phi_matrix(ps.spec) @ m.coords.T
        with pytest.raises(RuntimeError, match="reductivity failure"):
            _check_phi_space_invariants(PhiSpace(ps.spec, h, m, theta))

    def test_theta_order_fails_above_tau_order(self, get_space):
        # theta scaled by 1 + 5e-10 gives |theta^4 - id| = 2e-9: above TAU_ORDER, below 1e-8.
        ps = get_space(6, 4)
        bad = PhiSpace(ps.spec, ps.h, ps.m, (1.0 + 5e-10) * ps.theta)
        assert TAU_ORDER < bad.theta_order_residual < 1e-8
        with pytest.raises(RuntimeError, match="theta\\^k is not the identity"):
            _check_phi_space_invariants(bad)

    @pytest.mark.parametrize("n,k,m_blocks", [(4, 4, 1), (12, 6, 1), (9, 8, 3), (16, 16, 1), (7, 10, 3)])
    def test_theta_order_residual_is_theta_times_its_last_power(self, get_space, n, k, m_blocks):
        # Read on theta's blocks: the dense theta @ theta^(k - 1) sums the same nonzero products,
        # in another order at a block of 4, so the two agree to a few rounding steps.
        ps = get_space(n, k, m_blocks)
        eye = np.eye(ps.m.dim)
        dense = float(np.max(np.abs(ps.theta @ op_powers(ps.theta, k)[-1] - eye)))
        assert abs(ps.theta_order_residual - dense) <= 4 * np.finfo(float).eps
        by_squaring = float(np.max(np.abs(np.linalg.matrix_power(ps.theta, k) - eye)))
        assert max(ps.theta_order_residual, by_squaring) < 1e-14

    @pytest.mark.parametrize("n,k", [(4, 4), (6, 6), (12, 6)])
    def test_split_fails_when_an_m1_and_an_m3_label_swap(self, get_space, get_split, n, k):
        ps, split = get_space(n, k), get_split(n, k)
        labels = split.block_index.copy()
        labels[[0, -1]] = labels[[-1, 0]]  # the first row of m1 in m3, the last row of m3 in m1
        want = max(ref.bracket_leak(ps.h, blk, blk) for blk in ref.labelled_blocks(ps.m, labels))
        assert want > 0.1
        np.testing.assert_allclose(ad_h_leak(ps, labels), want, rtol=1e-10)
        with pytest.raises(RuntimeError, match="block is not ad\\(h\\)-invariant"):
            _check_split_invariants(ps, dataclasses.replace(split, block_index=labels))

    def test_split_fails_on_wrong_block_dimensions(self, get_space, get_split):
        ps, split = get_space(6, 6), get_split(6, 6)
        for labels in (np.where(split.block_index == 1, 2, split.block_index), split.block_index - 1):
            with pytest.raises(RuntimeError, match="unexpected block dimensions"):
                _check_split_invariants(ps, dataclasses.replace(split, block_index=labels))

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


def _specs(ns, blocks=(1, 2, 3), ks=range(4, 17, 2)):
    """Every accepted (n, m_blocks, k) spec of the grid."""
    out = []
    for n in ns:
        for m_blocks in blocks:
            for k in ks:
                try:
                    out.append(build_automorphism(n, m_blocks, k))
                except ValueError:  # a parameter set build_automorphism refuses
                    pass
    return out


def _projector(space):
    return space.coords.T @ space.coords


def _order_k_dense_b(n, k, seed):
    """A dense orthogonal B of order k: rotations by 2 pi t / k in a random basis."""
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]
    d = np.eye(n)
    for t in range(1, n // 2 + 1):
        d[2 * t - 2 : 2 * t, 2 * t - 2 : 2 * t] = rotation_block(2.0 * np.pi * t / k)
    return q @ d @ q.T


class TestBlockRoute:
    """phi, h, m and theta from B's blocks against the dense routes of space_reference."""

    @pytest.mark.parametrize("n", range(4, 25))
    def test_phi_is_bitwise_the_stacked_conjugation(self, n):
        specs = _specs([n])
        assert specs
        for spec in specs:
            dense = np.zeros((n * (n - 1) // 2,) * 2)
            for pos, mats in phi_blocks(spec.b):
                dense[pos[:, :, None], pos[:, None, :]] = mats
            assert np.array_equal(dense, ref.phi_matrix(spec)), (n, spec.m_blocks, spec.k)
        assert not hasattr(build_phi_space(specs[-1]), "phi")  # the blocks are the only form of phi

    def test_phi_blocks_have_size_1_2_or_4(self):
        for spec in _specs([9, 12], blocks=(1, 2, 4)):
            sizes = {pos.shape[1] for pos, _ in phi_blocks(spec.b)}
            assert sizes <= {1, 2, 4}, (spec.n, spec.m_blocks, spec.k)
            covered = np.sort(np.concatenate([pos.ravel() for pos, _ in phi_blocks(spec.b)]))
            np.testing.assert_array_equal(covered, np.arange(spec.n * (spec.n - 1) // 2))

    @pytest.mark.parametrize("n", range(4, 25))
    def test_one_rotation_block_h_m_theta(self, n):
        # m is the flag pattern, h the other lex vectors in lex order, and theta
        # the pattern's gather of phi, bit for bit.
        pattern = flag_complement_pattern(n)
        others = np.setdiff1d(np.arange(n * (n - 1) // 2), pattern.entries[1])
        for spec in _specs([n], blocks=(1,), ks=(4, 6, 10, 16)):
            ps = build_phi_space(spec)
            assert ps.m is pattern
            np.testing.assert_array_equal(ps.h.coords, np.eye(n * (n - 1) // 2)[others])
            want = pattern.coords @ ref.phi_matrix(spec) @ pattern.coords.T
            assert ps.theta.tobytes() == want.tobytes(), (n, spec.k)
            assert not ps.theta.flags.writeable

    @pytest.mark.parametrize(
        "specs",
        [_specs(range(4, 9)), _specs(range(9, 13)), _specs([16, 24], blocks=(1, 2), ks=(6, 8))],
        ids=["n4-8", "n9-12", "n16-24"],
    )
    def test_projectors_match_the_svd_route(self, specs):
        for spec in specs:
            ps = build_phi_space(spec)
            h, m, theta = ref.dense_phi_space(spec)
            assert (ps.h.dim, ps.m.dim) == (h.dim, m.dim)
            for got, want in ((ps.h, h), (ps.m, m)):
                np.testing.assert_allclose(_projector(got), _projector(want), rtol=0, atol=1e-12)
            # theta is the same operator over another basis of m
            r = ps.m.coords @ m.coords.T
            np.testing.assert_allclose(r @ theta @ r.T, ps.theta, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m_blocks,k,rows,cols", [(3, 4, (1, 2), (5, 6)), (4, 6, (3, 4), (7, 8))])
    def test_mixed_block(self, m_blocks, k, rows, cols):
        # At (9, 3, 4) the rotations t = 1 and t = 3 sum to k, at (9, 4, 6)
        # t = 2 and t = 4: Ad(B) on the lex vectors of rows x cols has the
        # eigenvalue 1 twice and two others.
        spec = build_automorphism(9, m_blocks, k)
        ps = build_phi_space(spec)
        i, j = lex_indices(9)
        pos = np.flatnonzero(np.isin(i, rows) & np.isin(j, cols))
        assert any(np.array_equal(p, pos) for group, _ in phi_blocks(spec.b) for p in group)
        for space in (ps.h, ps.m):  # two SVD vectors each, inside the block and not lex vectors
            row, at, _ = space.entries
            rows = np.unique(row[np.isin(at, pos)])
            assert len(rows) == 2
            assert np.all(np.isin(at[np.isin(row, rows)], pos))
            assert np.count_nonzero(np.isin(row, rows)) > 2
        h, m, _ = ref.dense_phi_space(spec)
        np.testing.assert_allclose(_projector(ps.h), _projector(h), rtol=0, atol=1e-12)
        np.testing.assert_allclose(_projector(ps.m), _projector(m), rtol=0, atol=1e-12)
        rep = check_regularity(ps)
        assert rep.agree and rep.direct_sum

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_hand_built_b(self, n):
        identity = build_phi_space(AutomorphismSpec(n=n, m_blocks=1, k=1, b=np.eye(n)))
        assert [pos.shape for pos, _ in identity.spec.phi_blocks] == [(n * (n - 1) // 2, 1)]
        assert identity.m.dim == 0 and identity.h.dim == n * (n - 1) // 2
        assert np.array_equal(ref.scattered_phi(identity.spec), ref.phi_matrix(identity.spec))
        for k in (4, 6):
            spec = AutomorphismSpec(n=n, m_blocks=1, k=k, b=_order_k_dense_b(n, k, seed=n))
            ((pos, _),) = phi_blocks(spec.b)  # one block: all of so(n)
            assert pos.shape == (1, n * (n - 1) // 2)
            ps = build_phi_space(spec)
            assert np.array_equal(ref.scattered_phi(spec), ref.phi_matrix(spec))
            h, m, _ = ref.dense_phi_space(spec)
            np.testing.assert_allclose(_projector(ps.h), _projector(h), rtol=0, atol=1e-12)
            np.testing.assert_allclose(_projector(ps.m), _projector(m), rtol=0, atol=1e-12)
            rep = check_regularity(ps)
            assert rep.agree and rep.direct_sum

    def test_dense_order_is_k_on_every_accepted_spec(self):
        # build_automorphism no longer checks the order: B has the eigen-angle
        # indices 0 and +-1, so Ad(B) has index 1 and order exactly k.
        specs = _specs(range(4, 15), blocks=range(1, 7))
        assert len(specs) == 267
        for spec in specs:
            assert ref.conjugation_order(spec, cap=spec.k) == spec.k, (spec.n, spec.m_blocks, spec.k)

    @pytest.mark.parametrize("n,m_blocks,k", [(7, 2, 6), (9, 2, 8), (9, 4, 6), (12, 3, 8)])
    def test_theta_and_f_rows_are_at_most_4_wide(self, get_space, n, m_blocks, k):
        # m is block-local, so theta and every polynomial in it act within blocks of <= 4.
        ps = get_space(n, k, m_blocks)
        assert np.max(np.count_nonzero(ps.theta, axis=1)) <= 4
        for cs in flagf.generate_f_structures(ps) + flagf.generate_product_structures(ps):
            assert np.max(np.count_nonzero(cs.matrix, axis=1)) <= 4, cs.label

    def test_phi_conjugation_residual_bites(self, get_space):
        ps = get_space(7, 6)
        xy = random_skew(np.random.default_rng(5), 7, 20).reshape(10, 2, 7, 7)
        assert phi_residuals(ps, xy)[2] < TAU_PHI
        assert phi_residuals(with_phi_columns_swapped(ps, 0, 1), xy)[2] > 0.1


class TestSingularValues:
    def test_closed_forms_match_lapack(self, rng):
        for s in (1, 2):
            mats = rng.standard_normal((200, s, s))
            mats[:50, -1] = mats[:50, 0]  # singular ones
            np.testing.assert_allclose(_stack_singular_values(mats), np.linalg.svd(mats, compute_uv=False), rtol=0, atol=1e-14)

    def test_nonsingular_reads_the_smallest_singular_value(self, rng):
        q = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        for smallest, want in ((2e-6, True), (5e-7, False), (0.0, False)):
            mat = q @ np.diag([2.0, 1.5, 1.0, 0.7, 0.5, 0.2, 0.1, smallest]) @ q.T
            assert _nonsingular(mat) is want
        assert _nonsingular(np.zeros((0, 0)))

    @pytest.mark.parametrize("n,k,m_blocks", [(5, 4, 1), (12, 6, 1), (7, 6, 2), (9, 6, 4)])
    def test_kernel_dim_is_the_svd_kernel(self, get_space, n, k, m_blocks):
        ps = get_space(n, k, m_blocks)
        full = full_space(n)
        a = phi_matrix(ps.spec) - np.eye(full.dim)
        for mat in (a, a @ a):
            assert ref.kernel_dim(mat) == ref.kernel_and_image(mat, full)[0].dim == ps.h.dim


class TestConstructionCost:
    """Building a flag space takes no SVD and forms no dense dim-so(n) matrix."""

    def test_no_svd_at_one_rotation_block(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        for n, k in [(5, 4), (12, 6), (24, 16)]:
            flagf.build_split(build_phi_space(build_automorphism(n, 1, k)))

    def test_no_dense_so_n_array(self):
        # The whole construction peaks below one 276 x 276 float array, so no
        # (dim so(n))^2 product or matrix is formed.  A first build imports
        # numpy.ma (np.unique does), which is not the construction's memory.
        flagf.build_split(build_phi_space(build_automorphism(24, 1, 6)))
        dense = 276 * 276 * 8
        assert TestCostGuard.peak(lambda: flagf.build_split(build_phi_space(build_automorphism(24, 1, 6)))) < dense
        spec = build_automorphism(24, 1, 6)
        assert TestCostGuard.peak(lambda: build_phi_space(spec)) < dense
