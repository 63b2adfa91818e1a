import numpy as np
import pytest

from flagf.liealg import (
    EndoOnM,
    Subspace,
    _orth_rows,
    ad_matrix,
    basis_element,
    bracket,
    bracket_coords,
    bracket_rows,
    decompose_orthogonal,
    image,
    lex_indices,
    lie_coords,
    lie_from_coords,
    nullspace,
    poly_in,
    random_skew,
    skew,
    trace_form,
)
from flagf.tolerances import TAU_SUBSPACE


def orthonormalized(space: Subspace) -> Subspace:
    """Re-run orthonormalization on a subspace (idempotent within TAU_ORTH)."""
    return Subspace(space.ambient_n, _orth_rows(space.coords))


def elementary(n, i, j):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


def bracket_oracle(n, pairs_x, pairs_y):
    """Commutator of sums of (E_ij - E_ji) expanded term by term via
    E_ab E_cd = delta_bc E_ad.  Independent of the package implementation."""
    out = np.zeros((n, n))
    terms_x = [(1.0, i, j) for i, j in pairs_x] + [(-1.0, j, i) for i, j in pairs_x]
    terms_y = [(1.0, i, j) for i, j in pairs_y] + [(-1.0, j, i) for i, j in pairs_y]
    for cx, a, b in terms_x:
        for cy, c, d in terms_y:
            if b == c:
                out += cx * cy * elementary(n, a, d)
            if d == a:
                out -= cx * cy * elementary(n, c, b)
    return out


class TestBracket:
    def test_elementary_example(self):
        # [E12 - E21, E24 - E42] = E14 - E41 (1-based), via the expansion oracle.
        x = skew(elementary(4, 0, 1) - elementary(4, 1, 0))
        y = skew(elementary(4, 1, 3) - elementary(4, 3, 1))
        want = bracket_oracle(4, [(0, 1)], [(1, 3)])
        np.testing.assert_allclose(want, elementary(4, 0, 3) - elementary(4, 3, 0))
        np.testing.assert_allclose(bracket(x, y).mat, want)

    def test_self_bracket_vanishes(self):
        x = skew(elementary(5, 0, 2) - elementary(5, 2, 0))
        assert bracket(x, x).norm == 0.0

    def test_matches_oracle_on_all_basis_pairs(self):
        n = 5
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for p in pairs:
            for q in pairs:
                got = bracket(
                    skew(elementary(n, *p) - elementary(n, p[1], p[0])),
                    skew(elementary(n, *q) - elementary(n, q[1], q[0])),
                ).mat
                np.testing.assert_allclose(got, bracket_oracle(n, [p], [q]), atol=1e-14)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="dimension mismatch"):
            bracket(random_skew(rng, 4), random_skew(rng, 5))

    def test_result_skew(self, rng):
        z = bracket(random_skew(rng, 6), random_skew(rng, 6))
        np.testing.assert_allclose(z.mat, -z.mat.T)

    def test_jacobi_identity(self, rng):
        for _ in range(25):
            x, y, z = (random_skew(rng, 5) for _ in range(3))
            total = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(z, bracket(x, y))
            assert total.norm < 1e-9


class TestTraceForm:
    def test_unit_element_norm(self):
        x = skew(elementary(4, 0, 1) - elementary(4, 1, 0))
        assert trace_form(x, x) == pytest.approx(2.0)

    def test_disjoint_supports_orthogonal(self):
        x = skew(elementary(4, 0, 1) - elementary(4, 1, 0))
        y = skew(elementary(4, 0, 2) - elementary(4, 2, 0))
        assert trace_form(x, y) == 0.0

    def test_bilinearity(self):
        x = skew(elementary(4, 0, 1) - elementary(4, 1, 0))
        assert trace_form(x, 3.0 * x) == pytest.approx(6.0)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="dimension mismatch"):
            trace_form(random_skew(rng, 4), random_skew(rng, 6))

    def test_positive_definite(self, rng):
        for _ in range(10):
            x = random_skew(rng, 5)
            assert trace_form(x, x) > 0.0

    def test_ad_invariance(self, rng):
        # <[X, Y], Z> = <X, [Y, Z]> underlies the natural reductivity of g0.
        for _ in range(25):
            x, y, z = (random_skew(rng, 5) for _ in range(3))
            lhs = trace_form(bracket(x, y), z)
            rhs = trace_form(x, bracket(y, z))
            assert abs(lhs - rhs) < 1e-9


class TestCoordinates:
    def test_roundtrip(self, rng):
        x = random_skew(rng, 6)
        np.testing.assert_allclose(lie_from_coords(6, lie_coords(x)).mat, x.mat, atol=1e-14)

    def test_isometry(self, rng):
        x, y = random_skew(rng, 5), random_skew(rng, 5)
        assert np.dot(lie_coords(x), lie_coords(y)) == pytest.approx(trace_form(x, y))

    def test_skew_rejected(self):
        with pytest.raises(ValueError, match="skew"):
            skew(np.eye(3))


class TestSubspace:
    def test_full_space_basis_is_lexicographic(self):
        full = Subspace.full(4)
        assert full.dim == 6
        first = full.basis[0]
        np.testing.assert_allclose(first.mat, basis_element(4, 0, 1).mat)

    def test_orthonormality_enforced(self):
        bad = np.ones((2, 6))
        with pytest.raises(ValueError, match="orthonormal"):
            Subspace(4, bad)

    def test_span_orthonormalizes_dependent_set(self):
        x = basis_element(4, 0, 1, normalized=False)
        sp = Subspace.span(4, [x, 2.0 * x, basis_element(4, 2, 3, normalized=False)])
        assert sp.dim == 2
        gram = sp.coords @ sp.coords.T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)

    def test_projection_into_and_out(self):
        sp = Subspace.span(4, [basis_element(4, 0, 1)])
        inside = 2.5 * basis_element(4, 0, 1)
        outside = basis_element(4, 2, 3)
        assert np.max(np.abs(sp.project(inside).mat - inside.mat)) <= 1e-12
        assert sp.project(outside).norm < 1e-14
        assert sp.member_residual(inside) <= TAU_SUBSPACE
        assert sp.member_residual(outside) > TAU_SUBSPACE

    def test_reorthonormalize_idempotent(self, rng):
        rows = np.linalg.qr(rng.standard_normal((10, 4)))[0].T
        sp = Subspace(5, rows)
        again = orthonormalized(sp)
        # Same subspace, orthonormal to within TAU_ORTH.
        assert again.dim == sp.dim
        for x in sp.basis:
            assert again.member_residual(x) <= 1e-10


class TestNullspaceImage:
    def test_identity_has_empty_kernel(self):
        full = Subspace.full(4)
        assert nullspace(EndoOnM.identity(full)).dim == 0

    def test_zero_matrix_kernel_is_everything(self):
        full = Subspace.full(4)
        ker = nullspace(np.zeros((6, 6)), domain=full)
        assert ker.dim == 6

    def test_image_of_zero_is_empty(self):
        full = Subspace.full(4)
        assert image(np.zeros((6, 6)), domain=full).dim == 0

    def test_fixed_space_of_order4_conjugation_on_so4(self):
        # Fixed points of Ad(B) for the order-4 flag automorphism on so(4)
        # form the line through E23 - E32 (1-based indices).
        from flagf.phispace import build_automorphism, phi_matrix

        spec = build_automorphism(4, 1, 4)
        full = Subspace.full(4)
        a = EndoOnM(full, phi_matrix(spec)) - EndoOnM.identity(full)
        ker = nullspace(a)
        assert ker.dim == 1
        gen = skew(elementary(4, 1, 2) - elementary(4, 2, 1))
        assert ker.member_residual(gen) <= 1e-10

    def test_rank_nullity(self, rng):
        full = Subspace.full(4)
        m = rng.standard_normal((6, 6))
        m[:, 3] = m[:, 0] + m[:, 1]  # force a nontrivial kernel
        assert nullspace(m, domain=full).dim + image(m, domain=full).dim == 6

    def test_nullspace_orthogonal_to_row_image(self, rng):
        # kernel of M is orthogonal to image of M^T
        full = Subspace.full(4)
        m = rng.standard_normal((6, 6))
        m[:, 3] = m[:, 2]
        ker = nullspace(m, domain=full)
        rowspace = image(m.T, domain=full)
        cross = ker.coords @ rowspace.coords.T
        assert np.max(np.abs(cross)) < 1e-10

    def test_raw_matrix_requires_domain(self):
        with pytest.raises(ValueError, match="domain"):
            nullspace(np.zeros((3, 3)))


class TestDecomposeOrthogonal:
    def test_true_decomposition(self):
        whole = Subspace.span(4, [basis_element(4, 0, 1), basis_element(4, 0, 2), basis_element(4, 2, 3)])
        parts = [
            Subspace.span(4, [basis_element(4, 0, 1)]),
            Subspace.span(4, [basis_element(4, 0, 2), basis_element(4, 2, 3)]),
        ]
        assert decompose_orthogonal(whole, parts)

    def test_dimension_shortfall(self):
        whole = Subspace.full(4)
        assert not decompose_orthogonal(whole, [Subspace.span(4, [basis_element(4, 0, 1)])])

    def test_non_orthogonal_parts(self):
        x = basis_element(4, 0, 1, normalized=False)
        y = basis_element(4, 0, 2, normalized=False)
        whole = Subspace.span(4, [x, y])
        parts = [Subspace.span(4, [x]), Subspace.span(4, [x + y])]
        assert not decompose_orthogonal(whole, parts)


class TestEndoOnM:
    def test_apply_matches_matrix(self, rng):
        full = Subspace.full(4)
        m = rng.standard_normal((6, 6))
        op = EndoOnM(full, m)
        x = random_skew(rng, 4)
        np.testing.assert_allclose(
            lie_coords(op.apply(x)), m @ lie_coords(x), atol=1e-12
        )

    def test_poly_in(self, rng):
        full = Subspace.full(4)
        m = rng.standard_normal((6, 6))
        op = EndoOnM(full, m)
        got = poly_in(op, [1.0, 0.0, 2.0]).matrix
        np.testing.assert_allclose(got, np.eye(6) + 2.0 * m @ m, atol=1e-12)

    def test_matrix_on_rotated_basis(self, rng):
        full = Subspace.full(4)
        q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        other = Subspace(4, q)
        m = rng.standard_normal((6, 6))
        op = EndoOnM(full, m)
        m2 = op.matrix_on(other)
        x = random_skew(rng, 4)
        np.testing.assert_allclose(
            m2 @ other.coords_of(x), other.coords_of(op.apply(x)), atol=1e-10
        )


class TestAdMatrix:
    def test_ad_reproduces_bracket(self, rng):
        full = Subspace.full(5)
        h = random_skew(rng, 5)
        a = ad_matrix(h, full)
        x = random_skew(rng, 5)
        np.testing.assert_allclose(a @ lie_coords(x), lie_coords(bracket(h, x)), atol=1e-10)

    def test_ad_matches_per_element_brackets(self, rng):
        sp = Subspace(6, np.linalg.qr(rng.standard_normal((15, 7)))[0].T)
        h = random_skew(rng, 6)
        want = np.array([sp.coords_of(bracket(h, x)) for x in sp.basis]).T
        np.testing.assert_allclose(ad_matrix(h, sp), want, atol=1e-14)

    def test_ad_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="dimension mismatch"):
            ad_matrix(random_skew(rng, 4), Subspace.full(5))


def random_subspace(rng, n, dim):
    q = np.linalg.qr(rng.standard_normal((n * (n - 1) // 2, dim)))[0]
    return Subspace(n, q.T)


class TestBracketKernel:
    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_matches_bracket_on_every_pair(self, rng, n):
        x, y = random_subspace(rng, n, 3), random_subspace(rng, n, 4)
        got = bracket_coords(x, y)
        assert got.shape == (3, 4, n * (n - 1) // 2)
        for a, xa in enumerate(x.basis):
            for b, yb in enumerate(y.basis):
                np.testing.assert_allclose(got[a, b], lie_coords(bracket(xa, yb)), atol=1e-14)

    def test_projection_onto_subspace(self, rng):
        x, y, onto = (random_subspace(rng, 5, d) for d in (2, 3, 4))
        got = bracket_coords(x, y, onto=onto)
        assert got.shape == (2, 3, 4)
        for a, xa in enumerate(x.basis):
            for b, yb in enumerate(y.basis):
                np.testing.assert_allclose(got[a, b], onto.coords_of(bracket(xa, yb)), atol=1e-14)

    def test_full_basis_antisymmetric_and_matches_oracle(self):
        full = Subspace.full(5)
        bc = bracket_coords(full, full)
        np.testing.assert_array_equal(bc, -bc.transpose(1, 0, 2))
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        for a, p in enumerate(pairs):
            for b, q in enumerate(pairs):
                want = lie_coords(skew(bracket_oracle(5, [p], [q]) / 2.0))
                np.testing.assert_allclose(bc[a, b], want, atol=1e-15)

    def test_rows_need_not_be_orthonormal(self, rng):
        x, y = random_skew(rng, 5), random_skew(rng, 5)
        (row,) = bracket_rows(5, [lie_coords(x)], [lie_coords(y), 2.0 * lie_coords(y)])
        np.testing.assert_allclose(row[0], lie_coords(bracket(x, y)), atol=1e-13)
        np.testing.assert_allclose(row[1], 2.0 * row[0], atol=1e-13)

    def test_empty_subspaces(self):
        full, empty = Subspace.full(4), Subspace.empty(4)
        assert bracket_coords(empty, full).shape == (0, 6, 6)
        assert bracket_coords(full, empty).shape == (6, 0, 6)
        assert bracket_coords(full, full, onto=empty).shape == (6, 6, 0)

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError, match="ambient"):
            bracket_coords(Subspace.full(4), Subspace.full(5))

    def test_lex_indices_cached_and_read_only(self):
        iu = lex_indices(6)
        assert lex_indices(6) is iu
        for a, b in zip(iu, np.triu_indices(6, 1)):
            np.testing.assert_array_equal(a, b)
            with pytest.raises(ValueError):
                a[0] = 1
