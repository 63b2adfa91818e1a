import numpy as np
import pytest

from flagf.liealg import (
    EndoOnM,
    Subspace,
    _orth_rows,
    bracket_coords,
    bracket_nonzeros,
    bracket_row_chunks,
    brackets,
    decompose_orthogonal,
    image,
    lex_indices,
    lie_mats,
    lie_rows,
    nullspace,
    poly_in,
)
from flagf.tolerances import TAU_SUBSPACE


def orthonormalized(space: Subspace) -> Subspace:
    """Re-run orthonormalization on a subspace (idempotent within TAU_ORTH)."""
    return Subspace(space.ambient_n, _orth_rows(space.coords))


def elementary(n, i, j):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


def unit(n, i, j, normalized=True):
    """Lex coordinates of E_ij - E_ji, divided by sqrt(2) when normalized."""
    return lie_rows(elementary(n, i, j) - elementary(n, j, i)) / (np.sqrt(2.0) if normalized else 1.0)


def random_skew(rng, n, count=None):
    """A random skew matrix, or a (count, n, n) stack of them."""
    a = rng.standard_normal((n, n) if count is None else (count, n, n))
    return a - a.swapaxes(-1, -2)


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
        x = elementary(4, 0, 1) - elementary(4, 1, 0)
        y = elementary(4, 1, 3) - elementary(4, 3, 1)
        want = bracket_oracle(4, [(0, 1)], [(1, 3)])
        np.testing.assert_allclose(want, elementary(4, 0, 3) - elementary(4, 3, 0))
        np.testing.assert_allclose(brackets(x, y), want)

    def test_self_bracket_vanishes(self):
        x = elementary(5, 0, 2) - elementary(5, 2, 0)
        assert np.linalg.norm(brackets(x, x)) == 0.0

    def test_matches_oracle_on_all_basis_pairs(self):
        n = 5
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        xs = np.stack([elementary(n, *p) - elementary(n, p[1], p[0]) for p in pairs])
        got = brackets(xs[:, None], xs[None, :])  # every pair, broadcast over the two stacks
        for a, p in enumerate(pairs):
            for b, q in enumerate(pairs):
                np.testing.assert_allclose(got[a, b], bracket_oracle(n, [p], [q]), atol=1e-14)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            brackets(random_skew(rng, 4, 2), random_skew(rng, 5, 2))

    def test_result_skew(self, rng):
        z = brackets(random_skew(rng, 6, 3), random_skew(rng, 6, 3))
        np.testing.assert_array_equal(z, -z.swapaxes(1, 2))

    def test_jacobi_identity(self, rng):
        x, y, z = (random_skew(rng, 5, 25) for _ in range(3))
        total = brackets(x, brackets(y, z)) + brackets(y, brackets(z, x)) + brackets(z, brackets(x, y))
        assert np.max(np.linalg.norm(total, axis=(1, 2))) < 1e-9


class TestTraceForm:
    """Tr(X^T Y) is the dot product of lex coordinates."""

    def test_unit_element_norm(self):
        x = unit(4, 0, 1, normalized=False)
        assert x @ x == pytest.approx(2.0)

    def test_disjoint_supports_orthogonal(self):
        assert unit(4, 0, 1) @ unit(4, 0, 2) == 0.0

    def test_bilinearity(self):
        x = unit(4, 0, 1, normalized=False)
        assert x @ (3.0 * x) == pytest.approx(6.0)

    def test_positive_definite(self, rng):
        x = lie_rows(random_skew(rng, 5, 10))
        assert np.all(np.sum(x * x, axis=1) > 0.0)

    def test_ad_invariance(self, rng):
        # <[X, Y], Z> = <X, [Y, Z]> underlies the natural reductivity of g0.
        x, y, z = (random_skew(rng, 5, 25) for _ in range(3))
        lhs = np.sum(lie_rows(brackets(x, y)) * lie_rows(z), axis=1)
        rhs = np.sum(lie_rows(x) * lie_rows(brackets(y, z)), axis=1)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestCoordinates:
    def test_roundtrip(self, rng):
        x = random_skew(rng, 6, 4)
        np.testing.assert_allclose(lie_mats(6, lie_rows(x)), x, atol=1e-14)

    def test_isometry(self, rng):
        x, y = random_skew(rng, 5, 3), random_skew(rng, 5, 3)
        np.testing.assert_allclose(np.sum(lie_rows(x) * lie_rows(y), axis=1), np.sum(x * y, axis=(1, 2)))

    def test_skew_rejected(self):
        with pytest.raises(ValueError, match="skew"):
            lie_rows(np.eye(3))

    def test_skew_checked_per_matrix_relative_to_its_scale(self, rng):
        x = random_skew(rng, 5, 3)
        x[2] *= 1e6
        x[2, 0, 1] += 1e-7  # 1e-13 of that matrix's scale: accepted
        lie_rows(x)
        x[0, 0, 1] += 1e-7  # 1e-7 of a scale of about 1 in another matrix: rejected
        with pytest.raises(ValueError, match="not skew-symmetric"):
            lie_rows(x)


class TestSubspace:
    def test_full_space_basis_is_lexicographic(self):
        full = Subspace.full(4)
        assert full.dim == 6
        np.testing.assert_allclose(lie_mats(4, full.coords)[0], (elementary(4, 0, 1) - elementary(4, 1, 0)) / np.sqrt(2.0))

    def test_orthonormality_enforced(self):
        bad = np.ones((2, 6))
        with pytest.raises(ValueError, match="orthonormal"):
            Subspace(4, bad)

    def test_span_orthonormalizes_dependent_set(self):
        x = unit(4, 0, 1, normalized=False)
        sp = Subspace.span(4, [x, 2.0 * x, unit(4, 2, 3, normalized=False)])
        assert sp.dim == 2
        gram = sp.coords @ sp.coords.T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)

    def test_projection_into_and_out(self):
        sp = Subspace.span(4, [unit(4, 0, 1)])
        inside, outside = 2.5 * unit(4, 0, 1), unit(4, 2, 3)
        proj = sp.project_rows(np.stack([inside, outside]))
        assert np.max(np.abs(proj[0] - lie_mats(4, inside[None])[0])) <= 1e-12
        assert np.linalg.norm(proj[1]) < 1e-14
        res = sp.relative_residuals(np.stack([inside, outside]))
        assert res[0] <= TAU_SUBSPACE < res[1]

    def test_reorthonormalize_idempotent(self, rng):
        rows = np.linalg.qr(rng.standard_normal((10, 4)))[0].T
        sp = Subspace(5, rows)
        again = orthonormalized(sp)
        # Same subspace, orthonormal to within TAU_ORTH.
        assert again.dim == sp.dim
        assert np.all(again.relative_residuals(sp.coords) <= 1e-10)


class TestNullspaceImage:
    def test_identity_has_empty_kernel(self):
        full = Subspace.full(4)
        assert nullspace(np.eye(6), full).dim == 0

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
        ker = nullspace(phi_matrix(spec) - np.eye(6), full)
        assert ker.dim == 1
        assert ker.relative_residuals(unit(4, 1, 2)[None])[0] <= 1e-10

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
        # The matrix must act on the coefficients over the domain's basis.
        with pytest.raises(ValueError, match="domain"):
            nullspace(np.zeros((3, 3)), Subspace.full(4))
        with pytest.raises(ValueError, match="domain"):
            image(np.zeros((6, 5)), Subspace.full(4))


class TestDecomposeOrthogonal:
    def test_true_decomposition(self):
        whole = Subspace.span(4, [unit(4, 0, 1), unit(4, 0, 2), unit(4, 2, 3)])
        parts = [
            Subspace.span(4, [unit(4, 0, 1)]),
            Subspace.span(4, [unit(4, 0, 2), unit(4, 2, 3)]),
        ]
        assert decompose_orthogonal(whole, parts)

    def test_dimension_shortfall(self):
        whole = Subspace.full(4)
        assert not decompose_orthogonal(whole, [Subspace.span(4, [unit(4, 0, 1)])])

    def test_non_orthogonal_parts(self):
        x = unit(4, 0, 1, normalized=False)
        y = unit(4, 0, 2, normalized=False)
        whole = Subspace.span(4, [x, y])
        parts = [Subspace.span(4, [x]), Subspace.span(4, [x + y])]
        assert not decompose_orthogonal(whole, parts)


class TestEndoOnM:
    def test_apply_matches_matrix(self, rng):
        full = Subspace.full(4)
        m = rng.standard_normal((6, 6))
        op = EndoOnM(full, m)
        x = random_skew(rng, 4, 3)
        np.testing.assert_allclose(lie_rows(op.apply_mats(x)), lie_rows(x) @ m.T, atol=1e-12)

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
        x = lie_rows(random_skew(rng, 4, 3))
        got = lie_rows(op.apply_mats(lie_mats(4, x)))
        np.testing.assert_allclose(x @ other.coords.T @ m2.T, got @ other.coords.T, atol=1e-10)


def joined(n, x_rows, y_rows):
    """The (len x, len y, dim so(n)) scatter of bracket_nonzeros."""
    a, b, pos, val = bracket_nonzeros(n, x_rows, y_rows)
    out = np.zeros((len(x_rows), len(y_rows), n * (n - 1) // 2))
    out[a, b, pos] = val
    return out


def commutators(n, x_rows, y_rows):
    """Lex coordinates of every [x_a, y_b] from matrix commutators, one x_a at a time."""
    ys = lie_mats(n, y_rows)
    return np.stack([lie_rows(brackets(xm[None], ys)) for xm in lie_mats(n, x_rows)])


class TestAdMatrix:
    """ad(h) on a subspace, read off the bracket kernel for one element h."""

    @staticmethod
    def ad(h, space):
        return (joined(space.ambient_n, lie_rows(h)[None], space.coords)[0] @ space.coords.T).T

    def test_ad_reproduces_bracket(self, rng):
        full = Subspace.full(5)
        h, x = random_skew(rng, 5), random_skew(rng, 5)
        np.testing.assert_allclose(self.ad(h, full) @ lie_rows(x), lie_rows(brackets(h, x)), atol=1e-10)

    def test_ad_matches_per_element_brackets(self, rng):
        sp = Subspace(6, np.linalg.qr(rng.standard_normal((15, 7)))[0].T)
        h = random_skew(rng, 6)
        want = sp.coords @ lie_rows(brackets(h, lie_mats(6, sp.coords))).T
        np.testing.assert_allclose(self.ad(h, sp), want, atol=1e-14)


def random_subspace(rng, n, dim):
    q = np.linalg.qr(rng.standard_normal((n * (n - 1) // 2, dim)))[0]
    return Subspace(n, q.T)


class TestBracketKernel:
    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_matches_bracket_on_every_pair(self, rng, n):
        x, y = random_subspace(rng, n, 3), random_subspace(rng, n, 4)
        got = bracket_coords(x, y)
        assert got.shape == (3, 4, n * (n - 1) // 2)
        want = lie_rows(brackets(lie_mats(n, x.coords)[:, None], lie_mats(n, y.coords)[None, :]))
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_projection_onto_subspace(self, rng):
        x, y, onto = (random_subspace(rng, 5, d) for d in (2, 3, 4))
        got = bracket_coords(x, y, onto=onto)
        assert got.shape == (2, 3, 4)
        want = lie_rows(brackets(lie_mats(5, x.coords)[:, None], lie_mats(5, y.coords)[None, :])) @ onto.coords.T
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_full_basis_antisymmetric_and_matches_oracle(self):
        full = Subspace.full(5)
        bc = bracket_coords(full, full)
        np.testing.assert_array_equal(bc, -bc.transpose(1, 0, 2))
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        for a, p in enumerate(pairs):
            for b, q in enumerate(pairs):
                want = lie_rows(bracket_oracle(5, [p], [q]) / 2.0)
                np.testing.assert_allclose(bc[a, b], want, atol=1e-15)

    @pytest.mark.parametrize("k", [4, 6])
    @pytest.mark.parametrize("n", range(4, 25))
    def test_bitwise_equal_to_commutators_on_flag_spaces(self, get_space, n, k):
        # Every basis vector of h and m is one lex basis vector, so every
        # coordinate is a single product: the same bits as the dense route.
        ps = get_space(n, k)
        pairs = [(ps.h, ps.m), (ps.m, ps.m)]
        if k == 4 and n in (4, 5, 8, 12, 16, 24):  # full x full does not depend on k
            pairs.append((Subspace.full(n), Subspace.full(n)))
        for x, y in pairs:
            np.testing.assert_array_equal(joined(n, x.coords, y.coords), commutators(n, x.coords, y.coords))

    @pytest.mark.parametrize("n,m_blocks,k", [(7, 2, 6), (10, 2, 6), (12, 3, 8)])
    def test_svd_complement_within_rounding(self, get_space, n, m_blocks, k):
        # The rows of m are dense here and the join sums in another order.
        ps = get_space(n, k, m_blocks)
        for x, y in [(ps.h, ps.m), (ps.m, ps.m)]:
            got, want = joined(n, x.coords, y.coords), commutators(n, x.coords, y.coords)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)

    def test_nonzeros_are_sorted_and_exact(self):
        a, b, pos, val = bracket_nonzeros(5, np.eye(10), np.eye(10))
        keys = (a * 10 + b) * 10 + pos
        assert np.all(np.diff(keys) > 0)
        assert np.all(val != 0.0)
        # [x, x] = 0 is dropped, not kept as an explicit zero.
        x = 3.0 * np.eye(10)[0] - 2.0 * np.eye(10)[7]
        assert all(len(arr) == 0 for arr in bracket_nonzeros(5, [x], [x]))

    def test_chunks_scatter_to_the_same_rows(self, rng, monkeypatch):
        x, y = random_subspace(rng, 6, 5), random_subspace(rng, 6, 4)
        want = bracket_coords(x, y)
        monkeypatch.setattr("flagf.liealg._CHUNK_BYTES", 3 * 8 * 15)
        chunks = list(bracket_row_chunks(6, x.coords, y.coords))
        assert len(chunks) == 7 and all(len(rows) <= 3 for _, _, rows in chunks)
        np.testing.assert_array_equal(bracket_coords(x, y), want)

    def test_rows_need_not_be_orthonormal(self, rng):
        x, y = lie_rows(random_skew(rng, 5)), lie_rows(random_skew(rng, 5))
        (row,) = joined(5, [x], [y, 2.0 * y])
        np.testing.assert_allclose(row[0], lie_rows(brackets(lie_mats(5, [x]), lie_mats(5, [y])))[0], atol=1e-13)
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
