import numpy as np
import pytest

from flagf.liealg import (
    Subspace,
    bracket_coords,
    brackets,
    lex_indices,
    lie_mats,
    lie_rows,
    nonzero_rows,
    op_powers,
    operator_on,
    scatter,
)
from flagf.tolerances import TAU_SUBSPACE

import space_reference as ref
from generation_reference import poly_in
from space_reference import bracket_nonzeros, dense_subspace, empty_space, full_space, kernel_and_image


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
        full = full_space(4)
        assert full.dim == 6
        np.testing.assert_allclose(lie_mats(4, full.coords)[0], (elementary(4, 0, 1) - elementary(4, 1, 0)) / np.sqrt(2.0))

    def test_orthonormality_enforced(self):
        bad = np.ones((2, 6))
        with pytest.raises(ValueError, match="orthonormal"):
            dense_subspace(4, bad)

    def test_span_orthonormalizes_dependent_set(self):
        # The image of a matrix is the span of its columns, here x, 2x and y.
        x, y = unit(4, 0, 1, normalized=False), unit(4, 2, 3, normalized=False)
        cols = np.zeros((6, 6))
        cols[:, :3] = np.stack([x, 2.0 * x, y], axis=1)
        sp = kernel_and_image(cols, full_space(4))[1]
        assert sp.dim == 2
        gram = sp.coords @ sp.coords.T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)
        assert np.max(ref.residuals(sp, np.stack([x, y]) / np.sqrt(2.0))) < 1e-12

    def test_projection_into_and_out(self):
        sp = dense_subspace(4, unit(4, 0, 1)[None])
        inside, outside = 2.5 * unit(4, 0, 1), unit(4, 2, 3)
        proj = ref.project_rows(sp, np.stack([inside, outside]))
        assert np.max(np.abs(proj[0] - lie_mats(4, inside[None])[0])) <= 1e-12
        assert np.linalg.norm(proj[1]) < 1e-14
        res = ref.relative_residuals(sp, np.stack([inside, outside]))
        assert res[0] <= TAU_SUBSPACE < res[1]

    def test_reorthonormalize_idempotent(self, rng):
        # The image of the orthogonal projector onto a subspace is that subspace.
        rows = np.linalg.qr(rng.standard_normal((10, 4)))[0].T
        sp = dense_subspace(5, rows)
        again = kernel_and_image(rows.T @ rows, full_space(5))[1]
        # Same subspace, orthonormal to within TAU_ORTH.
        assert again.dim == sp.dim
        assert np.all(ref.relative_residuals(again, sp.coords) <= 1e-10)


class TestNullspaceImage:
    def test_identity_has_empty_kernel(self):
        full = full_space(4)
        ker, im = kernel_and_image(np.eye(6), full)
        assert (ker.dim, im.dim) == (0, 6)

    def test_zero_matrix_kernel_is_everything(self):
        full = full_space(4)
        ker = kernel_and_image(np.zeros((6, 6)), domain=full)[0]
        assert ker.dim == 6

    def test_image_of_zero_is_empty(self):
        full = full_space(4)
        assert kernel_and_image(np.zeros((6, 6)), domain=full)[1].dim == 0

    def test_fixed_space_of_order4_conjugation_on_so4(self):
        # Fixed points of Ad(B) for the order-4 flag automorphism on so(4)
        # form the line through E23 - E32 (1-based indices).
        from flagf.phispace import build_automorphism

        spec = build_automorphism(4, 1, 4)
        full = full_space(4)
        ker = kernel_and_image(ref.phi_matrix(spec) - np.eye(6), full)[0]
        assert ker.dim == 1
        assert ref.relative_residuals(ker, unit(4, 1, 2)[None])[0] <= 1e-10

    def test_rank_nullity(self, rng):
        full = full_space(4)
        m = rng.standard_normal((6, 6))
        m[:, 3] = m[:, 0] + m[:, 1]  # force a nontrivial kernel
        ker, im = kernel_and_image(m, domain=full)
        assert (ker.dim, im.dim) == (1, 5)

    def test_kernel_orthogonal_to_row_image(self, rng):
        # kernel of M is orthogonal to image of M^T
        full = full_space(4)
        m = rng.standard_normal((6, 6))
        m[:, 3] = m[:, 2]
        ker = kernel_and_image(m, domain=full)[0]
        rowspace = kernel_and_image(m.T, domain=full)[1]
        cross = ker.coords @ rowspace.coords.T
        assert np.max(np.abs(cross)) < 1e-10

    def test_raw_matrix_requires_domain(self):
        # The matrix must act on the coefficients over the domain's basis.
        with pytest.raises(ValueError, match="domain"):
            kernel_and_image(np.zeros((3, 3)), full_space(4))
        with pytest.raises(ValueError, match="domain"):
            kernel_and_image(np.zeros((6, 5)), full_space(4))


class TestOpPowers:
    def test_poly_in(self, rng):
        m = rng.standard_normal((6, 6))
        got = poly_in(m, [1.0, 0.0, 2.0])
        np.testing.assert_allclose(got, np.eye(6) + 2.0 * m @ m, atol=1e-12)

    def test_poly_in_on_a_power_stack_is_bitwise_the_power_loop(self, rng):
        # The loop poly_in once ran: op^m = op @ op^(m-1), summed term by term.
        op = rng.standard_normal((6, 6))
        powers = op_powers(op, 5)
        for coeffs in ([1.0, 0.0, 2.0], [0.0, -0.5, 0.0, 0.25, 3.0], [0.0] * 5):
            want, p = np.zeros((6, 6)), np.eye(6)
            for c in coeffs:
                if c != 0.0:
                    want = want + c * p
                p = op @ p
            assert poly_in(op, coeffs).tobytes() == want.tobytes()
            assert poly_in(op, coeffs, powers).tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="powers"):
            poly_in(op, [1.0] * 6, powers)


def joined(n, x_rows, y_rows):
    """The (len x, len y, dim so(n)) scatter of bracket_nonzeros."""
    return scatter((len(x_rows), len(y_rows), n * (n - 1) // 2), *bracket_nonzeros(n, x_rows, y_rows))


def projected(x, y, onto):
    """The (dim x, dim y, dim onto) scatter of bracket_coords."""
    return scatter((x.dim, y.dim, onto.dim), *bracket_coords(x, y, onto))


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
        full = full_space(5)
        h, x = random_skew(rng, 5), random_skew(rng, 5)
        np.testing.assert_allclose(self.ad(h, full) @ lie_rows(x), lie_rows(brackets(h, x)), atol=1e-10)

    def test_ad_matches_per_element_brackets(self, rng):
        sp = dense_subspace(6, np.linalg.qr(rng.standard_normal((15, 7)))[0].T)
        h = random_skew(rng, 6)
        want = sp.coords @ lie_rows(brackets(h, lie_mats(6, sp.coords))).T
        np.testing.assert_allclose(self.ad(h, sp), want, atol=1e-14)


def random_subspace(rng, n, dim):
    q = np.linalg.qr(rng.standard_normal((n * (n - 1) // 2, dim)))[0]
    return dense_subspace(n, q.T)


class TestBracketKernel:
    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_matches_bracket_on_every_pair(self, rng, n):
        x, y = random_subspace(rng, n, 3), random_subspace(rng, n, 4)
        got = projected(x, y, full_space(n))
        assert got.shape == (3, 4, n * (n - 1) // 2)
        want = lie_rows(brackets(lie_mats(n, x.coords)[:, None], lie_mats(n, y.coords)[None, :]))
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_projection_onto_subspace(self, rng):
        x, y, onto = (random_subspace(rng, 5, d) for d in (2, 3, 4))
        got = projected(x, y, onto)
        assert got.shape == (2, 3, 4)
        want = lie_rows(brackets(lie_mats(5, x.coords)[:, None], lie_mats(5, y.coords)[None, :])) @ onto.coords.T
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_full_basis_antisymmetric_and_matches_oracle(self):
        full = full_space(5)
        bc = projected(full, full, full)
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
            pairs.append((full_space(n), full_space(n)))
        for x, y in pairs:
            np.testing.assert_array_equal(joined(n, x.coords, y.coords), commutators(n, x.coords, y.coords))

    @pytest.mark.parametrize("n,m_blocks,k", [(7, 2, 6), (10, 2, 6), (12, 3, 8), (9, 3, 4), (9, 4, 6)])
    def test_svd_complement_within_rounding(self, get_space, n, m_blocks, k):
        # h and m are block-local: at (7, 2, 6), (10, 2, 6) and (12, 3, 8) every
        # row is one lex vector, so the join keeps the gemm's bits.  At (9, 3, 4)
        # and (9, 4, 6) a mixed block of phi - id gives h and m dense SVD rows,
        # which the join sums in another order than the gemm.
        ps = get_space(n, k, m_blocks)
        unit = all(np.count_nonzero(s.coords, axis=1).max() == 1 for s in (ps.h, ps.m))
        assert unit == ((n, m_blocks, k) not in {(9, 3, 4), (9, 4, 6)})
        for x, y in [(ps.h, ps.m), (ps.m, ps.m)]:
            got, want = joined(n, x.coords, y.coords), commutators(n, x.coords, y.coords)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=0.0 if unit else 1e-15)

    def test_projections_are_sorted_and_nonzero(self, rng):
        x, y, onto = (random_subspace(rng, 5, d) for d in (2, 3, 4))
        a, b, r, val = bracket_coords(x, y, onto)
        assert len(val) == 2 * 3 * 4  # random subspaces: no coefficient vanishes
        assert np.all(np.diff((a * 3 + b) * 4 + r) > 0) and np.all(val != 0.0)

    def test_nonzeros_are_sorted_and_exact(self):
        a, b, pos, val = bracket_nonzeros(5, np.eye(10), np.eye(10))
        keys = (a * 10 + b) * 10 + pos
        assert np.all(np.diff(keys) > 0)
        assert np.all(val != 0.0)
        # [x, x] = 0 is dropped, not kept as an explicit zero.
        x = 3.0 * np.eye(10)[0] - 2.0 * np.eye(10)[7]
        assert all(len(arr) == 0 for arr in bracket_nonzeros(5, [x], [x]))

    def test_sparse_projection_matches_the_dense_chunks(self, rng, monkeypatch):
        # The dense reference projects one chunk of bracket rows at a time; the
        # join sums each coefficient in another order, so rotated rows agree to rounding.
        x, y = random_subspace(rng, 6, 5), random_subspace(rng, 6, 4)
        full = full_space(6)
        monkeypatch.setattr(ref, "CHUNK_BYTES", 3 * 8 * 15)
        chunks = list(ref.bracket_row_chunks(6, x.coords, y.coords))
        assert len(chunks) == 7 and all(len(rows) <= 3 for _, _, rows in chunks)
        for onto in (full, random_subspace(rng, 6, 7)):
            got, want = bracket_coords(x, y, onto), ref.bracket_coords(x, y, onto)
            for g, w in zip(got[:3], want[:3], strict=True):
                np.testing.assert_array_equal(g, w)
            np.testing.assert_allclose(got[3], want[3], rtol=0.0, atol=1e-14)

    def test_rest_is_the_bracket_minus_its_projection(self, rng):
        # The part of each bracket off onto, against the dense rows minus their projection.
        x, y = random_subspace(rng, 6, 5), random_subspace(rng, 6, 4)
        for onto in (y, random_subspace(rng, 6, 7), full_space(6)):
            brackets, coords, (a, b, pos, val) = bracket_coords(x, y, onto, rest=True)
            for g, w in zip(brackets + coords, bracket_nonzeros(6, x.coords, y.coords) + bracket_coords(x, y, onto)):
                assert g.tobytes() == w.tobytes()
            keys = (a * y.dim + b) * 15 + pos
            assert np.all(np.diff(keys) > 0) and np.all(val != 0.0)
            got = scatter((x.dim, y.dim, 15), a, b, pos, val)
            want = np.zeros((x.dim, y.dim, 15))
            for pa, pb, rows in ref.bracket_row_chunks(6, x.coords, y.coords):
                want[pa, pb] = rows - (rows @ onto.coords.T) @ onto.coords
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
        # Lex rows onto lex rows: every part off m is an exact 0 and dropped.
        x, y = dense_subspace(5, np.eye(10)[[0, 4]]), dense_subspace(5, np.eye(10)[[1, 2, 5]])
        _, _, (a, _, _, val) = bracket_coords(x, y, full_space(5), rest=True)
        assert len(a) == len(val) == 0

    def test_rows_need_not_be_orthonormal(self, rng):
        x, y = lie_rows(random_skew(rng, 5)), lie_rows(random_skew(rng, 5))
        (row,) = joined(5, [x], [y, 2.0 * y])
        np.testing.assert_allclose(row[0], lie_rows(brackets(lie_mats(5, [x]), lie_mats(5, [y])))[0], atol=1e-13)
        np.testing.assert_allclose(row[1], 2.0 * row[0], atol=1e-13)

    def test_empty_subspaces(self):
        full, empty = full_space(4), empty_space(4)
        for x, y, onto in [(empty, full, full), (full, empty, full), (full, full, empty)]:
            assert all(len(col) == 0 for col in bracket_coords(x, y, onto))
            assert projected(x, y, onto).shape == (x.dim, y.dim, onto.dim)

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError, match="ambient"):
            bracket_coords(full_space(4), full_space(5), full_space(4))

    def test_lex_indices_cached_and_read_only(self):
        iu = lex_indices(6)
        assert lex_indices(6) is iu
        for a, b in zip(iu, np.triu_indices(6, 1)):
            np.testing.assert_array_equal(a, b)
            with pytest.raises(ValueError):
                a[0] = 1


class TestSparseRows:
    """A Subspace is built from its nonzeros, and its dense rows are scattered from them."""

    def test_entries_and_coords_agree(self, rng):
        rows = np.linalg.qr(rng.standard_normal((10, 4)))[0].T
        sp = dense_subspace(5, rows)
        assert sp.coords.tobytes() == rows.tobytes()
        for got, want in zip(sp.entries, (*np.nonzero(rows), rows[np.nonzero(rows)]), strict=True):
            np.testing.assert_array_equal(got, want)
        assert not sp.coords.flags.writeable and not any(a.flags.writeable for a in sp.entries)

    def test_entries_are_sorted_and_zeros_dropped(self):
        sp = Subspace.of_entries(4, 2, [1, 0, 0], [0, 5, 2], [1.0, 1.0, 0.0])
        np.testing.assert_array_equal(sp.entries[0], [0, 1])
        np.testing.assert_array_equal(sp.entries[1], [5, 0])

    def test_bad_entries_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            Subspace.of_entries(4, 1, [0, 0], [3, 3], [0.5, 0.5])
        with pytest.raises(ValueError, match="range"):
            Subspace.of_entries(4, 1, [0], [6], [1.0])
        with pytest.raises(ValueError, match="orthonormal"):
            Subspace.of_entries(4, 2, [0, 1], [3, 3], [1.0, 1.0])  # two equal rows
        with pytest.raises(ValueError, match="orthonormal"):
            Subspace.of_entries(4, 2, [0], [3], [1.0])  # a zero row

    def test_immutable(self):
        sp = full_space(4)
        with pytest.raises(AttributeError):
            sp.coords = np.zeros((6, 6))

    @pytest.mark.parametrize("shape", [(5, 5), (3, 4, 4), (2, 3, 6, 6)])
    def test_nonzero_rows_read_each_row(self, rng, shape):
        # Per matrix and row: the columns of its nonzeros in order and their values, then
        # column 0 and value 0 to the widest row.  -0.0 counts as zero; a transposed view is read row by row.
        mats = rng.standard_normal(shape) * (rng.random(shape) < 0.4)
        mats[..., 0, :] = -0.0
        idx, val = nonzero_rows(mats, mats.swapaxes(-1, -2), np.zeros(shape))
        rows = np.concatenate([mats.reshape(-1, shape[-1]), mats.swapaxes(-1, -2).reshape(-1, shape[-1])])
        wide = max(1, np.count_nonzero(rows, axis=1).max())
        assert idx.shape == val.shape == (3,) + shape[:-1] + (wide,) and idx.dtype == np.intp
        for t, m in enumerate((mats, mats.swapaxes(-1, -2), np.zeros(shape))):
            for row, cols, vals in zip(m.reshape(-1, shape[-1]), idx[t].reshape(-1, wide), val[t].reshape(-1, wide)):
                at = np.flatnonzero(row)
                pad = wide - len(at)
                np.testing.assert_array_equal(cols, np.concatenate([at, np.zeros(pad, dtype=int)]))
                assert vals.tobytes() == np.concatenate([row[at], np.zeros(pad)]).tobytes()


class TestSparseLeakAndRestriction:
    """The sparse block leak and operator_on from nonzeros against dense rows and products."""

    @pytest.mark.parametrize("n,k,m_blocks", [(6, 4, 1), (12, 6, 1), (7, 6, 2), (9, 6, 4)])
    def test_leak_of_flag_spaces(self, get_space, n, k, m_blocks):
        ps = get_space(n, k, m_blocks)
        full = full_space(n)
        for x, y in ((ps.h, ps.m), (ps.m, ps.m), (full, ps.m)):
            np.testing.assert_allclose(ref.sparse_bracket_leak(x, y), ref.bracket_leak(x, y, y), rtol=1e-12, atol=1e-15)

    def test_leak_of_rotated_rows(self, rng):
        x, y = random_subspace(rng, 6, 5), random_subspace(rng, 6, 7)
        assert ref.sparse_bracket_leak(x, y) > 0.1
        np.testing.assert_allclose(ref.sparse_bracket_leak(x, y), ref.bracket_leak(x, y, y), rtol=1e-12)

    def test_leak_per_block_is_the_largest_block_leak(self, rng, get_split):
        split = get_split(7, 6)
        x = random_subspace(rng, 7, 3)
        blocks = ref.split_blocks(split)
        want = max(ref.bracket_leak(x, blk, blk) for blk in blocks)
        np.testing.assert_allclose(ref.sparse_bracket_leak(x, *blocks), want, rtol=1e-12)
        rotated = [dense_subspace(7, np.linalg.qr(rng.standard_normal((21, blk.dim)))[0].T) for blk in blocks]
        want = max(ref.bracket_leak(x, blk, blk) for blk in rotated)
        np.testing.assert_allclose(ref.sparse_bracket_leak(x, *rotated), want, rtol=1e-12)

    def test_operator_on(self, rng):
        op = np.where(rng.random((10, 10)) < 0.3, rng.standard_normal((10, 10)), 0.0)
        rows, cols = np.nonzero(op)
        for sp in (random_subspace(rng, 5, 4), dense_subspace(5, np.eye(10)[[7, 2, 3]])):
            want = sp.coords @ op @ sp.coords.T
            np.testing.assert_allclose(operator_on(sp, rows, cols, op[rows, cols]), want, rtol=0, atol=1e-14)
        unit = dense_subspace(5, np.eye(10)[[7, 2, 3]])
        assert operator_on(unit, rows, cols, op[rows, cols]).tobytes() == op[np.ix_([7, 2, 3], [7, 2, 3])].tobytes()
