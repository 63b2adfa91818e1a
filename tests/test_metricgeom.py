import dataclasses
from fractions import Fraction

import numpy as np
import pytest
import structure_checks_reference as reference
from space_reference import dense_subspace, project_rows, relative_residuals, split_blocks
from structure_checks_reference import metric_eval, nomizu, scaled_channel, u_coords_tensor, u_tensor_closed, u_tensor_solved

from flagf import liealg, metricgeom
from flagf.liealg import brackets, lie_mats, lie_rows, scatter, sum_by_key
from flagf.tolerances import TAU_CONNECTION, TAU_NAT_RED
from flagf.metricgeom import (
    MetricGrid,
    MetricParams,
    _compat_form,
    block_weights,
    build_split,
    connection_compat_residual,
    naturally_reductive_residual,
    u_channel_coefficients,
    u_channels,
    u_nonzeros,
)


def elem(n, i, j, value=1.0):
    """E_ij - E_ji times value, as a stack of one matrix."""
    m = np.zeros((1, n, n))
    m[0, i, j] = value
    m[0, j, i] = -value
    return m


def basis_mats(space):
    """The basis of a subspace as a (dim, n, n) stack."""
    return lie_mats(space.ambient_n, space.coords)


def random_m(split, rng, count=1):
    """count random elements of m, as a (count, n, n) stack."""
    return lie_mats(split.combined.ambient_n, rng.standard_normal((count, split.dim)) @ split.combined.coords)


def all_brackets(a, b):
    """Lex coordinates of [a_i, b_j] for every pair of basis elements of two subspaces, one row each."""
    return lie_rows(brackets(basis_mats(a)[:, None], basis_mats(b)[None, :])).reshape(-1, a.coords.shape[1])


def dense_bracket(split):
    """The (d, d, d) bracket tensor of m."""
    return scatter((split.dim,) * 3, *split.bracket_nonzeros)


class TestMetricParams:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            MetricParams(s=0.0, t=1.0)
        with pytest.raises(ValueError):
            MetricParams(s=1.0, t=-2.0)
        with pytest.raises(ValueError):
            MetricParams(s=1.0, t=1.0, kappa=0.0)

    @pytest.mark.parametrize(
        "s,t,kappa,overflow",
        [(1e-320, 1.0, 1.0, "1/s"), (1.0, 1e-320, 1.0, "1/t"), (1e308, 1e308, 1.0, "s \\+ t"),
         (1e308, 1.0, 4.0, "kappa\\*s"), (1.0, 1e308, 4.0, "kappa\\*t"), (1e-308, 1e308, 1.0, "t/s"),
         (1e308, 0.1, 1.0, "s/t"), (1e-308, 1e-308, 1.0, "1/s \\+ 1/t")],
    )
    def test_overflowing_points_rejected(self, s, t, kappa, overflow):
        with pytest.raises(ValueError, match=f"overflows .*{overflow}"):
            MetricParams(s=s, t=t, kappa=kappa)

    def test_extreme_points_that_do_not_overflow_are_accepted(self):
        # s = 1e-300 still meets the residual normalisation defect (ROADMAP item 1).
        for s, t in [(1e-300, 1.0), (1e307, 1e307), (5e-308, 1.0)]:
            MetricParams(s=s, t=t, kappa=4.0)

    def test_default_kappa_is_n_minus_one(self, get_space):
        p = MetricParams.for_space(get_space(6, 4), 1.0, 2.0)
        assert p.kappa == 5.0


def per_point_grid(points, kappa):
    """MetricGrid.of as a MetricParams per point: the reference for its checks."""
    params = [MetricParams(s, t, kappa) for s, t in points]
    return np.array([[p.s for p in params], [p.t for p in params]], dtype=float).reshape(2, -1)


def outcome(build, points, kappa):
    """(exception type, message) of a refused grid, or the values of its s and t."""
    try:
        grid = build(points, kappa)
    except Exception as exc:  # the type and the message are compared
        return type(exc), str(exc)
    s, t = grid if isinstance(grid, np.ndarray) else (grid.s, grid.t)
    return "grid", s.tolist(), t.tolist()


class TestMetricGrid:
    @pytest.mark.parametrize(
        "bad,kappa",
        [((0.0, 1.0), 1.0), ((-1.0, 2.0), 1.0), ((np.nan, 1.0), 1.0), ((1.0, np.inf), 1.0), ((1e-320, 1.0), 1.0),
         ((1e308, 1e308), 1.0), ((10.0, 1.0), 1e300), ((1e10, 1.0), 1e300), ((1.0, "2"), 1.0), ((1.0, None), 1.0),
         ((1.0, 2.0), "3"), ((1.0, 2.0), np.nan), ((1.0, 2.0), -1.0)],
    )
    def test_refuses_as_metric_params_at_the_first_bad_point(self, bad, kappa):
        # Valid points, then the point under test, then a point that fails
        # another check: the point under test is the one named.
        points = [(0.5, 2.0), (1.0, 1.0), bad, (1e-320, -3.0)]
        assert outcome(MetricGrid.of, points, kappa) == outcome(per_point_grid, points, kappa)

    @pytest.mark.parametrize(
        "points,kappa",
        [([(1, 2), (True, 3.5)], 2), ([(0.25, 0.25), (1e-150, 1e150)], np.int64(4)), ([], "unchecked"),
         ([(Fraction(1, 3), 2.0)], Fraction(3, 2)), (np.array([[1.0, 4.0 / 3.0], [2.0, 0.5]]), 7.0)],
    )
    def test_valid_points_keep_their_values(self, points, kappa):
        # kappa is only checked with a point, as MetricParams checks it.
        want = per_point_grid(points, kappa)
        grid = MetricGrid.of(points, kappa)
        assert grid.kappa is kappa and grid.s.flags.c_contiguous and grid.t.flags.c_contiguous
        assert np.array([grid.s, grid.t]).tolist() == want.tolist() and grid.s.dtype == float

    def test_matches_the_per_point_check_on_random_extremes(self):
        rng = np.random.default_rng(11)
        with np.errstate(over="ignore"):
            values = rng.choice([1.0, -1.0], (300, 9), p=[0.9, 0.1]) * np.power(10.0, rng.uniform(-330, 330, (300, 9)))
        for row in values.tolist():
            points, kappa = list(zip(row[0:8:2], row[1:8:2])), row[8]
            assert outcome(MetricGrid.of, points, kappa) == outcome(per_point_grid, points, kappa)

    def test_no_metric_params_for_a_valid_grid(self, monkeypatch):
        def refuse(self):
            raise AssertionError("MetricParams built")

        monkeypatch.setattr(MetricParams, "__post_init__", refuse)
        grid = MetricGrid.of([(s, t) for s in (0.5, 1.0, 2.0) for t in (0.5, 4.0 / 3.0)], 4.0)
        assert grid.s.shape == grid.t.shape == (6,)


class TestSplit:
    @pytest.mark.parametrize("n,k", [(4, 4), (5, 4), (6, 6), (8, 6), (12, 6), (24, 6), (6, 8), (9, 10)])
    def test_block_dimensions(self, get_space, get_split, n, k):
        # One label per row of m, 1, 2, 3 in order; the blocks' rows, one after another, are m's.
        ps, split = get_space(n, k), get_split(n, k)
        assert tuple(blk.dim for blk in split_blocks(split)) == (2, 2 * (n - 3), n - 3)
        assert np.bincount(split.block_index).tolist() == [0, 2, 2 * (n - 3), n - 3]
        assert np.all(np.diff(split.block_index) >= 0)
        rows = np.vstack([blk.coords for blk in split_blocks(split)])
        assert rows.tobytes() == ps.m.coords.tobytes()

    def test_wrong_block_pattern_rejected(self, get_space):
        with pytest.raises(ValueError, match="m_blocks=1"):
            build_split(get_space(7, 6, 2))

    @pytest.mark.parametrize("n,k", [(4, 4), (6, 6)])
    def test_m_must_hold_the_pattern_rows(self, get_space, n, k):
        # Every operator on m is a matrix over m's basis, so the split's basis must be
        # m's own rows, not just rows on the pattern's lex positions.
        ps = get_space(n, k)
        split = build_split(ps)
        assert all(map(np.array_equal, split.combined.entries, ps.m.entries))
        np.testing.assert_array_equal(split.complex_structure, np.sign(ps.theta - ps.theta.T))
        c = ps.m.coords
        flipped = np.array(c)
        flipped[0] *= -1.0
        turned = np.array(c)
        turned[:2] = np.array([[0.6, 0.8], [-0.8, 0.6]]) @ c[:2]  # a turn inside m1
        for rows in (c[::-1], flipped, turned):
            with pytest.raises(ValueError, match="flag block pattern"):
                build_split(dataclasses.replace(ps, m=dense_subspace(n, rows)))

    def test_blocks_are_exactly_orthogonal(self, get_split):
        m1, m2, m3 = split_blocks(get_split(6, 6))
        for a, b in ((m1, m2), (m1, m3), (m2, m3)):
            assert np.max(np.abs(a.coords @ b.coords.T)) == 0.0

    def test_blocks_orthogonal_to_h(self, get_space, get_split):
        ps = get_space(5, 6)
        split = get_split(5, 6)
        for blk in split_blocks(split):
            assert np.max(np.abs(blk.coords @ ps.h.coords.T)) < 1e-12

    def test_cyclic_bracket_relations(self, get_split):
        split = get_split(6, 6)
        blocks = dict(zip((1, 2, 3), split_blocks(split)))
        for i in (1, 2, 3):
            j = i % 3 + 1
            target = blocks[({1, 2, 3} - {i, j}).pop()]
            rows = all_brackets(blocks[i], blocks[j])
            assert np.all((relative_residuals(target, rows) <= 1e-10) | (np.linalg.norm(rows, axis=1) < 1e-12))

    def test_ad_h_invariance_of_blocks(self, get_space, get_split):
        ps = get_space(6, 4)
        split = get_split(6, 4)
        for blk in split_blocks(split):
            rows = all_brackets(ps.h, blk)
            assert np.all((relative_residuals(blk, rows) <= 1e-9) | (np.linalg.norm(rows, axis=1) < 1e-12))


class TestMetricEval:
    def test_unit_vector_in_m2_scales_with_s(self, get_split):
        split = get_split(5, 4)
        x = basis_mats(split_blocks(split)[1])[:1]
        p = MetricParams(s=2.0, t=1.0, kappa=1.0)
        assert metric_eval(split, p, x, x) == pytest.approx([2.0])

    def test_cross_block_pairs_vanish(self, get_split):
        split = get_split(5, 4)
        p = MetricParams(s=2.0, t=3.0, kappa=1.0)
        m1, _, m3 = split_blocks(split)
        assert np.all(metric_eval(split, p, basis_mats(m1)[:1], basis_mats(m3)[:1]) == 0.0)

    def test_neutral_params_reduce_to_scaled_trace_form(self, get_split, rng):
        split = get_split(6, 4)
        p = MetricParams(s=1.0, t=1.0, kappa=5.0)
        x, y = random_m(split, rng, 10), random_m(split, rng, 10)
        trace_form = np.sum(x * y, axis=(1, 2))  # Tr(X^T Y)
        np.testing.assert_allclose(metric_eval(split, p, x, y), 5.0 * trace_form, rtol=0, atol=1e-10)

    def test_rejects_arguments_outside_m(self, get_split):
        split = get_split(5, 4)
        h_elem = elem(5, 1, 2)  # isotropy direction, not in m
        with pytest.raises(ValueError, match="not in the complement"):
            metric_eval(split, MetricParams(1.0, 1.0), h_elem, basis_mats(split_blocks(split)[0])[:1])

    def test_positive_definite(self, get_split, rng):
        split = get_split(5, 6)
        p = MetricParams(s=0.3, t=2.5, kappa=4.0)
        assert np.all(block_weights(split, p) > 0)
        x = random_m(split, rng, 10)
        assert np.all(metric_eval(split, p, x, x) > 0)


class TestUTensor:
    def test_closed_form_example_n4(self, get_split):
        # X in m1, Y in m2, (s, t) = (2, 1): U = ((s-1)/(2t)) [X, Y].
        split = get_split(4, 4)
        x = elem(4, 0, 1)
        y = elem(4, 1, 3)
        p = MetricParams(s=2.0, t=1.0, kappa=3.0)
        want = 0.5 * elem(4, 0, 3)
        np.testing.assert_allclose(u_tensor_closed(split, p, x, y), want, atol=1e-14)
        np.testing.assert_allclose(u_tensor_solved(split, p, x, y), want, atol=1e-12)

    def test_vanishes_at_neutral_params(self, get_split, rng):
        split = get_split(5, 6)
        p = MetricParams(1.0, 1.0, kappa=4.0)
        assert np.max(np.abs(u_coords_tensor(split, p, "closed"))) == 0.0
        assert np.max(np.abs(u_coords_tensor(split, p, "solved"))) < 1e-12
        x, y = random_m(split, rng), random_m(split, rng)
        assert np.linalg.norm(u_tensor_closed(split, p, x, y)) == 0.0

    def test_symmetric_in_arguments(self, get_split, rng):
        split = get_split(6, 6)
        p = MetricParams(0.7, 2.1, kappa=2.0)
        x, y = random_m(split, rng, 10), random_m(split, rng, 10)
        for u in (u_tensor_closed, u_tensor_solved):
            dev = np.linalg.norm(u(split, p, x, y) - u(split, p, y, x), axis=(1, 2))
            assert np.all(dev < 1e-12)

    def test_output_lies_in_m(self, get_split, rng):
        split = get_split(5, 6)
        p = MetricParams(1.7, 0.4)
        x, y = random_m(split, rng, 10), random_m(split, rng, 10)
        assert np.all(relative_residuals(split.combined, lie_rows(u_tensor_closed(split, p, x, y))) < 1e-9)

    def test_closed_equals_solved_on_random_pairs(self, get_split, rng):
        # The agreement of the two routes is the numerical re-derivation of
        # the closed form; checked on 100 random pairs and random params.
        split = get_split(5, 4)
        worst = 0.0
        for _ in range(100):
            s, t = rng.uniform(0.1, 5.0, size=2)
            p = MetricParams(float(s), float(t), kappa=float(rng.uniform(0.5, 5.0)))
            x, y = random_m(split, rng), random_m(split, rng)
            dev = np.linalg.norm(u_tensor_closed(split, p, x, y) - u_tensor_solved(split, p, x, y))
            worst = max(worst, dev)
        assert worst < 1e-9

    def test_closed_equals_solved_on_basis_grid(self, get_split):
        split = get_split(6, 6)
        for s in np.linspace(0.25, 3.0, 5):
            for t in np.linspace(0.25, 3.0, 5):
                p = MetricParams(float(s), float(t))
                dev = np.max(
                    np.abs(u_coords_tensor(split, p, "closed") - u_coords_tensor(split, p, "solved"))
                )
                assert dev < 1e-9

    def test_tensor_matches_elementwise_closed_form(self, get_split):
        split = get_split(5, 4)
        p = MetricParams(2.0, 0.5, kappa=2.0)
        u = u_coords_tensor(split, p, "closed")
        d, b = split.dim, basis_mats(split.combined)
        xs, ys = np.repeat(b, d, axis=0), np.tile(b, (d, 1, 1))  # row i * d + j holds the pair (i, j)
        direct = lie_rows(u_tensor_closed(split, p, xs, ys)) @ split.combined.coords.T
        np.testing.assert_allclose(u.reshape(d * d, d), direct, atol=1e-12)

    def test_nonzero_away_from_neutral_params(self, get_split):
        split = get_split(5, 4)
        for s, t in [(1.5, 1.0), (0.5, 1.0), (1.0, 1.5), (1.0, 0.5)]:
            u = u_coords_tensor(split, MetricParams(s, t), "closed")
            assert np.max(np.abs(u)) > 1e-3

    def test_solved_is_kappa_invariant(self, get_split, rng):
        split = get_split(5, 6)
        x, y = random_m(split, rng), random_m(split, rng)
        a = u_tensor_solved(split, MetricParams(1.7, 0.6, kappa=1.0), x, y)
        b = u_tensor_solved(split, MetricParams(1.7, 0.6, kappa=2.0), x, y)
        assert np.linalg.norm(a - b) < 1e-12


class TestNomizu:
    def test_reduces_to_half_bracket_at_neutral_params(self, get_split, rng):
        split = get_split(5, 4)
        p = MetricParams(1.0, 1.0, kappa=4.0)
        x, y = random_m(split, rng), random_m(split, rng)
        want = 0.5 * project_rows(split.combined, lie_rows(brackets(x, y)))
        assert np.linalg.norm(nomizu(split, p, x, y) - want) < 1e-12

    def test_diagonal_equals_u(self, get_split, rng):
        split = get_split(5, 6)
        p = MetricParams(.8, 2.2)
        x = random_m(split, rng, 5)
        dev = np.linalg.norm(nomizu(split, p, x, x) - u_tensor_closed(split, p, x, x), axis=(1, 2))
        assert np.all(dev < 1e-12)

    def test_metric_compatibility(self, get_split, rng):
        # g(alpha(Z, X), Y) + g(X, alpha(Z, Y)) = 0: Levi-Civita property.
        split = get_split(5, 4)
        p = MetricParams(1.9, 0.7, kappa=4.0)
        x, y, z = (random_m(split, rng, 20) for _ in range(3))
        total = metric_eval(split, p, nomizu(split, p, z, x), y)
        total += metric_eval(split, p, x, nomizu(split, p, z, y))
        assert np.all(np.abs(total) < 1e-10)


def _alpha_per_element(split, p, x, y):
    """alpha(X, Y) for one pair of (n, n) matrices, through 2-D products and
    matrix-vector projections: the per-triple reference of the stacked check."""
    n, s, t = split.combined.ambient_n, p.s, p.t

    def br(a, b):
        m = a @ b
        return m - m.T

    def proj(space, a):
        return lie_mats(n, (space.coords.T @ (space.coords @ lie_rows(a)))[None])[0]

    x1, x2, x3 = (proj(b, x) for b in split_blocks(split))
    y1, y2, y3 = (proj(b, y) for b in split_blocks(split))
    u = 0.5 * (t - s) * (br(x2, y3) + br(y2, x3))
    u = u + ((t - 1.0) / (2.0 * s)) * (br(x1, y3) + br(y1, x3))
    u = u + ((s - 1.0) / (2.0 * t)) * (br(x1, y2) + br(y1, x2))
    return 0.5 * proj(split.combined, br(x, y)) + u


def _g_per_element(split, p, x, y):
    c = split.combined.coords
    return float(np.sum(block_weights(split, p) * (c @ lie_rows(x)) * (c @ lie_rows(y))))


class TestDenseConnectionReference:
    """The dense connection route of structure_checks_reference, the oracle of
    the check on nonzeros, against per-element 2-D arithmetic."""

    @pytest.mark.parametrize("n,k", [(12, 4), (16, 6)])
    def test_equals_per_triple_loop_bitwise(self, get_split, n, k):
        # 30 vectors of d normals, one (10, 3, d) array.
        split = get_split(n, k)
        rng = np.random.default_rng(7)
        p = MetricParams(float(rng.uniform(0.2, 4.0)), float(rng.uniform(0.2, 4.0)), kappa=n - 1.0)
        state = rng.bit_generator.state
        dev = 0.0
        for _ in range(10):
            x, y, z = (random_m(split, rng)[0] for _ in range(3))
            val = _g_per_element(split, p, _alpha_per_element(split, p, z, x), y)
            val += _g_per_element(split, p, x, _alpha_per_element(split, p, z, y))
            dev = max(dev, abs(val) / p.kappa)
        rng.bit_generator.state = state
        got = reference.connection_compat_residual(split, p, rng.standard_normal((10, 3, split.dim)))
        assert got == dev and 0 < got < TAU_CONNECTION

    def test_one_row_cases_equal_the_reference(self, get_split, rng):
        split = get_split(8, 6)
        p = MetricParams(1.9, 0.7, kappa=7.0)
        x, y = random_m(split, rng), random_m(split, rng)
        assert np.array_equal(nomizu(split, p, x, y)[0], _alpha_per_element(split, p, x[0], y[0]))
        assert metric_eval(split, p, x, y)[0] == _g_per_element(split, p, x[0], y[0])

    def test_an_argument_outside_m_raises_in_any_row(self, get_space, get_split):
        split, h = get_split(6, 4), get_space(6, 4).h
        p = MetricParams(1.0, 2.0)
        xs = basis_mats(split.combined)[:3]
        ys = xs.copy()
        ys[-1] = basis_mats(h)[0]
        for fn in (metric_eval, u_tensor_closed, u_tensor_solved, nomizu):
            with pytest.raises(ValueError, match="not in the complement m"):
                fn(split, p, xs, ys)
            with pytest.raises(ValueError, match="not in the complement m"):
                fn(split, p, ys[-1:], xs[:1])

    def test_a_non_skew_argument_raises(self, get_split):
        split = get_split(6, 4)
        xs = basis_mats(split.combined)[:3]
        ys = xs.copy()
        ys[1, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="not skew-symmetric"):
            metric_eval(split, MetricParams(1.0, 2.0), xs, ys)


def wrong_t(u_route):
    """A U route (u_nonzeros, or the reference's u_tensor_closed) evaluated at
    1.1 t, the metric left at t."""

    def route(split, q, *args):
        return u_route(split, MetricParams(q.s, 1.1 * q.t, q.kappa), *args)

    return route


class TestConnectionCompatibility:
    """metricgeom.connection_compat_residual: alpha = (1/2) B + U read off the
    bracket nonzeros, g(alpha(Z, X), Y) + g(X, alpha(Z, Y)) on every basis
    triple, one sum by key."""

    @staticmethod
    def dense_form(split, p):
        """The dense reference's g(alpha(Z, X), Y) + g(X, alpha(Z, Y)) on every
        basis triple (Z, X, Y) = (X_c, X_a, X_b), as a (d, d, d) array: alpha
        from nomizu on all basis pairs, g as the Gram matrix of metric_eval."""
        d, b = split.dim, basis_mats(split.combined)
        firsts, seconds = np.repeat(b, d, axis=0), np.tile(b, (d, 1, 1))  # row a * d + b: (X_a, X_b)
        alpha = (lie_rows(nomizu(split, p, firsts, seconds)) @ split.combined.coords.T).reshape(d, d, d)
        gram = metric_eval(split, p, firsts, seconds).reshape(d, d)
        return np.einsum("car,rb->cab", alpha, gram) + np.einsum("ar,cbr->cab", gram, alpha)

    @pytest.mark.parametrize("n,k", [(4, 4), (5, 4), (12, 6), (24, 6)])
    def test_residual_tensor_is_the_dense_form_on_every_basis_triple(self, get_split, monkeypatch, n, k):
        # At the metric the form vanishes on both routes; with U taken at 1.1 t it
        # does not, and the two routes must still agree triple by triple.
        split = get_split(n, k)
        d = split.dim
        p = MetricParams(1.9, 0.7, kappa=n - 1.0)
        for wrong in (False, True):
            if wrong:
                monkeypatch.setattr(metricgeom, "u_nonzeros", wrong_t(metricgeom.u_nonzeros))
                monkeypatch.setattr(reference, "u_tensor_closed", wrong_t(reference.u_tensor_closed))
            keys, values = _compat_form(split, p)
            assert np.all(np.diff(keys) > 0)
            got = scatter(d**3, keys, values).reshape(d, d, d)
            dense = self.dense_form(split, p)
            np.testing.assert_allclose(got, dense, rtol=0, atol=1e-13 * p.kappa)
            assert (np.max(np.abs(dense)) > 0.01 * p.kappa) == wrong
            residual = connection_compat_residual(split, p)
            assert residual == float(np.max(np.abs(values)) / p.kappa)
            assert (residual > 1e-3) if wrong else (residual < 1e-15)

    @pytest.mark.parametrize("n,k", [(5, 4), (12, 6)])
    def test_alpha_on_basis_pairs_is_the_dense_connection(self, get_split, n, k):
        split = get_split(n, k)
        d, b = split.dim, basis_mats(split.combined)
        p = MetricParams(0.4, 2.7, kappa=3.0)
        i, j, r, v = split.bracket_nonzeros
        alpha = scatter((d, d, d), i, j, r, 0.5 * v + u_nonzeros(split, p, "closed")[1])
        xs, ys = np.repeat(b, d, axis=0), np.tile(b, (d, 1, 1))
        dense = lie_rows(nomizu(split, p, xs, ys)) @ split.combined.coords.T
        np.testing.assert_allclose(alpha.reshape(d * d, d), dense, rtol=0, atol=1e-14)

    def test_fails_with_a_wrong_u_coefficient(self, get_split, monkeypatch):
        split = get_split(8, 6)
        p = MetricParams(1.9, 0.7, kappa=7.0)
        assert connection_compat_residual(split, p) < TAU_CONNECTION
        monkeypatch.setattr(metricgeom, "u_nonzeros", wrong_t(metricgeom.u_nonzeros))
        assert connection_compat_residual(split, p) > 1e-3

    @pytest.mark.parametrize("channel", [0, 1, 2])
    def test_a_u_channel_scaled_by_one_plus_1e_6_fails(self, get_split, monkeypatch, channel):
        split = get_split(8, 6)
        p = MetricParams(1.9, 0.7, kappa=7.0)
        assert connection_compat_residual(split, p) < 1e-15
        monkeypatch.setattr(metricgeom, "u_channel_coefficients", scaled_channel(channel, 1.0 + 1e-6))
        assert connection_compat_residual(split, p) > 10 * TAU_CONNECTION

    def test_cost_guard_no_matrix_stacks(self, get_split, monkeypatch):
        # The check reads alpha off nonzeros: no bracket of stacks, no stack of matrices.
        def forbidden(*args, **kwargs):
            raise AssertionError("a matrix stack was formed")

        for name in ("brackets", "lie_mats", "lie_rows"):
            monkeypatch.setattr(liealg, name, forbidden)
            monkeypatch.setattr(metricgeom, name, forbidden, raising=False)
        split = get_split(24, 6)
        assert connection_compat_residual(split, MetricParams(1.9, 0.7, kappa=23.0)) < TAU_CONNECTION


class TestNaturalReductivity:
    def test_holds_at_neutral_params(self, get_split):
        split = get_split(5, 4)
        assert naturally_reductive_residual(split, MetricParams(1.0, 1.0, kappa=4.0)) < TAU_NAT_RED

    @pytest.mark.parametrize("s,t", [(2.0, 1.0), (1.0, 2.0)])
    def test_fails_off_neutral(self, get_split, s, t):
        split = get_split(5, 4)
        p = MetricParams(s, t, kappa=4.0)
        assert naturally_reductive_residual(split, p) > 1e-3

    def test_single_block_triples_always_balance(self, get_split):
        # Within one block both sides vanish: same-block brackets leave m.
        split = get_split(5, 6)
        p = MetricParams(2.3, 0.4)
        gd = block_weights(split, p)
        bm = dense_bracket(split)
        bi = split.block_index
        for b in (1, 2, 3):
            idx = np.nonzero(bi == b)[0]
            for i in idx:
                for j in idx:
                    for l in idx:
                        lhs = bm[i, j, l] * gd[l]
                        rhs = gd[i] * bm[j, l, i]
                        assert abs(lhs - rhs) < 1e-12


class TestSparseBracketTensor:
    """The split keeps the bracket tensor B of m as its nonzeros.  The
    quantities read off them must have the bits of the dense formulas on B
    (array_equal: the sign of a zero entry may differ)."""

    POINTS = [(1.0, 1.0, 1.0), (2.0, 0.5, 3.0), (0.3, 3.7, 1.0), (1.0, 4.0 / 3.0, 7.0), (1e-3, 1e3, 0.5)]

    @staticmethod
    def dense_formulas(split, p):
        """U closed, U solved and the natural-reductivity residual, by dense
        (d, d, d) arithmetic on B with signed block-pair masks."""
        bm, bi, d = dense_bracket(split), split.block_index, split.dim
        masks = np.zeros((3, d, d))
        for mask, (a, b) in zip(masks, ((2, 3), (1, 3), (1, 2))):
            mask[np.ix_(bi == a, bi == b)] = 1.0
            mask[np.ix_(bi == b, bi == a)] = -1.0
        closed = np.tensordot(u_channel_coefficients(p), masks, axes=1)[:, :, None] * bm
        gd = block_weights(split, p)
        term1 = gd[:, None, None] * bm.transpose(2, 1, 0)
        term2 = gd[None, :, None] * bm.transpose(1, 2, 0)
        solved = (term1 + term2) / (2.0 * gd[None, None, :])
        nat = float(np.max(np.abs(bm * gd[None, None, :] - np.einsum("i,jki->ijk", gd, bm))) / p.kappa)
        return closed, solved, nat

    @pytest.mark.parametrize("n", range(4, 17))
    def test_bitwise_equal_to_dense_formulas(self, get_split, n):
        split = get_split(n, 6 if n > 4 else 4)
        for s, t, kappa in self.POINTS:
            p = MetricParams(s, t, kappa)
            closed, solved, nat = self.dense_formulas(split, p)
            np.testing.assert_array_equal(u_coords_tensor(split, p, "closed"), closed)
            np.testing.assert_array_equal(u_coords_tensor(split, p, "solved"), solved)
            assert naturally_reductive_residual(split, p) == nat

    @pytest.mark.parametrize("n", [4, 5, 8, 12, 16, 24])
    def test_u_nonzeros_scattered_are_bitwise_the_dense_route(self, get_split, n):
        split = get_split(n, 6 if n > 4 else 4)
        d = split.dim
        for s, t, kappa in self.POINTS:
            p = MetricParams(s, t, kappa)
            for mode in ("closed", "solved"):
                keys, values = u_nonzeros(split, p, mode)
                assert keys.dtype.kind == "i" and np.all(np.diff(keys) > 0)
                dense = scatter(d**3, keys, values).reshape(d, d, d)
                assert dense.tobytes() == reference.u_coords_tensor(split, p, mode).tobytes()

    @pytest.mark.parametrize("n", [5, 12, 24])
    def test_closed_minus_solved_by_key_is_the_dense_deviation(self, get_split, n):
        # verify's u-oracle-agreement residual, read off the nonzeros of both routes
        split = get_split(n, 6)
        for s, t, kappa in self.POINTS:
            p = MetricParams(s, t, kappa)
            (kc, uc), (ks, us) = (u_nonzeros(split, p, mode) for mode in ("closed", "solved"))
            diff = sum_by_key(np.concatenate([kc, ks]), np.concatenate([uc, -us]))[1]
            dense = reference.u_coords_tensor(split, p, "closed") - reference.u_coords_tensor(split, p, "solved")
            assert float(np.max(np.abs(diff), initial=0.0)) == float(np.max(np.abs(dense)))

    def test_unknown_u_mode(self, get_split):
        with pytest.raises(ValueError, match="unknown U mode"):
            u_nonzeros(get_split(5, 4), MetricParams(1.0, 2.0), "dense")

    def test_channels_follow_the_block_pairs(self, get_split):
        split = get_split(6, 6)
        bi = split.block_index
        i, j = (x.ravel() for x in np.indices((split.dim, split.dim)))
        channel, sign = u_channels(split, i, j)
        pairs = {(2, 3): 1, (1, 3): 2, (1, 2): 3}
        for a, b, c, sg in zip(bi[i], bi[j], channel, sign):
            want = (0, 0.0) if a == b else (pairs[min(a, b), max(a, b)], 1.0 if a < b else -1.0)
            assert (c, sg) == want

    def test_nonzeros_are_sorted_and_exact(self, get_split):
        split = get_split(24, 6)
        i, j, r, v = split.bracket_nonzeros
        d = split.dim
        assert len(v) == 252 and np.all(v != 0.0)
        assert np.all(np.diff((i * d + j) * d + r) > 0)


def bits(x) -> bytes:
    return np.ascontiguousarray(x).tobytes()


class TestPointOrGrid:
    """The metric functions take a MetricParams or a MetricGrid: a grid's column
    p carries the bits of the same call at its point p."""

    POINTS = [(0.25, 0.25), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (0.3, 4.7), (1e-6, 1e6), (1.7, 4.0 / 3.0)]

    @staticmethod
    def point_and_grid(kappa):
        grid = MetricGrid.of(TestPointOrGrid.POINTS, kappa)
        return [MetricParams(s, t, kappa) for s, t in TestPointOrGrid.POINTS], grid

    @pytest.mark.parametrize("n,k", [(5, 4), (8, 6), (16, 6)])
    def test_block_weights(self, get_split, n, k):
        split = get_split(n, k)
        points, grid = self.point_and_grid(float(n - 1))
        columns = block_weights(split, grid)
        assert columns.shape == (split.dim, len(points))
        for p, params in enumerate(points):
            assert bits(columns[:, p]) == bits(block_weights(split, params))

    @pytest.mark.parametrize("mode", ["closed", "solved"])
    @pytest.mark.parametrize("n,k", [(5, 4), (8, 6), (16, 6)])
    def test_u_nonzeros(self, get_split, n, k, mode):
        split = get_split(n, k)
        points, grid = self.point_and_grid(float(n - 1))
        keys, columns = u_nonzeros(split, grid, mode)
        assert columns.shape == (len(keys), len(points))
        for p, params in enumerate(points):
            at_point = u_nonzeros(split, params, mode)
            assert bits(keys) == bits(at_point[0]) and bits(columns[:, p]) == bits(at_point[1])

    @pytest.mark.parametrize("n,k", [(5, 4), (8, 6), (16, 6)])
    def test_naturally_reductive_residual(self, get_split, n, k):
        split = get_split(n, k)
        points, grid = self.point_and_grid(3.5)
        residuals = naturally_reductive_residual(split, grid)
        assert residuals.shape == (len(points),)
        at_points = [naturally_reductive_residual(split, params) for params in points]
        assert all(type(r) is float for r in at_points)
        assert residuals.tolist() == at_points
        assert residuals[1] < TAU_NAT_RED and min(residuals[2:4]) > 0.1  # (1, 1) and off it
