import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import flagf
from flagf.canonical import structure_by_label
from flagf.classify import (
    CONDITION_NAMES,
    MAX_GRID_POINTS,
    NONMEMBER_MARGIN,
    SPECIAL_POINTS,
    TAU_MEMBER,
    TAU_RANK,
    ClassEvaluator,
    build_grid,
    CharacteristicSet,
    decode_constraints,
    grid_disagreement,
    metric_compat_residual,
    product_compat_residual,
    structure_matrices,
)
from flagf import canonical, classify, liealg, metricgeom
from flagf.liealg import bracket_coords, scatter
from flagf.metricgeom import MetricGrid, MetricParams, TripleSplit, u_channel_coefficients
from space_reference import dense_subspace, split_blocks
from structure_checks_reference import kept_entries_from_stacks, on_theta_blocks, u_coords_tensor

FOUR_THIRDS = 4.0 / 3.0


def _condition_tensor(name: str, f: np.ndarray, f2: np.ndarray, bm: np.ndarray, u: np.ndarray) -> np.ndarray:
    """C[i, j, :] for the named condition from the dense bracket tensor bm and
    the U tensor to use, by einsum: the reference route of the class set-up."""
    if name == "kill":
        return (
            0.5 * np.einsum("bj,ibr->ijr", f, bm, optimize=True)
            + np.einsum("bj,ibr->ijr", f, u, optimize=True)
            - np.einsum("rb,ijb->ijr", f, u, optimize=True)
        )
    if name == "nk":
        return (
            0.5 * np.einsum("ai,bj,abr->ijr", f, f2, bm, optimize=True)
            + np.einsum("ai,bj,abr->ijr", f, f2, u, optimize=True)
            - np.einsum("rc,ai,bj,abc->ijr", f, f, f, u, optimize=True)
        )
    if name == "g1":
        inner = (
            2.0 * np.einsum("ai,bj,abr->ijr", f, f2, u, optimize=True)
            - np.einsum("rc,ai,bj,abc->ijr", f, f, f, u, optimize=True)
            + np.einsum("rc,ai,bj,abc->ijr", f, f2, f2, u, optimize=True)
        )
        return np.einsum("rs,ijs->ijr", f, inner, optimize=True)
    raise ValueError(f"unknown condition {name!r}")


def grid_points(grid) -> list[tuple[float, float]]:
    """The (s, t) points of a MetricGrid or a ClassSweep, in order, as floats."""
    return list(zip(grid.s.tolist(), grid.t.tolist()))


def dense_bracket(split: TripleSplit) -> np.ndarray:
    """The (d, d, d) bracket tensor of m."""
    return scatter((split.dim,) * 3, *split.bracket_nonzeros)


def dense_stacks(ev: ClassEvaluator, name: str) -> list[np.ndarray]:
    """:func:`condition_stacks` of the evaluator's f on its split."""
    return condition_stacks(name, ev.f_matrix, dense_bracket(ev.split), ev.split.block_index)


def condition_stacks(name: str, f: np.ndarray, bm: np.ndarray, bi: np.ndarray) -> list[np.ndarray]:
    """The base and the three U-channel (d, d, d) tensors of a condition for
    the matrix f, the bracket tensor bm and the block labels bi of a basis,
    built by the einsum reference route: a zero bracket tensor drops the
    bracket terms, a zero U tensor the U terms.  Channel c holds the bracket
    tensor on its block pairs (a, b), with sign +1 on (a, b) and -1 on (b, a)."""
    zero = np.zeros_like(bm)
    masks = [np.outer(bi == a, bi == b) * 1.0 - np.outer(bi == b, bi == a) for a, b in ((2, 3), (1, 3), (1, 2))]
    return [_condition_tensor(name, f, f @ f, bm, zero)] + [
        _condition_tensor(name, f, f @ f, zero, mask[:, :, None] * bm) for mask in masks
    ]


def dense_condition(ev: ClassEvaluator, name: str, p: MetricParams, mode: str) -> np.ndarray:
    """The dense C[i, j, :] of the named condition with the closed or the solved U."""
    f = ev.f_matrix
    return _condition_tensor(name, f, f @ f, dense_bracket(ev.split), u_coords_tensor(ev.split, p, mode))


def dense_residual(ev: ClassEvaluator, name: str, p: MetricParams) -> float:
    """The residual of the named condition polarized off the dense tensor with
    the solved U, normalized as ClassEvaluator normalizes it."""
    c = dense_condition(ev, name, p, "solved")
    i, j = np.triu_indices(ev.split.dim)
    pair_max = np.max(np.linalg.norm(c[i, j] + c[j, i], axis=1))
    return pair_max / (1.0 + p.s + p.t + 1.0 / p.s + 1.0 / p.t)


class TestMetricCompatibility:
    def test_all_f_structures_compatible_any_metric(self, get_split, get_f_structures, rng):
        for n, k in [(5, 4), (6, 6)]:
            split = get_split(n, k)
            for _ in range(10):
                s, t = rng.uniform(0.1, 5.0, size=2)
                p = MetricParams(float(s), float(t), kappa=float(n - 1))
                for cs in get_f_structures(n, k):
                    assert metric_compat_residual(cs.matrix, split, p) < 1e-10

    def test_product_structures_preserve_metric(self, get_split, get_products, rng):
        split = get_split(5, 6)
        for _ in range(5):
            s, t = rng.uniform(0.2, 4.0, size=2)
            p = MetricParams(float(s), float(t))
            for cs in get_products(5, 6):
                assert product_compat_residual(cs.matrix, split, p) < 1e-10

    def test_product_structure_fails_f_compatibility(self, get_space, get_split, get_products):
        # P3 is symmetric, not skew-adjoint, for g; treating it as an
        # f-structure must be reported honestly while the product-style
        # compatibility g(PX, PY) = g(X, Y) holds.
        split = get_split(5, 6)
        p3 = structure_by_label(get_products(5, 6), "P3").matrix
        p = MetricParams(1.5, 0.8)
        assert metric_compat_residual(p3, split, p) > 1e-3
        assert product_compat_residual(p3, split, p) < 1e-10

    def test_theta_fails_skew_adjointness_generically(self, get_space, get_split):
        # theta itself is not skew-adjoint for generic (s, t), so the check
        # must report that honestly.
        ps = get_space(5, 6)
        split = get_split(5, 6)
        fake = flagf.CanonicalStructure(
            kind="f-structure", label="theta", signature=(),
            theta_polynomial=(0.0, 1.0, 0.0, 0.0, 0.0, 0.0), blocks=on_theta_blocks(ps.theta_blocks, ps.theta),
        )
        assert metric_compat_residual(structure_matrices([fake], split), split, MetricParams(2.0, 0.5)) > 1e-3


class TestOrderFourMemberships:
    """The order-4 structure f0: Killing only at (1, 4/3), nearly Kaehler on
    the line s = 1, G1 for every metric."""

    def test_kill_member_at_special_point(self, get_split, get_f_structures):
        split = get_split(5, 4)
        f0 = structure_by_label(get_f_structures(5, 4), "f0")
        rep = ClassEvaluator(f0, split).report(MetricParams(1.0, FOUR_THIRDS, kappa=4.0))
        assert rep.memberships["kill"] and rep.witnesses["kill"] is None

    def test_kill_non_member_at_neutral_params(self, get_split, get_f_structures):
        split = get_split(5, 4)
        f0 = structure_by_label(get_f_structures(5, 4), "f0")
        rep = ClassEvaluator(f0, split).report(MetricParams(1.0, 1.0, kappa=4.0))
        assert not rep.memberships["kill"]
        assert rep.residuals["kill"] > 1e-3
        assert rep.witnesses["kill"] is not None

    def test_nk_member_at_neutral_params(self, get_split, get_f_structures):
        split = get_split(5, 4)
        f0 = structure_by_label(get_f_structures(5, 4), "f0")
        assert ClassEvaluator(f0, split).report(MetricParams(1.0, 1.0)).memberships["nk"]

    @pytest.mark.parametrize("t", [0.3, 1.0, FOUR_THIRDS, 2.5])
    def test_nk_along_the_line(self, get_split, get_f_structures, t):
        split = get_split(6, 4)
        f0 = structure_by_label(get_f_structures(6, 4), "f0")
        ev = ClassEvaluator(f0, split)
        assert ev.report(MetricParams(1.0, t)).memberships["nk"]
        for s in (0.5, 2.0):
            rep = ev.report(MetricParams(s, t))
            assert not rep.memberships["nk"] and rep.residuals["nk"] > 1e-3

    def test_g1_member_anywhere(self, get_split, get_f_structures):
        split = get_split(5, 4)
        f0 = structure_by_label(get_f_structures(5, 4), "f0")
        assert ClassEvaluator(f0, split).report(MetricParams(2.0, 0.7)).memberships["g1"]


@pytest.fixture
def setup(get_split, get_f_structures):
    split = get_split(5, 6)
    fs = get_f_structures(5, 6)
    return split, {lbl: structure_by_label(fs, lbl) for lbl in ("f1", "f2", "f3", "f4")}


class TestOrderSixMemberships:
    """Order 6: f1 behaves like f0; f2, f3 are nearly Kaehler everywhere;
    f4 never is; everything is G1."""

    def test_f1_kill_only_at_special_point(self, setup):
        split, fs = setup
        ev = ClassEvaluator(fs["f1"], split)
        assert ev.report(MetricParams(1.0, FOUR_THIRDS)).memberships["kill"]
        for s, t in [(1.0, 1.0), (1.0, 2.0), (2.0, FOUR_THIRDS), (0.5, 0.5)]:
            rep = ev.report(MetricParams(s, t))
            assert not rep.memberships["kill"] and rep.residuals["kill"] > 1e-3

    def test_f2_f3_nk_everywhere(self, setup, rng):
        split, fs = setup
        for _ in range(10):
            s, t = rng.uniform(0.1, 5.0, size=2)
            for lbl in ("f2", "f3"):
                assert ClassEvaluator(fs[lbl], split).report(MetricParams(float(s), float(t))).memberships["nk"]

    def test_f4_never_nk(self, setup, rng):
        split, fs = setup
        for _ in range(10):
            s, t = rng.uniform(0.1, 5.0, size=2)
            rep = ClassEvaluator(fs["f4"], split).report(MetricParams(float(s), float(t)))
            assert not rep.memberships["nk"] and rep.residuals["nk"] > 1e-3

    def test_f2_f3_f4_never_kill(self, setup):
        split, fs = setup
        grid = build_grid(0.5, 2.5, 0.5)
        for lbl in ("f2", "f3", "f4"):
            swept = ClassEvaluator(fs[lbl], split).sweep(grid)
            assert not swept.memberships["kill"].any() and swept.residuals["kill"].min() > 1e-3, lbl

    def test_all_g1_everywhere(self, setup, rng):
        split, fs = setup
        for _ in range(5):
            s, t = rng.uniform(0.1, 5.0, size=2)
            for cs in fs.values():
                rep = ClassEvaluator(cs, split).report(MetricParams(float(s), float(t)))
                assert rep.memberships["g1"], (cs.label, rep.residuals["g1"])


class TestEvaluatorInternals:
    def test_closed_kernels_match_direct_evaluation(self, get_split, get_f_structures):
        # The compact polarized entries, combined at (s, t), must give the pair
        # norms of the condition tensor assembled from the explicit U tensor,
        # and every pair they drop must polarize to zero there.
        from flagf.classify import _combined_norms

        split = get_split(5, 6)
        f1 = structure_by_label(get_f_structures(5, 6), "f1")
        ev = ClassEvaluator(f1, split)
        p = MetricParams(1.7, 0.45, kappa=2.0)
        norms = _combined_norms(ev._values, ev._starts, u_channel_coefficients(p)[None])[0]
        for name, span in ev._spans.items():
            direct = dense_condition(ev, name, p, "closed")
            sym = np.linalg.norm(direct + direct.transpose(1, 0, 2), axis=2)
            i, j = ev._pairs[span].T
            np.testing.assert_allclose(norms[span], sym[i, j], rtol=1e-12, atol=1e-15)
            dropped = np.ones(sym.shape, dtype=bool)
            dropped[i, j] = dropped[j, i] = False
            assert np.max(sym[dropped], initial=0.0) < 1e-12

    @pytest.mark.parametrize("n,k", [(5, 4), (5, 6), (6, 8), (8, 6), (12, 6)])
    def test_compact_residuals_match_dense_route(self, get_split, get_f_structures, n, k):
        # The dense route polarizes the whole d^3 condition tensor, assembled
        # from stacks built by the einsum reference route.  On the default
        # grid residuals agree to rounding (members are noise below 1e-15)
        # and each non-member's witness pair carries the dense maximum; at
        # s, t in {1e-6, 1e6} channel coefficients up to 5e11 cancel, so
        # only the verdicts are compared there.
        split = get_split(n, k)
        extremes = [(s, t) for s in (1e-6, 1e6) for t in (1e-6, 1e6)]
        grid = grid_points(build_grid())
        for cs in get_f_structures(n, k):
            ev = ClassEvaluator(cs, split)
            stacks = {name: dense_stacks(ev, name) for name in CONDITION_NAMES}
            swept = ev.sweep(MetricGrid.of(grid + extremes, float(n - 1)))
            for p, (s, t) in enumerate(grid + extremes):
                c = u_channel_coefficients(MetricParams(s, t))
                scale = 1.0 + s + t + 1.0 / s + 1.0 / t
                for name, (base, *chans) in stacks.items():
                    cond = base + c[0] * chans[0] + c[1] * chans[1] + c[2] * chans[2]
                    norms = np.linalg.norm(cond + cond.transpose(1, 0, 2), axis=2)
                    dense = float(norms.max() / scale)
                    member, witness = swept.memberships[name][p], tuple(swept.witnesses[name][p].tolist())
                    assert member == (dense < TAU_MEMBER), (cs.label, name, s, t)
                    assert swept.indeterminate[name][p] == (TAU_MEMBER <= dense <= NONMEMBER_MARGIN)
                    assert (witness == (-1, -1)) == member
                    if (s, t) in grid:
                        np.testing.assert_allclose(swept.residuals[name][p], dense, rtol=1e-12, atol=1e-15)
                        if not member:
                            np.testing.assert_allclose(norms[witness], norms.max(), rtol=1e-12)

    def test_polarized_entries_keep_exactly_what_carries_data(self):
        # One entry below the diagonal, one pair whose rows cancel, one
        # diagonal pair and one entry that sums to 0.0; everything else is zero.
        from flagf.classify import _polarize

        def key(*index):
            return np.ravel_multi_index(index, (3, 4, 5, 5, 5))

        entries = {
            key(0, 2, 3, 1, 4): 2.0,  # only the row (3, 1): its pair is (1, 3)
            key(1, 0, 2, 4, 0): 1.5,  # rows (2, 4) and (4, 2) cancel
            key(1, 0, 4, 2, 0): -1.5,
            key(2, 1, 2, 2, 3): 0.5,  # diagonal pair (2, 2) polarizes to twice its row
            key(2, 3, 1, 4, 2): 0.0,  # carries nothing
        }
        keys = np.array(sorted(entries))
        pairs, owner, values = _polarize(keys, np.array([entries[x] for x in keys]), 5, 3)
        assert np.transpose(np.unravel_index(pairs, (3, 5, 5))).tolist() == [
            [0, 0, 0], [0, 1, 3], [1, 0, 0], [1, 2, 4], [2, 0, 0], [2, 2, 2]
        ]
        assert owner.tolist() == pairs.tolist()  # one zero entry for each empty pair
        want = np.zeros((4, 6))
        want[2, 1] = 2.0
        want[1, 5] = 1.0
        np.testing.assert_array_equal(values, want)

    @pytest.mark.parametrize(
        "n,k",
        [(n, k) for n in range(4, 17) for k in (4, 6)]
        + [(24, 6)]
        + [(n, k) for n in range(6, 10) for k in (8, 10)],
    )
    def test_kept_entries_match_dense_keep_rule(self, get_split, get_f_structures, n, k):
        # The same rule on the dense (3, 4, d, d, d) stacks of the einsum
        # reference route: pairs i <= j whose rows hold an entry != 0 (and
        # (0, 0)), and of their polarized rows the entries != 0 in some channel.
        split = get_split(n, k)
        for cs in get_f_structures(n, k):
            ev = ClassEvaluator(cs, split)
            stacks = np.array([dense_stacks(ev, name) for name in CONDITION_NAMES])
            carries = np.any(stacks != 0.0, axis=(1, 4))
            keep = np.triu(carries | carries.transpose(0, 2, 1))
            keep[:, 0, 0] = True
            c, i, j = np.nonzero(keep)
            rows = stacks[c, :, i, j] + stacks[c, :, j, i]
            entry = np.any(rows != 0.0, axis=1)
            entry[:, 0] |= ~np.any(entry, axis=1)
            owner, r = np.nonzero(entry)
            assert ev._pairs.tolist() == np.stack([i, j], axis=1).tolist(), cs.label
            assert ev._owner.tolist() == owner.tolist(), cs.label
            stops = [ev._spans[name].stop for name in CONDITION_NAMES]
            assert stops == np.searchsorted(c, [1, 2, 3]).tolist()
            np.testing.assert_allclose(ev._values, rows[owner, :, r].T, rtol=0.0, atol=1e-15)

    def test_report_and_sweep_residuals_are_bit_identical(self, get_split, get_f_structures):
        # report() is a batch of one; sweep() takes the grid in blocks of
        # about 2^16 combined entries, and this grid spans several of them.
        split = get_split(12, 6)
        grid = build_grid(0.05, 3.0, 0.05, kappa=11.0)
        for label in ("f1", "f4"):
            ev = ClassEvaluator(structure_by_label(get_f_structures(12, 6), label), split)
            assert len(grid.s) > 2 * ((1 << 16) // ev._values.shape[1])
            swept = ev.sweep(grid)
            for p, (s, t) in enumerate(grid_points(grid)):
                single = ev.report(MetricParams(s, t, kappa=11.0))
                assert single.residuals == {name: swept.residuals[name][p] for name in CONDITION_NAMES}
                assert single.witnesses == {
                    name: None if swept.memberships[name][p] else tuple(swept.witnesses[name][p].tolist())
                    for name in CONDITION_NAMES
                }

    def test_cost_guard_compact_kernels(self, get_split, get_f_structures):
        # The dense (4, d, d, d) stacks would be 6.6 MB at n = 16, k = 6, and a
        # report that built a d^3 condition tensor would allocate d^3 * 8 bytes,
        # which a freed temporary of that size faults back in on every call.
        # Set-up, once the split holds its bracket nonzeros, builds nothing of
        # that size either.
        split = get_split(16, 6)
        d = split.dim
        f4 = structure_by_label(get_f_structures(16, 6), "f4")
        ev = ClassEvaluator(f4, split)
        assert sum(a.nbytes for a in (ev._values, ev._owner, ev._starts, ev._pairs)) < 1 << 20
        p = MetricParams(0.7, 2.3, kappa=15.0)
        ev.report(p)
        for step in (lambda: ev.report(p), lambda: ClassEvaluator(f4, split)):
            tracemalloc.start()
            try:
                step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < d**3 * 8 / 4

    def test_closed_vs_solved_residuals_agree(self, get_split, get_f_structures):
        # The evaluator (closed-form U) against the dense condition tensor
        # built with the U solved from the metric equation.
        split = get_split(5, 6)
        for lbl in ("f1", "f4"):
            ev = ClassEvaluator(structure_by_label(get_f_structures(5, 6), lbl), split)
            for s, t in [(1.0, FOUR_THIRDS), (0.25, 3.0), (2.0, 2.0)]:
                p = MetricParams(s, t)
                rep = ev.report(p)
                for name in CONDITION_NAMES:
                    rs = dense_residual(ev, name, p)
                    assert abs(rep.residuals[name] - rs) < 1e-8
                    assert rep.memberships[name] == (rs < TAU_MEMBER)

    def test_membership_kappa_invariant(self, get_split, get_f_structures):
        split = get_split(5, 4)
        f0 = structure_by_label(get_f_structures(5, 4), "f0")
        for s, t in [(1.0, FOUR_THIRDS), (0.5, 2.0), (1.0, 1.0)]:
            ev = ClassEvaluator(f0, split)
            a, b = (ev.report(MetricParams(s, t, kappa=kappa)) for kappa in (1.0, 2.0))
            assert a.memberships["kill"] == b.memberships["kill"]
            assert abs(a.residuals["kill"] - b.residuals["kill"]) < 1e-12

    def test_polarization_bounds_quadratic_residual(self, get_split, get_f_structures, rng):
        # |C(X, X)| is controlled by the max symmetrized pair value: spot
        # check that a vanishing polarized residual forces the quadratic map
        # to vanish on arbitrary vectors.
        split = get_split(5, 4)
        f0 = structure_by_label(get_f_structures(5, 4), "f0")
        ev = ClassEvaluator(f0, split)
        for s, t, name in [(1.0, FOUR_THIRDS, "kill"), (1.0, 0.7, "nk"), (2.2, 0.4, "g1")]:
            p = MetricParams(s, t)
            c = dense_condition(ev, name, p, "closed")
            sym = c + c.transpose(1, 0, 2)
            pair_max = np.max(np.linalg.norm(sym, axis=2))
            for _ in range(100):
                x = rng.standard_normal(split.dim)
                quad = np.einsum("ijr,i,j->r", c, x, x)
                bound = 0.5 * pair_max * np.sum(np.abs(x)) ** 2
                assert np.linalg.norm(quad) <= bound + 1e-12

    @pytest.mark.parametrize("n,k,label", [(5, 4, "f0"), (5, 6, "f1"), (6, 6, "f1")])
    def test_nk_bracket_part_vanishes_identically(self, get_split, get_f_structures, n, k, label):
        # (1/2)[fX, f^2 X]_m = 0 for every X, independently of the metric:
        # the parameter-free part of the nearly-Kaehler condition tensor is
        # zero after polarization for f0 and f1.
        split = get_split(n, k)
        cs = structure_by_label(get_f_structures(n, k), label)
        f = cs.matrix
        bm = dense_bracket(split)
        base = _condition_tensor("nk", f, f @ f, bm, np.zeros_like(bm))
        sym = base + base.transpose(1, 0, 2)
        assert np.max(np.abs(sym)) < 1e-12


def bits(*arrays) -> list[bytes]:
    return [np.asarray(a).tobytes() for a in arrays]


CORNER_GRID = [(1e-6, 1e-6), (1e-6, 1e6), (1e6, 1e-6), (1e6, 1e6), (1.0, FOUR_THIRDS), (1.0, 2.5), (0.3, 1.7)]


class TestJoinedSetUp:
    """class_evaluators sets up every structure of a list in one join; each
    evaluator must hold exactly the bits a set-up of its structure alone gives."""

    @staticmethod
    def assert_same_bits(a: ClassEvaluator, b: ClassEvaluator, grid) -> None:
        assert a.structure is b.structure and a._spans == b._spans
        assert bits(a.f_matrix, a._signed, a._values, a._pairs, a._owner, a._starts) == bits(
            b.f_matrix, b._signed, b._values, b._pairs, b._owner, b._starts
        )
        sa, sb = a.sweep(MetricGrid.of(grid)), b.sweep(MetricGrid.of(grid))
        for name in CONDITION_NAMES:
            assert bits(sa.residuals[name], sa.witnesses[name]) == bits(sb.residuals[name], sb.witnesses[name])
            za, zb = a.zero_set(name), b.zero_set(name)
            assert za == zb, (a.structure.label, name)

    @pytest.mark.parametrize("n,k", [(5, 4), (8, 6), (12, 6), (24, 6)])
    def test_joined_evaluators_equal_single_ones_bitwise(self, get_split, get_f_structures, n, k):
        split, fs = get_split(n, k), get_f_structures(n, k)
        assert any(cs.label.startswith("-") for cs in fs)  # negatives included
        joined = classify.class_evaluators(fs, split)
        assert [ev.structure for ev in joined] == fs
        for ev, cs in zip(joined, fs):
            self.assert_same_bits(ev, ClassEvaluator(cs, split), CORNER_GRID)

    def test_no_structures_no_evaluators(self, get_split):
        assert classify.class_evaluators([], get_split(5, 4)) == []

    def test_cost_guard_one_pass_of_one_entry_per_row(self, get_split, get_f_structures, monkeypatch):
        # J, J^2 and their transposes have one nonzero per row on the flag split, so the row tables
        # have no width axis, and the 8 f-structures of (24, 6) join in one pass of one product per
        # term and bracket nonzero.  The generated matrices carry rounding noise beside each entry.
        split, fs = get_split(24, 6), get_f_structures(24, 6)
        assert liealg.nonzero_rows(structure_matrices(fs, split))[0].shape[-1] == 2
        col, sign = split.row_tables
        assert col.shape == sign.shape == (5, split.dim)
        joins = []
        kept = classify._kept_entries

        def counting_kept(eps, sp):
            joins.append((eps.shape, [x.shape for x in sp.row_tables]))
            return kept(eps, sp)

        monkeypatch.setattr(classify, "_kept_entries", counting_kept)
        classify.class_evaluators(fs, split)
        assert joins == [((len(fs), split.dim), [(5, split.dim), (5, split.dim)])]

    @pytest.mark.parametrize("n,k", [(4, 4), (5, 4), (5, 6), (8, 6), (12, 6), (16, 6), (24, 6)])
    def test_row_tables_off_j_equal_the_stack_scan(self, get_split, get_f_structures, monkeypatch, n, k):
        # The join reads its row tables off the split's tables of J, scaled by each structure's
        # signs; the reference reads them off the (S, d, d) stacks of f, f^2 and their transposes.
        # The bits must agree for the whole list, for the first structure alone and for the last.
        split, fs = get_split(n, k), get_f_structures(n, k)
        for family in (fs, fs[:1], fs[-1:]):
            fresh = classify.class_evaluators(family, split)
            with monkeypatch.context() as patched:
                patched.setattr(classify, "_kept_entries", kept_entries_from_stacks)
                scanned = classify.class_evaluators(family, split)
            for a, b in zip(fresh, scanned, strict=True):
                assert [x.shape for x in (a._values, a._pairs, a._owner)] == [
                    x.shape for x in (b._values, b._pairs, b._owner)
                ]
                self.assert_same_bits(a, b, CORNER_GRID[:3])

    def test_cost_guard_no_structure_stack_is_scanned(self, get_split, get_f_structures, monkeypatch):
        # Set-up scales the split's row tables of J: it scans no matrix for its nonzeros,
        # neither the (S, d, d) stack of the structures nor f^2 or a transpose.
        scanned = []
        original = liealg.nonzero_rows

        def recording(*mats):
            scanned.append([np.shape(m) for m in mats])
            return original(*mats)

        split, fs = get_split(8, 6), get_f_structures(8, 6)
        for module in (liealg, canonical, classify, metricgeom):
            if hasattr(module, "nonzero_rows"):
                monkeypatch.setattr(module, "nonzero_rows", recording)
        classify.class_evaluators(fs, split)
        ClassEvaluator(fs[0], split)
        assert scanned == []

    @pytest.mark.parametrize("at,named", [((2, 6), "row 2 of J"), ((6, 4), "row 4 of J\\^T")], ids=["row", "column"])
    def test_j_with_two_nonzeros_in_a_row_or_column_is_refused(self, get_split, at, named):
        # At n = 5, row 2 of J holds its entry at its partner 4; row and column 6 (in m3) are zero.
        split = get_split(5, 6)
        j = np.array(split.complex_structure)
        assert j[2, 4] != 0.0 and not j[6].any() and not j[:, 6].any()
        j[at] = 1.0
        with pytest.raises(ValueError, match=f"J is not a signed permutation: {named} has two nonzeros"):
            TripleSplit(split.combined, split.block_index, split.bracket_nonzeros, j)

    def test_a_structure_needs_its_sign_pair(self, get_split, get_f_structures):
        f1 = structure_by_label(get_f_structures(5, 6), "f1")
        with pytest.raises(ValueError, match="no sign pair.*f1"):
            ClassEvaluator(replace(f1, sign_pair=None), get_split(5, 6))

    @pytest.mark.parametrize("n,k", [(4, 4), (5, 6), (8, 8), (12, 6), (24, 6)])
    def test_product_compatibility_is_that_of_the_three_factor_product(self, get_split, get_products, n, k):
        # P^T (G P) rounds each entry's products in another order than (P^T G) P,
        # but the worst entry keeps its bits.
        split = get_split(n, k)
        p = structure_matrices(get_products(n, k), split)
        grid = MetricGrid.of(np.random.default_rng(n * k).uniform(0.1, 5.0, (20, 2)), kappa=float(n - 1))
        for g, got in zip(metricgeom.block_weights(split, grid).T, product_compat_residual(p, split, grid)):
            g = np.diag(g)
            assert got == np.max(np.abs(np.swapaxes(p, -1, -2) @ g @ p - g), initial=0.0) / grid.kappa

    @pytest.mark.parametrize("n,k", [(5, 6), (12, 6), (16, 4)])
    def test_stacked_compatibility_maxima_equal_the_per_structure_ones(
        self, get_split, get_f_structures, get_products, n, k
    ):
        split, fs, prods = get_split(n, k), get_f_structures(n, k), get_products(n, k)
        f_mats, p_mats = structure_matrices(fs, split), structure_matrices(prods, split)
        points = [(0.1, 5.0), (2.3, 0.7), (1.0, FOUR_THIRDS)]
        at_points = {metric_compat_residual: [], product_compat_residual: []}
        for s, t in points:
            p = MetricParams(s, t, kappa=float(n - 1))
            one = [metric_compat_residual(cs.matrix, split, p) for cs in fs]
            assert metric_compat_residual(f_mats, split, p) == max(one)
            one = [product_compat_residual(cs.matrix, split, p) for cs in prods]
            assert product_compat_residual(p_mats, split, p) == max(one)
            for residual, mats in ((metric_compat_residual, f_mats), (product_compat_residual, p_mats)):
                at_points[residual].append(residual(mats, split, p))
        # on a grid: one call, the bits of each point's call
        grid = MetricGrid.of(points, kappa=float(n - 1))
        for residual, mats in ((metric_compat_residual, f_mats), (product_compat_residual, p_mats)):
            assert residual(mats, split, grid).tolist() == at_points[residual]
            one = [residual(mats[0], split, MetricParams(s, t, kappa=float(n - 1))) for s, t in points]
            assert residual(mats[0], split, grid).tolist() == one


class TestResidualOverflow:
    """Inside the domain MetricParams accepts, a channel coefficient can still
    square to inf in a pair norm: the evaluator refuses the point."""

    def test_report_names_the_point(self, get_split, get_f_structures):
        ev = ClassEvaluator(structure_by_label(get_f_structures(6, 6), "f2"), get_split(6, 6))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=r"f2: a class residual overflows at \(s, t\) = \(1e-200, 1e-200\)"):
                ev.report(MetricParams(1e-200, 1e-200))

    def test_sweep_names_the_first_such_point(self, get_split, get_f_structures):
        ev = ClassEvaluator(structure_by_label(get_f_structures(6, 6), "f1"), get_split(6, 6))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=r"overflows at \(s, t\) = \(1e-180, 2e-180\)"):
                ev.sweep(MetricGrid.of([(1.0, 1.0), (1e-180, 2e-180), (1e-200, 1e-200)]))

    def test_finite_residuals_are_kept(self, get_split, get_f_structures):
        # Nearer the edge than most grids, but every norm finite: a report as before.
        ev = ClassEvaluator(structure_by_label(get_f_structures(6, 6), "f2"), get_split(6, 6))
        rep = ev.report(MetricParams(1e-100, 1e-100))
        assert rep.memberships == {"kill": False, "nk": True, "g1": True}


class TestSweep:
    def test_reports_in_grid_order_with_chain(self, get_split, get_f_structures):
        split = get_split(5, 4)
        f0 = structure_by_label(get_f_structures(5, 4), "f0")
        grid = build_grid(0.5, 2.0, 0.5, kappa=4.0)
        swept = ClassEvaluator(f0, split).sweep(grid)
        assert grid_points(swept) == grid_points(grid)
        assert swept.chain_ok.tolist() == [True] * len(grid.s)

    def test_grid_includes_special_points(self):
        grid = grid_points(build_grid())
        assert (1.0, 1.0) in grid
        assert (1.0, FOUR_THIRDS) in grid

    def test_rejects_nonpositive_grid(self, get_split, get_f_structures):
        split = get_split(5, 4)
        f0 = structure_by_label(get_f_structures(5, 4), "f0")
        with pytest.raises(ValueError, match="positive"):
            ClassEvaluator(f0, split).sweep(MetricGrid.of([(0.0, 1.0)]))

    def test_no_indeterminate_verdicts_on_the_standard_grid(self, get_split, get_f_structures):
        split = get_split(5, 6)
        for cs in get_f_structures(5, 6):
            if cs.label.startswith("-"):
                continue
            swept = ClassEvaluator(cs, split).sweep(build_grid())
            for name, flags in swept.indeterminate.items():
                assert not flags.any(), (cs.label, name, swept.s[flags], swept.t[flags])

    @pytest.mark.parametrize("n,k", [(5, 4), (6, 6), (12, 6), (6, 8), (8, 10), (16, 16)])
    def test_negated_structures_same_verdicts_at_the_special_points(self, get_split, get_f_structures, n, k):
        # verify checks the class chain on the structures up to sign.  -f's kill and nk
        # polarized entries are f's negated and its g1 entries f's, so at k = 4, 6 (exact
        # negatives) the residuals keep their bits; at k >= 8 the pairs can differ by 1e-16.
        split, fs = get_split(n, k), get_f_structures(n, k)
        special = MetricGrid.of(classify.SPECIAL_POINTS, float(n - 1))
        swept = {ev.structure.label: ev.sweep(special) for ev in classify.class_evaluators(fs, split)}
        negatives = [label for label in swept if label.startswith("-")]
        assert len(negatives) == len(swept) // 2
        for label in negatives:
            minus, plus = swept[label], swept[label[1:]]
            for name in CONDITION_NAMES:
                assert minus.memberships[name].tolist() == plus.memberships[name].tolist(), (label, name)
                if k in (4, 6):
                    assert bits(minus.residuals[name]) == bits(plus.residuals[name]), (label, name)

    def test_negated_structure_same_classes(self, get_split, get_f_structures):
        split = get_split(5, 6)
        fs = get_f_structures(5, 6)
        plus = structure_by_label(fs, "f4")
        minus = structure_by_label(fs, "-f4")
        for s, t in [(1.0, 1.0), (2.0, 0.5)]:
            p = MetricParams(s, t)
            assert ClassEvaluator(plus, split).report(p).memberships == ClassEvaluator(minus, split).report(p).memberships


def swept_zero_set(cs, split, name, grid=()):
    """The exact zero set of the named condition, with the verdicts of the grid
    (at kappa = 1) checked against it, as cmd_sweep checks them."""
    ev = ClassEvaluator(cs, split)
    zs = ev.zero_set(name)
    assert grid_disagreement({name: zs}, ev.sweep(MetricGrid.of(grid))) is None
    return zs


class TestCharacteristicSets:
    def test_kill_single_point_refined(self, get_split, get_f_structures):
        split = get_split(5, 4)
        f0 = structure_by_label(get_f_structures(5, 4), "f0")
        cs = swept_zero_set(f0, split, "kill")
        assert cs.kind == "points"
        assert len(cs.points) == 1
        s, t = cs.points[0]
        assert abs(s - 1.0) < 1e-6
        assert abs(t - FOUR_THIRDS) < 1e-6

    def test_kill_point_found_without_special_grid_points(self, get_split, get_f_structures):
        # The exact set does not depend on the grid: (1, 4/3) is found even
        # when it is not a grid node, and the grid verdicts agree with it.
        split = get_split(5, 4)
        f0 = structure_by_label(get_f_structures(5, 4), "f0")
        grid = grid_points(build_grid(0.25, 3.0, 0.25, extras=()))
        cs = swept_zero_set(f0, split, "kill", grid)
        assert cs.kind == "points"
        s, t = cs.points[0]
        assert abs(s - 1.0) < 1e-6 and abs(t - FOUR_THIRDS) < 1e-6

    def test_nk_line(self, get_split, get_f_structures):
        split = get_split(5, 4)
        f0 = structure_by_label(get_f_structures(5, 4), "f0")
        cs = swept_zero_set(f0, split, "nk")
        assert cs.kind == "line"
        assert cs.lines == (("s", 1.0),)

    def test_g1_all(self, get_split, get_f_structures):
        split = get_split(5, 4)
        f0 = structure_by_label(get_f_structures(5, 4), "f0")
        assert swept_zero_set(f0, split, "g1").kind == "all"

    def test_f2_kill_empty(self, get_split, get_f_structures):
        split = get_split(5, 6)
        f2 = structure_by_label(get_f_structures(5, 6), "f2")
        assert swept_zero_set(f2, split, "kill").kind == "empty"

    def test_f4_nk_empty(self, get_split, get_f_structures):
        split = get_split(5, 6)
        f4 = structure_by_label(get_f_structures(5, 6), "f4")
        assert swept_zero_set(f4, split, "nk").kind == "empty"

    def test_grid_given_as_an_array(self, get_split, get_f_structures):
        split = get_split(5, 4)
        f0 = structure_by_label(get_f_structures(5, 4), "f0")
        points = np.array([[1.0, FOUR_THIRDS], [2.0, 2.0]])
        cs = swept_zero_set(f0, split, "kill", points)
        assert cs.kind == "points" and cs.contains(points[:, 0], points[:, 1]).tolist() == [True, False]

    def test_description_strings(self, get_split, get_f_structures):
        split = get_split(5, 4)
        f0 = structure_by_label(get_f_structures(5, 4), "f0")
        assert swept_zero_set(f0, split, "g1").description() == "all (s, t)"
        assert "line s=1.0" in swept_zero_set(f0, split, "nk").description()


# The README classification table; it holds for -f exactly as for f.
README_TABLE = {
    "f0": {"kill": "point", "nk": "line", "g1": "all"},
    "f1": {"kill": "point", "nk": "line", "g1": "all"},
    "f2": {"kill": "empty", "nk": "all", "g1": "all"},
    "f3": {"kill": "empty", "nk": "all", "g1": "all"},
    "f4": {"kill": "empty", "nk": "empty", "g1": "all"},
}
SMALL_GRID = build_grid(0.5, 2.0, 0.5)


def assert_table_shape(zs: CharacteristicSet, expected: str) -> None:
    if expected == "point":
        assert zs.kind == "points" and not zs.lines and zs.points == ((1.0, FOUR_THIRDS),), zs
    elif expected == "line":
        assert zs.kind == "line" and zs.lines == (("s", 1.0),) and not zs.points, zs
    else:
        assert zs.kind == expected and not zs.lines and not zs.points, zs


class TestExactZeroSets:
    @pytest.mark.parametrize("k", [4, 6])
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_readme_table_for_f_and_minus_f(self, get_split, get_f_structures, n, k):
        split = get_split(n, k)
        for cs in get_f_structures(n, k):
            ev = ClassEvaluator(cs, split)
            sets = {name: ev.zero_set(name) for name in CONDITION_NAMES}
            for name, zs in sets.items():
                assert_table_shape(zs, README_TABLE[cs.label.lstrip("-")][name])
            for kappa in (1e-3, 1.0, 1e3):
                swept = ev.sweep(MetricGrid(SMALL_GRID.s, SMALL_GRID.t, kappa))
                assert grid_disagreement(sets, swept) is None, (cs.label, kappa)

    @pytest.mark.parametrize("k", [8, 10])
    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    def test_higher_orders_decode_and_agree_with_grid(self, get_split, get_f_structures, n, k):
        # README: at k >= 8 the labels come in key order and the class follows the sign pair, so
        # f3 (opposite signs) takes the f4 row of the order-6 table and f4 (one zero sign) the f2/f3 row.
        split = get_split(n, k)
        labels, classes = [], {}
        for cs in get_f_structures(n, k):
            assert np.linalg.norm(cs.matrix, 2) >= 0.5, cs.label  # no zero operator
            if cs.label.startswith("-"):
                continue
            labels.append(cs.label)
            ev = ClassEvaluator(cs, split)
            sets = {name: ev.zero_set(name) for name in CONDITION_NAMES}
            assert all(zs.kind in ("all", "empty", "line", "points") for zs in sets.values())
            assert grid_disagreement(sets, ev.sweep(SMALL_GRID)) is None, cs.label
            classes[cs.label] = (cs.sign_pair, tuple(sets[name].kind for name in CONDITION_NAMES))
        assert labels == ["f1", "f2", "f3", "f4"]
        assert classes == {
            "f1": ((-1, -1), ("points", "line", "all")),
            "f2": ((-1, 0), ("empty", "all", "all")),
            "f3": ((-1, 1), ("empty", "empty", "all")),
            "f4": ((0, -1), ("empty", "all", "all")),
        }

    @pytest.mark.parametrize("n,k", [(5, 4), (5, 6), (6, 8), (6, 10)])
    def test_zero_sets_match_dense_svd(self, get_split, get_f_structures, n, k):
        # The compact entries weigh pairs i < j by sqrt(2), so that A^T A is that
        # of the dense (d^3, 4) matrix of polarized reference tensors: its float
        # SVD has the exact rank, the exact rows span its leading right singular
        # vectors, and its smallest kept singular value is sigma_min_kept.
        split = get_split(n, k)
        for cs in get_f_structures(n, k):
            ev = ClassEvaluator(cs, split)
            for name in CONDITION_NAMES:
                stack = np.array(dense_stacks(ev, name))
                a = (stack + stack.transpose(0, 2, 1, 3)).reshape(4, -1).T
                sigma, vt = np.linalg.svd(a, full_matrices=False)[1:]
                zs = ev.zero_set(name)
                assert_rows_span(exact_rows(ev, name), sigma, vt, (cs.label, name))
                if zs.rank:
                    np.testing.assert_allclose(zs.sigma_min_kept, sigma[zs.rank - 1], rtol=1e-12)

    def test_rank_and_singular_value_gap(self, get_split, get_f_structures):
        split = get_split(5, 4)
        ev = ClassEvaluator(structure_by_label(get_f_structures(5, 4), "f0"), split)
        kill, nk, g1 = (ev.zero_set(name) for name in CONDITION_NAMES)
        assert (kill.rank, nk.rank, g1.rank) == (3, 1, 0)
        for zs in (kill, nk):
            assert zs.sigma_min_kept >= 1.0 and zs.sigma_max_dropped == 0.0
        assert g1.sigma_min_kept is None and g1.sigma_max_dropped == 0.0

    def test_needs_a_known_condition(self, get_split, get_f_structures):
        split = get_split(5, 4)
        f0 = structure_by_label(get_f_structures(5, 4), "f0")
        with pytest.raises(ValueError, match="condition 'bogus'"):
            ClassEvaluator(f0, split).zero_set("bogus")

    def test_grid_disagreement_names_the_point(self, get_split, get_f_structures, monkeypatch):
        ev = ClassEvaluator(structure_by_label(get_f_structures(5, 4), "f0"), get_split(5, 4))
        monkeypatch.setattr(ClassEvaluator, "zero_set", lambda self, name: CharacteristicSet(kind="empty"))
        problem = grid_disagreement({"g1": ev.zero_set("g1")}, ev.sweep(SMALL_GRID))
        assert problem is not None and problem.startswith("f0 g1 at (s, t) = (0.5, 0.5)")

    def test_first_disagreement_is_the_earliest_point_then_the_first_condition(
        self, get_split, get_f_structures
    ):
        ev = ClassEvaluator(structure_by_label(get_f_structures(5, 4), "f0"), get_split(5, 4))
        swept = ev.sweep(SMALL_GRID)
        sets = {name: ev.zero_set(name) for name in CONDITION_NAMES}
        assert grid_disagreement(sets, swept) is None
        early, late = (1.5, 0.5), (2.0, 2.0)  # f0 is in neither class there
        assert grid_points(SMALL_GRID).index(early) < grid_points(SMALL_GRID).index(late)
        # kill, first in condition order, is wrong only at the later point; nk only at the earlier one.
        sets["kill"] = replace(sets["kill"], points=sets["kill"].points + (late,))
        sets["nk"] = replace(sets["nk"], points=(early,))
        problem = grid_disagreement(sets, swept)
        assert problem.startswith("f0 nk at (s, t) = (1.5, 0.5): grid verdict member=False, exact zero set"), problem
        # Wrong at the same point, the condition that comes first in sets is named.
        sets["kill"] = replace(sets["kill"], points=sets["kill"].points + (early,))
        assert grid_disagreement(sets, swept).startswith("f0 kill at (s, t) = (1.5, 0.5)")
        reordered = {name: sets[name] for name in ("nk", "kill", "g1")}
        assert grid_disagreement(reordered, swept).startswith("f0 nk at (s, t) = (1.5, 0.5)")


def float_svd(ev: ClassEvaluator, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The singular values and right singular vectors of one condition's
    float (E, 4) matrix A alone, its rows gathered by a mask over the owners
    and weighed sqrt(2) off the diagonal, through A's R factor: the float
    oracle of the exact rank and rows."""
    span = ev._spans[name]
    mine = (ev._owner >= span.start) & (ev._owner < span.stop)
    i, j = ev._pairs[ev._owner[mine]].T
    a = (ev._values[:, mine] * np.where(i == j, 1.0, np.sqrt(2.0))).T
    return np.linalg.svd(np.linalg.qr(a, mode="r"))[1:]


FLOAT_RANK_FLOOR = 1e-9  # the oracle counts singular values above it: kept ones are about 1 or more, dropped <= 1e-12


def exact_rows(ev: ClassEvaluator, name: str) -> list[tuple[int, ...]]:
    """The reduced integer constraint rows of one condition of the evaluator."""
    return classify._reduced_rows(classify._grams([ev])[CONDITION_NAMES.index(name)].tolist())


def assert_rows_span(rows, sigma: np.ndarray, vt: np.ndarray, where) -> None:
    """The exact rows are as many as the float singular values above
    FLOAT_RANK_FLOOR, and they span the leading right singular vectors."""
    rank = int(np.sum(sigma > FLOAT_RANK_FLOOR))
    assert len(rows) == rank, where
    if rank:
        unit = np.array(rows, dtype=float)
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        assert np.linalg.matrix_rank(np.vstack([unit, vt[:rank]]), tol=1e-9) == rank, where


class TestStackedZeroSets:
    """zero_sets sums every condition's integer matrix in one pass and takes
    one stacked eigvalsh; each set must keep the bits of its evaluator's alone."""

    @pytest.mark.parametrize("k", [4, 6, 8])
    @pytest.mark.parametrize("n", [4, 5, 8, 12, 24])
    def test_one_pass_keeps_the_bits_of_each_set_alone(self, get_split, get_f_structures, n, k):
        reps = [cs for cs in get_f_structures(n, k) if not cs.label.startswith("-")]
        evs = classify.class_evaluators(reps, get_split(n, k))
        stacked = classify.zero_sets(evs)
        assert len(stacked) == len(evs)
        for ev, sets in zip(evs, stacked):
            assert list(sets) == list(CONDITION_NAMES)
            for name, zs in sets.items():
                alone = ev.zero_set(name)
                assert zs == alone and repr(zs) == repr(alone), (ev.structure.label, name)  # tells -0.0 from 0.0

    def test_no_evaluators(self):
        assert classify.zero_sets([]) == []

    def test_a_bracket_tensor_of_two_magnitudes_is_refused(self, get_split, get_f_structures):
        split = get_split(5, 4)
        i, j, r, v = split.bracket_nonzeros
        bent = replace(split, bracket_nonzeros=(i, j, r, np.where(np.arange(len(v)) == 0, 2.0 * v, v)))
        with pytest.raises(ValueError, match="more than one magnitude"):
            classify.class_evaluators(get_f_structures(5, 4), bent)


# ROADMAP item 1's table: the reduced rows of each sign pair, up to sign, for kill, nk and g1.
SIGN_PAIR_ROWS = {
    (1, 1): ([(1, 0, -6, 0), (0, 1, -1, 0), (0, 0, 0, 1)], [(0, 0, 0, 1)], []),
    (1, 0): ([(1, 0, 0, -2), (0, 1, 0, 0), (0, 0, 1, -1)], [], []),
    (0, 1): ([(1, 0, 0, 2), (0, 1, 0, 1), (0, 0, 1, 0)], [], []),
    (1, -1): ([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], [(1, 0, 0, 0)], []),
}
SIGN_PAIR_KINDS = {  # the zero sets the rows decode to, per condition
    (1, 1): ("points", "line", "all"),
    (1, 0): ("empty", "all", "all"),
    (0, 1): ("empty", "all", "all"),
    (1, -1): ("empty", "empty", "all"),
}


class TestEveryAcceptedFlagSpace:
    """Every m_blocks = 1 flag space the CLI accepts, n = 4..MAX_N at each even k."""

    @pytest.mark.parametrize("k", range(4, classify.MAX_K + 1, 2))
    def test_exact_rows_float_ranks_and_grams_linear_in_n(self, k):
        # Per structure and condition: the exact rows are item 1's rows of the sign pair, they decode
        # to its zero set's kind, the float SVD of A has their rank with a wide gap, and 8 A^T A is
        # (n - 3) times its value at n = 4.
        at_four = {}
        for n in range(4, classify.MAX_N + 1):
            ps = flagf.build_phi_space(flagf.build_automorphism(n, 1, k))
            evs = classify.class_evaluators(flagf.generate_f_structures(ps), flagf.build_split(ps))
            grams = classify._grams(evs).reshape(len(evs), 3, 4, 4)
            for ev, gram in zip(evs, grams):
                pair = tuple(ev.structure.sign_pair)
                pair = tuple(-x for x in pair) if next(x for x in pair if x) < 0 else pair
                for name, g, want, kind in zip(CONDITION_NAMES, gram, SIGN_PAIR_ROWS[pair], SIGN_PAIR_KINDS[pair]):
                    rows = classify._reduced_rows(g.tolist())
                    assert rows == want, (n, ev.structure.label, name)
                    assert decode_constraints(rows).kind == kind, (n, ev.structure.label, name)
                    sigma, vt = float_svd(ev, name)
                    assert_rows_span(rows, sigma, vt, (n, ev.structure.label, name))
                    assert sigma[: len(rows)].min(initial=np.inf) > 0.5  # 1 or more, to rounding
                    assert sigma[len(rows) :].max(initial=0.0) <= 1e-12
                four = at_four.setdefault(pair, gram) if n == 4 else at_four[pair]
                assert np.array_equal(gram, (n - 3) * four), (n, ev.structure.label)
        assert len(at_four) == (1 if k == 4 else 4)


def turned_basis(split: TripleSplit, rng) -> tuple[np.ndarray, np.ndarray]:
    """The dense bracket tensor of the split's basis with each block's rows
    turned by a random orthogonal matrix, and the (d, d) change of basis q
    from the split's rows to the turned ones; the block labels stay, since
    the blocks' rows stay in their order."""
    rows = [np.linalg.qr(rng.standard_normal((b.dim, b.dim)))[0] @ b.coords for b in split_blocks(split)]
    turned = dense_subspace(split.combined.ambient_n, np.vstack(rows))
    bm = scatter((split.dim,) * 3, *bracket_coords(turned, turned, onto=turned))
    return bm, turned.coords @ split.combined.coords.T


class TestBasisInvariance:
    """The class engine reads each f as the matrix of its sign pair, whose
    entries on the flag split are 0 and +-1.  The dense einsum reference,
    run on a basis whose block bases are turned, where f's entries are not
    integers and every product rounds, meets its verdicts and zero sets."""

    @pytest.mark.parametrize("k", [4, 6])
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_verdicts_and_zero_sets_ignore_the_basis_inside_each_block(self, get_split, get_f_structures, n, k):
        split = get_split(n, k)
        bm, q = turned_basis(split, np.random.default_rng(5))
        assert not np.allclose(q, np.eye(split.dim))
        grid = build_grid()
        c = u_channel_coefficients(grid).T
        for cs in get_f_structures(n, k):  # f and -f
            ev = ClassEvaluator(cs, split)
            assert set(np.unique(ev.f_matrix)) <= {-1.0, 0.0, 1.0}
            f = q @ ev.f_matrix @ q.T
            assert np.any(f != np.rint(f)), cs.label  # not integers: every product rounds
            swept = ev.sweep(grid)
            scale = 1.0 + grid.s + grid.t + 1.0 / grid.s + 1.0 / grid.t
            for name in CONDITION_NAMES:
                stack = np.array(condition_stacks(name, f, bm, split.block_index))
                pol = stack + stack.transpose(0, 2, 1, 3)
                cond = pol[0] + np.einsum("pc,cijr->pijr", c, pol[1:])
                dense = np.linalg.norm(cond, axis=3).max(axis=(1, 2)) / scale
                assert swept.memberships[name].tolist() == (dense < TAU_MEMBER).tolist(), (cs.label, name)
                want = (TAU_MEMBER <= dense) & (dense <= NONMEMBER_MARGIN)
                assert swept.indeterminate[name].tolist() == want.tolist(), (cs.label, name)
                sigma, vt = np.linalg.svd(pol.reshape(4, -1).T, full_matrices=False)[1:]
                assert_rows_span(exact_rows(ev, name), sigma, vt, (cs.label, name))


def kernel_rows(v) -> list[tuple[int, ...]]:
    """Three integer rows whose common kernel is spanned by the integer vector v."""
    p = next(x for x, w in enumerate(v) if w)
    return [tuple(v[x] if y == p else -v[p] if y == x else 0 for y in range(4)) for x in range(4) if x != p]


POINT_ROWS = kernel_rows((8, -6, -1, 8))  # 8 (1, c(2, 1/2)): c = (-3/4, -1/8, 1)


class TestDecodeConstraints:
    def test_no_constraint_is_all(self):
        assert decode_constraints([]).kind == "all"
        assert decode_constraints([(0, 0, 0, 0)] * 4).kind == "all"

    @pytest.mark.parametrize("row,axis", [((0, 0, 0, -2), "s"), ((0, 0, 3, 0), "t")])
    def test_axis_lines(self, row, axis):
        zs = decode_constraints([row, tuple(2 * x for x in row)])  # dependent rows reduce to one
        assert zs.kind == "line" and zs.lines == ((axis, 1.0),) and zs.rank == 1
        on = (1.0, 2.5) if axis == "s" else (2.5, 1.0)
        assert zs.contains(*on) and not zs.contains(2.5, 2.5)

    def test_point(self):
        zs = decode_constraints(POINT_ROWS)
        assert zs.kind == "points" and zs.rank == 3 and zs.points == ((2.0, 0.5),)
        assert zs.contains(2.0, 0.5) and not zs.contains(2.0, 0.6)

    def test_kill_point_is_exact(self):
        # ROADMAP item 1's kill rows of +-(1, 1): c = (1/6, 1/6, 0), that is s = 1 and t = 4/3.
        zs = decode_constraints([(1, 0, -6, 0), (0, 1, -1, 0), (0, 0, 0, 1)])
        assert zs.points == ((1.0, FOUR_THIRDS),) and repr(zs.points) == "((1.0, 1.3333333333333333),)"

    @pytest.mark.parametrize("v", [(10, 5, 3, -5), (2, 0, 1, 1)])
    def test_point_on_the_boundary_or_at_infinity_is_empty(self, v):
        # (1/2, 3/10, -1/2) inverts to s = 0, t = 1, the edge of the quadrant;
        # (0, 1/2, 1/2) is the limit of c(s, s) as s grows without bound.
        zs = decode_constraints(kernel_rows(v))
        assert zs.kind == "empty" and zs.rank == 3

    def test_a_point_near_infinity_is_a_point(self):
        # c(s, s) at s = 10^12 is (0, 1/2 - 1/(2 s), 1/2 - 1/(2 s)): c2 within 1e-12 of the limit 1/2.
        zs = decode_constraints(kernel_rows((2 * 10**12, 0, 10**12 - 1, 10**12 - 1)))
        assert zs.kind == "points" and zs.points == ((1e12, 1e12),)

    def test_point_with_inconsistent_third_channel_is_empty(self):
        assert decode_constraints(kernel_rows((8, -6, -1, 9))).kind == "empty"

    def test_constant_row_is_empty(self):
        zs = decode_constraints([(1, 0, 0, 0)])
        assert zs.kind == "empty" and not zs.contains(1.0, 1.0)
        assert decode_constraints(POINT_ROWS + [(0, 0, 0, 1)]).kind == "empty"  # rank 4

    @pytest.mark.parametrize(
        "rows,reduced",
        [
            ([(0, 2, 0, 0)], [(0, 1, 0, 0)]),  # c1 = 0: the diagonal t = s
            ([(1, 0, 0, -2)], [(1, 0, 0, -2)]),  # c3 = 1/2: a curve through no axis line
            ([(0, 0, 1, 1)], [(0, 0, 1, 1)]),  # c2 = -c3
            ([(0, 1, 0, 0), (0, 1, 1, -1)], [(0, 1, 0, 0), (0, 0, 1, -1)]),  # t = s and c2 = c3: the diagonal
            ([(1, 0, -6, 0), (0, 0, 0, 1)], [(1, 0, -6, 0), (0, 0, 0, 1)]),  # c3 = 0, c2 = 1/6: (1, 4/3) and no c1 row
        ],
    )
    def test_rows_of_no_point_or_line_shape_are_refused(self, rows, reduced):
        # Rank 1 and rank 2 rows that are neither an axis line nor empty are not solved: the shape
        # is read off the rows, and no accepted flag space gives such rows (TestEveryAcceptedFlagSpace).
        with pytest.raises(ValueError, match=re.escape(f"reduced rows {reduced}")):
            decode_constraints(rows)

    def test_rows_are_integers(self):
        with pytest.raises(TypeError):
            decode_constraints([(0.5, 0, 0, 0)])


def contains_both_forms(zs: CharacteristicSet, points) -> list[bool]:
    """zs.contains on arrays, checked against zs.contains point by point."""
    s, t = (np.array(col, dtype=float) for col in zip(*points))
    got = zs.contains(s, t)
    assert got.dtype == bool and got.shape == s.shape
    one_by_one = [zs.contains(a, b) for a, b in points]
    assert all(np.ndim(x) == 0 for x in one_by_one)
    assert got.tolist() == [bool(x) for x in one_by_one], zs
    return got.tolist()


class TestContainsOnArrays:
    BAND = (0.5, 0.99, 1.01, 2.0)  # offsets in units of the TAU_RANK band: inside, inside, outside, outside

    def test_all_and_empty(self):
        points = [(0.3, 2.0), (1.0, 1.0), (1e-6, 1e6)]
        assert contains_both_forms(decode_constraints([]), points) == [True] * 3
        assert contains_both_forms(decode_constraints([(1, 0, 0, 0)]), points) == [False] * 3

    @pytest.mark.parametrize("row,axis", [((0, 0, 0, -2), "s"), ((0, 0, 3, 0), "t")])
    def test_lines_at_the_edge_of_the_band(self, row, axis):
        zs = decode_constraints([row])
        assert zs.kind == "line" and zs.lines == ((axis, 1.0),)
        offsets = [sign * k * TAU_RANK for k in self.BAND for sign in (1, -1)]
        points = [(1.0 + o, 2.5) if axis == "s" else (2.5, 1.0 + o) for o in offsets] + [(2.5, 2.5)]
        assert contains_both_forms(zs, points) == [True] * 4 + [False] * 5

    def test_point_at_the_edge_of_the_band(self):
        zs = decode_constraints(POINT_ROWS)
        (ps, pt), = zs.points
        points = []
        for k in self.BAND:
            points += [(ps + k * TAU_RANK * ps, pt), (ps, pt - k * TAU_RANK)]  # the bands are 2e-9 and 1e-9 wide
        assert contains_both_forms(zs, points) == [True] * 4 + [False] * 4


class TestGridBuilder:
    def test_default_spacing(self):
        grid = build_grid()
        svals = sorted(set(grid.s.tolist()))
        assert svals[:3] == [0.25, 0.5, 0.75]
        assert svals[-1] == 3.0

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError, match="step"):
            build_grid(step=0.0)

    def test_nonpositive_min_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            build_grid(gmin=-1.0)

    def test_size_limit_is_exact(self):
        # 316^2 grid points plus extra points off the grid, up to the limit.
        extras = tuple((0.5, 0.5 + i) for i in range(MAX_GRID_POINTS - 316**2 + 1))
        assert len(build_grid(1.0, 316.0, 1.0, extras=extras[:-1]).s) == MAX_GRID_POINTS
        with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
            build_grid(1.0, 316.0, 1.0, extras=extras)
        with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
            build_grid(1.0, 317.0, 1.0, extras=())


def linear_scan_grid(gmin, gmax, step, extras):
    """build_grid's points as a list, the extras deduplicated as it once did
    it: each extra as a float pair, appended unless a linear scan of the
    whole list finds it."""
    count = int(max(0.0, np.floor((gmax - gmin) / step + 1e-9) + 1))
    vals = [gmin + i * step for i in range(count)]
    pts = [(s, t) for s in vals for t in vals]
    for p in extras:
        p = (float(p[0]), float(p[1]))
        if p not in pts:
            pts.append(p)
    return pts


class TestBuildGridExtras:
    def test_a_list_typed_point_on_the_grid_is_not_added_twice(self):
        grid = build_grid(extras=[[0.25, 0.25]])
        assert grid_points(grid).count((0.25, 0.25)) == 1
        assert grid_points(grid) == grid_points(build_grid(extras=()))

    def test_on_grid_and_repeated_extras_are_dropped_in_order(self):
        # On the grid: both coordinates are axis values; (0.5, 0.3) has one only, and stays.
        extras = [(1, 1), [0.3, 2.0], (np.float64(0.3), 2), (5.0, 0.1), (1.0, 1.0), np.array([5.0, 0.1]),
                  [0.5, 2.0], (0.5, 0.3), (0.3, 2.0)]
        grid = build_grid(0.5, 2.0, 0.5, extras=extras, kappa=3.0)
        assert grid_points(grid)[16:] == [(0.3, 2.0), (5.0, 0.1), (0.5, 0.3)]
        assert grid_points(grid) == linear_scan_grid(0.5, 2.0, 0.5, extras)
        assert grid.s.dtype == grid.t.dtype == float and grid.kappa == 3.0
        assert grid.s.flags.c_contiguous and grid.t.flags.c_contiguous

    def test_an_axis_value_rounding_to_its_neighbour_comes_once(self):
        # At 1e16 the floats are 2 apart: 1e16 + 1 and 1e16 + 3 round to 1e16 and 1e16 + 4.
        grid = build_grid(1e16, 1e16 + 4, 1.0, extras=((1e16 + 2, 1e16), (1e16 + 1, 5.0)))
        vals = [1e16, 1e16 + 2, 1e16 + 4]
        assert grid_points(grid) == [(s, t) for s in vals for t in vals] + [(1e16, 5.0)]
        assert grid_points(grid) == list(dict.fromkeys(linear_scan_grid(1e16, 1e16 + 4, 1.0, [(1e16 + 2, 1e16), (1e16 + 1, 5.0)])))

    def test_the_near_limit_grid_matches_the_linear_scan_fast(self):
        import time

        # The special points: (1, 1) lies on the grid, (1, 4/3) does not.
        grid = build_grid(0.01, 3.15, 0.01)
        assert len(grid.s) == 99_226 and grid_points(grid) == linear_scan_grid(0.01, 3.15, 0.01, SPECIAL_POINTS)
        extras = [(0.005 + 0.031 * i, 3.2 - 0.029 * i) for i in range(96)] + [(0.01, 0.01), (1.0, 1.0), (3.15, 0.02), (0.5, 0.5)]
        want = linear_scan_grid(0.01, 3.15, 0.01, extras)  # 0.4 s
        best = np.inf
        for _ in range(3):
            start = time.perf_counter()
            got = build_grid(0.01, 3.15, 0.01, extras=extras)
            best = min(best, time.perf_counter() - start)
        assert grid_points(got) == want and len(got.s) == 315**2 + 96
        assert best < 0.1
