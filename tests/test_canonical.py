import dataclasses
import itertools

import numpy as np
import pytest
import generation_reference
import structure_checks_reference as reference
from generation_reference import poly_in
from paper_coefficients import REFERENCE_F_COEFFS, REFERENCE_P_COEFFS

import flagf
from flagf import canonical, liealg, phispace
from flagf.canonical import (
    CanonicalStructure,
    expected_flag_action,
    f_polynomial,
    golden_action_check,
    negation_residual,
    p_polynomial,
    structure_by_label,
    u_of_k,
    verify_structures,
)
from flagf.liealg import brackets, lie_mats, lie_rows
from flagf.tolerances import TAU_GOLDEN, TAU_STRUCTURE
from space_reference import apply_on, kernel_and_image, relative_residuals, split_blocks

# m_blocks 1-3 with k = 4..12; n = 2 m_blocks + 1 has no angle pi once m_blocks >= 2.
SIGN_GRID = [
    (n, m_blocks, k)
    for m_blocks, ns in ((1, (4, 5)), (2, (5, 6)), (3, (7, 8)))
    for n in ns
    for k in (4, 6, 8, 10, 12)
]
SAME_OP = 1e-8  # the reference route's bound on max |entry| of the difference of two operators


def reference_structures(ps, product, powers):
    """The structures by brute force, as (label, signature, polynomial, kind, op):
    every zeta (xi) evaluated as a d x d polynomial in theta on the power stack
    ``powers``, duplicates and the zero operator dropped by pairwise comparison,
    labels matched against the paper's coefficients, almost-complex read off the
    smallest singular value."""
    k, d = ps.spec.k, ps.m.dim
    width = k // 2 if product else u_of_k(k)
    kept = []
    for sig in itertools.product((-1, 1) if product else (-1, 0, 1), repeat=width):
        poly = (p_polynomial if product else f_polynomial)(k, sig)
        op = poly_in(ps.theta, poly, powers)
        if np.max(np.abs(op)) < SAME_OP or any(np.max(np.abs(op - o)) < SAME_OP for _, _, o in kept):
            continue
        kept.append((sig, poly, op))

    table = (REFERENCE_P_COEFFS if product else REFERENCE_F_COEFFS).get(k, {})
    ref_ops = {name: poly_in(ps.theta, coeffs) for name, coeffs in table.items()}
    out, fresh = [], 0
    for sig, poly, op in kept:
        label = None
        for name, rm in ref_ops.items():
            if np.max(np.abs(op - rm)) < SAME_OP:
                label = name
            elif np.max(np.abs(op + rm)) < SAME_OP:
                label = "-" + name
            if label:
                break
        if label is None and product:
            if np.max(np.abs(op - np.eye(d))) < SAME_OP:
                label = "I"
            elif np.max(np.abs(op + np.eye(d))) < SAME_OP:
                label = "-I"
        if label is None:
            for prev in out:
                if np.max(np.abs(op + prev[4])) < SAME_OP:
                    label = prev[0][1:] if prev[0].startswith("-") else "-" + prev[0]
                    break
        if label is None:
            fresh += 1
            label = f"{'P' if product else 'f'}{fresh}"
        if product:
            kind = "almost-product"
        else:
            kind = "almost-complex" if np.linalg.svd(op, compute_uv=False)[-1] > 0.5 else "f-structure"
        out.append((label, tuple(sig), tuple(float(c) for c in poly), kind, op))
    return out


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


class TestSignKeys:
    @pytest.mark.parametrize("n,m_blocks,k", SIGN_GRID)
    def test_bitwise_equal_to_the_brute_force_route(self, get_space, n, m_blocks, k):
        # On theta's powers as generation takes them, block by block: the dense powers
        # round otherwise at some blocks of 4 (TestStackedGeneration).
        ps = get_space(n, k, m_blocks)
        powers = generation_reference.block_powers(ps)
        for product, generate in ((False, flagf.generate_f_structures), (True, flagf.generate_product_structures)):
            got = [
                (cs.label, cs.signature, cs.theta_polynomial, cs.kind, cs.matrix.tobytes())
                for cs in generate(ps)
            ]
            want = [(*rest, op.tobytes()) for *rest, op in reference_structures(ps, product, powers)]
            assert got == want

    def test_almost_complex_where_theta_has_no_angle_pi(self, get_space):
        # Angles {1, 2, 3} at k = 8: the 2^3 keys without a zero give trivial kernels.
        fs = flagf.generate_f_structures(get_space(5, 8, 2))
        assert len(fs) == 3**3 - 1
        assert sum(cs.kind == "almost-complex" for cs in fs) == 8

    def test_cost_guard_one_polynomial_per_structure(self, get_space, monkeypatch):
        # Enumerating every zeta would evaluate 3^7 - 1 = 2186 polynomials in theta.  Generation
        # evaluates one stack of polynomials, a row per sign key.
        ps = get_space(12, 16)
        rows = []

        def counting_f_polynomial(k, zeta):
            rows.append(np.shape(zeta)[0])
            return f_polynomial(k, zeta)

        monkeypatch.setattr(canonical, "f_polynomial", counting_f_polynomial)
        fs = canonical.generate_f_structures(ps)
        assert rows == [len(fs)] and len(fs) == 8

    def test_cost_guard_theta_powers_once_on_its_blocks(self, monkeypatch):
        # The space's order check, generation and verify's reconstruction check share theta's
        # powers, taken once per space on each block stack: no dense (d, d) power is formed.
        shapes, op_powers = [], liealg.op_powers

        def counting_op_powers(op, count):
            shapes.append((count, op.shape))
            return op_powers(op, count)

        monkeypatch.setattr(phispace, "op_powers", counting_op_powers)
        ps = flagf.build_phi_space(flagf.build_automorphism(12, 2, 16))
        sizes = [mats.shape for _, mats in ps.theta_blocks]
        structures = canonical.generate_f_structures(ps) + canonical.generate_product_structures(ps)
        assert len(structures) > 100
        for chk in verify_structures(structures[:: len(structures) // 10], ps):
            assert chk.polynomial_residual < 1e-10
        assert sizes == [(7, 1, 1), (16, 2, 2), (1, 4, 4)]
        assert shapes == [(16, shape) for shape in sizes]


# The dense powers of theta against its block powers: both sum the same nonzero products, at most
# 4 per entry, in another order at some blocks of 4; a generated entry sums at most k = 16 terms
# c_m (theta^m)_ij with sum_m |c_m| < 4, so the two generated operators differ by a few eps.
DENSE_POWERS_ROUNDING = 8 * np.finfo(float).eps


class TestStackedGeneration:
    """The generation on theta's blocks against the per-structure dense one it
    replaced (tests/generation_reference.py)."""

    @pytest.mark.parametrize(
        "n,m_blocks,k",
        [(5, 1, 4), (8, 1, 6), (12, 1, 6), (20, 1, 16), (40, 1, 14), (9, 2, 8), (7, 2, 6), (10, 2, 14),
         (7, 3, 10), (9, 3, 12), (9, 4, 16), (12, 4, 14)],
    )
    def test_matrix_is_the_dense_generation(self, get_space, n, m_blocks, k):
        # Bit for bit at m_blocks = 1, where theta's blocks (of 1 and 2) keep the dense powers'
        # bits.  At a block of 4 the powers may round otherwise (at (7, 2, 6), (7, 3, 10) and
        # (10, 2, 14) here): there the dense generation on the block powers has the bits, and
        # the one on the dense powers is within their rounding.
        ps = get_space(n, k, m_blocks)
        for product, generate in ((False, flagf.generate_f_structures), (True, flagf.generate_product_structures)):
            got = generate(ps)
            dense = generation_reference.structures_one_at_a_time(ps, product)
            on_blocks = generation_reference.structures_one_at_a_time(ps, product, generation_reference.block_powers(ps))
            assert len(got) == len(dense) == len(on_blocks) > 0
            for a, b, c in zip(got, dense, on_blocks):
                assert (a.kind, a.label, a.signature, a.theta_polynomial) == b[:4] == c[:4]
                assert a.matrix.shape == (ps.m.dim,) * 2 and not a.matrix.flags.writeable
                assert a.matrix.tobytes() == c[4].tobytes(), (n, m_blocks, k, a.label)
                if m_blocks == 1:
                    assert a.matrix.tobytes() == b[4].tobytes(), (n, k, a.label)
                assert np.max(np.abs(a.matrix - b[4])) <= DENSE_POWERS_ROUNDING, (n, m_blocks, k, a.label)

    @pytest.mark.parametrize("n,m_blocks,k", [(5, 1, 6), (9, 2, 8), (12, 4, 16)])
    def test_blocks_are_the_matrix_on_theta_blocks(self, get_space, n, m_blocks, k):
        # Each structure holds the rows of theta's blocks and read-only block stacks; its matrix
        # is those blocks scattered, built once, and 0 off them.
        ps = get_space(n, k, m_blocks)
        for cs in flagf.generate_f_structures(ps) + flagf.generate_product_structures(ps):
            assert all(a is b for (a, _), (b, _) in zip(cs.blocks, ps.theta_blocks, strict=True))
            assert all(not mats.flags.writeable for _, mats in cs.blocks)
            assert cs.matrix is cs.matrix
            assert all(a.tobytes() == b.tobytes() for (_, a), (_, b) in zip(cs.blocks, reference.on_theta_blocks(ps.theta_blocks, cs.matrix)))

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 8, 10, 12, 16])
    def test_polynomial_stacks_equal_their_rows_bitwise(self, k):
        rng = np.random.default_rng(k)
        zeta = rng.integers(-1, 2, (40, u_of_k(k)))
        xi = rng.choice([-1, 1], (40, k // 2))
        for stack, one, sigs in (
            (f_polynomial, generation_reference.f_polynomial, zeta),
            (p_polynomial, generation_reference.p_polynomial, xi),
        ):
            got = stack(k, sigs)
            assert got.shape == (len(sigs), k)
            for row, sig in zip(got, sigs.tolist()):
                assert row.tobytes() == one(k, tuple(sig)).tobytes()
                assert stack(k, tuple(sig)).tobytes() == row.tobytes()

    def test_a_violated_identity_raises_as_before(self, get_space):
        # theta of the wrong order: the formulas no longer give f^3 = -f.
        ps = get_space(5, 6)
        bad = flagf.PhiSpace(ps.spec, ps.h, ps.m, 1.01 * ps.theta)
        for product in (False, True):
            with pytest.raises(RuntimeError, match="violates its identity") as got:
                canonical._structures(bad, product)
            with pytest.raises(RuntimeError, match="violates its identity") as want:
                generation_reference.structures_one_at_a_time(bad, product)
            residual = [float(str(e.value).rsplit("(", 1)[1].rstrip(")")) for e in (got, want)]
            assert residual[0] == pytest.approx(residual[1], rel=1e-6)  # the first structure that fails, in both


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
        np.testing.assert_allclose(p0.matrix, np.linalg.matrix_power(ps.theta, 2), atol=1e-12)
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
            want = poly_in(ps.theta, coeffs)
            got = structure_by_label(prods, label).matrix
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_p1_is_minus_identity(self, get_products):
        p1 = structure_by_label(get_products(5, 6), "P1")
        np.testing.assert_allclose(p1.matrix, -np.eye(8), atol=1e-12)

    def test_p3_is_theta_cubed(self, get_space, get_products):
        ps = get_space(6, 6)
        p3 = structure_by_label(flagf.generate_product_structures(ps), "P3")
        np.testing.assert_allclose(p3.matrix, np.linalg.matrix_power(ps.theta, 3), atol=1e-12)


class TestStructureIdentities:
    @pytest.mark.parametrize("n,k", [(4, 4), (5, 4), (5, 6), (6, 6), (5, 8)])
    def test_defining_identities(self, get_space, n, k):
        ps = get_space(n, k)
        d = ps.m.dim
        for cs in flagf.generate_f_structures(ps):
            f = cs.matrix
            assert np.max(np.abs(f @ f @ f + f)) < 1e-10
        for cs in flagf.generate_product_structures(ps):
            p = cs.matrix
            assert np.max(np.abs(p @ p - np.eye(d))) < 1e-10

    def test_negation_closure(self, get_f_structures, get_products):
        for family in (get_f_structures(5, 6), get_products(5, 6)):
            for cs in family:
                assert any(
                    np.max(np.abs(cs.matrix + other.matrix)) < 1e-10 for other in family
                )

    def test_all_structures_commute(self, get_space):
        ps = get_space(5, 6)
        everything = flagf.generate_f_structures(ps) + flagf.generate_product_structures(ps)
        for a in everything:
            for b in everything:
                comm = a.matrix @ b.matrix - b.matrix @ a.matrix
                assert np.max(np.abs(comm)) < 1e-10

    def test_verify_structure_residuals(self, get_space):
        ps = get_space(6, 6)
        everything = flagf.generate_f_structures(ps) + flagf.generate_product_structures(ps)
        checks = verify_structures(everything, ps)
        assert [chk.label for chk in checks] == [cs.label for cs in everything]
        for chk in checks:
            assert max(v for k, v in vars(chk).items() if k != "label") < 1e-10, chk

    @pytest.mark.parametrize("n,m_blocks,k", [(5, 1, 4), (8, 1, 6), (16, 1, 6), (7, 2, 6), (9, 3, 4)])
    def test_ad_invariance_matches_dense_commutator(self, get_space, n, m_blocks, k):
        # At m_blocks = 1 every ad(h_a) has one nonzero per row and column, so
        # each entry of A f - f A is one product minus one product: the join
        # has the bits of the dense route.  Otherwise the sums are reordered.
        # verify's ad_invariance bounds the dense commutator, up to its rounding.
        ps = get_space(n, k, m_blocks)
        ad = dense_ad_h(ps)
        fs = flagf.generate_f_structures(ps)
        for cs, chk in zip(fs, verify_structures(fs, ps)):
            f = cs.matrix
            dense = float(np.max(np.abs(ad @ f - f @ ad)))
            joined = reference.ad_commutator(f, ps)
            if m_blocks == 1:
                assert joined == dense, cs.label
            else:
                assert abs(joined - dense) <= 1e-15, cs.label
            assert dense <= chk.ad_invariance + AD_REFERENCE_ROUNDING, cs.label
        th = ps.theta
        assert canonical._ad_commutator(th, ps) == reference.ad_commutator(th, ps)

    def test_cost_guard_verify_structure(self, get_space, get_f_structures):
        # The dense commutator would allocate (dim h, d, d) temporaries.
        import tracemalloc

        ps = get_space(16, 6)
        fs = get_f_structures(16, 6)
        f4 = structure_by_label(fs, "f4")
        verify_structures([f4], ps)
        tracemalloc.start()
        try:
            verify_structures([f4], ps)
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
            blocks=reference.on_theta_blocks(ps.theta_blocks, ps.theta),
        )
        (chk,) = verify_structures([fake], ps)
        assert chk.defining_residual > 0.5

    def test_no_almost_complex_structures_here(self, get_f_structures):
        # Every canonical f-structure on these spaces kills at least m3.
        for cs in get_f_structures(5, 6) + get_f_structures(5, 4):
            assert cs.kind == "f-structure"


# The fields measured structure by structure, as the reference measures them; pairwise_commutation and
# ad_invariance are bounds built from them and from polynomial_residual.
CHECK_FIELDS = ("defining_residual", "theta_commutation")
MEASURED_FIELDS = CHECK_FIELDS + ("polynomial_residual",)
ALL_MEASURED = MEASURED_FIELDS + ("ad_invariance",)  # every field that is a structure's own


def check_bits(checks, fields=CHECK_FIELDS):
    """Each check's label and the bytes of each named residual; every field must be a float."""
    out = []
    for chk in checks:
        assert all(type(v) is float for v in dataclasses.astuple(chk)[1:]), chk
        out.append((chk.label, *(np.float64(getattr(chk, name)).tobytes() for name in fields)))
    return out


def worst_pairwise(checks):
    return max(chk.pairwise_commutation for chk in checks)


# The pairwise bound holds for exact products; a product of O(1) matrices rounds to about this.
ROUNDING = np.finfo(float).eps
# verify multiplies the blocks out elementwise, the reference the dense matrices with BLAS: both sum the
# same nonzero products, at most 4 per entry and step and at most two steps, of entries |f| <= 1, in
# their own orders, so a measured defining or theta-commutation residual differs by a few eps.
MEASURE_ROUNDING = 16 * ROUNDING
# verify sums sum_m c_m theta^m on the block powers, the reference on the dense ones, both term by term:
# each entry of either is a float sum of at most k <= MAX_K = 16 products c_m (theta^m)_ij, off the exact
# sum by at most 16 (eps / 2) sum_m |c_m| <= 32 eps (|theta^m|_ij <= 1 and sum_m |c_m| < 4 on every space
# tested), so the two reconstruction residuals differ by at most 64 eps.
RECONSTRUCTION_ROUNDING = 64 * ROUNDING
# ad_invariance bounds [A, F] for F = sum_m c_m theta^m + E exactly, E = F minus the exact sum, and verify
# measures E against its sum, off the exact sum by at most 32 eps (above), which ad(h) scales by at most
# N_A = sqrt(2) to 46 eps; each entry of the reference's own join of ad(h) with F rounds by a few eps more.
AD_REFERENCE_ROUNDING = 64 * ROUNDING


def assert_measured_as_reference(got, want):
    """Each check's measured fields are the reference's, within the rounding of the two routes."""
    assert [chk.label for chk in got] == [ref.label for ref in want]
    for chk, ref in zip(got, want):
        assert all(type(v) is float for v in dataclasses.astuple(chk)[1:]), chk
        for name in CHECK_FIELDS:
            assert abs(getattr(chk, name) - getattr(ref, name)) <= MEASURE_ROUNDING, (chk.label, name)
        assert abs(chk.polynomial_residual - ref.polynomial_residual) <= RECONSTRUCTION_ROUNDING, chk.label


def non_equivariant_fake(ps):
    """An f-structure-shaped operator that keeps one basis direction of m1,
    which ad(h) rotates: not ad(h)-invariant, not a polynomial in theta."""
    proj = np.zeros((ps.m.dim, ps.m.dim))
    proj[0, 0] = 1.0
    return CanonicalStructure("f-structure", "fake", (), (0.0,) * ps.spec.k, reference.on_theta_blocks(ps.theta_blocks, proj))


class TestStackedStructureChecks:
    @pytest.mark.parametrize(
        "n,m_blocks,k", [(5, 1, 4), (5, 1, 6), (8, 1, 6), (12, 1, 6), (16, 1, 6), (7, 2, 6), (9, 2, 8)]
    )
    def test_measured_fields_are_the_per_structure_route(self, get_space, n, m_blocks, k):
        # The pairwise bound is at least the largest commutator the reference multiplies out,
        # up to rounding: the f-structures alone read 0 where their products round to 1e-32.
        # The ad(h) bound is at least each structure's join, up to the reference's rounding.
        ps = get_space(n, k, m_blocks)
        fs = flagf.generate_f_structures(ps)
        everything = fs + flagf.generate_product_structures(ps)
        for family in (everything, fs):  # verify checks both families together, sweep the f-structures
            got = verify_structures(family, ps)
            want = [reference.verify_structure(cs, ps, others=family) for cs in family]
            assert_measured_as_reference(got, want)
            assert worst_pairwise(want) <= worst_pairwise(got) + ROUNDING
            assert worst_pairwise(got) < TAU_STRUCTURE
            for chk, ref in zip(got, want):
                assert ref.ad_invariance <= chk.ad_invariance + AD_REFERENCE_ROUNDING, chk.label
                assert chk.ad_invariance < TAU_STRUCTURE, chk.label

    @pytest.mark.parametrize(
        "n,m_blocks,k",
        [(5, 1, 6), (16, 1, 16), (24, 1, 6), (7, 2, 6), (9, 3, 4), (9, 4, 6), (11, 4, 6), (12, 3, 8), (9, 4, 16)],
    )
    def test_ad_bound_covers_every_join(self, get_space, n, m_blocks, k):
        # Structure by structure, against the join of ad(h) with that structure alone;
        # the bound reads exactly 0 where theta commutes with ad(h) and F is its polynomial.
        ps = get_space(n, k, m_blocks)
        family = flagf.generate_f_structures(ps) + flagf.generate_product_structures(ps)
        got = verify_structures(family, ps)
        want = [reference.verify_structure(cs, ps) for cs in family]
        assert_measured_as_reference(got, want)
        theta_commutes = canonical._ad_commutator(ps.theta, ps) == 0.0
        for chk, ref in zip(got, want):
            assert ref.ad_invariance <= chk.ad_invariance + AD_REFERENCE_ROUNDING < TAU_STRUCTURE, chk.label
            if theta_commutes and chk.polynomial_residual == 0.0:
                assert chk.ad_invariance == 0.0, chk.label

    def test_the_norm_term_is_reached_by_a_rank_one_fake(self, get_space):
        # At m_blocks = 1 each ad(h_a) has one nonzero per row and column, of modulus 1/sqrt(2).
        # For its nonzero (x, z, v), E = (e_x - e_z)(e_x + e_z)^T has max |E| = 1 and
        # [A_a, E]_xz = -2 v: the join reaches N_A r_F = |A_a|_inf + |A_a|_1, so that term is tight.
        ps = get_space(6, 6)
        a, x, z, v = ps.ad_h_nonzeros
        u, w = np.zeros(ps.m.dim), np.zeros(ps.m.dim)
        u[x[0]], u[z[0]], w[x[0]], w[z[0]] = 1.0, -1.0, 1.0, 1.0
        fake = dataclasses.replace(non_equivariant_fake(ps), blocks=reference.on_theta_blocks(ps.theta_blocks, np.outer(u, w)))
        (chk,) = verify_structures([fake], ps)
        joined = reference.ad_commutator(fake.matrix, ps)
        assert chk.polynomial_residual == 1.0 and joined == 2 * abs(v[0])
        assert joined <= chk.ad_invariance <= joined + AD_REFERENCE_ROUNDING

    def test_a_theta_that_does_not_commute_with_ad_h_fails_the_bound(self, get_space):
        # theta conjugated by a rotation of two basis directions of m keeps its order and its
        # polynomials keep their identities, but no longer commutes with ad(h): only the
        # ad(h) bound can see it, and it must, as the join of each structure does.
        ps = get_space(6, 6)
        d = ps.m.dim
        q = np.eye(d)
        q[0, 0] = q[d - 1, d - 1] = np.cos(0.3)
        q[0, d - 1], q[d - 1, 0] = -np.sin(0.3), np.sin(0.3)
        bent = dataclasses.replace(ps, theta=q @ ps.theta @ q.T)
        family = flagf.generate_f_structures(bent) + flagf.generate_product_structures(bent)
        got = verify_structures(family, bent)
        want = [reference.verify_structure(cs, bent) for cs in family]
        for chk in got:
            assert max(getattr(chk, name) for name in MEASURED_FIELDS) < TAU_STRUCTURE, chk.label
        assert max(ref.ad_invariance for ref in want) > 1e-3
        assert all(ref.ad_invariance <= chk.ad_invariance for chk, ref in zip(got, want))
        assert min(chk.ad_invariance for chk in got) > 1e-3

    def test_cost_guard_no_dense_stack(self, get_space):
        # verify_structures works on one block size at a time: its peak is a few stacks of the
        # structures' blocks (3.7 times all their blocks here, S = 2314, d = 32), far below one
        # (S, d, d) stack.
        import tracemalloc

        ps = get_space(9, 16, 4)
        family = flagf.generate_f_structures(ps) + flagf.generate_product_structures(ps)
        verify_structures(family, ps)
        tracemalloc.start()
        try:
            verify_structures(family, ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        blocks = len(family) * sum(mats.size for _, mats in ps.theta_blocks) * 8
        assert len(family) == 2314 and peak < 5 * blocks < len(family) * ps.m.dim**2 * 8 / 1.5

    @pytest.mark.parametrize("n,m_blocks,k", [(5, 1, 6), (9, 2, 8), (12, 3, 8)])
    def test_pairwise_bound_covers_every_measured_commutator(self, get_space, n, m_blocks, k):
        # Structure by structure the bound holds up to the rounding of the products:
        # where theta-commutation and reconstruction read 0 it reads 0, a product ~1e-16.
        ps = get_space(n, k, m_blocks)
        family = flagf.generate_f_structures(ps) + flagf.generate_product_structures(ps)
        got = verify_structures(family, ps)
        want = [reference.verify_structure(cs, ps, others=family) for cs in family]
        assert worst_pairwise(want) <= worst_pairwise(got) < TAU_STRUCTURE
        for chk, ref in zip(got, want):
            assert ref.pairwise_commutation <= chk.pairwise_commutation + ROUNDING, chk.label

    def test_a_structure_that_does_not_commute_with_theta_fails_pairwise(self, get_space):
        ps = get_space(6, 6)
        family = flagf.generate_f_structures(ps) + flagf.generate_product_structures(ps)
        # f1 plus a multiple of a matrix unit: its polynomial still claims to be f1.
        f1 = structure_by_label(family, "f1")
        bent = np.array(f1.matrix)
        bent[0, 1] += 1e-6  # inside m1's block of theta
        stack = family + [dataclasses.replace(f1, label="bent", blocks=reference.on_theta_blocks(f1.blocks, bent))]
        got = verify_structures(stack, ps)
        want = [reference.verify_structure(cs, ps, others=stack) for cs in stack]
        assert worst_pairwise(want) > TAU_STRUCTURE
        assert worst_pairwise(want) <= worst_pairwise(got)
        assert got[-1].theta_commutation > TAU_STRUCTURE

    def test_a_non_equivariant_fake_is_flagged_at_its_own_index_only(self, get_space):
        ps = get_space(6, 6)
        everything = flagf.generate_f_structures(ps) + flagf.generate_product_structures(ps)
        at = len(everything) // 2
        stack = everything[:at] + [non_equivariant_fake(ps)] + everything[at:]
        checks = verify_structures(stack, ps)
        want = [reference.verify_structure(cs, ps, others=stack) for cs in stack]
        assert_measured_as_reference(checks, want)
        assert all(r.pairwise_commutation <= c.pairwise_commutation for c, r in zip(checks, want))
        assert all(r.ad_invariance <= c.ad_invariance + AD_REFERENCE_ROUNDING for c, r in zip(checks, want))
        flagged = [i for i, chk in enumerate(checks) if chk.ad_invariance > 1e-3]
        assert flagged == [at] and want[at].ad_invariance > 1e-3
        assert checks[at].polynomial_residual == 1.0 and checks[at].pairwise_commutation > 1e-3
        # Every other structure keeps its own residuals and ad(h) bound; only its commutator with the fake is new.
        alone = verify_structures(everything, ps)
        assert check_bits(checks[:at] + checks[at + 1 :], ALL_MEASURED) == check_bits(alone, ALL_MEASURED)

    def test_empty_list(self, get_space):
        assert verify_structures([], get_space(5, 6)) == []

    @pytest.mark.parametrize("k", range(4, 17, 2))
    def test_a_structure_reads_its_own_residuals(self, get_space, k):
        # Every measured field is the structure's own, summed in a fixed order on its blocks: checked
        # alone, a structure reads the bits it reads inside the whole list, and -f reads f's bits
        # wherever its polynomial is the exact negation of f's.  That is every pair at k = 4 and 6.
        # From k = 8 on, theta has no angle 2 pi l / k for some l <= k/2 - 2, a signature holds -1
        # there for f and -f alike, and their polynomials are negations only up to rounding.
        exact = 0
        for n in [*range(4, 25), 40]:
            ps = get_space(n, k)
            family = flagf.generate_f_structures(ps) + flagf.generate_product_structures(ps)
            bits = check_bits(verify_structures(family, ps), ALL_MEASURED)
            assert [check_bits(verify_structures([cs], ps), ALL_MEASURED)[0] for cs in family] == bits, n
            by_label = {cs.label: (cs, chk[1:]) for cs, chk in zip(family, bits)}
            for label, (cs, got) in by_label.items():
                f, want = by_label[label[1:] if label.startswith("-") else "-" + label]
                if cs.theta_polynomial == tuple(-c for c in f.theta_polynomial):
                    assert got == want, (n, label)
                    exact += 1
        assert exact == (22 * len(family) if k in (4, 6) else 0)

    def test_cost_guard_no_pairwise_products(self, get_space, get_f_structures, get_products):
        # The checks take O(S) products of d x d matrices; gathering all
        # S (S - 1) / 2 pairs at once peaks at about 30 S d^2 doubles here.
        import tracemalloc

        ps = get_space(24, 6)
        everything = get_f_structures(24, 6) + get_products(24, 6)
        verify_structures(everything, ps)
        tracemalloc.start()
        try:
            verify_structures(everything, ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(everything) == 16
        assert peak < 12 * len(everything) * ps.m.dim**2 * 8


class TestNegationClosure:
    """Each structure is paired with the one labelled as its negative."""

    @staticmethod
    def any_negative(family):
        """The O(S^2) route verify took before: every matrix has some negative in the family."""
        mats = np.array([cs.matrix for cs in family])
        return all(np.any(np.max(np.abs(mats + m), axis=(1, 2)) < TAU_STRUCTURE) for m in mats)

    @pytest.mark.parametrize("n,m_blocks,k", [(5, 1, 4), (5, 1, 6), (9, 2, 8), (9, 3, 8)])
    def test_families_are_closed(self, get_space, n, m_blocks, k):
        ps = get_space(n, k, m_blocks)
        for family in (flagf.generate_f_structures(ps), flagf.generate_product_structures(ps)):
            assert negation_residual(family) < TAU_STRUCTURE
            assert self.any_negative(family)

    def test_a_perturbed_negative_fails(self, get_space):
        family = flagf.generate_f_structures(get_space(5, 6))
        at = [cs.label for cs in family].index("-f2")
        bent = np.array(family[at].matrix)
        bent[0, 0] += 1e-6
        family[at] = dataclasses.replace(family[at], blocks=reference.on_theta_blocks(family[at].blocks, bent))
        assert negation_residual(family) > TAU_STRUCTURE
        assert not self.any_negative(family)

    @pytest.mark.parametrize("n,m_blocks,k", [(5, 1, 6), (12, 1, 6), (24, 1, 4), (9, 2, 8), (9, 3, 8)])
    def test_stacked_maximum_equals_the_per_label_loop(self, get_space, n, m_blocks, k):
        ps = get_space(n, k, m_blocks)
        for family in (flagf.generate_f_structures(ps), flagf.generate_product_structures(ps)):
            assert negation_residual(family).hex() == reference.negation_residual_loop(family).hex()
            bent = np.array(family[-1].matrix)
            bent[-1, -1] += 3e-12
            family[-1] = dataclasses.replace(family[-1], blocks=reference.on_theta_blocks(family[-1].blocks, bent))
            assert negation_residual(family).hex() == reference.negation_residual_loop(family).hex()
            assert negation_residual(family[1:]) == reference.negation_residual_loop(family[1:]) == np.inf

    def test_a_structure_without_a_partner_fails(self, get_space):
        family = [cs for cs in flagf.generate_product_structures(get_space(5, 6)) if cs.label != "-P3"]
        assert negation_residual(family) == np.inf
        assert negation_residual([]) == 0.0


def _golden_per_probe(ps, structures):
    """The golden-action comparison one probe at a time: its max deviation."""
    m, n = ps.m, ps.spec.n

    def lift(v):  # the element of m with coefficients v, one matrix-vector product
        return lie_mats(n, (m.coords.T @ v)[None])[0]

    probes = [lift(v) for v in np.eye(m.dim)] + [lift(np.arange(1.0, m.dim + 1.0) / 3.0)]
    worst = 0.0
    for label in sorted(REFERENCE_F_COEFFS[ps.spec.k]):
        f = structure_by_label(structures, label).matrix
        for x in probes:
            got = lift(f @ (m.coords @ lie_rows(x)))
            worst = max(worst, float(np.max(np.abs(got - expected_flag_action(label, x)))))
    return worst


class TestGoldenActions:
    @pytest.mark.parametrize("n", range(5, 17))
    @pytest.mark.parametrize("k", [4, 6])
    def test_stacked_check_equals_per_probe_loop(self, get_space, get_f_structures, n, k):
        ps = get_space(n, k)
        want = _golden_per_probe(ps, get_f_structures(n, k))
        assert golden_action_check(ps, canonical.generate_f_structures(ps)) == want

    def test_sign_flipped_structure_fails(self, get_space):
        ps = get_space(6, 6)
        flipped = [
            dataclasses.replace(cs, blocks=reference.on_theta_blocks(cs.blocks, -cs.matrix)) if cs.label == "f2" else cs
            for cs in canonical.generate_f_structures(ps)
        ]
        dev = golden_action_check(ps, flipped)
        assert not dev < TAU_GOLDEN and dev == _golden_per_probe(ps, flipped) > 1.0

    @pytest.mark.parametrize("n,k", [(4, 4), (5, 4), (5, 6), (8, 6), (12, 6), (16, 6), (24, 6)])
    @pytest.mark.parametrize("corruption", ["none", "entry-3e-12", "labels-swapped"])
    def test_lex_chain_equals_dense_images_bitwise(self, get_space, get_f_structures, n, k, corruption):
        # The check reads all labels' images off one product chain in lex coordinates; the
        # reference builds each label's dense (P, n, n) image.  The deviations must agree bit for bit.
        ps, fs = get_space(n, k), get_f_structures(n, k)
        if corruption == "entry-3e-12":
            first = sorted(canonical.F_LABEL_SIGNS[k])[0]
            bent = np.array(structure_by_label(fs, first).matrix)
            bent[1, 0] += 3e-12  # inside m1's block of theta
            fs = [dataclasses.replace(cs, blocks=reference.on_theta_blocks(cs.blocks, bent)) if cs.label == first else cs for cs in fs]
        elif corruption == "labels-swapped":  # f2 <-> f3; f0 <-> -f0 at k = 4, which has no f2
            swap = {"f2": "f3", "f3": "f2"} if k == 6 else {"f0": "-f0", "-f0": "f0"}
            fs = [dataclasses.replace(cs, label=swap.get(cs.label, cs.label)) for cs in fs]

        dev = golden_action_check(ps, fs)
        assert dev.hex() == reference.golden_action_dense(ps, fs).hex()
        assert (dev < TAU_GOLDEN) == (corruption == "none")

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("k", [4, 6])
    def test_tabulated_actions_reproduced(self, get_space, n, k):
        ps = get_space(n, k)
        assert golden_action_check(ps, canonical.generate_f_structures(ps)) < min(TAU_GOLDEN, 1e-12)

    def test_wrong_order_rejected(self, get_space):
        with pytest.raises(ValueError, match="order 4 or 6"):
            golden_action_check(get_space(5, 8), canonical.generate_f_structures(get_space(5, 8)))

    def test_f0_on_single_s24_coordinate(self, get_space, get_f_structures):
        # Input with only s24 = 1 maps to output with only the (3,4) slot set
        # (1-based), i.e. rows/cols 2,3 in 0-based indexing.
        f0 = structure_by_label(get_f_structures(4, 4), "f0")
        out = apply_on(get_space(4, 4).m, f0.matrix, elem(4, 1, 3))
        np.testing.assert_allclose(out, elem(4, 2, 3), atol=1e-13)

    def test_f2_kills_m1(self, get_space, get_f_structures):
        f2 = structure_by_label(get_f_structures(5, 6), "f2")
        assert np.linalg.norm(apply_on(get_space(5, 6).m, f2.matrix, elem(5, 0, 1))) < 1e-13

    def test_f3_rotates_m1(self, get_space, get_f_structures):
        f3 = structure_by_label(get_f_structures(5, 6), "f3")
        out = apply_on(get_space(5, 6).m, f3.matrix, elem(5, 0, 2))
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
        ker = kernel_and_image(f0.matrix, ps.m)[0]
        m3 = split_blocks(split)[2]
        assert ker.dim == m3.dim
        assert np.all(relative_residuals(ker, m3.coords) <= 1e-10)

    def test_f0_squares_to_minus_id_off_kernel(self, get_split, get_f_structures):
        split = get_split(5, 4)
        f0 = structure_by_label(get_f_structures(5, 4), "f0")
        f2 = f0.matrix @ f0.matrix
        for blk in split_blocks(split)[:2]:
            v = split.combined.coords @ blk.coords.T  # one column per basis element of the block
            np.testing.assert_allclose(f2 @ v, -v, atol=1e-12)

    def test_ad_equivariance_on_elements(self, get_space, get_f_structures, rng):
        # [h, f X] = f [h, X] for h in the isotropy algebra and X in m.
        ps = get_space(5, 6)
        hs = lie_mats(5, ps.h.coords)[:, None]  # every (h_a, m_b) pair, broadcast
        ms = lie_mats(5, ps.m.coords)[None, :]
        for cs in get_f_structures(5, 6)[:4]:
            lhs = brackets(hs, apply_on(ps.m, cs.matrix, ms[0])[None, :])
            rhs = np.stack([apply_on(ps.m, cs.matrix, b) for b in brackets(hs, ms)])
            assert np.max(np.linalg.norm(lhs - rhs, axis=(2, 3))) < 1e-10


class TestSignPairs:
    """At m_blocks = 1 an f-structure is eps1 J1 (+) eps2 J2 (+) 0 in the block basis,
    (eps1, eps2) its signs on theta's angles at m1 and m2; the class engine reads that matrix."""

    @pytest.mark.parametrize("k", range(4, 17, 2))
    @pytest.mark.parametrize("n", [4, 5, 9, 16])
    def test_generated_structures_are_their_sign_pair_matrices(self, get_space, get_split, n, k):
        ps, split = get_space(n, k), get_split(n, k)
        fs = canonical.generate_f_structures(ps)
        pairs = [cs.sign_pair for cs in fs]
        exact = canonical.sign_pair_matrices(pairs, split)
        assert set(np.unique(exact)) <= {-1.0, 0.0, 1.0}
        generated = flagf.structure_matrices(fs, split)
        assert np.max(np.abs(generated - exact)) < 1e-14
        by_label = dict(zip((cs.label for cs in fs), pairs))
        for label, (e1, e2) in by_label.items():  # -f has the negated pair
            assert by_label[label[1:] if label.startswith("-") else "-" + label] == (-e1, -e2)
        everything = {p for p in itertools.product((-1, 0, 1), repeat=2) if any(p)}
        assert set(pairs) == ({(1, 1), (-1, -1)} if k == 4 else everything)
        assert len(pairs) == len(set(pairs))

    @pytest.mark.parametrize("k", range(4, 17, 2))
    def test_block_angles_are_the_angles_of_theta(self, get_space, k):
        angles = canonical.flag_block_angles(k)
        assert angles == (1, k // 2 - 1, k // 2)
        assert set(angles) == set(phispace.theta_angles(get_space(6, k).spec))

    @pytest.mark.parametrize("n,k", [(4, 4), (5, 6), (9, 8), (24, 6)])
    def test_the_complex_structure_is_exact(self, get_split, n, k):
        # theta's J on m1 and m2: skew, one entry +-1 per row there, J^2 = -1 on m1 (+) m2 and 0 on m3, exactly.
        split = get_split(n, k)
        j = split.complex_structure
        assert set(np.unique(j)) == {-1.0, 0.0, 1.0}
        assert np.array_equal(j, -j.T)
        assert np.array_equal(j @ j, -np.diag((split.block_index < 3).astype(float)))
        for b in (1, 2, 3):  # block-diagonal
            inside = split.block_index == b
            assert not j[np.ix_(inside, ~inside)].any()

    def test_other_structures_have_no_sign_pair(self, get_space):
        for ps in (get_space(5, 6, 2), get_space(5, 6)):
            for cs in canonical.generate_product_structures(ps):
                assert cs.sign_pair is None
        assert all(cs.sign_pair is None for cs in canonical.generate_f_structures(get_space(5, 6, 2)))
