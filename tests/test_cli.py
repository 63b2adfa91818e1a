import argparse
import dataclasses
import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import flagf
from flagf import canonical, classify, cli, liealg, metricgeom, phispace, report
from flagf.classify import SPECIAL_POINTS
from flagf.cli import build_parser, config_from_args, main
from flagf.report import fmt_float, json_dumps
from flagf.tolerances import TAU_CONNECTION
from space_reference import dense_subspace
from structure_checks_reference import on_theta_blocks, scaled_channel


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_class_setup(monkeypatch) -> dict:
    """Counts the class evaluators built and the sparse joins that set them up
    (calls of classify._kept_entries), whichever way they are built."""
    counts = {"evaluators": 0, "joins": 0}
    build, join = classify.class_evaluators, classify._kept_entries

    def counting_build(*args, **kwargs):
        out = build(*args, **kwargs)
        counts["evaluators"] += len(out)
        return out

    def counting_join(*args, **kwargs):
        counts["joins"] += 1
        return join(*args, **kwargs)

    monkeypatch.setattr(classify, "class_evaluators", counting_build)
    monkeypatch.setattr(classify, "_kept_entries", counting_join)
    return counts


class TestVerify:
    def test_order4_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "5", "--k", "4")
        assert code == 0
        assert "result: PASS" in out
        assert "[FAIL]" not in out

    def test_order6_suite_passes_with_structure_count(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "5", "--k", "6", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        count = next(c for c in report["checks"] if c["name"] == "f-structure-count")
        assert count["detail"]["count"] == 8
        assert count["detail"]["up_to_sign"] == 4

    def test_odd_k_is_invalid_config(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "4", "--k", "3")
        assert code == 2
        assert "invalid configuration" in err

    def test_csv_not_supported_for_verify(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "5", "--k", "4", "--format", "csv")
        assert code == 2

    def test_report_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "verify.json"
        code, out, _ = run(
            capsys, "verify", "--n", "4", "--k", "4", "--format", "json", "--out", str(out_path)
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["space"]["dims"]["m"] == 5

    def test_general_block_space(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "7", "--m-blocks", "2", "--k", "6")
        assert code == 0

    @pytest.mark.parametrize("n,m_blocks,k", [(9, 3, 4), (11, 4, 6), (9, 4, 6)])
    def test_three_and_four_block_spaces_pass(self, capsys, n, m_blocks, k):
        # [h, m] is 0 exactly but ~1e-15 in floats here; the reductivity check
        # measures that leak absolutely, not relative to its own norm.  At
        # (9, 3, 4), (11, 4, 6) and (9, 4, 6) one block of phi - id is neither
        # zero nor nonsingular.
        argv = ("--n", str(n), "--m-blocks", str(m_blocks), "--k", str(k), "--format", "json")
        code, out, _ = run(capsys, "verify", *argv)
        report = json.loads(out)
        assert code == 0 and report["passed"] is True
        assert all(c["passed"] for c in report["checks"])

    def test_byte_identical_reruns(self, capsys):
        argv = ("verify", "--n", "12", "--k", "6", "--seed", "4242", "--format", "json")
        code, first, _ = run(capsys, *argv)
        assert code == 0 and json.loads(first)["passed"] is True
        assert run(capsys, *argv)[1] == first

    @pytest.mark.parametrize("kappa", ["1e-300", "1e307"])
    def test_extreme_valid_kappa_passes(self, capsys, kappa):
        code, out, _ = run(capsys, "verify", "--n", "5", "--k", "4", "--kappa", kappa, "--format", "json")
        assert code == 0 and json.loads(out)["passed"] is True

    @pytest.mark.parametrize("n,k", [(12, 4), (24, 6), (40, 4)])
    def test_kappa_that_passes_at_n_5_passes_at_larger_n(self, capsys, n, k):
        # The connection check reads unit basis triples, so its values do not grow
        # with n: a kappa that no check overflows at n = 5 passes at every n.
        argv = ("verify", "--n", str(n), "--k", str(k), "--kappa", "1.7e307", "--format", "json")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["passed"] is True

    def test_chain_check_fails_when_one_special_point_breaks_the_chain(self, capsys, monkeypatch):
        # The check reads the columnar chain_ok of each structure at (1, 1) and
        # (1, 4/3); a break at the second point alone must fail it.
        monkeypatch.setattr(classify, "_chain_ok", lambda m: np.arange(len(m["kill"])) != 1)
        code, out, _ = run(capsys, "verify", "--n", "5", "--k", "4", "--format", "json")
        failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
        assert code == 1 and failed == ["class-chain-at-special-points"]

    @pytest.mark.parametrize("channel", [0, 1, 2])
    def test_connection_check_fails_with_a_u_channel_scaled_by_one_plus_1e_6(self, capsys, monkeypatch, channel):
        # U closed-form off by 1e-6 in one channel: the closed-vs-solved oracle and the
        # connection's metric compatibility on every basis triple both see it.
        monkeypatch.setattr(metricgeom, "u_channel_coefficients", scaled_channel(channel, 1.0 + 1e-6))
        code, out, _ = run(capsys, "verify", "--n", "5", "--k", "4", "--format", "json")
        checks = json.loads(out)["checks"]
        assert code == 1
        assert [c["name"] for c in checks if not c["passed"]] == ["u-oracle-agreement", "connection-metric-compatibility"]
        connection = next(c for c in checks if c["name"] == "connection-metric-compatibility")
        assert connection["residual"] > TAU_CONNECTION

    def test_cost_guard_one_join_for_all_structures(self, capsys, monkeypatch):
        # The class chain sets up an evaluator per f-structure up to sign from one join,
        # however many structures the space has: -f lies in the classes of f.
        counts = count_class_setup(monkeypatch)
        code, out, _ = run(capsys, "verify", "--n", "12", "--k", "6", "--format", "json")
        assert code == 0
        structures = json.loads(out)["structures"]["f"]
        assert counts == {"evaluators": len(structures) // 2, "joins": 1} and len(structures) == 8

    def test_cost_guard_one_ad_join_and_no_dense_u(self, capsys, monkeypatch):
        # The structure checks of all f- and P-structures take one stacked
        # call and one join of ad(h); the U oracle compares nonzeros only.
        counts = {"verify_structures": 0, "ad_joins": 0}
        verify_structures, nonzero_rows = canonical.verify_structures, canonical.nonzero_rows

        def counting(key, original):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(canonical, "verify_structures", counting("verify_structures", verify_structures))
        monkeypatch.setattr(canonical, "nonzero_rows", counting("ad_joins", nonzero_rows))
        assert not hasattr(metricgeom, "u_coords_tensor")  # no dense U route is left to build
        code, out, _ = run(capsys, "verify", "--n", "12", "--k", "6", "--format", "json")
        assert code == 0
        structures = json.loads(out)["structures"]
        assert len(structures["f"]) + len(structures["product"]) == 16
        assert counts == {"verify_structures": 1, "ad_joins": 1}

    def test_cost_guard_one_metric_call_per_sampled_check(self, capsys, monkeypatch):
        # The U oracle takes its six points as one grid, once per mode, the two
        # compatibility checks their five random points as one grid each, and the
        # natural reductivity checks read (1, 1), (2, 1) and (1, 2) in one call; the
        # connection check reads U closed-form once more, at its own point.
        calls = []
        u_nonzeros, nat_red = metricgeom.u_nonzeros, metricgeom.naturally_reductive_residual
        compat = {name: getattr(classify, name) for name in ("metric_compat_residual", "product_compat_residual")}

        def counting_compat(name):
            def wrapper(f, split, params):
                calls.append((name, np.size(params.s)))
                return compat[name](f, split, params)
            return wrapper

        def counting_u(split, params, mode="closed"):
            calls.append(("u_nonzeros", mode, np.size(params.s)))
            return u_nonzeros(split, params, mode)

        def counting_nat_red(split, params):
            calls.append(("naturally_reductive_residual", list(zip(params.s.tolist(), params.t.tolist()))))
            return nat_red(split, params)

        monkeypatch.setattr(metricgeom, "u_nonzeros", counting_u)
        monkeypatch.setattr(metricgeom, "naturally_reductive_residual", counting_nat_red)
        for name in compat:
            monkeypatch.setattr(classify, name, counting_compat(name))
        code, out, _ = run(capsys, "verify", "--n", "8", "--k", "6", "--format", "json")
        assert code == 0 and json.loads(out)["passed"] is True
        assert calls == [
            ("u_nonzeros", "closed", 6),
            ("u_nonzeros", "solved", 6),
            ("metric_compat_residual", 5),
            ("product_compat_residual", 5),
            ("naturally_reductive_residual", [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0)]),
            ("u_nonzeros", "closed", 1),
        ]

    def test_out_naming_a_directory_is_an_io_failure(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", "--n", "5", "--k", "4", "--out", str(tmp_path))
        assert code == 1 and out == ""
        assert err.startswith("flagf: I/O failure: ") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []  # no temp file left behind


# verify's checks in report order.  Each measures something construction does not raise on, so each
# can fail; test_every_check_fails_under_its_corruption makes each one fail.
BLOCK_SPACE_CHECKS = [
    "regularity-direct-sum",
    "regularity-nonsingular-restriction",
    "regularity-kernel-stable",
    "regularity-conditions-agree",
    "phi-preserves-bracket",
    "phi-isometry",
    "phi-is-conjugation-by-b",
    "f-structure-count",
    "product-structure-count",
    "structure-defining-identities",
    "structure-polynomial-reconstruction",
    "structure-theta-commutation",
    "structure-ad-invariance",
    "structure-pairwise-commutation",
    "f-negation-closure",
    "product-negation-closure",
]
FLAG_SPACE_CHECKS = BLOCK_SPACE_CHECKS + [
    "golden-action",
    "structure-sign-pair",
    "u-oracle-agreement",
    "u-vanishes-at-neutral-metric",
    "metric-f-compatibility",
    "metric-product-compatibility",
    "naturally-reductive-at-neutral-metric",
    "not-naturally-reductive-off-neutral",
    "connection-metric-compatibility",
    "class-chain-at-special-points",
]
VERIFY_CHECKS = {
    "--n 5 --k 4": FLAG_SPACE_CHECKS,
    "--n 5 --k 6": FLAG_SPACE_CHECKS,
    "--n 7 --m-blocks 2 --k 6": BLOCK_SPACE_CHECKS,
}


def turn(d, i, j, angle):
    """The rotation of basis vectors i and j of a d-dimensional space by angle."""
    q = np.eye(d)
    q[i, i] = q[j, j] = np.cos(angle)
    q[i, j], q[j, i] = -np.sin(angle), np.sin(angle)
    return q


def feed(monkeypatch, module, name, change):
    """verify's calls of module.name see change(x) in place of their first argument x."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda first, *rest: original(change(first), *rest))


def with_phi_blocks(ps, edit):
    """ps with the blocks of phi that edit returns, given copies of the (positions, matrices) of ps."""
    spec = dataclasses.replace(ps.spec)
    spec.__dict__["phi_blocks"] = edit([(pos, mats.copy()) for pos, mats in ps.spec.phi_blocks])  # the cache
    return dataclasses.replace(ps, spec=spec)


def set_block(size, sign, value):
    """An edit of phi's blocks: the first size x size block whose first entry has that sign becomes value."""

    def edit(blocks):
        pos, mats = next(b for b in blocks if b[0].shape[1] == size)
        mats[np.flatnonzero(np.sign(mats[:, 0, 0]) == sign)[0]] = value
        return blocks

    return edit


def h_leaning_into_m(ps):
    """h with its first row turned by 1e-3 towards the first row of m: no longer orthogonal to m."""
    rows = np.array(ps.h.coords)
    rows[0] = np.cos(1e-3) * rows[0] + np.sin(1e-3) * ps.m.coords[0]
    return dataclasses.replace(ps, h=dense_subspace(ps.spec.n, rows))


def theta_fixing_m1(ps):
    """theta as the identity on m1, the first two basis vectors of m."""
    th = np.array(ps.theta)
    th[:2], th[:, :2] = 0.0, 0.0
    th[:2, :2] = np.eye(2)
    return dataclasses.replace(ps, theta=th)


def turned_theta(ps):
    """theta conjugated by a rotation of the first and last basis vectors of m, which ad(h) does not commute with."""
    q = turn(ps.m.dim, 0, ps.m.dim - 1, 0.3)
    return dataclasses.replace(ps, theta=q @ ps.theta @ q.T)


def space_with_turned_theta(monkeypatch):
    """verify builds the space, then works on it with theta turned (:func:`turned_theta`)."""
    setup = phispace.build_phi_space
    monkeypatch.setattr(phispace, "build_phi_space", lambda spec: turned_theta(setup(spec)))


def edit_family(monkeypatch, family, edit):
    """verify's generate_<family>_structures gives edit(list) for the list of structures."""
    name = f"generate_{family}_structures"
    original = getattr(canonical, name)
    monkeypatch.setattr(canonical, name, lambda ps: edit(original(ps)))


def edit_structure(monkeypatch, family, label, edit):
    """The structure of that label comes out of generation as edit(structure)."""
    edit_family(monkeypatch, family, lambda structures: [edit(cs) if cs.label == label else cs for cs in structures])


def with_op(cs, op):
    """cs with its operator matrix M replaced by op(a copy of M), which must keep theta's blocks."""
    return dataclasses.replace(cs, blocks=on_theta_blocks(cs.blocks, op(np.array(cs.matrix))))


def constant_term_off(cs):
    """cs with 1e-6 added to the constant coefficient of its polynomial, its operator unchanged."""
    a0, *rest = cs.theta_polynomial
    return dataclasses.replace(cs, theta_polynomial=(a0 + 1e-6, *rest))


def bumped(matrix, by=1e-6):
    """A matrix unit times ``by`` added inside m1's block of theta: the matrix no longer commutes
    with theta, nor is it skew (or symmetric) for the metric."""
    matrix[0, 1] += by
    return matrix


def skewed_bracket(monkeypatch):
    """The bracket tensor of m with one coefficient off by a factor 1 + 1e-6: no longer g0-skew."""

    def skew(split):
        i, j, r, v = split.bracket_nonzeros
        v = v.copy()
        v[0] *= 1 + 1e-6
        return dataclasses.replace(split, bracket_nonzeros=(i, j, r, v))

    build = metricgeom.build_split
    monkeypatch.setattr(metricgeom, "build_split", lambda ps: skew(build(ps)))


def weights_blind_to_s_and_t(monkeypatch):
    """Every metric weighted as the neutral one, at a point or on a grid."""
    weights = metricgeom.block_weights

    def neutral(split, p):
        return weights(split, dataclasses.replace(p, s=np.ones_like(p.s), t=np.ones_like(p.t)))

    monkeypatch.setattr(metricgeom, "block_weights", neutral)


def swap_labels(pairs):
    """Each structure labelled a of a pair (a, b), or -a, takes the label b (-b), and the other way round."""
    swap = {**pairs, **{b: a for a, b in pairs.items()}}
    swap.update({"-" + a: "-" + b for a, b in swap.items()})
    return lambda structures: [dataclasses.replace(cs, label=swap.get(cs.label, cs.label)) for cs in structures]


def drop_angle(monkeypatch):
    """Generation misses theta's angle k/2 - 1."""
    angles = phispace.theta_angles
    monkeypatch.setattr(canonical, "theta_angles", lambda spec: tuple(l for l in angles(spec) if l != spec.k // 2 - 1))


CORRUPTIONS = {
    "h-leans-into-m": lambda mp: feed(mp, phispace, "check_regularity", h_leaning_into_m),
    "phi-near-identity-on-m": lambda mp: feed(
        mp, phispace, "check_regularity", lambda ps: with_phi_blocks(ps, set_block(1, -1, 1.0 - 1e-7))
    ),
    "phi-not-normal": lambda mp: feed(
        mp, phispace, "check_regularity", lambda ps: with_phi_blocks(ps, set_block(2, 1, [[1.0, 1e-3], [0.0, 1.0]]))
    ),
    "theta-fixes-m1": lambda mp: feed(mp, phispace, "check_regularity", theta_fixing_m1),
    "phi-flips-one-lex-vector": lambda mp: feed(
        mp, phispace, "phi_residuals", lambda ps: with_phi_blocks(ps, set_block(1, 1, -1.0))
    ),
    "phi-scaled": lambda mp: feed(
        mp, phispace, "phi_residuals",
        lambda ps: with_phi_blocks(ps, lambda blocks: [(pos, mats * (1 + 1e-6)) for pos, mats in blocks]),
    ),
    "phi-of-b-transposed": lambda mp: feed(
        mp, phispace, "phi_residuals",
        lambda ps: with_phi_blocks(ps, lambda _: phispace.phi_blocks(ps.spec.b.T)),
    ),
    "f-repeated": lambda mp: edit_family(mp, "f", lambda fs: fs + fs[:1]),
    "p-repeated": lambda mp: edit_family(mp, "product", lambda prods: prods + prods[:1]),
    "angle-dropped": drop_angle,
    "f1-scaled": lambda mp: edit_structure(mp, "f", "f1", lambda cs: with_op(cs, lambda f: f * (1 + 1e-6))),
    "f1-polynomial-off": lambda mp: edit_structure(mp, "f", "f1", constant_term_off),
    "f1-bumped": lambda mp: edit_structure(mp, "f", "f1", lambda cs: with_op(cs, bumped)),
    "p2-bumped": lambda mp: edit_structure(mp, "product", "P2", lambda cs: with_op(cs, bumped)),
    "theta-turned": space_with_turned_theta,
    "p1-bumped": lambda mp: edit_structure(mp, "product", "P1", lambda cs: with_op(cs, bumped)),
    "-f1-unsigned": lambda mp: edit_structure(mp, "f", "-f1", lambda cs: with_op(cs, np.negative)),
    "-p1-unsigned": lambda mp: edit_structure(mp, "product", "-P1", lambda cs: with_op(cs, np.negative)),
    "f1-f2-swapped": lambda mp: edit_family(mp, "f", swap_labels({"f1": "f2"})),
    "f1-paired-as-f4": lambda mp: edit_structure(mp, "f", "f1", lambda cs: dataclasses.replace(cs, sign_pair=(1, -1))),
    "u-channel-off": lambda mp: mp.setattr(metricgeom, "u_channel_coefficients", scaled_channel(0, 1.0 + 1e-6)),
    "bracket-skewed": skewed_bracket,
    "weights-blind": weights_blind_to_s_and_t,
    "chain-broken": lambda mp: mp.setattr(classify, "_chain_ok", lambda m: np.arange(len(m["kill"])) != 1),
}

# (check, verify arguments, corruption): each corruption must make its check fail.
CORRUPTED_CHECKS = [
    ("regularity-direct-sum", "--n 5 --k 6", "h-leans-into-m"),
    ("regularity-nonsingular-restriction", "--n 5 --k 6", "phi-near-identity-on-m"),
    ("regularity-kernel-stable", "--n 5 --k 6", "phi-not-normal"),
    ("regularity-conditions-agree", "--n 5 --k 6", "theta-fixes-m1"),
    ("phi-preserves-bracket", "--n 5 --k 6", "phi-flips-one-lex-vector"),
    ("phi-isometry", "--n 5 --k 6", "phi-scaled"),
    ("phi-is-conjugation-by-b", "--n 5 --k 6", "phi-of-b-transposed"),
    ("f-structure-count", "--n 5 --k 6", "f-repeated"),
    ("product-structure-count", "--n 5 --k 6", "p-repeated"),
    ("f-structure-count", "--n 5 --k 8", "angle-dropped"),
    ("product-structure-count", "--n 5 --k 8", "angle-dropped"),
    ("f-structure-count", "--n 9 --m-blocks 2 --k 8", "f-repeated"),
    ("product-structure-count", "--n 9 --m-blocks 2 --k 8", "p-repeated"),
    ("f-structure-count", "--n 9 --m-blocks 2 --k 8", "angle-dropped"),
    ("product-structure-count", "--n 9 --m-blocks 2 --k 8", "angle-dropped"),
    ("structure-defining-identities", "--n 5 --k 6", "f1-scaled"),
    ("structure-polynomial-reconstruction", "--n 5 --k 6", "f1-polynomial-off"),
    ("structure-theta-commutation", "--n 5 --k 6", "f1-bumped"),
    ("structure-ad-invariance", "--n 5 --k 6", "theta-turned"),
    ("structure-pairwise-commutation", "--n 5 --k 6", "p1-bumped"),
    ("f-negation-closure", "--n 5 --k 6", "-f1-unsigned"),
    ("product-negation-closure", "--n 5 --k 6", "-p1-unsigned"),
    ("golden-action", "--n 5 --k 6", "f1-f2-swapped"),
    ("structure-sign-pair", "--n 5 --k 6", "f1-paired-as-f4"),
    ("u-oracle-agreement", "--n 5 --k 6", "u-channel-off"),
    ("u-vanishes-at-neutral-metric", "--n 5 --k 6", "bracket-skewed"),
    ("metric-f-compatibility", "--n 5 --k 6", "f1-bumped"),
    ("metric-product-compatibility", "--n 5 --k 6", "p2-bumped"),
    ("naturally-reductive-at-neutral-metric", "--n 5 --k 6", "bracket-skewed"),
    ("not-naturally-reductive-off-neutral", "--n 5 --k 6", "weights-blind"),
    ("connection-metric-compatibility", "--n 5 --k 6", "u-channel-off"),
    ("class-chain-at-special-points", "--n 5 --k 6", "chain-broken"),
]


class TestVerifyChecks:
    @pytest.mark.parametrize("args", sorted(VERIFY_CHECKS))
    def test_the_checks_in_report_order(self, capsys, args):
        code, out, _ = run(capsys, "verify", *args.split(), "--format", "json")
        assert code == 0 and [c["name"] for c in json.loads(out)["checks"]] == VERIFY_CHECKS[args]

    def test_every_check_has_a_corruption(self):
        covered = sorted(check for check, args, _ in CORRUPTED_CHECKS if args == "--n 5 --k 6")
        assert covered == sorted(FLAG_SPACE_CHECKS)

    @pytest.mark.parametrize("check,args,corruption", CORRUPTED_CHECKS)
    def test_every_check_fails_under_its_corruption(self, capsys, monkeypatch, check, args, corruption):
        CORRUPTIONS[corruption](monkeypatch)
        code, out, _ = run(capsys, "verify", *args.split(), "--format", "json")
        report = json.loads(out)
        assert code == 1 and report["passed"] is False
        assert check in [c["name"] for c in report["checks"] if not c["passed"]]

    def test_a_bracket_the_class_engine_refuses_fails_the_class_chain(self, capsys, monkeypatch):
        # One coefficient off by 1 + 1e-6 gives the bracket tensor two magnitudes: verify reports, not raises.
        CORRUPTIONS["bracket-skewed"](monkeypatch)
        code, out, _ = run(capsys, "verify", "--n", "5", "--k", "6", "--format", "json")
        assert code == 1 and "class-chain-at-special-points" in [
            c["name"] for c in json.loads(out)["checks"] if not c["passed"]
        ]

    @pytest.mark.parametrize(
        "n,m_blocks,k,angles",
        [(4, 1, 4, (1, 2)), (4, 1, 8, (1, 3, 4)), (9, 1, 10, (1, 4, 5)), (6, 1, 16, (1, 7, 8)),
         (7, 2, 6, (1, 2, 3)), (9, 2, 8, (1, 2, 3, 4)), (9, 3, 8, (1, 2, 3, 4)), (9, 4, 16, (1, 2, 3, 4, 5, 6, 7))],
    )
    def test_structure_counts_expect_the_closed_form(self, capsys, n, m_blocks, k, angles):
        # 3^a - 1 f- and 2^b P-structures for theta's a angles 2 pi l / k below pi and b up to pi, at every
        # k and m_blocks: {1, k/2 - 1, k/2} at m_blocks = 1, and here every l up to k/2 at m_blocks >= 2.
        assert phispace.theta_angles(phispace.build_automorphism(n, m_blocks, k)) == angles
        argv = ("--n", str(n), "--m-blocks", str(m_blocks), "--k", str(k), "--format", "json")
        code, out, _ = run(capsys, "verify", *argv)
        counts = {c["name"]: c["detail"] for c in json.loads(out)["checks"] if c["name"].endswith("structure-count")}
        f, p = counts["f-structure-count"], counts["product-structure-count"]
        assert code == 0
        assert f["expected"] == f["count"] == 3 ** len([l for l in angles if l < k // 2]) - 1
        assert p["expected"] == p["count"] == 2 ** len(angles)


class TestClassify:
    def test_kill_member_at_special_point(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--n", "5", "--k", "4", "--f", "f0",
            "--s", "1", "--t", "1.3333333333333333", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["kill"]["member"] is True
        assert report["results"]["nk"]["member"] is True
        assert report["results"]["g1"]["member"] is True
        assert report["chain_ok"] is True

    def test_truncated_special_point_is_flagged_indeterminate(self, capsys):
        # t given to only 7 digits sits 3e-8 away from 4/3; the residual
        # (7e-9) exceeds the strict membership tolerance but is far below the
        # non-membership margin, which is exactly what the indeterminate
        # flag is for.
        code, out, _ = run(
            capsys, "classify", "--n", "5", "--k", "4", "--f", "f0",
            "--s", "1", "--t", "1.3333333", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["kill"]["member"] is False
        assert report["results"]["kill"]["indeterminate"] is True
        assert report["results"]["nk"]["member"] is True

    def test_f4_nk_non_member_g1_member(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--n", "6", "--k", "6", "--f", "f4",
            "--s", "1", "--t", "1", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["g1"]["member"] is True
        assert report["results"]["nk"]["member"] is False
        assert report["results"]["nk"]["residual"] > 1e-3

    def test_non_member_reports_its_witness_pair(self, capsys):
        args = ("classify", "--n", "5", "--k", "4", "--f", "f0", "--s", "1", "--t", "1")
        code, out, _ = run(capsys, *args, "--format", "json")
        assert code == 0
        results = json.loads(out)["results"]
        ps = flagf.build_phi_space(flagf.build_automorphism(5, 1, 4))
        split = flagf.build_split(ps)
        f0 = flagf.structure_by_label(flagf.generate_f_structures(ps), "f0")
        rep = classify.ClassEvaluator(f0, split).report(flagf.MetricParams.for_space(ps, 1.0, 1.0))
        assert results["kill"]["member"] is False
        assert results["kill"]["witness"] == list(rep.witnesses["kill"])
        assert results["nk"]["witness"] is None and results["g1"]["witness"] is None
        code, out, _ = run(capsys, *args)
        i, j = rep.witnesses["kill"]
        assert f"witness=({i}, {j})" in out and "witness=none" in out

    def test_unknown_structure(self, capsys):
        code, _, err = run(
            capsys, "classify", "--n", "5", "--k", "6", "--f", "f9", "--s", "1", "--t", "1"
        )
        assert code == 2
        assert "unknown structure" in err

    def test_negative_label_is_passed_with_equals(self, capsys):
        # argparse reads "--f -f0" as two options; "--f=-f0" is the form that works.
        code, out, _ = run(
            capsys, "classify", "--n", "5", "--k", "4", "--f=-f0", "--s", "1", "--t", "1", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["structure"]["id"] == "-f0"
        code, _, err = run(capsys, "classify", "--n", "5", "--k", "4", "--f", "f9", "--s", "1", "--t", "1")
        assert code == 2
        assert "-f0" in err and "--f=-f1" in err
        with pytest.raises(SystemExit):
            main(["classify", "--help"])
        assert "--f=-f1" in "".join(capsys.readouterr().out.split())

    def test_text_output(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--n", "5", "--k", "4", "--f", "f0", "--s", "1", "--t", "1"
        )
        assert code == 0
        assert "KILL: non-member" in out
        assert "NK: member" in out

    def test_out_in_a_missing_directory_is_an_io_failure(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        argv = ("classify", "--n", "5", "--k", "4", "--f", "f0", "--s", "1", "--t", "1", "--out", str(target))
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("flagf: I/O failure: ") and not target.parent.exists()

    def test_small_normal_kappa_accepted(self, capsys):
        argv = ("--f", "f0", "--s", "1", "--t", "1.3333333333333333", "--kappa", "1e-300", "--format", "json")
        code, out, _ = run(capsys, "classify", "--n", "5", "--k", "4", *argv)
        report = json.loads(out)
        assert code == 0 and report["results"]["kill"]["member"] is True
        assert report["metric_compatibility_residual"] > 0.0  # its digits survive, as at kappa = 1

    def test_compatibility_is_read_off_the_generated_structure(self, capsys, monkeypatch):
        # The evaluator's sign-pair matrix is compatible with every metric by construction; the
        # reported residual measures the generated f, so a generated f that is off shows.
        edit_structure(monkeypatch, "f", "f0", lambda cs: with_op(cs, lambda f: bumped(f, 1e-3)))
        argv = ("--f", "f0", "--s", "2", "--t", "0.5", "--format", "json")
        code, out, _ = run(capsys, "classify", "--n", "5", "--k", "4", *argv)
        assert code == 0 and json.loads(out)["metric_compatibility_residual"] > 1e-4

    def test_nonpositive_params_rejected(self, capsys):
        code, _, err = run(
            capsys, "classify", "--n", "5", "--k", "4", "--f", "f0", "--s", "0", "--t", "1"
        )
        assert code == 2


class TestSweep:
    def test_files_written_and_summary(self, capsys, tmp_path):
        out = tmp_path / "reports"
        code, stdout, _ = run(
            capsys, "sweep", "--n", "5", "--k", "4", "--out", str(out), "--format", "json"
        )
        assert code == 0
        doc = json.loads((out / "f0.json").read_text())
        assert doc["summary"]["nk"]["kind"] == "line"
        assert doc["summary"]["nk"]["lines"][0]["axis"] == "s"
        assert abs(doc["summary"]["nk"]["lines"][0]["value"] - 1.0) < 1e-9
        assert doc["summary"]["kill"]["kind"] == "points"
        pt = doc["summary"]["kill"]["points"][0]
        assert abs(pt[0] - 1.0) < 1e-6 and abs(pt[1] - 4.0 / 3.0) < 1e-6
        assert doc["summary"]["g1"]["kind"] == "all"
        summary = json.loads((out / "summary.json").read_text())
        assert "f0" in summary["structures"]

    def test_structure_checks_are_those_of_every_f_structure(self, capsys, tmp_path):
        # Each file carries its structure's check from one call on all f-structures, negatives
        # included: the pairwise bound maxes the theta-commutation and reconstruction residuals
        # over that list, so the representatives alone could read another bound.
        code, _, _ = run(capsys, "sweep", "--n", "5", "--k", "10", "--grid-step", "1.0", "--out", str(tmp_path),
                         "--format", "json")
        assert code == 0
        ps = flagf.build_phi_space(flagf.build_automorphism(5, 1, 10))
        checks = {chk.label: chk for chk in canonical.verify_structures(flagf.generate_f_structures(ps), ps)}
        for label in ("f1", "f2", "f3", "f4"):
            (written,) = json.loads((tmp_path / f"{label}.json").read_text())["structures"]
            assert written["checks"] == {key: v for key, v in dataclasses.asdict(checks[label]).items() if key != "label"}

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "sweep", "--n", "4", "--k", "4", "--out", str(a), "--format", "json")
        run(capsys, "sweep", "--n", "4", "--k", "4", "--out", str(b), "--format", "json")
        assert (a / "f0.json").read_bytes() == (b / "f0.json").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_csv_column_order(self, capsys, tmp_path):
        out = tmp_path / "csv"
        code, _, _ = run(
            capsys, "sweep", "--n", "4", "--k", "4", "--out", str(out), "--format", "csv"
        )
        assert code == 0
        lines = (out / "f0.csv").read_text().splitlines()
        assert lines[0] == "s,t,kill_residual,nk_residual,g1_residual,kill,nk,g1"
        first = lines[1].split(",")
        assert first[0] == "0.25" and first[1] == "0.25"
        assert first[5] in ("true", "false")

    def test_text_format(self, capsys, tmp_path):
        out = tmp_path / "txt"
        code, _, _ = run(
            capsys, "sweep", "--n", "4", "--k", "4", "--out", str(out), "--format", "text"
        )
        assert code == 0
        text = (out / "f0.txt").read_text()
        assert "summary:" in text
        assert "kill:" in text

    def test_order6_sweep_summaries(self, capsys, tmp_path):
        out = tmp_path / "k6"
        code, stdout, _ = run(
            capsys, "sweep", "--n", "6", "--k", "6", "--out", str(out), "--format", "json"
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())["structures"]
        assert summary["f2"]["kill"]["kind"] == "empty"
        assert summary["f2"]["nk"]["kind"] == "all"
        assert summary["f4"]["nk"]["kind"] == "empty"
        assert summary["f1"]["nk"]["kind"] == "line"
        for lbl in ("f1", "f2", "f3", "f4"):
            assert summary[lbl]["g1"]["kind"] == "all"

    def test_missing_out_is_invalid(self, capsys):
        code, _, err = run(capsys, "sweep", "--n", "4", "--k", "4")
        assert code == 2

    def test_extra_points_parsing(self, capsys, tmp_path):
        out = tmp_path / "extra"
        code, _, _ = run(
            capsys, "sweep", "--n", "4", "--k", "4", "--out", str(out),
            "--format", "json", "--extra-points", "0.3,2.0;1.5,1.5",
        )
        assert code == 0
        doc = json.loads((out / "f0.json").read_text())
        pts = {(row["s"], row["t"]) for row in doc["sweep"]}
        assert (0.3, 2.0) in pts and (1.5, 1.5) in pts

    def test_bad_extra_points_rejected(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--n", "4", "--k", "4", "--out", "/tmp/x",
            "--extra-points", "nonsense",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "k,label,grid_args",
        [("6", "f1", ("--grid-step", "1.0")), ("4", "f0", ("--grid-min", "2"))],
    )
    def test_coarse_grids_report_the_nk_line(self, capsys, tmp_path, k, label, grid_args):
        # Coarse grids once turned the line s = 1 into two isolated points.
        code, stdout, _ = run(
            capsys, "sweep", "--n", "5", "--k", k, "--out", str(tmp_path), "--format", "json", *grid_args
        )
        assert code == 0
        nk = json.loads((tmp_path / "summary.json").read_text())["structures"][label]["nk"]
        assert nk["kind"] == "line" and nk["lines"] == [{"axis": "s", "value": 1.0}] and nk["points"] == []
        assert nk["description"] == "line s=1.000000"
        assert nk["rank"] == 1 and nk["sigma_min_kept"] > 1.0 and nk["sigma_max_dropped"] < 1e-12
        assert f"{label}: kill: (1.000000, 1.333333); nk: line s=1.000000; g1: all (s, t)" in stdout

    def test_cost_guard_one_evaluator_per_structure(self, capsys, tmp_path, monkeypatch):
        # Zero sets come from the evaluator that made the grid reports: one
        # evaluator per structure, all set up by one join, and no residuals
        # beyond one batch of the grid per structure.
        counts = count_class_setup(monkeypatch)
        counts["residuals"] = 0
        residuals = classify.ClassEvaluator._residuals

        def counting_residuals(self, *args, **kwargs):
            counts["residuals"] += 1
            return residuals(self, *args, **kwargs)

        monkeypatch.setattr(classify.ClassEvaluator, "_residuals", counting_residuals)
        code, _, _ = run(capsys, "sweep", "--n", "5", "--k", "6", "--out", str(tmp_path), "--format", "json")
        assert code == 0
        structures = json.loads((tmp_path / "summary.json").read_text())["structures"]
        points = len(json.loads((tmp_path / "f1.json").read_text())["sweep"])
        assert counts["evaluators"] == len(structures) == 4
        assert counts["joins"] == 1
        assert counts["residuals"] == len(structures)  # one batch of the whole grid per structure
        assert points > 1

    def test_cost_guard_no_per_point_objects(self, capsys, tmp_path, monkeypatch):
        # A valid grid is checked as two arrays, with no MetricParams at all,
        # the sweep builds no per-point report objects, and the float and bool
        # columns of a file are formatted a column at a time: the number of
        # single values formatted does not grow with the grid.
        counts = {"params": 0, "report": 0, "cells": 0}
        post_init = metricgeom.MetricParams.__post_init__

        def counting(key, original):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(metricgeom.MetricParams, "__post_init__", counting("params", post_init))
        monkeypatch.setattr(classify.ClassReport, "__init__", counting("report", classify.ClassReport.__init__))
        for kind in (float, bool):
            monkeypatch.setitem(report._SCALARS, kind, counting("cells", report._SCALARS[kind]))
        cells = []
        for step in ("0.25", "1.0"):
            counts["cells"] = 0
            argv = ["sweep", "--n", "5", "--k", "6", "--grid-step", step, "--format", "json"]
            assert run(capsys, *argv, "--out", str(tmp_path / step))[0] == 0
            cells.append(counts["cells"])
        points = len(json.loads((tmp_path / "0.25" / "f1.json").read_text())["sweep"])
        assert points == 145 and counts["params"] == counts["report"] == 0
        assert cells[0] == cells[1]

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize(
        "args",
        [
            ("--n", "5", "--k", "6"),
            ("--n", "5", "--k", "6", "--grid-step", "1.0"),
            ("--n", "5", "--k", "4", "--extra-points", "0.3,2.0;1.5,1.5", "--kappa", "3.5"),
        ],
    )
    def test_files_match_the_per_row_rendering(self, capsys, tmp_path, fmt, args):
        argv = ["sweep", *args, "--out", str(tmp_path), "--format", fmt]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())["structures"]
        for label, text in per_row_rendering(argv, summary).items():
            assert (tmp_path / label).read_text() == text, label

    def test_disagreeing_grid_verdict_fails_the_sweep(self, capsys, tmp_path, monkeypatch):
        def empty_sets(evaluators):
            return [dict.fromkeys(classify.CONDITION_NAMES, classify.CharacteristicSet(kind="empty")) for _ in evaluators]

        monkeypatch.setattr(classify, "zero_sets", empty_sets)
        out = tmp_path / "bad"
        code, _, err = run(capsys, "sweep", "--n", "4", "--k", "4", "--out", str(out), "--format", "json")
        assert code == 1
        assert "f0 g1 at (s, t) = (0.25, 0.25)" in err
        assert not out.exists()


def csv_text(header, rows) -> str:
    """Comma-joined lines; cells are preformatted strings."""
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def per_row_rendering(argv, summary: dict) -> dict[str, str]:
    """The sweep files of a run as they were written before sweeps were
    columnar: one ClassReport per grid point from ClassEvaluator.report, then
    json_dumps of one dict per row, or the CSV and text loops over the
    reports.  The rest of a JSON file (config, space, structure checks,
    summary) is read back from the file; ``summary`` is that of summary.json."""
    cfg = config_from_args(build_parser().parse_args(argv))
    kappa = float(cfg.n - 1) if cfg.kappa is None else cfg.kappa
    grid = classify.build_grid(cfg.grid_min, cfg.grid_max, cfg.grid_step, extras=SPECIAL_POINTS + cfg.extra_points)
    ps = flagf.build_phi_space(flagf.build_automorphism(cfg.n, 1, cfg.k))
    split = flagf.build_split(ps)
    fs = flagf.generate_f_structures(ps)
    names = classify.CONDITION_NAMES
    ext = {"json": "json", "csv": "csv", "text": "txt"}[cfg.format]
    out = {}
    for label in summary:
        ev = classify.ClassEvaluator(flagf.structure_by_label(fs, label), split)
        reports = [ev.report(metricgeom.MetricParams(s, t, kappa)) for s, t in grid]
        path = Path(cfg.out) / f"{label}.{ext}"
        if cfg.format == "json":
            doc = json.loads(path.read_text())
            doc["sweep"] = [
                {
                    "s": r.s,
                    "t": r.t,
                    "residuals": {n_: r.residuals[n_] for n_ in names},
                    "memberships": {n_: r.memberships[n_] for n_ in names},
                    "chain_ok": r.chain_ok,
                }
                for r in reports
            ]
            out[path.name] = json_dumps(doc)
        elif cfg.format == "csv":
            header = ["s", "t", "kill_residual", "nk_residual", "g1_residual", "kill", "nk", "g1"]
            rows = [
                [fmt_float(r.s), fmt_float(r.t)]
                + [fmt_float(r.residuals[n_]) for n_ in names]
                + [str(r.memberships[n_]).lower() for n_ in names]
                for r in reports
            ]
            out[path.name] = csv_text(header, rows)
        else:
            lines = [f"structure {label}"]
            for r in reports:
                cells = " ".join(
                    f"{n_}={fmt_float(r.residuals[n_])}{'*' if r.memberships[n_] else ''}" for n_ in names
                )
                lines.append(f"s={fmt_float(r.s)} t={fmt_float(r.t)} {cells}")
            lines.append("summary:")
            lines += [f"  {n_}: {summary[label][n_]['description']}" for n_ in names]
            out[path.name] = "\n".join(lines) + "\n"
    return out


class TestBracketJoins:
    """Each call builds its space once: one join of the [h, m] brackets (read
    for reductivity, the split's blocks and ad(h) on m) and one of [m, m]
    (the bracket tensor of the split)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--n", "5", "--k", "4"],
            ["verify", "--n", "8", "--k", "6", "--format", "json"],
            ["classify", "--n", "5", "--k", "4", "--f", "f0", "--s", "1", "--t", "2"],
            ["classify", "--n", "8", "--k", "6", "--f", "f1", "--s", "1", "--t", "2"],
            ["sweep", "--n", "5", "--k", "4", "--grid-step", "1.0"],
            ["sweep", "--n", "8", "--k", "6", "--grid-step", "1.0"],
        ],
    )
    def test_cost_guard_one_h_m_and_one_m_m_join(self, capsys, tmp_path, monkeypatch, argv):
        joins, original = [], liealg._bracket_join

        def counting(n, x_entries, y_entries, dy):
            joins.append("[m, m]" if x_entries is y_entries else "[h, m]")
            return original(n, x_entries, y_entries, dy)

        monkeypatch.setattr(liealg, "_bracket_join", counting)
        out = ["--out", str(tmp_path)] if argv[0] == "sweep" else []
        code, _, _ = run(capsys, *argv, *out)
        assert code == 0
        assert sorted(joins) == ["[h, m]", "[m, m]"]


class TestFixedCostPerCall:
    """What every call builds before its command runs: the subparser of its
    command alone, and for verify phi applied twice, to the probe pairs and to
    their brackets."""

    @pytest.mark.parametrize(
        "argv,subparsers",
        [
            (["verify", "--n", "5", "--k", "4"], ["verify"]),
            (["classify", "--n", "5", "--k", "4", "--f", "f0", "--s", "1", "--t", "2"], ["classify"]),
            (["sweep", "--n", "5", "--k", "4", "--grid-step", "1.0"], ["sweep"]),
            (["-h"], ["verify", "classify", "sweep"]),
            ([], ["verify", "classify", "sweep"]),
            (["bogus"], ["verify", "classify", "sweep"]),
        ],
    )
    def test_cost_guard_one_subparser_per_command(self, capsys, tmp_path, monkeypatch, argv, subparsers):
        built, original = [], argparse._SubParsersAction.add_parser

        def counting(self, name, **kwargs):
            built.append(name)
            return original(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
        out = ["--out", str(tmp_path)] if argv[:1] == ["sweep"] else []
        try:
            main([*argv, *out])
        except SystemExit:  # help, and a missing or unknown command
            pass
        assert built == subparsers

    def test_cost_guard_phi_applied_twice_per_verify(self, capsys, monkeypatch):
        stacks, original = [], phispace._apply_phi

        def counting(spec, mats):
            stacks.append(len(mats))
            return original(spec, mats)

        monkeypatch.setattr(phispace, "_apply_phi", counting)
        code, _, _ = run(capsys, "verify", "--n", "8", "--k", "6")
        assert code == 0
        assert stacks == [20, 10]  # the ten pairs (X, Y) as one stack, then their brackets


class TestNonFiniteValues:
    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "--f", "f0", "--s", "inf", "--t", "1"),
            ("classify", "--f", "f0", "--s", "nan", "--t", "1"),
            ("classify", "--f", "f0", "--s", "1", "--t", "nan"),
            ("classify", "--f", "f0", "--s", "1", "--t", "1", "--kappa", "inf"),
            ("classify", "--f", "f0", "--s", "1", "--t", "1", "--kappa", "nan"),
            ("sweep", "--grid-min", "nan"),
            ("sweep", "--grid-max", "inf"),
            ("sweep", "--grid-step", "nan"),
            ("sweep", "--grid-step", "inf"),
            ("sweep", "--extra-points", "1,inf"),
            # finite, but 1/s, s + t, kappa * s or t/s overflows
            ("classify", "--f", "f0", "--s", "1e-320", "--t", "1"),
            ("classify", "--f", "f0", "--s", "1e308", "--t", "1e308", "--format", "json"),
            ("classify", "--f", "f0", "--s", "1e-308", "--t", "1e308", "--kappa", "1"),
            ("sweep", "--grid-min", "1e-320", "--grid-max", "1e-319", "--grid-step", "1e-320"),
            # verify's kappa: subnormal, kappa * 5 overflows, or a check value overflows
            ("verify", "--kappa", "1e-320"),
            ("verify", "--kappa", "1e308"),
            ("verify", "--kappa", "3e307"),
            ("verify", "--n", "12", "--kappa", "2e307"),
            # a subnormal kappa, for every command
            ("classify", "--f", "f0", "--s", "1", "--t", "1.3333333333333333", "--kappa", "1e-320"),
            ("sweep", "--kappa", "1e-320"),
            # n above classify.MAX_N, k above classify.MAX_K
            ("verify", "--n", "41"),
            ("verify", "--n", "200"),
            ("classify", "--f", "f0", "--s", "1", "--t", "1", "--k", "18"),
            ("sweep", "--k", "100"),
            # more than classify.MAX_GRID_POINTS points
            ("sweep", "--grid-step", "1e-9"),
            ("sweep", "--grid-step", "5e-324"),
        ],
    )
    def test_rejected_as_invalid_configuration(self, capsys, tmp_path, argv):
        out = ("--out", str(tmp_path / "out")) if argv[0] == "sweep" else ()
        code, _, err = run(capsys, argv[0], "--n", "5", "--k", "4", *out, *argv[1:])
        assert code == 2
        assert "flagf: invalid configuration" in err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "--f", "f2", "--s", "1e-200", "--t", "1e-200"),
            ("sweep", "--grid-min", "1e-200", "--grid-max", "1e-199", "--grid-step", "1e-200"),
        ],
    )
    def test_overflowing_residual_is_invalid_configuration(self, capsys, tmp_path, argv):
        # Every value MetricParams checks is finite here, but channel
        # coefficients near 5e199 square to inf in the pair norms.
        out = ("--out", str(tmp_path / "out")) if argv[0] == "sweep" else ()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            code, stdout, err = run(capsys, argv[0], "--n", "6", "--k", "6", *out, *argv[1:])
        assert code == 2 and stdout == ""
        assert err.startswith("flagf: invalid configuration: ") and "Traceback" not in err
        assert "a class residual overflows at (s, t) = (1e-200, 1e-200)" in err
        assert not (tmp_path / "out").exists()

    def test_oversized_grid_is_refused_before_it_is_built(self, capsys, tmp_path):
        # 2.75e9 values per axis: building them alone would take minutes and 22 GB.  CPU time, not
        # wall time, so that a loaded machine does not fail the bound; the refusal peaks near 0.25 MB.
        import tracemalloc

        start = time.process_time()
        tracemalloc.start()
        try:
            argv = ("sweep", "--n", "5", "--k", "4", "--out", str(tmp_path / "out"), "--grid-step", "1e-9")
            code, _, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.process_time() - start < 1.0
        assert code == 2 and "MAX_GRID_POINTS" in err and peak < 4_000_000

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("classify", "--f", "f0", "--s", "1", "--t", "1"), "classification requires the m_blocks=1 flag space"),
            (("sweep", "--out", "never-written"), "sweep requires the m_blocks=1 flag space"),
        ],
        ids=["classify", "sweep"],
    )
    def test_large_space_is_refused_before_it_is_built(self, capsys, monkeypatch, tmp_path, argv, message):
        # m_blocks is read off the configuration before the space is built: at (40, 16, m_blocks 9)
        # the space alone peaks at 41 MB (its [h, m] table, dim h = 263) and 0.2 s CPU.  The
        # refusals peak near 0.4 MB.  CPU time, as above.
        import tracemalloc

        monkeypatch.chdir(tmp_path)
        start = time.process_time()
        tracemalloc.start()
        try:
            code, stdout, err = run(capsys, argv[0], "--n", "40", "--k", "16", "--m-blocks", "9", *argv[1:])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.process_time() - start < 1.0
        assert code == 2 and stdout == "" and peak < 4_000_000
        assert err == f"flagf: invalid configuration: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_an_invalid_automorphism_is_named_before_the_space_is_refused(self, capsys, monkeypatch, tmp_path):
        # n - 2 m_blocks - 1 < 0: build_automorphism's message, not a refusal of the space.
        monkeypatch.chdir(tmp_path)
        for argv in (("verify",), ("classify", "--f", "f0", "--s", "1", "--t", "1"), ("sweep", "--out", "never-written")):
            code, _, err = run(capsys, argv[0], "--n", "5", "--k", "16", "--m-blocks", "3", *argv[1:])
            assert code == 2
            assert err == "flagf: invalid configuration: need n - 2*m_blocks - 1 >= 0, got n=5, m_blocks=3\n"

    def test_the_largest_space_is_verified_on_theta_blocks(self, capsys, monkeypatch, tmp_path):
        # At (40, 16, m_blocks 9), 3^7 - 1 + 2^8 = 2442 structures on d = 517: one (S, d, d) float64
        # stack would be 5.2 GB.  On theta's blocks (21 of size 1, 178 of 2, 35 of 4) the structures
        # take 25 MB, and the whole verify peaked at 90 MB of tracemalloc (1.5 s on a 2-core Xeon, one
        # BLAS thread); the bound leaves 1.5x of that.
        import tracemalloc

        monkeypatch.chdir(tmp_path)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "verify", "--n", "40", "--k", "16", "--m-blocks", "9", "--format", "json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        report = json.loads(out)
        assert code == 0 and report["passed"] and err == ""
        assert len(report["structures"]["f"]) == 2186 and len(report["structures"]["product"]) == 256
        assert peak < 140_000_000


    @pytest.mark.parametrize("command", ["verify", "classify", "sweep"])
    def test_size_limits_accept_their_bounds(self, command, tmp_path):
        extra = {"verify": [], "classify": ["--f", "f0", "--s", "1", "--t", "1"], "sweep": ["--out", str(tmp_path)]}
        argv = [command, "--n", str(classify.MAX_N), "--k", str(classify.MAX_K), *extra[command]]
        cfg = config_from_args(build_parser().parse_args(argv))
        assert (cfg.n, cfg.k) == (classify.MAX_N, classify.MAX_K) == (40, 16)


class TestConfigDict:
    """The config block of a report, written out for one argv per command: a
    command's own options as given, the others at their defaults."""

    CASES = {
        ("verify", "--n", "5", "--k", "4"): {
            "command": "verify", "n": 5, "m_blocks": 1, "k": 4, "f": None, "s": None, "t": None,
            "grid": {"min": 0.25, "max": 3.0, "step": 0.25}, "extra_points": [], "format": "text",
            "seed": 0, "kappa": None,
        },
        ("classify", "--n", "6", "--k", "6", "--f=-f2", "--s", "1.5", "--t", "3", "--kappa", "2", "--seed", "7",
         "--format", "json"): {
            "command": "classify", "n": 6, "m_blocks": 1, "k": 6, "f": "-f2", "s": 1.5, "t": 3.0,
            "grid": {"min": 0.25, "max": 3.0, "step": 0.25}, "extra_points": [], "format": "json",
            "seed": 7, "kappa": 2.0,
        },
        ("sweep", "--n", "8", "--k", "6", "--m-blocks", "1", "--grid-min", "0.5", "--grid-step", "1",
         "--extra-points", "0.3, 2.0;1.5,1.5;", "--out", "reports", "--format", "csv"): {
            "command": "sweep", "n": 8, "m_blocks": 1, "k": 6, "f": None, "s": None, "t": None,
            "grid": {"min": 0.5, "max": 3.0, "step": 1.0}, "extra_points": [[0.3, 2.0], [1.5, 1.5]],
            "format": "csv", "seed": 0, "kappa": None,
        },
    }

    @pytest.mark.parametrize("whole_tree", [False, True])
    @pytest.mark.parametrize("argv", list(CASES), ids=lambda argv: argv[0])
    def test_config_block(self, argv, whole_tree):
        # json_dumps tells the key order and 1 from 1.0 apart, which == does not
        parser = build_parser() if whole_tree else build_parser(argv[0])
        got = cli._config_dict(config_from_args(parser.parse_args(argv)))
        assert json_dumps(got) == json_dumps(self.CASES[argv])


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify",),
            ("classify", "--f", "f0", "--s", "1", "--t", "1"),
            ("sweep",),
        ],
    )
    @pytest.mark.parametrize("seed", ["-1", "-4242"])
    def test_negative_seed_is_invalid_configuration(self, capsys, tmp_path, argv, seed):
        out = ("--out", str(tmp_path / "out")) if argv[0] == "sweep" else ()
        code, stdout, err = run(capsys, argv[0], "--n", "5", "--k", "4", "--seed", seed, *out, *argv[1:])
        assert code == 2 and stdout == ""
        assert err == f"flagf: invalid configuration: --seed must be non-negative, got {seed}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["verify", "classify", "sweep"])
    def test_seed_zero_is_accepted(self, command, tmp_path):
        extra = {"verify": [], "classify": ["--f", "f0", "--s", "1", "--t", "1"], "sweep": ["--out", str(tmp_path)]}
        argv = [command, "--n", "5", "--k", "4", "--seed", "0", *extra[command]]
        assert config_from_args(build_parser().parse_args(argv)).seed == 0

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "5"])
        assert exc.value.code == 2
