"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flagf
from flagf.canonical import structure_by_label
from flagf.classify import CONDITION_NAMES, ClassEvaluator, build_grid
from flagf.metricgeom import MetricParams, naturally_reductive_residual
from generation_reference import poly_in
from paper_coefficients import REFERENCE_F_COEFFS, REFERENCE_P_COEFFS
from space_reference import split_blocks
from structure_checks_reference import u_coords_tensor

FOUR_THIRDS = 4.0 / 3.0
TEST_MATRIX = [(n, k) for n in (4, 5, 6, 7, 8) for k in (4, 6)]


def _report(num: int, passed: bool, text: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {text}")
    assert passed, f"criterion {num}: {text}"


def test_criterion_01_structure_generation(get_space, get_f_structures, get_products):
    ok = True
    notes = []
    for n in (4, 5):
        fs4 = get_f_structures(n, 4)
        ok &= len(fs4) == 2 and {c.label for c in fs4} == {"f0", "-f0"}
        f0 = structure_by_label(fs4, "f0")
        ok &= np.allclose(f0.theta_polynomial, REFERENCE_F_COEFFS[4]["f0"], atol=1e-12)
        ps = get_space(n, 4)
        prods4 = get_products(n, 4)
        theta2 = np.linalg.matrix_power(ps.theta, 2)
        ok &= any(np.max(np.abs(c.matrix - theta2)) < 1e-12 for c in prods4)

        fs6 = get_f_structures(n, 6)
        ok &= len(fs6) == 8
        for label, coeffs in REFERENCE_F_COEFFS[6].items():
            cs = structure_by_label(fs6, label)
            ok &= np.allclose(cs.theta_polynomial, coeffs, atol=1e-12)
        prods6 = get_products(n, 6)
        ok &= len(prods6) == 8
        ps6 = get_space(n, 6)
        for label, coeffs in REFERENCE_P_COEFFS[6].items():
            want = poly_in(ps6.theta, coeffs)
            got = structure_by_label(prods6, label).matrix
            ok &= bool(np.max(np.abs(got - want)) < 1e-12)
        notes.append(f"n={n}")
    _report(1, ok, f"generation counts and reference coefficients ({', '.join(notes)})")


def test_criterion_02_golden_actions(get_space):
    worst = 0.0
    for n in (4, 5, 6):
        for k in (4, 6):
            ps = get_space(n, k)
            worst = max(worst, flagf.golden_action_check(ps, flagf.generate_f_structures(ps)))
    _report(2, worst < 1e-12, f"closed-form actions entrywise, max dev {worst:.2e}")


def test_criterion_03_structural_identities(get_space, get_f_structures, get_products):
    worst = 0.0
    for n, k in [(4, 4), (5, 4), (6, 4), (4, 6), (5, 6), (6, 6)]:
        ps = get_space(n, k)
        everything = get_f_structures(n, k) + get_products(n, k)
        for chk in flagf.verify_structures(everything, ps):
            worst = max(
                worst,
                chk.defining_residual,
                chk.pairwise_commutation,
                chk.ad_invariance,
                chk.theta_commutation,
            )
    _report(3, worst < 1e-10, f"identities/commutation/equivariance, max residual {worst:.2e}")


def test_criterion_04_regularity(get_space):
    ok = True
    for n, k in TEST_MATRIX:
        ps = get_space(n, k)
        rep = flagf.check_regularity(ps)
        ok &= rep.agree and rep.direct_sum
        ok &= ps.m.dim == 3 * n - 7
    _report(4, ok, f"regularity conditions and dim m = 3n-7 on {len(TEST_MATRIX)} spaces")


def test_criterion_05_splitting(get_space, get_split):
    ok = True
    worst_orth = 0.0
    worst_bracket = 0.0
    for n, k in TEST_MATRIX:
        ps = get_space(n, k)
        split = get_split(n, k)
        m1, m2, m3 = split_blocks(split)
        ok &= (m1.dim, m2.dim, m3.dim) == (2, 2 * (n - 3), n - 3)
        for a, b in ((m1, m2), (m1, m3), (m2, m3)):
            worst_orth = max(worst_orth, float(np.max(np.abs(a.coords @ b.coords.T))))
        bi = split.block_index
        for i, j, r, v in zip(*split.bracket_nonzeros):
            if bi[i] != bi[j]:
                expect = ({1, 2, 3} - {int(bi[i]), int(bi[j])}).pop()
                if bi[r] != expect:
                    worst_bracket = max(worst_bracket, abs(float(v)))
    ok &= worst_orth < 1e-12 and worst_bracket < 1e-10
    _report(
        5,
        ok,
        f"split dims, orthogonality ({worst_orth:.2e}), bracket relations ({worst_bracket:.2e})",
    )


def test_criterion_06_u_oracle_equivalence(get_split):
    worst = 0.0
    for n, k in [(5, 4), (6, 6)]:
        split = get_split(n, k)
        for s in [0.25 * i for i in range(1, 13)]:
            for t in [0.25 * i for i in range(1, 13)]:
                p = MetricParams(s, t, kappa=float(n - 1))
                dev = np.max(
                    np.abs(u_coords_tensor(split, p, "closed") - u_coords_tensor(split, p, "solved"))
                )
                worst = max(worst, float(dev))
        p11 = MetricParams(1.0, 1.0, kappa=float(n - 1))
        u11 = max(
            float(np.max(np.abs(u_coords_tensor(split, p11, "closed")))),
            float(np.max(np.abs(u_coords_tensor(split, p11, "solved")))),
        )
        worst_at_11 = u11
    ok = worst < 1e-9 and worst_at_11 < 1e-12
    _report(6, ok, f"closed vs solved U on 12x12 grid, max dev {worst:.2e}; U(1,1) = {worst_at_11:.2e}")


def test_criterion_07_order4_classification(get_split, get_f_structures):
    ok = True
    details = []
    for n in (4, 5, 6):
        split = get_split(n, 4)
        f0 = structure_by_label(get_f_structures(n, 4), "f0")
        ev = ClassEvaluator(f0, split)

        kill_set = ev.zero_set("kill")
        ok &= kill_set.kind == "points" and len(kill_set.points) == 1
        if kill_set.points:
            s_ref, t_ref = kill_set.points[0]
            ok &= abs(s_ref - 1.0) < 1e-6 and abs(t_ref - 1.333333) < 2e-6

        for t in (0.3, 1.0, FOUR_THIRDS, 2.5):
            ok &= ev.report(MetricParams(1.0, t)).residuals["nk"] < 1e-9
            for s in (0.5, 2.0):
                ok &= ev.report(MetricParams(s, t)).residuals["nk"] > 1e-3
        nk_set = ev.zero_set("nk")
        ok &= nk_set.kind == "line" and nk_set.lines == (("s", 1.0),)

        worst_g1 = float(ev.sweep(build_grid()).residuals["g1"].max())
        ok &= worst_g1 < 1e-9
        details.append(f"n={n}")
    _report(7, ok, f"order-4 classes: point (1,4/3), line s=1, G1 all ({', '.join(details)})")


def test_criterion_08_order6_classification(get_split, get_f_structures):
    ok = True
    grid = build_grid()
    for n in (4, 5, 6, 7, 8):
        split = get_split(n, 6)
        fs = get_f_structures(n, 6)
        evs = {lbl: ClassEvaluator(structure_by_label(fs, lbl), split) for lbl in ("f1", "f2", "f3", "f4")}

        for s, t in zip(grid.s.tolist(), grid.t.tolist()):
            res = {lbl: ev.report(MetricParams(s, t)).residuals for lbl, ev in evs.items()}
            at_special = abs(s - 1.0) < 1e-12 and abs(t - FOUR_THIRDS) < 1e-12
            r1 = res["f1"]["kill"]
            ok &= (r1 < 1e-9) if at_special else (r1 > 1e-3)
            for lbl in ("f2", "f3", "f4"):
                ok &= res[lbl]["kill"] > 1e-3
            rnk1 = res["f1"]["nk"]
            ok &= (rnk1 < 1e-9) if abs(s - 1.0) < 1e-12 else (rnk1 > 1e-3)
            ok &= res["f2"]["nk"] < 1e-9
            ok &= res["f3"]["nk"] < 1e-9
            ok &= res["f4"]["nk"] > 1e-3
            for lbl in ("f1", "f2", "f3", "f4"):
                ok &= res[lbl]["g1"] < 1e-9
        assert ok, f"order-6 classification failed at n={n}"
    _report(8, ok, "order-6 classes for n in 4..8 on the full default grid")


def test_criterion_09_chain_property(get_split, get_f_structures):
    violations = 0
    reports = 0
    for n, k in [(5, 4), (5, 6), (6, 6)]:
        split = get_split(n, k)
        for cs in get_f_structures(n, k):
            if cs.label.startswith("-"):
                continue
            chain_ok = ClassEvaluator(cs, split).sweep(build_grid(kappa=float(n - 1))).chain_ok
            reports += len(chain_ok)
            violations += int(np.sum(~chain_ok))
    _report(9, violations == 0, f"kill => nk => g1 in all {reports} reports, {violations} violations")


def test_criterion_10_metric_compatibility(get_split, get_f_structures):
    rng = np.random.default_rng(7)
    worst = 0.0
    structures = [(5, 4, "f0")] + [(6, 6, lbl) for lbl in ("f1", "f2", "f3", "f4")]
    for _ in range(20):
        s, t = rng.uniform(0.1, 5.0, size=2)
        for n, k, lbl in structures:
            split = get_split(n, k)
            cs = structure_by_label(get_f_structures(n, k), lbl)
            p = MetricParams(float(s), float(t), kappa=float(n - 1))
            worst = max(worst, flagf.metric_compat_residual(flagf.structure_matrices([cs], split), split, p))
    _report(10, worst < 1e-10, f"skew-adjointness of all five structures, max residual {worst:.2e}")


def test_criterion_11_natural_reductivity(get_split):
    split = get_split(5, 4)
    r_neutral = naturally_reductive_residual(split, MetricParams(1.0, 1.0, kappa=4.0))
    r_21 = naturally_reductive_residual(split, MetricParams(2.0, 1.0, kappa=4.0))
    r_12 = naturally_reductive_residual(split, MetricParams(1.0, 2.0, kappa=4.0))
    ok = r_neutral < 1e-9 and r_21 > 1e-3 and r_12 > 1e-3
    _report(
        11,
        ok,
        f"naturally reductive at (1,1) ({r_neutral:.2e}), violated at (2,1)/(1,2) "
        f"({r_21:.2e}, {r_12:.2e})",
    )


def test_criterion_12_sweep_determinism(tmp_path, capsys):
    from flagf.cli import main

    args = [
        "sweep", "--n", "4", "--k", "6", "--format", "json",
        "--grid-min", "0.5", "--grid-max", "2.0", "--grid-step", "0.5",
    ]
    code_a = main(args + ["--out", str(tmp_path / "a")])
    code_b = main(args + ["--out", str(tmp_path / "b")])
    capsys.readouterr()
    ok = code_a == 0 and code_b == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    ok &= names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        ok &= (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        if name.endswith(".json"):
            json.loads((tmp_path / "a" / name).read_text())
    _report(12, ok, f"byte-identical sweep reruns across {len(names)} files")


ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))
README_CELLS = {  # README table wording -> CharacteristicSet.description()
    "exactly (s, t) = (1, 4/3)": "(1.000000, 1.333333)",
    "exactly the line s = 1": "line s=1.000000",
    "all (s, t)": "all (s, t)",
    "never": "empty",
}


def _readme_table() -> dict:
    """{label: [kill, nk, g1] descriptions} from the classification table of README.md."""
    table = {}
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 4 or not cells[0].startswith("f"):
            continue
        for label in re.findall(r"f[₀-₉]", cells[0]):
            table["f" + str("₀₁₂₃₄₅₆₇₈₉".index(label[1]))] = [README_CELLS[c] for c in cells[1:]]
    return table


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if demo.name.startswith("05_"):
        found = dict(re.findall(r"^(f\d):\n((?:   .*\n){3})", proc.stdout, flags=re.M))
        zero_sets = {label: re.findall(r"zero set: (.*)", block) for label, block in found.items()}
        table = _readme_table()
        assert sorted(table) == ["f0", "f1", "f2", "f3", "f4"]
        assert zero_sets == table
