"""Command line front end: build spaces, verify, classify, sweep.

    flagf verify   --n 5 --k 4
    flagf classify --n 5 --k 4 --f f0 --s 1 --t 1.3333333
    flagf sweep    --n 5 --k 6 --out reports/ --format json

verify reports only what construction does not already raise on (theta's
order and fixed vectors, reductivity, the dimension of m and the split's
dimensions and orthogonal decomposition stop the build), each check
measuring its quantity another way than the code that produced it.  It
re-checks every f- and P-structure of the space in one call on theta's
blocks (canonical.verify_structures), so it runs every configuration it
accepts, and counts them against the paper's closed form,
holds each generated f-structure to the exact matrix of its sign pair, which
the class engine reads (canonical.sign_pair_matrices), compares the closed
and solved U on their nonzeros (metricgeom.u_nonzeros) and reads the solved
U at the neutral metric, checks the connection's metric compatibility on
every basis triple from the same nonzeros and the class chain on the
f-structures up to sign; sweep's per-structure checks come from one stacked
call too.

A call builds the argument parser of its own command only (build_parser);
help, a missing command and an unknown one build all three, and every
help, usage and error text reads as with the whole tree.

Exit codes: 0 all checks pass / report written, 1 check or I/O failure,
2 invalid configuration (a negative --seed among them).  Reports are
deterministic for a fixed config and seed; sweep output files are written
atomically.  A sweep exits 1 without writing reports if any grid verdict
contradicts the exact zero set.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import canonical, classify, metricgeom, phispace
from .liealg import sum_by_key
from .report import Rows, atomic_write_text, fill, fmt_float, fmt_table, json_dumps
from .tolerances import NAT_RED_MARGIN, TAU_CONNECTION, TAU_METRIC_COMPAT, TAU_NAT_RED, TAU_PHI, TAU_STRUCTURE
from .tolerances import TAU_GOLDEN, TAU_U_NEUTRAL, TAU_U_ORACLE

VERIFY_ST = (0.1, 5.0)  # the range verify draws s and t from


class ConfigError(Exception):
    pass


COMMANDS = ("verify", "classify", "sweep")
_GRID_OPTIONS = ("grid_min", "grid_max", "grid_step")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser, with only the subparser of ``command`` if it names
    one: the first argument selects the subparser, and the rest never reach
    the others.  Without a command, all three, so that help, a missing
    command and an unknown one read as they list every command."""
    parser = argparse.ArgumentParser(
        prog="flagf",
        description="Canonical f-structures on SO(n)/SO(2)xSO(n-3) and their metric classes.",
    )
    built = (command,) if command in COMMANDS else COMMANDS
    # with one command built, the usage line of an error still names all three
    metavar = "{" + ",".join(COMMANDS) + "}" if len(built) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def add_parser(name, summary):  # a command's parser, with the options every command takes
        p = sub.add_parser(name, help=summary)
        p.add_argument("--n", type=int, required=True, help="matrix size n of SO(n)")
        p.add_argument("--m-blocks", type=int, default=1, help="number of rotation blocks")
        p.add_argument("--k", type=int, required=True, help="even order of the automorphism")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
        p.add_argument("--kappa", type=float, default=None, help="metric normalization (default n-1)")
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", type=str, default=None, help="output file (verify/classify) or directory (sweep)")
        # the options of the other commands, as a command without them reads them: every namespace has every field
        p.set_defaults(f=None, s=None, t=None, extra_points="", **dict(zip(_GRID_OPTIONS, classify.DEFAULT_GRID)))
        return p

    if "verify" in built:
        add_parser("verify", "run the full verification suite")

    if "classify" in built:
        pc = add_parser("classify", "class membership of one structure at one (s, t)")
        pc.add_argument("--f", type=str, required=True,
                        help="structure label (f0, or f1..f4); pass a negative one as --f=-f1")
        pc.add_argument("--s", type=float, required=True)
        pc.add_argument("--t", type=float, required=True)

    if "sweep" in built:
        pw = add_parser("sweep", "sweep the (s, t) grid for every f-structure")
        for option in _GRID_OPTIONS:
            pw.add_argument("--" + option.replace("_", "-"), type=float)
        pw.add_argument("--extra-points", type=str, help='extra grid points, e.g. "0.3,2.0;1.5,1.5"')
    return parser


def config_from_args(cfg: argparse.Namespace) -> argparse.Namespace:
    """Validate the parsed arguments and return them, ``extra_points`` parsed
    into a tuple of (s, t); raises ConfigError on an invalid configuration."""
    extras = []
    for chunk in cfg.extra_points.replace(" ", "").split(";"):
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"cannot parse extra point {chunk!r} (expected s,t)")
        try:
            s, t = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ConfigError(f"cannot parse extra point {chunk!r}: {exc}") from exc
        if not (0 < s < math.inf and 0 < t < math.inf):
            raise ConfigError(f"extra points must be positive and finite, got ({s}, {t})")
        extras.append((s, t))
    cfg.extra_points = tuple(extras)
    if cfg.command == "sweep" and cfg.out is None:
        raise ConfigError("sweep requires --out DIRECTORY")
    if cfg.command in ("verify", "classify") and cfg.format == "csv":
        raise ConfigError(f"format csv is not supported for {cfg.command}")
    # Written as 0 < x < inf, so that NaN and infinity are rejected too.
    if cfg.command == "sweep" and not 0 < cfg.grid_step < math.inf:
        raise ConfigError("--grid-step must be positive and finite")
    if cfg.command == "sweep" and not 0 < cfg.grid_min <= cfg.grid_max < math.inf:
        raise ConfigError("grid bounds must satisfy 0 < min <= max < inf")
    if cfg.command == "classify" and not (0 < cfg.s < math.inf and 0 < cfg.t < math.inf):
        raise ConfigError("--s and --t must be positive and finite")
    if cfg.seed < 0:  # numpy seeds must be non-negative
        raise ConfigError(f"--seed must be non-negative, got {cfg.seed}")
    if not (cfg.n <= classify.MAX_N and cfg.k <= classify.MAX_K):
        raise ConfigError(f"need n <= MAX_N = {classify.MAX_N} and k <= MAX_K = {classify.MAX_K}")
    # kappa scales every metric value: it must be normal, since a subnormal kappa has lost the
    # digits the residuals resolve.  verify also forms kappa * s and kappa * t, s, t in VERIFY_ST.
    if cfg.kappa is not None and not sys.float_info.min <= cfg.kappa < math.inf:
        raise ConfigError("--kappa must be a normal positive finite number")
    if cfg.command == "verify" and cfg.kappa is not None and not cfg.kappa * VERIFY_ST[1] < math.inf:
        raise ConfigError(f"verify needs kappa * {VERIFY_ST[1]} finite")
    return cfg


def _config_dict(cfg: argparse.Namespace) -> dict:
    """The report's config block: every option but --out, the grid as one object."""
    return {
        "command": cfg.command,
        "n": cfg.n,
        "m_blocks": cfg.m_blocks,
        "k": cfg.k,
        "f": cfg.f,
        "s": cfg.s,
        "t": cfg.t,
        "grid": {"min": cfg.grid_min, "max": cfg.grid_max, "step": cfg.grid_step},
        "extra_points": [list(p) for p in cfg.extra_points],
        "format": cfg.format,
        "seed": cfg.seed,
        "kappa": cfg.kappa,
    }


def _automorphism(cfg: argparse.Namespace) -> phispace.AutomorphismSpec:
    try:
        return phispace.build_automorphism(cfg.n, cfg.m_blocks, cfg.k)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _flag_space(cfg: argparse.Namespace, what: str):
    """The m_blocks = 1 flag space that ``what`` requires, its split and its
    f-structures; another space is refused before it is built."""
    spec = _automorphism(cfg)
    if cfg.m_blocks != 1:
        raise ConfigError(f"{what} requires the m_blocks=1 flag space")
    ps = phispace.build_phi_space(spec)
    return ps, metricgeom.build_split(ps), canonical.generate_f_structures(ps)


def _space_dict(ps: phispace.PhiSpace) -> dict:
    return {
        "n": ps.spec.n,
        "m_blocks": ps.spec.m_blocks,
        "k": ps.spec.k,
        "dims": {"g": ps.h.dim + ps.m.dim, "h": ps.h.dim, "m": ps.m.dim},
    }


def _structure_dict(cs: canonical.CanonicalStructure, check: canonical.StructureCheck | None = None) -> dict:
    d = {
        "id": cs.label,
        "kind": cs.kind,
        "signature": list(cs.signature),
        "polynomial": [float(c) for c in cs.theta_polynomial],
    }
    if check is not None:
        d["checks"] = {key: value for key, value in asdict(check).items() if key != "label"}
    return d


# ----------------------------------------------------------------- verify --


def cmd_verify(cfg: argparse.Namespace) -> tuple[int, dict]:
    """Run the whole structural verification suite; exit 0 iff all pass."""
    spec = _automorphism(cfg)
    rng = np.random.default_rng(cfg.seed)
    n, k = cfg.n, cfg.k
    # 3^a - 1 f- and 2^b P-structures for the a angles 2 pi l / k of theta below pi and the b up to pi,
    # read off the eigenvalues of phi's blocks (l = 0 is h), not off the theta_angles generation uses
    angles = np.concatenate([np.angle(np.linalg.eigvals(mats)).ravel() for _, mats in spec.phi_blocks])
    angle_set = set(np.rint(np.abs(angles) * k / (2 * np.pi)).astype(int).tolist()) - {0}
    expected = {"f": 3 ** len(angle_set - {k // 2}) - 1, "product": 2 ** len(angle_set)}
    ps = phispace.build_phi_space(spec)
    checks: list[dict] = []

    def add(name: str, passed: bool, residual: float | None = None, detail=None):
        entry: dict = {"name": name, "passed": bool(passed)}
        if residual is not None:
            entry["residual"] = float(residual)
        if detail is not None:
            entry["detail"] = detail
        checks.append(entry)

    reg = phispace.check_regularity(ps)
    add("regularity-direct-sum", reg.direct_sum)
    add("regularity-nonsingular-restriction", reg.nonsingular_on_image)
    add("regularity-kernel-stable", reg.kernel_square_stable)
    add("regularity-conditions-agree", reg.agree)

    a = rng.standard_normal((10, 2, n, n))
    xy = a - a.swapaxes(-1, -2)
    dev_b, dev_iso, dev_conj = phispace.phi_residuals(ps, xy)
    add("phi-preserves-bracket", dev_b < TAU_PHI, dev_b)
    add("phi-isometry", dev_iso < TAU_PHI, dev_iso)
    add("phi-is-conjugation-by-b", dev_conj < TAU_PHI, dev_conj)

    fs = canonical.generate_f_structures(ps)
    prods = canonical.generate_product_structures(ps)
    for name, family in (("f", fs), ("product", prods)):
        detail = {"count": len(family), "up_to_sign": len(family) // 2, "expected": expected[name]}
        add(f"{name}-structure-count", len(family) == expected[name], detail=detail)

    structure_checks = canonical.verify_structures(fs + prods, ps)
    for name, field in (
        ("structure-defining-identities", "defining_residual"),
        ("structure-polynomial-reconstruction", "polynomial_residual"),
        ("structure-theta-commutation", "theta_commutation"),
        ("structure-ad-invariance", "ad_invariance"),
        ("structure-pairwise-commutation", "pairwise_commutation"),
    ):
        worst = max([0.0] + [getattr(chk, field) for chk in structure_checks])
        add(name, worst < TAU_STRUCTURE, worst)

    for name, family in (("f", fs), ("product", prods)):
        add(f"{name}-negation-closure", canonical.negation_residual(family) < TAU_STRUCTURE)

    if k in (4, 6) and cfg.m_blocks == 1:
        dev_golden = canonical.golden_action_check(ps, fs)
        add("golden-action", dev_golden < TAU_GOLDEN, dev_golden)

    if cfg.m_blocks == 1:
        split = metricgeom.build_split(ps)
        # the class engine reads each f from its sign pair; the generated f must be that matrix
        f_mats, p_mats = (classify.structure_matrices(family, split) for family in (fs, prods))
        pairs = canonical.sign_pair_matrices([cs.sign_pair for cs in fs], split)
        dev_pair = float(np.max(np.abs(f_mats - pairs), initial=0.0))
        add("structure-sign-pair", dev_pair < TAU_STRUCTURE, dev_pair)
        kappa = float(n - 1) if cfg.kappa is None else cfg.kappa
        # closed and solved U at five random metrics and the neutral one, (1, 1), which comes last
        oracle = metricgeom.MetricGrid.of([tuple(rng.uniform(*VERIFY_ST, 2)) for _ in range(5)] + [(1.0, 1.0)], kappa)
        (kc, uc), (ks, us) = (metricgeom.u_nonzeros(split, oracle, mode) for mode in ("closed", "solved"))
        diff = sum_by_key(np.concatenate([kc, ks]), np.concatenate([uc, -us]))[1]  # U closed - U solved
        dev_u = float(np.max(np.abs(diff), initial=0.0))
        add("u-oracle-agreement", dev_u < TAU_U_ORACLE, dev_u)
        u11 = float(np.max(np.abs(us[:, -1]), initial=0.0))
        add("u-vanishes-at-neutral-metric", u11 < TAU_U_NEUTRAL, u11)

        sampled = metricgeom.MetricGrid.of(rng.uniform(*VERIFY_ST, (5, 2)), kappa)
        dev_mc = float(np.max(classify.metric_compat_residual(f_mats, split, sampled)))
        dev_pc = float(np.max(classify.product_compat_residual(p_mats, split, sampled)))
        add("metric-f-compatibility", dev_mc < TAU_METRIC_COMPAT, dev_mc)
        add("metric-product-compatibility", dev_pc < TAU_METRIC_COMPAT, dev_pc)

        nat = metricgeom.MetricGrid.of([(1.0, 1.0), (2.0, 1.0), (1.0, 2.0)], kappa)
        r_nat, *r_off = metricgeom.naturally_reductive_residual(split, nat).tolist()
        add("naturally-reductive-at-neutral-metric", r_nat < TAU_NAT_RED, r_nat)
        add("not-naturally-reductive-off-neutral", min(r_off) > NAT_RED_MARGIN, min(r_off))

        p_rand = metricgeom.MetricParams(float(rng.uniform(0.2, 4.0)), float(rng.uniform(0.2, 4.0)), kappa)
        dev_conn = metricgeom.connection_compat_residual(split, p_rand)
        add("connection-metric-compatibility", dev_conn < TAU_CONNECTION, dev_conn)

        # -f lies in f's classes (f-negation-closure pairs them): the chain is checked up to sign, as in sweep
        special = metricgeom.MetricGrid.of(classify.SPECIAL_POINTS, kappa)
        reps = [cs for cs in fs if not cs.label.startswith("-")]
        try:
            chain = all(ev.sweep(special).chain_ok.all() for ev in classify.class_evaluators(reps, split))
        except ValueError:  # a bracket tensor of more than one magnitude, which the class engine refuses
            chain = False
        add("class-chain-at-special-points", chain)

    passed = all(c["passed"] for c in checks)
    report = {
        "command": "verify",
        "config": _config_dict(cfg),
        "space": _space_dict(ps),
        "structures": {
            "f": [cs.label for cs in fs],
            "product": [cs.label for cs in prods],
        },
        "checks": checks,
        "passed": passed,
    }
    return (0 if passed else 1), report


def _verify_text(report: dict) -> str:
    lines = [
        f"flagf verify: n={report['space']['n']} k={report['space']['k']} "
        f"m_blocks={report['space']['m_blocks']} "
        f"dims(g,h,m)=({report['space']['dims']['g']},{report['space']['dims']['h']},{report['space']['dims']['m']})"
    ]
    for c in report["checks"]:
        mark = "PASS" if c["passed"] else "FAIL"
        extra = f"  residual={fmt_float(c['residual'])}" if "residual" in c else ""
        detail = f"  {c['detail']}" if "detail" in c else ""
        lines.append(f"[{mark}] {c['name']}{extra}{detail}")
    lines.append(f"result: {'PASS' if report['passed'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------- classify --


def cmd_classify(cfg: argparse.Namespace) -> tuple[int, dict]:
    ps, split, fs = _flag_space(cfg, "classification")
    try:
        cs = canonical.structure_by_label(fs, cfg.f)
    except KeyError as exc:
        raise ConfigError(f"unknown structure {cfg.f!r}; known: "
                          + ", ".join(sorted(c.label for c in fs))
                          + " (pass a negative label as --f=-f1)") from exc

    try:
        params = metricgeom.MetricParams.for_space(ps, cfg.s, cfg.t, cfg.kappa)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    ev = classify.ClassEvaluator(cs, split)
    # the generated f, not the evaluator's sign-pair matrix, which is compatible by construction
    compat = classify.metric_compat_residual(classify.structure_matrices([cs], split), split, params)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing residual raises ValueError
            rep = ev.report(params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    report = {
        "command": "classify",
        "config": _config_dict(cfg),
        "space": _space_dict(ps),
        "structure": _structure_dict(cs),
        "params": {"s": params.s, "t": params.t, "kappa": params.kappa},
        "metric_compatibility_residual": compat,
        "results": {
            name: {
                "residual": rep.residuals[name],
                "member": rep.memberships[name],
                "indeterminate": rep.indeterminate[name],
                "witness": None if rep.witnesses[name] is None else list(rep.witnesses[name]),
            }
            for name in classify.CONDITION_NAMES
        },
        "chain_ok": rep.chain_ok,
    }
    return 0, report


def _classify_text(report: dict) -> str:
    lines = [
        f"flagf classify: {report['structure']['id']} on n={report['space']['n']} "
        f"k={report['space']['k']} at (s, t)=({fmt_float(report['params']['s'])}, "
        f"{fmt_float(report['params']['t'])})"
    ]
    for name in classify.CONDITION_NAMES:
        r = report["results"][name]
        verdict = "member" if r["member"] else ("indeterminate" if r["indeterminate"] else "non-member")
        witness = "none" if r["witness"] is None else "({}, {})".format(*r["witness"])
        lines.append(f"{name.upper():>4}: {verdict}  residual={fmt_float(r['residual'])}  witness={witness}")
    lines.append(f"chain_ok: {report['chain_ok']}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ sweep --


def cmd_sweep(cfg: argparse.Namespace) -> tuple[int, dict]:
    kappa = float(cfg.n - 1) if cfg.kappa is None else cfg.kappa
    try:
        extras = classify.SPECIAL_POINTS + cfg.extra_points
        grid = classify.build_grid(cfg.grid_min, cfg.grid_max, cfg.grid_step, extras, kappa)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    ps, split, fs = _flag_space(cfg, "sweep")
    reps = sorted((cs for cs in fs if not cs.label.startswith("-")), key=lambda c: c.label)

    results = []
    evs = classify.class_evaluators(reps, split)
    for cs, ev, summary in zip(reps, evs, classify.zero_sets(evs)):
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # an overflowing residual raises ValueError
                swept = ev.sweep(grid)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        problem = classify.grid_disagreement(summary, swept)
        if problem is not None:
            print(f"flagf: grid sweep contradicts the exact zero set: {problem}", file=sys.stderr)
            return 1, {}
        results.append((cs, swept, summary))

    checks = {chk.label: chk for chk in canonical.verify_structures(fs, ps)}
    outdir = Path(cfg.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        written = []
        summary_all = {}
        for cs, swept, summary in results:
            chk = checks[cs.label]
            sdict = {name: _charset_dict(summary[name]) for name in classify.CONDITION_NAMES}
            summary_all[cs.label] = sdict
            doc = {
                "command": "sweep",
                "config": _config_dict(cfg),
                "space": _space_dict(ps),
                "structures": [_structure_dict(cs, chk)],
                "sweep": Rows(
                    {
                        "s": swept.s,
                        "t": swept.t,
                        "residuals": swept.residuals,
                        "memberships": swept.memberships,
                        "chain_ok": swept.chain_ok,
                    }
                ),
                "summary": sdict,
            }
            path = outdir / f"{cs.label}.{_ext(cfg.format)}"
            atomic_write_text(path, _render_sweep(doc, swept, cfg.format))
            written.append(str(path))

        summary_doc = {
            "command": "sweep",
            "config": _config_dict(cfg),
            "space": _space_dict(ps),
            "structures": summary_all,
        }
        spath = outdir / "summary.json"
        atomic_write_text(spath, json_dumps(summary_doc))
        written.append(str(spath))
    except OSError as exc:
        print(f"flagf: I/O failure: {exc}", file=sys.stderr)
        return 1, {}
    return 0, {"written": written, "summary": summary_all}


def _ext(fmt: str) -> str:
    return {"json": "json", "csv": "csv", "text": "txt"}[fmt]


def _charset_dict(cs: classify.CharacteristicSet) -> dict:
    return {
        "kind": cs.kind,
        "lines": [{"axis": a, "value": v} for a, v in cs.lines],
        "points": [[s, t] for s, t in cs.points],
        "equations": [],
        "description": cs.description(),
        "rank": cs.rank,
        "sigma_min_kept": cs.sigma_min_kept,
        "sigma_max_dropped": cs.sigma_max_dropped,
    }


def _render_sweep(doc: dict, swept: classify.ClassSweep, fmt: str) -> str:
    if fmt == "json":
        return json_dumps(doc)
    names = classify.CONDITION_NAMES
    if fmt == "csv":
        header = "s,t,kill_residual,nk_residual,g1_residual,kill,nk,g1\n"
        columns = [swept.s, swept.t, *(swept.residuals[n_] for n_ in names), *(swept.memberships[n_] for n_ in names)]
        return header + fill([""] + [","] * 7 + ["\n"], "", fmt_table(columns))
    columns = [swept.s, swept.t, *(col for n_ in names for col in (swept.residuals[n_], swept.memberships[n_]))]
    row = "s=%s t=%s " + " ".join(f"{n_}=%s%s" for n_ in names) + "\n"
    cells = fmt_table(columns, bools=("", "*"))  # a member's residual is starred
    lines = [f"structure {doc['structures'][0]['id']}\n", fill(row.split("%s"), "", cells), "summary:\n"]
    lines += [f"  {n_}: {doc['summary'][n_]['description']}\n" for n_ in names]
    return "".join(lines)


# ------------------------------------------------------------------- main --


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        cfg = config_from_args(args)
        if cfg.command == "verify":
            try:
                with np.errstate(over="raise"):
                    code, report = cmd_verify(cfg)
            except FloatingPointError as exc:  # only --kappa scales the values verify forms
                raise ConfigError(f"--kappa {cfg.kappa!r} overflows a verify check ({exc})") from exc
            return _deliver(cfg, report, _verify_text) or code
        if cfg.command == "classify":
            code, report = cmd_classify(cfg)
            return _deliver(cfg, report, _classify_text) or code
        code, info = cmd_sweep(cfg)
        if code == 0:
            for path in info["written"]:
                print(path)
            for label, conds in info["summary"].items():
                descs = "; ".join(f"{n_}: {conds[n_]['description']}" for n_ in classify.CONDITION_NAMES)
                print(f"{label}: {descs}")
        return code
    except ConfigError as exc:
        print(f"flagf: invalid configuration: {exc}", file=sys.stderr)
        return 2


def _deliver(cfg: argparse.Namespace, report: dict, to_text) -> int:
    """Write the report to --out or stdout: 0, or 1 on an I/O failure."""
    text = json_dumps(report) if cfg.format == "json" else to_text(report)
    if not cfg.out:
        sys.stdout.write(text)
        return 0
    try:
        atomic_write_text(Path(cfg.out), text)
    except OSError as exc:
        print(f"flagf: I/O failure: {exc}", file=sys.stderr)
        return 1
    print(cfg.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
