"""The benchmark's workloads.  Each is a closed loop: one caller, one op at a time.

A workload has a fixed op list drawn from the seed.  ``run(op)`` is the timed
call into flagf and returns the raw result; ``check(op, result)`` is untimed
and returns ``(digest, problems)``: a hash of the output bytes, compared
across passes, and the oracle's problems.  ``setup()`` builds any state the
ops share; it is timed separately as part of ``setup_s``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import shutil
from pathlib import Path

import oracle


def _quiet_main(argv: list[str]) -> tuple[int, str]:
    """Call ``flagf.cli.main`` in-process, capturing what it prints."""
    from flagf import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class VerifySuite:
    """``flagf verify --format json`` on mid-size spaces.

    Nearly all the time is structural verification (phi-space, split,
    verify_structure rebuilding ad(h)); characteristic sets are never computed.
    """

    name = "verify-suite"
    SIZES = ((12, 4), (12, 6), (16, 4), (16, 6))

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.ops = [
            ["verify", "--n", str(n), "--k", str(k), "--seed", str(rng.randrange(2**31)), "--format", "json"]
            for n, k in self.SIZES
        ]

    def setup(self) -> None:
        pass

    def run(self, argv):
        return _quiet_main(argv)

    def check(self, argv, result):
        code, text = result
        k = int(argv[argv.index("--k") + 1])
        return hashlib.sha256(text.encode()).hexdigest(), oracle.check_verify(k, code, text)


class SweepTable:
    """``flagf sweep --format json --out DIR`` on small spaces.

    Time goes to characteristic_set refinement and the sweep report loop, and
    each call writes report files.  The two coarse-grid calls hit the known
    min_cover defect (f1/f0 NK reported as two points, not the line s = 1)
    and are kept on purpose.
    """

    name = "sweep-table"
    CALLS = (
        ("--n", "5", "--k", "4"),
        ("--n", "5", "--k", "6"),
        ("--n", "8", "--k", "4"),
        ("--n", "8", "--k", "6"),
        ("--n", "5", "--k", "6", "--grid-step", "1.0"),
        ("--n", "5", "--k", "4", "--grid-min", "2"),
    )

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.ops = []
        for i, args in enumerate(self.CALLS):
            out = workdir / f"sweep{i}"
            self.ops.append(
                ["sweep", *args, "--seed", str(rng.randrange(2**31)), "--format", "json", "--out", str(out)]
            )

    def setup(self) -> None:
        pass

    def run(self, argv):
        return _quiet_main(argv)[0]

    def check(self, argv, code):
        out = Path(argv[argv.index("--out") + 1])
        files = {p.name: p.read_text(encoding="utf-8") for p in sorted(out.glob("*"))} if out.is_dir() else {}
        shutil.rmtree(out, ignore_errors=True)  # the next pass must write every file afresh
        digest = hashlib.sha256()
        for name, text in files.items():
            digest.update(name.encode() + b"\0" + text.encode() + b"\0")
        k = int(argv[argv.index("--k") + 1])
        return digest.hexdigest(), oracle.check_sweep(k, code, files)


class ClassifyPoints:
    """Single class-membership queries against prebuilt n=24, k=6 evaluators.

    Set-up builds the space, its split and one ClassEvaluator per f-structure
    (about 26 MB of condition tensors each, far above L2).  Each op is one
    ``ClassEvaluator.report`` at a seeded (label, s, t): 10 % at (1, 4/3),
    20 % on s = 1 and 70 % anywhere, with coordinates log-uniform in
    [1e-6, 1e6].  The extreme draws expose the known normalisation defect
    (indeterminate or false NK verdicts) and are kept on purpose.
    """

    name = "classify-points"
    N, K = 24, 6
    QUERIES = 500

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        labels = [sign + base for sign in ("", "-") for base in oracle.LABELS_BY_ORDER[self.K]]

        def coord() -> float:
            return 10.0 ** rng.uniform(-6.0, 6.0)

        self.ops = []
        for _ in range(self.QUERIES):
            label, u = rng.choice(labels), rng.random()
            if u < 0.1:
                s, t = oracle.KILL_POINT
            elif u < 0.3:
                s, t = 1.0, coord()
            else:
                s, t = coord(), coord()
            self.ops.append((label, s, t))
        self.state = None

    def setup(self) -> None:
        from flagf import canonical, classify, metricgeom, phispace

        self.state = None  # free the previous evaluators before building new ones
        ps = phispace.build_phi_space(phispace.build_automorphism(self.N, 1, self.K))
        split = metricgeom.build_split(ps)
        evaluators = {cs.label: classify.ClassEvaluator(cs, split) for cs in canonical.generate_f_structures(ps)}
        self.state = (ps, evaluators, metricgeom.MetricParams)

    def run(self, op):
        label, s, t = op
        ps, evaluators, params = self.state
        return evaluators[label].report(params.for_space(ps, s, t))

    def check(self, op, rep):
        label, s, t = op
        digest = repr(
            [(c, rep.residuals[c], rep.memberships[c], rep.indeterminate[c]) for c in oracle.CONDITIONS]
        )
        return digest, oracle.check_verdicts(label, s, t, rep.memberships, rep.indeterminate)


WORKLOADS = {w.name: w for w in (VerifySuite, SweepTable, ClassifyPoints)}
