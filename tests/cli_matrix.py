"""Run a fixed matrix of flagf CLI calls and print a sha256 manifest of what they produce.

    python tests/cli_matrix.py [--src DIR] > manifest.txt

Each case runs ``python -m flagf.cli`` in a subprocess, with the package
imported from ``--src`` (default: this checkout's ``src``) and its working
directory a fresh empty one, so that --out paths and the paths sweep prints
are relative and the same on every run.  The cases are verify, classify and
sweep in every format, with --out, verify at n = 40 and at the largest
structure counts, sweep on a mid-size grid (step 0.05) and on a near-limit
one (step 0.01), classify and sweep at extreme (s, t), the configurations
the CLI refuses and the help texts.  For
each case the manifest holds the sha256 of stdout and of stderr (with the
random part of a temp file's name masked), the exit code and the sha256 of
every file the call wrote, one line each; two checkouts produce the same
bytes over the matrix exactly when ``diff`` of their manifests is empty.
The cases run one at a time.  This is a development script: pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SWEEP_GRIDS = ((), ("--grid-step", "1.0"), ("--grid-min", "2"), ("--extra-points", "0.3,2.0;1.5,1.5"))
SIZES = (("5", "4"), ("5", "6"), ("8", "6"), ("24", "6"), ("40", "6"), ("8", "8"), ("12", "16"))


def cases() -> list[tuple[str, ...]]:
    """The argument lists of the matrix, in a fixed order."""
    out: list[tuple[str, ...]] = [("--help",), ("verify", "--help"), ("classify", "--help"), ("sweep", "--help")]
    for n, k, blocks in (("4", "4", "1"), ("5", "4", "1"), ("5", "6", "1"), ("12", "6", "1"), ("24", "6", "1"),
                         ("8", "8", "1"), ("9", "8", "2"), ("9", "8", "3"), ("12", "16", "4")):
        for fmt in ("json", "text"):
            out.append(("verify", "--n", n, "--k", k, "--m-blocks", blocks, "--format", fmt))
    out += [
        ("verify", "--n", "12", "--k", "6", "--seed", "7", "--format", "json"),
        ("verify", "--n", "5", "--k", "4", "--kappa", "2.5", "--format", "json", "--out", "verify.json"),
        ("verify", "--n", "5", "--k", "4", "--out", "verify.txt"),
    ]
    for label, s, t, n, k in (("f0", "1", "1.3333333333333333", "5", "4"), ("f0", "0.7", "2.5", "5", "4"),
                              ("f4", "0.5", "2", "24", "6"), ("-f2", "1.5", "0.3", "24", "6"),
                              ("f4", "0.5", "2", "8", "8"), ("f1", "1", "3", "6", "6")):
        for fmt in ("json", "text"):
            out.append(("classify", "--n", n, "--k", k, f"--f={label}", "--s", s, "--t", t, "--format", fmt))
    out.append(("classify", "--n", "5", "--k", "4", "--f", "f0", "--s", "1", "--t", "1", "--out", "c.json",
                "--format", "json"))
    # extreme points where the normalised residual gives wrong verdicts (ROADMAP item 1)
    for label, s, t, n, k in (("f0", "1e-300", "1", "5", "4"), ("f1", "1e-5", "3e5", "24", "6")):
        for fmt in ("json", "text"):
            out.append(("classify", "--n", n, "--k", k, "--f", label, "--s", s, "--t", t, "--format", fmt))
    out.append(("verify", "--n", "40", "--k", "6", "--format", "json"))
    for n, blocks, k in (("40", "9", "16"), ("31", "5", "14"), ("17", "6", "16")):  # the largest structure counts
        out.append(("verify", "--n", n, "--m-blocks", blocks, "--k", k, "--format", "json"))
    for n, k in SIZES:
        for grid in SWEEP_GRIDS:
            for fmt in ("json", "csv", "text"):
                out.append(("sweep", "--n", n, "--k", k, *grid, "--format", fmt, "--out", "out"))
    for fmt in ("json", "csv"):  # 3,137 rows a file, most of whose cells repeat a value of their table
        out.append(("sweep", "--n", "5", "--k", "6", "--grid-step", "0.05", "--format", fmt, "--out", "out"))
    out.append(("sweep", "--n", "5", "--k", "4", "--grid-min", "0.01", "--grid-max", "3.15", "--grid-step", "0.01",
                "--format", "csv", "--out", "out"))  # 315^2 points plus (1, 4/3): 99,226 rows a file
    out += [  # refused: exit 2, or exit 1 on a failing write or a grid verdict the exact zero set contradicts
        ("verify", "--n", "5", "--k", "4", "--format", "csv"),
        ("verify", "--n", "5", "--k", "4", "--seed", "-1"),
        ("verify", "--n", "41", "--k", "4"),
        ("verify", "--n", "5", "--k", "5"),
        ("verify", "--n", "5", "--k", "4", "--kappa", "0"),
        ("verify", "--n", "5", "--k", "4", "--kappa", "1e308"),
        ("verify", "--n", "5"),
        ("classify", "--n", "9", "--k", "8", "--m-blocks", "2", "--f", "f0", "--s", "1", "--t", "1"),
        ("classify", "--n", "5", "--k", "4", "--f", "f9", "--s", "1", "--t", "1"),
        ("classify", "--n", "5", "--k", "4", "--f", "f0", "--s", "0", "--t", "1"),
        ("classify", "--n", "6", "--k", "6", "--f", "f2", "--s", "1e-200", "--t", "1e-200"),
        ("classify", "--n", "5", "--k", "4", "--f", "f0", "--s", "1", "--t", "1", "--out", "missing/c.json"),
        ("sweep", "--n", "5", "--k", "4"),
        ("sweep", "--n", "9", "--k", "8", "--m-blocks", "2", "--out", "out"),
        ("sweep", "--n", "5", "--k", "4", "--grid-step", "1e-9", "--out", "out"),
        ("sweep", "--n", "5", "--k", "4", "--grid-min", "3", "--grid-max", "3.0000000001", "--grid-step", "1e-300",
         "--out", "out"),
        ("sweep", "--n", "5", "--k", "4", "--grid-min", "3", "--grid-max", "2", "--out", "out"),
        ("sweep", "--n", "5", "--k", "4", "--extra-points", "1,2,3", "--out", "out"),
        ("sweep", "--n", "5", "--k", "4", "--extra-points", "0,1", "--out", "out"),
        ("sweep", "--n", "5", "--k", "4", "--extra-points", "a,1", "--out", "out"),
        ("sweep", "--n", "5", "--k", "4", "--extra-points", "1e-5,3e5;1e-300,1", "--out", "out"),
        ("sweep", "--n", "24", "--k", "6", "--extra-points", "1e-5,3e5;1e-300,1", "--out", "out"),
        ("sweep", "--n", "6", "--k", "6", "--grid-min", "1e-200", "--grid-max", "1e-199", "--grid-step", "1e-200",
         "--out", "out"),
        ("bogus",),
        (),
    ]
    return out


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv: tuple[str, ...], src: Path) -> list[str]:
    """The manifest lines of one call: stdout, stderr, exit code and each file written."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run([sys.executable, "-m", "flagf.cli", *argv], cwd=work, env=env, capture_output=True)
        name = " ".join(argv) or "(no arguments)"
        stderr = re.sub(rb"\.[0-9a-f]{16}\.tmp", b".<random>.tmp", proc.stderr)  # the temp name of a failed write
        lines = [f"{name}\tstdout\t{sha(proc.stdout)}", f"{name}\tstderr\t{sha(stderr)}",
                 f"{name}\texit\t{proc.returncode}"]
        for path in sorted(p for p in Path(work).rglob("*") if p.is_file()):
            lines.append(f"{name}\tfile {path.relative_to(work).as_posix()}\t{sha(path.read_bytes())}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="directory that holds the flagf package (default: this checkout's src)")
    src = parser.parse_args().src.resolve()
    if not (src / "flagf" / "__init__.py").is_file():
        parser.error(f"no flagf package under {src}")
    for argv in cases():
        print("\n".join(run_case(argv, src)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
