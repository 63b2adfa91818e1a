"""The bytes that `verify` and `classify` print, pinned by sha256.

The verify digests were retaken when the structures' reconstruction became
one product with theta's powers and the checks that construction raises on
left the report, at m_blocks = 1 again when structure-sign-pair joined it,
and at k = 6 when the structure checks moved onto theta's blocks, which
read the reconstruction and the ad(h) bound as 0.0 and the pairwise bound a
few 1e-16 lower.  The classify digests were retaken when the class engine began to read
each f-structure as the exact matrix of its sign pair, which moved the
class residuals in their last bits.  Any other change to a residual, a
polynomial coefficient, a label, the list of checks or the layout of either
report shows here.  As in test_sweep_bytes.py, residuals carry the last
bits of floating-point sums and products, so a numpy or BLAS build that
orders them differently changes the digests; they were taken with numpy
2.4.6 and OpenBLAS 0.3.31 on x86-64.

The help, usage and argument-error text is pinned too, at COLUMNS=80: each
call builds only the subparser of its command, and none of that text may
show it.  argparse formats it, so those digests were taken with Python 3.11.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flagf.cli import main

DIGESTS = {
    ("verify", "--n 5 --k 4"): {
        "json": "d09cfa71025706c26b4407a803e6e38f73c2d829552136abf6d74489a45b05c4",
        "text": "c51058b7a5c01e2ba3168f96edf39e5b2b9b352d908282de8534b2a2acc10020",
    },
    ("verify", "--n 12 --k 6"): {
        "json": "6b13725ef1cd4898ba39d48959ac0123461de515e11e309a2388a2e4f5b04332",
        "text": "b065998ef8f5abf06e884629e00adf74ac7a837996a0d7296c3a7bbad86c8e83",
    },
    ("verify", "--n 16 --k 6"): {
        "json": "ddd6f71e0c15622cd37a441f445e3682880a5480321ba2ab9ec1efa539c3e520",
        "text": "9f8821e97b1952460082fbac50796eebf00212b70c84792c9755a3aa959a591b",
    },
    ("verify", "--n 7 --m-blocks 2 --k 6"): {
        "json": "bb52706be6cc0f6b63eec2de066e4b9a90f0318c06a4fd44783cb60f9378b29f",
        "text": "7a0804841cc412ef85b6f7f0b68f470f27c1c9e56ebe7176a070e8849fc2afa6",
    },
    ("classify", "--n 5 --k 4 --f f0 --s 1 --t 1.3333333333333333"): {
        "json": "d4ef057a1162cfd3f5fd7a56bacf27624d06de87bd2f025eb6025af9eaed2bce",
        "text": "36f92f869e005415d2e0c80e91d7e04921b64ae6fc11f315d5d9a389d4833db7",
    },
    ("classify", "--n 8 --k 6 --f f1 --s 1 --t 2.5"): {
        "json": "cbc620014022abe9ad83f4b7290c1307ad24316c35498de3b249c3a7c32428cb",
        "text": "b3d4fb06569a48d3426600330496f782eab3f6419666b391c882344a0160b4b7",
    },
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command,args", sorted(DIGESTS))
def test_report_keeps_its_bytes(capsys, command, args, fmt):
    assert main([command, *args.split(), "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == DIGESTS[command, args][fmt]


# arguments: (exit code, the stream written, sha256 of it); the other stream stays empty
TEXT_DIGESTS = {
    "-h": (0, "out", "0882e649eab5e82b7a46e674d440e0eb12fd11b49e41a94d7984bcde37c57f5d"),
    "verify -h": (0, "out", "c1cbc9be916afe003389aee4c6684dc4a96f08c4ed29d9e8d4aee48e273e758f"),
    "classify -h": (0, "out", "4652fecd4492854b58d8ea700979052a5a122df541677ba688a2628a1cadccbb"),
    "sweep -h": (0, "out", "8648e24b484ef5d9bf704f525833cd49d117fdf7dea283e16c0e3b9b570a9453"),
    "": (2, "err", "d9a7609c1322c12b93956bc1a5e43ca1068c43f398d55b0f0fe6d0ca4a73cfc5"),
    "bogus": (2, "err", "b0cbe172e2fa922bd81306523b3c8ea3a5aa11a124e15f15e95e8dcfe038cca3"),
    "verify --n 5": (2, "err", "1790a0e7325e2cf8aa23ece637fadf9978daa737b34f03868990d7fdca36d0eb"),
    "classify --n 5 --k 4 --f f0 --s 1": (2, "err", "37fe1d64f386774cd7f797dfc1a4d28ae1f6291596ae955e81419b357bcc1584"),
    "sweep --k 4": (2, "err", "e69f4f6782a4609d40b9b38e7c89890fb2b4bec12da05da86b6dc037bc5884f7"),
    "verify --n 5 --k 4 --bogus": (2, "err", "84690bab39d1ad7c5937a811db79d37c3e262bd0c676acab7b81625a0889e33b"),
    "classify --n 5 --k 4 --f f0 --s 1 --t 1 --bogus": (
        2, "err", "84690bab39d1ad7c5937a811db79d37c3e262bd0c676acab7b81625a0889e33b"
    ),
    "sweep --n 5 --k 4 --bogus": (2, "err", "84690bab39d1ad7c5937a811db79d37c3e262bd0c676acab7b81625a0889e33b"),
}
# the top-level usage line of an unrecognized argument lists every command, whichever was given
UNRECOGNIZED = "usage: flagf [-h] {verify,classify,sweep} ...\nflagf: error: unrecognized arguments: --bogus\n"


@pytest.mark.parametrize("args", sorted(TEXT_DIGESTS))
def test_help_and_argument_errors_keep_their_bytes(capsys, monkeypatch, args):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(args.split())
    code, stream, digest = TEXT_DIGESTS[args]
    captured = capsys.readouterr()
    written, other = (captured.out, captured.err) if stream == "out" else (captured.err, captured.out)
    assert (exc.value.code, other) == (code, "")
    assert hashlib.sha256(written.encode()).hexdigest() == digest
    if args.endswith("--bogus"):
        assert written == UNRECOGNIZED


def test_module_entry_point_reads_sys_argv(tmp_path):
    # python -m flagf.cli: main() with no argv reads sys.argv, as the installed script does
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def flagf(*argv):
        return subprocess.run([sys.executable, "-m", "flagf.cli", *argv], capture_output=True, text=True, env=env,
                              cwd=tmp_path, timeout=120)

    proc = flagf("verify", "--n", "5", "--k", "4", "--format", "json")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DIGESTS["verify", "--n 5 --k 4"]["json"]
    proc = flagf("verify", "--n", "5", "--k", "4", "--bogus")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", UNRECOGNIZED)
    proc = flagf("bogus")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert hashlib.sha256(proc.stderr.encode()).hexdigest() == TEXT_DIGESTS["bogus"][2]
