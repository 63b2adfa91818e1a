"""The bytes that `verify` and `classify` print, pinned by sha256.

The verify digests were retaken when the structures' reconstruction became
one product with theta's powers and the checks that construction raises on
left the report, and at m_blocks = 1 again when structure-sign-pair joined
it.  The classify digests were retaken when the class engine began to read
each f-structure as the exact matrix of its sign pair, which moved the
class residuals in their last bits.  Any other change to a residual, a
polynomial coefficient, a label, the list of checks or the layout of either
report shows here.  As in test_sweep_bytes.py, residuals carry the last
bits of floating-point sums and products, so a numpy or BLAS build that
orders them differently changes the digests; they were taken with numpy
2.4.6 and OpenBLAS 0.3.31 on x86-64.
"""

import hashlib

import pytest

from flagf.cli import main

DIGESTS = {
    ("verify", "--n 5 --k 4"): {
        "json": "d09cfa71025706c26b4407a803e6e38f73c2d829552136abf6d74489a45b05c4",
        "text": "c51058b7a5c01e2ba3168f96edf39e5b2b9b352d908282de8534b2a2acc10020",
    },
    ("verify", "--n 12 --k 6"): {
        "json": "0b9a31f4dcab78797b87f2617d8e628eeede23841d329ae8ec8190e024f4c754",
        "text": "49b16d5611dc6baf5e6de1d7fdae44bfd3638060f552caa9cc4b64505ebae74d",
    },
    ("verify", "--n 16 --k 6"): {
        "json": "1b25e5b3d89fddb8334981105ad894ff68a7f55e1db7e4bd2dee2e1d5f585761",
        "text": "cc5409b20a24b827bf53ea062219546fb9c0f422875558c513a375449902b149",
    },
    ("verify", "--n 7 --m-blocks 2 --k 6"): {
        "json": "2d1778f4e600c4edaa3b952db3999fe989756b04432847f758f86bd2a296d295",
        "text": "11d32af1daca29b00c46249e36a5d919bdaf4bce2b6dedbfe2494925ed76355c",
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
