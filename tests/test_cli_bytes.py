"""The bytes that `verify` and `classify` print, pinned by sha256.

The digests were taken before the [h, m] brackets of a space were joined
once into a table and before the canonical structures were generated as one
stack, so any change to a residual, a polynomial coefficient, a label or the
layout of either report shows here.  As in test_sweep_bytes.py, residuals
carry the last bits of floating-point sums and products, so a numpy or BLAS
build that orders them differently changes the digests; they were taken with
numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64.
"""

import hashlib

import pytest

from flagf.cli import main

DIGESTS = {
    ("verify", "--n 5 --k 4"): {
        "json": "247ed077b1722ab9f8602968b47e6d0f0ed93a0d6eec48bc2cd8e01197cad12c",
        "text": "c72ade5ddfa14242b45a1267e0b19301a2442c427854971033da9dc8db0a9614",
    },
    ("verify", "--n 12 --k 6"): {
        "json": "ae5a65ba064ed0c7d922f2ceb713e63a0d3ab35088df7b62c6ae73519962c3c7",
        "text": "b3759694ebdce183c46fd2913e50d4d86a3a5dfca269304eb89e65a043db07bc",
    },
    ("verify", "--n 16 --k 6"): {
        "json": "19ff443916f2dc27f5c148a908bb601fc5b28d79352114649be6e30c3232ab51",
        "text": "00584999a534bdcf655d0c3926655d84c082395b3db951d396f6e9073ef7df3e",
    },
    ("verify", "--n 7 --m-blocks 2 --k 6"): {
        "json": "3e4f5aca835eb7d34273a8eb7a1c7772a3ca893c222b85ea7240426536ff854b",
        "text": "09d9526f56bd8f3a1bac635e3b2de85c3edccab2fbea6de7f926266ee36cda3e",
    },
    ("classify", "--n 5 --k 4 --f f0 --s 1 --t 1.3333333333333333"): {
        "json": "1d77159cd248df34a4cef1036ed2d9be4f2322b9672e5cf95e8d8567807bcb64",
        "text": "6965c7877405bda81a10f65adbc5071201d7df25970a6746fcfd591141cfcb73",
    },
    ("classify", "--n 8 --k 6 --f f1 --s 1 --t 2.5"): {
        "json": "419898e764b7e598a29f750636b002a4d93e4419abfb0f19833be3b0b0eb17ba",
        "text": "769503371f24b76a36838ddb815ae3ca7ee28addcc6a853f73ea1dee7d027473",
    },
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command,args", sorted(DIGESTS))
def test_report_keeps_its_bytes(capsys, command, args, fmt):
    assert main([command, *args.split(), "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == DIGESTS[command, args][fmt]
