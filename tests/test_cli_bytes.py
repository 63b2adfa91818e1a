"""The bytes that `verify` and `classify` print, pinned by sha256.

The classify digests were taken before the [h, m] brackets of a space were
joined once into a table and before the canonical structures were generated
as one stack; the verify digests were retaken when the structures'
reconstruction became one product with theta's powers and the checks that
construction raises on left the report.  Any other change to a residual, a
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
        "json": "1bb30684bcfb6a7bbd9a581ff0e3a7bc8e0bde667d187fd314ecd68a91ce3f82",
        "text": "ccbb3bc7a1e5e80278120970376da0443084f86178d7af7389eb734f2f1fc2f5",
    },
    ("verify", "--n 12 --k 6"): {
        "json": "00f7e3ff9ec4a65110dbc778d234dce5063f1d9851169161471b63b520a9b107",
        "text": "1ec0c6d9e6b725e21d52fe5b40dbd494ac12946611c8ed35a54c1873f0cfd530",
    },
    ("verify", "--n 16 --k 6"): {
        "json": "275b70fd96ee2d1e0d5810d5eb17719da336719e1e39e4df6856e9c80249953d",
        "text": "44b73e83568355acb99496a9a6a7213844c6e723cec4841ff01327810722f50e",
    },
    ("verify", "--n 7 --m-blocks 2 --k 6"): {
        "json": "2d1778f4e600c4edaa3b952db3999fe989756b04432847f758f86bd2a296d295",
        "text": "11d32af1daca29b00c46249e36a5d919bdaf4bce2b6dedbfe2494925ed76355c",
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
