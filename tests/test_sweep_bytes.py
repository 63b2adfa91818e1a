"""The bytes of every sweep file, pinned by sha256.

The digests were taken before the report writer formatted whole columns at
a time, so any change to a float, a flag, a key or the layout of a sweep
file shows here.  Those of the per-structure JSON files at k = 6 were
retaken when the structures' reconstruction became one product with theta's
powers, which moved their polynomial_residual, ad_invariance and
pairwise_commutation by a few 1e-16.  Every digest was retaken when the class
engine began to read each f-structure as the exact matrix of its sign pair,
which moved residuals, the f0/f1 Kill point and sigma_min_kept /
sigma_max_dropped in their last bits; no membership and no zero-set
description moved.  The residual columns carry the last bits of floating-point
sums, so a numpy or BLAS build that orders a sum differently changes them;
they were taken with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64.
"""

import hashlib

import pytest

from flagf.cli import main

DIGESTS = {
    "--n 5 --k 4": {
        "json": {
            "f0.json": "83ec1cd8ef27eda667835dfbd75d27af25e0ba6663a9b2aa31f120d181e090ff",
            "summary.json": "ed146f2649d0308831f7f71e5d583b77ed59c4cd92082beb708b64ad3c0184e6",
        },
        "csv": {
            "f0.csv": "66dd15afaf0ed287b1fd5f86adfad321942f8bb7cbdb647d2f9329700eb7a972",
            "summary.json": "aa16234f4d0bc37fa70c1645fa6cb328077f66dbfed8f4f6dffee4778b7fd22e",
        },
        "text": {
            "f0.txt": "e6706bb580c39eed870107b382d172e9fa50890c77bb1d381466c7d6e501ec8b",
            "summary.json": "0ae58afcc74870168960451656a5e256a5b15cf6a46f16d84517120bc3d15648",
        },
    },
    "--n 5 --k 6": {
        "json": {
            "f1.json": "19d9a7c1354e2d51046f3c5d4d65b5d6cd5e76142d8fbcb0be49fa2a130f801b",
            "f2.json": "16570a6016df2b3191cdc403d9fad318b507162907ee5a61963c8c524a68179b",
            "f3.json": "350c6bb23f113b32d828378b8ca80f663a5b008bcd915147312048051f7a665d",
            "f4.json": "d494ebfaffbe5658c2e2f9c09b64da7ee2f97911d7716751531238d6c6669929",
            "summary.json": "0d596b9b475943f543632f79bbf7be3e0b355ba3029d017210ba4270d1249e2b",
        },
        "csv": {
            "f1.csv": "66dd15afaf0ed287b1fd5f86adfad321942f8bb7cbdb647d2f9329700eb7a972",
            "f2.csv": "61378765e0ad64ecb5abe997892d46cc934a4975c2c79f0316dd2154b418581e",
            "f3.csv": "e0d7835d36421736d1ab012975030516cb4ae91febf7a124f6b9260f20d2a40d",
            "f4.csv": "a861c236344d7020dcf7e04bf42030bac37f37b01c4d5d5256d421f8f913ca00",
            "summary.json": "c23811a098beffe06d865265bd74962a45da01f26246ac3bd398a62c3ab39e75",
        },
        "text": {
            "f1.txt": "4d0f0d43326116ef7ef356fc5241a389246c3825d794d83a5b8617fbcbbd4abc",
            "f2.txt": "52b617d1cccaef4b5e0ec8a06db4f97a0b6b1c8eadf89aad63ec7120e072af7c",
            "f3.txt": "8ebe1bb8cbc1bd91a8b70bad094d0131eff434233dc615405a8dd0620f8e43f1",
            "f4.txt": "cf6f48d590711f967bed5394d093e5d4f383c929bb153ca4681ef4050ec000b6",
            "summary.json": "7164e1b064405de5c1f22ee2256478a60a3c7995f1dc826648137b735d73cd15",
        },
    },
    "--n 8 --k 6": {
        "json": {
            "f1.json": "7f31c40547725b591463c83bbed8a1e74e1ee5fb7321e505fd0ae4d095dfab4d",
            "f2.json": "30cdc6d13b0bfbe0485c5e6d00d2795558f830210e469509a31535ad7b94fced",
            "f3.json": "51d46dbde060a434ecfd10fda8c1fc30e50efe190c7ad0b47c47c554ae3a9186",
            "f4.json": "550f56ab55ad62afe4135907adad9ad44fd784ed9bbbbf4741320f502763c27e",
            "summary.json": "831395701519c6a44eebe444bedcb9c6d3a1405c2c6e0a16e01d5bc148e19b3b",
        },
        "csv": {
            "f1.csv": "66dd15afaf0ed287b1fd5f86adfad321942f8bb7cbdb647d2f9329700eb7a972",
            "f2.csv": "61378765e0ad64ecb5abe997892d46cc934a4975c2c79f0316dd2154b418581e",
            "f3.csv": "e0d7835d36421736d1ab012975030516cb4ae91febf7a124f6b9260f20d2a40d",
            "f4.csv": "a861c236344d7020dcf7e04bf42030bac37f37b01c4d5d5256d421f8f913ca00",
            "summary.json": "ddab6874495af9f89ef96a8814d5f81c63d453f68492d1fc88a2ae1d40b7beb2",
        },
        "text": {
            "f1.txt": "4d0f0d43326116ef7ef356fc5241a389246c3825d794d83a5b8617fbcbbd4abc",
            "f2.txt": "52b617d1cccaef4b5e0ec8a06db4f97a0b6b1c8eadf89aad63ec7120e072af7c",
            "f3.txt": "8ebe1bb8cbc1bd91a8b70bad094d0131eff434233dc615405a8dd0620f8e43f1",
            "f4.txt": "cf6f48d590711f967bed5394d093e5d4f383c929bb153ca4681ef4050ec000b6",
            "summary.json": "6475fc54891edb2dc629f70ef69b82ac7378b82e6e3fd60137eb1e0b2410396a",
        },
    },
    "--n 5 --k 6 --grid-step 1.0": {
        "json": {
            "f1.json": "302726df41a01e0eff22be76ef7ce08804f46e2a1e9f05b9fae2595421ddbe13",
            "f2.json": "b23e1b36cbbd3ff37790bd9417b7cda9f25aaef20aa30c573968cbda8b61387a",
            "f3.json": "24c79b275327b4853a46aa18af2d26a647681a69036b3c6fa202c7b2b3408ad0",
            "f4.json": "0371ced7ecf614b6876a3fa83117d5b5e2a431fe6909333961a5908f178d6285",
            "summary.json": "2398e59ab324d14da2d807891962f3e6460bba82c50e1ac2dcf012ee521173ee",
        },
        "csv": {
            "f1.csv": "4c29329736aceedb42dbaaf9991c6208769ba7f31ef5091189f2fdf95f6efa67",
            "f2.csv": "0456c962b0d3af4b57e81b7490388686b8e317a4e736cc6b97585e2db0f43881",
            "f3.csv": "aab2c61eebdfdf79e859fd902151131edb50c5278928bbdd03aba1c2ff880804",
            "f4.csv": "b496620a0602b845adcdf41de19156f293ef87ecd642f8890536d1073a32ce7c",
            "summary.json": "660d29ab47fa0c9d84a01fd735744446fa39b9c35867483e34e058325ecc0d12",
        },
        "text": {
            "f1.txt": "422bf28c6d6ef57392c7ead313c67af0a513ebfdebf8d187b0971989170f642d",
            "f2.txt": "ee6d4f7ff35d2034dffeebe8efcdaccedde35f5664b88f3b22d35b7a07ed6735",
            "f3.txt": "933d5bd3ab4fc0a1da65543aac6a5dc2037985e584bb1bee55a98ae92b56d636",
            "f4.txt": "8559b012e23830cec3559a1ae3fc41ae3fefacc65a187a3c27bc75ee3eb809f6",
            "summary.json": "703a84f65754809d67723458bc72d85d8063903bd8d9eae3ad8f0f4ab56dc089",
        },
    },
    "--n 5 --k 4 --grid-min 2": {
        "json": {
            "f0.json": "2b8b13ae8ef3c8ad6fc3fd11303a0f1f48ab1c3c045f424f82f7cebcf2a78d91",
            "summary.json": "411c4e4c149f7c9d74411c639a9a0770b944291d3a5e27086c802f4bbce8e5da",
        },
        "csv": {
            "f0.csv": "2d01ad51b7c2563714fe80468ed876b6dfead51c556a361a4b2b959b3836d364",
            "summary.json": "a645325bbbfff5f45c1b1e5033998e9e13fdb91279bc9e1e602f6f0dd081f13c",
        },
        "text": {
            "f0.txt": "2b8b9675d9da160fd6e9a6a0a8b8a95ad554d6ca67cf1afff53e50070e5f70d4",
            "summary.json": "f76d7d3237592ffac2289004160b3ad1c939d3c83070a0289650b1ae03cc38d7",
        },
    },
}


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("args", sorted(DIGESTS))
def test_sweep_files_keep_their_bytes(capsys, tmp_path, args, fmt):
    assert main(["sweep", *args.split(), "--format", fmt, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(tmp_path.iterdir())}
    assert got == DIGESTS[args][fmt]
