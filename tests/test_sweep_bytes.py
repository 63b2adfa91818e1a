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
description moved.  The f0/f1 JSON files and every summary.json were
retaken when the zero sets began to read their kernel off the SVD that
zero_sets takes, not off a second SVD of the constraint rows: only the Kill
point moved, at (5, 4) and (5, 6) to exactly (1.0, 1.3333333333333333).
The per-structure JSON files at k = 6 were retaken when the structure
checks moved onto theta's blocks: their polynomial_residual, ad_invariance
and pairwise_commutation went from a few 1e-16 to 0.0.  The
residual columns carry the last bits of floating-point
sums, so a numpy or BLAS build that orders a sum differently changes them;
they were taken with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64.
"""

import hashlib

import pytest

from flagf.cli import main

DIGESTS = {
    "--n 5 --k 4": {
        "json": {
            "f0.json": "5d178973829b124a5065c95bf9ba78a96548de4e2f4d93016b49c37b8e15e679",
            "summary.json": "f54d6a16b962267ce07a1e1cda21ce18ecdacdd4c54662cac985a44629e7b468",
        },
        "csv": {
            "f0.csv": "66dd15afaf0ed287b1fd5f86adfad321942f8bb7cbdb647d2f9329700eb7a972",
            "summary.json": "d905c7c39a9a0d274721211a749c744f06f8051ff61f0940300e41c4fbb5ee51",
        },
        "text": {
            "f0.txt": "e6706bb580c39eed870107b382d172e9fa50890c77bb1d381466c7d6e501ec8b",
            "summary.json": "ab148fb68148fca04866fc0f966088335ed832313aff2ddf59205f4628455fc1",
        },
    },
    "--n 5 --k 6": {
        "json": {
            "f1.json": "ba790fb50504ec1935edb7d09fe2dd264abd26e6fe2768ca997645b914490f33",
            "f2.json": "c9549066909d139d26b99899df41e369d4122174ee8ad05f49318c6e1fae0bbf",
            "f3.json": "0ae1ff9b3338679a6c01a1c30b30268a4577296f57925438c1d7483389435f32",
            "f4.json": "93505cd230f4b360aec87d3ad104c3c19b4d2fe50bfb8043a57e77f296e0f53e",
            "summary.json": "e5a41a53bad7c284a862b59c895f3db13d57c5a6f9388f28b5a4b423997b143d",
        },
        "csv": {
            "f1.csv": "66dd15afaf0ed287b1fd5f86adfad321942f8bb7cbdb647d2f9329700eb7a972",
            "f2.csv": "61378765e0ad64ecb5abe997892d46cc934a4975c2c79f0316dd2154b418581e",
            "f3.csv": "e0d7835d36421736d1ab012975030516cb4ae91febf7a124f6b9260f20d2a40d",
            "f4.csv": "a861c236344d7020dcf7e04bf42030bac37f37b01c4d5d5256d421f8f913ca00",
            "summary.json": "b39d11db0790f8a92f17def50e40db7e4159d9013ed9035b211377da2ccfce21",
        },
        "text": {
            "f1.txt": "4d0f0d43326116ef7ef356fc5241a389246c3825d794d83a5b8617fbcbbd4abc",
            "f2.txt": "52b617d1cccaef4b5e0ec8a06db4f97a0b6b1c8eadf89aad63ec7120e072af7c",
            "f3.txt": "8ebe1bb8cbc1bd91a8b70bad094d0131eff434233dc615405a8dd0620f8e43f1",
            "f4.txt": "cf6f48d590711f967bed5394d093e5d4f383c929bb153ca4681ef4050ec000b6",
            "summary.json": "f1c6922938831ed3b268a5863bfa3ac6c05393df3b41d3bd26a98b6e77450389",
        },
    },
    "--n 8 --k 6": {
        "json": {
            "f1.json": "d38bcff437093c9e801a1d8c60ebecebd1397a3945a4d4129f43212e9ff23780",
            "f2.json": "a9513c86eb7f1f7395c787daf809e4fe7112e913167285669c5b49e8165b9a35",
            "f3.json": "9f2a7851de608bc5ac3975492591eae8f25909af6dd9ec10d46728306940b5f2",
            "f4.json": "244a3ef5698f2f60a53136d1a64267ef1153548ef72e889f51dc515778460943",
            "summary.json": "31a74b138dc089d8a9bb9e8ba788db0faae6b64eeec15ba16514313d3c2b5354",
        },
        "csv": {
            "f1.csv": "66dd15afaf0ed287b1fd5f86adfad321942f8bb7cbdb647d2f9329700eb7a972",
            "f2.csv": "61378765e0ad64ecb5abe997892d46cc934a4975c2c79f0316dd2154b418581e",
            "f3.csv": "e0d7835d36421736d1ab012975030516cb4ae91febf7a124f6b9260f20d2a40d",
            "f4.csv": "a861c236344d7020dcf7e04bf42030bac37f37b01c4d5d5256d421f8f913ca00",
            "summary.json": "2889897ad9316cb73acab5ce7947bf0faa2800da97dd2bcc035a84fc1e0d1d87",
        },
        "text": {
            "f1.txt": "4d0f0d43326116ef7ef356fc5241a389246c3825d794d83a5b8617fbcbbd4abc",
            "f2.txt": "52b617d1cccaef4b5e0ec8a06db4f97a0b6b1c8eadf89aad63ec7120e072af7c",
            "f3.txt": "8ebe1bb8cbc1bd91a8b70bad094d0131eff434233dc615405a8dd0620f8e43f1",
            "f4.txt": "cf6f48d590711f967bed5394d093e5d4f383c929bb153ca4681ef4050ec000b6",
            "summary.json": "e9dbb0f9d7d196c55a8aadccde7fa2ba143802e512e8935488909054599879dc",
        },
    },
    "--n 5 --k 6 --grid-step 1.0": {
        "json": {
            "f1.json": "4c4b745fff07b3f2e96e1a51ce6086eedc7c24c95cbdf8aa5b002637d9ed5771",
            "f2.json": "57f9bcb0aea1c1a87d6edfd0da0cdb34830458ca930e7434ac02f90dfcf8e873",
            "f3.json": "0be2d0020775da65bc6e9f9a928c83ff8c582eaa1891ef978bf2883b8537585e",
            "f4.json": "57c48d5c57f6662d5b71a19846f740c076827c2c25bc47b10766316fb3acdbfc",
            "summary.json": "24977de7c7a7c882e92979780dea43c8503071f12c0c1548e7cc4cf4b0c9434d",
        },
        "csv": {
            "f1.csv": "4c29329736aceedb42dbaaf9991c6208769ba7f31ef5091189f2fdf95f6efa67",
            "f2.csv": "0456c962b0d3af4b57e81b7490388686b8e317a4e736cc6b97585e2db0f43881",
            "f3.csv": "aab2c61eebdfdf79e859fd902151131edb50c5278928bbdd03aba1c2ff880804",
            "f4.csv": "b496620a0602b845adcdf41de19156f293ef87ecd642f8890536d1073a32ce7c",
            "summary.json": "6880333c264cac95b9a9f2f3ce0804473aab1b6aef0ca7a210e8600eaf3f6bbf",
        },
        "text": {
            "f1.txt": "422bf28c6d6ef57392c7ead313c67af0a513ebfdebf8d187b0971989170f642d",
            "f2.txt": "ee6d4f7ff35d2034dffeebe8efcdaccedde35f5664b88f3b22d35b7a07ed6735",
            "f3.txt": "933d5bd3ab4fc0a1da65543aac6a5dc2037985e584bb1bee55a98ae92b56d636",
            "f4.txt": "8559b012e23830cec3559a1ae3fc41ae3fefacc65a187a3c27bc75ee3eb809f6",
            "summary.json": "fcb69a482b49caf88c413bd937b8dfb627366cd71625842d09ec57e958f1c412",
        },
    },
    "--n 5 --k 4 --grid-min 2": {
        "json": {
            "f0.json": "29f71ac5abd75fdd98c75cbf9a92b0355458c1a46bc68f03e1213f860e922ffe",
            "summary.json": "d9cf3e5e7fc10608812fa115a317c9dccedce40a3a353c8c7b67f6933aeb88a4",
        },
        "csv": {
            "f0.csv": "2d01ad51b7c2563714fe80468ed876b6dfead51c556a361a4b2b959b3836d364",
            "summary.json": "3e5e32e876c33c5ed5af418f69c2246e86428e81230b750fd4c8563307d8c877",
        },
        "text": {
            "f0.txt": "2b8b9675d9da160fd6e9a6a0a8b8a95ad554d6ca67cf1afff53e50070e5f70d4",
            "summary.json": "02b4de0e57209c563ed72f4590517037652c3ffd00a2f6087aab0085dfde9f66",
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
