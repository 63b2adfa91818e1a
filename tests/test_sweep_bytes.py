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
and pairwise_commutation went from a few 1e-16 to 0.0.  Every JSON file
with a zero-set summary (each per-structure JSON file and every
summary.json) was retaken when the zero sets began to be read off an
integer 4 x 4 Gram matrix in exact arithmetic: sigma_max_dropped became
exactly 0.0 and sigma_min_kept, from an eigvalsh of that matrix, moved in
its last bits, and at (8, 6) the f1 Kill point moved from
(1.0000000000000002, 1.3333333333333335) to exactly (1.0, 1.3333333333333333);
no residual, membership, rank or description moved.  The
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
            "f0.json": "07f74f1d1f9245e242fe3ecc6e60c0d3478ae25faf6d37e48e8e0af81ffe8701",
            "summary.json": "6f6bda7974be9e21529f6d65da5d432952e2412222d10a13f8a22120e60c4119",
        },
        "csv": {
            "f0.csv": "66dd15afaf0ed287b1fd5f86adfad321942f8bb7cbdb647d2f9329700eb7a972",
            "summary.json": "bda3c9a4e10115132e9154d7e0d9479b61370decc4a54a4d2fbc45dab291e3bd",
        },
        "text": {
            "f0.txt": "e6706bb580c39eed870107b382d172e9fa50890c77bb1d381466c7d6e501ec8b",
            "summary.json": "1c02818dafeddf2deb08e7c450ca60037f8ccc798e1c3336691009b6ee9ff0f2",
        },
    },
    "--n 5 --k 6": {
        "json": {
            "f1.json": "40b8e0c728eac5cb5ce3bd6b0b55fe183bcd6cd2cc13e81b383327a1b8fe32cd",
            "f2.json": "714254ed445248e3e7a1a238136ae318b99220f6aa25981c55bf99b0289799bc",
            "f3.json": "bfac5364ca4669ad81185493bf86fba636e409713d53c832a21a0441ee0d5b9e",
            "f4.json": "1a9d7524383dc6ecfc11bc49899b45da6a9af285b20d267668a89007a55af2e7",
            "summary.json": "eb93bd0b26dcf4a20df906ac5561c4f6010a25a898a838fcd816d6935ad2a2e5",
        },
        "csv": {
            "f1.csv": "66dd15afaf0ed287b1fd5f86adfad321942f8bb7cbdb647d2f9329700eb7a972",
            "f2.csv": "61378765e0ad64ecb5abe997892d46cc934a4975c2c79f0316dd2154b418581e",
            "f3.csv": "e0d7835d36421736d1ab012975030516cb4ae91febf7a124f6b9260f20d2a40d",
            "f4.csv": "a861c236344d7020dcf7e04bf42030bac37f37b01c4d5d5256d421f8f913ca00",
            "summary.json": "24ec339bf9bd4a4a148d2c146fc9789b4f963fc62d9f7d467dbdda11ca71ac56",
        },
        "text": {
            "f1.txt": "4d0f0d43326116ef7ef356fc5241a389246c3825d794d83a5b8617fbcbbd4abc",
            "f2.txt": "52b617d1cccaef4b5e0ec8a06db4f97a0b6b1c8eadf89aad63ec7120e072af7c",
            "f3.txt": "8ebe1bb8cbc1bd91a8b70bad094d0131eff434233dc615405a8dd0620f8e43f1",
            "f4.txt": "cf6f48d590711f967bed5394d093e5d4f383c929bb153ca4681ef4050ec000b6",
            "summary.json": "dd7f3af3d35fd8fb7e29c92486135104fd135bfda512d666801b20313aa1a51f",
        },
    },
    "--n 8 --k 6": {
        "json": {
            "f1.json": "146233c6a0b0a0867e640b965ea0ea32caf04887d19e871c660c7db73eff4b88",
            "f2.json": "967f2ab00aa34c41967d9539ef6d6197826361fc10c364785f9ad57a5c1d7019",
            "f3.json": "ee6908c4ae80ddfe355cdca68c10636ab6251fe96b38f6da5690282192f18c7b",
            "f4.json": "244a3ef5698f2f60a53136d1a64267ef1153548ef72e889f51dc515778460943",
            "summary.json": "2db7b796352c1c2e6a319bc6254856ebf4d600bd5afce9673e980e0bd659fb24",
        },
        "csv": {
            "f1.csv": "66dd15afaf0ed287b1fd5f86adfad321942f8bb7cbdb647d2f9329700eb7a972",
            "f2.csv": "61378765e0ad64ecb5abe997892d46cc934a4975c2c79f0316dd2154b418581e",
            "f3.csv": "e0d7835d36421736d1ab012975030516cb4ae91febf7a124f6b9260f20d2a40d",
            "f4.csv": "a861c236344d7020dcf7e04bf42030bac37f37b01c4d5d5256d421f8f913ca00",
            "summary.json": "07e10cd9307e7093c2bc2838335ac31326abef2ca78ead19c6a8c95f351eb8db",
        },
        "text": {
            "f1.txt": "4d0f0d43326116ef7ef356fc5241a389246c3825d794d83a5b8617fbcbbd4abc",
            "f2.txt": "52b617d1cccaef4b5e0ec8a06db4f97a0b6b1c8eadf89aad63ec7120e072af7c",
            "f3.txt": "8ebe1bb8cbc1bd91a8b70bad094d0131eff434233dc615405a8dd0620f8e43f1",
            "f4.txt": "cf6f48d590711f967bed5394d093e5d4f383c929bb153ca4681ef4050ec000b6",
            "summary.json": "307756870abaaee8b3a0c1a76c682b0c68f13b3e4969a26df3c5317f8e253a53",
        },
    },
    "--n 5 --k 6 --grid-step 1.0": {
        "json": {
            "f1.json": "1f4a3de5e59366f9ea7aa86113ee03ded59b04306955b1f8ac414050cd50c2bc",
            "f2.json": "f98639e6d0a0bd1310324b7302980ab5c123427f25522ac54e89d27148d809ce",
            "f3.json": "14994fbca29432998257b61b6fc459424f3440f1dbb067670acd61bca028eb0b",
            "f4.json": "2cf6a1d7a3118beb682ccd24d527a5f3d876b99c6df88cd4935483486f2933e5",
            "summary.json": "d286b9794adf25dbd08239ec20980030a4187de6b2520e150d7a63b69b82039f",
        },
        "csv": {
            "f1.csv": "4c29329736aceedb42dbaaf9991c6208769ba7f31ef5091189f2fdf95f6efa67",
            "f2.csv": "0456c962b0d3af4b57e81b7490388686b8e317a4e736cc6b97585e2db0f43881",
            "f3.csv": "aab2c61eebdfdf79e859fd902151131edb50c5278928bbdd03aba1c2ff880804",
            "f4.csv": "b496620a0602b845adcdf41de19156f293ef87ecd642f8890536d1073a32ce7c",
            "summary.json": "5a5331a487d362885bb2c9ec64df2bb5b07a8b89b8e1c3ecca7d6181d50bbe05",
        },
        "text": {
            "f1.txt": "422bf28c6d6ef57392c7ead313c67af0a513ebfdebf8d187b0971989170f642d",
            "f2.txt": "ee6d4f7ff35d2034dffeebe8efcdaccedde35f5664b88f3b22d35b7a07ed6735",
            "f3.txt": "933d5bd3ab4fc0a1da65543aac6a5dc2037985e584bb1bee55a98ae92b56d636",
            "f4.txt": "8559b012e23830cec3559a1ae3fc41ae3fefacc65a187a3c27bc75ee3eb809f6",
            "summary.json": "3bf551d5137c22e4f2526927152bc46d9157b120fd6ca4cf62b4985daa96d742",
        },
    },
    "--n 5 --k 4 --grid-min 2": {
        "json": {
            "f0.json": "8acc0492b516bbe935674e80fa8c0bc80b1572a11b4bcd50709a818ce97b49bc",
            "summary.json": "2b379082a8bf864baa9b1a9c1bbd42ed2a28c7e042b4c9f27bedab66ba326ed6",
        },
        "csv": {
            "f0.csv": "2d01ad51b7c2563714fe80468ed876b6dfead51c556a361a4b2b959b3836d364",
            "summary.json": "1004a56b8cfff162c1d3de2945fe42fb5591361f7fc176e9c466a5855084e9e2",
        },
        "text": {
            "f0.txt": "2b8b9675d9da160fd6e9a6a0a8b8a95ad554d6ca67cf1afff53e50070e5f70d4",
            "summary.json": "e94c254dd1b4aacae07012e85ff1578b94369b1face3aa844e639c2aa618c3ea",
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
