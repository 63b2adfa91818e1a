"""The bytes of every sweep file, pinned by sha256.

The digests were taken before the report writer formatted whole columns at
a time, so any change to a float, a flag, a key or the layout of a sweep
file shows here.  Those of the per-structure JSON files at k = 6 were
retaken when the structures' reconstruction became one product with theta's
powers, which moved their polynomial_residual, ad_invariance and
pairwise_commutation by a few 1e-16.  The residual columns carry the last bits of floating-point
sums, so a numpy or BLAS build that orders a sum differently changes them;
they were taken with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64.
"""

import hashlib

import pytest

from flagf.cli import main

DIGESTS = {
    "--n 5 --k 4": {
        "json": {
            "f0.json": "0548a6269fe7ad49d06e60e9a8419ea5b8a122801b8d82fe1a6a391a0b92ed28",
            "summary.json": "cebd9d1c6a57bf53f3ce64bbf99f2e25abb79bdf422b79e171cc96dfa16ee7bd",
        },
        "csv": {
            "f0.csv": "dff7dd0f6132cabe514bca72111d2ec47263c161cdbd87a879c5b74a6b54dc5a",
            "summary.json": "530a0a469fac736f13c00c18300c0c5e3d379a9d18ba986865ecdc6a98fcce70",
        },
        "text": {
            "f0.txt": "775893f00e1263392492c92ec1f726073b9811e63e17dc724564ca573c39d1ef",
            "summary.json": "74f0818366f06791de9acfb0a59576883c26f7cbf03803a22413f636b0ee8975",
        },
    },
    "--n 5 --k 6": {
        "json": {
            "f1.json": "402accb7de496847c7a70faa1d243bf23828ffcf5ec95f4edf6e04f48c4fa961",
            "f2.json": "8dcb427a68f5120032f57824a786aa00e773ca68e4b6efa8155271d668ca5f98",
            "f3.json": "7229fa730267d45d0941da7c11c5e156bd0104084668bd9b67c3e39d08304a8f",
            "f4.json": "52957686b27824e1f411d55349df2f9db8c029659de93abc1be01f49f4297e4d",
            "summary.json": "b190138d183a7713d69547598a2d422087fb43113d8edaaedd21ffd740e89364",
        },
        "csv": {
            "f1.csv": "1149d3d7d5529b76cd34b2b32737adcb408ea5ee6e4dc8f8d288daec591aee2a",
            "f2.csv": "72c8d754bb0202e2e09978194ee367df493d0d79ac87d018657faa3c82c79ac2",
            "f3.csv": "29904008b7789c102355bede75df6b5a7f6ab4fd6f9103f4e878f9117750b1ee",
            "f4.csv": "bdae58b1ef4acdce30bcc60e77dec87c8381b57a2dbdd4a464328e5e2fff15a7",
            "summary.json": "3ee43b0839f00a4a9bf7f6f094036780142998f951e89ec62a9914e9f6b6b076",
        },
        "text": {
            "f1.txt": "155686e0a617cc08f25277695bd241463acf3b975e7dd99e1cf8db1f5de12d5a",
            "f2.txt": "81664b73a021fbfe71e83725f33b429638164bea6f7f67e2e66717dbebcbcf8a",
            "f3.txt": "fd3325b9babf02355b341afccd454895c7b397d5dcfbb47f24c2b69bbdffd993",
            "f4.txt": "70fba2fd8c3b4d25de41e18c9b8348ccc595eb40d18991d1dfcf4759d3223f34",
            "summary.json": "810521e746f7bb0205573804d7a4fe77d8c6ebc80425254d606e4c187860fbb8",
        },
    },
    "--n 8 --k 6": {
        "json": {
            "f1.json": "34b8a7836abc779af12412eb0b9d8d71ca0580f4ec3f4600fdea496989d3bb45",
            "f2.json": "a45f8bf338f6e886c802bc1fb18a3eef1bc803c020848d9fa8666db5b4912472",
            "f3.json": "3869edf9c43626bc29fac9c052fb7049fe003500758a771d95400b1d29a22aee",
            "f4.json": "0bc1ef23a00232b694d9fde69cb74b58a1f4d029b61b7984ad865b2457de1967",
            "summary.json": "d131256bbbfc2556183bc244469607f936ff033dfa9bf946d38c2e3791501616",
        },
        "csv": {
            "f1.csv": "1149d3d7d5529b76cd34b2b32737adcb408ea5ee6e4dc8f8d288daec591aee2a",
            "f2.csv": "72c8d754bb0202e2e09978194ee367df493d0d79ac87d018657faa3c82c79ac2",
            "f3.csv": "29904008b7789c102355bede75df6b5a7f6ab4fd6f9103f4e878f9117750b1ee",
            "f4.csv": "bdae58b1ef4acdce30bcc60e77dec87c8381b57a2dbdd4a464328e5e2fff15a7",
            "summary.json": "c25aa1c30be86146854b2ffc88fe3b3b7c7357a404283ac8dde0683b3de27263",
        },
        "text": {
            "f1.txt": "155686e0a617cc08f25277695bd241463acf3b975e7dd99e1cf8db1f5de12d5a",
            "f2.txt": "81664b73a021fbfe71e83725f33b429638164bea6f7f67e2e66717dbebcbcf8a",
            "f3.txt": "fd3325b9babf02355b341afccd454895c7b397d5dcfbb47f24c2b69bbdffd993",
            "f4.txt": "70fba2fd8c3b4d25de41e18c9b8348ccc595eb40d18991d1dfcf4759d3223f34",
            "summary.json": "361819e87195b8e0aadeb23f26db05ef17bb3f218d35140f42665339bcfb715c",
        },
    },
    "--n 5 --k 6 --grid-step 1.0": {
        "json": {
            "f1.json": "ea1a34d4d9545658e2f0956e834c7e10a1e4715792967e6ea2957d2b761749c8",
            "f2.json": "a1f53c43ea5ccf1bcdbb94f5fcedcfc5527e3e06ad62e47fe5a123f78b662ecc",
            "f3.json": "754197f08ceb290e60cec69ea578e701c18ee48b3d5590d64a67832ea1fab36c",
            "f4.json": "8b217066ed152411c5fd545a5d059f723b1a2c67a4dd78302e04dce622bfee41",
            "summary.json": "02ffcd9c80f7d744c2c90d27343b5d186d5837b41aa01e36bc5ea97e6422be38",
        },
        "csv": {
            "f1.csv": "437ba97c340aea640203ef30a04d224c70e7df0ac21edf45cc6113d6af858722",
            "f2.csv": "ea0bafb31a8ac89a98aa29067a94d1be2258ade6fd4c9ce11db6143801c4c18e",
            "f3.csv": "776ef635e5361c3be5fd386660395e943caa3b2e1570205632ccbcde2be2f4d1",
            "f4.csv": "3e7d799673bbf7983e733879e92c0545c3350a2fc7ac66e1d7ad6ca3aadc089a",
            "summary.json": "62634177d2b6b1c8facbc57b634ac43e933b164f6931b02a3643042464129dee",
        },
        "text": {
            "f1.txt": "d0925257c407b99ee7802d08818702178e4df35e4c073e4a7e3a97991fd02497",
            "f2.txt": "4df7b96f3f513df50c65d73368c0b541492e17dd51daaccd7d793670414a95c5",
            "f3.txt": "62ba5e0efd48a4b1bdeef4640af3f5c30614fb10d9da2975a3e841ca1f3630f7",
            "f4.txt": "616ec1832c9264b101a0248edd4eb5ff5facc8a5545654113d955bf03b9bc5df",
            "summary.json": "53368dfd97d3f1c1eaeb23b327fb2be99e35155624ff1419477844f5f9425940",
        },
    },
    "--n 5 --k 4 --grid-min 2": {
        "json": {
            "f0.json": "3dfe90caed0f2a02ea50841111e1b978789d29fe41370975f807a1c90627340c",
            "summary.json": "8a23d8da2784104640b9a149f319156757464950a4c71afaf86996d489331b87",
        },
        "csv": {
            "f0.csv": "7f88f93b262a43015abfa57aa17b29274288a57eb575744176c55b0aaab3cd13",
            "summary.json": "bc6c5bb7d0a1c788b79a6bdb424fc1094673dbe26eccd558672ab0bbc37967d5",
        },
        "text": {
            "f0.txt": "918d75250f042d7fde946692685436f63d3d0fd574465e4f7e93dec716158531",
            "summary.json": "0ab61b59828419bc78fb47bd6e6ae372a8f6090367580278b98b1bed92b412b6",
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
