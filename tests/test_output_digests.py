"""Output bytes of six fixed-seed CLI invocations, pinned by SHA-256.

The digests were recorded with Python 3.11 and numpy 2.4.6.  Every CSV and
SVG each invocation writes is compared (24 files); ``summary.txt`` is left
out because it holds wall times and the output path.  A change that moves
a digest changes the program's output, and must say in CHANGES.md which
file moved and why.
"""

import hashlib

import pytest

from asefilt.cli import EXIT_OK, main

DIGESTS = [
    (
        ["sysid", "--runs", "10", "--horizon", "1000", "--instrument"],
        {
            "nmsd.csv": "73238c86c5516cb46e308491475bf51bc66bc3c6f7602f9318c526de7f391e88",
            "nmsd.svg": "6712aba237eee1a8d031424b737e4cd5f25ae3e081817ac5a4b089e184bcdb6a",
            "ops.csv": "327eb25b5f716caabed8a3dce6786925b756d6b0321f2a0d02bf91987be8d0c0",
        },
    ),
    (
        ["sysid", "--length", "16", "--runs", "2", "--horizon", "1500", "--instrument",
         "--dcd-update", "dense", "--delta-schedule", "constant"],
        {
            "nmsd.csv": "411b06c8d3f297822ebecc18e7b642738708d02f4588e0e1b757e2e4a635197e",
            "nmsd.svg": "2a412f85e67a7e3cc43b8c206c2bff4ccc96f6465f88ed3904d62b03fd1a4b03",
            "ops.csv": "ba5dd173ed5acc03af5e2c5ed186483b4e6c1ee9200a8cd2f808a9f7f826c23e",
        },
    ),
    (
        ["sysid", "--runs", "2", "--horizon", "1500", "--instrument", "--delta-schedule", "constant"],
        {
            "nmsd.csv": "974d8487bcd699d2fb6f536f95f6f613cf766b461ca258f775043cc4b1af0f76",
            "nmsd.svg": "8763c7a3449b9e90a3d68ac26bd284941f76eb01c1934552648d59fed5ed20e1",
            "ops.csv": "9c2ce675ccd3142ea418fd3f200ad133ed31bbbfde7082b2693b8c71c61fe4cb",
        },
    ),
    (
        ["anc", "--runs", "2", "--horizon", "5000", "--instrument"],
        {
            "anc.svg": "8cab7497b2443f33b3df841e68fbfba42f12fd14842e35b085487ff5cc232e22",
            "clean.csv": "371c604ddf94f15c6edb8a656d3cfaa0786f3f8aa0440f4cae6e6a8ad000e5d1",
            "denoised_dcd_ase.csv": "76c333c46add335bafdf98f23b75db9239178ba033decc7ca796b31abacb4f44",
            "denoised_iwf.csv": "4ff6ab7e22660fa45a0f69c18c028afb5d45b678802c6f3efe005ac1d8ccf1a5",
            "denoised_iwf_ase.csv": "dc781fbbe79613f8d5538746de1dde9ce028fb7f1d1de378d145bc519400cab0",
            "denoised_rmcc.csv": "148c28936c130348e868454f71ea14a2dcc17e536836e625d479a8cbee5086b5",
            "mse.csv": "a37cf4790b84e5e97bc2c69303ab7b0a4c2dc4bd6c3213539bdd39e7180b2632",
            "primary.csv": "9d2079b9566bf6fc34de7aecbcbea380080a33297f1507fe34be5466c09dae49",
            "reference.csv": "b5ef49a61d4b3113cddd9a561e6ce02c1d613b87dcde4b3e24649adde95f26a4",
        },
    ),
    (
        ["sweep", "--param", "n_updates", "--values", "1,8", "--algo", "dcd_ase", "--runs", "2",
         "--horizon", "1000"],
        {
            "sweep.csv": "63d1190957818caffc9e522ee4a1b4f65542f88173a054456e54423698e1a42d",
            "sweep.svg": "fa2553cdede0c91b64a9ce93f8911524732a5bfeb3bb60af2f8709b299fb6d53",
            "sweep_curves.csv": "c8fcf48ed867df82432db96c1c0f586583162d4897fd5a290754149122382708",
        },
    ),
    (
        ["dcd-bench"],
        {
            "dcd_accuracy.csv": "a8f967f65629b08bf6f77dde85118c8f44ecab3f4c206ce6ba1ce1e95add6344",
            "dcd_embedded.csv": "c3ed3354ebb3e140dcaa330c3774604581ce7abc90034da33fda2b0563301f99",
            "dcd_ops.csv": "0af9e3587a6358d889fe75264d3be9dc8dce44f07cd00db3c0c336aee553df30",
        },
    ),
]


@pytest.mark.parametrize("argv, digests", DIGESTS, ids=[" ".join(a) for a, _ in DIGESTS])
def test_output_bytes_are_pinned(tmp_path, argv, digests):
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.iterdir()
        if p.suffix in (".csv", ".svg")
    }
    assert written == digests
