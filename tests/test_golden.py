"""Golden outputs: the SHA-256 of the canonical JSON report of CLI
invocations that the benchmark does not pin.  A refactoring that keeps
the checks must keep these bytes; a deliberate output change updates the
digest together with the code that changed it.
"""

import hashlib

import pytest

from qortho.cli import run

GOLDEN = [
    (["build-r", "--n", "4"],
     "7833738fbe0d08ed98be5a258d94827c913e9b71fa03b5cf7a3eddc43f2b0b56"),
    (["build-r", "--n", "3", "--spec", "s=2"],
     "1b6cf36282a42536af25b930eb7d2051aacbb5d36a8c6d15d9c93a183eefea69"),
    (["verify", "--suite", "embedding", "--n", "3"],
     "0af7d02dc32290cd98de3ab1934f1bfb30a9025b01e0067ed2c9b2d830a6d530"),
    (["det", "--n", "5"],
     "316badf4a0fb23ac14824866b20b63f58a866c66baebfc46f04343816d95a2f7"),
    (["reduce", "--n", "3", "--algebra", "plane", "--word", "x2 x1"],
     "35efecdbed96de43cdb51f0842ee1b3d284463d712bf4b6553cca12551a3e92a"),
    (["pair", "--n", "3", "--functional", "L-[1,1]", "--word", "u"],
     "d9df7a37826851f39cae4dbeff7756d729567a679705fd41b44009538906d493"),
    (["lie", "--n", "3", "--kind", "projected"],
     "3a518e80048814884ee077be693eabbbe0583fa62c9a7fd143fe26ed8114a356"),
    (["lie", "--n", "3", "--kind", "r1"],
     "7a7b3aee9eb6d23244e914d0ac101690963a1c62c4e899aa947fe115358a5509"),
    (["verify", "--suite", "presentation", "--n", "4"],
     "d15f77789ca1d31d4a487aa1ea18d0f1da40ee80fe034f13d9e2e2cadd6e0182"),
    (["verify", "--suite", "calculus-projected", "--n", "3"],
     "8c1cf4cb10d6d79a066a1b716e015397c66ef345f3562bd7683a656f9e541693"),
    (["verify", "--suite", "rmatrix", "--n", "5"],
     "c2f09c44254d822eeeeb925219ca46402de0fa36c44e0e5312f58a7f44a7913d"),
    (["build-r", "--n", "6"],
     "1067f1cf07c807c7ae5ceda9cd0f0ce371e7c17874baa7e1dbc6458356b4d950"),
    (["verify", "--suite", "envelope", "--n", "4", "--degree", "1"],
     "a4cd185f49dc2c4d7b9270c9aa032ddfd622be2605933fbd6425767fbd60185a"),
    (["verify", "--suite", "rmatrix", "--n", "10"],
     "621eabf56646763960d75bed3509c91983699becc1aaee3cda77991d62825c6b"),
    (["det", "--n", "7"],
     "d1cb74a69c679fd9a912da9647d392a79ab0bb4e13ed93884210a8448ee8773e"),
    (["verify", "--suite", "calculus-r1", "--n", "4"],
     "ad7df93ebcaff91b8fe902f7962d1135d1796b6660a99a6096518c1930e17ef4"),
    (["verify", "--suite", "calculus-r1", "--n", "5"],
     "65e52239c6f178bc0cd2e7ff7998a025476408235cf2d18d24db98f4bf3a89ce"),
    (["lie", "--n", "4", "--kind", "r1", "--degree", "3"],
     "2f9808bdf80637f3cba43fa67e912e0493185f5fee424394f3ed24e09af91d7b"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN,
                         ids=[" ".join(argv) for argv, _ in GOLDEN])
def test_json_report_matches_golden_digest(argv, digest, tmp_path):
    out = tmp_path / "report.json"
    assert run(argv + ["--format", "json", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
