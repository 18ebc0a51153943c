"""Golden report bodies: pinned sha256 of ``report_body_bytes`` for fixed runs.

The hashes are those of stream contract v2 (``numpy-pcg64-seedseq-v2``, kyfan
0.2.0), where the checker engine draws each block of trials from one
generator.  Under contract v1 the search and ptrace hashes were recorded with
the one-proposal-at-a-time search loop, and the extremal hashes with the
per-trial extremal loop of the command line; those nine bodies kept their
bytes under v2 except for the generator id and the tool version, because
their streams did not move.  Every engine must reproduce every body byte for
byte.
They hold for one numeric stack only: the generator id (stream contract and
numpy version) plus the BLAS/LAPACK build and the machine architecture.  On
another stack the test skips and names the stack it found, so new hashes can
be recorded there from a trusted checkout.
"""

import hashlib
import json
import platform

import numpy as np
import pytest

from kyfan.cli import execute, parse_arguments
from kyfan.ensembles import GENERATOR_ID, SeededStream
from kyfan.forms import fan_form
from kyfan.reports import check_report_document, report_body_bytes
from kyfan.suite import check_hmn, check_lemma31, counterexample_inputs


def _numeric_stack() -> tuple[str, str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return GENERATOR_ID, f"{blas['name']} {blas['version']}", platform.machine()


GOLDEN = {
    ("numpy-pcg64-seedseq-v2/2.4.6", "scipy-openblas 0.3.31.188.0", "x86_64"): {
        "check-all-trials50-seed271828":
            "a7056944198c99a2aec14e7ce4715d3140fbd56418ae1eea093a5563528c1ebc",
        "check-all-trials50-seed161803":
            "559ed3ae1ebd1360e5e972195c81a7275c4f0a2c28b3c98a493125469863791b",
        "check-all-n64-trials2":
            "c91f0574a031e8b4aab98b2298c27cbcc833f82987cbf8317c40202becf529eb",
        "lemma31-fan-witness":
            "54238afb9733ad338a64db927f55454df2ef01b2d8135c1352deb2609ec37eba",
        "hmn-fan-witness":
            "cd273f0f6563d992d517d1241ba9a0434d427ee13a365ba929203aa250e6bc1b",
        "search-q2-n3-restarts8-budget3000":
            "564981707e162e0883e8d129c203997ad9f009dcb1750790e5b5cdc4e5db7192",
        "search-q1-n4-commuting-budget800":
            "d3e33968587fd0914726a62d403f30c57dc744202631ec9d297c4fb8d8b6792a",
        "search-q2-n3-k2-budget500":
            "b89de034012af4eb52b9f80767729cbf2aaf9fde69ed4ae8ec2185dbf3dd724e",
        "ptrace-q2-n3-trials30-budget500":
            "d3c672607a6a7b62c937a3c2820f2479587271e58d68a6f8f41634f20febbeef",
        "search-q2-n3-witness-budget500":
            "cffd827ba97c42c2565940fe11dc6ce0a13a8b3b5908467792ee92191393309e",
        "extremal-all-trials300-seed271828":
            "86ee8a73348aa9f70087c7f61e1038a365b6425541eaa40a52ca31eecc6cfc96",
        "extremal-all-trials300-seed161803":
            "be88e1df6d18d34a397b84f41857c8e3148d4f763e8168b3142fd49ca14923c7",
        "extremal-matrix-n8-samples5":
            "791bd5bdc911ff30e97ec5742e21ee021c9e29094c2ed5a03cd7cdc69baadaea",
        "extremal-n2-samples0":
            "7e7d9a82dc2ec836958ca634757574356e384e7b20511c655248f4b26be22c64",
    },
}


def _cli_body(argv, capsys) -> bytes:
    capsys.readouterr()
    execute(parse_arguments(argv))
    return report_body_bytes(json.loads(capsys.readouterr().out))


CASES = {
    "check-all-trials50-seed271828": lambda capsys: _cli_body(
        ["check", "--ineq", "all", "--trials", "50", "--seed", "271828"], capsys),
    "check-all-trials50-seed161803": lambda capsys: _cli_body(
        ["check", "--ineq", "all", "--trials", "50", "--seed", "161803"], capsys),
    "check-all-n64-trials2": lambda capsys: _cli_body(
        ["check", "--ineq", "all", "--n", "64", "--trials", "2", "--seed", "271828"], capsys),
    "lemma31-fan-witness": lambda capsys: report_body_bytes(check_report_document(
        check_lemma31(fan_form(3), 3, 40, SeededStream(9),
                      extra_trials=[counterexample_inputs()]),
        include_witness=True)),
    "hmn-fan-witness": lambda capsys: report_body_bytes(check_report_document(
        check_hmn(fan_form(4), 4, 50, SeededStream(17)), include_witness=True)),
    "search-q2-n3-restarts8-budget3000": lambda capsys: _cli_body(
        ["search", "--question", "2", "--n", "3", "--restarts", "8", "--budget", "3000",
         "--seed", "271828"], capsys),
    "search-q1-n4-commuting-budget800": lambda capsys: _cli_body(
        ["search", "--question", "1", "--n", "4", "--strategy", "commuting",
         "--budget", "800", "--seed", "271828"], capsys),
    "search-q2-n3-k2-budget500": lambda capsys: _cli_body(
        ["search", "--question", "2", "--n", "3", "--k", "2", "--budget", "500",
         "--seed", "271828"], capsys),
    "ptrace-q2-n3-trials30-budget500": lambda capsys: _cli_body(
        ["ptrace", "--question", "2", "--n", "3", "--trials", "30", "--budget", "500",
         "--seed", "271828"], capsys),
    "search-q2-n3-witness-budget500": lambda capsys: _cli_body(
        ["search", "--question", "2", "--n", "3", "--budget", "500", "--tolerance=-10",
         "--seed", "271828"], capsys),
    "extremal-all-trials300-seed271828": lambda capsys: _cli_body(
        ["extremal", "--target", "all", "--trials", "300", "--seed", "271828"], capsys),
    "extremal-all-trials300-seed161803": lambda capsys: _cli_body(
        ["extremal", "--target", "all", "--trials", "300", "--seed", "161803"], capsys),
    "extremal-matrix-n8-samples5": lambda capsys: _cli_body(
        ["extremal", "--target", "matrix", "--n", "8", "--samples", "5",
         "--seed", "271828"], capsys),
    "extremal-n2-samples0": lambda capsys: _cli_body(
        ["extremal", "--n", "2", "--samples", "0", "--seed", "271828"], capsys),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_body_matches_golden_hash(case, capsys):
    stack = _numeric_stack()
    if stack not in GOLDEN:
        pytest.skip("golden hashes not recorded for numeric stack "
                    f"{stack[0]} / {stack[1]} / {stack[2]}")
    digest = hashlib.sha256(CASES[case](capsys)).hexdigest()
    assert digest == GOLDEN[stack][case]
