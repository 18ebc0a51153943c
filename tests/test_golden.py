"""Golden report bodies: pinned sha256 of ``report_body_bytes`` for fixed runs.

The hashes are those of stream contract v3 (``numpy-pcg64-seedseq-v3``, kyfan
0.3.0), where the checker engine and the extremal targets draw each block of
trials from one generator.  The ten check, search and ptrace bodies kept
their contract v2 bytes apart from the generator id and the tool version,
because their streams did not move; the four extremal bodies moved with
their streams.  Every engine must reproduce every body byte for byte.
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
    ("numpy-pcg64-seedseq-v3/2.4.6", "scipy-openblas 0.3.31.188.0", "x86_64"): {
        "check-all-trials50-seed271828":
            "f8460efb2c951796683d0e16309193f552e1a47abd0f6061a0cc84a6f27a17bb",
        "check-all-trials50-seed161803":
            "3a1407b0044c7f227da4aef24fb402a7e1c1a68a4e5a1d07226b70854f93f404",
        "check-all-n64-trials2":
            "1a999854a352b4b2ee745bb2b3f287d9ab26cd643abd13adeaf36a2c6aba5261",
        "lemma31-fan-witness":
            "ed08019e0148c02c5b0c3d3c4ebcb2ff8749bc4c58988264be51b26807966bdc",
        "hmn-fan-witness":
            "da077a1fffc184a842a2ade7fd2e1a285c72b8ba0476add346f14080188744d5",
        "search-q2-n3-restarts8-budget3000":
            "88001eaebea14729f928b1b229ee94dd0eff18fe1fa5497d3a92ff25645581fe",
        "search-q1-n4-commuting-budget800":
            "cf9e435e4dc32050a1c3330e6ce731c1fcc4110f7c28600759433ab5caf43d59",
        "search-q2-n3-k2-budget500":
            "6964548c95cab772e7c86fb40edf4967cf2c4eebfb602b240be2356f0af6fe77",
        "ptrace-q2-n3-trials30-budget500":
            "42b6622f57087bcc45c146de18837a7e056a857e6fb0c0ca992d2f831f777e49",
        "search-q2-n3-witness-budget500":
            "1d019cec5630874033d08e3cc147534feb8aff10fa18f7f21b5fcb858491f3df",
        "extremal-all-trials300-seed271828":
            "855a0fb33c3b7c95659ea8a3e4b355c3d1b69d12cad70309b3014ef99b60a84d",
        "extremal-all-trials300-seed161803":
            "3b3831398079c95cf5cc094366284c26a0aba92c07dcdb58cab9fc1b1fa4d3e6",
        "extremal-matrix-n8-samples5":
            "6f342ee48a0d623a70f64895c506ef88e6244685bbda53ab6af6fee35fb3e4bd",
        "extremal-n2-samples0":
            "6fa5ec04aea104eb4da0c585376744d8e1e8a4fb0672fcb8b88c6fa34d2b6199",
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
