"""Golden report bodies: pinned sha256 of ``report_body_bytes`` for fixed runs.

The hashes are those of stream contract v4 (``numpy-pcg64-seedseq-v4``, kyfan
0.4.0), where the checker engine and the extremal targets draw each block of
trials from one generator and each search restart draws its proposals in
blocks.  The nine check and extremal bodies kept their contract v3 bytes
apart from the generator id and the tool version, because their streams did
not move; the four search bodies and the ptrace body moved with the
proposal streams.  Every engine must reproduce every body byte for byte.
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
    ("numpy-pcg64-seedseq-v4/2.4.6", "scipy-openblas 0.3.31.188.0", "x86_64"): {
        "check-all-trials50-seed271828":
            "4eba4c406df4f6d5563cbd2b1fc6db79ab28e59834a01de2d52a8193a0358bd5",
        "check-all-trials50-seed161803":
            "31c7b36b475a6034fc802c4043ba8593f7f7f2428fd2b1df300f3b49f865633b",
        "check-all-n64-trials2":
            "f8a5cb4e0e0a552efb28ee0df68e59f61a3afeb639b11b02d54712d1f02db02a",
        "lemma31-fan-witness":
            "426b8ee09219db5feecdbb98a59593257a544406a500fe2cc3e8f60b24d8f01f",
        "hmn-fan-witness":
            "855a8e1b48159a19958278110a303d2c31e6b78211493aefd0fc59590514558f",
        "search-q2-n3-restarts8-budget3000":
            "a2c46f2052c3718188acf0a907ec354548a79bb39c73f75cc654cd3568cf1cb1",
        "search-q1-n4-commuting-budget800":
            "ccd6c943cdfe49b5b67dc82616b6609c690cf2aed97c9314588337a8c37208ae",
        "search-q2-n3-k2-budget500":
            "0764895c72c565475b3acb004df3d50c891ae3997966a3e3cccbdcc2e4685be7",
        "ptrace-q2-n3-trials30-budget500":
            "84a5b31209e6290532a5fe2d7aa7d9310b222a340fbb2621ba70702785108898",
        "search-q2-n3-witness-budget500":
            "9cb7e6bf1441d34a1cfb4ad7cb405c636034a6c96f3ac409b08bd9922819fe6c",
        "extremal-all-trials300-seed271828":
            "33428b7b0a61846aa090f7e79508b3e78122e96b8b319185e8dcc9270d09d740",
        "extremal-all-trials300-seed161803":
            "de20f1ebedf862d454345e20bd70abbc3a6ddcfc76ea30c5e3bee5003a9e6c3b",
        "extremal-matrix-n8-samples5":
            "789146ae67d2a180dcf6e52abadaa645013fe5bf0ca1fdc3e43ae2b739bba105",
        "extremal-n2-samples0":
            "e77716f4231fe6863c281f55572b822405e51d257ca6912bead48702fc4b1a2c",
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
