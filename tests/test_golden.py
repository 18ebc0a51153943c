"""Golden report bodies: pinned sha256 of ``report_body_bytes`` for fixed runs.

The checker hashes were recorded with the per-trial checker loop, before the
stacked trial engine replaced it, and the search and ptrace hashes with the
one-proposal-at-a-time search loop, and the extremal hashes with the
per-trial extremal loop of the command line; every engine must reproduce
every body byte for byte.
They hold for one numeric stack only: the generator id (numpy version) plus
the BLAS/LAPACK build and the machine architecture.  On another stack the
test skips and names the stack it found, so new hashes can be recorded there
from a trusted checkout.
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
    ("numpy-pcg64-seedseq/2.4.6", "scipy-openblas 0.3.31.188.0", "x86_64"): {
        "check-all-trials50-seed271828":
            "0a8eede737d00142829c628a57de8fafb8b8358c7f970fa12431479d9d2e727f",
        "check-all-trials50-seed161803":
            "8fe21cd39f24f3a48445cf1d66e211c5bea0bac4b53ef5b3bbc8917f3ce1807f",
        "check-all-n64-trials2":
            "f2187c2216c7aea71212388b99f53b964cee7c1611402f6b1b949a9da568f74b",
        "lemma31-fan-witness":
            "a792a7f33bc2e03da55069a03320631cb1d65003e4afe0452ccde6508cbef938",
        "hmn-fan-witness":
            "d3633d4972bc30e93a2c2376813956c1624731971e05d5e48ca6d1a916796550",
        "search-q2-n3-restarts8-budget3000":
            "ffe5503971aec5c124f441b9e2a09f629d205838ceafc30e505ee5d885706515",
        "search-q1-n4-commuting-budget800":
            "3d511d6d7d7f95f08cd09c054d934442c667609bd3b23bc93a50d02a2a9b41de",
        "search-q2-n3-k2-budget500":
            "1475e2ce83c913115864c557bf4d576bab476a9dcabf89a6b278851f4f0a909a",
        "ptrace-q2-n3-trials30-budget500":
            "e89aa4284ad0fa11a4cebbca29d4f9bb1f220c005d1fab436221c8b67e0b740f",
        "search-q2-n3-witness-budget500":
            "8a1721998667f9260422244982517334d78446a194939cc64173ad99b5aa11c2",
        "extremal-all-trials300-seed271828":
            "b80982b916cdf17e9e1c68670640a9b36a592abc76d45b700bcc9ebc0e6f21b0",
        "extremal-all-trials300-seed161803":
            "16f4f2488d40790afa782df1d6a46b1cffeeb7ed33b7bc937ec9f48e2ee73bf5",
        "extremal-matrix-n8-samples5":
            "36487526466c044f338e24215e7d07fe97dde2f8895ee49fa01efacbedc3dea0",
        "extremal-n2-samples0":
            "aae7f93a16b8b7d12fe6b6c5deb2f06c3551bdcff1f7c8189e079da1587bd770",
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
