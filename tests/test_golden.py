"""Golden report bodies: pinned sha256 of ``report_body_bytes`` for fixed runs.

The hashes are those of stream contract v6 (``numpy-pcg64-seedseq-v6``, kyfan
0.6.0), where each checker block draws its uniforms for all its trials and
the normals of the trials it scores only, the extremal targets draw exactly
the normals their trials use and score every candidate through diag(U* C V),
and each search restart draws its proposals in blocks.  Against contract v5
only the check bodies moved beyond the generator id and the tool version:
the three ``check`` runs and ``hmn-fan-witness``, all still with 0
violations.  ``lemma31-fan-witness``, whose worst trial is the injected
counterexample, kept its v5 bytes apart from the generator id, and the
four search bodies, the ptrace body and the four extremal bodies kept
theirs apart from the generator id and the tool version, because their
streams did not move.  The repro body draws from no stream.  Every engine
must reproduce every body byte for byte.  They hold for one numeric stack
only: the generator id (stream contract and numpy version) plus the
BLAS/LAPACK build and the machine architecture.  On another stack the test
skips and names the stack it found, so new hashes can be recorded there
from a trusted checkout.
"""

import hashlib
import json
import platform

import numpy as np
import pytest

from kyfan.cli import SEED_ENV_VAR, execute, parse_arguments
from kyfan.ensembles import GENERATOR_ID, SeededStream
from kyfan.forms import fan_form
from kyfan.reports import check_report_document, report_body_bytes
from kyfan.suite import check_hmn, check_lemma31, counterexample_inputs


def _numeric_stack() -> tuple[str, str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return GENERATOR_ID, f"{blas['name']} {blas['version']}", platform.machine()


GOLDEN = {
    ("numpy-pcg64-seedseq-v6/2.4.6", "scipy-openblas 0.3.31.188.0", "x86_64"): {
        "check-all-trials50-seed271828":
            "c6e2424348c845922771a84749d2cb04b1e62c1a2db77047d0f49b70d3077622",
        "check-all-trials50-seed161803":
            "f25bed9211cc8c83686ef6d0a5e34449d00a9905a5d25f35295ca480e3d6e141",
        "check-all-n64-trials2":
            "d6adf9ae876ec2b18b9fe5a585a7a3a05bb53125a3bd35e293fd7f093c0a2383",
        "lemma31-fan-witness":
            "79e370266f4cdf5ad49c4ce3636b87c82e45331d4bb23e38cfd5c8eaf0942589",
        "hmn-fan-witness":
            "f37aac31c4a3b6eb02dac2174e6ab398225ba553e7907f38fb01c2addc3ef549",
        "search-q2-n3-restarts8-budget3000":
            "ea93bb63a091f859ea945d32b3dad8824f4a1a671df988335f7201358baee2c2",
        "search-q1-n4-commuting-budget800":
            "308eaff2ac9f22da885dd0922345fdd750b8873325be5adb36c8397b43890869",
        "search-q2-n3-k2-budget500":
            "1b0c9ddc001f8ef88e25d0ceda7a19ba1f53c95c3570f37f5a0a6357668b04a1",
        "ptrace-q2-n3-trials30-budget500":
            "eb26a65d8db5cf51de7c312d5101674abc3c9ad76d54ee8e567ed54d5c295482",
        "search-q2-n3-witness-budget500":
            "de7d36d997a872e4b5e70e27782ae06e993e3289e35ccb61afa984d907d2053b",
        "extremal-all-trials300-seed271828":
            "3a7e159ad13bed884cf35fb83e73bb470c941c16931ca5dfcb50900b44cb9c90",
        "extremal-all-trials300-seed161803":
            "e4d11377e2fed3828b9a073c819a19b69be7e2ad035913822d5162f952c020c7",
        "extremal-matrix-n8-samples5":
            "e6a2e9556db7d9ddd42b6287a61b74b6e46453fa134fda68fb7b78c95e1fae96",
        "extremal-n2-samples0":
            "712edd3f0f8c930d4077aed1364acc8152113119e435f39a053335bd4a38b967",
        "repro-fan-counterexample":
            "06da67b2c65a4e7e5e1d23ff91c5e988c04c71292f05c56e6afa3da6384f632a",
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
    # takes no --seed, so the body records the default seed and its source
    "repro-fan-counterexample": lambda capsys: _cli_body(["repro", "fan-counterexample"],
                                                         capsys),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_body_matches_golden_hash(case, capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    stack = _numeric_stack()
    if stack not in GOLDEN:
        pytest.skip("golden hashes not recorded for numeric stack "
                    f"{stack[0]} / {stack[1]} / {stack[2]}")
    digest = hashlib.sha256(CASES[case](capsys)).hexdigest()
    assert digest == GOLDEN[stack][case]
