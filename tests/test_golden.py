"""Golden report bodies: pinned sha256 of ``report_body_bytes`` for fixed runs.

The hashes were recorded with the per-trial checker loop, before the stacked
trial engine replaced it; the engine must reproduce every body byte for byte.
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
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_body_matches_golden_hash(case, capsys):
    stack = _numeric_stack()
    if stack not in GOLDEN:
        pytest.skip("golden hashes not recorded for numeric stack "
                    f"{stack[0]} / {stack[1]} / {stack[2]}")
    digest = hashlib.sha256(CASES[case](capsys)).hexdigest()
    assert digest == GOLDEN[stack][case]
