"""Golden report bodies: pinned sha256 of ``report_body_bytes`` for fixed runs.

The hashes are those of stream contract v5 (``numpy-pcg64-seedseq-v5``, kyfan
0.5.0), where the checker engine and the extremal targets draw each block of
trials from one generator, the extremal targets draw exactly the normals
their trials use and score every candidate through diag(U* C V), and each
search restart draws its proposals in blocks.  The five check bodies, the
four search bodies and the ptrace body kept their contract v4 bytes apart
from the generator id and the tool version, because their streams did not
move; the four extremal bodies differ from v4's only in ``worst_gap``,
each at most 1e-12, with 0 violations.  The repro body draws from no
stream.  Every engine must reproduce every
body byte for byte.  They hold for one numeric stack only: the generator
id (stream contract and numpy version) plus the BLAS/LAPACK build and the
machine architecture.  On another stack the test skips and names the stack
it found, so new hashes can be recorded there from a trusted checkout.
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
    ("numpy-pcg64-seedseq-v5/2.4.6", "scipy-openblas 0.3.31.188.0", "x86_64"): {
        "check-all-trials50-seed271828":
            "80f0c8caf912c940f5c2857963f29d0150409e6155d921544ce8eef3bf6afca0",
        "check-all-trials50-seed161803":
            "0466473d85f9e97dd242da4f259c98a7962f8a03d39717509516e31bc7e2c24d",
        "check-all-n64-trials2":
            "c1fed5ec7ec3a4b710f44405c24ab7a7abdbf100a9f43bbf592324068005bb1d",
        "lemma31-fan-witness":
            "352d3f2e082669298a70f7a4b0743bde29f19ac19c9fc8d5ab4d21ccc47e0ee5",
        "hmn-fan-witness":
            "401ee90719de65909171eecd4b0db05f5b4db8e577d2ba0b7d161235715a3768",
        "search-q2-n3-restarts8-budget3000":
            "764a9b3719b804412edf500ce58fac6a7a862fe8b111118328a1b7002f8a5a65",
        "search-q1-n4-commuting-budget800":
            "00012d2543e5594af7a3e2bb45f0a849dc787a5027e60c9b98b7a44d868b95ca",
        "search-q2-n3-k2-budget500":
            "8d09318e964e6d04aaefdda3fb55dc707ef116f37af32be0219c9c94987ef7d3",
        "ptrace-q2-n3-trials30-budget500":
            "57259967b4ffff86f9040c1430226c2397abeec2ce907f8e009624aa9ca14473",
        "search-q2-n3-witness-budget500":
            "c93a6fb959d464eb135a9157575991e3a0c343866397629d621b71a7a3806633",
        "extremal-all-trials300-seed271828":
            "8fbd46213e0f80fd6d88e4055d0535d149150088655143af918933be43e66136",
        "extremal-all-trials300-seed161803":
            "47687ca70026591dec222ad14d270d89c48fb2b804dd9af9cc25266f071a34e7",
        "extremal-matrix-n8-samples5":
            "b051c29423db36b056c82dba0efe04b7703d0fff602dd14a22e6c65b2a1540c8",
        "extremal-n2-samples0":
            "9d82728fdb0d2b7e9f19e3a8836599a2aa03c89a98bdeee33086feb799541285",
        "repro-fan-counterexample":
            "094fe68ca7004544a066e04df508896c66e1afe45bf8cd74ae57aaf7e24c859f",
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
