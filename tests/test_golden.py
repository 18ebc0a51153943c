"""Golden report bodies: pinned sha256 of ``report_body_bytes`` for fixed runs.

The hashes are those of search contract v7 (``numpy-pcg64-seedseq-v7``, kyfan
0.7.0).  Its streams are contract v6's: each checker block draws its
uniforms for all its trials and the normals of the trials it scores only,
the extremal targets draw exactly the normals their trials use and score
every candidate through diag(U* C V), and each search restart draws its
proposals in blocks.  v7 takes the spectra of the Hermitian factors A and
tr(B) I - n B of the ``ptrace`` kernel from ``eigvalsh`` instead of ``svd``.
Against contract v6 only the kernel's bodies moved beyond the generator id
and the tool version: the margins of ``search-q1-n4-commuting-budget800``,
``search-q2-n3-restarts8-budget3000``, ``search-q2-n3-witness-budget500``
(its witness matrices did not move) and ``ptrace-q2-n3-trials30-budget500``,
each by at most 3.6e-15.  ``search-q2-n3-k2-budget500`` kept its v6 bytes apart
from those two strings, as did the check, extremal and repro bodies.  Every
engine must reproduce every body byte for byte.  They hold for one numeric
stack only: the generator id (stream contract and numpy version) plus the
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
    ("numpy-pcg64-seedseq-v7/2.4.6", "scipy-openblas 0.3.31.188.0", "x86_64"): {
        "check-all-trials50-seed271828":
            "9c7de7b0a1c3ae8fbc104da7b052ecccf327e7883df3bb98297f7ad4a90db839",
        "check-all-trials50-seed161803":
            "ef0d344c0382b07f1b89db90b5475517333c3d215d09dc3be307c2ed94b75c25",
        "check-all-n64-trials2":
            "8160fc3ba7726079da82585570bf2d34406d2cf3ca5a0b4d41ce17d512fe652b",
        "lemma31-fan-witness":
            "dbd2a80e96ddfbeac0d5710ca3c3075ec81bbdb308731989bc58af89aae0cbc6",
        "hmn-fan-witness":
            "b749d36078d8d0b2d6e3969c1fb2069fb6b09b83252528d03928bb3a72a88af0",
        "search-q2-n3-restarts8-budget3000":
            "d59b90a72e8f97115c79fceb1c005c1d6bbed690af2904fee0ac5ed59a65658e",
        "search-q1-n4-commuting-budget800":
            "4ab1ee28f949b184138e99b51f4a07029426fbe9c81f8a8f158b0f0a0733aa26",
        "search-q2-n3-k2-budget500":
            "77ceec56bd994b83c7d82e96a81872916d8e51d5052eee74e49a0233cb19e2a0",
        "ptrace-q2-n3-trials30-budget500":
            "42425774484c3ac034e28b9d57ee517a3db4d86c2a8ba8934d18de1e56ff269e",
        "search-q2-n3-witness-budget500":
            "5fa0f64cb05d62e34d4d8be2858290daab2324497793b3674d963010f928c7cd",
        "extremal-all-trials300-seed271828":
            "ab6b054759e88f3bd8191b6467c3c1fa67fda2de23aebd8dcbc44dfff06f7aa0",
        "extremal-all-trials300-seed161803":
            "c5d2241b8c42c8356935822ffb7e3443b072cb7984e1546b7d9488ff133ea7c1",
        "extremal-matrix-n8-samples5":
            "6fa858b58767f8434da4795265446097e0d93057d4ca8a34f48f3b4789da0454",
        "extremal-n2-samples0":
            "d5388d626c07e70a4f662369c4e1b54d139cce8162708172c8230002639a101f",
        "repro-fan-counterexample":
            "d8c8845a3427e512003ad41509bfebb9b544e62dd1b9fed131339e2f9a1327d9",
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
