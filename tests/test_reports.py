import numpy as np

from kyfan.ensembles import SeededStream
from kyfan.fileformat import load_document
from kyfan.reports import (
    SCHEMA_ID,
    check_report_document,
    render_table,
    report_body_bytes,
    run_document,
    witness_document,
    write_report,
)
from kyfan.suite import check_product_family, check_von_neumann


def test_check_report_document_fields():
    report = check_von_neumann(3, 25, SeededStream(60))
    doc = check_report_document(report)
    assert doc["inequality_id"] == "von-neumann"
    assert doc["trials"] == 25
    assert doc["master_seed"] == 60
    assert "witness" in doc
    assert set(doc["witness"]["matrices"]) == {"A", "B"}


def test_witness_document_roundtrips_matrices():
    from kyfan.fileformat import document_to_matrix

    report = check_product_family(3, 10, SeededStream(61))
    doc = witness_document(report.witness)
    a = document_to_matrix(doc["matrices"]["A"])
    assert np.array_equal(a, report.witness.matrices["A"])


def test_include_witness_toggle():
    report = check_von_neumann(3, 10, SeededStream(62))
    assert "witness" not in check_report_document(report, include_witness=False)


def test_body_bytes_drop_elapsed_at_all_depths():
    report = check_von_neumann(3, 10, SeededStream(63))
    doc = run_document(
        "check",
        config={"elapsed_seconds": 1.23, "seed": 63},
        results=[check_report_document(report)],
        violations_total=0,
        exit_status=0,
        elapsed_seconds=4.56,
        notes=["x"],
    )
    body = report_body_bytes(doc)
    assert b"elapsed_seconds" not in body
    assert b'"seed"' in body


def test_body_bytes_deterministic_across_runs():
    def build():
        report = check_von_neumann(4, 40, SeededStream(64))
        return run_document(
            "check",
            config={"seed": 64},
            results=[check_report_document(report)],
            violations_total=report.violations,
            exit_status=0,
            elapsed_seconds=np.random.random(),  # deliberately different each call
        )

    assert report_body_bytes(build()) == report_body_bytes(build())


def test_run_document_schema():
    doc = run_document("check", config={}, results=[], violations_total=0,
                       exit_status=0, elapsed_seconds=0.0)
    assert doc["schema"] == SCHEMA_ID
    assert doc["tool"]["name"] == "kyfan"


def test_write_report_roundtrip(tmp_path):
    doc = run_document("check", config={"seed": 1}, results=[], violations_total=0,
                       exit_status=0, elapsed_seconds=0.5)
    path = tmp_path / "report.json"
    write_report(str(path), doc)
    loaded = load_document(str(path))
    assert loaded["schema"] == SCHEMA_ID
    assert loaded["config"]["seed"] == 1


def test_render_table_layout():
    report = check_von_neumann(3, 10, SeededStream(65))
    doc = run_document(
        "check",
        config={},
        results=[check_report_document(report, include_witness=False)],
        violations_total=0,
        exit_status=0,
        elapsed_seconds=0.0,
        notes=["note line"],
    )
    text = render_table(doc)
    assert "von-neumann" in text
    assert "violations" in text
    assert "note line" in text
    assert text.endswith("exit_status=0\n")


def test_render_table_opens_each_section_with_its_target(capsys):
    from kyfan.cli import main

    argv = ["ptrace", "--question", "1", "--n", "3", "--trials", "1", "--budget", "0"]
    assert main(argv + ["--format", "table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    keys = [line.split(":")[0] for line in lines[1:-2]]
    assert keys == ["target", "trials", "violations", "worst_closed_form_residual",
                    "worst_kron_identity_residual",
                    "target", "question", "tolerance", "trials", "violations", "worst_margin"]
    assert lines[6:8] == ["target: commuting-regression", "question: 1"]
    assert lines[-2] == "bounded search skipped: --budget 0"


def test_render_table_shows_a_witness_by_its_k_and_margin(capsys):
    import json

    from kyfan.cli import main

    argv = ["search", "--question", "2", "--n", "3", "--budget", "100", "--restarts", "2",
            "--tolerance=-10"]
    assert main(argv) == 2
    witness = json.loads(capsys.readouterr().out)["results"][0]["witness"]
    assert main(argv + ["--format", "table"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "target: counterexample-search"
    assert [line for line in lines if line.startswith("witness")] == [
        f"witness: k={witness['k']}  margin={witness['margin']:.6e}"]
    assert not any("matrices" in line for line in lines)
