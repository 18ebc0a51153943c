import numpy as np
import pytest

from kyfan.cli import (
    DEFAULT_SEED,
    SEED_ENV_VAR,
    STREAM_STRIDE,
    RunConfig,
    execute,
    main,
    parse_arguments,
)
from kyfan.fileformat import load_document
from kyfan.reports import SCHEMA_ID, report_body_bytes

RT13_3 = np.sqrt(13.0) / 3.0


class TestParsing:
    def test_check_defaults(self):
        cfg = parse_arguments(["check", "--ineq", "von-neumann"])
        assert cfg.command == "check"
        assert cfg.inequality_id == "von-neumann"
        assert cfg.n is None  # all dimensions
        assert cfg.trials == 10000
        assert cfg.k_spec == "all"
        assert cfg.format == "structured-text"

    def test_check_explicit(self):
        cfg = parse_arguments(
            ["check", "--ineq", "ahj", "--n", "4", "--k", "2", "--trials", "7",
             "--seed", "5", "--tolerance", "1e-6"]
        )
        assert cfg.n == 4 and cfg.k_spec == 2 and cfg.trials == 7
        assert cfg.seed == 5 and cfg.seed_source == "flag"
        assert cfg.tolerance == 1e-6

    def test_unknown_inequality_exits(self):
        with pytest.raises(SystemExit) as err:
            parse_arguments(["check", "--ineq", "bogus"])
        assert err.value.code == 2

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            parse_arguments([])

    def test_repro_requires_known_target(self):
        cfg = parse_arguments(["repro", "fan-counterexample"])
        assert cfg.target == "fan-counterexample"
        with pytest.raises(SystemExit):
            parse_arguments(["repro", "other"])

    def test_negative_trials_rejected(self):
        with pytest.raises(SystemExit):
            parse_arguments(["check", "--ineq", "lemma31", "--trials", "-1"])

    @pytest.mark.parametrize("command", [
        ["check", "--ineq", "lemma31"], ["extremal"], ["ptrace", "--question", "1"],
    ])
    def test_trials_reaching_the_stream_stride_rejected(self, command):
        # section s + 1 starts STREAM_STRIDE indices after section s
        with pytest.raises(SystemExit) as err:
            parse_arguments(command + ["--trials", str(STREAM_STRIDE)])
        assert err.value.code == 2
        cfg = parse_arguments(command + ["--trials", str(STREAM_STRIDE - 1)])
        assert cfg.trials == STREAM_STRIDE - 1

    def test_ptrace_and_search_parse(self):
        cfg = parse_arguments(["ptrace", "--question", "2", "--n", "4", "--budget", "10"])
        assert cfg.question == 2 and cfg.n == 4 and cfg.budget == 10
        cfg = parse_arguments(["search", "--question", "1", "--strategy", "commuting"])
        assert cfg.strategy == "commuting" and cfg.budget == 20000


class TestSeedResolution:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        cfg = parse_arguments(["check", "--ineq", "von-neumann"])
        assert cfg.seed == DEFAULT_SEED and cfg.seed_source == "default"

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "1234")
        cfg = parse_arguments(["check", "--ineq", "von-neumann"])
        assert cfg.seed == 1234 and cfg.seed_source == "env"

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "1234")
        cfg = parse_arguments(["check", "--ineq", "von-neumann", "--seed", "99"])
        assert cfg.seed == 99 and cfg.seed_source == "flag"

    def test_bad_env_value_exits(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-seed")
        with pytest.raises(SystemExit):
            parse_arguments(["check", "--ineq", "von-neumann"])


class TestExecution:
    def test_check_clean_run(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        status = main(
            ["check", "--ineq", "von-neumann", "--n", "3", "--trials", "25",
             "--seed", "7", "--out", str(out)]
        )
        assert status == 0
        doc = load_document(str(out))
        assert doc["schema"] == SCHEMA_ID
        assert doc["violations_total"] == 0
        assert doc["exit_status"] == 0
        assert doc["config"]["seed"] == 7
        assert doc["config"]["seed_source"] == "flag"
        assert doc["results"][0]["inequality_id"] == "von-neumann"
        assert "witness" not in doc["results"][0]  # clean runs stay lean

    def test_check_all_expands_every_checker(self, tmp_path):
        out = tmp_path / "all.json"
        status = main(
            ["check", "--ineq", "all", "--n", "2", "--trials", "3", "--seed", "11",
             "--out", str(out)]
        )
        assert status == 0
        doc = load_document(str(out))
        ids = [r["inequality_id"] for r in doc["results"]]
        assert ids == [
            "von-neumann", "product-family", "hadamard-family", "ahj-given",
            "ahj-sqrt", "lemma31", "lemma32", "hmn-hadamard", "hmn-fan",
            "fan-sigma1",
        ]

    def test_repro_exits_two_with_expected_margin(self, tmp_path):
        out = tmp_path / "repro.json"
        status = main(["repro", "fan-counterexample", "--out", str(out)])
        assert status == 2
        doc = load_document(str(out))
        result = doc["results"][0]
        assert abs(result["margin"] - (RT13_3 - 1.0)) <= 1e-9
        assert abs(result["top_singular_value"] - RT13_3) <= 1e-9
        assert result["unitary_residual"] <= 1e-12
        assert doc["exit_status"] == 2

    def test_extremal_smoke(self, tmp_path):
        out = tmp_path / "ex.json"
        status = main(
            ["extremal", "--target", "all", "--trials", "20", "--n", "5",
             "--seed", "13", "--out", str(out)]
        )
        assert status == 0
        doc = load_document(str(out))
        targets = {r["target"] for r in doc["results"]}
        assert targets == {"vector-support", "matrix-support", "trace-equality"}
        assert all(r["violations"] == 0 for r in doc["results"])

    def test_ptrace_reports_no_counterexample(self, tmp_path):
        out = tmp_path / "pt.json"
        status = main(
            ["ptrace", "--question", "1", "--n", "3", "--trials", "30",
             "--budget", "0", "--seed", "17", "--out", str(out)]
        )
        assert status == 0
        doc = load_document(str(out))
        assert "no counterexample found within budget" in doc["notes"]
        by_target = {r["target"]: r for r in doc["results"]}
        assert by_target["identity-cross-check"]["violations"] == 0
        assert by_target["commuting-regression"]["worst_margin"] <= 1e-8
        assert by_target["bounded-search"]["evaluations"] == 0

    def test_search_bounded(self, tmp_path):
        out = tmp_path / "s.json"
        status = main(
            ["search", "--question", "2", "--n", "2", "--budget", "150",
             "--restarts", "2", "--seed", "19", "--out", str(out)]
        )
        doc = load_document(str(out))
        result = doc["results"][0]
        assert result["evaluations"] <= 150
        assert status in (0, 2)
        assert (status == 2) == ("witness" in result)

    def test_table_format(self, capsys):
        status = main(
            ["check", "--ineq", "lemma32", "--n", "3", "--trials", "5",
             "--seed", "23", "--format", "table"]
        )
        assert status == 0
        captured = capsys.readouterr().out
        assert "lemma32" in captured
        assert "worst_margin" in captured

    def test_stdout_default(self, capsys):
        import json

        status = main(
            ["check", "--ineq", "fan-sigma1", "--n", "2", "--trials", "5",
             "--seed", "29"]
        )
        assert status == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "check"

    def test_determinism_byte_identical_bodies(self, tmp_path):
        # identical invocation twice: same seed, same destination
        p = tmp_path / "r.json"
        argv = ["check", "--ineq", "hadamard-family", "--n", "3", "--trials", "40",
                "--seed", "31", "--out", str(p)]
        main(argv)
        first = report_body_bytes(load_document(str(p)))
        main(argv)
        second = report_body_bytes(load_document(str(p)))
        assert first == second
        # raw file bytes differ only in wall-time fields, which the body strips
        assert b"elapsed_seconds" not in first

    def test_determinism_on_stdout(self, capsys):
        import json

        argv = ["ptrace", "--question", "2", "--n", "3", "--trials", "15",
                "--budget", "40", "--restarts", "2", "--seed", "41"]
        main(argv)
        first = json.loads(capsys.readouterr().out)
        main(argv)
        second = json.loads(capsys.readouterr().out)
        assert report_body_bytes(first) == report_body_bytes(second)

    def test_unwritable_output_returns_one(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "r.json"
        status = main(
            ["check", "--ineq", "von-neumann", "--n", "2", "--trials", "2",
             "--seed", "37", "--out", str(target)]
        )
        assert status == 1
        assert "error:" in capsys.readouterr().err

    def test_execute_accepts_config_object(self, capsys):
        cfg = RunConfig(command="repro", target="fan-counterexample")
        assert execute(cfg) == 2
        capsys.readouterr()
