import importlib.util
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from kyfan.fileformat import load_document

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["run_full_suite"])
def test_scripts_refuse_a_negative_seed_at_parse_time(monkeypatch, capsys, tmp_path, name):
    script = _load(name)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", "--seed", "-3",
                                      "--out-dir", str(tmp_path / "out")])
    with pytest.raises(SystemExit) as err:
        script.main()
    assert err.value.code == 1
    assert "argument --seed: expected a nonnegative integer, got -3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_full_suite_quick_run_passes_every_section(monkeypatch, capsys, tmp_path):
    script = _load("run_full_suite")
    monkeypatch.setattr(sys, "argv", ["run_full_suite.py", "--quick",
                                      "--out-dir", str(tmp_path)])
    assert script.main() == 0
    assert "5/5 sections passed" in capsys.readouterr().out
    reports = {"check-all", "extremal-all", "repro", "ptrace-q1", "ptrace-q2"}
    assert {p.stem for p in tmp_path.iterdir()} == reports
    for name in reports:
        doc = load_document(str(tmp_path / f"{name}.json"))
        assert doc["exit_status"] == (2 if name == "repro" else 0)
    extremal = load_document(str(tmp_path / "extremal-all.json"))
    assert [r["trials"] for r in extremal["results"]] == [100, 100, 100]


def test_full_suite_rejects_zero_trials(monkeypatch, capsys, tmp_path):
    script = _load("run_full_suite")
    monkeypatch.setattr(sys, "argv", ["run_full_suite.py", "--trials", "0",
                                      "--out-dir", str(tmp_path)])
    with pytest.raises(SystemExit) as err:
        script.main()
    assert err.value.code == 1
    assert list(tmp_path.iterdir()) == []


def test_bench_script_writes_every_layer_and_the_machine(tmp_path, capsys):
    script = _load("bench")
    assert script.main(["--label", "t", "--ops", "4", "--repeats", "2",
                        "--out-dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert set(doc["layers"]) == {"stream_open", "draw_gaussian_5",
                                  "svd_5_looped", "svd_5_stacked", "checker_trial_ahj_5",
                                  "checker_trial_lemma32_5", "checker_sweep_50",
                                  "search_stack_3", "search_q2_3000", "search_all_3000",
                                  "extremal_2000",
                                  "extremal_all_2000", "check_all_50", "check_all_1000",
                                  "check_all_n64_20", "setup_check", "setup_search",
                                  "setup_extremal"}
    for row in doc["layers"].values():
        assert row["q1_us"] <= row["median_us"] <= row["q3_us"] and row["repeats"] == 2
        assert row["q1_us_scaled"] <= row["median_us_scaled"] <= row["q3_us_scaled"]
        assert row["speed_factor"] > 0
    for name in ("search_q2_3000", "search_all_3000"):
        search = doc["layers"][name]
        assert search["evaluations_per_s"] == pytest.approx(1e6 / search["median_us"])
        assert search["evaluations_per_s_scaled"] == pytest.approx(
            1e6 / search["median_us_scaled"])
    for name in ("checker_sweep_50", "extremal_2000", "extremal_all_2000", "check_all_50",
                 "check_all_1000", "check_all_n64_20"):
        row = doc["layers"][name]
        assert row["trials_per_s"] == pytest.approx(1e6 / row["median_us"])
        assert row["trials_per_s_scaled"] == pytest.approx(1e6 / row["median_us_scaled"])
    calibration = doc["calibration"]
    assert calibration["before_s"] > 0 and calibration["after_s"] > 0
    assert calibration["speed_factor"] == pytest.approx(
        calibration["reference_s"] / ((calibration["before_s"] + calibration["after_s"]) / 2))
    assert doc["machine"]["cpu_count"] == os.cpu_count()
    assert doc["machine"]["numpy"] == np.__version__
    assert {"blas", "lapack", "blas_kernel"} <= set(doc["machine"])
