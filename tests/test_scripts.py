import importlib.util
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from kyfan.fileformat import load_document

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_search_script_gives_every_cell_and_restart_its_own_stream(monkeypatch, capsys):
    script = _load("search_open_questions")
    calls = []

    def fake_search(question, n, *, budget, restarts, s, strategy):
        calls.append((s.master_seed, s.stream_index, restarts))
        return SimpleNamespace(witness=None, evaluations=0, best_margin=0.0)

    monkeypatch.setattr(script, "search_counterexample", fake_search)
    monkeypatch.setattr(sys, "argv", ["search_open_questions.py", "--seed", "7"])
    assert script.main() == 0
    # restart r of a cell opens stream base + r (kyfan.ptrace.search_counterexample)
    indices = [base + r for _, base, restarts in calls for r in range(restarts)]
    assert len(calls) == 12  # 2 questions x 3 dims x 2 strategies
    assert len(indices) == 96
    assert len(set(indices)) == len(indices)
    assert {seed for seed, _, _ in calls} == {7}


@pytest.mark.parametrize("flags, seed", [([], 7), (["--seed", "5"], 5)],
                         ids=["env", "flag-beats-env"])
def test_search_script_resolves_its_seed_as_kyfan_does(monkeypatch, capsys, flags, seed):
    script = _load("search_open_questions")
    seeds = []

    def fake_search(question, n, *, budget, restarts, s, strategy):
        seeds.append(s.master_seed)
        return SimpleNamespace(witness=None, evaluations=0, best_margin=0.0)

    monkeypatch.setattr(script, "search_counterexample", fake_search)
    monkeypatch.setenv("KYFAN_SEED", "7")
    monkeypatch.setattr(sys, "argv", ["search_open_questions.py", *flags])
    assert script.main() == 0
    assert seeds == [seed] * 12  # every cell: 2 questions x 3 dims x 2 strategies


def test_search_script_rejects_a_non_integer_seed_variable(monkeypatch, capsys):
    script = _load("search_open_questions")
    monkeypatch.setattr(script, "search_counterexample", None)  # nothing may run
    monkeypatch.setenv("KYFAN_SEED", "seven")
    monkeypatch.setattr(sys, "argv", ["search_open_questions.py"])
    with pytest.raises(SystemExit) as err:
        script.main()
    assert err.value.code == 1
    assert "KYFAN_SEED must be an integer, got 'seven'" in capsys.readouterr().err


def test_search_script_rejects_restarts_that_reach_the_next_cell(monkeypatch, capsys):
    script = _load("search_open_questions")
    monkeypatch.setattr(sys, "argv", ["search_open_questions.py",
                                      "--restarts", str(2**24)])
    with pytest.raises(SystemExit) as err:
        script.main()
    assert err.value.code == 1


@pytest.mark.parametrize("budget, restarts", [("-1", "8"), ("0", "8"), ("3", "8")])
def test_search_script_rejects_a_budget_below_the_restarts(monkeypatch, capsys, budget,
                                                           restarts):
    script = _load("search_open_questions")
    monkeypatch.setattr(sys, "argv", ["search_open_questions.py", "--budget", budget,
                                      "--restarts", restarts])
    with pytest.raises(SystemExit) as err:
        script.main()
    assert err.value.code == 1
    assert (f"--budget must be at least --restarts ({restarts}), got {budget}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("name", ["search_open_questions", "run_full_suite"])
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
