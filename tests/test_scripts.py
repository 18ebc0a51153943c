import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

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


def test_search_script_rejects_restarts_that_reach_the_next_cell(monkeypatch, capsys):
    script = _load("search_open_questions")
    monkeypatch.setattr(sys, "argv", ["search_open_questions.py",
                                      "--restarts", str(2**24)])
    with pytest.raises(SystemExit) as err:
        script.main()
    assert err.value.code == 2
