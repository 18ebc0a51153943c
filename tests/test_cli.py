import argparse
import contextlib
import dataclasses
import hashlib
import importlib.util
import itertools
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from kyfan import cli, extremal, ptrace, suite
from kyfan.cli import (
    DEFAULT_SEED,
    SEED_ENV_VAR,
    STREAM_STRIDE,
    RunConfig,
    _build_parser,
    execute,
    main,
    parse_arguments,
)
from kyfan.ensembles import BudgetError, SeededStream, _check_enumeration_budgets
from kyfan.suite import FAMILIES, INEQUALITY_IDS, _check_section
from kyfan.norms import INEQUALITY_TOL, RESIDUAL_TOL
from kyfan.fileformat import load_document
from kyfan.reports import SCHEMA_ID, report_body_bytes

RT13_3 = np.sqrt(13.0) / 3.0

#: the kyfan modules every command loads, and those its engine adds
CLI_MODULES = ("kyfan", "kyfan.cli", "kyfan.ensembles", "kyfan.fileformat", "kyfan.matrixcore",
               "kyfan.norms", "kyfan.reports")
_SUITE, _PTRACE = ("kyfan.forms", "kyfan.suite"), ("kyfan.ptrace",)
ENGINES = {"check": _SUITE, "extremal": ("kyfan.extremal",), "repro": _SUITE,
           "ptrace": _PTRACE, "search": _PTRACE}


def _benchmark_workloads() -> dict:
    path = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("kyfan_bench_run", path)
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(run)
    finally:
        del sys.modules[spec.name]
    return run.WORKLOADS


BENCHMARK_WORKLOADS = _benchmark_workloads()

#: run in a fresh interpreter on the JSON argv: the kyfan modules loaded once
#: parsing ends and once execute returns, every part run in this process
_IMPORTS_OF_A_RUN = """
import contextlib, io, json, os, sys
os.sched_getaffinity = lambda pid: {0}
import kyfan.cli

def loaded():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "kyfan")

cfg = None
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    cfg = kyfan.cli.parse_arguments(json.loads(sys.argv[1]))
parsed, numpy_random = loaded(), "numpy.random" in sys.modules
if cfg is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        kyfan.cli.execute(cfg)
print(json.dumps({"parsed": parsed, "executed": loaded(), "numpy_random": numpy_random}))
"""


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
        assert err.value.code == 1

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            parse_arguments([])

    @pytest.mark.parametrize("argv", [["check", "--ineq", "ahj", "--no-such-flag"],
                                      ["frobnicate"]])
    def test_usage_errors_exit_one_not_the_violation_status(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        assert capsys.readouterr().err.startswith("usage: kyfan")

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
        assert err.value.code == 1
        cfg = parse_arguments(command + ["--trials", str(STREAM_STRIDE - 1)])
        assert cfg.trials == STREAM_STRIDE - 1

    @pytest.mark.parametrize("command", [
        ["ptrace", "--question", "1"], ["search", "--question", "1,2", "--n", "2,3"],
    ], ids=["ptrace", "search-grid"])
    def test_restarts_reaching_the_stream_stride_rejected(self, command, capsys):
        # restart r of section s draws stream s * STREAM_STRIDE + r
        budget = ["--budget", str(STREAM_STRIDE)]
        with pytest.raises(SystemExit) as err:
            parse_arguments(command + budget + ["--restarts", str(STREAM_STRIDE)])
        assert err.value.code == 1
        assert (f"argument --restarts: at most {STREAM_STRIDE - 1} per section, "
                f"got {STREAM_STRIDE}") in capsys.readouterr().err
        cfg = parse_arguments(command + budget + ["--restarts", str(STREAM_STRIDE - 1)])
        assert cfg.restarts == STREAM_STRIDE - 1

    @pytest.mark.parametrize("command", [
        ["check", "--ineq", "lemma31"], ["extremal"], ["ptrace", "--question", "1"],
    ])
    def test_zero_trials_rejected(self, command, capsys):
        # a run of zero trials would write a clean report that scored nothing
        with pytest.raises(SystemExit) as err:
            parse_arguments(command + ["--trials", "0"])
        assert err.value.code == 1
        assert "expected a positive integer, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["check", "--ineq", "lemma31"], ["repro", "fan-counterexample"],
        ["ptrace", "--question", "1"], ["search", "--question", "2"],
    ])
    def test_non_finite_tolerance_rejected(self, command, capsys):
        # nan would fail only when the report is written, after the whole run;
        # inf would read the known violation of repro as clean
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(SystemExit) as err:
                parse_arguments(command + [f"--tolerance={value}"])
            assert err.value.code == 1
            assert f"expected a finite number, got {value}" in capsys.readouterr().err
        # a negative tolerance stays allowed: it forces a witness
        assert parse_arguments(command + ["--tolerance=-10"]).tolerance == -10.0

    def test_extremal_dimension_below_two_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            parse_arguments(["extremal", "--n", "1"])
        assert err.value.code == 1
        assert "--n must be at least 2, got 1" in capsys.readouterr().err
        assert parse_arguments(["extremal", "--n", "2"]).n == 2

    @pytest.mark.parametrize("target", ["vector", "all"])
    def test_extremal_dimension_past_the_enumeration_budget_rejected(self, target, capsys):
        # 13 is the largest n whose sign-vector families E1..En all fit the budget
        _check_enumeration_budgets(np.array([13]), np.array([13]))
        with pytest.raises(BudgetError, match="family E9 in dimension 14"):
            _check_enumeration_budgets(np.array([14]), np.array([14]))
        assert parse_arguments(["extremal", "--target", target, "--n", "13"]).n == 13
        with pytest.raises(SystemExit) as err:
            parse_arguments(["extremal", "--target", target, "--n", "14"])
        assert err.value.code == 1
        assert f"--n must be at most 13 for --target {target}, got 14" in capsys.readouterr().err
        for other in ("matrix", "equality"):  # these enumerate no sign vectors
            assert parse_arguments(["extremal", "--target", other, "--n", "20"]).n == 20

    @pytest.mark.parametrize("budget, restarts", [("0", "8"), ("3", "8"), ("0", "1")])
    def test_search_budget_below_restarts_rejected(self, budget, restarts, capsys):
        # a restart with no budget scores nothing, yet the report would count it
        with pytest.raises(SystemExit) as err:
            parse_arguments(["search", "--question", "2", "--budget", budget,
                             "--restarts", restarts])
        assert err.value.code == 1
        assert (f"--budget must be at least --restarts ({restarts}), got {budget}"
                in capsys.readouterr().err)
        cfg = parse_arguments(["search", "--question", "2", "--budget", restarts,
                               "--restarts", restarts])
        assert cfg.budget == cfg.restarts == int(restarts)

    @pytest.mark.parametrize("budget, restarts", [("3", "4"), ("1", "8")])
    def test_ptrace_budget_below_restarts_rejected(self, budget, restarts, capsys):
        # the search would silently run fewer restarts than asked
        with pytest.raises(SystemExit) as err:
            parse_arguments(["ptrace", "--question", "1", "--n", "3", "--budget", budget,
                             "--restarts", restarts])
        assert err.value.code == 1
        assert (f"--budget must be at least --restarts ({restarts}), got {budget}"
                in capsys.readouterr().err)
        cfg = parse_arguments(["ptrace", "--question", "1", "--n", "3", "--budget", "0",
                               "--restarts", restarts])
        assert cfg.budget == 0 and cfg.restarts == int(restarts)

    def test_ptrace_and_search_parse(self):
        cfg = parse_arguments(["ptrace", "--question", "2", "--n", "4", "--budget", "10"])
        assert cfg.question == 2 and cfg.n == 4 and cfg.budget == 10
        cfg = parse_arguments(["search", "--question", "1", "--strategy", "commuting"])
        assert cfg.strategy == "commuting" and cfg.budget == 20000
        # a comma list parses to a tuple, one value to that value alone
        cfg = parse_arguments(["search", "--question", "1,2", "--n", "2,3,4",
                               "--strategy", "general,commuting"])
        assert (cfg.question, cfg.n, cfg.strategy) == ((1, 2), (2, 3, 4),
                                                       ("general", "commuting"))


    @pytest.mark.parametrize("argv, expected", [
        (["check", "--ineq", "lemma31"],
         dict(command="check", inequality_id="lemma31", n=None, k_spec="all",
              trials=10000, tolerance=INEQUALITY_TOL)),
        (["extremal"],
         dict(command="extremal", target="all", n=8, trials=1000, samples=2,
              tolerance=RESIDUAL_TOL)),
        (["repro", "fan-counterexample"],
         dict(command="repro", target="fan-counterexample", tolerance=INEQUALITY_TOL)),
        (["ptrace", "--question", "1"],
         dict(command="ptrace", question=1, n=3, k_spec="all", trials=200, budget=0,
              restarts=4, strategy="general", tolerance=INEQUALITY_TOL)),
        (["search", "--question", "2"],
         dict(command="search", question=2, n=3, k_spec="all", budget=20000,
              restarts=8, strategy="general", tolerance=INEQUALITY_TOL)),
    ])
    def test_defaults_of_every_subcommand(self, argv, expected, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        common = dict(seed=DEFAULT_SEED, seed_source="default", output_path=None,
                      format="structured-text")
        assert parse_arguments(argv) == RunConfig(**expected, **common)

    def test_option_set_of_every_subcommand(self):
        output = {"-h", "--help", "--out", "--format"}
        expected = {
            "check": output | {"--seed", "--ineq", "--n", "--k", "--trials", "--tolerance"},
            "extremal": output | {"--seed", "--target", "--trials", "--n", "--samples"},
            "repro": output | {"--tolerance"},
            "ptrace": output | {"--seed", "--question", "--n", "--k", "--trials", "--budget",
                                "--restarts", "--strategy", "--tolerance"},
            "search": output | {"--seed", "--question", "--n", "--k", "--budget",
                                "--restarts", "--strategy", "--tolerance"},
        }
        for name in expected:  # the parser fills in the options of the command it parses
            (subparsers,) = [a for a in _build_parser(name)._actions
                             if isinstance(a, argparse._SubParsersAction)]
            assert set(subparsers.choices) == set(expected)
            assert set(subparsers.choices[name]._option_string_actions) == expected[name], name

    @pytest.mark.parametrize("command", [
        ["check", "--ineq", "lemma31"], ["extremal"], ["repro", "fan-counterexample"],
        ["ptrace", "--question", "1"], ["search", "--question", "1"],
    ])
    def test_output_flags_parse_for_every_subcommand(self, command):
        cfg = parse_arguments(command + ["--out", "r.json", "--format", "table"])
        assert cfg.output_path == "r.json" and cfg.format == "table"

    def test_check_help_lists_every_inequality_id_once(self, capsys):
        with pytest.raises(SystemExit) as err:
            parse_arguments(["check", "--help"])
        assert err.value.code == 0
        listed = [line.split(":")[0].strip() for line in capsys.readouterr().out.splitlines()
                  if line.startswith("  ") and not line.lstrip().startswith("-")
                  and ": " in line]
        assert listed == list(INEQUALITY_IDS) == [
            "von-neumann", "product-family", "hadamard-family", "ahj", "lemma31", "lemma32",
            "hmn-hadamard", "hmn-fan", "fan-sigma1",
        ]

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["check", "--ineq", "lemma31", "--n", "3", "--trials", "3"],
        ["extremal", "--trials", "3"],
        ["repro", "fan-counterexample"],
        ["ptrace", "--question", "1", "--trials", "3"],
        ["search", "--question", "2", "--budget", "40", "--restarts", "2"],
        *[list(workload.argv) for workload in BENCHMARK_WORKLOADS.values()],
    ], ids=["help", "check", "extremal", "repro", "ptrace", "search",
            *[f"bench-{name}" for name in BENCHMARK_WORKLOADS]])
    def test_parsing_imports_only_the_commands_engine(self, argv):
        # set-up loads the command's engine and no other; the timed execute
        # imports no kyfan module, and numpy.random waits for the first stream
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run([sys.executable, "-c", _IMPORTS_OF_A_RUN, json.dumps(argv)],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
        seen = json.loads(done.stdout)
        assert seen["parsed"] == sorted(CLI_MODULES + ENGINES.get(argv[0], ()))
        assert seen["executed"] == seen["parsed"]
        assert seen["numpy_random"] is False
        # the extremal engine is extremal's alone
        assert ("kyfan.extremal" in seen["executed"]) == (argv[0] == "extremal")

    def test_the_extremal_engine_loads_no_checker(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run(
            [sys.executable, "-c", "import json, sys, kyfan.extremal; print(json.dumps("
             "sorted(m for m in sys.modules if m.partition('.')[0] == 'kyfan')))"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
            timeout=120)
        # neither kyfan.suite nor kyfan.forms: only the modules the engine imports
        assert json.loads(done.stdout) == ["kyfan", "kyfan.ensembles", "kyfan.extremal",
                                           "kyfan.matrixcore", "kyfan.norms"]

    @pytest.mark.parametrize("argv, flag, seed_env", [
        (["check", "--ineq", "all", "--n", "3", "--k", "1"], "--ineq", None),
        (["ptrace", "--question", "1", "--n", "3", "--k", "5"], "--question", None),
        (["extremal", "--n", "14"], "--samples", None),
        (["search", "--question", "2", "--budget", "3", "--restarts", "8"], "--strategy", None),
        (["extremal", "--out", "."], "--samples", None),
        (["search", "--question", "2"], "--strategy", "not-a-seed"),
        (["search", "--question", "2", "--k", "4", "--n", "3,5"], "--strategy", None),
        (["search", "--question", "2", "--n", "3,"], "--strategy", None),
        (["search", "--question", "1,3"], "--strategy", None),
        (["search", "--question", "2", "--strategy", "general,foo"], "--strategy", None),
        (["ptrace", "--question", "1,2"], "--trials", None),
        (["search", "--question", "1,2", "--seed", "-3"], "--strategy", None),
    ], ids=["k-with-all", "k-above-n", "extremal-n", "budget-below-restarts", "out", "seed-env",
            "k-above-a-listed-n", "n-list-trailing-comma", "question-list-3",
            "strategy-list-foo", "ptrace-question-list", "negative-seed"])
    def test_errors_after_parsing_print_the_subcommands_usage(self, argv, flag, seed_env,
                                                              monkeypatch, capsys):
        # as argparse's own errors do, e.g. extremal --trials 0
        if seed_env is None:
            monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(SEED_ENV_VAR, seed_env)
        with pytest.raises(SystemExit) as err:
            parse_arguments(argv)
        assert err.value.code == 1
        err_text = capsys.readouterr().err
        assert err_text.startswith(f"usage: kyfan {argv[0]} [-h]")
        assert flag in err_text.split("error:")[0]
        assert f"kyfan {argv[0]}: error: " in err_text

    @pytest.mark.parametrize("command, digest", [
        (None, "9c98368f567883785ca9eae10f594523de4679764e172d2b2e0fcdaa65d69110"),
        ("check", "280ffa80e9bb20b259c1da0da231c88c9f1ead45f3a06c378ee9d12d089044a9"),
        ("extremal", "a6f4886e90ec10a8c274ebd9e5b42fbf7fa5e80975369cf9e93643b13958e6e5"),
        ("repro", "1a9be47733bc29c3481da234d99c66e5fa71efed168150789152a08386f9b2ed"),
        ("ptrace", "527a06076ad761d93cccc4881c3c2f71a78847a5bc4b7b0639fae19469ce63a7"),
        ("search", "635d6345c112b0eba88f8f28820dd56ddf01b44e3b3dd36dd14dad2990bce95d"),
    ], ids=["kyfan", "check", "extremal", "repro", "ptrace", "search"])
    def test_help_text_is_pinned(self, command, digest, monkeypatch, capsys):
        # sha256 of `kyfan [command] --help` at 100 columns: building only the
        # parsed subcommand's options must not change what a user reads
        monkeypatch.setenv("COLUMNS", "100")
        with pytest.raises(SystemExit) as err:
            parse_arguments([command, "--help"] if command else ["--help"])
        assert err.value.code == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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
        with pytest.raises(SystemExit) as err:
            parse_arguments(["check", "--ineq", "von-neumann"])
        assert err.value.code == 1


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

    def test_extremal_over_the_enumeration_budget_exits_one(self, tmp_path, capsys):
        # the vector target's families of n = 14 exceed the budget, so --n 20 is
        # refused before any trial runs, and no report is written
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as err:
            main(["extremal", "--target", "vector", "--n", "20", "--trials", "200",
                  "--seed", "271828", "--out", str(out)])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "--n must be at most 13 for --target vector, got 20" in captured.err

    def test_ptrace_reports_no_counterexample(self, tmp_path):
        out = tmp_path / "pt.json"
        status = main(
            ["ptrace", "--question", "1", "--n", "3", "--trials", "30",
             "--budget", "0", "--seed", "17", "--out", str(out)]
        )
        assert status == 0
        doc = load_document(str(out))
        # budget 0 runs no search, so no section claims a clean one
        assert doc["notes"] == ["bounded search skipped: --budget 0"]
        by_target = {r["target"]: r for r in doc["results"]}
        assert by_target["identity-cross-check"]["violations"] == 0
        assert by_target["commuting-regression"]["worst_margin"] <= 1e-8
        assert "bounded-search" not in by_target

    def test_a_closed_form_off_by_one_part_in_a_million_exits_one(self, monkeypatch,
                                                                  tmp_path, capsys):
        # the identity section holds the closed form to the Kronecker route at the
        # scale of its norm, as lhs_operator(cross_check=True) does
        from kyfan import ptrace

        real = ptrace.lhs_operator
        monkeypatch.setattr(ptrace, "lhs_operator",
                            lambda a, b, **kw: real(a, b, **kw) * (1.0 + 1e-6))
        out = tmp_path / "pt.json"
        assert main(["ptrace", "--question", "1", "--n", "3", "--trials", "5",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: partial-trace identities failed: "
                                       "closed-form residual ")

    def test_ptrace_regression_scores_each_chunk_in_one_svd_call(self, monkeypatch, tmp_path):
        # n = 3: a chunk holds CHUNK_ENTRIES // 9 = 455 pairs, so 1000 trials are
        # 3 chunks; its worst margins and violation flags come from one pass
        from kyfan import ensembles, ptrace

        calls = []

        def counting(name, real):
            def call(a):
                calls.append((name, np.shape(a)[0]))
                return real(a)
            return call

        monkeypatch.setattr(ptrace, "singular_values", counting("svd", ptrace.singular_values))
        monkeypatch.setattr(ptrace, "_hermitian_spectra",
                            counting("eigvalsh", ptrace._hermitian_spectra))
        _cpus(monkeypatch, 1)  # every section in this process, where the calls are counted
        out = tmp_path / "pt.json"
        status = main(["ptrace", "--question", "2", "--n", "3", "--trials", "1000",
                       "--budget", "0", "--seed", "23", "--out", str(out)])
        assert status == 0
        chunk = ensembles.CHUNK_ENTRIES // 9
        # the identity section takes no SVD; each chunk's T by svd, then its
        # tr(B) I - n B and A by eigvalsh
        assert calls == [call for size in (chunk, chunk, 1000 - 2 * chunk)
                         for call in (("svd", size), ("eigvalsh", 2 * size))]
        regression = load_document(str(out))["results"][1]
        assert regression["target"] == "commuting-regression"
        assert regression["trials"] == 1000 and regression["violations"] == 0

    @pytest.mark.parametrize("n, trials", [(2, 1100), (7, 200)])
    def test_ptrace_regression_scores_the_pairs_commuting_hermitian_pair_draws(self, n, trials,
                                                                               capsys):
        # the reference: trial t's pair drawn alone from stream base + t; at n = 2
        # the 1100 trials span two chunks of 1024, at n = 7 three of 83
        from kyfan.ensembles import commuting_hermitian_pair
        from kyfan.ptrace import worst_question_margin

        pairs = np.array([commuting_hermitian_pair(n, SeededStream(47, STREAM_STRIDE + t))
                          for t in range(trials)])
        margins, _ = worst_question_margin(pairs[:, 0], pairs[:, 1], 2)
        assert main(["ptrace", "--question", "2", "--n", str(n), "--trials", str(trials),
                     "--seed", "47"]) == 0
        regression = json.loads(capsys.readouterr().out)["results"][1]
        assert regression["target"] == "commuting-regression"
        assert regression["worst_margin"] == float(margins.max())

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

    @pytest.mark.parametrize("flags, seed", [([], 7), (["--seed", "5"], 5)],
                             ids=["env", "flag-beats-env"])
    def test_each_grid_cell_is_the_search_on_its_sections_streams(self, flags, seed,
                                                                  monkeypatch, capsys):
        # cell c of question x n x strategy searches with the whole budget and
        # restarts, restart r drawing stream c * STREAM_STRIDE + r, as a loop
        # over search_counterexample does
        monkeypatch.setenv(SEED_ENV_VAR, "7")
        _cpus(monkeypatch, 2)
        assert main(["search", "--question", "1,2", "--n", "2,3", "--strategy",
                     "general,commuting", "--budget", "400", "--restarts", "3", *flags]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["seed"] == seed
        cells = list(itertools.product((1, 2), (2, 3), ("general", "commuting")))
        assert [(r["question"], r["n"], r["strategy"]) for r in doc["results"]] == cells
        for c, ((question, n, strategy), result) in enumerate(zip(cells, doc["results"])):
            expected = ptrace.search_counterexample(
                question, n, budget=400, restarts=3, s=SeededStream(seed, c * STREAM_STRIDE),
                strategy=strategy)
            assert result["evaluations"] == expected.evaluations == 400
            assert result["best_margin"] == expected.best_margin, (question, n, strategy)

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
        argv = ["ptrace", "--question", "2", "--n", "3", "--trials", "15",
                "--budget", "40", "--restarts", "2", "--seed", "41"]
        main(argv)
        first = json.loads(capsys.readouterr().out)
        main(argv)
        second = json.loads(capsys.readouterr().out)
        assert report_body_bytes(first) == report_body_bytes(second)

    def test_python_m_kyfan_runs_the_command_line(self, capsys):
        argv = ["check", "--ineq", "von-neumann", "--n", "3", "--trials", "5", "--seed", "7"]
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run([sys.executable, "-m", "kyfan", *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert done.returncode == 0, done.stderr
        main(argv)
        in_process = json.loads(capsys.readouterr().out)
        assert report_body_bytes(json.loads(done.stdout)) == report_body_bytes(in_process)

    def test_unwritable_output_returns_one(self, tmp_path, monkeypatch, capsys):
        # the directory passes the parse-time check and is gone by the time
        # the report is written
        target = tmp_path / "gone-dir" / "r.json"
        target.parent.mkdir()
        real_execute = cli.execute

        def remove_then_execute(cfg):
            target.parent.rmdir()
            return real_execute(cfg)

        monkeypatch.setattr(cli, "execute", remove_then_execute)
        status = main(
            ["check", "--ineq", "von-neumann", "--n", "2", "--trials", "2",
             "--seed", "37", "--out", str(target)]
        )
        assert status == 1
        assert "error: failed writing report" in capsys.readouterr().err

    @pytest.mark.parametrize("out, message", [
        (".", "--out names a directory"),
        ("new-dir/", "--out names a directory"),
        ("missing-dir/r.json", "--out's directory does not exist"),
    ], ids=["directory", "trailing-separator", "missing-directory"])
    def test_an_unusable_output_path_is_refused_before_any_section_runs(
            self, out, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        ran = []
        _before_each_section(monkeypatch, lambda part, in_parent: ran.append(part))
        for argv in (["check", "--ineq", "von-neumann", "--n", "2", "--trials", "2"],
                     ["extremal", "--trials", "3"]):
            with pytest.raises(SystemExit) as err:
                main(argv + ["--out", out])
            assert err.value.code == 1
            assert message in capsys.readouterr().err
        assert ran == []
        assert os.listdir(tmp_path) == []  # no temp file left behind

    def test_a_family_is_added_by_one_table_entry(self, monkeypatch, capsys):
        # a new id on the product family's draw and evaluator, with no check_* function
        family = dataclasses.replace(FAMILIES["product-family"], id="product-copy",
                                     ineq="product-copy")
        monkeypatch.setitem(FAMILIES, family.id, family)
        results = []
        for ineq in ("product-family", "product-copy"):
            cfg = RunConfig(command="check", inequality_id=ineq, n=3, trials=5, seed=7)
            assert execute(cfg) == 0
            (result,) = json.loads(capsys.readouterr().out)["results"]
            assert result["inequality_id"] == ineq
            results.append({key: result[key] for key in ("k_range", "worst_margin",
                                                         "per_k_worst", "trials")})
        assert results[0] == results[1]

    def test_execute_accepts_config_object(self, capsys):
        cfg = RunConfig(command="repro", target="fan-counterexample")
        assert execute(cfg) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["repro", "fan-counterexample"],
        ["check", "--ineq", "all", "--n", "2", "--trials", "3", "--tolerance=-10"],
        ["ptrace", "--question", "2", "--n", "3", "--trials", "5", "--budget", "40",
         "--restarts", "2", "--tolerance=-10"],
        ["search", "--question", "1", "--n", "2", "--budget", "20", "--restarts", "2",
         "--tolerance=-10"],
    ], ids=lambda argv: argv[0])
    def test_violations_total_is_the_sum_over_the_sections(self, argv, capsys):
        assert main(argv) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations_total"] == sum(r["violations"] for r in doc["results"])
        assert doc["exit_status"] == 2


class TestKRejection:
    @pytest.mark.parametrize("argv, named", [
        (["check", "--ineq", "product-family", "--n", "4", "--k", "9", "--trials", "5"],
         "product-family at n=4"),
        (["check", "--ineq", "lemma31", "--k", "2", "--trials", "5"], "lemma31 at n=2"),
    ])
    def test_k_that_scores_no_margin_exits_one(self, argv, named, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "scores no margin" in err and named in err
        assert not out.exists()  # rejected before any section ran

    @pytest.mark.parametrize("k", ["1", "3", "5"])
    def test_k_with_every_inequality_rejected_at_parse_time(self, k, capsys):
        # each family scores its own k values, so no one k suits --ineq all
        with pytest.raises(SystemExit) as err:
            main(["check", "--ineq", "all", "--n", "3", "--k", k, "--trials", "5"])
        assert err.value.code == 1
        assert "--k needs a single --ineq" in capsys.readouterr().err
        assert parse_arguments(["check", "--ineq", "all", "--k", "all"]).k_spec == "all"

    @pytest.mark.parametrize("command, argv", [
        ("ptrace", ["--trials", "5"]),
        ("search", ["--budget", "20", "--restarts", "2"]),
    ])
    def test_k_above_n_rejected_at_parse_time(self, command, argv, tmp_path, capsys):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as err:
            main([command, "--question", "1", "--n", "3", "--k", "5", *argv, "--out", str(out)])
        assert err.value.code == 1
        assert "--k must be at most --n (3), got 5" in capsys.readouterr().err
        assert not out.exists()
        assert parse_arguments([command, "--question", "1", "--n", "3", "--k", "3",
                                *argv]).k_spec == 3

    def test_k_scored_by_every_section_runs(self, capsys):
        import json

        assert main(["check", "--ineq", "product-family", "--n", "4", "--k", "3",
                     "--trials", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"][0]["k_range"] == [3]

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_declared_k_values_match_the_reports(self, n):
        for family in FAMILIES.values():
            report = _check_section(family, n, 1, SeededStream(3), 1e-8, None)
            assert report.inequality_id == family.id
            assert report.k_range == tuple(family.scored_ks(n)), (family.id, n)


@pytest.mark.parametrize("argv, layout", [
    (["check", "--ineq", "all"], tuple(range(70))),
    (["check", "--ineq", "von-neumann", "--n", "3"], (0,)),
    (["check", "--ineq", "ahj", "--n", "5"], (0, 1)),  # ahj-given, ahj-sqrt
    (["extremal"], (0, 1, 2)),
    (["extremal", "--target", "matrix"], (1,)),
    (["ptrace", "--question", "1"], (0, 1)),
    (["ptrace", "--question", "2", "--budget", "100"], (0, 1, 2)),
    (["search", "--question", "2"], (0,)),
    (["search", "--question", "1,2", "--n", "2,3,4", "--strategy", "general,commuting"],
     tuple(range(12))),
    (["repro", "fan-counterexample"], (0,)),
], ids=["check-all", "check-one-family", "check-one-group", "extremal-all",
        "extremal-matrix", "ptrace", "ptrace-budget", "search", "search-grid", "repro"])
def test_each_run_declares_its_stream_sections(argv, layout):
    # execute opens section s's stream at s * STREAM_STRIDE: no two sections may share one
    cfg = parse_arguments(argv)
    declared = tuple(s for s, _, _ in cli._sections(cfg))
    assert declared == layout
    assert len(set(declared)) == len(declared)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _before_each_section(monkeypatch, act):
    """Call ``act(part, in_parent)`` as each part of a check, an extremal or a
    search run starts: ``part`` is a check section's stream section, an
    extremal chunk's (stream section, chunk), or (stream section, restart)
    for each restart of a search span, in restart order."""
    parent, real, real_chunk = os.getpid(), suite._check_section, extremal._extremal_chunk_gaps
    real_span = ptrace._search_span

    def section(family, n, trials, stream, tolerance, k_values):
        act(stream.stream_index // STREAM_STRIDE, os.getpid() == parent)
        return real(family, n, trials, stream, tolerance, k_values)

    def chunk(target, n_max, trials, stream, samples, c):
        act((stream.stream_index // STREAM_STRIDE, c), os.getpid() == parent)
        return real_chunk(target, n_max, trials, stream, samples, c)

    def span(plan, first, stop, stream):
        for r in range(first, stop):
            act((stream.stream_index // STREAM_STRIDE, r), os.getpid() == parent)
        return real_span(plan, first, stop, stream)

    monkeypatch.setattr(suite, "_check_section", section)
    monkeypatch.setattr(extremal, "_extremal_chunk_gaps", chunk)
    monkeypatch.setattr(ptrace, "_search_span", span)


def _needs_blas_thread_setter():
    calls = cli._blas_thread_calls()
    if calls is None:
        pytest.skip("no thread-count setter found for numpy's BLAS")
    return calls


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplitSections:
    """Every command deals its sections over forked processes (see ``kyfan.cli``)."""

    @pytest.mark.parametrize("argv, status", [
        (["check", "--ineq", "all", "--trials", "20"], 0),
        (["check", "--ineq", "ahj", "--n", "3", "--trials", "40"], 0),
        (["check", "--ineq", "von-neumann", "--n", "3", "--trials", "40"], 0),
        (["extremal", "--target", "all", "--trials", "300"], 0),
        # one section of several parts, its last chunk partial
        (["extremal", "--target", "matrix", "--n", "6", "--samples", "3", "--trials", "777"], 0),
        (["ptrace", "--question", "2", "--n", "3", "--trials", "30", "--budget", "500"], 0),
        # the search's restarts cut into spans: perfbench's search-q2 line, a
        # witness, uneven spans, and 13 restarts in two lockstep groups at n = 8
        (["search", "--question", "2", "--n", "3", "--restarts", "8", "--strategy", "general",
          "--budget", "3000"], 0),
        (["search", "--question", "2", "--n", "2", "--budget", "20000", "--tolerance", "0"], 2),
        (["search", "--question", "1", "--n", "4", "--restarts", "5", "--budget", "3001",
          "--strategy", "commuting"], 0),
        (["search", "--question", "2", "--n", "8", "--restarts", "13", "--budget", "4000",
          "--k", "3"], 0),
        (["search", "--question", "2", "--n", "3", "--restarts", "1", "--budget", "500"], 0),
        # eight cells of three restarts, each cell's spans dealt as one search's
        (["search", "--question", "1,2", "--n", "2,3", "--strategy", "general,commuting",
          "--restarts", "3", "--budget", "400"], 0),
    ], ids=["all", "ahj-n3", "von-neumann-n3", "extremal-all", "extremal-matrix-chunks",
            "ptrace-q2-n3", "search-q2-n3", "search-witness", "search-commuting-5",
            "search-n8-13", "search-one-restart", "search-grid"])
    def test_split_and_serial_runs_give_the_same_body(self, argv, status, monkeypatch, capsys):
        bodies = []
        for cpus in (3, 2, 1):
            _cpus(monkeypatch, cpus)
            assert main(argv + ["--seed", "43"]) == status
            bodies.append(report_body_bytes(json.loads(capsys.readouterr().out)))
            _assert_no_child_left()
        assert bodies[0] == bodies[1] == bodies[2]

    def test_sections_are_dealt_round_robin(self, monkeypatch, capsys):
        real = cli.check_report_document
        monkeypatch.setattr(cli, "check_report_document",
                            lambda *args, **kw: {**real(*args, **kw), "pid": os.getpid()})
        _cpus(monkeypatch, 3)
        assert main(["check", "--ineq", "all", "--n", "2", "--trials", "3"]) == 0
        pids = [r["pid"] for r in json.loads(capsys.readouterr().out)["results"]]
        assert pids[0] == os.getpid() and len(set(pids[:3])) == 3
        assert pids == pids[:3] * 3 + pids[:1]
        _assert_no_child_left()

    @pytest.mark.parametrize("argv, failing", [
        *[(["check", "--ineq", "all", "--n", "2", "--trials", "3"], failing)
          for failing in [(1,), (2, 3), (1, 2), (3, 4)]],
        # the vector target (section 0) alone, and the matrix target (section 1,
        # a child's) failing before the equality target (section 2, the parent's)
        (["extremal", "--target", "vector", "--trials", "3"], ((0, 0),)),
        (["extremal", "--target", "all", "--trials", "3"], ((1, 0), (2, 0))),
        # three chunks a target: the matrix target's last chunk (part 5, a
        # child's) failing before the equality target's first (part 6, the parent's)
        (["extremal", "--target", "all", "--trials", "1100"], ((1, 2), (2, 0))),
        # restarts 0-3 are the parent's span under two CPUs, 4-7 the child's:
        # the child's failing, then both, the parent's earliest
        *[(["search", "--question", "2", "--n", "3", "--budget", "80"], failing)
          for failing in [((0, 5),), ((0, 3), (0, 4)), ((0, 1), (0, 7))]],
    ], ids=["check-1", "check-2-3", "check-1-2", "check-3-4", "extremal-vector", "extremal-all",
            "extremal-chunks", "search-child", "search-both", "search-both-apart"])
    def test_the_earliest_failing_section_raises_as_in_one_process(self, argv, failing,
                                                                   monkeypatch, tmp_path,
                                                                   capsys):
        def fail(section, in_parent):
            if section in failing:
                raise ValueError(f"section {section} failed")

        _before_each_section(monkeypatch, fail)
        errors = []
        for cpus in (2, 1):
            _cpus(monkeypatch, cpus)
            out = tmp_path / f"r{cpus}.json"
            assert main(argv + ["--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            errors.append(captured.err)
            _assert_no_child_left()
        assert errors[0] == errors[1] == f"error: section {min(failing)} failed\n"

    @pytest.mark.parametrize("cpus, restarts, spans", [
        (1, 8, [(0, 8)]),
        (2, 8, [(0, 4), (4, 8)]),
        (3, 8, [(0, 3), (3, 6), (6, 8)]),
        (2, 1, [(0, 1)]),
    ], ids=["one-cpu", "two-cpus", "three-cpus", "one-restart"])
    def test_a_search_cuts_its_restarts_into_one_span_a_process(self, cpus, restarts, spans,
                                                                monkeypatch, capsys):
        _needs_blas_thread_setter()
        _cpus(monkeypatch, cpus)
        argv = ["search", "--question", "2", "--n", "3", "--restarts", str(restarts),
                "--budget", "400"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["environment"]["processes"] == len(spans)
        _assert_no_child_left()
        monkeypatch.setattr(ptrace, "_search_span", lambda plan, first, stop, stream:
                            (first, stop))
        ((section, parts, _),) = cli._sections(parse_arguments(argv))
        assert section == 0 and [part(None) for part in parts] == spans

    def test_a_search_on_one_cpu_makes_one_lockstep_call(self, monkeypatch, capsys):
        # 4 + 4 restarts one after the other take longer than all 8 in one lockstep
        calls, real = [], ptrace._climb
        monkeypatch.setattr(ptrace, "_climb", lambda gens, quotas, *args: (
            calls.append(len(gens)), real(gens, quotas, *args))[1])
        _cpus(monkeypatch, 1)
        assert main(["search", "--question", "2", "--n", "3", "--restarts", "8",
                     "--budget", "3000"]) == 0
        assert json.loads(capsys.readouterr().out)["environment"]["processes"] == 1
        assert calls == [8]

    def test_a_killed_child_is_an_error_not_a_partial_report(self, monkeypatch, tmp_path,
                                                             capsys):
        def kill_child(section, in_parent):
            if section == 3 and not in_parent:
                os.kill(os.getpid(), signal.SIGKILL)

        _before_each_section(monkeypatch, kill_child)
        _cpus(monkeypatch, 2)
        out = tmp_path / "r.json"
        argv = ["check", "--ineq", "all", "--n", "2", "--trials", "3", "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == ("error: the worker process for parts 1, 3, 5, 7, 9 ended "
                                f"without a result (exit code {-signal.SIGKILL})\n")
        _assert_no_child_left()

    def test_an_interrupt_leaves_no_child(self, monkeypatch, capsys):
        def interrupt(section, in_parent):
            if in_parent and section == 2:
                raise KeyboardInterrupt
            if not in_parent:
                time.sleep(0.05)  # still running when the parent is interrupted

        _before_each_section(monkeypatch, interrupt)
        _cpus(monkeypatch, 2)
        with pytest.raises(KeyboardInterrupt):
            main(["check", "--ineq", "all", "--n", "2", "--trials", "3"])
        assert capsys.readouterr().out == ""
        _assert_no_child_left()

    @pytest.mark.parametrize("argv", [
        ["check", "--ineq", "all", "--n", "2", "--trials", "3"],
        ["extremal", "--trials", "5"],
        ["ptrace", "--question", "1", "--n", "3", "--trials", "3", "--budget", "20"],
        ["search", "--question", "2", "--n", "3", "--budget", "20", "--restarts", "2"],
        ["repro", "fan-counterexample"],
    ], ids=["check", "extremal", "ptrace", "search", "repro"])
    def test_without_the_one_thread_pin_every_command_stays_in_one_process(self, argv,
                                                                           monkeypatch,
                                                                           capsys):
        _needs_blas_thread_setter()  # a run splits only where kyfan finds one
        _cpus(monkeypatch, 2)
        processes = {}
        for threads in (None, 2, 1):
            with monkeypatch.context() as patch:
                if threads is None:  # no setter found: the pin yields None
                    patch.setattr(cli, "_blas_thread_calls", lambda: None)
                else:  # 2 stands for a BLAS left on more than one thread
                    patch.setattr(cli, "_one_blas_thread",
                                  lambda threads=threads: contextlib.nullcontext(threads))
                assert main(argv) in (0, 2)
                env = json.loads(capsys.readouterr().out)["environment"]
                assert env["blas_threads"] == threads
                processes[threads] = env["processes"]
                _assert_no_child_left()
                assert cli._process_count() == (1 if threads is None else 2)
        assert processes[None] == processes[2] == 1
        assert processes[1] == (1 if argv[0] == "repro" else 2)

    def test_other_threads_keep_the_run_in_one_process(self, monkeypatch):
        _needs_blas_thread_setter()
        _cpus(monkeypatch, 2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert cli._process_count() == 1
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert cli._process_count() == 2

    def test_split_run_passes_with_warnings_as_errors(self, capsys):
        # two CPUs whatever the host has, so that the run forks
        code = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
                "from kyfan.cli import main; "
                "sys.exit(main(['check', '--ineq', 'all', '--n', '2', '--trials', '3']))")
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        main(["check", "--ineq", "all", "--n", "2", "--trials", "3"])
        in_process = json.loads(capsys.readouterr().out)
        assert report_body_bytes(json.loads(done.stdout)) == report_body_bytes(in_process)


class TestOneBlasThread:
    """``execute`` runs a command with the BLAS on one thread (see ``kyfan.cli``)."""

    @pytest.mark.parametrize("cfg, raises", [
        (RunConfig("check", inequality_id="von-neumann", n=3, trials=5), None),
        # built here, past the parser's --k check, so that the regression raises
        (RunConfig("ptrace", question=1, n=3, k_spec=5, trials=2), ValueError),
    ], ids=["returns", "raises"])
    def test_the_callers_thread_count_is_restored(self, cfg, raises, monkeypatch, capsys):
        get, put = _needs_blas_thread_setter()
        real = cli._run_sections
        during = []

        def run_sections(parts, processes):  # the thread count the parts run with
            during.append(get())
            return real(parts, processes)

        monkeypatch.setattr(cli, "_run_sections", run_sections)
        before = get()
        try:
            put(2)  # the caller's count; a one-CPU machine may cap it to 1
            caller = get()
            if raises is None:
                assert execute(cfg) == 0
            else:
                with pytest.raises(raises, match=r"k values \[5\] not in 1\.\.3"):
                    execute(cfg)
            assert during == [1]
            assert get() == caller
        finally:
            put(before)

    def test_the_report_records_the_environment_outside_the_body(self, capsys):
        argv = ["check", "--ineq", "ahj", "--n", "3", "--trials", "5"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        env = doc["environment"]
        assert env["numpy"] == np.__version__
        assert env["python"] == ".".join(map(str, sys.version_info[:3]))
        assert set(env["blas"]) == set(env["lapack"]) == {"name", "version",
                                                           "openblas configuration"}
        assert env["blas_threads"] == (None if cli._blas_thread_calls() is None else 1)
        assert env["processes"] == min(cli._process_count(), len(doc["results"]))
        assert set(env["blas_kernel"]) == {"name", "config"}
        if cli._blas_thread_calls() is not None:  # numpy's OpenBLAS reports its kernel
            assert env["blas_kernel"]["name"] and env["blas_kernel"]["config"]
        assert b"environment" not in report_body_bytes(doc)
        assert main(argv + ["--format", "table"]) == 0
        assert "ahj" in capsys.readouterr().out

    def test_the_report_names_the_blas_kernel_that_ran_outside_the_body(self):
        if cli._blas_kernel()["name"] is None:
            pytest.skip("numpy's BLAS reports no run-time kernel")
        # a search whose body is the same under this machine's kernel and Haswell's
        argv = ["search", "--question", "2", "--n", "3", "--budget", "500"]
        src = str(Path(__file__).resolve().parent.parent / "src")
        kernels, bodies = [], []
        for coretype in (None, "Haswell"):
            env = {**os.environ, "PYTHONPATH": src}
            if coretype:
                env["OPENBLAS_CORETYPE"] = coretype
            done = subprocess.run([sys.executable, "-m", "kyfan", *argv], capture_output=True,
                                  text=True, env=env, timeout=300)
            assert done.returncode == 0, done.stderr
            doc = json.loads(done.stdout)
            kernels.append(doc["environment"]["blas_kernel"])
            bodies.append(report_body_bytes(doc))
        assert kernels[0] == cli._blas_kernel()
        assert kernels[1]["name"] == "Haswell" and "Haswell" in kernels[1]["config"]
        assert bodies[0] == bodies[1]

    def test_the_body_at_n96_does_not_depend_on_the_thread_count(self):
        _needs_blas_thread_setter()
        argv = ["check", "--ineq", "all", "--n", "96", "--trials", "4"]
        src = str(Path(__file__).resolve().parent.parent / "src")
        bodies = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            done = subprocess.run([sys.executable, "-m", "kyfan", *argv], capture_output=True,
                                  text=True, env=env, timeout=300)
            assert done.returncode == 0, done.stderr
            doc = json.loads(done.stdout)
            assert doc["environment"]["blas_threads"] == 1
            bodies.append(report_body_bytes(doc))
        assert bodies[0] == bodies[1]
