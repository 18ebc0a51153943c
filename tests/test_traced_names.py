"""The names the benchmark's tracer wraps must exist.

``perfbench/tracer.py`` wraps kyfan functions by name (its ``LAYERS``) and
raises ``LookupError`` on a missing one.  Loading it here, without changing
it, makes a renamed or deleted traced name fail this suite rather than only
the benchmark's traced runs.  A traced ``check`` run in one process must
record one ``suite.check`` span per section, so that the benchmark's
per-layer checker metrics cannot read 0.  In the same way, every workload's
command line in ``perfbench/run.py`` must parse and give the sections its
report holds.
"""

import importlib.util
import os
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("kyfan_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_installs_and_uninstalls():
    tracer = _load_tracer()
    import kyfan.suite as suite

    original = suite.check_ahj
    traced = tracer.Tracer()
    try:
        patched = traced.install()
    finally:
        traced.uninstall()
    assert set(patched) == {f"{module}.{name}" for targets in tracer.LAYERS.values()
                            for module, name in targets}
    assert all(patched.values())
    # the check sections call each checker by its name in suite
    assert "kyfan.suite.check_ahj" in patched["suite.check_ahj"]
    assert suite.check_ahj is original


def test_a_traced_check_run_records_one_span_per_section(monkeypatch):
    # the benchmark's suite.check.* metrics count the spans of this process:
    # with one CPU every section runs here, and each must call a traced checker
    tracer = _load_tracer()
    from kyfan import cli

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    cfg = cli.parse_arguments(["check", "--ineq", "all", "--n", "2", "--trials", "3"])
    traced = tracer.Tracer()
    traced.install()
    try:
        assert cli.execute(cfg) == 0
    finally:
        traced.uninstall()
    assert tracer.summarize(traced.spans)["suite.check"]["calls"] == 10


RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_every_benchmark_workload_parses_and_has_its_sections(monkeypatch):
    # a parser change must not break a benchmark command line silently
    spec = importlib.util.spec_from_file_location("kyfan_bench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    # run.py's dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    from kyfan import cli

    for name, workload in run.WORKLOADS.items():
        cfg = cli.parse_arguments(workload.argv)
        assert len(cli._sections(cfg)) == workload.sections, name
