"""The names the benchmark's tracer wraps must exist.

``perfbench/tracer.py`` wraps kyfan functions by name (its ``LAYERS``) and
raises ``LookupError`` on a missing one.  Loading it here, without changing
it, makes a renamed or deleted traced name fail this suite rather than only
the benchmark's traced runs.  In the same way, every workload's command line
in ``perfbench/run.py`` must parse and give the sections its report holds.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("kyfan_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    import kyfan.cli as cli

    original = cli.check_ahj
    traced = tracer.Tracer()
    try:
        patched = traced.install()
    finally:
        traced.uninstall()
    assert set(patched) == {f"{module}.{name}" for targets in tracer.LAYERS.values()
                            for module, name in targets}
    assert all(patched.values())
    assert "kyfan.cli.check_ahj" in patched["suite.check_ahj"]
    assert cli.check_ahj is original


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
        assert len(cli._EXECUTORS[cfg.command](cfg)) == workload.sections, name
