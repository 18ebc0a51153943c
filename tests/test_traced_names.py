"""The names the benchmark's tracer wraps must exist.

``perfbench/tracer.py`` wraps kyfan functions by name (its ``LAYERS``) and
raises ``LookupError`` on a missing one.  Loading it here, without changing
it, makes a renamed or deleted traced name fail this suite rather than only
the benchmark's traced runs.
"""

import importlib.util
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
