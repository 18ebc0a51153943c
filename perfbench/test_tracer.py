"""Tests of the benchmark's tracer.

    python3 -m pytest perfbench/test_tracer.py -q
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from kyfan.reports import report_body_bytes  # noqa: E402  (imported before any install)
from tracer import (  # noqa: E402
    LAYERS, PACKAGE, UNTRACED, Tracer, coverage_residual, layer_metric, self_times,
    summarize,
)


def span(group, parent, start, end, work=0.0):
    return [group, parent, start, end, work]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("cli", -1, 0.0, 10.0),
        span("suite.check", 0, 1.0, 4.0),
        span("matrixcore.svd", 1, 2.0, 3.0),
        span("ensembles.draw", 0, 5.0, 9.0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        span("cli", -1, 0.0, 10.0),
        span("suite.check", 0, 1.0, 5.0),
        span("suite.check", 0, 3.0, 7.0),
        span("suite.check", 0, 8.0, 12.0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 2.0)


def test_summary_counts_inclusive_time_of_outermost_group_spans():
    spans = [
        span("cli", -1, 0.0, 10.0),
        span("ptrace.margin", 0, 1.0, 9.0),
        span("ptrace.margin", 1, 2.0, 8.0),
        span("matrixcore.svd", 2, 3.0, 5.0, work=7.0),
    ]
    summary = summarize(spans)
    assert summary["ptrace.margin"]["calls"] == 2
    assert summary["ptrace.margin"]["s"] == pytest.approx(8.0)
    assert summary["ptrace.margin"]["self_s"] == pytest.approx(2.0 + 4.0)
    assert layer_metric(summary, "matrixcore.svd.flops_computed") == 7.0
    assert layer_metric(summary, "cli.self_s") == pytest.approx(2.0)
    assert coverage_residual(summary, 10.0) == pytest.approx(0.0)
    assert coverage_residual(summary, 20.0) == pytest.approx(0.5)


@pytest.fixture
def installed():
    importlib.import_module(f"{PACKAGE}.cli")
    originals = {
        (module_name, qualname): _resolve(module_name, qualname)
        for targets in LAYERS.values() for module_name, qualname in targets
    }
    tracer = Tracer()
    patched = tracer.install()
    try:
        yield tracer, patched, originals
    finally:
        tracer.uninstall()
    for (module_name, qualname), original in originals.items():
        assert _resolve(module_name, qualname) is original


def _resolve(module_name, qualname):
    owner = sys.modules[f"{PACKAGE}.{module_name}"]
    for part in qualname.split("."):
        owner = inspect.getattr_static(owner, part)
    return owner


def test_every_target_is_wrapped_in_every_namespace_that_holds_it(installed):
    _, patched, originals = installed
    for (module_name, qualname), original in originals.items():
        assert getattr(_resolve(module_name, qualname), "__perfbench_group__", None), qualname
        assert patched[f"{module_name}.{qualname}"], qualname
    stale = [
        f"{name}.{attr}"
        for name, module in sys.modules.items()
        if name == PACKAGE or name.startswith(PACKAGE + ".")
        for attr, value in vars(module).items()
        if any(value is original for original in originals.values())
    ]
    assert stale == []
    assert "kyfan.cli.singular_values" in patched["matrixcore.singular_values"]
    assert "kyfan.cli.check_ahj" in patched["suite.check_ahj"]
    assert "kyfan.ensembles.SeededStream" in patched["ensembles.SeededStream.generator"]


def test_every_public_function_is_in_a_layer_or_excused():
    listed = {target for targets in LAYERS.values() for target in targets} | set(UNTRACED)
    missing = []
    for module_name in {module_name for module_name, _ in listed}:
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
        for name in getattr(module, "__all__", ()):
            if inspect.isfunction(getattr(module, name)) and (module_name, name) not in listed:
                missing.append(f"{module_name}.{name}")
    assert missing == []


def test_every_per_layer_metric_in_the_benchmark_spec_is_produced():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    inv = run.Invocation(
        traced=True, wall_s=1.0,
        child={"layers": summarize([]), "sign_cache": {"hits": 3, "misses": 1},
               "coverage_residual": 0.0},
    )
    values = run.layer_values("extremal", inv, spec["per_layer"])
    unresolved = [name for name, value in values.items() if value is None]
    # computed per run from the traced and untraced wall times
    assert unresolved == ["trace.overhead_ratio"]
    assert values["ensembles.sign_cache.hit_ratio"] == 0.75


def test_traced_run_matches_untraced_output_and_is_fully_covered(installed):
    from kyfan import cli

    tracer, _, _ = installed
    cfg = cli.parse_arguments(["check", "--ineq", "von-neumann", "--n", "3", "--trials", "5"])
    tracer.spans.clear()
    traced_out = io.StringIO()
    with contextlib.redirect_stdout(traced_out):
        cli.execute(cfg)
    tracer.uninstall()
    plain_out = io.StringIO()
    with contextlib.redirect_stdout(plain_out):
        cli.execute(cfg)

    def body(text):
        return report_body_bytes(json.loads(text))

    assert body(traced_out.getvalue()) == body(plain_out.getvalue())
    root = tracer.spans[0]
    assert root[0] == "cli" and root[1] == -1
    summary = summarize(tracer.spans)
    assert summary["ensembles.stream_open"]["calls"] == 5
    assert summary["suite.check"]["calls"] == 1
    assert coverage_residual(summary, root[3] - root[2]) < 1e-9
