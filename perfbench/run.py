"""Benchmark for the ``kyfan`` command line: end-to-end and per-layer figures.

One run measures one workload for ``--seconds`` seconds.  It starts the
``kyfan`` CLI again and again, one process at a time (a closed loop of one
client), each time with the workload seed as ``--seed``, checks every report
it writes, and prints the metrics named in ``BENCHMARK.json`` as the last line
of standard output::

    python3 perfbench/run.py --workload sweep-small --seed 271828 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics, measured untraced.  ``--trace 1``
alternates untraced and traced invocations of the same command and reports
the per-layer metrics of the traced ones (medians over invocations), the
tracing overhead, and the share of traced wall time the layers account for.

Times are scaled to a reference machine speed.  A shared host can swing
between speed states (up to 2x on a shared 2-core x86_64 VM, both within
seconds and over minutes), and raw medians drift with it.  Each invocation
therefore times a fixed calibration kernel (no kyfan code) just before and
after its window, and a time t is reported as t * CAL_REF_S / calibration_s: seconds on a
machine that runs the kernel in ``CAL_REF_S``.  The unscaled figures are
printed beside the scaled ones and kept in the result files.  Per-layer times
are scaled the same way, by the factor reported as ``trace.speed_factor``.

``--workload all`` runs every workload untraced and then traced and exits
non-zero if any output check failed.  ``--repeat R`` makes R runs of each and
prints each metric's median, quartiles and sample count; ``--save FILE``
writes that summary with the environment record, as in
``perfbench/baseline.json``.

``DEFAULT_SEED`` is the seed for routine measurement; ``HELD_OUT_SEED`` is
kept for confirming a claimed gain on inputs it was not tuned on.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 271828
HELD_OUT_SEED = 161803
INVOCATION_TIMEOUT_S = 120
#: the layer self times must account for the traced wall time within this share
COVERAGE_LIMIT = 0.01
#: calibration kernel time on the reference machine (see the module docstring)
CAL_REF_S = 0.03


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass(frozen=True)
class Workload:
    """One ``kyfan`` command line and what its report must contain.

    Each invocation's report must hold ``sections`` results whose
    ``work_field`` equals ``per_section`` and whose fields match ``expect``.
    The work done per invocation is the sum of ``work_field``.
    """

    argv: tuple[str, ...]
    work_field: str
    sections: int
    per_section: int
    expect: dict = field(default_factory=dict)


# Per-invocation sizes keep the post-set-up window near one second on a
# 2-core machine, so one run holds tens of invocations to take medians of.
WORKLOADS = {
    # per-trial overhead: stream opening, validation, small SVDs
    "sweep-small": Workload(("check", "--ineq", "all", "--trials", "50"),
                            "trials", sections=70, per_section=50),
    # LAPACK-bound: same layers as sweep-small with 64 x 64 operands
    "sweep-large": Workload(("check", "--ineq", "all", "--n", "64", "--trials", "20"),
                            "trials", sections=10, per_section=20, expect={"n": 64}),
    # the ptrace greedy search loop; opens 8 streams per invocation
    "search-q2": Workload(("search", "--question", "2", "--n", "3", "--restarts", "8",
                           "--strategy", "general", "--budget", "3000"),
                          "evaluations", sections=1, per_section=3000,
                          expect={"restarts": 8, "n": 3, "question": 2}),
    # norms and the candidate/support machinery; trial loop lives in cli
    "extremal": Workload(("extremal", "--target", "all", "--trials", "2000"),
                         "trials", sections=3, per_section=2000),
}


@dataclass
class Invocation:
    """One ``kyfan`` process; ``setup_s`` and ``wall_s`` are scaled times."""

    traced: bool
    setup_s: float | None = None
    wall_s: float | None = None
    unscaled_setup_s: float | None = None
    unscaled_wall_s: float | None = None
    speed_factor: float = 1.0
    peak_rss_mb: float | None = None
    work: int = 0
    body: bytes | None = None
    report_bytes: int = 0
    best_margin: float = 0.0
    child: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    findings: list = field(default_factory=list)


def import_kyfan() -> None:
    """Import kyfan from this checkout's ``src``; raise if it is not there."""
    src = ROOT / "src"
    if not (src / "kyfan" / "cli.py").is_file():
        raise FileNotFoundError(f"no kyfan sources under {src}")
    sys.path.insert(0, str(src))
    import kyfan

    if Path(kyfan.__file__).resolve().parent != (src / "kyfan").resolve():
        raise ImportError(f"imported kyfan from {kyfan.__file__}, not from {src}")


def _blas_threads():
    import numpy as np

    libs = sorted(glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                         "numpy.libs", "*openblas*")))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    """The machine and numeric stack that produced a result."""
    import numpy as np
    from kyfan.ensembles import GENERATOR_ID

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy without mode="dicts"
        deps = {}

    def build(name):
        info = deps.get(name, {})
        return {key: info.get(key) for key in ("name", "version", "openblas configuration")}

    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "generator_id": GENERATOR_ID,
        "blas": build("blas"),
        "lapack": build("lapack"),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                       if k in os.environ},
        "loadavg_start": list(os.getloadavg()),
    }


def recheck_witness(item: dict) -> str:
    from kyfan.fileformat import document_to_matrix
    from kyfan.ptrace import QuestionInstance, question_margin

    witness = item["witness"]
    inst = QuestionInstance(
        A=document_to_matrix(witness["matrices"]["A"]),
        B=document_to_matrix(witness["matrices"]["B"]),
        n=item["n"], question=item["question"], k=witness["k"],
    )
    return (f"search witness at k={witness['k']}: reported margin {witness['margin']!r}, "
            f"re-checked margin {question_margin(inst)!r}")


def check_report(workload: Workload, doc: dict, status: int, inv: Invocation) -> None:
    """Record in ``inv`` every way the report departs from the request."""
    results = doc.get("results", [])
    if len(results) != workload.sections:
        inv.errors.append(f"{len(results)} results, expected {workload.sections}")
    witnesses = 0
    for item in results:
        label = item.get("inequality_id") or item.get("target")
        count = item.get(workload.work_field)
        if count != workload.per_section:
            inv.errors.append(f"{label}: {workload.work_field}={count}, "
                              f"expected {workload.per_section}")
        inv.work += count if isinstance(count, int) else 0
        for key, want in workload.expect.items():
            if item.get(key) != want:
                inv.errors.append(f"{label}: {key}={item.get(key)!r}, expected {want!r}")
        if "worst_gap" in item and not item["worst_gap"] <= item["tolerance"]:
            inv.errors.append(f"{label}: worst_gap {item['worst_gap']!r} above "
                              f"tolerance {item['tolerance']!r}")
        if "best_margin" in item:
            inv.best_margin = item["best_margin"]
        if doc.get("command") == "search" and "witness" in item:
            witnesses += 1
            inv.findings.append(recheck_witness(item))
        elif item.get("violations") != 0:
            inv.errors.append(f"{label}: violations={item.get('violations')!r}")
    expected_status = 2 if witnesses else 0
    if status != expected_status or doc.get("exit_status") != expected_status:
        inv.errors.append(f"exit status {status} (report {doc.get('exit_status')!r}), "
                          f"expected {expected_status}")
    if doc.get("violations_total") != witnesses:
        inv.errors.append(f"violations_total={doc.get('violations_total')!r}")


def invoke(name: str, seed: int, traced: bool) -> Invocation:
    """Run one ``kyfan`` process to completion and check its report."""
    from kyfan.fileformat import load_document
    from kyfan.reports import report_body_bytes

    workload = WORKLOADS[name]
    inv = Invocation(traced=traced)
    report = OUT_DIR / f"{name}-report.json"
    result = OUT_DIR / f"{name}-child.json"
    for stale in (report, result):
        stale.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result)]
    if traced:
        cmd += ["--spans", str(OUT_DIR / f"{name}-spans.json")]
    cmd += ["--", *workload.argv, "--seed", str(seed), "--out", str(report)]
    spawned = clock()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        inv.errors.append(f"no exit within {INVOCATION_TIMEOUT_S} s")
        return inv
    if proc.returncode != 0 or not result.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        inv.errors.append(f"benchmark child exited {proc.returncode}: {tail[0]}")
        return inv
    inv.child = json.loads(result.read_text(encoding="utf-8"))
    before, after = inv.child["calibration_s"]
    inv.unscaled_setup_s = inv.child["setup_end"] - spawned
    inv.unscaled_wall_s = inv.child["wall_s"]
    inv.setup_s = inv.unscaled_setup_s * CAL_REF_S / before
    inv.speed_factor = CAL_REF_S / ((before + after) / 2)
    inv.wall_s = inv.unscaled_wall_s * inv.speed_factor
    inv.peak_rss_mb = inv.child["peak_rss_mb"]
    try:
        doc = load_document(str(report))
    except (OSError, ValueError) as exc:
        inv.errors.append(f"report does not parse: {exc}")
        return inv
    inv.report_bytes = report.stat().st_size
    inv.body = report_body_bytes(doc)
    check_report(workload, doc, inv.child["status"], inv)
    if traced and inv.child["coverage_residual"] > COVERAGE_LIMIT:
        inv.errors.append(f"layer self times miss {inv.child['coverage_residual']:.2%} "
                          f"of the traced wall time (limit {COVERAGE_LIMIT:.0%})")
    return inv


def layer_values(name: str, inv: Invocation, metrics: list) -> dict:
    """Per-layer metric values of one traced invocation."""
    from tracer import layer_metric

    cache = inv.child["sign_cache"]
    lookups = cache["hits"] + cache["misses"]
    extras = {
        "ensembles.sign_cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "suite.trials": inv.work if WORKLOADS[name].argv[0] == "check" else 0,
        "ptrace.best_margin": inv.best_margin,
        "fileformat.report_bytes": inv.report_bytes,
        "trace.coverage_residual": inv.child["coverage_residual"],
        "trace.wall_s": inv.wall_s,
        "trace.speed_factor": inv.speed_factor,
    }
    out = {}
    for metric in metrics:
        value = layer_metric(inv.child["layers"], metric["name"])
        if value is not None and metric["unit"] == "s":
            value *= inv.speed_factor
        out[metric["name"]] = extras.get(metric["name"]) if value is None else value
    return out


def run(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """One measured run of one workload; returns its result record."""
    deadline = clock() + seconds
    invocations: list[Invocation] = []
    while not invocations or clock() < deadline:
        invocations.append(invoke(name, seed, traced=False))
        if trace:
            invocations.append(invoke(name, seed, traced=True))
    reference = next((inv.body for inv in invocations if inv.body is not None), None)
    for inv in invocations:
        if inv.body is not None and inv.body != reference:
            inv.errors.append(("traced " if inv.traced else "")
                              + "report body differs from the first invocation's")

    timed = [inv for inv in invocations if inv.wall_s is not None]
    plain = [inv for inv in timed if not inv.traced]
    samples: dict[str, list] = {}
    if not trace:
        samples["setup_s"] = [inv.setup_s for inv in plain]
        samples["work_per_s"] = [inv.work / inv.wall_s for inv in plain]
        samples["peak_rss_mb"] = [inv.peak_rss_mb for inv in plain]
        samples["setup_s.unscaled"] = [inv.unscaled_setup_s for inv in plain]
        samples["work_per_s.unscaled"] = [inv.work / inv.unscaled_wall_s for inv in plain]
        wanted = spec["end_to_end"]
    else:
        traced = [inv for inv in timed if inv.traced]
        per_inv = [layer_values(name, inv, spec["per_layer"]) for inv in traced]
        for metric in spec["per_layer"]:
            samples[metric["name"]] = [values[metric["name"]] for values in per_inv]
        if plain and traced:
            ratio = (statistics.median(inv.wall_s for inv in traced)
                     / statistics.median(inv.wall_s for inv in plain))
            samples["trace.overhead_ratio"] = [ratio]
        wanted = spec["per_layer"]
    metrics = {}
    for metric in wanted:
        values = samples.get(metric["name"]) or []
        if values:
            metrics[metric["name"]] = {"value": statistics.median(values),
                                       "unit": metric["unit"]}
    failed = sum(1 for inv in invocations if inv.errors)
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "correct": failed == 0 and len(metrics) == len(wanted),
        "attempted": len(invocations),
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
        "report_body_sha256": hashlib.sha256(reference).hexdigest() if reference else None,
        "errors": sorted({e for inv in invocations for e in inv.errors}),
        "findings": sorted({f for inv in invocations for f in inv.findings}),
    }


def spread(values: list) -> tuple[float, float, float]:
    """Median and first and third quartiles (equal to it for one value)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def print_run(result: dict, units: dict) -> None:
    """Human summary of one run: each metric with median, quartiles, count."""
    work = WORKLOADS[result["workload"]].work_field
    print(f"{result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"invocations {result['attempted']}  failed {result['failed']}  "
          f"failed_ratio {result['failed'] / result['attempted']:g} (share of invocations)")
    for name, values in result["samples"].items():
        if not values:
            continue
        med, q1, q3 = spread(values)
        note = f"  ({work} per second)" if name.startswith("work_per_s") else ""
        print(f"  {name:34s} {med:<14.6g} {units[name]:6s} n={len(values):<3d} "
              f"q1 {q1:.6g}  q3 {q3:.6g}{note}")
    for line in result["errors"]:
        print(f"  FAILED CHECK: {line}")
    for line in result["findings"]:
        print(f"  finding: {line}")


def summarize_runs(results: list, units: dict) -> dict:
    """Across runs of one workload and trace mode: each metric's spread."""
    table = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        med, q1, q3 = spread(values)
        table[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                       "unit": units[name]}
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "(default: both, one run each)")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload and mode")
    parser.add_argument("--save", default=None, help="write the summary of all runs here")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.repeat < 1:
        parser.error("--seed must be nonnegative and --repeat positive")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        import_kyfan()
    except (OSError, ImportError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    OUT_DIR.mkdir(exist_ok=True)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({"setup_s.unscaled": "s", "work_per_s.unscaled": "1/s"})
    env = environment()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (False, True) if args.trace is None else (bool(args.trace),)

    runs = {}
    for name in names:
        for trace in traces:
            for _ in range(args.repeat):
                result = run(name, args.seed, seconds, trace, spec)
                result["env"] = env
                print_run(result, units)
                sys.stdout.flush()
                (OUT_DIR / f"{name}-trace{int(trace)}-result.json").write_text(
                    json.dumps(result, indent=1) + "\n", encoding="utf-8")
                runs.setdefault((name, int(trace)), []).append(result)

    everything = [r for group in runs.values() for r in group]
    correct = all(r["correct"] for r in everything)
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    print("env " + json.dumps(env, sort_keys=True))
    if len(everything) == 1:
        metrics = everything[0]["metrics"]
    else:
        summary, metrics = {}, {}
        print(f"summary over {args.repeat} run(s) per workload and mode, seed {args.seed}:")
        for (name, trace), group in runs.items():
            table = summarize_runs(group, units)
            summary.setdefault(name, {})[f"trace{trace}"] = table
            for metric, row in table.items():
                metrics[f"{name}/{metric}"] = {"value": row["median"], "unit": row["unit"]}
                print(f"  {name:12s} {metric:34s} {row['median']:<14.6g} {row['unit']:6s} "
                      f"n={row['n']:<3d} q1 {row['q1']:.6g}  q3 {row['q3']:.6g}")
        for name in summary:
            hashes = {r["report_body_sha256"] for r in everything if r["workload"] == name}
            if len(hashes) != 1:
                correct = False
                print(f"  FAILED CHECK: {name}: report bodies differ between runs")
            summary[name]["report_body_sha256"] = sorted(map(str, hashes))[0]
        if args.save:
            Path(args.save).write_text(json.dumps({
                "seed": args.seed, "held_out_seed": HELD_OUT_SEED, "seconds": seconds,
                "repeat": args.repeat, "env": env, "workloads": summary,
            }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
