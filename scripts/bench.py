#!/usr/bin/env python3
"""Per-layer micro-benchmarks of one kyfan trial, written to ``BENCH_<label>.json``.

    PYTHONPATH=src python3 scripts/bench.py --label baseline [--ops 2048] [--repeats 9]

Each layer is timed as a loop of ``--ops`` operations (for the checker
layers, one section of 1024 trials), ``--repeats`` times; the file records
the median and quartiles of the time per operation, in microseconds, over
the repeats:

- ``stream_open``: ``base.offset(t).generator()`` for t = 0, 1, ..., the way
  a trial loop opens its streams.  Every repeat starts from a fresh section
  base (a multiple of ``cli.STREAM_STRIDE``, as the CLI spaces its sections).
- ``draw_gaussian_5``: one 5 x 5 complex Gaussian RNG step (the (2, 5, 5)
  normals a Ginibre sample is made from) on an open generator.
- ``svd_5_looped``: ``kyfan.matrixcore.svd`` of one 5 x 5 complex matrix.
- ``svd_5_stacked``: one ``svd`` call on a stack of ``--ops`` such matrices,
  per matrix.
- ``checker_trial_ahj_5`` and ``checker_trial_lemma32_5``: one section of
  1024 trials at n = 5 through ``check_ahj`` (given factors) and
  ``check_lemma32``, per trial: opening the streams, drawing, building,
  scoring and aggregation.  Every repeat starts from a fresh section base.
- ``checker_sweep_50``: ``kyfan check --ineq all --trials 50`` in process:
  every family of ``suite.FAMILIES``, in its order, at n = 2..8 through
  ``suite._check_section``, the check dispatch each section of the command
  runs (each family's public ``check_*`` function, the masked ones under the
  form of their family), 50 trials per section, each section on its own
  base, in one process.  Per trial of the 3500,
  and the row also gives the median in trials per second.
- ``check_all_50``, ``check_all_1000`` and ``check_all_n64_20``: ``kyfan
  check --ineq all`` with ``--trials 50``, with ``--trials 1000``, and with
  ``--n 64 --trials 20``, in process through ``cli.execute``, the whole
  command as ``kyfan`` runs it (its one BLAS thread and its sections split
  over processes, see ``kyfan.cli``) with its report written to a discarded
  buffer; every repeat takes its own seed.  Per trial of the 3500, the
  70000 and the 200, and each row also gives the median in trials per
  second.  Before ``execute`` ran every command's sections, the first two
  rows timed ``cli._execute_check`` alone: no BLAS pin, no report.
- ``search_stack_3``: one lockstep round of the counterexample search at
  n = 3, question 2, all k, with ``SEARCH_RESTARTS`` = 8 live restarts: the
  one scoring call a round makes for ``SEARCH_BATCH`` candidates of each
  restart, each a copy of its restart's parameter vector with one
  coordinate moved (building the pairs, validating them, one ``svd`` call
  on the operators T and one ``eigvalsh`` call on the moved Hermitian
  factors, and the margins), with each restart's carried spectra repeated
  per candidate.  Timed per round, over
  ``--ops // (SEARCH_RESTARTS * SEARCH_BATCH)`` rounds.
- ``search_q2_3000``: ``search_counterexample(2, 3, budget=3000,
  restarts=SEARCH_RESTARTS)`` in process, per evaluation; the row also gives the median
  in evaluations per second.
- ``search_all_3000``: perfbench's search-q2 command line (``search
  --question 2 --n 3 --restarts 8 --strategy general --budget 3000``) in
  process through ``cli.execute``, the whole command as ``kyfan`` runs it
  (its one BLAS thread and its restarts cut into spans over processes) with
  its report written to a discarded buffer; every repeat takes its own
  seed.  Per evaluation, and the row also gives the median in evaluations
  per second.
- ``extremal_2000``: the ``kyfan extremal`` engine in process,
  ``extremal._extremal_gaps`` for each of the three targets at n_max = 8 with
  ``samples = 2`` and 2000 trials, each target on its own section as the CLI
  spaces them; per trial of the 6000, and the row also gives the median in
  trials per second.
- ``extremal_all_2000``: ``kyfan extremal --target all --trials 2000`` in
  process through ``cli.execute``, the whole command as ``kyfan`` runs it
  (its one BLAS thread and its targets' chunks split over processes) with
  its report written to a discarded buffer, as the ``check_all_*`` rows
  run; every repeat takes its own seed.  Per trial of the 6000, and the
  row also gives the median in trials per second.
- ``setup_check``, ``setup_search`` and ``setup_extremal``: the set-up of
  perfbench's sweep-small, search-q2 and extremal command lines (``check
  --ineq all --trials 50``, ``search --question 2 --n 3 --restarts 8
  --strategy general --budget 3000`` and ``extremal --target all --trials
  2000``), per launch, ``SETUP_LAUNCHES`` launches a loop: the time from
  spawn to exit of a fresh interpreter that imports ``kyfan.cli``, parses
  the command line with ``parse_arguments`` and leaves by ``os._exit``,
  before any report work or interpreter teardown.  The launch imports the
  kyfan this script measures, writes no bytecode and reads any
  ``__pycache__`` the checkout already has: delete those for cold-start
  figures.

A shared machine drifts between speed states, within seconds as well as
over minutes, so perfbench's calibration kernel (``calibrate`` in
``perfbench/child.py``: a fixed mix of numpy, LAPACK and interpreter work,
no kyfan code) is timed around every timed loop.
Each loop's time is scaled by ``CAL_REF_S`` over the mean of the kernel
times just before and just after it: microseconds on a machine that runs
the kernel in ``CAL_REF_S``.  Each row gives the scaled median and
quartiles (``*_scaled``) beside the raw ones, and its median speed factor.
The kernel is also timed ``CALIBRATION_ROUNDS`` times at the start and at
the end of the run; the file records both medians and the run's
``speed_factor`` = ``CAL_REF_S`` / their mean.  Compare two files by their
scaled figures.

The file also records the machine: ``os.cpu_count()``, the Python and numpy
versions, the BLAS/LAPACK build (name, version and OpenBLAS
configuration) as ``kyfan.cli._numeric_stack`` records it in a report, and
the BLAS kernel that ran, as ``kyfan.cli._blas_kernel`` does.
Only the standard library and numpy are used besides kyfan itself.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import kyfan
from kyfan.cli import (
    DEFAULT_NS,
    DEFAULT_SEED,
    STREAM_STRIDE,
    RunConfig,
    _blas_kernel,
    _numeric_stack,
    execute,
    parse_arguments,
)
from kyfan.ensembles import GENERATOR_ID, SeededStream, _gaussian
from kyfan.extremal import EXTREMAL_TARGETS, _extremal_gaps
from kyfan.matrixcore import svd
from kyfan.norms import INEQUALITY_TOL
from kyfan.ptrace import SEARCH_BATCH, _unpack_pair, _worst_margins, search_counterexample
from kyfan.suite import FAMILIES, _check_section, check_ahj, check_lemma32

SEED = DEFAULT_SEED
SECTION = STREAM_STRIDE
N = 5
SECTION_TRIALS = 1024
SEARCH_N = 3
SEARCH_BUDGET = 3000
SEARCH_RESTARTS = 8
EXTREMAL_N = 8
EXTREMAL_TRIALS = 2000
EXTREMAL_SAMPLES = 2
SWEEP_NS = DEFAULT_NS
SWEEP_TRIALS = 50
LARGE_N = 64
LARGE_TRIALS = 20
#: calibration kernel time on the reference machine, as in perfbench/run.py
CAL_REF_S = 0.03
CALIBRATION_ROUNDS = 5
#: fresh interpreters launched per timed loop of a ``setup_*`` row
SETUP_LAUNCHES = 3
#: perfbench's sweep-small, search-q2 and extremal command lines, by the row
#: that times their set-up
SETUP_ARGV = {
    "setup_check": ("check", "--ineq", "all", "--trials", "50"),
    "setup_search": ("search", "--question", "2", "--n", "3", "--restarts", "8",
                     "--strategy", "general", "--budget", "3000"),
    "setup_extremal": ("extremal", "--target", "all", "--trials", "2000"),
}
#: one ``setup_*`` launch: the set-up of ``kyfan``, then an exit with no teardown
_SETUP = "import os, sys, kyfan.cli; kyfan.cli.parse_arguments(sys.argv[1:]); os._exit(0)"


def _load_calibrate():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.calibrate


calibrate = _load_calibrate()


def calibration_median() -> float:
    return statistics.median(calibrate() for _ in range(CALIBRATION_ROUNDS))


def _quartiles(samples: list, suffix: str) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {f"median{suffix}": median, f"q1{suffix}": q1, f"q3{suffix}": q3}


def _per_op_us(loop, ops: int, repeats: int) -> dict:
    """Median and quartiles of the per-operation time of ``loop(rep)`` in µs,
    raw and scaled by the calibration kernel timed around each loop."""
    raw, factors = [], []
    before = calibrate()
    for rep in range(repeats):
        start = time.perf_counter()
        loop(rep)
        raw.append((time.perf_counter() - start) / ops * 1e6)
        after = calibrate()
        factors.append(CAL_REF_S / ((before + after) / 2))
        before = after
    scaled = [t * f for t, f in zip(raw, factors)]
    return {**_quartiles(raw, "_us"), **_quartiles(scaled, "_us_scaled"),
            "speed_factor": statistics.median(factors), "repeats": repeats}


def measure(ops: int, repeats: int) -> dict:
    def stream_open(rep):
        base = SeededStream(SEED, (rep + 1) * SECTION)
        for t in range(ops):
            base.offset(t).generator()

    g = SeededStream(SEED).generator()  # opened before timing, so lazy imports are not timed

    def draw_gaussian(rep):
        for _ in range(ops):
            _gaussian(N, g)

    mats = g.standard_normal((ops, N, N)) + 1j * g.standard_normal((ops, N, N))

    def svd_looped(rep):
        for m in mats:
            svd(m)

    def svd_stacked(rep):
        svd(mats)

    def checker_section(check):
        def loop(rep):
            check(N, SECTION_TRIALS, SeededStream(SEED, (rep + 1) * SECTION))

        return loop

    thetas = g.standard_normal((SEARCH_RESTARTS, 2 * SEARCH_N**2))
    _, _, _, sa, sd = _worst_margins(_unpack_pair(thetas, SEARCH_N), 2)
    owner = np.repeat(np.arange(SEARCH_RESTARTS), SEARCH_BATCH)
    candidates = thetas[owner]
    moved = g.integers(thetas.shape[1], size=len(owner))
    candidates[np.arange(len(owner)), moved] += 0.5 * g.standard_normal(len(owner))
    moved_b = moved >= SEARCH_N**2
    rounds = max(1, ops // len(owner))

    def search_round(rep):
        for _ in range(rounds):
            _worst_margins(_unpack_pair(candidates, SEARCH_N), 2, None, moved_b,
                           sa[owner], sd[owner])

    def search_q2(rep):
        search_counterexample(2, SEARCH_N, budget=SEARCH_BUDGET, restarts=SEARCH_RESTARTS,
                              s=SeededStream(SEED))

    def search_all(rep):
        cfg = parse_arguments([*SETUP_ARGV["setup_search"], "--seed", str(SEED + rep)])
        with contextlib.redirect_stdout(io.StringIO()):
            execute(cfg)

    sweep = list(itertools.product(FAMILIES.values(), SWEEP_NS))

    def checker_sweep(rep):
        for section, (family, n) in enumerate(sweep, start=rep * len(sweep)):
            _check_section(family, n, SWEEP_TRIALS, SeededStream(SEED, (section + 1) * SECTION),
                           INEQUALITY_TOL, None)

    def check_all(trials, n=None):
        def loop(rep):
            cfg = RunConfig("check", inequality_id="all", n=n, trials=trials, seed=SEED + rep)
            with contextlib.redirect_stdout(io.StringIO()):
                execute(cfg)

        return loop

    def extremal(rep):
        for section, target in enumerate(EXTREMAL_TARGETS, start=rep * len(EXTREMAL_TARGETS)):
            base = SeededStream(SEED, (section + 1) * SECTION)
            _extremal_gaps(target, EXTREMAL_N, EXTREMAL_TRIALS, base, EXTREMAL_SAMPLES)

    def extremal_all(rep):
        cfg = parse_arguments(["extremal", "--target", "all", "--n", str(EXTREMAL_N),
                               "--samples", str(EXTREMAL_SAMPLES),
                               "--trials", str(EXTREMAL_TRIALS), "--seed", str(SEED + rep)])
        with contextlib.redirect_stdout(io.StringIO()):
            execute(cfg)

    kyfan_root = str(Path(kyfan.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (kyfan_root, os.environ.get("PYTHONPATH"))))}

    def setup(argv):
        def loop(rep):
            for _ in range(SETUP_LAUNCHES):
                subprocess.run([sys.executable, "-c", _SETUP, *argv], env=env, check=True)

        return loop

    layers = {
        "stream_open": (stream_open, ops),
        "draw_gaussian_5": (draw_gaussian, ops),
        "svd_5_looped": (svd_looped, ops),
        "svd_5_stacked": (svd_stacked, ops),
        "checker_trial_ahj_5": (checker_section(check_ahj), SECTION_TRIALS),
        "checker_trial_lemma32_5": (checker_section(check_lemma32), SECTION_TRIALS),
        "search_stack_3": (search_round, rounds),
        "search_q2_3000": (search_q2, SEARCH_BUDGET),
        "search_all_3000": (search_all, SEARCH_BUDGET),
        "checker_sweep_50": (checker_sweep, len(sweep) * SWEEP_TRIALS),
        "extremal_2000": (extremal, len(EXTREMAL_TARGETS) * EXTREMAL_TRIALS),
        "extremal_all_2000": (extremal_all, len(EXTREMAL_TARGETS) * EXTREMAL_TRIALS),
        "check_all_50": (check_all(50), len(sweep) * 50),
        "check_all_1000": (check_all(1000), len(sweep) * 1000),
        "check_all_n64_20": (check_all(LARGE_TRIALS, LARGE_N), len(FAMILIES) * LARGE_TRIALS),
        **{name: (setup(argv), SETUP_LAUNCHES) for name, argv in SETUP_ARGV.items()},
    }
    rows = {name: _per_op_us(loop, count, repeats) for name, (loop, count) in layers.items()}
    for name in ("search_q2_3000", "search_all_3000"):
        search = rows[name]
        search["evaluations_per_s"] = 1e6 / search["median_us"]
        search["evaluations_per_s_scaled"] = 1e6 / search["median_us_scaled"]
    for name in ("checker_sweep_50", "extremal_2000", "extremal_all_2000", "check_all_50",
                 "check_all_1000", "check_all_n64_20"):
        row = rows[name]
        row["trials_per_s"] = 1e6 / row["median_us"]
        row["trials_per_s_scaled"] = 1e6 / row["median_us_scaled"]
    return rows


def machine() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_numeric_stack(),  # the BLAS and LAPACK records of a report's environment
        "blas_kernel": _blas_kernel(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--ops", type=int, default=2048, help="operations per timed loop")
    parser.add_argument("--repeats", type=int, default=9, help="timed loops per layer")
    parser.add_argument("--out-dir", default=".", help="directory of the output file")
    args = parser.parse_args(argv)
    if args.ops < 1 or args.repeats < 2:
        parser.error("--ops must be at least 1 and --repeats at least 2")
    calibrate()  # warms numpy.random's lazy import and the LAPACK paths
    before = calibration_median()
    rows = measure(args.ops, args.repeats)
    after = calibration_median()
    speed_factor = CAL_REF_S / ((before + after) / 2)
    doc = {
        "label": args.label,
        "generator_id": GENERATOR_ID,
        "ops": args.ops,
        "machine": machine(),
        "calibration": {"reference_s": CAL_REF_S, "before_s": before, "after_s": after,
                        "speed_factor": speed_factor},
        "layers": rows,
    }
    path = Path(args.out_dir) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"calibration {before * 1e3:.1f} ms before, {after * 1e3:.1f} ms after: "
          f"speed factor {speed_factor:.3f}")
    for name, row in rows.items():
        print(f"{name:24s} {row['median_us']:9.2f} us/op  "
              f"(q1 {row['q1_us']:.2f}, q3 {row['q3_us']:.2f}; "
              f"scaled {row['median_us_scaled']:.2f})")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
