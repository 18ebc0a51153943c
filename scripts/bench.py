#!/usr/bin/env python3
"""Per-layer micro-benchmarks of one kyfan trial, written to ``BENCH_<label>.json``.

    PYTHONPATH=src python3 scripts/bench.py --label baseline [--ops 2048] [--repeats 9]

Each layer is timed as a loop of ``--ops`` operations (for the checker
layers, one section of 1024 trials), ``--repeats`` times; the file records
the median and quartiles of the time per operation, in microseconds, over
the repeats:

- ``stream_open``: ``base.offset(t).generator()`` for t = 0, 1, ..., the way
  a trial loop opens its streams.  Every repeat starts from a fresh section
  base (a multiple of 2**24, as the CLI spaces its sections), so no cached
  state from an earlier repeat is reused.
- ``stream_open_reference``: numpy's own open of the same streams,
  ``Generator(PCG64(SeedSequence(seed, spawn_key=(index,))))``.
- ``draw_gaussian_5``: one 5 x 5 complex Gaussian RNG step (the (2, 5, 5)
  normals a Ginibre sample is made from) on an open generator.
- ``svd_5_looped``: ``kyfan.matrixcore.svd`` of one 5 x 5 complex matrix.
- ``svd_5_stacked``: one ``svd`` call on a stack of ``--ops`` such matrices,
  per matrix.
- ``checker_trial_ahj_5`` and ``checker_trial_lemma32_5``: one section of
  1024 trials at n = 5 through ``check_ahj`` (given factors) and
  ``check_lemma32``, per trial: opening the streams, drawing, building,
  scoring and aggregation.  Every repeat starts from a fresh section base.

The file also records the machine: ``os.cpu_count()``, the Python and numpy
versions and the BLAS/LAPACK build from ``np.show_config(mode="dicts")``.
Only the standard library and numpy are used besides kyfan itself.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from kyfan.ensembles import GENERATOR_ID, SeededStream, _gaussian
from kyfan.matrixcore import svd
from kyfan.suite import check_ahj, check_lemma32

SEED = 271828
SECTION = 2**24
N = 5
SECTION_TRIALS = 1024


def _per_op_us(loop, ops: int, repeats: int) -> dict:
    """Median and quartiles of the per-operation time of ``loop(rep)`` in µs."""
    samples = []
    for rep in range(repeats):
        start = time.perf_counter()
        loop(rep)
        samples.append((time.perf_counter() - start) / ops * 1e6)
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_us": median, "q1_us": q1, "q3_us": q3, "repeats": repeats}


def measure(ops: int, repeats: int) -> dict:
    def stream_open(rep):
        base = SeededStream(SEED, (rep + 1) * SECTION)
        for t in range(ops):
            base.offset(t).generator()

    def stream_open_reference(rep):
        from numpy.random import PCG64, Generator, SeedSequence

        base = (rep + 1) * SECTION
        for t in range(ops):
            Generator(PCG64(SeedSequence(SEED, spawn_key=(base + t,))))

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

    layers = {
        "stream_open": (stream_open, ops),
        "stream_open_reference": (stream_open_reference, ops),
        "draw_gaussian_5": (draw_gaussian, ops),
        "svd_5_looped": (svd_looped, ops),
        "svd_5_stacked": (svd_stacked, ops),
        "checker_trial_ahj_5": (checker_section(check_ahj), SECTION_TRIALS),
        "checker_trial_lemma32_5": (checker_section(check_lemma32), SECTION_TRIALS),
    }
    return {name: _per_op_us(loop, count, repeats) for name, (loop, count) in layers.items()}


def machine() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    keep = ("name", "version", "openblas configuration")
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **{lib: {key: deps.get(lib, {}).get(key) for key in keep} for lib in ("blas", "lapack")},
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
    doc = {
        "label": args.label,
        "generator_id": GENERATOR_ID,
        "ops": args.ops,
        "machine": machine(),
        "layers": measure(args.ops, args.repeats),
    }
    path = Path(args.out_dir) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for name, row in doc["layers"].items():
        print(f"{name:24s} {row['median_us']:9.2f} us/op  "
              f"(q1 {row['q1_us']:.2f}, q3 {row['q3_us']:.2f})")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
