"""Run one ``kyfan`` invocation in a fresh interpreter and time it from inside.

    python3 perfbench/child.py --result OUT.json [--spans SPANS.json] -- <kyfan args>

Mirrors ``kyfan.cli.main``: import ``kyfan.cli``, parse the arguments, then
``execute``.  The moment parsing ends is the end of set-up; the ``execute``
call is the post-set-up window that throughput is measured over, report
writing included.  With ``--spans`` the tracer is installed between the two,
so set-up is never traced, and the spans are written after the window.

``setup_end`` is read from ``CLOCK_MONOTONIC``, which every process on the
machine shares, so the parent can subtract its own spawn time from it.

A fixed calibration kernel is timed just before and just after the window,
in the same process, so the parent can rescale the times to a reference
machine speed (see ``CAL_REF_S`` in ``run.py``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

CALIBRATION_REPS = 160


def calibrate() -> float:
    """Seconds taken by a fixed mix of small numpy, LAPACK and interpreter work.

    The mix resembles kyfan's trial loops (open a generator, draw, QR, SVD,
    Python bookkeeping) but calls no kyfan code, so a change to kyfan never
    changes it.
    """
    import numpy as np

    a = np.arange(64.0).reshape(8, 8) / 7.0 + 1j * np.eye(8)
    start = time.perf_counter()
    acc = 0.0
    for i in range(CALIBRATION_REPS):
        g = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7, spawn_key=(i,))))
        z = g.standard_normal((6, 6)) + 1j * g.standard_normal((6, 6))
        q, _ = np.linalg.qr(z)
        acc += float(np.cumsum(np.linalg.svd(q @ z, compute_uv=False))[-1])
        for _ in range(4):
            acc += float(np.linalg.svd(a, compute_uv=False)[0])
            scratch = {}
            for j in range(40):
                scratch[j] = j * acc
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("kyfan_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    kyfan_args = args.kyfan_args[1:] if args.kyfan_args[:1] == ["--"] else args.kyfan_args

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from kyfan import cli, ensembles

    cfg = cli.parse_arguments(kyfan_args)
    setup_end = time.clock_gettime(time.CLOCK_MONOTONIC)

    calibration_before = calibrate()
    tracer = None
    if args.spans:
        from tracer import Tracer, coverage_residual, summarize, write_spans

        tracer = Tracer()
        tracer.install()

    start = time.perf_counter()
    status = cli.execute(cfg)
    end = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
    calibration_after = calibrate()

    cache = ensembles._sign_matrix.cache_info()
    result = {
        "status": status,
        "setup_end": setup_end,
        "wall_s": end - start,
        "calibration_s": [calibration_before, calibration_after],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sign_cache": {"hits": cache.hits, "misses": cache.misses},
    }
    if tracer is not None:
        summary = summarize(tracer.spans)
        result["layers"] = summary
        result["span_count"] = len(tracer.spans)
        result["coverage_residual"] = coverage_residual(summary, end - start)
        write_spans(args.spans, tracer.spans, start)
    Path(args.result).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
