#!/usr/bin/env python3
"""Run every verification section end to end and write one report per section.

Sections: the nine-inequality randomized sweep, the extreme-point support
checks, the exact 3x3 violation reproduction (which exits 2 by design --
that is the expected outcome, so this script counts it as a pass), and the
partial-trace lab for both open questions.

Usage:
    python scripts/run_full_suite.py --out-dir reports/ [--seed N]
        [--trials N] [--quick]
"""

import os
import sys
import time

from kyfan.cli import _UsageParser, _nonnegative_int, _stream_count
from kyfan.cli import main as kyfan_main


def _section(name: str, argv: list, expected_status: int) -> bool:
    t0 = time.perf_counter()
    status = kyfan_main(argv)
    elapsed = time.perf_counter() - t0
    ok = status == expected_status
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict}  {name:22s} exit={status} (expected {expected_status})  {elapsed:.1f}s")
    return ok


def main() -> int:
    parser = _UsageParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="reports",
                        help="directory for per-section report files (default: reports/)")
    parser.add_argument("--seed", type=_nonnegative_int, default=None,
                        help="master seed forwarded to every section")
    parser.add_argument("--trials", type=_stream_count, default=2000,
                        help="trials per checker/section (default 2000)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny run: 100 trials, n=3 only, small budgets")
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    trials = 100 if args.quick else args.trials
    budget = 500 if args.quick else 5000
    seed_argv = [] if args.seed is None else ["--seed", str(args.seed)]

    def out(name):
        return os.path.join(args.out_dir, f"{name}.json")

    sections = [
        (
            "check-all",
            ["check", "--ineq", "all", "--trials", str(trials),
             "--out", out("check-all")]
            + (["--n", "3"] if args.quick else [])
            + seed_argv,
            0,
        ),
        (
            "extremal-all",
            ["extremal", "--target", "all", "--trials", str(trials),
             "--out", out("extremal-all")] + seed_argv,
            0,
        ),
        (
            # deterministic: takes no seed
            "repro-violation",
            ["repro", "fan-counterexample", "--out", out("repro")],
            2,  # the construction violates the bound; exit 2 is the point
        ),
        (
            "ptrace-q1",
            ["ptrace", "--question", "1", "--n", "3", "--trials", str(trials),
             "--budget", str(budget), "--out", out("ptrace-q1")] + seed_argv,
            0,
        ),
        (
            "ptrace-q2",
            ["ptrace", "--question", "2", "--n", "3", "--trials", str(trials),
             "--budget", str(budget), "--out", out("ptrace-q2")] + seed_argv,
            0,
        ),
    ]

    results = [_section(name, argv, expected) for name, argv, expected in sections]
    passed = sum(results)
    print(f"\n{passed}/{len(results)} sections passed; reports in {args.out_dir}/")
    return 0 if passed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
