#!/usr/bin/env python3
"""Hunt for counterexamples to the two open partial-trace norm questions.

Runs the multi-restart greedy search across a grid of dimensions and both
parameterizations (general Hermitian pairs, and commuting pairs as a control
that is proven safe), prints a margin table, and saves any witness pair to
matrix files for later inspection.  The master seed resolves as ``kyfan``
resolves it: ``--seed``, then the ``KYFAN_SEED`` environment variable, then
kyfan's default.  Exit status 2 signals that a candidate failing the
tolerance rule (``kyfan.norms.inequality_holds``) was found; 0 means none
within budget, and 1 a usage error.

Usage:
    python scripts/search_open_questions.py --budget 20000 --seed 7
        [--question 1|2|both] [--dims 2,3,4] [--out-dir found/]
"""

import argparse
import os
import sys

from kyfan.cli import STREAM_STRIDE, _UsageParser, _nonnegative_int, _resolve_seed
from kyfan.ensembles import SeededStream
from kyfan.fileformat import write_matrix
from kyfan.ptrace import question_margin, search_counterexample


def cell_stream(seed: int, cell: int) -> SeededStream:
    """Base stream of grid cell ``cell``.  Restart r of the cell uses index
    base + r, so cells sit ``STREAM_STRIDE`` apart and never share a stream."""
    return SeededStream(seed, cell * STREAM_STRIDE)


def _parse_dims(text: str) -> tuple:
    dims = tuple(int(part) for part in text.split(","))
    if not dims or any(d < 2 for d in dims):
        raise argparse.ArgumentTypeError("dimensions must be integers >= 2")
    return dims


def main() -> int:
    parser = _UsageParser(description=__doc__.splitlines()[0])
    parser.add_argument("--question", choices=("1", "2", "both"), default="both")
    parser.add_argument("--dims", type=_parse_dims, default=(2, 3, 4),
                        help="comma-separated matrix sizes (default 2,3,4)")
    parser.add_argument("--budget", type=int, default=20000,
                        help="margin evaluations per (question, n, strategy) cell")
    parser.add_argument("--restarts", type=int, default=8)
    parser.add_argument("--seed", type=_nonnegative_int, default=None,
                        help="master seed (default: KYFAN_SEED, else kyfan's default)")
    parser.add_argument("--out-dir", default="found",
                        help="where witness matrices are written if a candidate appears")
    args = parser.parse_args()
    seed, _ = _resolve_seed(parser, args.seed)
    if not 1 <= args.restarts < STREAM_STRIDE:
        parser.error(f"--restarts must be between 1 and {STREAM_STRIDE - 1}")
    if args.budget < args.restarts:
        # a restart with no budget scores nothing, and a negative one is no budget
        parser.error(f"--budget must be at least --restarts ({args.restarts}), "
                     f"got {args.budget}")

    questions = (1, 2) if args.question == "both" else (int(args.question),)
    strategies = ("general", "commuting")

    print(f"{'question':>8}  {'n':>3}  {'strategy':>9}  {'evaluations':>11}  "
          f"{'best margin':>13}  witness")
    found_any = False
    cell = 0
    for question in questions:
        for n in args.dims:
            for strategy in strategies:
                result = search_counterexample(
                    question, n,
                    budget=args.budget, restarts=args.restarts,
                    s=cell_stream(seed, cell), strategy=strategy,
                )
                cell += 1
                found = result.witness is not None
                print(f"{question:>8}  {n:>3}  {strategy:>9}  {result.evaluations:>11}  "
                      f"{result.best_margin:>13.6e}  {'YES' if found else 'no'}")
                if found:
                    found_any = True
                    os.makedirs(args.out_dir, exist_ok=True)
                    stem = os.path.join(args.out_dir, f"q{question}-n{n}-{strategy}")
                    write_matrix(stem + "-A.json", result.witness.A)
                    write_matrix(stem + "-B.json", result.witness.B)
                    print(f"          margin re-check: {question_margin(result.witness):.6e}; "
                          f"pair saved to {stem}-A.json / {stem}-B.json")

    if found_any:
        print("\ncandidate(s) found -- verify independently before celebrating")
        return 2
    print("\nno counterexample found within budget (this proves nothing)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
