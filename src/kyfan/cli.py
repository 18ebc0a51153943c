"""Command-line frontend: seeded suites, searches, and the exact reproduction.

Commands
--------
check     randomized inequality suites (``--ineq all`` sweeps every theorem
          checker over n = 2..8)
extremal  support-function validation of the norm-ball candidate families
          plus the rank-one trace-equality construction
repro     exact reproduction of the 3x3 contraction-norm violation
          (exits 2 by design: a violation is found)
ptrace    partial-trace lab: closed-form cross-check, commuting regression,
          and a bounded counterexample search
search    dedicated multi-restart counterexample search for either open
          question

Exit status: 0 = run completed with zero violations, 2 = violations found,
1 = error.  The default master seed can be overridden by the ``KYFAN_SEED``
environment variable or the ``--seed`` flag; the effective seed and its
source are echoed into every report.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .ensembles import (
    SeededStream,
    commuting_hermitian_pair,
    ginibre,
    matrix_ball_support_gap,
    random_hermitian,
    random_weight,
    support_function_gap,
)
from .fileformat import dump_document, matrix_to_document, write_text
from .forms import fan_form, hadamard_form
from .matrixcore import kronecker, partial_trace_first, singular_values
from .norms import INEQUALITY_TOL, RESIDUAL_TOL
from .ptrace import (
    lhs_operator,
    lhs_operator_brute,
    search_counterexample,
    worst_question_margin,
)
from .reports import (
    check_report_document,
    render_table,
    run_document,
    witness_document,
)
from .suite import (
    check_ahj,
    check_fan_sigma1,
    check_hadamard_family,
    check_hmn,
    check_lemma31,
    check_lemma32,
    check_product_family,
    check_von_neumann,
    reproduce_fan_counterexample,
    von_neumann_equality_witness,
)

__all__ = ["RunConfig", "parse_arguments", "execute", "main"]

DEFAULT_SEED = 271828
SEED_ENV_VAR = "KYFAN_SEED"
#: stream spacing between run sections so (section, trial) pairs never collide
STREAM_STRIDE = 2**24
DEFAULT_NS = (2, 3, 4, 5, 6, 7, 8)

INEQUALITY_HELP = {
    "von-neumann": "|tr(AB)| <= sum_i s_i(A) s_i(B)",
    "product-family": "sum_{i<=k} s_i(AB) <= sum_{i<=k} s_i(A) s_i(B), every k",
    "hadamard-family": "sum_{i<=k} s_i(A o B) <= sum_{i<=k} s_i(A) s_i(B), every k",
    "ahj": "sum_{i<=k} s_i(X*Y o B) <= sum_{i<=k} c_i(X) c_i(Y) s_i(B); runs both factor modes",
    "lemma31": "s_1((X*Y) o S) <= 1 for subunit-column X, Y and a contraction S",
    "lemma32": "trace norm of (X*Y) o (u v*) <= 1 for unit-column X, Y and unit u, v",
    "hmn-hadamard": "s_1-ratio probe plus the k-family for the all-ones mask",
    "hmn-fan": "s_1-ratio probe plus the k-family for the diagonal-negated mask",
    "fan-sigma1": "s_1 of the diagonal-negated product <= s_1(A) s_1(B), also with A transposed",
}
INEQUALITY_IDS = tuple(INEQUALITY_HELP)


@dataclass(frozen=True)
class RunConfig:
    command: str
    inequality_id: str | None = None
    target: str | None = None
    question: int | None = None
    n: int | None = None
    k_spec: object = "all"
    trials: int = 10000
    samples: int = 2
    budget: int = 0
    restarts: int = 4
    strategy: str = "general"
    seed: int = DEFAULT_SEED
    seed_source: str = "default"
    tolerance: float = INEQUALITY_TOL
    output_path: str | None = None
    format: str = "structured-text"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")
    return value


def _trial_count(text: str) -> int:
    """Trials per run section: fewer than ``STREAM_STRIDE``, so that section
    s's trial streams never run into section s+1's."""
    value = _nonnegative_int(text)
    if value >= STREAM_STRIDE:
        raise argparse.ArgumentTypeError(
            f"at most {STREAM_STRIDE - 1} trials per section, got {text}"
        )
    return value


def _all_or_positive_int(text: str):
    if text == "all":
        return "all"
    return _positive_int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kyfan",
        description="Seeded numerical checks for singular-value inequalities.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    id_lines = "\n".join(f"  {name}: {text}" for name, text in INEQUALITY_HELP.items())
    check = sub.add_parser(
        "check",
        help="run a randomized inequality suite",
        description="Inequality ids:\n" + id_lines,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    check.add_argument("--ineq", required=True, choices=INEQUALITY_IDS + ("all",),
                       help="inequality id, or 'all' for the full theorem sweep")
    check.add_argument("--n", type=_all_or_positive_int, default="all",
                       help="matrix dimension, or 'all' for n = 2..8 (default)")
    check.add_argument("--k", dest="k_spec", type=_all_or_positive_int, default="all",
                       help="restrict family checkers to one k (default: all k)")
    check.add_argument("--trials", type=_trial_count, default=10000)
    check.add_argument("--seed", type=_nonnegative_int, default=None)
    check.add_argument("--tolerance", type=float, default=INEQUALITY_TOL)
    check.add_argument("--out", dest="output_path", default=None)
    check.add_argument("--format", choices=("structured-text", "table"),
                       default="structured-text")

    extremal = sub.add_parser(
        "extremal",
        help="support-function and trace-equality validation",
        description=(
            "Targets: vector (sign-vector candidates vs the dual-norm closed form), "
            "matrix (scaled partial isometries vs the dual form on the spectrum), "
            "equality (rank-one construction attaining the trace bound)."
        ),
    )
    extremal.add_argument("--target", choices=("vector", "matrix", "equality", "all"),
                          default="all")
    extremal.add_argument("--trials", type=_trial_count, default=1000)
    extremal.add_argument("--n", type=_positive_int, default=8,
                          help="maximum dimension sampled (default 8)")
    extremal.add_argument("--samples", type=_nonnegative_int, default=2,
                          help="random candidates cross-checked per matrix trial")
    extremal.add_argument("--seed", type=_nonnegative_int, default=None)
    extremal.add_argument("--out", dest="output_path", default=None)
    extremal.add_argument("--format", choices=("structured-text", "table"),
                          default="structured-text")

    repro = sub.add_parser(
        "repro",
        help="reproduce the exact 3x3 contraction-norm violation (exits 2)",
    )
    repro.add_argument("target", choices=("fan-counterexample",))
    repro.add_argument("--tolerance", type=float, default=INEQUALITY_TOL)
    repro.add_argument("--out", dest="output_path", default=None)
    repro.add_argument("--format", choices=("structured-text", "table"),
                       default="structured-text")

    ptrace = sub.add_parser(
        "ptrace",
        help="partial-trace lab: identities, commuting regression, bounded search",
    )
    ptrace.add_argument("--question", type=int, choices=(1, 2), required=True)
    ptrace.add_argument("--n", type=_positive_int, default=3)
    ptrace.add_argument("--k", dest="k_spec", type=_all_or_positive_int, default="all")
    ptrace.add_argument("--trials", type=_trial_count, default=200,
                        help="commuting pairs in the regression (default 200)")
    ptrace.add_argument("--budget", type=_nonnegative_int, default=0,
                        help="margin evaluations for the bounded search (default 0)")
    ptrace.add_argument("--restarts", type=_positive_int, default=4)
    ptrace.add_argument("--strategy", choices=("general", "commuting"), default="general")
    ptrace.add_argument("--seed", type=_nonnegative_int, default=None)
    ptrace.add_argument("--tolerance", type=float, default=INEQUALITY_TOL)
    ptrace.add_argument("--out", dest="output_path", default=None)
    ptrace.add_argument("--format", choices=("structured-text", "table"),
                        default="structured-text")

    search = sub.add_parser(
        "search",
        help="multi-restart counterexample search for one open question",
    )
    search.add_argument("--question", type=int, choices=(1, 2), required=True)
    search.add_argument("--n", type=_positive_int, default=3)
    search.add_argument("--k", dest="k_spec", type=_all_or_positive_int, default="all")
    search.add_argument("--budget", type=_nonnegative_int, default=20000)
    search.add_argument("--restarts", type=_positive_int, default=8)
    search.add_argument("--strategy", choices=("general", "commuting"), default="general")
    search.add_argument("--seed", type=_nonnegative_int, default=None)
    search.add_argument("--tolerance", type=float, default=INEQUALITY_TOL)
    search.add_argument("--out", dest="output_path", default=None)
    search.add_argument("--format", choices=("structured-text", "table"),
                        default="structured-text")

    return parser


def _resolve_seed(parser: argparse.ArgumentParser, flag_value) -> tuple[int, str]:
    if flag_value is not None:
        return int(flag_value), "flag"
    env_value = os.environ.get(SEED_ENV_VAR)
    if env_value is not None:
        try:
            seed = int(env_value)
        except ValueError:
            parser.error(f"{SEED_ENV_VAR} must be an integer, got {env_value!r}")
        if seed < 0:
            parser.error(f"{SEED_ENV_VAR} must be nonnegative, got {seed}")
        return seed, "env"
    return DEFAULT_SEED, "default"


def parse_arguments(argv) -> RunConfig:
    parser = _build_parser()
    args = parser.parse_args(list(argv))
    seed, seed_source = _resolve_seed(parser, getattr(args, "seed", None))
    common = dict(seed=seed, seed_source=seed_source)
    if args.command == "check":
        n = None if args.n == "all" else int(args.n)
        return RunConfig(
            command="check", inequality_id=args.ineq, n=n, k_spec=args.k_spec,
            trials=args.trials, tolerance=args.tolerance,
            output_path=args.output_path, format=args.format, **common,
        )
    if args.command == "extremal":
        return RunConfig(
            command="extremal", target=args.target, n=args.n, trials=args.trials,
            samples=args.samples, output_path=args.output_path, format=args.format,
            tolerance=RESIDUAL_TOL, **common,
        )
    if args.command == "repro":
        return RunConfig(
            command="repro", target=args.target, tolerance=args.tolerance,
            output_path=args.output_path, format=args.format, **common,
        )
    if args.command == "ptrace":
        return RunConfig(
            command="ptrace", question=args.question, n=args.n, k_spec=args.k_spec,
            trials=args.trials, budget=args.budget, restarts=args.restarts,
            strategy=args.strategy, tolerance=args.tolerance,
            output_path=args.output_path, format=args.format, **common,
        )
    if args.command == "search":
        return RunConfig(
            command="search", question=args.question, n=args.n, k_spec=args.k_spec,
            budget=args.budget, restarts=args.restarts, strategy=args.strategy,
            tolerance=args.tolerance, output_path=args.output_path,
            format=args.format, **common,
        )
    parser.error(f"unknown command {args.command!r}")


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _checker_runs(inequality_id: str):
    def lemma31_hadamard(n, trials, s, tolerance, k_values):
        return check_lemma31(hadamard_form(n), n, trials, s,
                             tolerance=tolerance, k_values=k_values)

    def hmn_hadamard(n, trials, s, tolerance, k_values):
        return check_hmn(hadamard_form(n), n, trials, s,
                         tolerance=tolerance, k_values=k_values)

    def hmn_fan(n, trials, s, tolerance, k_values):
        return check_hmn(fan_form(n), n, trials, s,
                         tolerance=tolerance, k_values=k_values)

    def ahj(mode):
        def run(n, trials, s, tolerance, k_values):
            return check_ahj(n, trials, s, mode, tolerance=tolerance, k_values=k_values)

        return run

    def plain(fn):
        def run(n, trials, s, tolerance, k_values):
            return fn(n, trials, s, tolerance=tolerance, k_values=k_values)

        return run

    table = {
        "von-neumann": [("von-neumann", plain(check_von_neumann))],
        "product-family": [("product-family", plain(check_product_family))],
        "hadamard-family": [("hadamard-family", plain(check_hadamard_family))],
        "ahj": [("ahj-given", ahj("given")), ("ahj-sqrt", ahj("sqrt"))],
        "lemma31": [("lemma31", lemma31_hadamard)],
        "lemma32": [("lemma32", plain(check_lemma32))],
        "hmn-hadamard": [("hmn-hadamard", hmn_hadamard)],
        "hmn-fan": [("hmn-fan", hmn_fan)],
        "fan-sigma1": [("fan-sigma1", plain(check_fan_sigma1))],
    }
    if inequality_id == "all":
        runs = []
        for name in INEQUALITY_IDS:
            runs.extend(table[name])
        return runs
    return table[inequality_id]


def _execute_check(cfg: RunConfig):
    runs = _checker_runs(cfg.inequality_id)
    ns = DEFAULT_NS if cfg.n is None else (cfg.n,)
    k_values = None if cfg.k_spec == "all" else (int(cfg.k_spec),)
    results = []
    total_violations = 0
    section = 0
    for _, fn in runs:
        for n in ns:
            stream = SeededStream(cfg.seed, section * STREAM_STRIDE)
            report = fn(n, cfg.trials, stream, cfg.tolerance, k_values)
            results.append(
                check_report_document(report, include_witness=report.violations > 0)
            )
            total_violations += report.violations
            section += 1
    status = 0 if total_violations == 0 else 2
    return status, results, total_violations, []


def _execute_extremal(cfg: RunConfig):
    targets = ("vector", "matrix", "equality") if cfg.target == "all" else (cfg.target,)
    n_max = cfg.n or 8
    results = []
    total_violations = 0
    for target in targets:
        section = ("vector", "matrix", "equality").index(target)
        base = SeededStream(cfg.seed, section * STREAM_STRIDE)
        worst = 0.0
        violations = 0
        for t in range(cfg.trials):
            g = base.offset(t).generator()
            n = int(g.integers(2, n_max + 1))
            if target == "vector":
                w = random_weight(n, int(g.integers(1, n + 1)), g)
                gap = support_function_gap(g.standard_normal(n), w)
            elif target == "matrix":
                w = random_weight(n, int(g.integers(1, n + 1)), g)
                gap = matrix_ball_support_gap(ginibre(n, g), w, cfg.samples, g)
            else:
                b = ginibre(n, g)
                a = von_neumann_equality_witness(b)
                gap = abs(abs(np.trace(a @ b)) - singular_values(b)[0])
            worst = max(worst, gap)
            if gap > cfg.tolerance:
                violations += 1
        results.append(
            {
                "target": f"{target}-support" if target != "equality" else "trace-equality",
                "trials": cfg.trials,
                "max_dimension": n_max,
                "worst_gap": worst,
                "tolerance": cfg.tolerance,
                "violations": violations,
            }
        )
        total_violations += violations
    status = 0 if total_violations == 0 else 2
    return status, results, total_violations, []


def _execute_repro(cfg: RunConfig):
    witness = reproduce_fan_counterexample()
    product = witness.matrices["product"]
    spectrum = singular_values(product)
    s_mat = witness.matrices["S"]
    unitary_residual = float(np.linalg.norm(s_mat.conj().T @ s_mat - np.eye(3)))
    violated = witness.margin > cfg.tolerance
    result = {
        "target": "fan-counterexample",
        "k": witness.k,
        "margin": witness.margin,
        "top_singular_value": float(spectrum[0]),
        "spectrum": [float(v) for v in spectrum],
        "unitary_residual": unitary_residual,
        "violations": 1 if violated else 0,
        "witness": witness_document(witness),
    }
    notes = ["the contraction bound fails on this input, as constructed"]
    return (2 if violated else 0), [result], result["violations"], notes


def _execute_ptrace(cfg: RunConfig):
    n = cfg.n
    k_values = None if cfg.k_spec == "all" else (int(cfg.k_spec),)
    if k_values is not None and k_values[0] > n:
        raise ValueError(f"--k {k_values[0]} exceeds n={n}")
    results = []
    notes = []

    # closed form vs the Kronecker route, plus the basic partial-trace identity
    identity_stream = SeededStream(cfg.seed, 0)
    identity_trials = min(cfg.trials, 50) or 1
    worst_closed = 0.0
    worst_kron = 0.0
    for t in range(identity_trials):
        g = identity_stream.offset(t).generator()
        a = random_hermitian(n, g)
        b = random_hermitian(n, g)
        closed = lhs_operator(a, b, cross_check=False)
        worst_closed = max(
            worst_closed, float(np.linalg.norm(lhs_operator_brute(a, b) - closed))
        )
        worst_kron = max(
            worst_kron,
            float(
                np.linalg.norm(
                    partial_trace_first(kronecker(a, b), n) - np.trace(a) * b
                )
            ),
        )
    if worst_closed > RESIDUAL_TOL * 100 or worst_kron > RESIDUAL_TOL * 100:
        raise ArithmeticError(
            f"partial-trace identities failed: closed-form residual {worst_closed:.3e}, "
            f"kron identity residual {worst_kron:.3e}"
        )
    results.append(
        {
            "target": "identity-cross-check",
            "trials": identity_trials,
            "worst_closed_form_residual": worst_closed,
            "worst_kron_identity_residual": worst_kron,
            "violations": 0,
        }
    )

    # commuting pairs must satisfy both questions
    regression_stream = SeededStream(cfg.seed, STREAM_STRIDE)
    reg_worst = -np.inf
    reg_violations = 0
    for t in range(cfg.trials):
        g = regression_stream.offset(t).generator()
        a, b = commuting_hermitian_pair(n, g)
        m, _ = worst_question_margin(a, b, cfg.question, k_values)
        reg_worst = max(reg_worst, m)
        if m > cfg.tolerance:
            reg_violations += 1
    results.append(
        {
            "target": "commuting-regression",
            "question": cfg.question,
            "trials": cfg.trials,
            "worst_margin": reg_worst,
            "tolerance": cfg.tolerance,
            "violations": reg_violations,
        }
    )

    # bounded search
    search = search_counterexample(
        cfg.question, n, cfg.k_spec if cfg.k_spec == "all" else int(cfg.k_spec),
        cfg.budget, cfg.restarts, SeededStream(cfg.seed, 2 * STREAM_STRIDE),
        strategy=cfg.strategy, tolerance=cfg.tolerance,
    )
    found = search.witness is not None
    search_result = {
        "target": "bounded-search",
        "question": cfg.question,
        "strategy": search.strategy,
        "budget": cfg.budget,
        "evaluations": search.evaluations,
        "best_margin": search.best_margin,
        "violations": 1 if found else 0,
    }
    if found:
        search_result["witness"] = {
            "k": search.witness.k,
            "margin": search.best_margin,
            "matrices": {
                "A": matrix_to_document(search.witness.A),
                "B": matrix_to_document(search.witness.B),
            },
        }
        notes.append("counterexample candidate found — inspect the witness")
    else:
        notes.append("no counterexample found within budget")
    results.append(search_result)

    total_violations = reg_violations + (1 if found else 0)
    status = 2 if total_violations else 0
    return status, results, total_violations, notes


def _execute_search(cfg: RunConfig):
    result = search_counterexample(
        cfg.question, cfg.n, cfg.k_spec if cfg.k_spec == "all" else int(cfg.k_spec),
        cfg.budget, cfg.restarts, SeededStream(cfg.seed),
        strategy=cfg.strategy, tolerance=cfg.tolerance,
    )
    found = result.witness is not None
    doc = {
        "target": "counterexample-search",
        "question": cfg.question,
        "n": cfg.n,
        "strategy": result.strategy,
        "budget": cfg.budget,
        "evaluations": result.evaluations,
        "restarts": result.restarts,
        "best_margin": result.best_margin,
        "violations": 1 if found else 0,
    }
    if found:
        doc["witness"] = {
            "k": result.witness.k,
            "margin": result.best_margin,
            "matrices": {
                "A": matrix_to_document(result.witness.A),
                "B": matrix_to_document(result.witness.B),
            },
        }
    notes = [
        "counterexample candidate found — inspect the witness"
        if found
        else "no counterexample found within budget"
    ]
    return (2 if found else 0), [doc], (1 if found else 0), notes


_EXECUTORS = {
    "check": _execute_check,
    "extremal": _execute_extremal,
    "repro": _execute_repro,
    "ptrace": _execute_ptrace,
    "search": _execute_search,
}


def execute(cfg: RunConfig) -> int:
    """Run one configured command, emit its report, return the exit status."""
    t0 = time.perf_counter()
    status, results, total_violations, notes = _EXECUTORS[cfg.command](cfg)
    doc = run_document(
        cfg.command,
        config=dataclasses.asdict(cfg),
        results=results,
        violations_total=total_violations,
        exit_status=status,
        elapsed_seconds=time.perf_counter() - t0,
        notes=notes,
    )
    text = render_table(doc) if cfg.format == "table" else dump_document(doc)
    if cfg.output_path:
        try:
            write_text(cfg.output_path, text)
        except OSError as exc:
            raise OSError(f"failed writing report to {cfg.output_path!r}: {exc}") from exc
        print(f"report written to {cfg.output_path} (exit status {status})")
    else:
        sys.stdout.write(text)
    return status


def main(argv=None) -> int:
    cfg = parse_arguments(sys.argv[1:] if argv is None else argv)
    try:
        return execute(cfg)
    except (ValueError, TypeError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
