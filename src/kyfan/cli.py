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
1 = error, usage errors included (``--k`` above ``--n``, an ``extremal
--n`` past what the vector target can enumerate, or an ``--out`` that names
a directory or a file in no existing directory).  A usage error found after
argparse has parsed the line prints the parsed subcommand's usage, as
argparse's own errors do.  The default master seed
can be overridden by the ``KYFAN_SEED`` environment variable or the
``--seed`` flag; the effective seed and its source are echoed into every report.

Set-up
------
:func:`parse_arguments` imports the one engine module the chosen command
runs, as ``_COMMANDS`` names it: :mod:`kyfan.suite` (with the
:mod:`kyfan.forms` it imports) for ``check`` and ``repro``,
:mod:`kyfan.extremal` for ``extremal``, :mod:`kyfan.ptrace` for ``ptrace``
and ``search``, and none for ``kyfan --help``.  Every command also loads
:mod:`kyfan.ensembles`, :mod:`kyfan.fileformat` and :mod:`kyfan.reports`,
which this module imports.  The parser fills in the options of the chosen
subcommand only: ``check --ineq`` reads its choices and help from
``suite.FAMILIES``, and ``extremal --target`` its choices from
``extremal.EXTREMAL_TARGETS``, only when that subcommand is parsed, while
``kyfan --help`` lists every subcommand with its help line.  Without a
bytecode cache a module is compiled as it is imported, so a ``check``
compiles no ``ptrace`` (about 7 ms of set-up), a ``search`` no ``suite`` or
``forms`` (about 10 ms), and an ``extremal`` its own engine in their place
(about 8 ms less).
:func:`execute` imports nothing once the command is parsed: it reaches the
engine's functions through the module parsing loaded, so no import falls in
the window of a caller that times ``execute`` alone.  (A ``RunConfig`` built
by hand gets its engine imported by its first ``execute``.)

Split runs
----------
Every command is a list of independent sections: one family at one n for
``check``, one target for ``extremal``, the identity cross-check, the
commuting regression and the bounded search for ``ptrace``, the one search
or reproduction otherwise.  A section is a triple ``(stream_section, parts,
fold)``.  Each part calls an engine that owns its trial loop
(``suite._check_section``, ``extremal._extremal_chunk_gaps``, the
``ptrace`` lab functions, ``ptrace._search_span``) on the section's stream,
and the fold shapes the outcomes, in part order, into the section's report
entry and note.  An ``extremal`` target has one part per chunk of
``extremal.EXTREMAL_CHUNK_BLOCKS`` blocks.  A search section (``search``'s,
and ``ptrace``'s bounded search) has one part per span of its restarts:
min(restarts, usable processes) contiguous spans, so on 2 CPUs restarts
0-3 of 8 run in this process and 4-7 in a child, each span in its own
lockstep, and the fold takes the first strict best in restart order.
Every other section is one part.  :func:`execute` opens section s's
stream, based at index s * 2**24, before any fork, and :func:`_run` deals
the parts of all sections, section after section, round-robin over
min(usable processes, parts) processes: this one plus one ``os.fork``
child per extra CPU (see :func:`_run_sections`; a run in one process takes
the same path, with no child).  Each child sends its outcomes back as one
pickle on a pipe, so the report bytes do not depend on the split.  ``fork``
rather than ``spawn``, because a spawned worker re-imports numpy, which
costs about as much as the whole ``check --trials 50`` sweep.  One helper,
:func:`_process_count`, gives the usable process count for both the
dealing and the spans: 1 off Linux, when other Python threads are alive
(``fork`` copies no thread, so a lock one held would stay locked in the
child), and where no BLAS thread setter is found, else the CPUs this
process may run on.  The run also stays in one process when there is one
part or the BLAS is not pinned to one thread, and a search on one CPU is
one span, scored as :func:`ptrace.search_counterexample` scores it.

One BLAS thread
---------------
:func:`_run` runs every part with the BLAS on one thread, through the
thread-count setter of the OpenBLAS numpy is built on, and gives the caller
back its count on return or raise.  Each process of a split run then has
one core's worth of BLAS work, and the report bytes do not depend on the
machine's default thread count (at n = 96 and 128 they did).  The report's
``environment`` block records the numpy and BLAS builds, the BLAS kernel
that ran and its run-time configuration (a ``DYNAMIC_ARCH`` OpenBLAS picks
its kernel as it loads, and the build's own string names the build host's;
null where not found), the thread count (null where no setter is found:
the BLAS then runs as the caller set it, and every command in one process)
and the process count.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import functools
import importlib
import itertools
import math
import operator
import os
import pickle
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import __version__
from .ensembles import ENUMERATION_BUDGET, SeededStream, _count_sign_vectors
from .fileformat import dump_document, write_text
# perfbench/test_tracer.py checks that the tracer wraps cli's singular_values
from .matrixcore import singular_values  # noqa: F401
from .norms import INEQUALITY_TOL, RESIDUAL_TOL, _violated, residual_vanishes
from .reports import Witness, check_report_document, render_table, run_document, witness_document

__all__ = ["RunConfig", "parse_arguments", "execute", "main"]

DEFAULT_SEED = 271828
SEED_ENV_VAR = "KYFAN_SEED"
#: stream spacing between run sections so (section, trial) pairs never collide
STREAM_STRIDE = 2**24
DEFAULT_NS = (2, 3, 4, 5, 6, 7, 8)


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


class _UsageParser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, as every other error
    does, and not argparse's 2, which means violations found."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


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
    """Trials per run section: at least one, so that a clean report has
    scored something, and fewer than ``STREAM_STRIDE``, so that section s's
    trial streams never run into section s+1's."""
    value = _positive_int(text)
    if value >= STREAM_STRIDE:
        raise argparse.ArgumentTypeError(
            f"at most {STREAM_STRIDE - 1} trials per section, got {text}"
        )
    return value


def _extremal_dimension(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(
            f"the extremal targets sample n from 2 up, so --n must be at least 2, got {text}"
        )
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text}")
    return value


def _all_or_positive_int(text: str):
    return "all" if text == "all" else _positive_int(text)


def _all_or_dimension(text: str):
    """``check --n``: one dimension, or None for n = 2..8."""
    return None if text == "all" else _positive_int(text)


#: the options that several subcommands take, each defined once: flag ->
#: ``add_argument`` keywords.  A subcommand takes them through ``_add_options``
_OPTIONS = {
    "--seed": dict(type=_nonnegative_int, default=None),
    "--out": dict(dest="output_path", default=None),
    "--format": dict(choices=("structured-text", "table"), default="structured-text"),
    "--tolerance": dict(type=_finite_float, default=INEQUALITY_TOL),
    "--k": dict(dest="k_spec", type=_all_or_positive_int, default="all",
                help="score one k only (default: all k)"),
    "--trials": dict(type=_trial_count, help="trials per section (default %(default)s)"),
    "--question": dict(type=int, choices=(1, 2), required=True),
    "--n": dict(type=_positive_int, default=3),
    "--budget": dict(type=_nonnegative_int,
                     help="margin evaluations of the search (default %(default)s; "
                          "ptrace's 0 runs none)"),
    "--restarts": dict(type=_positive_int),
    "--strategy": dict(choices=("general", "commuting"), default="general"),
}
_SEARCH = ("--question", "--n", "--k", "--budget", "--restarts", "--strategy", "--tolerance",
           "--seed", "--out", "--format")


def _add_options(parser, *flags, **defaults) -> None:
    """Give one subcommand's parser ``flags`` of ``_OPTIONS``, and its ``defaults``.

    Each subcommand gets actions of its own: subparsers built from one shared
    parent parser would share its actions, so one subcommand's defaults would
    become another's.
    """
    for flag in flags:
        parser.add_argument(flag, **_OPTIONS[flag])
    parser.set_defaults(**defaults)


def _check_options(parser, suite) -> None:
    parser.description = "Inequality ids:\n" + "\n".join(
        f"  {f.ineq}: {f.help}" for f in suite.FAMILIES.values() if f.help)
    parser.formatter_class = argparse.RawDescriptionHelpFormatter
    parser.add_argument("--ineq", dest="inequality_id", required=True,
                        choices=suite.INEQUALITY_IDS + ("all",),
                        help="inequality id, or 'all' for the full theorem sweep")
    parser.add_argument("--n", type=_all_or_dimension, default=None,
                        help="matrix dimension, or 'all' for n = 2..8 (default)")
    _add_options(parser, "--k", "--trials", "--tolerance", "--seed", "--out", "--format",
                 trials=10000)


def _extremal_options(parser, extremal) -> None:
    parser.description = (
        "Targets: vector (sign-vector candidates vs the dual-norm closed form), "
        "matrix (scaled partial isometries vs the dual form on the spectrum), "
        "equality (rank-one construction attaining the trace bound)."
    )
    parser.add_argument("--target", choices=extremal.EXTREMAL_TARGETS + ("all",), default="all")
    parser.add_argument("--n", type=_extremal_dimension, default=8,
                        help="maximum dimension sampled (default 8)")
    parser.add_argument("--samples", type=_nonnegative_int, default=2,
                        help="random candidates cross-checked per matrix trial")
    _add_options(parser, "--trials", "--seed", "--out", "--format",
                 trials=1000, tolerance=RESIDUAL_TOL)


def _repro_options(parser, engine) -> None:
    parser.add_argument("target", choices=("fan-counterexample",))
    _add_options(parser, "--tolerance", "--out", "--format")


def _ptrace_options(parser, engine) -> None:
    _add_options(parser, "--trials", *_SEARCH, trials=200, budget=0, restarts=4)


def _search_options(parser, engine) -> None:
    _add_options(parser, *_SEARCH, budget=20000, restarts=8)


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``kyfan`` parser: every subcommand with its help line, and only
    ``command``'s with its options, read from its engine (see "Set-up")."""
    parser = _UsageParser(
        prog="kyfan",
        description="Seeded numerical checks for singular-value inequalities.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in _COMMANDS.items():
        subparser = sub.add_parser(name, help=spec.help)
        if name == command:
            spec.options(subparser, _engine(name))
            # parse_arguments' own usage errors print this subcommand's usage
            parser.command_parser = subparser
    return parser


def _engine(command: str):
    """The engine module of ``command``: imported by :func:`parse_arguments`,
    found already loaded by :func:`execute`."""
    return importlib.import_module(f"{__package__}.{_COMMANDS[command].engine}")


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
    argv = list(argv)
    # the options before a command take no value, so the first command name is
    # the one argparse runs; any other word ahead of it is a usage error
    parser = _build_parser(next((arg for arg in argv if arg in _COMMANDS), None))
    args = parser.parse_args(argv)
    error = parser.command_parser.error  # args.command is the one _build_parser filled in
    if args.command == "check" and args.inequality_id == "all" and args.k_spec != "all":
        # each family scores its own k values, so no one k suits them all
        error("--k needs a single --ineq: with --ineq all, every family scores "
              "its own k values")
    if args.command in ("ptrace", "search") and args.k_spec != "all" and args.k_spec > args.n:
        error(f"--k must be at most --n ({args.n}), got {args.k_spec}")
    if args.command == "extremal" and args.target in ("vector", "all"):
        # the vector target enumerates the families E1..En of every n it samples
        bound = next(n for n in itertools.count(1) if max(
            _count_sign_vectors(n + 1, j) for j in range(1, n + 2)) > ENUMERATION_BUDGET)
        if args.n > bound:
            error(f"--n must be at most {bound} for --target {args.target}, got {args.n}")
    if args.command in ("ptrace", "search") and args.budget < args.restarts:
        # a restart with no budget scores nothing; ptrace's --budget 0 runs no search at all
        if args.command == "search" or args.budget > 0:
            error(f"--budget must be at least --restarts ({args.restarts}), got {args.budget}")
    if args.output_path:
        # write_text makes its temp file in the report's directory: refuse a
        # path it cannot write before the run, not after it
        directory = os.path.dirname(os.path.abspath(args.output_path))
        if os.path.isdir(args.output_path) or not os.path.basename(args.output_path):
            error(f"--out names a directory: {args.output_path}")
        if not os.path.isdir(directory):
            error(f"--out's directory does not exist: {directory}")
    args.seed, args.seed_source = _resolve_seed(parser.command_parser,
                                                getattr(args, "seed", None))
    # every parsed option is a RunConfig field: a flag without one fails here
    return RunConfig(**vars(args))


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


#: the fold of a one-part section: its part's outcome is the section's
_only = operator.itemgetter(0)


def _execute_check(cfg: RunConfig, suite) -> list:
    families = [f for f in suite.FAMILIES.values() if cfg.inequality_id in ("all", f.ineq)]
    ns = DEFAULT_NS if cfg.n is None else (cfg.n,)
    k_values = None if cfg.k_spec == "all" else (int(cfg.k_spec),)
    cells = list(itertools.product(families, ns))
    for family, n in cells:  # refuses a k before any section runs
        suite._scored_columns(family, family.id, n, k_values)

    def run(family, n, stream):
        report = suite._check_section(family, n, cfg.trials, stream, cfg.tolerance, k_values)
        return check_report_document(report, include_witness=report.violations > 0), None

    return [(s, (functools.partial(run, family, n),), _only)
            for s, (family, n) in enumerate(cells)]


def _process_count() -> int:
    """How many processes a run may use: 1 off Linux, while other Python
    threads are alive, or where no BLAS thread setter is found (see the
    module docstring), else the CPUs this process may run on."""
    if sys.platform != "linux" or threading.active_count() > 1 or _blas_thread_calls() is None:
        return 1
    return len(os.sched_getaffinity(0))


def _numeric_stack() -> dict:
    """Name, version and OpenBLAS configuration of the BLAS and LAPACK numpy is built on."""
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy before 1.26 has no mode="dicts"
        deps = {}
    keep = ("name", "version", "openblas configuration")
    return {lib: {key: deps.get(lib, {}).get(key) for key in keep} for lib in ("blas", "lapack")}


@functools.cache
def _openblas_symbol():
    """``symbol(base)``, the ``ctypes`` function ``base`` (``"get_config"``,
    say) of the OpenBLAS numpy is built on, or None where it has none; None
    where no such OpenBLAS is found.

    The symbol names follow the build that ``np.show_config`` names, and end
    as its thread-count setter's do.  They are looked up through the handle
    of numpy's LAPACK extension module, which also searches the libraries it
    links (the wheel's bundled ``scipy-openblas`` among them): about 0.1 ms,
    and no directory listing.
    """
    name = _numeric_stack()["blas"]["name"] or ""
    if "openblas" not in name:
        return None
    prefix = "scipy_openblas" if name.startswith("scipy-openblas") else "openblas"
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    suffix = next((suffix for suffix in ("64_", "")
                   if hasattr(lib, f"{prefix}_set_num_threads{suffix}")), None)
    if suffix is None:
        return None
    return lambda base: getattr(lib, f"{prefix}_{base}{suffix}", None)


@functools.cache
def _blas_thread_calls():
    """The thread-count getter and setter of the OpenBLAS numpy is built on,
    as ``ctypes`` functions, or None where none is found."""
    symbol = _openblas_symbol()
    if symbol is None:
        return None
    get, put = symbol("get_num_threads"), symbol("set_num_threads")
    if get is None or put is None:
        return None
    get.argtypes, get.restype = (), ctypes.c_int
    put.argtypes, put.restype = (ctypes.c_int,), None
    return get, put


@functools.cache
def _blas_kernel() -> dict:
    """The kernel the BLAS runs, which a ``DYNAMIC_ARCH`` OpenBLAS picks as it
    loads (``OPENBLAS_CORETYPE`` overrides the pick), and its run-time
    configuration string, as the OpenBLAS numpy is built on reports them;
    each None where it is not found.  The build's own configuration string
    (see :func:`_numeric_stack`) names the build host's kernel instead."""
    symbol = _openblas_symbol()

    def read(base):
        call = None if symbol is None else symbol(base)
        if call is None:
            return None
        call.argtypes, call.restype = (), ctypes.c_char_p
        value = call()
        return value.decode() if value else None

    return {"name": read("get_corename"), "config": read("get_config")}


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with the BLAS on one thread, then set the caller's count
    back, on return or raise.  Yields the count the block runs with: 1, or
    None where no setter is found and the BLAS runs as the caller set it."""
    calls = _blas_thread_calls()
    if calls is None:
        yield None
        return
    get, put = calls
    caller = get()
    put(1)
    try:
        yield 1
    finally:
        put(caller)


def _run_sections(parts: list, processes: int) -> list:
    """``[part() for part in parts]``, part i run by process i % ``processes``.

    Process 0 is this one; each other is an ``os.fork`` child that runs its
    share, writes the outcome to a pipe as one pickle, and leaves by
    ``os._exit`` (no atexit handler, no stdio flush).  Every process stops at
    the first part of its share that raises.  The error raised here is that
    of the earliest failing part, as a loop in one process would raise; a
    child that ends without a result fails at its first part, with a
    ``ChildProcessError`` naming its share.  Every child is reaped before
    this returns or raises, and killed first if it is still running.
    """
    count = len(parts)
    children = {}  # pid -> (read end of its pipe, its share)
    try:
        for p in range(1, processes):
            share = range(p, count, processes)
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:  # the child exits 0 once its outcome is sent, else 1
                try:
                    os.close(read)
                    with open(write, "wb") as pipe:
                        pipe.write(pickle.dumps(_run_share(parts, share)))
                    os._exit(0)
                finally:
                    os._exit(1)
            children[pid] = (open(read, "rb"), share)
            os.close(write)
        outcomes = [_run_share(parts, range(0, count, processes))]
        for pid, (pipe, share) in list(children.items()):
            data = pipe.read()
            _, wait_status = os.waitpid(pid, 0)
            del children[pid]
            pipe.close()
            code = os.waitstatus_to_exitcode(wait_status)
            if code == 0:
                outcomes.append(pickle.loads(data))
            else:
                died = ChildProcessError(f"the worker process for parts "
                                         f"{', '.join(map(str, share))} ended without a "
                                         f"result (exit code {code})")
                outcomes.append(([], (share[0], died)))
    finally:
        if children:
            import signal  # here: importing it adds about 1 ms to every command's set-up
        for pid, (pipe, _) in children.items():
            pipe.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * count
    for p, (documents, _) in enumerate(outcomes):
        results[p::processes] = documents
    return results


def _run_share(parts, share):
    """The parts of ``share`` in order, up to the first that raises: their
    outcomes, and None or that part and its exception."""
    results = []
    for part in share:
        try:
            results.append(parts[part]())
        except Exception as exc:  # raised by _run_sections, in part order
            return results, (part, exc)
    return results, None


def _execute_extremal(cfg: RunConfig, extremal) -> list:
    n_max = cfg.n or 8

    def chunk(target, c, stream):
        return extremal._extremal_chunk_gaps(target, n_max, cfg.trials, stream, cfg.samples, c)

    def fold(target, gaps):
        gaps = np.concatenate(gaps)
        return {"target": f"{target}-support" if target != "equality" else "trace-equality",
                "trials": cfg.trials, "max_dimension": n_max,
                "worst_gap": float(gaps.max(initial=0.0)), "tolerance": cfg.tolerance,
                "violations": int(np.count_nonzero(~residual_vanishes(gaps, tol=cfg.tolerance))),
                }, None

    chunks = extremal._extremal_chunks(n_max, cfg.trials, cfg.samples)
    return [(s, tuple(functools.partial(chunk, target, c) for c in chunks),
             functools.partial(fold, target))
            for s, target in enumerate(extremal.EXTREMAL_TARGETS)
            if cfg.target in ("all", target)]


def _execute_repro(cfg: RunConfig, suite) -> list:
    def run(stream):  # the construction is fixed: it draws nothing
        witness, spectrum, unitary_residual = suite._fan_counterexample()
        return {"target": "fan-counterexample", "k": witness.k, "margin": witness.margin,
                "top_singular_value": float(spectrum[0]),
                "spectrum": [float(v) for v in spectrum], "unitary_residual": unitary_residual,
                # the contraction bound the construction breaks is sigma_1 <= 1
                "violations": int(_violated(witness.margin, 1.0, cfg.tolerance)),
                "witness": witness_document(witness),
                }, "the contraction bound fails on this input, as constructed"

    return [(0, (run,), _only)]


def _execute_ptrace(cfg: RunConfig, ptrace) -> list:
    # a zero budget scores nothing, so it writes no search section; the
    # regression, then the last section, carries the note that says so
    skipped = None if cfg.budget else "bounded search skipped: --budget 0"

    def identities(stream):
        trials = min(cfg.trials, 50)
        worst_closed, worst_kron = ptrace._identity_residuals(cfg.n, trials, stream)
        return {"target": "identity-cross-check", "trials": trials,
                "worst_closed_form_residual": worst_closed,
                "worst_kron_identity_residual": worst_kron, "violations": 0}, None

    def regression(stream):
        worst, violations = ptrace._commuting_regression(cfg.question, cfg.n, cfg.trials,
                                                         stream, cfg.k_spec, cfg.tolerance)
        return {"target": "commuting-regression", "question": cfg.question,
                "trials": cfg.trials, "worst_margin": worst, "tolerance": cfg.tolerance,
                "violations": violations}, skipped

    sections = [(s, (part,), _only) for s, part in enumerate((identities, regression))]
    if not skipped:
        sections.append(_search_section(cfg, ptrace, 2, target="bounded-search"))
    return sections


def _execute_search(cfg: RunConfig, ptrace) -> list:
    return [_search_section(cfg, ptrace, 0, target="counterexample-search", n=cfg.n,
                            restarts=cfg.restarts)]


def _search_section(cfg: RunConfig, ptrace, s: int, **head) -> tuple:
    """Section ``s``, the configured search, its inputs validated here before
    any part runs.  Its restarts are cut into min(restarts, usable processes)
    contiguous spans, one part each, the earlier spans one restart longer
    where they do not divide evenly.  The fold gives its report section
    (``head``, then the fields both search sections report, its violation
    count and its witness if it found one) and its note."""
    plan = ptrace._SearchPlan(cfg.question, cfg.n, cfg.k_spec, cfg.budget, cfg.restarts,
                              cfg.strategy, cfg.tolerance)
    spans = min(cfg.restarts, _process_count())
    size, rem = divmod(cfg.restarts, spans)
    bounds = [i * size + min(i, rem) for i in range(spans + 1)]
    parts = tuple(functools.partial(ptrace._search_span, plan, first, stop)
                  for first, stop in zip(bounds, bounds[1:]))

    def fold(bests):
        result = ptrace._search_result(plan, bests, cfg.seed)
        fields = {**head, "question": cfg.question, "strategy": result.strategy,
                  "budget": cfg.budget, "evaluations": result.evaluations,
                  "best_margin": result.best_margin, "violations": 0}
        if result.witness is None:
            return fields, "no counterexample found within budget"
        w = result.witness
        witness = Witness(matrices={"A": w.A, "B": w.B}, k=w.k, margin=result.best_margin)
        fields.update(violations=1, witness=witness_document(witness))
        return fields, "counterexample candidate found — inspect the witness"

    return s, parts, fold


@dataclass(frozen=True)
class _Command:
    """One subcommand, declared once.

    ``engine`` names the ``kyfan`` module that runs it and ``help`` is its
    line in ``kyfan --help``.  ``options(parser, module)`` gives its parser
    its description and options, and ``sections(cfg, module)`` lists its
    ``(stream_section, parts, fold)`` sections in report order (see
    :func:`_run`), ``module`` being the engine module; a fold gives its
    section's report section and note (None for none).
    """

    engine: str
    help: str
    options: Callable
    sections: Callable


#: every subcommand, in ``kyfan --help`` order
_COMMANDS = {
    "check": _Command("suite", "run a randomized inequality suite",
                      _check_options, _execute_check),
    "extremal": _Command("extremal", "support-function and trace-equality validation",
                         _extremal_options, _execute_extremal),
    "repro": _Command("suite", "reproduce the exact 3x3 contraction-norm violation (exits 2)",
                      _repro_options, _execute_repro),
    "ptrace": _Command("ptrace",
                       "partial-trace lab: identities, commuting regression, bounded search",
                       _ptrace_options, _execute_ptrace),
    "search": _Command("ptrace", "multi-restart counterexample search for one open question",
                       _search_options, _execute_search),
}


def _sections(cfg: RunConfig) -> list:
    """The sections of ``cfg``'s command, listed by its engine."""
    return _COMMANDS[cfg.command].sections(cfg, _engine(cfg.command))


def _run(sections) -> tuple[list, int | None, int]:
    """Run ``(stream, parts, fold)`` sections with the BLAS on one thread:
    every ``part(stream)``, dealt over the processes by :func:`_run_sections`,
    then each ``fold`` of its section's outcomes in part order.  Returns the
    folded outcomes, the BLAS thread count and the process count."""
    with _one_blas_thread() as blas_threads:
        parts = [functools.partial(part, stream)
                 for stream, section_parts, _ in sections for part in section_parts]
        # a run splits only under the one-thread pin
        processes = min(_process_count(), len(parts)) if blas_threads == 1 else 1
        done = iter(_run_sections(parts, processes))
        outcomes = [fold(list(itertools.islice(done, len(section_parts))))
                    for _, section_parts, fold in sections]
    return outcomes, blas_threads, processes


def execute(cfg: RunConfig) -> int:
    """Run one configured command, emit its report, return the exit status."""
    t0 = time.perf_counter()
    outcomes, blas_threads, processes = _run(
        [(SeededStream(cfg.seed, s * STREAM_STRIDE), parts, fold)
         for s, parts, fold in _sections(cfg)])
    results = [result for result, _ in outcomes]
    notes = [note for _, note in outcomes if note is not None]
    total_violations = sum(r["violations"] for r in results)
    status = 2 if total_violations else 0
    doc = run_document(
        cfg.command,
        config=dataclasses.asdict(cfg),
        results=results,
        violations_total=total_violations,
        exit_status=status,
        elapsed_seconds=time.perf_counter() - t0,
        notes=notes,
        environment={"python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__,
                     **_numeric_stack(), "blas_kernel": _blas_kernel(),
                     "blas_threads": blas_threads, "processes": processes},
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
