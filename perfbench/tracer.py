"""Span tracer that instruments kyfan from outside the package.

Every public function of every kyfan module belongs to one layer group
(``LAYERS``).  :func:`install` replaces each function with a timing wrapper
in *every* kyfan module namespace that holds a reference to it -- modules
import names directly (``from .matrixcore import singular_values``), so
patching only the defining module would miss most calls.  Methods such as
``SeededStream.generator`` are wrapped on their class.

Spans live in memory as ``[group, parent, start, end, work]`` lists with a
parent index, and are summarized or written out when the run ends.  A
group's self time is the span durations minus the part of each span that its
child spans cover.  The tracer imports only the standard library.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time

PACKAGE = "kyfan"


def _svd_flops(args, with_vectors: bool) -> float:
    """Golub-Van Loan operation count of one SVD, times 4 for complex data.

    Computed from the operand's shape, not measured.  Golub-Reinsch counts
    for an m x n operand with m >= n: 4mn^2 - 4n^3/3 for the singular values
    alone, 14mn^2 + 8n^3 with the thin singular vectors.
    """
    shape = getattr(args[0], "shape", None)
    if shape is None or len(shape) != 2:
        return 0.0
    m, n = max(shape), min(shape)
    if with_vectors:
        return 4.0 * (14.0 * m * n * n + 8.0 * n ** 3)
    return 4.0 * (4.0 * m * n * n - 4.0 * n ** 3 / 3.0)


#: layer group -> (module, function or Class.method) targets; the group name
#: is the per-layer metric prefix.  Every function in a module's ``__all__``
#: appears here or in ``UNTRACED``.
LAYERS = {
    "ensembles.stream_open": [("ensembles", "SeededStream.generator")],
    "ensembles.draw": [
        ("ensembles", name)
        for name in (
            "ginibre", "haar_unitary", "random_contraction", "random_subunit_columns",
            "random_unit_vector", "sample_unit_columns", "sample_partial_isometry",
            "random_weight", "commuting_hermitian_pair", "random_hermitian",
        )
    ],
    "ensembles.support": [
        ("ensembles", "support_function_gap"),
        ("ensembles", "matrix_ball_support_gap"),
    ],
    "ensembles.other": [
        ("ensembles", "SeededStream.offset"),
        ("ensembles", "sign_vectors"),
        ("ensembles", "vector_ball_candidates"),
    ],
    "matrixcore.validate": [("matrixcore", "as_matrix"), ("matrixcore", "as_vector")],
    "matrixcore.svd": [("matrixcore", "svd"), ("matrixcore", "singular_values")],
    "matrixcore.other": [
        ("matrixcore", name)
        for name in (
            "factor_sqrt", "column_norms", "column_norms_unsorted", "hadamard",
            "kronecker", "partial_trace_first",
        )
    ],
    "forms.apply": [
        ("forms", "apply_form"), ("forms", "right_adjoint_apply"), ("forms", "fan_product"),
    ],
    "forms.other": [
        ("forms", name)
        for name in (
            "EntrywiseForm.__post_init__", "hadamard_form", "fan_form", "theta", "phi",
            "psi", "column_scale_factorization",
        )
    ],
    "norms": [
        ("norms", name)
        for name in (
            "Weight.__post_init__", "Weight.prefix_sums", "inequality_holds",
            "residual_vanishes", "weighted_vector_k_norm", "dual_weighted_vector_k_norm",
            "weighted_kyfan_norm", "weighted_column_norm", "kyfan_norm", "trace_norm",
        )
    ],
    "suite.check": [
        ("suite", name)
        for name in (
            "check_von_neumann", "check_product_family", "check_hadamard_family",
            "check_ahj", "check_lemma31", "check_lemma32", "check_hmn", "check_fan_sigma1",
        )
    ],
    "suite.other": [
        ("suite", "reproduce_fan_counterexample"),
        ("suite", "von_neumann_equality_witness"),
        ("suite", "reevaluate_margin"),
    ],
    "ptrace.search": [("ptrace", "search_counterexample")],
    "ptrace.margin": [
        ("ptrace", "worst_question_margin"),
        ("ptrace", "question_margins_all_k"),
        ("ptrace", "question_margin"),
    ],
    "ptrace.unpack": [("ptrace", "unpack_hermitian_pair"), ("ptrace", "pack_hermitian_pair")],
    "ptrace.hermitian": [("ptrace", "require_hermitian")],
    "ptrace.other": [
        ("ptrace", "QuestionInstance.__post_init__"),
        ("ptrace", "trace_deviation"),
        ("ptrace", "lhs_operator"),
        ("ptrace", "lhs_operator_brute"),
    ],
    "reports.document": [
        ("reports", "witness_document"),
        ("reports", "check_report_document"),
        ("reports", "run_document"),
    ],
    "reports.other": [
        ("reports", "report_body_bytes"), ("reports", "write_report"), ("reports", "render_table"),
    ],
    "fileformat.dump": [("fileformat", "dump_document")],
    "fileformat.write": [("fileformat", "write_text"), ("fileformat", "write_document")],
    "fileformat.other": [
        ("fileformat", name)
        for name in (
            "load_document", "matrix_to_document", "document_to_matrix", "write_matrix",
            "read_matrix",
        )
    ],
    "cli": [("cli", "parse_arguments"), ("cli", "execute"), ("cli", "main")],
}

#: public functions deliberately left unwrapped, with the reason
UNTRACED = {
    ("ensembles", "as_generator"):
        "called inside every sampler; its time counts toward the sampler",
}

#: per-call operation counts recorded as span work (label: computed, not measured)
WORK = {
    ("matrixcore", "svd"): lambda args: _svd_flops(args, with_vectors=True),
    ("matrixcore", "singular_values"): lambda args: _svd_flops(args, with_vectors=False),
}

#: span summary fields that per-layer metric names end in
FIELDS = {"calls": "calls", "s": "s", "self_s": "self_s", "flops_computed": "work"}


class Tracer:
    """Collects nested spans from wrapped functions on one thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, group: str, fn, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [group, stack[-1] if stack else -1, 0.0, 0.0,
                    work(args) if work is not None else 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        traced.__perfbench_group__ = group
        return traced

    def install(self) -> dict:
        """Wrap every ``LAYERS`` target; return target -> patched namespaces.

        Raises ``LookupError`` if a target is missing, so a renamed function
        cannot silently drop out of the trace.
        """
        for module_name in {m for targets in LAYERS.values() for m, _ in targets}:
            importlib.import_module(f"{PACKAGE}.{module_name}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        patched = {}
        for group, targets in LAYERS.items():
            for module_name, qualname in targets:
                module = sys.modules[f"{PACKAGE}.{module_name}"]
                work = WORK.get((module_name, qualname))
                key = f"{module_name}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name, None)
                    if cls is None or attr not in vars(cls):
                        raise LookupError(f"{PACKAGE}.{key} not found")
                    self._patch(cls, attr, self.wrap(group, vars(cls)[attr], work))
                    patched[key] = [f"{module.__name__}.{cls_name}"]
                    continue
                original = getattr(module, qualname, None)
                if original is None:
                    raise LookupError(f"{PACKAGE}.{key} not found")
                wrapped = self.wrap(group, original, work)
                patched[key] = []
                for namespace in modules:
                    for name, value in list(vars(namespace).items()):
                        if value is original:
                            self._patch(namespace, name, wrapped)
                            patched[key].append(f"{namespace.__name__}.{name}")
        return patched

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Restore every original function, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[1] >= 0:
            children.setdefault(span[1], []).append((span[2], span[3]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[2], span[3]
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict:
    """Per group: ``calls``, inclusive ``s``, ``self_s`` and summed ``work``.

    Inclusive time counts only spans with no ancestor in the same group, so
    a group that calls itself (``worst_question_margin`` ->
    ``question_margins_all_k``) is not counted twice.
    """
    selfs = self_times(spans)
    out = {group: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0.0} for group in LAYERS}
    for index, span in enumerate(spans):
        entry = out[span[0]]
        entry["calls"] += 1
        entry["self_s"] += selfs[index]
        entry["work"] += span[4]
        parent = span[1]
        while parent >= 0 and spans[parent][0] != span[0]:
            parent = spans[parent][1]
        if parent < 0:
            entry["s"] += span[3] - span[2]
    return out


def layer_metric(summary: dict, name: str):
    """Value of a per-layer metric named ``<group>.<field>``, or None."""
    group, _, field = name.rpartition(".")
    if group in summary and field in FIELDS:
        return summary[group][FIELDS[field]]
    return None


def coverage_residual(summary: dict, wall_s: float) -> float:
    """Share of ``wall_s`` that the groups' self times do not account for."""
    total = math.fsum(entry["self_s"] for entry in summary.values())
    return abs(wall_s - total) / wall_s if wall_s > 0 else 0.0


def write_spans(path: str, spans, origin: float) -> None:
    """Write spans as JSON, times in seconds from ``origin``."""
    groups = list(LAYERS)
    index = {group: i for i, group in enumerate(groups)}
    rows = [[index[s[0]], s[1], s[2] - origin, s[3] - origin, s[4]] for s in spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["group", "parent", "start_s", "end_s", "work"],
                   "groups": groups, "spans": rows}, fh, separators=(",", ":"))
        fh.write("\n")
