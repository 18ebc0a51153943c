"""Report documents: versioned schema, deterministic bodies, table rendering.

A report is a plain dict serialized by :func:`kyfan.fileformat.dump_document`
(sorted keys, pinned float formatting), so two runs with the same seed
produce byte-identical bodies once wall-time fields and the ``environment``
block (the numeric stack and process count a run used) are stripped.
:func:`report_body_bytes` performs exactly that stripping and is what the
determinism tests compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import __version__
from .ensembles import GENERATOR_ID
from .fileformat import dump_document, matrix_to_document, write_text

if TYPE_CHECKING:  # an annotation only: importing suite here would load it for every command
    from .suite import CheckReport

__all__ = [
    "SCHEMA_ID",
    "TIMING_FIELDS",
    "ENVIRONMENT_FIELD",
    "Witness",
    "witness_document",
    "check_report_document",
    "run_document",
    "report_body_bytes",
    "write_report",
    "render_table",
]

SCHEMA_ID = "kyfan-report/1"

#: keys whose values are wall-clock measurements, excluded from body bytes
TIMING_FIELDS = frozenset({"elapsed_seconds"})
#: the run document's record of the numeric stack, excluded from body bytes
ENVIRONMENT_FIELD = "environment"


@dataclass(frozen=True, eq=False)
class Witness:
    """Inputs of one trial plus the k and margin they produced."""

    matrices: dict
    k: int
    margin: float


def witness_document(witness: Witness) -> dict:
    return {
        "k": int(witness.k),
        "margin": float(witness.margin),
        "matrices": {
            name: matrix_to_document(value)
            for name, value in sorted(witness.matrices.items())
        },
    }


def check_report_document(report: CheckReport, *, include_witness: bool = True) -> dict:
    doc = {
        "inequality_id": report.inequality_id,
        "n": report.n,
        "k_range": list(report.k_range),
        "trials": report.trials,
        "violations": report.violations,
        "worst_margin": report.worst_margin,
        "tolerance": report.tolerance,
        "master_seed": report.master_seed,
        "elapsed_seconds": report.elapsed_seconds,
        "generator_id": report.generator_id,
        "per_k_worst": {str(k): float(v) for k, v in report.per_k_worst.items()},
        "details": dict(report.details),
    }
    if include_witness and report.witness is not None:
        doc["witness"] = witness_document(report.witness)
    return doc


def run_document(command: str, config: dict, results: list, *, violations_total: int,
                 exit_status: int, elapsed_seconds: float, notes=(),
                 environment: dict | None = None) -> dict:
    return {
        "schema": SCHEMA_ID,
        "tool": {"name": "kyfan", "version": __version__},
        "generator_id": GENERATOR_ID,
        "command": command,
        "config": config,
        "results": results,
        "violations_total": int(violations_total),
        "exit_status": int(exit_status),
        "elapsed_seconds": float(elapsed_seconds),
        "notes": list(notes),
        ENVIRONMENT_FIELD: environment,
    }


def _strip_timing(value):
    if isinstance(value, dict):
        return {k: _strip_timing(v) for k, v in value.items() if k not in TIMING_FIELDS}
    if isinstance(value, (list, tuple)):
        return [_strip_timing(item) for item in value]
    return value


def report_body_bytes(doc: dict) -> bytes:
    """Serialized report with every wall-time field and the environment block
    removed (determinism key)."""
    body = {key: value for key, value in doc.items() if key != ENVIRONMENT_FIELD}
    return dump_document(_strip_timing(body)).encode("utf-8")


def write_report(path: str, doc: dict) -> None:
    write_text(path, dump_document(doc))


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6e}"
    return str(value)


def render_table(doc: dict) -> str:
    """Human-readable rendering of a run document."""
    lines = [
        f"kyfan {doc['tool']['version']}  command={doc['command']}  "
        f"generator={doc['generator_id']}",
    ]
    results = doc.get("results", [])
    rows = []
    header = ["id", "n", "trials", "violations", "worst_margin", "tolerance"]
    for item in results:
        if "inequality_id" in item:
            rows.append(
                [
                    item["inequality_id"],
                    item.get("n", "-"),
                    item.get("trials", "-"),
                    item.get("violations", "-"),
                    item.get("worst_margin", "-"),
                    item.get("tolerance", "-"),
                ]
            )
    if rows:
        table = [header] + [[_format_cell(c) for c in row] for row in rows]
        widths = [max(len(row[i]) for row in table) for i in range(len(header))]
        for row in table:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    for item in results:
        if "inequality_id" not in item:
            # each section opens with its target; a witness shows its k and margin only
            for key in sorted(item, key=lambda key: (key != "target", key)):
                value = item[key]
                if key == "witness":
                    value = f"k={value['k']}  margin={_format_cell(value['margin'])}"
                lines.append(f"{key}: {_format_cell(value)}")
    for note in doc.get("notes", []):
        lines.append(str(note))
    lines.append(
        f"violations_total={doc['violations_total']}  exit_status={doc['exit_status']}"
    )
    return "\n".join(lines) + "\n"
