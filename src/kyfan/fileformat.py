"""Deterministic on-disk documents.

Matrices and reports are stored as JSON-compatible structured text emitted by
a hand-rolled serializer so the byte stream is reproducible: object keys are
sorted, every float is printed with 18 significant digits (``%.17e``), and
infinities use the ``Infinity`` / ``-Infinity`` literals that Python's json
parser accepts.  ``json.dump`` is deliberately not used for writing because
its float formatting is not pinned to a digit count.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .matrixcore import as_matrix

__all__ = [
    "dump_document",
    "load_document",
    "write_document",
    "write_text",
    "matrix_to_document",
    "document_to_matrix",
    "write_matrix",
    "read_matrix",
]


def _emit(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            raise ValueError("NaN is not representable in documents")
        if math.isinf(v):
            return "Infinity" if v > 0 else "-Infinity"
        return format(v, ".17e")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        parts = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"document keys must be strings, got {key!r}")
            parts.append(f"{json.dumps(key)}: {_emit(value[key])}")
        return "{" + ", ".join(parts) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_emit(item) for item in value) + "]"
    if isinstance(value, np.ndarray):
        return _emit(value.tolist())
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dump_document(doc) -> str:
    """Serialize a document deterministically (sorted keys, .17e floats)."""
    return _emit(doc) + "\n"


def load_document(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.loads(fh.read())


def write_text(path: str, text: str) -> None:
    """Write text atomically: temp file in the same directory, then rename.

    The temp file is created with mode 0666, which the kernel reduces by the
    umask, so it has the mode a plain ``open`` would give; the rename keeps it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    while True:
        tmp = os.path.join(directory, f".kyfan-{os.urandom(8).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_document(path: str, doc) -> None:
    write_text(path, dump_document(doc))


def matrix_to_document(a) -> dict:
    """Encode a matrix as {rows, cols, data} with data a row-major [re, im] list."""
    m = as_matrix(a, name="matrix")
    data = [[float(entry.real), float(entry.imag)] for entry in m.ravel()]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def document_to_matrix(doc) -> np.ndarray:
    """The matrix of a :func:`matrix_to_document` document; ``ValueError`` for
    any other: ``rows`` and ``cols`` positive ints, ``data`` a list of
    rows * cols entries, each a list of two finite real numbers.  A bool,
    though an int to Python, is neither."""
    if not isinstance(doc, dict):
        raise ValueError("matrix document must be an object")
    missing = {"rows", "cols", "data"} - set(doc)
    if missing:
        raise ValueError(f"matrix document missing fields: {sorted(missing)}")
    rows, cols, data = doc["rows"], doc["cols"], doc["data"]
    if not (type(rows) is int and type(cols) is int):
        raise ValueError(f"rows and cols must be integers, got {rows!r} and {cols!r}")
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ValueError(f"expected a list of {rows * cols} entries, got {data!r:.60}")
    flat = np.empty(rows * cols, dtype=np.complex128)
    for idx, pair in enumerate(data):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(type(v) in (int, float) for v in pair)):
            raise ValueError(f"entry {idx} must be [re, im], two real numbers, got {pair!r}")
        re, im = float(pair[0]), float(pair[1])
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError(f"non-finite entry at index {idx}")
        flat[idx] = complex(re, im)
    return flat.reshape(rows, cols)


def write_matrix(path: str, a) -> None:
    write_document(path, matrix_to_document(a))


def read_matrix(path: str) -> np.ndarray:
    return document_to_matrix(load_document(path))
