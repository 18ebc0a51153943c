import math
import os
import stat

import numpy as np
import pytest

from kyfan.ensembles import SeededStream, ginibre
from kyfan.fileformat import (
    document_to_matrix,
    dump_document,
    load_document,
    matrix_to_document,
    read_matrix,
    write_document,
    write_matrix,
)


def test_matrix_roundtrip_exact(tmp_path):
    a = ginibre(4, SeededStream(21))
    path = str(tmp_path / "a.json")
    write_matrix(path, a)
    b = read_matrix(path)
    assert np.array_equal(a, b)  # 18 significant digits round-trip float64 exactly


def test_float_formatting_is_pinned():
    text = dump_document({"x": 1.0 / 3.0})
    assert '"x": 3.33333333333333315e-01' in text


def test_sorted_keys_deterministic():
    doc1 = {"b": 1, "a": 2.0}
    doc2 = {"a": 2.0, "b": 1}
    assert dump_document(doc1) == dump_document(doc2)
    assert dump_document(doc1).index('"a"') < dump_document(doc1).index('"b"')


def test_infinity_roundtrip(tmp_path):
    path = str(tmp_path / "inf.json")
    write_document(path, {"best": -math.inf, "evaluations": 0})
    loaded = load_document(path)
    assert loaded["best"] == -math.inf
    assert loaded["evaluations"] == 0


def test_nan_rejected():
    with pytest.raises(ValueError):
        dump_document({"x": float("nan")})


def test_unserializable_rejected():
    with pytest.raises(TypeError):
        dump_document({"x": object()})
    with pytest.raises(TypeError):
        dump_document({1: "non-string key"})


def test_matrix_document_shape():
    doc = matrix_to_document(np.array([[1.0, 2.0 + 1j]]))
    assert doc == {"rows": 1, "cols": 2, "data": [[1.0, 0.0], [2.0, 1.0]]}


def test_matrix_document_validation():
    with pytest.raises(ValueError):
        document_to_matrix({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})
    with pytest.raises(ValueError):
        document_to_matrix({"rows": 1, "cols": 1, "data": [[math.inf, 0.0]]})
    with pytest.raises(ValueError):
        document_to_matrix({"rows": 1, "cols": 1})
    with pytest.raises(ValueError):
        document_to_matrix([1, 2, 3])


@pytest.mark.parametrize("doc", [
    {"rows": 1, "cols": 1, "data": [[1.0, 2.0, 3.0]]},  # a third entry, once dropped
    {"rows": 1, "cols": 1, "data": [["1", "2"]]},  # strings, once parsed
    {"rows": 1, "cols": 1, "data": [[1.0]]},  # once an IndexError
    {"rows": 1, "cols": 1, "data": [[True, 0.0]]},
    {"rows": 1, "cols": 1, "data": [1.0]},
    {"rows": 1, "cols": 1, "data": [(1.0, 0.0)]},
    {"rows": 1, "cols": 1, "data": "xy"},
    {"rows": 1.5, "cols": 1, "data": [[1.0, 0.0]]},  # once read as 1
    {"rows": "1", "cols": 1, "data": [[1.0, 0.0]]},
    {"rows": 1, "cols": True, "data": [[1.0, 0.0]]},
], ids=["three-numbers", "strings", "one-number", "bool", "bare-number", "tuple", "string-data",
        "float-rows", "string-rows", "bool-cols"])
def test_a_malformed_matrix_document_raises_value_error(doc):
    with pytest.raises(ValueError):
        document_to_matrix(doc)


def test_a_matrix_document_takes_json_ints_as_entries():
    m = document_to_matrix({"rows": 1, "cols": 2, "data": [[1, 0], [2.5, -1]]})
    assert m.dtype == np.complex128 and m.tolist() == [[1 + 0j, 2.5 - 1j]]


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "doc.json")
    write_document(path, {"ok": True})
    write_document(path, {"ok": False})  # overwrite through rename
    assert load_document(path) == {"ok": False}
    leftovers = [f for f in os.listdir(tmp_path) if f != "doc.json"]
    assert leftovers == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)],
                         ids=["umask022", "umask077", "umask002"])
def test_written_file_mode_follows_the_umask(tmp_path, umask, mode):
    path = tmp_path / "doc.json"
    old = os.umask(umask)
    try:
        write_document(str(path), {"ok": True})
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(path).st_mode) == mode


def test_nested_arrays_serialize():
    text = dump_document({"m": np.array([[1.0, 2.0]]), "t": (1, 2)})
    assert "[[" in text and '"t": [1, 2]' in text
