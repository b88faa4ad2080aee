"""Operator file serialization: JSON with lossless decimal floats.

Numbers are emitted with 17 significant digits so a write/read round trip
reproduces every double bit-exactly; matrices are row-major nested arrays in
the lexicographic wedge basis.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .operators import CurvatureOperator
from .tensors import check_dimension, wedge_count

BASIS_LITERAL = "lex-wedge"


def format_float(x) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    text = format(x, ".17g")
    # keep the token a float so negative zero survives the round trip
    if not any(ch in text for ch in ".eE"):
        text += ".0"
    return text


def _emit(obj) -> str:
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_emit(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _emit(obj.tolist())
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(obj)
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def operator_document(op: CurvatureOperator, metadata=None, companions=None) -> dict:
    doc = {
        "n": op.n,
        "basis": BASIS_LITERAL,
        "matrix": [list(row) for row in op.mat],
    }
    if metadata:
        doc["metadata"] = metadata
    if companions:
        doc["companions"] = companions
    return doc


def dumps_operator(op: CurvatureOperator, metadata=None, companions=None) -> str:
    return _emit(operator_document(op, metadata, companions)) + "\n"


def dump_operator(path, op: CurvatureOperator, metadata=None, companions=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_operator(op, metadata, companions))


def _entry(value) -> float:
    """A matrix entry as a float; ValueError unless it is a JSON number that
    a float holds."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"the 'matrix' field must hold JSON numbers, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("the 'matrix' field holds an integer too large for a float") from None


def loads_operator(text: str):
    """Parse an operator file; returns (operator, full document).

    n must be a JSON integer and the matrix a list of N lists of N JSON
    numbers, N the wedge dimension; it must be symmetric to 1e-9, and it is
    symmetrized on load.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("operator file must contain a JSON object")
    for key in ("n", "basis", "matrix"):
        if key not in doc:
            raise ValueError(f"operator file is missing the {key!r} field")
    if doc["basis"] != BASIS_LITERAL:
        raise ValueError(f"unsupported basis {doc['basis']!r}; expected {BASIS_LITERAL!r}")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"the 'n' field must be a JSON integer, got {json.dumps(n)}")
    size = wedge_count(check_dimension(n))
    rows = doc["matrix"]
    if not (
        isinstance(rows, list)
        and len(rows) == size
        and all(isinstance(row, list) and len(row) == size for row in rows)
    ):
        raise ValueError(
            f"the 'matrix' field must be {size}x{size} for n={n}: "
            f"a list of {size} lists of {size} numbers"
        )
    op = CurvatureOperator(n, np.array([[_entry(x) for x in row] for row in rows]))
    return op, doc


def load_operator(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads_operator(fh.read())
