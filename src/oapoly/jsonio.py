"""Canonical JSON and complex-number serialization helpers.

Canonical output is byte-deterministic: object keys sorted, floats
printed with 17 significant digits, no whitespace surprises. Complex
numbers travel as [re, im] pairs everywhere in the file formats. The
loaders here (pairs, typed fields, integer tables) raise ValueError
naming any value of the wrong type or shape.
"""

from __future__ import annotations

import json
import math

import numpy as np


def _float_repr(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite float in canonical JSON output")
    return format(x, ".17g")


def _canonical(obj, out: list[str]) -> None:
    if obj is None or obj is True or obj is False:
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_float_repr(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"non-string JSON key: {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _canonical(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _canonical(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    """Serialize to deterministic JSON (sorted keys, fixed float format)."""
    out: list[str] = []
    _canonical(obj, out)
    return "".join(out)


def finite_or_null(x: float) -> float | None:
    """A check's residual for its report: non-finite (overflow) is null, and fails the check."""
    return x if math.isfinite(x) else None


def complex_to_pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def pair_to_complex(pair) -> complex:
    if isinstance(pair, list) and len(pair) == 2:
        try:
            return complex(float(pair[0]), float(pair[1]))
        except (TypeError, ValueError):
            pass
    raise ValueError(f"expected a [re, im] pair of numbers, got {pair!r:.80}")


def _require_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"expected a list of {what}, got {value!r:.80}")
    return value


def require_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"expected a JSON object for the {what}, got {value!r:.80}")
    return value


def json_field(doc, key: str, kind: type, what: str):
    """doc[key] of the JSON object doc, which must be a `kind` (an int is
    not a bool); the ValueError otherwise names the field and the value."""
    value = require_object(doc, what)[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{what} field {key!r} must be a JSON {kind.__name__}, got {value!r:.80}")
    return value


def int_array(value, what: str, ndim: int) -> np.ndarray:
    """A rectangular list of integers nested ndim deep, as an int64 array."""
    try:
        array = np.array(_require_list(value, what), dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        array = None
    if array is None or array.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array of integers for {what}, got {value!r:.80}")
    return array


def vector_to_pairs(values) -> list[list[float]]:
    return [complex_to_pair(z) for z in np.asarray(values).ravel()]


def pairs_to_vector(pairs) -> np.ndarray:
    return np.array(
        [pair_to_complex(p) for p in _require_list(pairs, "[re, im] pairs")], dtype=np.complex128
    )


def matrix_to_pairs(mat) -> list[list[list[float]]]:
    mat = np.asarray(mat)
    return [[complex_to_pair(z) for z in row] for row in mat]


def pairs_to_matrix(rows) -> np.ndarray:
    rows = _require_list(rows, "rows of [re, im] pairs")
    matrix = [[pair_to_complex(p) for p in _require_list(row, "[re, im] pairs")] for row in rows]
    if len({len(row) for row in matrix}) > 1:
        raise ValueError(f"matrix rows differ in length: {rows!r:.80}")
    return np.array(matrix, dtype=np.complex128)


def rows_to_csv(rows: list[dict], fieldnames: list[str]) -> str:
    """Render table rows as CSV with the given column order."""
    lines = [",".join(fieldnames)]
    for row in rows:
        cells = []
        for name in fieldnames:
            value = row.get(name, "")
            if isinstance(value, (float, np.floating)):
                cells.append(_float_repr(float(value)))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
