"""Canonical JSON and complex-number serialization helpers.

Canonical output is byte-deterministic: object keys sorted, no
whitespace, each float written as its shortest round-trip repr (an
integral float keeps its ".0"), and non-finite floats refused. Complex
numbers travel as [re, im] pairs everywhere in the file formats. The
loaders here (pairs, typed fields, integer tables) raise ValueError
naming any value of the wrong type or shape.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math

import numpy as np


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, each float as its
    shortest round-trip repr; a non-finite float raises ValueError."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"non-finite float in canonical JSON output: {exc}") from None


def finite_or_null(x: float) -> float | None:
    """A check's residual for its report: non-finite (overflow) is null, and fails the check."""
    return x if math.isfinite(x) else None


def complex_to_pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def pair_to_complex(pair) -> complex:
    if isinstance(pair, list) and len(pair) == 2:
        try:
            z = complex(float(pair[0]), float(pair[1]))
            if cmath.isfinite(z):  # not 1e999, nor the strings "nan" and "inf"
                return z
        except (TypeError, ValueError):
            pass
    raise ValueError(f"expected a [re, im] pair of finite numbers, got {pair!r:.80}")


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
    return matrix_to_pairs(np.ravel(values))


def pairs_to_vector(pairs) -> np.ndarray:
    return np.array(
        [pair_to_complex(p) for p in _require_list(pairs, "[re, im] pairs")], dtype=np.complex128
    )


def matrix_to_pairs(mat) -> list[list[list[float]]]:
    """[re, im] pairs of a complex array, nested as the array is."""
    z = np.asarray(mat, dtype=np.complex128)
    return np.stack((z.real, z.imag), axis=-1).tolist()


def pairs_to_matrix(rows) -> np.ndarray:
    rows = _require_list(rows, "rows of [re, im] pairs")
    matrix = [[pair_to_complex(p) for p in _require_list(row, "[re, im] pairs")] for row in rows]
    if len({len(row) for row in matrix}) > 1:
        raise ValueError(f"matrix rows differ in length: {rows!r:.80}")
    return np.array(matrix, dtype=np.complex128)


def rows_to_csv(rows: list[dict], fieldnames: list[str]) -> str:
    """Render table rows as CSV with the given column order; floats as
    their shortest round-trip repr, as in canonical JSON."""
    if not all(math.isfinite(v) for row in rows for v in row.values() if isinstance(v, float)):
        raise ValueError("non-finite float in CSV output")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fieldnames)
    writer.writerows([row.get(name, "") for name in fieldnames] for row in rows)
    return out.getvalue()
