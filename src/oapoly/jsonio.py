"""Canonical JSON and the one codec for complex arrays in the file formats.

Canonical output is byte-deterministic: object keys sorted, no
whitespace, each float written as its shortest round-trip repr (an
integral float keeps its ".0"), and non-finite floats refused.

Every complex array in a file is nested [re, im] pairs, nested as the
array is: one bare pair for a scalar, a list of pairs for a vector, and
so on. `to_pairs` writes them and `from_pairs` reads them, the whole
nest in one `np.array(..., dtype=float64)`. A number is whatever
Python's `float()` reads: JSON numbers, bools and numeric strings such
as " 1.5", "1_0" or "+2". Refused, with a ValueError naming the first
node at fault: a pair that is not two numbers, "0x10", a value that is
not finite (1e999, "nan", "inf") or too large for a float, a nest of
the wrong depth, and rows of different lengths. The other loaders here
(typed fields, integer tables) also name the value at fault.
"""

from __future__ import annotations

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


def _require_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"expected a list of {what}, got {value!r:.80}")
    return value


def require_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"expected a JSON object for the {what}, got {value!r:.80}")
    return value


def json_field(doc, key: str, kind: type, what: str):
    """doc[key] of the JSON object doc, which must be a `kind`: a bool is
    no int, and `float` means any JSON number. The ValueError otherwise
    names the field and the value."""
    value = require_object(doc, what)[key]
    kinds, name = ((int, float), "number") if kind is float else (kind, kind.__name__)
    if not isinstance(value, kinds) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{what} field {key!r} must be a JSON {name}, got {value!r:.80}")
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


def to_pairs(values) -> list:
    """[re, im] pairs of a complex scalar or array, nested as the array is."""
    z = np.asarray(values, dtype=np.complex128)
    return np.stack((z.real, z.imag), axis=-1).tolist()


def from_pairs(value, what: str, ndim: int) -> np.ndarray:
    """The complex array of the [re, im] pairs nested ndim deep in value
    (ndim 0: one bare pair). A well-formed nest holding an empty list,
    such as [], gives an empty array of the nest's shape."""
    try:
        array = np.array(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        array = None
    if array is not None and array.ndim == ndim + 1 and array.shape[-1] == 2 and np.isfinite(array).all():
        return array.view(np.complex128)[..., 0]
    # the error path: only a valid nest holding an empty list gets past the walk
    return np.zeros(_nest_shape(value, what, ndim), dtype=np.complex128)


def _nest_shape(value, what: str, ndim: int) -> tuple:
    """The shape of a valid nest of pairs, without the pairs' axis; a
    ValueError names the first node at fault, depth first."""
    if ndim == 0:
        try:
            if isinstance(value, list) and len(value) == 2 and all(math.isfinite(float(x)) for x in value):
                return ()
        except (TypeError, ValueError, OverflowError):
            pass
        raise ValueError(f"expected a [re, im] pair of finite numbers, got {value!r:.80}")
    if not isinstance(value, list):
        raise ValueError(f"expected a list in the [re, im] pairs of {what}, got {value!r:.80}")
    shapes = {_nest_shape(item, what, ndim - 1) for item in value}
    if len(shapes) > 1:
        raise ValueError(f"rows differ in length in {what}: {value!r:.80}")
    return (len(value), *shapes.pop()) if shapes else (0,)


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
