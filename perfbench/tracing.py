"""Span recording around oapoly's public functions, and the per-layer
summary computed from the recorded spans.

The tracer wraps functions from outside; the program itself is never
edited. Each span records its name, start, end, parent span and job id
(plus one amount for the spans listed in layers.AMOUNTS). Spans stay in
compact arrays in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

from layers import AMOUNTS, LAYER_METRICS, SPANS

SETUP_JOB = -1


def _amount(kind, args, kwargs, result) -> float:
    if kind == "grid_points":
        grid = kwargs.get("grid", args[2] if len(args) > 2 else None)
        return float(grid.points)
    if kind == "result_length":
        return float(len(result))
    if kind == "matrix_size":
        return float(result.matrix.size)
    raise ValueError(f"unknown amount kind {kind!r}")


def _cli_span_name(args, kwargs) -> str:
    argv = list(kwargs.get("argv", args[0] if args else None) or sys.argv[1:])
    words = [w for w in argv[:2] if not w.startswith("-")]
    return "cli." + "_".join(words)


def _oapoly_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "oapoly" or name.startswith("oapoly."))
    ]


class Tracer:
    """Records nested spans of wrapped functions in one thread."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.amount = array("d")
        self.current_job = SETUP_JOB
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._originals: dict[int, object] = {}  # id(wrapper) -> original
        self._class_patches: list[tuple[type, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, span: str):
        amount_kind = AMOUNTS.get(span)
        fixed_id = None if span == "cli" else self._name_id(span)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed_id if fixed_id is not None else tracer._name_id(_cli_span_name(args, kwargs))
            index = len(tracer.start)
            stack = tracer._stack
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.job.append(tracer.current_job)
            tracer.amount.append(0.0)
            tracer.end.append(0.0)
            stack.append(index)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[index] = time.perf_counter()
                stack.pop()
            if amount_kind is not None:
                tracer.amount[index] = _amount(amount_kind, args, kwargs, result)
            return result

        self._originals[id(wrapper)] = fn
        return wrapper

    def install(self, spans: dict = SPANS) -> None:
        """Patch every binding of every target; record absent targets."""
        self.missing = []
        modules = _oapoly_modules()
        for span, targets in spans.items():
            for target in targets:
                modname, _, path = target.partition(":")
                try:
                    module = importlib.import_module(modname)
                except ImportError:
                    self.missing.append(target)
                    continue
                owner_name, _, attr = path.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name, None)
                    original = owner.__dict__.get(attr) if isinstance(owner, type) else None
                    if original is None:
                        self.missing.append(target)
                        continue
                    setattr(owner, attr, self.wrap(original, span))
                    self._class_patches.append((owner, attr, original))
                    continue
                original = module.__dict__.get(attr)
                if original is None:
                    self.missing.append(target)
                    continue
                wrapper = self.wrap(original, span)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod in _oapoly_modules():
            for key, value in list(vars(mod).items()):
                original = self._originals.get(id(value))
                if original is not None:
                    setattr(mod, key, original)
        for owner, attr, original in reversed(self._class_patches):
            setattr(owner, attr, original)
        self._class_patches = []
        self._originals = {}

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            amount=np.frombuffer(self.amount, dtype=np.float64),
        )


# ---------------------------------------------------------------------------
# summary


class Spans:
    """Loaded span arrays with helpers over name groups."""

    def __init__(self, names, name_id, start, end, parent, job, amount):
        self.names = [str(n) for n in names]
        self.name_id = np.asarray(name_id, dtype=np.int64)
        self.duration = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.job = np.asarray(job, dtype=np.int64)
        self.amount = np.asarray(amount, dtype=np.float64)

    @classmethod
    def load(cls, path) -> "Spans":
        with np.load(path) as data:
            return cls(data["names"], data["name_id"], data["start"], data["end"],
                       data["parent"], data["job"], data["amount"])

    def mask(self, span: str) -> np.ndarray:
        """Spans named `span`, or `span.<anything>` (cli subcommands)."""
        ids = [i for i, n in enumerate(self.names) if n == span or n.startswith(span + ".")]
        return np.isin(self.name_id, ids)

    def under(self, mask: np.ndarray) -> np.ndarray:
        """True where some proper ancestor of the span is in mask."""
        out = np.zeros(len(self.parent), dtype=bool)
        anc = self.parent.copy()
        live = anc >= 0
        while live.any():
            idx = anc[live]
            out[live] |= mask[idx]
            anc[live] = self.parent[idx]
            live = anc >= 0
        return out

    def outermost(self, span: str) -> np.ndarray:
        m = self.mask(span)
        return m & ~self.under(m)

    def self_time(self) -> np.ndarray:
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent], weights=self.duration[has_parent], minlength=len(self.parent)
        )
        return self.duration - covered

    def layer_of(self) -> np.ndarray:
        prefixes = np.array([n.split(".", 1)[0] for n in self.names] + [""], dtype=object)
        return prefixes[self.name_id] if len(self.name_id) else np.array([], dtype=object)


def summarize(spans: Spans, traced_passes: int, overhead_frac: float, missing: int) -> dict:
    """Per-layer metrics, as listed in layers.LAYER_METRICS."""
    in_jobs = spans.job >= 0
    in_setup = spans.job == SETUP_JOB
    per_pass = 1.0 / max(traced_passes, 1)
    self_time = spans.self_time()
    layer = spans.layer_of()
    out = {}
    for name, unit, _better, how, _moves in LAYER_METRICS:
        kind = how[0]
        if kind == "time":
            value = spans.duration[spans.outermost(how[1]) & in_jobs].sum() * per_pass
        elif kind == "setup_time":
            value = spans.duration[spans.outermost(how[1]) & in_setup].sum()
        elif kind == "calls":
            value = np.count_nonzero(spans.outermost(how[1]) & in_jobs) * per_pass
        elif kind == "amount":
            value = spans.amount[spans.outermost(how[1]) & in_jobs].sum() * per_pass
        elif kind == "self":
            value = self_time[(layer == how[1]) & in_jobs].sum() * per_pass
        elif kind == "evals_per_entry":
            extract = spans.mask("represent.phi_group") | spans.mask("represent.blockwise")
            evals = np.count_nonzero(spans.outermost("polynomials.eval") & spans.under(extract) & in_jobs)
            entries = spans.amount[extract & ~spans.under(extract) & in_jobs].sum()
            value = evals / entries if entries else 0.0
        elif kind == "overhead":
            value = overhead_frac
        elif kind == "missing":
            value = missing
        else:
            raise ValueError(f"unknown metric kind {kind!r}")
        out[name] = {"value": float(value), "unit": unit}
    return out


def top_spans_by_job(spans: Spans, labels: list[str], names: tuple[str, ...]) -> dict:
    """Mean outermost time of selected span names per job label."""
    table: dict[str, dict[str, list[float]]] = {}
    job_label = np.array(labels + [""], dtype=object)
    for span in names:
        sel = spans.outermost(span) & (spans.job >= 0)
        if not sel.any():
            continue
        per_job: dict[int, float] = {}
        for j, d in zip(spans.job[sel], spans.duration[sel]):
            per_job[int(j)] = per_job.get(int(j), 0.0) + float(d)
        for j, d in per_job.items():
            table.setdefault(job_label[j], {}).setdefault(span, []).append(d)
    return {
        label: {span: float(np.mean(v)) for span, v in row.items()}
        for label, row in sorted(table.items())
    }
