"""Every function the benchmark traces still exists under its name.

The benchmark lists its trace points as "module:qualname" strings in
``SPANS`` in perfbench/layers.py. The file is read as source here, never
imported, so a deleted or renamed public function fails this suite.
"""

import ast
import importlib
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def traced_targets() -> list[str]:
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    for node in tree.body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and names == ["SPANS"]:
            spans = ast.literal_eval(node.value)
            return sorted(target for targets in spans.values() for target in targets)
    raise AssertionError(f"no SPANS assignment in {LAYERS}")


@pytest.mark.parametrize("target", traced_targets())
def test_traced_target_is_defined_in_oapoly(target):
    module_name, _, qualname = target.partition(":")
    assert module_name.split(".")[0] == "oapoly"
    owner = importlib.import_module(module_name)
    for attr in qualname.split("."):
        # defined on the module or class itself, as the tracer requires
        assert attr in vars(owner), f"{target}: {attr!r} is not defined on {owner!r}"
        owner = vars(owner)[attr]
    assert callable(owner)
