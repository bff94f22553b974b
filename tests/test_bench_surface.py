"""Everything the benchmark reads off oapoly still exists.

perfbench/jobs.py binds ``oapoly`` and its submodules with
``_mod("oapoly...")`` and builds its inputs from their attributes, such
as ``oapoly.AlgElement`` and ``oapoly.HomPoly.prototypical``; the
benchmark's own tests import ``oapoly`` and call names such as
``oapoly.random_element``. Both files are read as source here, never
imported, so a removed or renamed name that the benchmark uses fails
this suite, not only the benchmark's own run.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SOURCES = (PERFBENCH / "jobs.py", PERFBENCH / "tests" / "test_perfbench.py")


def _module_name(node) -> str | None:
    """The module of a ``_mod("oapoly...")`` or ``importlib.import_module("oapoly...")`` call."""
    if (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("_mod", "import_module")
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Constant)
        and str(node.args[0].value).split(".")[0] == "oapoly"
    ):
        return node.args[0].value
    return None


def _bindings(tree) -> dict[str, tuple[str, tuple[str, ...]]]:
    """Each name bound to oapoly in tree: (module, attribute chain below it)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "oapoly":
                    bound[alias.asname or "oapoly"] = (alias.name if alias.asname else "oapoly", ())
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "oapoly":
            for alias in node.names:
                bound[alias.asname or alias.name] = (node.module, (alias.name,))
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 and _module_name(node.value):
            if isinstance(node.targets[0], ast.Name):
                bound[node.targets[0].id] = (_module_name(node.value), ())
    return bound


def read_targets(path: Path) -> set[str]:
    """Every "module:attribute.chain" that the file imports or reads off an oapoly binding."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top = {}  # module-level bindings hold in every function
    for statement in tree.body:
        if not isinstance(statement, ast.FunctionDef):
            top.update(_bindings(statement))
    targets = set()
    for statement in tree.body:
        bound = {**top, **_bindings(statement)}
        targets |= {f"{module}:{'.'.join(chain)}" for module, chain in bound.values() if chain}
        for node in ast.walk(statement):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in bound:
                module, prefix = bound[node.id]
            else:
                module, prefix = _module_name(node), ()
            if module and prefix + tuple(chain):
                targets.add(f"{module}:{'.'.join(prefix + tuple(chain))}")
    return targets


def construction_targets() -> list[str]:
    return sorted(set().union(*(read_targets(path) for path in SOURCES)))


def test_the_benchmark_surface_is_found():
    targets = construction_targets()
    for expected in ("oapoly:AlgElement", "oapoly:HomPoly.prototypical", "oapoly:random_element",
                     "oapoly.groups:builtin_group_by_name", "oapoly.fourier:convolve_values"):
        assert expected in targets


@pytest.mark.parametrize("target", construction_targets())
def test_attribute_read_by_the_benchmark_exists(target):
    module_name, _, chain = target.partition(":")
    owner = importlib.import_module(module_name)
    for attr in chain.split("."):
        assert hasattr(owner, attr), f"{target}: {attr!r} is not an attribute of {owner!r}"
        owner = getattr(owner, attr)
