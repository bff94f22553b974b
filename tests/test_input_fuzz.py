"""Fuzz over the JSON loaders, through the CLI in-process.

One node of a valid s3 group, element, polynomial or linear-map file is
replaced by a value of the wrong type. Whatever the node, the command
that loads the file must keep the exit-code contract: it returns 0, 1
or 2 (or argparse exits with 2) and raises nothing else.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oapoly import GroupAlgebra, HomPoly, LinearMap, builtin_group_by_name, random_element
from oapoly.cli import main
from oapoly.fourier import element_to_json
from oapoly.groups import group_to_json
from oapoly.polynomials import poly_to_json, tensor_of
from oapoly.represent import linear_map_to_json

WRONG_VALUES = [5, None, [], {}, "x", [5]]


def _valid_documents() -> dict:
    group, registry = builtin_group_by_name("s3")
    domain = GroupAlgebra(group, registry)
    rng = np.random.default_rng(5)
    linear = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    poly = HomPoly.prototypical(linear, 2, domain)
    return {
        "group": group_to_json(group, registry),
        "element": element_to_json(random_element(group, rng)),
        "poly": poly_to_json(HomPoly.from_tensor(2, domain, 2, tensor_of(poly))),
        "phi": linear_map_to_json(LinearMap(domain, 2, linear)),
    }


DOCUMENTS = _valid_documents()

# the commands that load each kind of file: @fuzzed is the fuzzed file,
# @element and @poly the valid ones; `group validate` loads a group file
# without the validation that `fourier transform` runs first
COMMANDS = {
    "group": [
        ["group", "validate", "--group-file", "@fuzzed"],
        ["fourier", "transform", "--group-file", "@fuzzed", "--input", "@element"],
    ],
    "element": [["norms", "certify", "--group", "s3", "--input", "@fuzzed", "--n", "2"]],
    "poly": [["represent", "extract", "--poly", "@fuzzed", "--pairs", "5", "--samples", "5"]],
    "phi": [["represent", "verify", "--poly", "@poly", "--phi", "@fuzzed", "--samples", "5"]],
}


def _node_paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        children = node.items() if isinstance(node, dict) else enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _node_paths(child, path + (key,))


def _nodes_by_depth(doc) -> dict:
    """Node paths grouped by depth. A depth is drawn first, so the few
    container fields near the root are drawn about as often as the many
    numbers deep inside the [re, im] pairs."""
    depths: dict = {}
    for path in _node_paths(doc):
        depths.setdefault(len(path), []).append(path)
    return depths


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _argv(command, fuzzed, files):
    paths = {"@fuzzed": fuzzed, "@element": files / "element.json", "@poly": files / "poly.json"}
    return [str(paths.get(arg, arg)) for arg in command]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    for kind, doc in DOCUMENTS.items():
        (base / f"{kind}.json").write_text(json.dumps(doc))
    return base


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_a_wrongly_typed_node_keeps_the_exit_code_contract(kind, files):
    depths = _nodes_by_depth(DOCUMENTS[kind])

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        path=st.sampled_from(sorted(depths)).flatmap(lambda depth: st.sampled_from(depths[depth])),
        value=st.sampled_from(WRONG_VALUES),
    )
    def check(path, value):
        fuzzed = files / f"fuzzed-{kind}.json"
        fuzzed.write_text(json.dumps(_replaced(DOCUMENTS[kind], path, value)))
        for command in COMMANDS[kind]:
            try:
                code = main(_argv(command, fuzzed, files) + ["--output", str(files / "artifact.json")])
            except SystemExit as stop:  # argparse's usage error
                code = stop.code
                assert code == 2, (path, value, command)
            assert code in (0, 1, 2), (path, value, command)

    check()


@pytest.mark.parametrize(
    "kind, path, value, named",
    [
        ("group", ("irreps",), 5, "'irreps'"),
        ("group", ("order",), None, "'order'"),
        ("group", ("identity",), [0], "'identity'"),
        ("group", ("mult", 2), None, "mult table"),
        ("group", ("irreps", 2, "matrices"), 5, "'matrices'"),
        ("group", ("irreps", 2, "matrices", 1), [[[1, 0], [0, 0]], [[0, 0]]], "rows differ in length"),
        ("poly", ("degree",), [2], "'degree'"),
        ("poly", ("codomain_dim",), None, "'codomain_dim'"),
        ("poly", ("tensor",), 5, "'tensor'"),
        ("poly", ("domain",), 5, "'domain'"),
        ("element", (), [], "JSON object"),
        ("phi", ("codomain_dim",), "2", "'codomain_dim'"),
    ],
)
def test_a_wrongly_typed_field_is_named_in_the_usage_error(kind, path, value, named, files, capsys):
    fuzzed = files / f"named-{kind}.json"
    fuzzed.write_text(json.dumps(_replaced(DOCUMENTS[kind], path, value)))
    assert main(_argv(COMMANDS[kind][-1], fuzzed, files)) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err, err
