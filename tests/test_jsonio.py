"""The one codec for complex arrays at the JSON boundary: `to_pairs` and `from_pairs`."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oapoly.jsonio as jsonio
from oapoly import builtin_group_by_name, pn_bound, sn_bound
from oapoly.certificates import certificate_from_json, certificate_to_json
from oapoly.domains import GroupAlgebra
from oapoly.fourier import AlgElement, element_from_json, element_to_json
from oapoly.groups import group_from_json, group_to_json
from oapoly.jsonio import canonical_dumps, from_pairs, to_pairs
from oapoly.polynomials import HomPoly, poly_from_json, poly_to_json, tensor_of
from oapoly.represent import LinearMap, linear_map_from_json, linear_map_to_json

EDGES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308, 1.7976931348623157e308]
FLOATS = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    z=st.integers(0, 3).flatmap(
        lambda ndim: hnp.arrays(
            np.float64, hnp.array_shapes(min_dims=ndim + 1, max_dims=ndim + 1, min_side=1, max_side=3).map(
                lambda shape: shape[:-1] + (2,)
            ),
            elements=FLOATS,
        )
    )
)
def test_pairs_round_trip_bit_for_bit(z):
    z = z.view(np.complex128)[..., 0]
    through_text = json.loads(canonical_dumps(to_pairs(z)))
    back = from_pairs(through_text, "the drawn array", z.ndim)
    assert back.dtype == np.complex128 and back.shape == z.shape
    assert back.tobytes() == z.tobytes()  # -0.0 and subnormals included


def test_the_writer_bytes_are_pinned():
    z = np.array(
        [[complex(1 / 3, 0.0), complex(-0.0, 5e-324)], [complex(1e308, -1e-310), complex(-2.5, 0.1)]]
    )
    literal = "[[[0.3333333333333333,0.0],[-0.0,5e-324]],[[1e+308,-1e-310],[-2.5,0.1]]]"
    assert canonical_dumps(to_pairs(z)) == literal
    assert canonical_dumps(to_pairs(complex(-0.0, 1e308))) == "[-0.0,1e+308]"
    assert canonical_dumps(to_pairs(np.zeros((0, 3)))) == "[]"


@pytest.mark.parametrize("number", [" 1.5", "1_0", "+2", True, 2**70, "1e5"])
def test_a_number_is_what_float_reads(number):
    assert from_pairs([[number, 0], [0, number]], "pairs", 1).tolist() == [float(number), 1j * float(number)]


@pytest.mark.parametrize("number", ["0x10", "", "1j", 1e999, "nan", "inf", "-Infinity", 10**400, None, [1], {}])
def test_a_pair_that_is_not_two_finite_numbers_is_named(number):
    with pytest.raises(ValueError, match=r"expected a \[re, im\] pair of finite numbers, got \["):
        from_pairs([[0, 0], [number, 0]], "pairs", 1)
    with pytest.raises(ValueError, match=r"expected a \[re, im\] pair of finite numbers"):
        from_pairs([0, number], "a pair", 0)


@pytest.mark.parametrize(
    "value, ndim, named",
    [
        (5, 1, "list in the [re, im] pairs of the values, got 5"),
        (None, 2, "got None"),
        ([[1, 0], [2], [None, 0]], 1, "pair of finite numbers, got [2]"),
        ([[1, 0]], 2, "pair of finite numbers, got 1"),
        ([[[1, 0, 0]]], 2, "pair of finite numbers, got [1, 0, 0]"),
        ([[[1, 0]], [[1, 0], [2, 0]]], 2, "rows differ in length in the values"),
        ([[[[0, 0]] * 2] * 2, [[[0, 0]]]], 3, "rows differ in length"),
        ([[[[0, 0]] * 2] * 2, [[[0, 0]]] * 2], 3, "rows differ in length"),
        ([[0, 0], [1, 0]], 0, "pair of finite numbers, got [[0, 0], [1, 0]]"),
    ],
)
def test_the_first_node_at_fault_is_named(value, ndim, named):
    with pytest.raises(ValueError) as info:
        from_pairs(value, "the values", ndim)
    assert named in str(info.value)


def test_an_empty_list_of_pairs_is_an_empty_array():
    assert from_pairs([], "pairs", 1).shape == (0,)
    assert from_pairs([[]], "rows", 2).shape == (1, 0)
    assert from_pairs([], "rows", 2).dtype == np.complex128


def test_no_loader_walks_the_pairs_on_its_success_path(monkeypatch):
    """The per-node walk names a fault; a valid file never reaches it."""

    def walked(*args):
        raise AssertionError("a valid file was walked pair by pair")

    monkeypatch.setattr(jsonio, "_nest_shape", walked)
    group, registry = builtin_group_by_name("d16")
    loaded_group, loaded_registry = group_from_json(group_to_json(group, registry))
    for rep, loaded in zip(registry.irreps, loaded_registry.irreps):
        assert loaded.matrices.tobytes() == rep.matrices.tobytes()
    domain = GroupAlgebra(group, registry)
    rng = np.random.default_rng(5)
    a = AlgElement(group, domain.random(rng))
    assert element_from_json(element_to_json(a), group).values.tobytes() == a.values.tobytes()
    matrix = rng.standard_normal((2, 32)) + 1j * rng.standard_normal((2, 32))
    loaded_map = linear_map_from_json(linear_map_to_json(LinearMap(domain, 2, matrix)), domain)
    assert loaded_map.matrix.tobytes() == matrix.tobytes()
    for codomain_dim in (1, 2):
        P = HomPoly.prototypical(matrix[:codomain_dim], 2, domain)
        P = HomPoly.from_tensor(2, domain, codomain_dim, tensor_of(P))
        assert poly_to_json(poly_from_json(poly_to_json(P), domain)) == poly_to_json(P)
    for cert in (sn_bound(a, 3).certificate, pn_bound(a, 3, registry).certificate):
        doc = certificate_to_json(cert)
        assert certificate_to_json(certificate_from_json(doc, group)) == doc
