"""On-disk formats: schemas, round trips, and conversions."""

from __future__ import annotations

import json

import numpy as np
import pytest

from compoundness import jsonio
from compoundness.catalog import boolean, chain, mo
from compoundness.errors import ParseError
from compoundness.galois import JoinMap, separation_state
from compoundness.lattice import OrthoLattice
from compoundness.operators import ANTILINEAR, from_tensor
from compoundness.quantale import ProperStateSpace
from compoundness.sampling import random_operator, random_tensor_vector


def test_lattice_round_trip_plain_and_ortho():
    plain = chain(3)
    again = jsonio.parse_lattice(jsonio.dump_lattice(plain))
    assert again.same_structure(plain)
    assert again.elements == plain.elements

    ortho = mo(2)
    again = jsonio.parse_lattice(jsonio.dump_lattice(ortho))
    assert isinstance(again, OrthoLattice)
    assert again.ortho == ortho.ortho
    assert again.base.same_structure(ortho.base)


def test_join_map_round_trip():
    f = separation_state(boolean(2).base, chain(2))
    again = jsonio.parse_join_map(jsonio.dump_join_map(f))
    assert again.table == f.table
    assert again.source.same_structure(f.source)


def test_join_map_with_a_numpy_table_dumps_to_json():
    f = JoinMap(chain(2), chain(2), tuple(np.array([0, 1])))
    again = jsonio.parse_join_map(json.loads(json.dumps(jsonio.dump_join_map(f))))
    assert again.table == (0, 1)


def test_matrix_round_trip_is_bit_identical():
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    text = json.dumps(jsonio.dump_matrix(matrix))
    again = jsonio.parse_matrix(json.loads(text))
    assert again.shape == matrix.shape
    assert np.array_equal(again, matrix)  # exact, no tolerance


def test_vector_requires_single_column():
    with pytest.raises(ParseError):
        jsonio.parse_vector(jsonio.dump_matrix(np.eye(2)))
    v = jsonio.parse_vector(jsonio.dump_matrix(np.array([[1.0], [2.0]])))
    assert v.shape == (2,)


def test_operator_round_trip_keeps_linearity():
    op = random_operator(np.random.default_rng(1), 2, 3, ANTILINEAR)
    again = jsonio.parse_operator(jsonio.dump_operator(op))
    assert again.linearity == ANTILINEAR
    assert np.array_equal(again.matrix, op.matrix)


def test_tensor_vector_round_trip():
    tv = random_tensor_vector(np.random.default_rng(2), 3, 2, 2)
    again = jsonio.parse_tensor_vector(jsonio.dump_tensor_vector(tv))
    assert np.array_equal(again.coefficients, tv.coefficients)
    assert np.array_equal(again.left_basis, tv.left_basis)


def test_space_round_trip():
    space = ProperStateSpace(("p", "q"), chain(2), (1, 1))
    again = jsonio.parse_space(jsonio.dump_space(space))
    assert again.states == space.states
    assert again.c_map == space.c_map


def test_space_with_a_numpy_c_map_dumps_to_json():
    space = ProperStateSpace(("p", "q"), chain(2), tuple(np.array([0, 1])))
    again = jsonio.parse_space(json.loads(json.dumps(jsonio.dump_space(space))))
    assert again.c_map == (0, 1)


def test_malformed_json_carries_line_and_column():
    with pytest.raises(ParseError) as excinfo:
        jsonio.loads_json('{"elements": [,]}')
    assert excinfo.value.line == 1
    assert excinfo.value.column is not None


def test_schema_violations_raise_parse_errors():
    with pytest.raises(ParseError, match="missing required key"):
        jsonio.parse_lattice({"elements": ["0", "1"]})
    with pytest.raises(ParseError):
        jsonio.parse_matrix({"rows": 2, "cols": 2, "re": [[1.0]], "im": [[0.0]]})
    with pytest.raises(ParseError):
        jsonio.parse_operator(dict(jsonio.dump_matrix(np.eye(2)), linearity="sideways"))


def test_parse_base_lattice_validates_then_drops_ortho():
    read = jsonio.parse_base_lattice(jsonio.dump_lattice(mo(2)))
    assert not isinstance(read, OrthoLattice)
    assert read.same_structure(mo(2).base)
    with pytest.raises(ParseError):
        jsonio.parse_base_lattice(dict(jsonio.dump_lattice(mo(2)), ortho=[5, 2, 1]))


def test_same_format_conversion_revalidates():
    data = jsonio.dump_matrix(np.eye(2))
    out = jsonio.convert(data, "matrix-json", "matrix-json")
    assert out["re"] == data["re"]


def test_tv_to_matrix_to_tv_preserves_the_operator():
    rng = np.random.default_rng(3)
    tv = random_tensor_vector(rng, 3, 3, 2)
    as_matrix = jsonio.convert(jsonio.dump_tensor_vector(tv), "tv-json", "matrix-json")
    back = jsonio.convert(as_matrix, "matrix-json", "tv-json")
    original = from_tensor(tv, ANTILINEAR)
    recovered = from_tensor(jsonio.parse_tensor_vector(back), ANTILINEAR)
    assert np.linalg.norm(original.matrix - recovered.matrix) <= 1e-12


def test_unknown_formats_and_conversions_rejected():
    with pytest.raises(ParseError):
        jsonio.convert({}, "matrix-json", "yaml")
    with pytest.raises(ParseError):
        jsonio.convert({}, "lattice-json", "tv-json")
