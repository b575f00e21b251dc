"""JSON schemas for lattices, maps, matrices, operators, and state spaces.

All floats round-trip bit-identically through these encoders. Parse
failures raise :class:`ParseError`, with line/column information when the
underlying JSON is malformed and a path description when the schema is.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ParseError, UnknownElement
from .galois import JoinMap
from .lattice import FiniteLattice, OrthoLattice, _indices_ok, attach_ortho, build_lattice
from .operators import ANTILINEAR, LINEAR, CompoundOperator, TensorVector, from_tensor, schmidt_tensor
from .quantale import ProperStateSpace

def load_json(path) -> object:
    text = Path(path).read_text(encoding="utf-8")
    return loads_json(text, source=str(path))


def loads_json(text: str, source: str = "<string>") -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: {exc.msg}", line=exc.lineno,
                         column=exc.colno) from None


def _require(obj: dict, key: str, where: str):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise ParseError(f"{where}: missing required key {key!r}")
    return obj[key]


@contextmanager
def _building(what: str):
    """Report a ValueError, TypeError or UnknownElement raised while building
    ``what`` from file data as a ParseError (the library's constructors raise
    ValueError; an element index out of range raises UnknownElement).
    Decorates the parsers."""
    try:
        yield
    except (ValueError, TypeError, UnknownElement) as exc:
        raise ParseError(f"{what}: {exc}") from None


# -- lattices ----------------------------------------------------------------

@_building("lattice")
def parse_lattice(obj) -> FiniteLattice | OrthoLattice:
    """{"elements": [...], "leq": [[i, j], ...], "ortho": [...] (optional)}"""
    elements = _require(obj, "elements", "lattice")
    pairs = _require(obj, "leq", "lattice")
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise ParseError("lattice: 'elements' must be a list of strings")
    if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise ParseError("lattice: 'leq' must be a list of [i, j] pairs of indices or labels")
    if "ortho" in obj and not isinstance(obj["ortho"], list):
        raise ParseError("lattice: 'ortho' must be a list of element indices")
    base = build_lattice(elements, [tuple(p) for p in pairs])
    return attach_ortho(base, obj["ortho"]) if "ortho" in obj else base


def parse_base_lattice(obj) -> FiniteLattice:
    """A lattice file read as a plain lattice: any "ortho" list is validated, then dropped."""
    lat = parse_lattice(obj)
    return lat.base if isinstance(lat, OrthoLattice) else lat


def dump_lattice(lat: FiniteLattice | OrthoLattice) -> dict:
    base = lat.base if isinstance(lat, OrthoLattice) else lat
    n = len(base)
    pairs = [[i, j] for i in range(n) for j in range(n) if base.leq[i, j] and i != j]
    out = {"elements": list(base.elements), "leq": pairs}
    if isinstance(lat, OrthoLattice):
        out["ortho"] = list(lat.ortho)
    return out


# -- join maps ---------------------------------------------------------------

@_building("map")
def parse_join_map(obj) -> JoinMap:
    """{"source": <lattice>, "target": <lattice>, "table": [j0, j1, ...]}"""
    source = parse_base_lattice(_require(obj, "source", "map"))
    target = parse_base_lattice(_require(obj, "target", "map"))
    table = _require(obj, "table", "map")
    if not (isinstance(table, list) and len(table) == len(source)
            and _indices_ok(table, len(target))):
        raise ParseError(f"map: 'table' must be a list giving one of the {len(target)} "
                         f"target indices for each of the {len(source)} source elements")
    return JoinMap(source=source, target=target, table=tuple(table))


def dump_join_map(f: JoinMap) -> dict:
    return {
        "source": dump_lattice(f.source),
        "target": dump_lattice(f.target),
        "table": [int(v) for v in f.table],
    }


# -- matrices, vectors, operators ---------------------------------------------

@_building("matrix")
def parse_matrix(obj) -> np.ndarray:
    """{"rows": r, "cols": c, "re": [[...]], "im": [[...]]}"""
    rows = _require(obj, "rows", "matrix")
    cols = _require(obj, "cols", "matrix")
    re = np.asarray(_require(obj, "re", "matrix"), dtype=float)
    im = np.asarray(_require(obj, "im", "matrix"), dtype=float)
    if not all(type(n) is int for n in (rows, cols)):  # bool is an int subclass
        raise ParseError("matrix: 'rows' and 'cols' must be integers")
    expected = (rows, cols)
    shaped = []
    for name, part in (("re", re), ("im", im)):
        if part.size == 0:
            part = part.reshape(expected) if 0 in expected else part
        if part.shape != expected:
            raise ParseError(
                f"matrix: '{name}' has shape {part.shape}, expected {expected}"
            )
        shaped.append(part)
    return shaped[0] + 1j * shaped[1]


def dump_matrix(matrix: np.ndarray) -> dict:
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim == 1:
        arr = arr[:, None]
    return {
        "rows": arr.shape[0],
        "cols": arr.shape[1],
        "re": arr.real.tolist(),
        "im": arr.imag.tolist(),
    }


def parse_vector(obj) -> np.ndarray:
    arr = parse_matrix(obj)
    if arr.shape[1] != 1:
        raise ParseError(f"vector: expected a single column, got {arr.shape[1]}")
    return arr[:, 0]


def parse_operator(obj) -> CompoundOperator:
    """A matrix object with an optional "linearity" flag (default linear)."""
    matrix = parse_matrix(obj)
    flag = obj.get("linearity", LINEAR)
    if flag not in (LINEAR, ANTILINEAR):
        raise ParseError(f"operator: unknown linearity {flag!r}")
    return CompoundOperator(matrix, flag)


def dump_operator(op: CompoundOperator) -> dict:
    out = dump_matrix(op.matrix)
    out["linearity"] = op.linearity
    return out


# -- tensor vectors ------------------------------------------------------------

@_building("tensor vector")
def parse_tensor_vector(obj) -> TensorVector:
    """{"coefficients": {"re": [...], "im": [...]},
        "left_basis": <matrix>, "right_basis": <matrix>}"""
    coeff = _require(obj, "coefficients", "tensor vector")
    re = np.asarray(_require(coeff, "re", "coefficients"), dtype=float)
    im = np.asarray(_require(coeff, "im", "coefficients"), dtype=float)
    if re.shape != im.shape or re.ndim != 1:
        raise ParseError("tensor vector: coefficient parts must be equal-length lists")
    left = parse_matrix(_require(obj, "left_basis", "tensor vector"))
    right = parse_matrix(_require(obj, "right_basis", "tensor vector"))
    return TensorVector(re + 1j * im, left, right)


def dump_tensor_vector(tv: TensorVector) -> dict:
    return {
        "coefficients": {
            "re": tv.coefficients.real.tolist(),
            "im": tv.coefficients.imag.tolist(),
        },
        "left_basis": dump_matrix(tv.left_basis),
        "right_basis": dump_matrix(tv.right_basis),
    }


# -- proper state spaces --------------------------------------------------------

@_building("state space")
def parse_space(obj) -> ProperStateSpace:
    """{"states": [...], "lattice": <lattice>, "c_map": [li, ...]}"""
    states = _require(obj, "states", "state space")
    lattice = parse_base_lattice(_require(obj, "lattice", "state space"))
    c_map = _require(obj, "c_map", "state space")
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise ParseError("state space: 'states' must be a list of strings")
    if not isinstance(c_map, list):
        raise ParseError("state space: 'c_map' must be a list of lattice indices")
    return ProperStateSpace(tuple(states), lattice, tuple(c_map))


def dump_space(space: ProperStateSpace) -> dict:
    return {
        "states": list(space.states),
        "lattice": dump_lattice(space.lattice),
        "c_map": [int(v) for v in space.c_map],
    }


# -- format conversion -----------------------------------------------------------

_CODECS = {
    "lattice-json": (parse_lattice, dump_lattice),
    "map-json": (parse_join_map, dump_join_map),
    "matrix-json": (parse_operator, dump_operator),
    "tv-json": (parse_tensor_vector, dump_tensor_vector),
}
FORMATS = tuple(_CODECS)


def convert(data: object, source_format: str, target_format: str) -> object:
    """Convert between the supported on-disk formats.

    Same-format conversion re-validates and re-emits. A tensor vector
    converts to the anti-linear operator it induces; a matrix or operator
    converts back to coefficient form through its singular value pairs,
    preserving the operator it denotes (coefficients and bases themselves
    are canonical only up to phase).
    """
    for fmt in (source_format, target_format):
        if fmt not in FORMATS:
            raise ParseError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    if source_format == target_format:
        parse, dump = _CODECS[source_format]
        return dump(parse(data))
    if source_format == "tv-json" and target_format == "matrix-json":
        return dump_operator(from_tensor(parse_tensor_vector(data), ANTILINEAR))
    if source_format == "matrix-json" and target_format == "tv-json":
        return dump_tensor_vector(schmidt_tensor(parse_operator(data)))
    raise ParseError(
        f"no conversion from {source_format!r} to {target_format!r}"
    )
