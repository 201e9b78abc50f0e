"""The JSON file format, in both directions: the one module that knows it.

    {
      "tetrahedra": N,
      "pairings": [{"tetA": n, "faceA": [i, j, k],
                    "tetB": n, "faceB": [i', j', k'],
                    "map": [[i, i'], [j, j'], [k, k']]}, ...],
      "decoration": {"mode": "coords" | "flags", "data": [...]}
    }

Vertex labels run 1..4 and faceA is oriented as the boundary of tetA;
"pairings" and "map" are optional.  A coords record has "edges" and
"faces" with exactly the keys of EDGE_KEYS and FACE_KEYS, a flags record
four {"point": [s, s, s], "line": [s, s, s]}.  Counts, indices and
labels are JSON integers; exact scalars are strings "a/b+c/d*i", float
ones [re, im] arrays.  backend="exact" rejects float literals, "float"
coerces exact ones and "auto" keeps what the file has.

load_complex first decodes the whole document, raising ParseError with
a JSON path ("pairings[3].faceA: expected a list of 3 integers, got 5")
on a node of the wrong shape; only then do the geometry constructors
run their domain checks.  The CLI's --json encoders live here too.
"""

from __future__ import annotations

import json
from functools import partial

from .complexes import (CheckReport, DecoratedComplex, Decoration,
                        FacePairing, IdealTriangulation, per_tetrahedron)
from .errors import MalformedPairing, ParseError
from .flags import Flag, FlagTuple
from .prebloch import FormalSum
from .scalars import clip, scalar_from_json, scalar_to_json
from .tetra import CANONICAL_FACES, EVEN_COMPLETION, TetraCoords

EDGE_KEYS = {f"{i}{j}": (i, j) for i, j in EVEN_COMPLETION}
FACE_KEYS = {"".join(map(str, f)): f for f in CANONICAL_FACES}


# -- phase one: the shape of the document -------------------------------------

def _expected(path, what, value) -> ParseError:
    return ParseError(f"{path}: expected {what}, got "
                      + clip(json.dumps(value, default=repr)))


def _record(value, path, keys) -> dict:
    """value, a JSON object holding the given keys."""
    for key in keys:
        if not isinstance(value, dict) or key not in value:
            raise _expected(path, f"an object with the key {json.dumps(key)}",
                            value)
    return value


def _int(value, path, non_negative=False) -> int:
    if isinstance(value, bool) or not isinstance(value, int) \
            or non_negative and value < 0:
        raise _expected(path, "a non-negative integer" if non_negative
                        else "an integer", value)
    return value


def _list(value, path, decode, length=None, what="") -> tuple:
    """A JSON list, of the given length if any, decoded item by item."""
    if not isinstance(value, list) or length not in (None, len(value)):
        raise _expected(path, "a list" if length is None
                        else f"a list of {length} {what}", value)
    return tuple(decode(v, f"{path}[{k}]") for k, v in enumerate(value))


def _scalar(value, path, backend):
    try:
        return scalar_from_json(value, backend)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _keyed(value, path, keys, backend) -> dict:
    """Exactly the given keys, their scalars keyed by vertex tuples."""
    if not isinstance(value, dict) or value.keys() != keys.keys():
        got = list(value) if isinstance(value, dict) else value
        raise _expected(path, f"the keys {json.dumps(list(keys))}", got)
    return {keys[k]: _scalar(v, f"{path}.{k}", backend)
            for k, v in value.items()}


def _pairing(p, path) -> tuple:
    _record(p, path, ("tetA", "faceA", "tetB", "faceB"))
    vertex_pair = partial(_list, decode=_int, length=2, what="integers")
    return (_int(p["tetA"], f"{path}.tetA"),
            _list(p["faceA"], f"{path}.faceA", _int, 3, "integers"),
            _int(p["tetB"], f"{path}.tetB"),
            _list(p["faceB"], f"{path}.faceB", _int, 3, "integers"),
            _list(p.get("map", []), f"{path}.map", vertex_pair))


def _coords_record(item, path, backend) -> tuple:
    _record(item, path, ("edges", "faces"))
    return (_keyed(item["edges"], f"{path}.edges", EDGE_KEYS, backend),
            _keyed(item["faces"], f"{path}.faces", FACE_KEYS, backend))


def _flag(flag, path, backend) -> tuple:
    _record(flag, path, ("point", "line"))
    scalar = partial(_scalar, backend=backend)
    return tuple(_list(flag[key], f"{path}.{key}", scalar, 3, "scalars")
                 for key in ("point", "line"))


def _decode(data, backend) -> tuple:
    """(n, pairing fields, mode, records), decoded into plain values."""
    _record(data, "top level", ("tetrahedra", "decoration"))
    n = _int(data["tetrahedra"], "tetrahedra", non_negative=True)
    pairings = _list(data.get("pairings", []), "pairings", _pairing)
    deco = _record(data["decoration"], "decoration", ("mode", "data"))
    mode = deco["mode"]
    if mode not in ("coords", "flags"):
        raise _expected("decoration.mode", '"coords" or "flags"', mode)
    if mode == "coords":
        record = partial(_coords_record, backend=backend)
    else:  # four flags per tetrahedron
        record = partial(_list, decode=partial(_flag, backend=backend),
                         length=4, what="flags")
    return n, pairings, mode, _list(deco["data"], "decoration.data", record,
                                    n, "records")


# -- phase two: the geometry ---------------------------------------------------

def _glue(tet_a, face_a, tet_b, face_b, entries) -> FacePairing:
    """The pairing; its map, when given, must carry faceA onto faceB."""
    vmap = dict(entries)
    if vmap:
        if set(vmap) != set(face_a) or len(set(vmap.values())) != 3 \
                or set(vmap.values()) != set(face_b):
            raise MalformedPairing(
                f"vertex map {vmap} is not a bijection {face_a} -> {face_b}")
        image = tuple(vmap[a] for a in face_a)
        if image != face_b:
            raise MalformedPairing(
                f"faceB {face_b} is not the ordered image {image} "
                "of faceA under the map")
    return FacePairing(tet_a, face_a, tet_b, face_b)


def load_complex(data: dict, backend: str = "auto") -> DecoratedComplex:
    if backend not in ("auto", "exact", "float"):
        raise ParseError(f"unknown backend {backend!r}")
    n, pairings, mode, records = _decode(data, backend)
    triangulation = IdealTriangulation(n, [_glue(*p) for p in pairings])
    if mode == "coords":
        decoration = Decoration(per_tetrahedron(
            lambda edges_faces: TetraCoords(*edges_faces), records))
    else:
        decoration = Decoration.from_flags(per_tetrahedron(
            lambda flags: FlagTuple([Flag(*f) for f in flags]), records))
    return DecoratedComplex(triangulation, decoration)


# -- encoders ------------------------------------------------------------------

def _encode(values, keys) -> dict:
    return {k: scalar_to_json(values[v]) for k, v in keys.items()}


def dump_complex(dc: DecoratedComplex, keep_flags=False) -> dict:
    """The file form of dc; with keep_flags, the decoration is written
    as the flags it was measured from, when it carries them."""
    tuples = dc.decoration.flag_tuples if keep_flags else None
    if tuples is None:
        decoration = {"mode": "coords", "data": [
            {"edges": _encode(c.edge, EDGE_KEYS),
             "faces": _encode(c.face, FACE_KEYS)} for c in dc.coords]}
    else:
        decoration = {"mode": "flags", "data": [
            [{"point": list(map(scalar_to_json, f.point)),
              "line": list(map(scalar_to_json, f.line))} for f in t]
            for t in tuples]}
    return {
        "tetrahedra": dc.triangulation.n,
        "pairings": [{"tetA": p.tet_a, "faceA": list(p.face_a),
                      "tetB": p.tet_b, "faceB": list(p.face_b),
                      "map": [list(ab) for ab in zip(p.face_a, p.face_b)]}
                     for p in dc.triangulation.pairings],
        "decoration": decoration,
    }


def sum_to_json(s: FormalSum) -> list:
    return [{"coeff": n, "gen": scalar_to_json(g)} for g, n in s.terms]


def report_to_json(report: CheckReport) -> dict:
    return {
        "kind": report.kind,
        "items": [{"label": it.label, "residual": it.residual,
                   "ok": None if it.exact_ok is None else bool(it.exact_ok)}
                  for it in report.items],
        "max_residual": report.max_residual,
    }


def read_complex(path, backend: str = "auto") -> DecoratedComplex:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    # ValueError: not JSON, not UTF-8, or an int beyond the digit limit
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return load_complex(data, backend)


def write_complex(path, dc: DecoratedComplex, keep_flags=False):
    """Write dc to path; a value that cannot be encoded leaves no file."""
    text = json.dumps(dump_complex(dc, keep_flags), indent=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
