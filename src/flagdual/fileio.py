"""JSON file format for triangulations with decorations.

    {
      "tetrahedra": N,
      "pairings": [{"tetA": n, "faceA": [i, j, k],
                    "tetB": n, "faceB": [i', j', k'],
                    "map": [[i, i'], [j, j'], [k, k']]}, ...],
      "decoration": {"mode": "coords" | "flags", "data": [...]}
    }

Vertex labels run 1..4 and faceA is oriented as the boundary of tetA.
Scalars use the shared encoding: exact values as strings "a/b" or
"a/b+c/d*i", float values as two-element [re, im] arrays.  Loading with
backend="exact" rejects files containing float literals; "float"
coerces exact literals; "auto" keeps whatever the file uses.
"""

from __future__ import annotations

import json

from .complexes import (DecoratedComplex, Decoration, FacePairing,
                        IdealTriangulation, per_tetrahedron)
from .errors import FlagdualError, ParseError
from .flags import Flag, FlagTuple
from .scalars import scalar_from_json, scalar_to_json
from .tetra import TetraCoords


def _coords_from_json(item, backend):
    try:
        return TetraCoords.from_json(item, backend)
    except (KeyError, TypeError, IndexError) as exc:
        raise ParseError(f"malformed coordinate record: {exc}") from exc
    except ValueError as exc:
        if isinstance(exc, FlagdualError):
            raise  # domain errors (bad values) keep their meaning
        raise ParseError(f"malformed coordinate record: {exc}") from exc


def _flags_from_json(item, backend):
    if not isinstance(item, list) or len(item) != 4:
        raise ParseError("each tetrahedron needs exactly four flags")
    flags = []
    for data in item:
        try:
            point = [scalar_from_json(v, backend) for v in data["point"]]
            line = [scalar_from_json(v, backend) for v in data["line"]]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed flag record: {data!r}") from exc
        if len(point) != 3 or len(line) != 3:
            raise ParseError(
                f"flag point and line need three scalars each: {data!r}")
        flags.append(Flag(point, line))
    return FlagTuple(flags)


def flag_to_json(flag: Flag):
    return {"point": [scalar_to_json(c) for c in flag.point],
            "line": [scalar_to_json(c) for c in flag.line]}


def load_complex(data: dict, backend: str = "auto") -> DecoratedComplex:
    if backend not in ("auto", "exact", "float"):
        raise ParseError(f"unknown backend {backend!r}")
    try:
        n = int(data["tetrahedra"])
        pairing_data = data.get("pairings", [])
        deco = data["decoration"]
        mode = deco["mode"]
        items = deco["data"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed complex file: {exc}") from exc
    if not isinstance(pairing_data, list) or not isinstance(items, list):
        raise ParseError("pairings and decoration data must be JSON lists")
    pairings = []
    for k, p in enumerate(pairing_data):
        try:
            pairings.append(FacePairing.from_json(p))
        except ParseError as exc:
            raise ParseError(f"pairing {k}: {exc}") from exc
    triangulation = IdealTriangulation(n, pairings)
    if len(items) != n:
        raise ParseError(
            f"decoration has {len(items)} entries for {n} tetrahedra")
    if mode == "coords":
        decoration = Decoration(
            per_tetrahedron(_coords_from_json, items, backend))
    elif mode == "flags":
        decoration = Decoration.from_flags(
            per_tetrahedron(_flags_from_json, items, backend))
    else:
        raise ParseError(f"unknown decoration mode {mode!r}")
    return DecoratedComplex(triangulation, decoration)


def dump_complex(dc: DecoratedComplex, keep_flags=False) -> dict:
    """The file form of dc; with keep_flags, the decoration is written
    as the flags it was measured from, when it carries them."""
    tuples = dc.decoration.flag_tuples if keep_flags else None
    if tuples is None:
        decoration = {"mode": "coords",
                      "data": [c.to_json() for c in dc.coords]}
    else:
        decoration = {"mode": "flags",
                      "data": [[flag_to_json(f) for f in t] for t in tuples]}
    return {
        "tetrahedra": dc.triangulation.n,
        "pairings": [p.to_json() for p in dc.triangulation.pairings],
        "decoration": decoration,
    }


def read_complex(path, backend: str = "auto") -> DecoratedComplex:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    return load_complex(data, backend)


def write_complex(path, dc: DecoratedComplex, keep_flags=False):
    data = dump_complex(dc, keep_flags)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
