"""Ideal triangulations with face pairings and decorated complexes.

A triangulation is N tetrahedra (vertices labeled 1..4) plus simplicial
face pairings; self-gluings between two faces of one tetrahedron are
allowed (quasi-simplicial complexes).  Oriented tetrahedron edges map
across pairings; their orbits under these maps, computed by union-find,
are the directed edge orbits, and an undirected edge class is an orbit
together with its reversal.

A decoration assigns TetraCoords to every tetrahedron.  The consistency
relations are

* face equations: matched face coordinates multiply to 1 (with the
  orientation-reversal convention for the far side), and
* edge equations: both directed products of edge coordinates around
  every edge class equal 1.

beta sums the four minimal-coordinate generators of every tetrahedron in
the pre-Bloch group; a quarter of D applied to it is the volume.  The
duality defect collects [-z_face] over all faces of all tetrahedra; after
six-orbit canonicalization the paired faces cancel, so it measures
exactly the boundary contribution to beta(K,z) - beta(K,z*).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .duality import defect_pairs, dual_coords_closed
from .errors import BackendMismatch, FlagdualError, MalformedPairing
from .prebloch import FormalSum, eval_D
from .tetra import CANONICAL_FACES, edge_coords
from .tolerances import CHECK_TOL

_VERTICES = (1, 2, 3, 4)


@dataclass(frozen=True)
class FacePairing:
    """One glued face: ordered faceA (boundary-oriented in tetA) and its
    image under the simplicial vertex bijection."""

    tet_a: int
    face_a: tuple
    tet_b: int
    face_b: tuple

    def __post_init__(self):
        for face in (self.face_a, self.face_b):
            if len(face) != 3 or len(set(face)) != 3 \
                    or not set(face) <= set(_VERTICES):
                raise MalformedPairing(f"face triple {face} is not simplicial")

    @property
    def vmap(self) -> dict:
        return dict(zip(self.face_a, self.face_b))

    def face_b_reversed(self):
        b1, b2, b3 = self.face_b
        return (b1, b3, b2)


class IdealTriangulation:
    """N tetrahedra plus face pairings; every face pairs at most once."""

    def __init__(self, n_tetrahedra: int, pairings):
        if n_tetrahedra < 0:
            raise MalformedPairing("negative tetrahedron count")
        self.n = int(n_tetrahedra)
        self.pairings = tuple(pairings)
        seen = set()
        for p in self.pairings:
            for tet, face in ((p.tet_a, p.face_a), (p.tet_b, p.face_b)):
                if not 0 <= tet < self.n:
                    raise MalformedPairing(
                        f"tetrahedron index {tet} out of range 0..{self.n - 1}")
                key = (tet, frozenset(face))
                if key in seen:
                    raise MalformedPairing(
                        f"face {sorted(face)} of tetrahedron {tet} "
                        "appears in two pairings")
                seen.add(key)
            if (p.tet_a, frozenset(p.face_a)) == (p.tet_b, frozenset(p.face_b)):
                raise MalformedPairing(
                    "a face cannot be paired with itself")

    def boundary_faces(self):
        """(tet, canonical face triple) for every unpaired face."""
        paired = {(p.tet_a, frozenset(p.face_a)) for p in self.pairings} | \
                 {(p.tet_b, frozenset(p.face_b)) for p in self.pairings}
        out = []
        for tet in range(self.n):
            for f in CANONICAL_FACES:
                if (tet, frozenset(f)) not in paired:
                    out.append((tet, f))
        return out

    def is_closed(self) -> bool:
        return not self.boundary_faces()

    # -- edge orbits -----------------------------------------------------

    def _edge_maps(self):
        """All gluing-induced maps between oriented edges, both ways."""
        maps = []
        for p in self.pairings:
            mu = p.vmap
            for a in p.face_a:
                for b in p.face_a:
                    if a != b:
                        maps.append(((p.tet_a, a, b),
                                     (p.tet_b, mu[a], mu[b])))
        return maps

    def edge_orbits(self):
        """Partition of all 12N oriented edges into directed orbits."""
        parent = {}

        def find(x):
            parent.setdefault(x, x)
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        def union(x, y):
            parent[find(x)] = find(y)

        for tet in range(self.n):
            for i in _VERTICES:
                for j in _VERTICES:
                    if i != j:
                        find((tet, i, j))
        for src, dst in self._edge_maps():
            union(src, dst)
        groups = {}
        for e in list(parent):
            groups.setdefault(find(e), []).append(e)
        orbits = [tuple(sorted(g)) for g in groups.values()]
        orbits.sort()
        return orbits

    def edge_classes(self):
        """Directed orbits paired with their reversals."""
        orbits = self.edge_orbits()
        where = {}
        for idx, orb in enumerate(orbits):
            for e in orb:
                where[e] = idx
        classes = []
        done = set()
        for idx, orb in enumerate(orbits):
            if idx in done:
                continue
            tet, i, j = orb[0]
            ridx = where[(tet, j, i)]
            done.add(idx)
            done.add(ridx)
            classes.append(EdgeClass(orb, orbits[ridx]))
        return classes


@dataclass(frozen=True)
class EdgeClass:
    """One undirected edge class: a directed orbit and its reversal."""

    members: tuple  # (tet, i, j) triples
    reverse_members: tuple

    @property
    def size(self) -> int:
        return len(self.members)


def per_tetrahedron(f, items, *args) -> list:
    """[f(item, *args) for item in items], a package error naming the
    tetrahedron; it keeps its class, so the CLI keeps its exit code."""
    out = []
    for nu, item in enumerate(items):
        try:
            out.append(f(item, *args))
        except FlagdualError as exc:
            raise type(exc)(f"tetrahedron {nu}: {exc}") from exc
    return out


class Decoration:
    """Per-tetrahedron coordinates (optionally with the source flags)."""

    def __init__(self, coords, flag_tuples=None):
        self.coords = tuple(coords)
        self.flag_tuples = tuple(flag_tuples) if flag_tuples else None
        kinds = {c.exact for c in self.coords}
        if len(kinds) > 1:
            raise BackendMismatch("decoration mixes exact and float tetrahedra")

    @classmethod
    def from_flags(cls, tuples):
        tuples = list(tuples)
        return cls(per_tetrahedron(edge_coords, tuples), tuples)

    def __len__(self):
        return len(self.coords)

    @property
    def exact(self) -> bool:
        return bool(self.coords) and self.coords[0].exact


@dataclass
class DecoratedComplex:
    triangulation: IdealTriangulation
    decoration: Decoration

    def __post_init__(self):
        if len(self.decoration) != self.triangulation.n:
            raise ValueError(
                f"decoration has {len(self.decoration)} tetrahedra, "
                f"triangulation has {self.triangulation.n}")

    @property
    def coords(self):
        return self.decoration.coords


# -- consistency reports -------------------------------------------------------

@dataclass(frozen=True)
class CheckItem:
    label: str
    value: object  # the product that should equal 1
    residual: float
    exact_ok: bool | None  # None in the float backend


@dataclass
class CheckReport:
    kind: str
    items: list = field(default_factory=list)

    @property
    def max_residual(self) -> float:
        return max((it.residual for it in self.items), default=0.0)

    def passed(self, tol=CHECK_TOL) -> bool:
        if any(it.exact_ok is not None for it in self.items):
            return all(it.exact_ok for it in self.items)
        return self.max_residual <= tol

    def failures(self, tol=CHECK_TOL):
        if any(it.exact_ok is not None for it in self.items):
            return [it for it in self.items if not it.exact_ok]
        return [it for it in self.items if it.residual > tol]


def _item(label, product, exact) -> CheckItem:
    residual = abs(complex(product) - 1.0)
    return CheckItem(label, product,
                     residual, (product == 1) if exact else None)


def check_faces(dc: DecoratedComplex) -> CheckReport:
    """Per pairing: matched face coordinates must multiply to 1.

    The far side enters with reversed orientation, so both lookups land
    on boundary-oriented triples for orientation-reversing gluings.
    """
    coords = dc.coords
    exact = dc.decoration.exact
    report = CheckReport("faces")
    for n, p in enumerate(dc.triangulation.pairings):
        va = coords[p.tet_a].face_value(*p.face_a)
        vb = coords[p.tet_b].face_value(*p.face_b_reversed())
        fa = "".join(map(str, p.face_a))
        fb = "".join(map(str, p.face_b))
        report.items.append(_item(
            f"pairing {n}: T{p.tet_a}({fa}) ~ T{p.tet_b}({fb})",
            va * vb, exact))
    return report


def check_edges(dc: DecoratedComplex) -> CheckReport:
    """Both directed products around every edge class must equal 1."""
    coords = dc.coords
    exact = dc.decoration.exact
    report = CheckReport("edges")
    for n, cls in enumerate(dc.triangulation.edge_classes()):
        pf = 1
        for (tet, i, j) in cls.members:
            pf = pf * coords[tet].edge_value(i, j)
        pr = 1
        for (tet, i, j) in cls.reverse_members:
            pr = pr * coords[tet].edge_value(i, j)
        rf = abs(complex(pf) - 1.0)
        rr = abs(complex(pr) - 1.0)
        ok = (pf == 1 and pr == 1) if exact else None
        report.items.append(CheckItem(
            f"edge class {n} (size {cls.size})",
            (pf, pr), max(rf, rr), ok))
    return report


def is_consistent(dc: DecoratedComplex, tol=CHECK_TOL) -> bool:
    return check_faces(dc).passed(tol) and check_edges(dc).passed(tol)


# -- invariants ----------------------------------------------------------------

def beta_complex(dc: DecoratedComplex) -> FormalSum:
    """Sum of the per-tetrahedron beta sums, built as one formal sum."""
    return FormalSum([(z, 1) for c in dc.coords for z in c.minimal()])


def volume_complex(dc: DecoratedComplex) -> float:
    return eval_D(beta_complex(dc)) / 4.0


def dualize(dc: DecoratedComplex) -> DecoratedComplex:
    """Apply the coordinate duality to every tetrahedron.

    If the input satisfies the face and edge equations, so does the
    output; this is checked by the test suite rather than assumed.
    """
    return DecoratedComplex(dc.triangulation, Decoration(
        per_tetrahedron(dual_coords_closed, dc.coords)))


def conjugate_complex(dc: DecoratedComplex) -> DecoratedComplex:
    return DecoratedComplex(
        dc.triangulation,
        Decoration([c.conjugate() for c in dc.coords]))


def duality_defect(dc: DecoratedComplex) -> FormalSum:
    """Sum of [-z_face] over all four faces of every tetrahedron.

    Equals beta(K,z) - beta(K,z*) in the pre-Bloch group.  After
    canonicalize_six, faces matched by a pairing cancel in pairs, so a
    boundaryless consistent complex has canonicalized defect zero.
    """
    pairs = per_tetrahedron(defect_pairs, dc.coords)
    return FormalSum([p for tetra_pairs in pairs for p in tetra_pairs])
