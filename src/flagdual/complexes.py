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

The triangulation owns these equations: one table of rows, built on
first use and kept (IdealTriangulation.equations).  check_faces and
check_edges evaluate the rows here in pure Python on either backend;
the solver turns the same rows into its numpy arrays.

beta sums the four minimal-coordinate generators of every tetrahedron in
the pre-Bloch group; a quarter of D applied to it is the volume.  The
duality defect collects [-z_face] over all faces of all tetrahedra; after
six-orbit canonicalization the paired faces cancel, so it measures
exactly the boundary contribution to beta(K,z) - beta(K,z*).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations

from .duality import defect_pairs, dual_coords_closed
from .errors import BackendMismatch, FlagdualError, MalformedPairing
from .prebloch import FormalSum, sum_D
from .tetra import CANONICAL_FACES, EVEN_COMPLETION, VERTICES, edge_coords
from .tolerances import CHECK_TOL

# the 12 oriented edges in lexicographic order, and their indices
_DIRECTED = tuple(EVEN_COMPLETION)
_EDGE_ID = {e: k for k, e in enumerate(_DIRECTED)}


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
                    or not set(face) <= set(VERTICES):
                raise MalformedPairing(f"face triple {face} is not simplicial")

    @property
    def vmap(self) -> dict:
        return dict(zip(self.face_a, self.face_b))


class IdealTriangulation:
    """N tetrahedra plus face pairings; every face pairs at most once.
    Edge orbits and gluing equations are built on first use and kept."""

    def __init__(self, n_tetrahedra: int, pairings):
        if n_tetrahedra < 0:
            raise MalformedPairing("negative tetrahedron count")
        self.n = int(n_tetrahedra)
        self.pairings = tuple(pairings)
        self._paired = set()
        for p in self.pairings:
            if (p.tet_a, frozenset(p.face_a)) == (p.tet_b, frozenset(p.face_b)):
                raise MalformedPairing("a face cannot be paired with itself")
            for tet, face in ((p.tet_a, p.face_a), (p.tet_b, p.face_b)):
                if not 0 <= tet < self.n:
                    raise MalformedPairing(
                        f"tetrahedron index {tet} out of range 0..{self.n - 1}")
                key = (tet, frozenset(face))
                if key in self._paired:
                    raise MalformedPairing(
                        f"face {sorted(face)} of tetrahedron {tet} "
                        "appears in two pairings")
                self._paired.add(key)

    def boundary_faces(self):
        """(tet, canonical face triple) for every unpaired face."""
        return [(tet, f) for tet in range(self.n) for f in CANONICAL_FACES
                if (tet, frozenset(f)) not in self._paired]

    def is_closed(self) -> bool:
        return not self.boundary_faces()

    # -- edge orbits and gluing equations --------------------------------

    @cached_property
    def _edges(self):
        """(directed orbits, edge classes), by one union-find over the
        ids 12*tet + k of the oriented edges, k indexing _DIRECTED."""
        parent = list(range(12 * self.n))

        def find(x):
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        for p in self.pairings:
            mu = p.vmap
            for a, b in permutations(p.face_a, 2):
                parent[find(12 * p.tet_a + _EDGE_ID[a, b])] = \
                    find(12 * p.tet_b + _EDGE_ID[mu[a], mu[b]])
        groups = {}
        for e in range(12 * self.n):
            groups.setdefault(find(e), []).append(e)
        # ids ascend as (tet, i, j) does, so each orbit and the list of
        # orbits come out sorted
        orbits = {root: tuple((e // 12, *_DIRECTED[e % 12]) for e in g)
                  for root, g in groups.items()}
        classes = {}
        for root, orbit in orbits.items():
            tet, i, j = orbit[0]
            reverse = find(12 * tet + _EDGE_ID[j, i])
            if reverse not in classes:
                classes[root] = EdgeClass(orbit, orbits[reverse])
        return tuple(orbits.values()), tuple(classes.values())

    def edge_orbits(self):
        """Partition of all 12N oriented edges into directed orbits."""
        return self._edges[0]

    def edge_classes(self):
        """Directed orbits paired with their reversals."""
        return self._edges[1]

    @cached_property
    def equations(self):
        """The gluing equations as rows, each a product that must equal 1.

        A row is a tuple of terms (tet, vertices): an ordered pair is an
        edge coordinate, an ordered triple a face coordinate (the
        reciprocal when odd).  One row per pairing (faceA in tetA, then
        faceB in tetB in reversed orientation, so that both are
        boundary-oriented for orientation-reversing gluings), then per
        edge class its forward and its reverse product.
        """
        return self._face_rows + tuple(
            tuple((tet, (i, j)) for tet, i, j in members)
            for cls in self.edge_classes()
            for members in (cls.members, cls.reverse_members))

    @cached_property
    def _face_rows(self):
        """The pairing rows of equations, which need no edge orbits."""
        return tuple(((p.tet_a, p.face_a), (p.tet_b, p.face_b[::-1]))
                     for p in self.pairings)


@dataclass(frozen=True)
class EdgeClass:
    """One undirected edge class: a directed orbit and its reversal."""

    members: tuple  # (tet, i, j) triples
    reverse_members: tuple


def per_tetrahedron(f, items) -> list:
    """[f(item) for item in items], a package error naming the
    tetrahedron; it keeps its class, so the CLI keeps its exit code."""
    out = []
    for nu, item in enumerate(items):
        try:
            out.append(f(item))
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
    value: object  # the product that should equal 1 (edges: the pair)
    residual: float
    exact_ok: bool | None  # None in the float backend


def worst_residual(residuals) -> float:
    """The largest residual (0.0 for none), NaN when any is NaN."""
    return max(residuals, key=lambda r: (math.isnan(r), r), default=0.0)


@dataclass
class CheckReport:
    kind: str
    items: list = field(default_factory=list)

    @property
    def max_residual(self) -> float:
        return worst_residual(it.residual for it in self.items)

    def passed(self, tol=CHECK_TOL) -> bool:
        return not self.failures(tol)

    def failures(self, tol=CHECK_TOL):
        if any(it.exact_ok is not None for it in self.items):
            return [it for it in self.items if not it.exact_ok]
        # "not <=", so that a NaN residual fails
        return [it for it in self.items if not it.residual <= tol]


def _row_values(coords, row) -> list:
    """The coordinate values whose product an equation row sets to 1."""
    return [coords[tet].edge_value(*v) if len(v) == 2
            else coords[tet].face_value(*v) for tet, v in row]


def _check(kind, dc, groups) -> CheckReport:
    """One item per (label, rows) group: its row products (a tuple of
    several), the worst |product - 1| and the exact verdict."""
    exact = dc.decoration.exact
    report = CheckReport(kind)
    for label, rows in groups:
        products = [math.prod(_row_values(dc.coords, row)) for row in rows]
        report.items.append(CheckItem(
            label, tuple(products) if len(products) > 1 else products[0],
            worst_residual(abs(complex(p) - 1.0) for p in products),
            all(p == 1 for p in products) if exact else None))
    return report


def check_faces(dc: DecoratedComplex) -> CheckReport:
    """Per pairing: matched face coordinates must multiply to 1 (the far
    side in reversed orientation, see IdealTriangulation.equations)."""
    tri = dc.triangulation
    return _check("faces", dc, (
        (f"pairing {n}: T{p.tet_a}({''.join(map(str, p.face_a))}) ~ "
         f"T{p.tet_b}({''.join(map(str, p.face_b))})", (row,))
        for n, (p, row) in enumerate(zip(tri.pairings, tri._face_rows))))


def check_edges(dc: DecoratedComplex) -> CheckReport:
    """Both directed products around every edge class must equal 1."""
    rows = dc.triangulation.equations[len(dc.triangulation.pairings):]
    return _check("edges", dc, (
        (f"edge class {n} (size {len(fwd)})", (fwd, rev))
        for n, (fwd, rev) in enumerate(zip(rows[::2], rows[1::2]))))


def is_consistent(dc: DecoratedComplex, tol=CHECK_TOL) -> bool:
    return check_faces(dc).passed(tol) and check_edges(dc).passed(tol)


# -- invariants ----------------------------------------------------------------

def beta_complex(dc: DecoratedComplex) -> FormalSum:
    """Sum of the per-tetrahedron beta sums, built as one formal sum."""
    return FormalSum([(z, 1) for c in dc.coords for z in c.minimal()])


def volume_complex(dc: DecoratedComplex) -> float:
    """One quarter of D applied to beta: D summed over the minimal
    coordinates, counted with multiplicity (prebloch.sum_D), so no
    FormalSum is merged."""
    return sum_D(z for c in dc.coords for z in c.minimal()) / 4.0


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
