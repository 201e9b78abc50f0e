"""Coordinates of 3- and 4-flag configurations.

A generic tetrahedron of flags carries 12 edge coordinates z_ij (one per
oriented edge) and 4 face coordinates z_ijk (triple ratios of the
boundary-oriented faces).  Four edge coordinates, the minimal chart
(z12, z21, z34, z43), determine everything:

* around each vertex the three outgoing coordinates are cyclically
  related,  z_ik = 1/(1 - z_ij)  and  z_il = 1 - 1/z_ij  for (i,j,k,l)
  an even permutation of (1,2,3,4), so their product is -1;
* each face coordinate is minus the product of the three edge
  coordinates pointing at the opposite vertex, z_ijk = -z_il z_jl z_kl.

The chart is stated once, in module tables that TetraCoords and the
solver read: EDGE_SHAPES gives each edge, in canonical key order, as a
shape z, 1/(1-z) or 1-1/z of one minimal coordinate, FACE_EDGES the
edges of each face relation, and CHART_FACTORS every ordered pair or
triple as a signed product of shapes.  TetraCoords(edge, face), which
the file loader and float edge_coords call, validates the relations;
values the library derives are only domain-checked, each once (the
chart of complete_from_minimal and duality.dual_coords_closed,
relabeled, conjugate, exact edge_coords).  EVEN_COMPLETION and
CANONICAL_FACES, the most error-prone convention, are in the README.
"""

from __future__ import annotations

from itertools import permutations
from math import prod
from typing import NamedTuple

from .errors import DegenerateInput, NotVeryGeneric, OutOfDomain
from .flags import Flag, FlagTuple, cross_pairings, measurements
from .gaussian import gi_mul
from .prebloch import FormalSum, sum_D
from .scalars import (GaussRational, check_domain, gauss_quotient, is_exact,
                      nearly_equal, normalize_values)
from .tolerances import VALIDATION_TOL, VERY_GENERIC_TOL

VERTICES = (1, 2, 3, 4)


def perm_parity(seq) -> int:
    """+1 for even permutations, -1 for odd."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def _build_even_completion():
    table = {}
    for i, j in permutations(VERTICES, 2):
        k, l = (v for v in VERTICES if v not in (i, j))
        table[(i, j)] = (k, l) if perm_parity((i, j, k, l)) == 1 else (l, k)
    return table


# (i, j) -> (k, l) with (i, j, k, l) an even permutation of (1, 2, 3, 4);
# its sorted key order is that of TetraCoords.edge and of the file format
EVEN_COMPLETION = _build_even_completion()

# (i, j) -> (k, l, then (measurements' minor key, sign) of minors ijl, ijk)
_EDGE_MINORS = {(i, j): (k, l, *((tuple(sorted(v)), perm_parity(v))
                                 for v in ((i, j, l), (i, j, k))))
                for (i, j), (k, l) in EVEN_COMPLETION.items()}

# boundary-oriented faces: (i, j, k) with (i, j, k, missing) even,
# keyed by the lexicographically smallest even rotation
CANONICAL_FACES = ((1, 2, 3), (2, 4, 3), (1, 3, 4), (1, 4, 2))
FACE_OPPOSITE = {(1, 2, 3): 4, (2, 4, 3): 1, (1, 3, 4): 2, (1, 4, 2): 3}

_ROTATIONS = {}
for _f in CANONICAL_FACES:
    for _r in range(3):
        _ROTATIONS[_f[_r:] + _f[:_r]] = (_f, 1)
        _rev = tuple(reversed(_f[_r:] + _f[:_r]))
        _ROTATIONS[_rev] = (_f, -1)


def face_class(i, j, k):
    """(canonical triple, +1/-1) for even/odd orderings of a face."""
    try:
        return _ROTATIONS[(i, j, k)]
    except KeyError:
        raise ValueError(f"not a face triple: {(i, j, k)}") from None


class MinimalCoords(NamedTuple):
    """The chart (z12, z21, z34, z43) on generic tetrahedra."""

    z12: object
    z21: object
    z34: object
    z43: object


MINIMAL_EDGES = ((1, 2), (2, 1), (3, 4), (4, 3))

# the three shapes of a minimal coordinate m on the edges out of its vertex
ID, C1, C2 = 0, 1, 2  # m, 1/(1-m), 1-1/m


def _shapes(z):
    return z, 1 / (1 - z), 1 - 1 / z


# (i, j) -> (index into MINIMAL_EDGES, shape), in EVEN_COMPLETION key
# order: (i, j) minimal is m itself, and (i, k), (i, l) with (i, j, k, l)
# even carry 1/(1-m) and 1-1/m
EDGE_SHAPES = dict(sorted(
    ((i, v), (idx, shape)) for idx, (i, j) in enumerate(MINIMAL_EDGES)
    for shape, v in enumerate((j, *EVEN_COMPLETION[(i, j)]))))

# (edge, its name in domain errors): all 12, and the 8 not minimal
_EDGE_NAMES = tuple((e, f"edge coordinate z{e[0]}{e[1]}")
                    for e in EVEN_COMPLETION)
_SHAPE_EDGE_NAMES = tuple(p for p in _EDGE_NAMES if EDGE_SHAPES[p[0]][1] != ID)

# canonical face -> its edges (i, l), (j, l), (k, l) into the opposite
# vertex: z_ijk = -z_il z_jl z_kl
FACE_EDGES = {f: tuple((v, FACE_OPPOSITE[f]) for v in f)
              for f in CANONICAL_FACES}

# every ordered pair and triple -> (sign, ((index, shape, power), ...)):
# its coordinate is sign * prod shape(m[index]) ** power, the power -1 on
# an odd face ordering, whose value is the reciprocal
CHART_FACTORS = {e: (1, ((idx, shape, 1),))
                 for e, (idx, shape) in EDGE_SHAPES.items()}
CHART_FACTORS.update(
    (t, (-1, tuple((*EDGE_SHAPES[e], power) for e in FACE_EDGES[f])))
    for t, (f, power) in _ROTATIONS.items())


class TetraCoords:
    """All 16 coordinates of a generic tetrahedron, validated."""

    __slots__ = ("edge", "face")

    def __init__(self, edge, face):
        if set(edge) != set(EVEN_COMPLETION):
            raise ValueError("need exactly the 12 oriented edges")
        values = normalize_values(
            [edge[k] for k in EVEN_COMPLETION]
            + [face[k] for k in CANONICAL_FACES], "tetra coordinates")
        self._store(dict(zip(EVEN_COMPLETION, values[:12])),
                    dict(zip(CANONICAL_FACES, values[12:])))
        self._validate()

    @classmethod
    def _derived(cls, edge, face=None) -> "TetraCoords":
        """Values the library derived, in one backend and canonical key
        order, satisfying the relations (faces by FACE_EDGES if None)."""
        c = cls.__new__(cls)
        c._store(edge, face)
        return c

    @classmethod
    def _from_chart(cls, m, face=None) -> "TetraCoords":
        """As _derived, from minimal coordinates m (8 edges left to check)."""
        shapes = [_shapes(z) for z in _minimal(m)]
        c = cls.__new__(cls)
        c._store({e: shapes[idx][shape] for e, (idx, shape)
                  in EDGE_SHAPES.items()}, face, _SHAPE_EDGE_NAMES)
        return c

    def _store(self, edge, face, unchecked=_EDGE_NAMES):
        for key, name in unchecked:
            check_domain(edge[key], name)
        if face is None:
            face = {f: -(edge[a] * edge[b] * edge[c])
                    for f, (a, b, c) in FACE_EDGES.items()}
        for key, z in face.items():
            if z == 0:
                raise OutOfDomain(f"face coordinate {key} is zero")
        self.edge, self.face = edge, face

    def _validate(self):
        e = self.edge
        # vertex relations minimal edge by minimal edge, derived as the
        # chart does (from another edge, 1 - 1/z cancels at large |z|)
        shapes = [_shapes(e[m]) for m in MINIMAL_EDGES]
        for (i, j), (idx, shape) in sorted(EDGE_SHAPES.items(),
                                           key=lambda item: item[1]):
            if shape != ID and not nearly_equal(e[(i, j)], shapes[idx][shape],
                                                VALIDATION_TOL):
                a, b = MINIMAL_EDGES[idx]
                form = "1/(1-{})" if shape == C1 else "1-1/{}"
                raise DegenerateInput(f"vertex relation broken: z{i}{j} != "
                                      + form.format(f"z{a}{b}"))
        for i in VERTICES:
            if not nearly_equal(prod(e[(i, j)] for j in VERTICES if j != i),
                                -1, VALIDATION_TOL):
                raise DegenerateInput(f"vertex product at {i} is not -1")
        # the face relation as a ratio on floats: relative at any modulus
        for f, (a, b, c) in FACE_EDGES.items():
            rhs = -(e[a] * e[b] * e[c])
            if not (self.face[f] == rhs if self.exact else
                    nearly_equal(rhs / self.face[f], 1, VALIDATION_TOL)):
                raise DegenerateInput(
                    f"face relation broken at {f}: z_ijk != -z_il z_jl z_kl")

    # -- lookups -------------------------------------------------------------

    def edge_value(self, i, j):
        return self.edge[(i, j)]

    def face_value(self, i, j, k):
        """Triple ratio at any vertex ordering (reciprocal when odd)."""
        canon, sign = face_class(i, j, k)
        v = self.face[canon]
        return v if sign == 1 else 1 / v

    def minimal(self) -> MinimalCoords:
        return MinimalCoords(*(self.edge[e] for e in MINIMAL_EDGES))

    @property
    def exact(self) -> bool:
        return is_exact(self.edge[(1, 2)])

    def conjugate(self) -> "TetraCoords":
        return TetraCoords._derived(
            {k: v.conjugate() for k, v in self.edge.items()},
            {k: v.conjugate() for k, v in self.face.items()})

    def relabeled(self, perm) -> "TetraCoords":
        """The coordinates of the flags reordered by perm, a permutation
        sigma of (1, 2, 3, 4): flag i of the new tuple is flag sigma(i).

        From the chart alone: z'_ij = z_{sigma(i) sigma(j)}, inverted when
        sigma is odd, and z'_f = face_value(sigma(f)) on each face f.
        """
        if sorted(perm) != list(VERTICES):
            raise ValueError(f"not a permutation of (1, 2, 3, 4): {perm}")
        s = dict(zip(VERTICES, perm))
        edge = {(i, j): self.edge[s[i], s[j]] for i, j in EVEN_COMPLETION}
        if perm_parity(perm) == -1:
            edge = {k: 1 / v for k, v in edge.items()}
        face = {f: self.face_value(*(s[v] for v in f))
                for f in CANONICAL_FACES}
        return TetraCoords._derived(edge, face)

    def same_as(self, other: "TetraCoords", tol=0.0) -> bool:
        """Exact equality, or closeness when a float tolerance is given."""
        for a, b in zip((*self.edge.values(), *self.face.values()),
                        (*other.edge.values(), *other.face.values())):
            if not (a == b if tol == 0.0 else nearly_equal(a, b, tol)):
                return False
        return True

    def __repr__(self):
        m = self.minimal()
        return (f"TetraCoords(z12={m.z12!r}, z21={m.z21!r}, "
                f"z34={m.z34!r}, z43={m.z43!r})")


# -- measuring coordinates from flags -----------------------------------------

def _triple(p, i, j, k):
    """The triple ratio of flags i, j, k from their cross pairings p."""
    if type(p[i, j]) is tuple:  # Gaussian integers: one quotient at the end
        return gauss_quotient(gi_mul(gi_mul(p[i, j], p[j, k]), p[k, i]),
                              gi_mul(gi_mul(p[i, k], p[j, i]), p[k, j]))
    return (p[i, j] * p[j, k] * p[k, i]) / (p[i, k] * p[j, i] * p[k, j])


def triple_ratio(f1: Flag, f2: Flag, f3: Flag):
    """f1(x2) f2(x3) f3(x1) / (f1(x3) f2(x1) f3(x2)), scale-independent."""
    return _triple(cross_pairings((f1, f2, f3)), 1, 2, 3)


def edge_coords(t: FlagTuple) -> TetraCoords:
    """Measure all 16 coordinates of a generic 4-flag tuple.

    Edge values use z_ij = f_i(x_k) det(x_i,x_j,x_l) / (f_i(x_l)
    det(x_i,x_j,x_k)) with (i,j,k,l) even.  The pairings and minors come
    from flags.measurements, which refuses a degenerate tuple.

    On exact flags they are Gaussian integers of the integral
    representatives, so each edge value is one quotient, reduced once
    (scalars.gauss_quotient).  The vertex and face relations are then
    identities, so the faces are derived from the edges by FACE_EDGES,
    z_ijk = -z_il z_jl z_kl, and nothing is validated; the test suite
    checks them against the triple ratios.  Float flags, which may come
    ill-conditioned from a file, get their faces measured independently
    as triple ratios, and the constructor's validation cross-checks the
    two routes.
    """
    if len(t) != 4:
        raise DegenerateInput("edge_coords needs exactly four flags")
    pairings, minors = measurements(t)
    if type(pairings[1, 2]) is tuple:  # Gaussian integers: exact flags
        edges = {}
        for (i, j), (k, l, (num, s), (den, r)) in _EDGE_MINORS.items():
            a, b = gi_mul(pairings[i, k], minors[num])
            edges[i, j] = gauss_quotient((a, b) if s == r else (-a, -b),
                                         gi_mul(pairings[i, l], minors[den]))
        return TetraCoords._derived(edges)

    def det(key, sign):
        return minors[key] if sign == 1 else -minors[key]

    edges = {(i, j): (pairings[(i, k)] * det(*num))
             / (pairings[(i, l)] * det(*den))
             for (i, j), (k, l, num, den) in _EDGE_MINORS.items()}
    faces = {f: _triple(pairings, *f) for f in CANONICAL_FACES}
    return TetraCoords(edges, faces)


# -- the minimal chart ---------------------------------------------------------

def _minimal(m) -> MinimalCoords:
    """m in one backend, each value domain-checked by name ("z12")."""
    m = MinimalCoords(*normalize_values(m, "minimal coordinates"))
    for name, z in zip(m._fields, m):
        check_domain(z, name)
    return m


def complete_from_minimal(m) -> TetraCoords:
    """Fill all 16 coordinates from (z12, z21, z34, z43) by the chart."""
    return TetraCoords._from_chart(m)


def reconstruct(m) -> FlagTuple:
    """A flag tuple in normal position whose coordinates restrict to m.

    This is the explicit section of the minimal chart: the four points
    are the standard frame and the covectors are rational in the four
    coordinates.
    """
    z12, z21, z34, z43 = _minimal(m)
    # exact flags are incident by construction, so Flag._incident builds
    # them from GaussRational constants; float ones are checked, since
    # a + (1 - a) - 1 need not round to 0
    if is_exact(z12):
        one, zero, flag = GaussRational(1), GaussRational(0), Flag._incident
    else:
        one, zero, flag = 1, 0, Flag
    a = 1 / (1 - z43)
    flags = [
        flag((one, zero, zero), (zero, 1 - 1 / z12, -one)),
        flag((zero, one, zero), (1 - z21, zero, -one)),
        flag((zero, zero, one), (z34, -one, zero)),
        flag((one, one, one), (a, 1 - a, -one)),
    ]
    return FlagTuple(flags)


# -- invariants ----------------------------------------------------------------

def beta_tetra(c: TetraCoords) -> FormalSum:
    """[z12] + [z21] + [z34] + [z43] in the pre-Bloch group."""
    return FormalSum([(z, 1) for z in c.minimal()])


def volume_tetra(c: TetraCoords) -> float:
    """One quarter of D applied to beta: D summed over the minimal
    coordinates, counted with multiplicity (prebloch.sum_D)."""
    return sum_D(c.minimal()) / 4.0


def very_generic(c: TetraCoords, require=False) -> bool:
    """True when no face coordinate equals -1 (duality stays regular).

    Floats count as -1 within VERY_GENERIC_TOL.  With require=True such a
    face raises NotVeryGeneric, which names it, instead.
    """
    for key, v in c.face.items():
        if v == -1 or not is_exact(v) and \
                abs(v + 1) <= VERY_GENERIC_TOL * (1 + abs(v)):
            if require:
                name = "".join(map(str, key))
                raise NotVeryGeneric(f"face coordinate z_{name} = -1")
            return False
    return True
