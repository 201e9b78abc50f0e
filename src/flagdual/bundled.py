"""Bundled example triangulations and decorations.

* the one-tetrahedron complex with no pairings (all faces boundary);
* the two-tetrahedron figure-eight knot complement with its geometric
  decoration: the standard census gluing data, two edge classes of six,
  all sixteen coordinates per tetrahedron generated by the shape
  exp(i pi/3);
* a spherical CR decoration of the single tetrahedron built from four
  null points of the Hermitian form;
* an exactly consistent closed complex: a tetrahedron glued to its own
  relabeling under an odd transposition along all four faces (the double
  of the simplex), which satisfies every face and edge equation for any
  generic exact decoration and keeps all coordinates Gaussian-rational;
* n-fold cyclic covers of any of these, with their decorations lifted.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .complexes import (DecoratedComplex, Decoration, FacePairing,
                        IdealTriangulation)
from .errors import MalformedPairing
from .flags import cr_tetrahedron, heisenberg_null_point
from .scalars import GaussRational
from .tetra import CANONICAL_FACES, complete_from_minimal

GEOMETRIC_SHAPE = cmath.exp(1j * math.pi / 3)

# Figure-eight knot complement, standard 2-tetrahedron census gluing.
# Vertex maps are recorded on boundary-oriented faces of tetrahedron 0.
_FIG8_PAIRINGS = (
    (0, (2, 4, 3), 1, (2, 3, 4)),
    (0, (1, 3, 4), 1, (2, 4, 1)),
    (0, (1, 4, 2), 1, (3, 1, 4)),
    (0, (1, 2, 3), 1, (3, 2, 1)),
)


def figure_eight_triangulation() -> IdealTriangulation:
    return IdealTriangulation(
        2, [FacePairing(*rec) for rec in _FIG8_PAIRINGS])


def figure_eight_complex(shape=GEOMETRIC_SHAPE) -> DecoratedComplex:
    """The figure-eight complement decorated hyperbolically.

    With the default regular shape the decoration satisfies all
    consistency equations and has volume 2.029883212819307.
    """
    c = complete_from_minimal((shape,) * 4)
    return DecoratedComplex(figure_eight_triangulation(),
                            Decoration([c, c]))


def single_tetra_triangulation() -> IdealTriangulation:
    return IdealTriangulation(1, [])


def hyperbolic_complex(shape) -> DecoratedComplex:
    """One unglued tetrahedron decorated with equal minimal coordinates."""
    return DecoratedComplex(
        single_tetra_triangulation(),
        Decoration([complete_from_minimal((shape,) * 4)]))


_CR_POINTS = (
    (0.4 + 0.9j, 0.7),
    (-1.2 + 0.3j, -0.4),
    (0.8 - 0.6j, 1.1),
    (-0.3 - 1.1j, -0.9),
)


def cr_complex() -> DecoratedComplex:
    """One unglued tetrahedron decorated with spherical CR flags."""
    pts = [heisenberg_null_point(y, t) for y, t in _CR_POINTS]
    t = cr_tetrahedron(pts)
    return DecoratedComplex(single_tetra_triangulation(),
                            Decoration.from_flags([t]))


# -- exactly consistent closed complex ------------------------------------------

# the transposition (1 2), as the images of the vertices 1, 2, 3, 4
_SWAP12 = (2, 1, 3, 4)


def twisted_double_triangulation() -> IdealTriangulation:
    """Two tetrahedra glued along all four faces via the transposition
    swapping vertices 1 and 2 (the double of a simplex)."""
    pairings = []
    for face in CANONICAL_FACES:
        image = tuple(_SWAP12[v - 1] for v in face)
        pairings.append(FacePairing(0, face, 1, image))
    return IdealTriangulation(2, pairings)


def twisted_double_complex(minimal=None) -> DecoratedComplex:
    """Closed complex whose decoration is consistent for ANY generic input.

    Tetrahedron 0 is completed from the minimal coordinates, and
    tetrahedron 1 is its relabeling by the odd transposition (1 2),
    TetraCoords.relabeled(_SWAP12): the coordinates of the same
    flags with flags 1 and 2 swapped.  Relabeling by an odd permutation
    inverts and permutes the coordinates exactly as the gluing demands,
    so all face and edge equations hold identically.  With exact minimal
    coordinates the whole decoration is Gaussian-rational.  The
    decoration carries no flags.
    """
    if minimal is None:
        minimal = (GaussRational(Fraction(5, 3), Fraction(1, 2)),
                   GaussRational(Fraction(-2, 7)),
                   GaussRational(3, 1),
                   GaussRational(Fraction(1, 2), Fraction(-3, 4)))
    c = complete_from_minimal(minimal)
    return DecoratedComplex(twisted_double_triangulation(),
                            Decoration([c, c.relabeled(_SWAP12)]))


# -- scalable complexes -------------------------------------------------------

def cyclic_cover(n, voltages, base=None) -> IdealTriangulation:
    """The n-fold cyclic voltage cover of base (default: figure-eight).

    Copy s of base tetrahedron t is tetrahedron k*s + t, where k is
    base.n.  Copy s of pairing p glues its first side in copy s to
    its second in copy s + voltages[p] (mod n).  n must be a positive
    int and voltages one int per base pairing, or MalformedPairing.
    """
    base = base or figure_eight_triangulation()
    if type(n) is not int or n < 1 or len(voltages) != len(base.pairings) \
            or any(type(v) is not int for v in voltages):
        raise MalformedPairing(
            f"a cover needs a positive int n and one int voltage per base "
            f"pairing ({len(base.pairings)}), got n = {n!r}, {voltages}")
    return IdealTriangulation(base.n * n, [
        FacePairing(base.n * s + p.tet_a, p.face_a,
                    base.n * ((s + v) % n) + p.tet_b, p.face_b)
        for p, v in zip(base.pairings, voltages) for s in range(n)])


def lifted_cover(base: DecoratedComplex, n, voltages) -> DecoratedComplex:
    """base lifted to cyclic_cover(n, voltages), each copy carrying its
    coordinates: a consistent base lifts with n times its volume."""
    tri = cyclic_cover(n, voltages, base.triangulation)
    return DecoratedComplex(tri, Decoration(list(base.coords) * n))
