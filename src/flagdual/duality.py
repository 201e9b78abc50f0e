"""The duality involution on tetrahedron coordinates.

Duality swaps each flag's point and line.  On coordinates it inverts the
face values and acts on edge values by the closed formula

    z*_ij = z_ji (1 + z_jil) / (1 + 1/z_ijk),   (i,j,k,l) even,

whose face indices are resolved through the canonical-orientation tables
of :mod:`flagdual.tetra`.  Two independent routes compute the same thing:

* dual_coords_closed applies the formula to coordinates alone;
* dual_coords_matrix dualizes the actual flags, renormalizes the dual
  tuple to the standard frame and re-measures its coordinates.

Their exact agreement on random exact tetrahedra is the package's
central cross-validation.  The w-coordinates w_ij = z_ij z_ji turn
duality into the plain pair swap w*_ij = w_kl.
"""

from __future__ import annotations

from .errors import NotVeryGeneric, WSingular
from .flags import FlagTuple, is_very_generic, normalize_to_standard
from .prebloch import FormalSum
from .scalars import normalize_values
from .tetra import (CANONICAL_FACES, EVEN_COMPLETION, MINIMAL_EDGES,
                    MinimalCoords, TetraCoords, edge_coords, very_generic)


def _dual_edge(c: TetraCoords, i, j):
    """Closed-form z*_ij = z_ji (1 + z_jil)/(1 + 1/z_ijk), (i,j,k,l) even."""
    k, l = EVEN_COMPLETION[(i, j)]
    num = 1 + c.face_value(j, i, l)
    den = 1 + 1 / c.face_value(i, j, k)
    return c.edge_value(j, i) * num / den


def dual_coords_closed(c: TetraCoords) -> TetraCoords:
    """Dual coordinates by the closed formula alone.

    The formula gives the four minimal dual edges, the chart the other
    eight (TetraCoords._from_chart), and the faces invert.  That the
    completed edges agree with the formula, and the inverted faces with
    the faces derived from them, is checked by the test suite.
    """
    very_generic(c, require=True)
    return TetraCoords._from_chart(
        [_dual_edge(c, *e) for e in MINIMAL_EDGES],
        {key: 1 / c.face[key] for key in CANONICAL_FACES})


def dual_coords_matrix(t: FlagTuple) -> TetraCoords:
    """Dual coordinates measured from the dualized flags themselves.

    Serves as the independent oracle for dual_coords_closed: the flags
    are dualized, carried to the standard frame by the interpolating
    projectivity, and measured afresh.
    """
    if not is_very_generic(t):
        raise NotVeryGeneric("flag tuple is not very generic")
    dual = t.dual()
    m = normalize_to_standard(dual)
    return edge_coords(dual.transformed(m))


# -- w-coordinates -------------------------------------------------------------

W_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


class WCoords:
    """The six symmetric products w_ij = z_ij z_ji."""

    __slots__ = ("w",)

    def __init__(self, values):
        vals = normalize_values([values[p] for p in W_PAIRS],
                                "w-coordinates")
        self.w = dict(zip(W_PAIRS, vals))

    def value(self, i, j):
        return self.w[(i, j)] if (i, j) in self.w else self.w[(j, i)]

    def dual(self) -> "WCoords":
        """Duality is the pair swap w*_ij = w_kl."""
        out = {}
        for (i, j) in W_PAIRS:
            k, l = (v for v in (1, 2, 3, 4) if v not in (i, j))
            out[(i, j)] = self.value(k, l)
        return WCoords(out)

    def __repr__(self):
        return f"WCoords({self.w!r})"


def to_w(c: TetraCoords) -> WCoords:
    return WCoords({(i, j): c.edge_value(i, j) * c.edge_value(j, i)
                    for (i, j) in W_PAIRS})


def from_w(w: WCoords) -> MinimalCoords:
    """Invert the birational map back to (z12, z21, z34, z43).

    Undefined where one of the four displayed denominators vanishes.
    """
    w12, w13, w14 = w.value(1, 2), w.value(1, 3), w.value(1, 4)
    w23, w34 = w.value(2, 3), w.value(3, 4)
    d1 = w12 * w13 * w23 + 1
    d2 = w13 * w23 - w23 + 1
    d3 = w13 * w14 * w34 + 1
    d4 = w13 * w14 - w14 + 1
    for name, d in (("w12*w13*w23+1", d1), ("w13*w23-w23+1", d2),
                    ("w13*w14*w34+1", d3), ("w13*w14-w14+1", d4)):
        if d == 0:
            raise WSingular(f"w-chart denominator {name} vanishes")
    return MinimalCoords(w12 * d2 / d1, d1 / d2, w34 * d4 / d3, d3 / d4)


# -- the per-tetrahedron duality defect ----------------------------------------

def beta_defect(c: TetraCoords) -> FormalSum:
    """[-z_123] + [-z_243] + [-z_134] + [-z_142].

    This formal sum is the exact difference beta(T) - beta(T*) in the
    pre-Bloch group; numerically D(beta(T)) - D(beta(T*)) = D(defect).
    """
    return FormalSum(defect_pairs(c))


def defect_pairs(c: TetraCoords) -> list:
    """The (generator, coefficient) pairs of beta_defect, unmerged."""
    very_generic(c, require=True)
    return [(-c.face[key], 1) for key in CANONICAL_FACES]
