"""The paper's duality rule, proved over the whole minimal chart.

reconstruct's normal form is written here with symbolic z12, z21, z34,
z43, and its coordinates and those of its dual (points and lines
swapped) are measured by the paper's definitions.  Every generic 4-flag
tuple is carried to that normal form by a projectivity, which leaves its
coordinates unchanged, so what sympy.cancel reduces to zero here holds
on every generic tuple, where the sampled oracles hold it on instances.
"""

from itertools import permutations
from math import prod

import sympy as sp
from sympy.combinatorics import Permutation

from flagdual.duality import _dual_edge
from flagdual.tetra import (CANONICAL_FACES, EDGE_SHAPES, FACE_EDGES,
                            MINIMAL_EDGES, _shapes, face_class)

M = sp.symbols("z12 z21 z34 z43")
_A = 1 / (1 - M[3])
POINTS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
LINES = ((0, 1 - 1 / M[0], -1), (1 - M[1], 0, -1), (M[2], -1, 0),
         (_A, 1 - _A, -1))

# (i, j) -> (k, l) with (i, j, k, l) an even permutation of (1, 2, 3, 4)
EVEN = {p[:2]: p[2:] for p in permutations((1, 2, 3, 4))
        if Permutation([v - 1 for v in p]).is_even}


def _det(x, y, z):
    return (x[0] * (y[1] * z[2] - y[2] * z[1])
            - x[1] * (y[0] * z[2] - y[2] * z[0])
            + x[2] * (y[0] * z[1] - y[1] * z[0]))


class Measured:
    """The coordinates of flags (x_i, f_i) by the paper's definitions,
    read through TetraCoords' two lookups:
    z_ij = f_i(x_k) det(x_i, x_j, x_l) / (f_i(x_l) det(x_i, x_j, x_k)),
    (i, j, k, l) even, and the triple ratio
    z_ijk = f_i(x_j) f_j(x_k) f_k(x_i) / (f_i(x_k) f_j(x_i) f_k(x_j))."""

    def __init__(self, points, lines):
        self.x = dict(zip((1, 2, 3, 4), points))
        self.f = dict(zip((1, 2, 3, 4), lines))

    def pair(self, i, j):
        return sum(a * b for a, b in zip(self.f[i], self.x[j]))

    def edge_value(self, i, j):
        k, l = EVEN[i, j]
        x = self.x
        return (self.pair(i, k) * _det(x[i], x[j], x[l])
                / (self.pair(i, l) * _det(x[i], x[j], x[k])))

    def face_value(self, i, j, k):
        p = self.pair
        return p(i, j) * p(j, k) * p(k, i) / (p(i, k) * p(j, i) * p(k, j))


def _zero(expr):
    return sp.cancel(expr) == 0


def test_symbolic_duality_rule_holds_on_the_whole_chart():
    c, dual = Measured(POINTS, LINES), Measured(LINES, POINTS)
    shapes = [_shapes(m) for m in M]
    # the normal form restricts to the chart, completed by EDGE_SHAPES
    for e, m in zip(MINIMAL_EDGES, M):
        assert _zero(c.edge_value(*e) - m), e
    for e, (idx, shape) in EDGE_SHAPES.items():
        assert _zero(c.edge_value(*e) - shapes[idx][shape]), e
    # z_ijk = -z_il z_jl z_kl, and an odd ordering is the reciprocal
    for f, edges in FACE_EDGES.items():
        assert _zero(c.face_value(*f) + prod(c.edge_value(*e)
                                             for e in edges)), f
    for t in permutations((1, 2, 3, 4), 3):
        f, power = face_class(*t)
        assert _zero(c.face_value(*t) - c.face_value(*f) ** power), t
    # the closed formula, run on the measured coordinates, gives every
    # measured dual edge
    for i, j in EVEN:
        assert _zero(_dual_edge(c, i, j) - dual.edge_value(i, j)), (i, j)
    # the faces invert, and w*_ij = z*_ij z*_ji is w_kl
    for f in CANONICAL_FACES:
        assert _zero(dual.face_value(*f) * c.face_value(*f) - 1), f
    for (i, j), (k, l) in EVEN.items():
        assert _zero(dual.edge_value(i, j) * dual.edge_value(j, i)
                     - c.edge_value(k, l) * c.edge_value(l, k)), (i, j)
