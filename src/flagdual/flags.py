"""Flags in CP^2: incidence, genericity, normalization, constructions.

A flag is an incident (point, line) pair; the line is stored as a
covector triple.  Swapping the two triples under the fixed standard-basis
identification of the plane with its dual gives the duality involution on
flags.  Two families of geometric flags are provided: the Veronese lift
of points of CP^1 (ideal hyperbolic tetrahedra) and tangent flags of the
null sphere of the Hermitian form J (spherical CR tetrahedra).
"""

from __future__ import annotations

from itertools import combinations

from .errors import DegenerateInput, NotOnSphere
from .gaussian import gi_mul
from .projective import (Mat3, ProjPoint1, balanced, det3, gi_det3, gi_vcross,
                         gi_vdot, integral, integral_rows, negligible, vdot)
from .scalars import (GaussRational, describe, exactify, is_exact,
                      normalize_values)


class Flag:
    """An incident pair (point, line); incidence is checked on construction."""

    __slots__ = ("point", "line")

    def __init__(self, point, line):
        point = tuple(point)
        line = tuple(line)
        if len(point) != 3 or len(line) != 3:
            raise ValueError("flag needs two triples")
        both = normalize_values(point + line, "flag coordinates")
        point, line = both[:3], both[3:]
        self._store(point, line)
        incidence = vdot(line, point)
        if not negligible(incidence, line, point):
            raise DegenerateInput(
                f"flag incidence violated: f(x) = {describe(incidence)}")

    @classmethod
    def _incident(cls, point, line) -> "Flag":
        """Triples the library derived, in one backend and incident by
        construction: only the zero-triple checks run."""
        flag = cls.__new__(cls)
        flag._store(point, line)
        return flag

    def _store(self, point, line):
        if all(c == 0 for c in point):
            raise DegenerateInput("flag point is the zero triple")
        if all(c == 0 for c in line):
            raise DegenerateInput("flag line is the zero triple")
        self.point = point
        self.line = line

    def dual(self) -> "Flag":
        dual = Flag.__new__(Flag)  # incidence is symmetric: no new check
        dual.point, dual.line = self.line, self.point
        return dual

    def __repr__(self):
        return f"Flag(point={self.point!r}, line={self.line!r})"


class FlagTuple:
    """An ordered tuple of flags (3 or 4 of them in practice)."""

    __slots__ = ("flags",)

    def __init__(self, flags):
        self.flags = tuple(flags)
        # each Flag is in one backend already: one value per flag decides
        normalize_values([fl.point[0] for fl in self.flags],
                         "flag tuple coordinates")

    def __len__(self):
        return len(self.flags)

    def __getitem__(self, i):
        return self.flags[i]

    def __iter__(self):
        return iter(self.flags)

    def points(self):
        return [f.point for f in self.flags]

    def dual(self) -> "FlagTuple":
        return FlagTuple([f.dual() for f in self.flags])

    def transformed(self, m: Mat3) -> "FlagTuple":
        """Apply a projectivity: points by m, covectors by (m^T)^-1.  On
        exact flags the covectors go by its multiple adj(m^T), whose rows
        are the cross products of the rows of m: no division, and the
        image flags are incident by construction, (adj(m^T) f)(m x) =
        det(m) f(x) = 0, so their incidence is not recomputed."""
        if not (is_exact(m.rows[0][0]) and is_exact(self.flags[0].point[0])):
            minv_t = m.inverse().transpose()
            return FlagTuple([Flag(m.apply(f.point), minv_t.apply(f.line))
                              for f in self.flags])
        r1, r2, r3 = rows = integral_rows(m)
        adj = (gi_vcross(r2, r3), gi_vcross(r3, r1), gi_vcross(r1, r2))
        return FlagTuple([Flag._incident(_image(rows, integral(f.point)),
                                         _image(adj, integral(f.line)))
                          for f in self.flags])


def _image(rows, v):
    """The product of a matrix and a vector, both of Gaussian integers, as
    a triple of GaussRationals."""
    return tuple(GaussRational(*gi_vdot(r, v)) for r in rows)


def _kernel(vectors):
    """(representatives, pairing, determinant) of vectors of one backend:
    exact ones integral, for the Gaussian-integer kernels; float ones
    balanced (see projective.balanced), for vdot and det3."""
    if all(is_exact(v[0]) for v in vectors):
        return [integral(v) for v in vectors], gi_vdot, gi_det3
    return [balanced(v)[0] for v in vectors], vdot, det3


def _pairings(points, lines, dot) -> dict:
    out = {}
    for i, u in enumerate(lines, 1):
        for j, x in enumerate(points, 1):
            if i != j:
                v = dot(u, x)
                if negligible(v, u, x):
                    raise DegenerateInput(f"pairing f{i}(x{j}) vanishes")
                out[(i, j)] = v
    return out


def _minors(points, det) -> dict:
    out = {}
    for key in combinations(range(1, len(points) + 1), 3):
        cols = [points[v - 1] for v in key]
        d = det(*cols)
        if negligible(d, *cols):
            raise DegenerateInput(
                "points x{}, x{}, x{} are collinear".format(*key))
        out[key] = d
    return out


def cross_pairings(t) -> dict:
    """{(i, j): f_i(x_j)} for distinct flags of t (numbered from 1), of the
    representatives of the points and lines (see _kernel): Gaussian
    integers, (a, b) int pairs, on exact flags, complex numbers on float
    ones; DegenerateInput names the first pairing that vanishes."""
    points, dot, _ = _kernel([f.point for f in t])
    return _pairings(points, _kernel([f.line for f in t])[0], dot)


def measurements(t):
    """(cross_pairings(t), minors): the minors {(i, j, k): det(x_i, x_j,
    x_k)} for i < j < k of the same point representatives, each made
    once; DegenerateInput names the first pairing that vanishes, else the
    first three collinear points (on t.dual(), lines)."""
    points, dot, det = _kernel([f.point for f in t])
    lines = _kernel([f.line for f in t])[0]
    return _pairings(points, lines, dot), _minors(points, det)


def is_generic(t: FlagTuple) -> bool:
    """All cross pairings f_i(x_j) nonzero and no three points collinear."""
    try:
        measurements(t)
    except DegenerateInput:
        return False
    return True


def is_very_generic(t: FlagTuple) -> bool:
    """Generic, and additionally no three of the lines are concurrent."""
    points, dot, det = _kernel([f.point for f in t])
    lines = _kernel([f.line for f in t])[0]
    try:
        _minors(lines, det)
        _pairings(points, lines, dot)
        _minors(points, det)
    except DegenerateInput:
        return False
    return True


def normalize_to_standard(t) -> Mat3:
    """The projectivity sending four general-position points to the frame.

    Accepts a FlagTuple or a plain list of four point triples and returns
    the matrix, unique up to scale, carrying them to [1,0,0], [0,1,0],
    [0,0,1], [1,1,1] in order.  With p4 = l1*p1 + l2*p2 + l3*p3 and M the
    matrix of columns l_i*p_i, that is M^-1, of the balanced points on
    floats (see balanced); on exact points it is adj(M) = det(M) M^-1 of
    their integral representatives, with l_i the Cramer numerators (the
    common denominator is a scale), so no entry needs a division.
    """
    pts = t.points() if isinstance(t, FlagTuple) else [tuple(p) for p in t]
    if len(pts) != 4:
        raise DegenerateInput("need exactly four points")
    pts, _, det = _kernel(pts)
    p1, p2, p3, p4 = pts
    d = det(p1, p2, p3)
    if negligible(d, p1, p2, p3):
        raise DegenerateInput("first three points are collinear")
    # solve p4 = l1*p1 + l2*p2 + l3*p3 by Cramer's rule; a zero numerator
    # puts p4 on the line through the other two points
    numerators = []
    for idx, cols in enumerate(((p4, p2, p3), (p1, p4, p3), (p1, p2, p4))):
        n = det(*cols)
        if negligible(n, *cols):
            raise DegenerateInput(
                f"fourth point is collinear with two others (lambda{idx + 1} = 0)")
        numerators.append(n)
    if det is gi_det3:
        # adj(M) has the rows c2 x c3, c3 x c1, c1 x c2 of the columns of M
        c1, c2, c3 = ([gi_mul(n, c) for c in p]
                      for n, p in zip(numerators, pts))
        adj = (gi_vcross(c2, c3), gi_vcross(c3, c1), gi_vcross(c1, c2))
        return Mat3([[GaussRational(*z) for z in row] for row in adj])
    return Mat3.from_columns(*(tuple(n / d * c for c in p) for n, p in
                               zip(numerators, pts))).inverse()


def hyperbolic_flag(p: ProjPoint1) -> Flag:
    """Veronese lift of a point of CP^1 with its tangent line.

    The point is [x^2, xy, y^2]; the line is the polar of the point with
    respect to the conic xz = y^2, i.e. the covector (c, -2b, a) for a
    point (a, b, c) of the conic.
    """
    x, y = p.a, p.b
    point = (x * x, x * y, y * y)
    line = (point[2], -2 * point[1], point[0])
    return Flag(point, line)


def veronese_tetrahedron(params) -> FlagTuple:
    """Hyperbolic tetrahedron of flags over four CP^1 points."""
    return FlagTuple([hyperbolic_flag(p) for p in params])


def _hermitian_pairing(x, y):
    """<x, y> = y^H J x with J the antidiagonal unit matrix."""
    return (y[0].conjugate() * x[2] + y[1].conjugate() * x[1]
            + y[2].conjugate() * x[0])


def cr_flag(x) -> Flag:
    """Flag tangent to the null sphere of J at a null point x.

    The line is y -> <y, x>, the unique complex line tangent to S^3 at x;
    its covector is the complex conjugate of (x2, x1, x0).  In float the
    null test runs on x divided by its largest entry modulus, so that
    <x, x> cannot overflow; the point and the flag are those of x.
    """
    x = tuple(x)
    y = x
    if not all(is_exact(c) for c in x):
        m = max(abs(c) for c in x)
        if m:
            y = tuple(c / m for c in x)
    h = _hermitian_pairing(y, y)
    if not negligible(h, y, y):
        what = "<x,x>" if y is x else "<x,x>/max|x_i|^2"
        raise NotOnSphere(f"{what} = {describe(h)} != 0")
    line = (x[2].conjugate(), x[1].conjugate(), x[0].conjugate())
    return Flag(x, line)


def cr_tetrahedron(points) -> FlagTuple:
    return FlagTuple([cr_flag(x) for x in points])


def heisenberg_null_point(y, t):
    """Null point [1, y, -|y|^2/2 + i t] of J (t real; backend follows y)."""
    if is_exact(y):
        y = exactify(y)
        return (GaussRational(1), y,
                -(y * y.conjugate()) / 2 + GaussRational(0, 1) * t)
    y = complex(y)
    return (complex(1), y, complex(-abs(y) ** 2 / 2, float(t)))
