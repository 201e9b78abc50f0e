"""Projective points, lines, cross-ratios and 3x3 linear algebra.

Everything here is generic over the two scalar backends: points at
infinity are handled through homogeneous coordinates, never by affine
special cases.  Every degeneracy predicate of the package -- a vanishing
pairing, determinant, minor or Hermitian norm -- is one zero test,
negligible(value, *operands): exact zero in the exact backend; in float,
|value| at most DEGENERACY_TOL times the product of the Euclidean norms
of the operands the value is multilinear in, so that rescaling a
homogeneous representative never changes the answer.

A homogeneous representative is free to rescale, and each backend picks
the one its kernels compute on: a float point, line or matrix is
balanced by a power of two (balanced); an exact one is cleared of its
denominators and of its integer content (integral), and an exact matrix
of its denominators (integral_rows).  The exact kernels gi_vdot, gi_vcross and
gi_det3 then run on Gaussian integers, (a, b) int pairs, with no gcd at
all; a zero test there is a comparison with (0, 0).
"""

from __future__ import annotations

import cmath
import math

from .errors import DegenerateInput
from .scalars import exactify, gi_mul, is_exact, normalize_values
from .tolerances import DEGENERACY_TOL


def negligible(value, *operands) -> bool:
    """The zero test: exact in the exact backend, on a scalar or on a
    Gaussian integer of the exact kernels; relative in float.

    In float, value is compared with DEGENERACY_TOL times the product of
    the operands' Euclidean norms; the exact backend computes no norm.
    The norms are taken by hypot, so no finite operand overflows; a
    product of norms that does is inf, and every value is negligible
    against it, a value that overflowed to inf or nan included.
    """
    if type(value) is tuple:  # a Gaussian integer of the exact kernels
        return value == (0, 0)
    if is_exact(value):
        return value == 0
    scale = 1.0
    for v in operands:
        scale *= math.hypot(*(t for c in v for t in (c.real, c.imag)))
    if scale == math.inf and all(cmath.isfinite(c) for v in operands
                                 for c in v):
        return True
    return abs(value) <= DEGENERACY_TOL * (scale + 1e-300)


def balanced(values):
    """(values, e): on floats the values times the power of two 2^e that
    brings their largest real or imaginary part into [0.5, 1); values all
    exact come back as they are, with e = 0.  The scaling is exact, so a
    minor of balanced points is the one of the given points times a power
    of two, except that it can no longer underflow or overflow."""
    if all(map(is_exact, values)):
        return tuple(values), 0
    e = -math.frexp(max(max(abs(c.real), abs(c.imag)) for c in values))[1]
    return tuple(complex(math.ldexp(c.real, e), math.ldexp(c.imag, e))
                 for c in values), e


def _minor(p, q):
    return p[0] * q[1] - q[0] * p[1]


class ProjPoint1:
    """A point [a : b] of the projective line."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        a, b = normalize_values((a, b), "homogeneous pair")
        if a == 0 and b == 0:
            raise DegenerateInput("homogeneous pair (0, 0)")
        self.a = a
        self.b = b

    def same_point(self, other: "ProjPoint1") -> bool:
        p, q = balanced((self.a, self.b))[0], balanced((other.a, other.b))[0]
        return negligible(_minor(p, q), p, q)

    def __repr__(self):
        return f"[{self.a} : {self.b}]"


def cross_ratio(x1: ProjPoint1, x2: ProjPoint1, x3: ProjPoint1,
                x4: ProjPoint1):
    """Cross-ratio of four pairwise distinct points of P^1.

    Normalized so that ([1:0], [0:1], [1:1], [z:1]) maps to z, i.e. the
    value at x4 of the fractional linear map sending x1, x2, x3 to
    infinity, 0, 1.  The points are balanced first (see balanced), so
    rescaling a representative never changes the value.
    """
    pts = [balanced((p.a, p.b))[0] for p in (x1, x2, x3, x4)]
    m = {}
    for i in range(4):
        for j in range(i + 1, 4):
            m[i, j] = _minor(pts[i], pts[j])
            if negligible(m[i, j], pts[i], pts[j]):
                raise DegenerateInput(
                    f"cross_ratio of coincident points (args {i + 1} and {j + 1})")
    return m[0, 2] * m[1, 3] / (m[0, 3] * m[1, 2])


# -- 3-vectors (points and covectors of CP^2) --------------------------------

def vdot(u, x):
    """Pairing u0*x0 + u1*x1 + u2*x2 (no conjugation)."""
    return u[0] * x[0] + u[1] * x[1] + u[2] * x[2]


def vcross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def det3(c1, c2, c3):
    """Determinant of the matrix with columns c1, c2, c3."""
    return vdot(c1, vcross(c2, c3))


# -- Gaussian-integer representatives (the exact kernels) --------------------

def integral(v):
    """The primitive Gaussian-integer multiple of an exact point or line,
    as three (a, b) int pairs: its entries over their common denominator,
    divided by the gcd of all their parts."""
    (a0, b0, d0), (a1, b1, d1), (a2, b2, d2) = [exactify(c).integer_parts()
                                                for c in v]
    den = math.lcm(d0, d1, d2)
    if den != 1:
        k0, k1, k2 = den // d0, den // d1, den // d2
        a0, b0, a1, b1, a2, b2 = a0 * k0, b0 * k0, a1 * k1, b1 * k1, \
            a2 * k2, b2 * k2
    g = math.gcd(a0, b0, a1, b1, a2, b2)
    if g > 1:
        a0, b0, a1, b1, a2, b2 = a0 // g, b0 // g, a1 // g, b1 // g, \
            a2 // g, b2 // g
    return (a0, b0), (a1, b1), (a2, b2)


def integral_rows(m):
    """The rows of an exact matrix times the common denominator of its
    entries, as Gaussian-integer triples: a multiple of m, so the same
    projectivity."""
    rows = [[c.integer_parts() for c in r] for r in m.rows]
    den = math.lcm(*(d for r in rows for _, _, d in r))
    return [tuple((a * (den // d), b * (den // d)) for a, b, d in r)
            for r in rows]


def gi_vdot(u, x):
    """vdot of two Gaussian-integer triples."""
    a, b = gi_mul(u[0], x[0])
    c, d = gi_mul(u[1], x[1])
    e, f = gi_mul(u[2], x[2])
    return a + c + e, b + d + f


def _gi_minor(u, v, i, j):
    a, b = gi_mul(u[i], v[j])
    c, d = gi_mul(u[j], v[i])
    return a - c, b - d


def gi_vcross(u, v):
    """vcross of two Gaussian-integer triples."""
    return _gi_minor(u, v, 1, 2), _gi_minor(u, v, 2, 0), _gi_minor(u, v, 0, 1)


def gi_det3(c1, c2, c3):
    """det3 of three Gaussian-integer triples."""
    return gi_vdot(c1, gi_vcross(c2, c3))


class Mat3:
    """A 3x3 matrix of scalars in one backend: a projectivity of CP^2."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("Mat3 needs 3x3 entries")
        flat = normalize_values([e for r in rows for e in r],
                                "matrix entries")
        self.rows = (flat[0:3], flat[3:6], flat[6:9])

    def apply(self, v):
        return tuple(vdot(r, v) for r in self.rows)

    def __repr__(self):
        return f"Mat3({self.rows!r})"


def restrict_to_p1(points):
    """Coordinatize collinear CP^2 points on their common line.

    The first two points serve as the projective basis; each point
    p = alpha*base1 + beta*base2 maps to [alpha : beta].  Requires at
    least two points, the first two distinct; the points are settled into
    one backend first, so int entries stay exact.  The basis 2x2 minor is
    the first nonzero one in the exact backend and the largest in float.
    """
    if len(points) < 2:
        raise DegenerateInput("need at least two points")
    if any(len(p) != 3 for p in points):
        raise ValueError("restrict_to_p1 needs point triples")
    flat = normalize_values([c for p in points for c in p], "collinear points")
    points = [flat[k:k + 3] for k in range(0, len(flat), 3)]
    u, v = points[0], points[1]
    minors = [(r, s, u[r] * v[s] - u[s] * v[r])
              for (r, s) in ((0, 1), (0, 2), (1, 2))]
    if all(is_exact(t[2]) for t in minors):
        r, s, m = next((t for t in minors if t[2] != 0), minors[0])
    else:
        r, s, m = max(minors, key=lambda t: abs(t[2]))
    if negligible(m, u, v):
        raise DegenerateInput("basis points of the line coincide")
    out = []
    for p in points:
        alpha = p[r] * v[s] - p[s] * v[r]
        beta = u[r] * p[s] - u[s] * p[r]
        out.append(ProjPoint1(alpha / m, beta / m))
    return out
