"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import copy
import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st
from scipy.integrate import quad

from flagdual import (DecoratedComplex, Decoration, FlagTuple, GaussRational,
                      Mat3, ProjPoint1, bundled, complete_from_minimal,
                      dump_complex, reconstruct, very_generic)
from flagdual.complexes import FacePairing, IdealTriangulation
from flagdual.gaussian import exponent_vector, gi_mul, prime_key
from flagdual.projective import det3, negligible, vcross
from flagdual.scalars import is_exact


# -- reference Gaussian rationals -----------------------------------------------

class FractionPairGauss:
    """Q(i) as a pair of Fractions with the schoolbook formulas: the
    oracle that GaussRational's integer-triple arithmetic is checked
    against."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return FractionPairGauss(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return FractionPairGauss(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return FractionPairGauss(self.re * o.re - self.im * o.im,
                                 self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero")
        return FractionPairGauss((self.re * o.re + self.im * o.im) / n,
                                 (self.im * o.re - self.re * o.im) / n)

    def conjugate(self):
        return FractionPairGauss(self.re, -self.im)

    def norm(self):
        return self.re * self.re + self.im * self.im

    def __eq__(self, o):
        return self.re == o.re and self.im == o.im

    def __repr__(self):
        return f"FractionPairGauss({self.re!r}, {self.im!r})"


# -- random exact data ----------------------------------------------------------

def rand_fraction(rng, span=9):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_gauss_rational(rng, span=9, allow_real=True):
    """Random nonzero Gaussian rational outside {0, 1}."""
    while True:
        re = rand_fraction(rng, span)
        im = Fraction(0) if (allow_real and rng.random() < 0.4) \
            else rand_fraction(rng, span)
        q = GaussRational(re, im)
        if q != 0 and q != 1:
            return q


# hypothesis strategies: minimal coordinates with parts of numerator and
# denominator up to 9 (some in {0, 1}: callers assume them away), float
# ones of modulus 0.2 to 5, and small Gaussian rationals for matrices
_PART = st.fractions(-9, 9, max_denominator=9)
EXACT_MINIMAL = st.tuples(*[st.builds(GaussRational, _PART, _PART)] * 4)
FLOAT_MINIMAL = st.tuples(*[st.complex_numbers(
    min_magnitude=0.2, max_magnitude=5, allow_nan=False,
    allow_infinity=False)] * 4)
SMALL_GAUSS = st.builds(GaussRational, st.fractions(-3, 3, max_denominator=3),
                        st.fractions(-3, 3, max_denominator=3))


# normalized primes in prime_key order: 1+i (ramified), the split pairs
# over 5 and 13 (1+2i = i(2-i), 2+3i = i(3-2i)), the inert 3 and 7
STRUCTURED_PRIMES = ((1, 1), (1, 2), (2, 1), (3, 0), (2, 3), (3, 2), (7, 0))


def structured_product(unit, exponents):
    """i^unit times the product of STRUCTURED_PRIMES to the exponents."""
    z = (1, 0)
    for _ in range(unit):
        z = gi_mul(z, (0, 1))
    for p, e in zip(STRUCTURED_PRIMES, exponents):
        for _ in range(e):
            z = gi_mul(z, p)
    return z


# quotients of two such products, the denominator times a rational
# integer made of 2, 3, 5, 7 and 13 (the primes under STRUCTURED_PRIMES):
# both members of a split pair, powers of 1+i up to 12, inert primes and
# rational denominators that carry split primes, which random draws
# almost never reach
_STRUCTURED = st.builds(structured_product, st.integers(0, 3), st.tuples(
    st.integers(0, 12), *[st.integers(0, 3)] * (len(STRUCTURED_PRIMES) - 1)))
_RATIONAL = st.builds(
    lambda e: math.prod(p ** k for p, k in zip((2, 3, 5, 7, 13), e)),
    st.tuples(*[st.integers(0, 2)] * 5))
STRUCTURED_SCALAR = st.builds(
    lambda num, den, r: GaussRational(*num) / (GaussRational(*den) * r),
    _STRUCTURED, _STRUCTURED, _RATIONAL).filter(lambda q: q != 1)


def rand_exact_minimal(rng, span=9):
    return tuple(rand_gauss_rational(rng, span) for _ in range(4))


def rand_exact_tetra(rng, span=9):
    """(minimal, coords) for a random very generic exact tetrahedron."""
    while True:
        m = rand_exact_minimal(rng, span)
        try:
            c = complete_from_minimal(m)
        except Exception:
            continue
        if very_generic(c):
            return m, c


def rand_exact_flag_tetra(rng, span=9):
    m, c = rand_exact_tetra(rng, span)
    return reconstruct(m), c


def rand_float_scalar(rng, lo=0.15, hi=2.5):
    """Random complex avoiding disks around 0 and 1."""
    while True:
        z = complex(rng.uniform(-hi, hi), rng.uniform(-hi, hi))
        if abs(z) > lo and abs(z - 1) > lo:
            return z


def rand_float_tetra(rng, margin=1e-3):
    """Random very generic float TetraCoords (faces away from -1)."""
    while True:
        m = tuple(rand_float_scalar(rng) for _ in range(4))
        try:
            c = complete_from_minimal(m)
        except Exception:
            continue
        if all(abs(complex(v) + 1) > margin for v in c.face.values()):
            return c


def rand_mobius_exact(rng, span=5):
    """Invertible 2x2 exact matrix acting on the projective line."""
    while True:
        a, b, c, d = (rand_gauss_rational(rng, span) for _ in range(4))
        if a * d - b * c != 0:
            return (a, b, c, d)


def apply_mobius(m, p: ProjPoint1) -> ProjPoint1:
    a, b, c, d = m
    return ProjPoint1(a * p.a + b * p.b, c * p.a + d * p.b)


def rand_pgl3_exact(rng, span=4):
    while True:
        rows = [[rand_gauss_rational(rng, span) for _ in range(3)]
                for _ in range(3)]
        m = Mat3(rows)
        try:
            if det3(*m.columns()) != 0:
                return m
        except Exception:
            continue


def rand_p1_points_exact(rng, count, span=9):
    """Pairwise distinct exact points of P^1 (occasionally infinity)."""
    pts = []
    while len(pts) < count:
        if rng.random() < 0.1:
            p = ProjPoint1(GaussRational(1), GaussRational(0))
        else:
            p = ProjPoint1(rand_gauss_rational(rng, span), GaussRational(1))
        if not any(p.same_point(q) for q in pts):
            pts.append(p)
    return pts


def relabel_tuple(t: FlagTuple, perm) -> FlagTuple:
    """FlagTuple with positions permuted: flag i of the new tuple is flag
    perm[i - 1] of t (1-based), as TetraCoords.relabeled(perm) reads it."""
    return FlagTuple([t[v - 1] for v in perm])


# -- oracles for projective scale and the solver's Jacobian --------------------

def proportional(u, v) -> bool:
    """Scale equivalence of two nonzero triples: u x v is negligible.

    The float zero test compares every cross-product component with one
    threshold, so testing the largest one takes the norms only once.
    """
    cross = vcross(u, v)
    if all(is_exact(c) for c in cross):
        return all(c == 0 for c in cross)
    return negligible(max(cross, key=abs), u, v)


def finite_difference_jacobian(system, m, h=1e-6) -> np.ndarray:
    """Central differences in each complex coordinate (real step h)."""
    m = np.asarray(m, dtype=complex)
    out = np.zeros((len(system.products), len(m)), dtype=complex)
    for col in range(len(m)):
        e = np.zeros_like(m)
        e[col] = h
        out[:, col] = (system.residuals(m + e)
                       - system.residuals(m - e)) / (2 * h)
    return out


# -- quadrature oracle for the dilogarithm --------------------------------------

def dilog_quadrature(z: complex) -> float:
    """Bloch-Wigner D straight from its defining integral.

    D(x) = arg(1-x) log|x| - Im int_0^x log(1-t) dt/t, the integral taken
    along the straight segment (t = s x).  Slow; used only as the
    independent oracle for the series implementation.  Keep z off the
    real ray [1, inf) so the segment avoids the log singularity.
    """
    z = complex(z)
    if z.imag == 0:
        return 0.0  # D vanishes on the real line

    def integrand(s):
        w = 1 - s * z
        return math.atan2(w.imag, w.real) / s if s > 0 else -z.imag

    im_integral = quad(integrand, 0, 1, epsabs=1e-14, epsrel=1e-13,
                       limit=300)[0]
    return math.atan2((1 - z).imag, (1 - z).real) * math.log(abs(z)) \
        - im_integral


# -- dense reference for the wedge square ---------------------------------------

def delta_dense(s):
    """delta of an exact formal sum as (basis, matrix): the basis is the
    Gaussian primes met, in prime_key order, and matrix[i][j] the
    coefficient of basis[i] wedge basis[j], filled for (i, j) and (j, i)
    alike, so antisymmetric.  The oracle for prebloch.delta_exact."""
    vecs = [(n, exponent_vector(g), exponent_vector(1 - g))
            for g, n in s.terms]
    primes = sorted({p for _, v, u in vecs for p in (*v, *u)},
                    key=prime_key)
    index = {p: i for i, p in enumerate(primes)}
    m = [[0] * len(primes) for _ in primes]
    for n, v, u in vecs:
        for p, e in v.items():
            for q, f in u.items():
                i, j = index[p], index[q]
                m[i][j] += n * e * f
                m[j][i] -= n * e * f
    return primes, m


def classical_edge_products(triangulation, shape):
    """Classical gluing-equation oracle for hyperbolic decorations.

    Every tetrahedron has one shape z; opposite edge pairs carry z,
    z' = 1/(1-z), z'' = 1 - 1/z.  Returns the directed product around
    every edge class, computed without any TetraCoords machinery.
    """
    def parameter(i, j):
        pair = frozenset((i, j))
        if pair in (frozenset((1, 2)), frozenset((3, 4))):
            return shape
        if pair in (frozenset((1, 3)), frozenset((2, 4))):
            return 1 / (1 - shape)
        return 1 - 1 / shape

    out = []
    for cls in triangulation.edge_classes():
        prod = 1
        for (_, i, j) in cls.members:
            prod *= parameter(i, j)
        out.append(prod)
    return out


# -- scalable complexes ------------------------------------------------------

def reversed_face_order_cover() -> IdealTriangulation:
    """The 4-fold figure-eight cover on voltages (1, 1, 0, 0), with every
    other pairing written with both faces in odd vertex order (the same
    gluing), so that a face enters its equation as a reciprocal."""
    cover = bundled.cyclic_cover(4, (1, 1, 0, 0))
    return IdealTriangulation(cover.n, [
        FacePairing(p.tet_a, p.face_a[::-1], p.tet_b, p.face_b[::-1])
        if k % 2 else p for k, p in enumerate(cover.pairings)])


def flood_fill_edge_orbits(triangulation) -> list:
    """Directed edge orbits by a search over (tet, i, j) triples that
    follows every pairing's vertex map both ways; sorted like
    IdealTriangulation.edge_orbits, whose union-find it checks."""
    neighbours = {(t, i, j): [] for t in range(triangulation.n)
                  for i in range(1, 5) for j in range(1, 5) if i != j}
    for p in triangulation.pairings:
        image = dict(zip(p.face_a, p.face_b))
        for i in p.face_a:
            for j in p.face_a:
                if i != j:
                    a, b = (p.tet_a, i, j), (p.tet_b, image[i], image[j])
                    neighbours[a].append(b)
                    neighbours[b].append(a)
    seen, orbits = set(), []
    for start in sorted(neighbours):
        if start in seen:
            continue
        seen.add(start)
        orbit, stack = [], [start]
        while stack:
            edge = stack.pop()
            orbit.append(edge)
            for other in neighbours[edge]:
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        orbits.append(tuple(sorted(orbit)))
    return orbits


# -- a twisted double that carries its flags -----------------------------------

def flagged_double(m=None) -> DecoratedComplex:
    """The twisted double over m (default: the bundled one) measured from
    flags: t0 = reconstruct(m), and t1 is t0 with flags 1 and 2 swapped.
    dump_complex(..., keep_flags=True) writes it in flags mode, which
    bundled.twisted_double_complex, built from coordinates, cannot give."""
    if m is None:
        m = bundled.twisted_double_complex().coords[0].minimal()
    t0 = reconstruct(m)
    t1 = FlagTuple([t0[1], t0[0], t0[2], t0[3]])
    return DecoratedComplex(bundled.twisted_double_triangulation(),
                            Decoration.from_flags([t0, t1]))


# -- malformed input files --------------------------------------------------

JUNK = (5, -1, 0, 2.5, 1e308, True, None, "", "x", "1/0", "i", [], [[]],
        [1e308, 0], [None, None], {}, {"a": 1})


def fuzz_documents() -> dict:
    """The bundled complexes as file documents: float coordinates
    (figure8), float flags (cr) and exact coordinates (double)."""
    return {
        "figure8": dump_complex(bundled.figure_eight_complex()),
        "cr": dump_complex(bundled.cr_complex(), keep_flags=True),
        "double": dump_complex(bundled.twisted_double_complex()),
    }


def _json_paths(node, path=()):
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


def mutate_json(rng, doc, count):
    """A copy of doc with count nodes, chosen anywhere below the root,
    replaced by junk values."""
    doc = copy.deepcopy(doc)
    for _ in range(count):
        *head, last = rng.choice(list(_json_paths(doc)))
        parent = doc
        for key in head:
            parent = parent[key]
        parent[last] = rng.choice(JUNK)
    return doc
