"""Formal sums over C minus {0,1}, the Bloch-Wigner dilogarithm, and the
exact wedge-square test for Bloch-group membership.

A FormalSum is an integer combination of generators in C\\{0,1}.  The two
rewriting relations [1/z] = -[z] and [1-z] = -[z] generate a six-element
orbit on generators; canonicalize_six rewrites a sum onto one chosen
representative per orbit, which kills every instance of those relations.
The exceptional orbit {-1, 2, 1/2}, on which they force 2[x] = 0, is
recognised by its representative (-1 exact, 1/2 within the float merge
distance), and its coefficient reduces mod 2.
The five-term relation itself is not rewritten (deciding equality modulo
it is out of scope); it is available as a generator of test sums, and the
dilogarithm and the delta map both annihilate it, which is how sums are
compared in practice.

delta computes z wedge (1-z) in the wedge square of Q(i)* modulo torsion:
units are discarded and only Gaussian-prime exponent vectors are kept,
and the result is its sorted nonzero coefficients on wedges of primes.
Its vanishing is a necessary condition for a class to lie in the Bloch
group (never claimed sufficient here).
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import OutOfDomain, Unsupported
from .gaussian import exponent_vector, prime_key
from .scalars import GaussRational, check_domain, normalize_values
from .tolerances import MERGE_TOL

# The float merge index is a hash grid.  Partners a, b satisfy
# |a - b| <= MERGE_TOL (1 + |a| + |b|) <= 2.0001 MERGE_TOL (1 + |a|), so a
# generator z is filed in the square cell of side 2^e, the least power of
# two above _CELL_SCALE (1 + |z|), which is more than twice that distance.
# Its partners then lie in the 2x2 cells nearest to z at that level -- or
# at the next level, when the two radii, whose ratio stays within
# 1 +- _LEVEL_SLACK, straddle a power of two.
_CELL_SCALE = 5 * MERGE_TOL
_LEVEL_SLACK = 1e-11
_LOW_MANTISSA = 0.5 / (1 - _LEVEL_SLACK)  # below: probe the level under
_HIGH_MANTISSA = 1 / (1 + _LEVEL_SLACK)  # at or above: probe the one over


def _sort_key(g):
    if isinstance(g, GaussRational):
        # (re.numerator, re.denominator, im.numerator, im.denominator)
        a, b, d = g.integer_parts()
        ga, gb = math.gcd(a, d), math.gcd(b, d)
        return (a // ga, d // ga, b // gb, d // gb)
    return (g.real, g.imag)


def _close(a: complex, b: complex) -> bool:
    """The float merge predicate: relative distance at most MERGE_TOL."""
    d = abs(a - b)
    return d <= MERGE_TOL * (1.0 + abs(a) + abs(b)) and d < math.inf


def _merge_groups(values):
    """Distinct generators of one backend, grouped as they merge; each
    group and the list of groups keep the order of values.

    Exact generators stay apart.  Float ones group into connected
    components under _close: each grid cell files its values by
    component, and a value is compared only with the values of other
    components in the nearest cells, up to the first match per
    component; so a tight cluster of near-duplicates costs one
    comparison per value, and the whole merge about linear time.
    """
    if not values or isinstance(values[0], GaussRational):
        return [[g] for g in values]
    parent = list(range(len(values)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    grid = {}  # (level, x, y) -> {component root when filed: [index]}
    floor, ldexp, frexp = math.floor, math.ldexp, math.frexp
    for i, z in enumerate(values):
        radius = _CELL_SCALE * (1.0 + abs(z))
        mantissa, level = frexp(min(radius, sys.float_info.max))
        if mantissa < _LOW_MANTISSA:
            levels = (level, level - 1)
        elif mantissa >= _HIGH_MANTISSA:
            levels = (level, level + 1)
        else:
            levels = (level,)
        for lv in levels:
            x, y = ldexp(z.real, -lv), ldexp(z.imag, -lv)
            cx, cy = floor(x), floor(y)
            if lv == level:
                home = (lv, cx, cy)
            sx = 1 if x - cx >= 0.5 else -1
            sy = 1 if y - cy >= 0.5 else -1
            for key in ((lv, cx, cy), (lv, cx + sx, cy), (lv, cx, cy + sy),
                        (lv, cx + sx, cy + sy)):
                cell = grid.get(key)
                if not cell:
                    continue
                for root, members in cell.items():
                    root, mine = find(root), find(i)
                    if root != mine and any(_close(z, values[j])
                                            for j in members):
                        parent[mine] = root  # keep the filed root
        grid.setdefault(home, {}).setdefault(find(i), []).append(i)
    groups = {}
    for i, z in enumerate(values):
        groups.setdefault(find(i), []).append(z)
    return list(groups.values())


class FormalSum:
    """Integer linear combination of generators in C\\{0,1}.

    Generators are settled into one backend (plain ints and Fractions
    are neutral) and deduplicated on construction.  Exact generators
    merge when equal.  Float generators (independently computed
    coordinates produce near-duplicates) merge by connected components
    under the relative distance MERGE_TOL, so the result does not depend
    on the order of the input pairs.  The distinct generators are sorted
    once, in the canonical order, which the terms keep; each component
    is represented by its first member, which is its least.
    """

    __slots__ = ("terms",)

    def __init__(self, pairs=()):
        gens, counts = [], []
        for g, n in pairs:
            if not isinstance(n, int):
                raise TypeError(f"coefficient {n!r} is not an integer")
            if n:
                gens.append(g)
                counts.append(n)
        coeffs = {}  # generator -> coefficient; equal generators meet here
        for g, n in zip(normalize_values(gens, "formal sum"), counts):
            g = check_domain(g, "formal-sum generator")
            coeffs[g] = coeffs.get(g, 0) + n
        merged = []
        for group in _merge_groups(sorted(coeffs, key=_sort_key)):
            n = sum(coeffs[g] for g in group)
            if n:
                merged.append((group[0], n))
        self.terms = tuple(merged)

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def __add__(self, other):
        return FormalSum(list(self.terms) + list(other.terms))

    def __sub__(self, other):
        return FormalSum(list(self.terms) + [(g, -n) for g, n in other.terms])

    def __neg__(self):
        return FormalSum([(g, -n) for g, n in self.terms])

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return FormalSum([(g, n * k) for g, n in self.terms])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return (self - other).is_zero()

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for g, n in self.terms:
            gs = str(g) if isinstance(g, GaussRational) else repr(g)
            coeff = "" if n == 1 else ("-" if n == -1 else f"{n}*")
            bits.append(f"{coeff}[{gs}]")
        return " + ".join(bits).replace("+ -", "- ")

    __repr__ = __str__


# -- Bloch-Wigner dilogarithm -------------------------------------------------

_PI2_6 = math.pi ** 2 / 6

# B_{2k} / (2k+1)!  for the Debye-series evaluation of Li_2
_BERNOULLI_EVEN = [
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6),
    Fraction(-3617, 510), Fraction(43867, 798), Fraction(-174611, 330),
    Fraction(854513, 138), Fraction(-236364091, 2730), Fraction(8553103, 6),
    Fraction(-23749461029, 870), Fraction(8615841276005, 14322),
]
_LI2_COEFFS = [float(b / math.factorial(2 * k + 1))
               for k, b in enumerate(_BERNOULLI_EVEN, start=1)]


def _li2_series(z: complex) -> complex:
    """Li_2 on |z| <= 1, Re z <= 1/2, via the series in u = -log(1-z)."""
    u = -cmath.log(1 - z)
    u2 = u * u
    total = u - u2 / 4
    p = u
    for c in _LI2_COEFFS:
        p *= u2
        term = c * p
        total += term
        if abs(term) < 1e-18 * (1 + abs(total)):
            break
    return total


def li2(z: complex) -> complex:
    """Dilogarithm, principal branch, reduced into the series domain."""
    z = complex(z)
    if z == 0:
        return 0j
    if z == 1:
        return complex(_PI2_6)
    pref = 0j
    sign = 1
    if abs(z) > 1:
        lz = cmath.log(-z)
        pref = -_PI2_6 - 0.5 * lz * lz
        z = 1 / z
        sign = -1
    if z.real > 0.5:
        pref += sign * (_PI2_6 - cmath.log(z) * cmath.log(1 - z))
        z = 1 - z
        sign = -sign
    return pref + sign * _li2_series(z)


def dilog_D(z) -> float:
    """Bloch-Wigner dilogarithm D, continuous on CP^1, zero on R u {inf}.

    D(z) = Im(Li_2(z)) + arg(1-z) log|z|.
    """
    try:
        z = complex(z)
    except OverflowError:  # a plain int or Fraction beyond the float range
        return 0.0
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        return 0.0
    if z.imag == 0.0:
        return 0.0
    w = 1 - z  # atan2, unlike cmath.phase, takes a subnormal Im w
    return li2(z).imag + math.atan2(w.imag, w.real) * math.log(abs(z))


def eval_D(s: FormalSum) -> float:
    """Linear extension of D to formal sums (canonical summation order)."""
    return math.fsum(n * dilog_D(g) for g, n in s.terms)


def sum_D(generators) -> float:
    """D summed over generators that check_domain has passed, counted with
    multiplicity: n equal ones give one term n D(g), as in a FormalSum,
    but nothing is merged with a near neighbour and no sum is built.  So
    it equals eval_D of their FormalSum bit for bit unless two distinct
    float generators lie within MERGE_TOL."""
    return math.fsum(n * dilog_D(g) for g, n in Counter(generators).items())


# -- relations ----------------------------------------------------------------

def five_term(x, y) -> FormalSum:
    """The 5-term sum [x] - [y] + [y/x] - [(1-1/x)/(1-1/y)] + [(1-x)/(1-y)].

    Every evaluation of D on it vanishes; delta kills it exactly.
    """
    x, y = normalize_values((x, y), "five_term arguments")
    for v in (x, y):
        check_domain(v, "five_term argument")
    try:
        return FormalSum([
            (x, 1),
            (y, -1),
            (y / x, 1),
            ((1 - 1 / x) / (1 - 1 / y), -1),
            ((1 - x) / (1 - y), 1),
        ])
    except OutOfDomain as exc:
        raise OutOfDomain(f"five_term({x!r}, {y!r}) degenerates: {exc}") from exc


_ORBIT_SIGNS = (1, -1, -1, 1, 1, -1)


def six_orbit(g):
    """The orbit {z, 1/z, 1-z, 1/(1-z), 1-1/z, z/(z-1)} with signs.

    Signs track the parity of [g] relative to [z] under the relations
    [1/z] = -[z] and [1-z] = -[z].  A plain int, Fraction or float g is
    settled first, so the orbit lies in one backend.
    """
    if not isinstance(g, (GaussRational, complex)):
        g, = normalize_values((g,))
    vals = (g, 1 / g, 1 - g, 1 / (1 - g), 1 - 1 / g, g / (g - 1))
    return tuple(zip(vals, _ORBIT_SIGNS))


def _orbit_rep(orbit):
    """Deterministic representative: minimal value in a fixed total order,
    on floats (modulus, phase, real part).

    The float scan is that of min over those keys, but a phase is
    computed only on an exact tie in modulus; a NaN modulus compares
    neither below nor equal, as it does inside the key.
    """
    if isinstance(orbit[0][0], GaussRational):
        return min(orbit, key=lambda t: _sort_key(t[0]))
    best = orbit[0]
    least = abs(best[0])
    for t in orbit[1:]:
        r = abs(t[0])
        if r < least or r == least and _phase_key(t[0]) < _phase_key(best[0]):
            best, least = t, r
    return best


def _phase_key(v):
    # atan2, unlike cmath.phase, takes a subnormal imaginary part
    return math.atan2(v.imag, v.real), v.real


# the representatives of the exceptional orbit {-1, 2, 1/2}, exact and
# float; a float representative is it when it merges with 0.5
_EXCEPTIONAL_REP = _orbit_rep(six_orbit(GaussRational(-1)))[0]
_EXCEPTIONAL_REP_FLOAT = 0.5


def canonicalize_six(s: FormalSum) -> FormalSum:
    """Rewrite each generator to its six-orbit representative.

    Sums equal modulo the relations [1/z] = -[z], [1-z] = -[z]
    canonicalize identically.  The representatives are merged once, as
    FormalSum generators; the exceptional orbit {-1, 2, 1/2}, where the
    two relations force 2[x] = 0, is recognised by its representative,
    and its coefficient reduces mod 2.
    """
    # [g] occupies the +1 slot of its own orbit, so [g] = sign [rep]
    reps = [(_orbit_rep(six_orbit(g)), n) for g, n in s.terms]
    out = FormalSum([(rep, n * sign) for (rep, sign), n in reps])
    terms = []
    for rep, n in out.terms:
        if (rep == _EXCEPTIONAL_REP if isinstance(rep, GaussRational)
                else _close(rep, _EXCEPTIONAL_REP_FLOAT)):
            n %= 2
        if n:
            terms.append((rep, n))
    out.terms = tuple(terms)
    return out


# -- exact delta --------------------------------------------------------------

@dataclass(frozen=True)
class WedgeElement:
    """An element of the wedge square of Q(i)* tensor Q, unit torsion
    discarded: sorted nonzero terms (p, q, c) for c (p wedge q), p before
    q in prime_key order."""

    terms: tuple

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self):
        if not self.terms:
            return "0"

        def pstr(p):
            return f"({p[0]}{'+' if p[1] >= 0 else '-'}{abs(p[1])}i)"

        return " + ".join(f"{c}*{pstr(p)}^{pstr(q)}" for p, q, c in self.terms)


def delta_exact(s: FormalSum) -> WedgeElement:
    """delta(sum n [z]) = sum n (z wedge (1-z)), computed mod torsion.

    Exact generators only.  Vanishing is necessary for the class to lie
    in the Bloch group up to torsion; it is not sufficient.  All
    generators z and 1 - z of the sum share one factorization context
    (see gaussian.factor_gaussian), made for this call and dropped with
    it: each Gaussian integer's factorization, and the Gaussian primes
    over each rational prime met so far, which new norms are divided by
    before anything goes to sympy.
    """
    coeffs = {}  # (p, q), p before q in prime_key order -> coefficient
    memo = {}  # the factorization context of this call
    keys = {}  # prime -> prime_key(prime), computed once per call

    def keyed(vec):
        for p in vec:
            if p not in keys:
                keys[p] = prime_key(p)
        return [(keys[p], p, e) for p, e in vec.items()]

    for g, n in s.terms:
        if not isinstance(g, GaussRational):
            raise Unsupported("delta_exact requires exact generators")
        u = keyed(exponent_vector(1 - g, memo))
        for kp, p, e in keyed(exponent_vector(g, memo)):
            for kq, q, f in u:
                # p wedge p = 0, and q wedge p = -(p wedge q)
                if kp < kq:
                    coeffs[p, q] = coeffs.get((p, q), 0) + n * e * f
                elif p != q:
                    coeffs[q, p] = coeffs.get((q, p), 0) - n * e * f
    terms = sorted(((p, q, c) for (p, q), c in coeffs.items() if c),
                   key=lambda t: (keys[t[0]], keys[t[1]]))
    return WedgeElement(tuple(terms))
