"""Exact factorization of Gaussian rationals over Z[i].

Gaussian integers are the (a, b) int pairs of scalars, which holds
their arithmetic (gi_mul, gi_norm, format_gauss_int); this module adds
factorization alone.  It is the one that loads sympy, and within the
package only prebloch's delta imports it.

Every nonzero Gaussian integer factors uniquely (up to units 1, i, -1, -i)
into Gaussian primes.  We normalize each prime within its associate class
to the representative in the closed first quadrant, a > 0, b >= 0, which
exists and is unique (the four associates have arguments differing by
pi/2).  The unit shed by the normalization accumulates into a power of i.

Rational primes split in Z[i] the usual way: 2 ramifies as -i (1+i)^2,
p = 1 mod 4 splits into a conjugate pair, p = 3 mod 4 stays inert.  The
primes over p are divided out at most as often as p^e in the norm allows:
e times 1+i, e/2 times an inert p, e times in all for a split pair, so the
conjugate takes exactly what the first prime left.  A factorization
context (a dict shared by the calls of one computation, see
factor_gaussian) keeps the Gaussian primes over each rational prime met
so far, so each new norm is divided by those primes first, with no
square root of -1 and no Gaussian gcd; only norm cofactors whose primes
are new to the context go to sympy's integer factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from sympy import factorint

from .errors import Unsupported
from .scalars import exactify, format_gauss_int, gi_mul, gi_norm, is_exact


def _gi_divmod(x, y):
    """Rounded division making Z[i] a Euclidean domain."""
    n = gi_norm(y)
    cr = x[0] * y[0] + x[1] * y[1]
    ci = x[1] * y[0] - x[0] * y[1]
    qr = (2 * cr + n) // (2 * n)
    qi = (2 * ci + n) // (2 * n)
    q = (qr, qi)
    return q, (x[0] - (q[0] * y[0] - q[1] * y[1]),
               x[1] - (q[0] * y[1] + q[1] * y[0]))


def _gi_divexact(x, y):
    """x / y when y divides x in Z[i], else None: x conj(y) / N(y)."""
    n = gi_norm(y)
    cr = x[0] * y[0] + x[1] * y[1]
    ci = x[1] * y[0] - x[0] * y[1]
    if cr % n or ci % n:
        return None
    return cr // n, ci // n


def _gi_gcd(x, y):
    while y != (0, 0):
        _, r = _gi_divmod(x, y)
        x, y = y, r
    return x


_UNITS = {(1, 0): 0, (0, 1): 1, (-1, 0): 2, (0, -1): 3}


def normalize_prime(p):
    """Return (first-quadrant associate, k) with p = i^k * associate."""
    for k in range(4):
        if p[0] > 0 and p[1] >= 0:
            return p, k % 4
        p = (p[1], -p[0])  # multiply by -i
    raise ValueError("zero is not normalizable")


@dataclass(frozen=True)
class GaussianFactorization:
    """unit i^unit_pow times the product of primes**exponents."""

    unit_pow: int
    factors: tuple  # ((a, b), exponent) pairs, primes normalized & sorted

    def recompose(self):
        z = (1, 0)
        for p, e in self.factors:
            for _ in range(e):
                z = gi_mul(z, p)
        for _ in range(self.unit_pow % 4):
            z = gi_mul(z, (0, 1))
        return z

    def __str__(self):
        parts = [f"i^{self.unit_pow % 4}"] if self.unit_pow % 4 else []
        for p, e in self.factors:
            s = format_gauss_int(p)
            parts.append(s if e == 1 else f"{s}^{e}")
        return " * ".join(parts) if parts else "1"


def prime_key(p):
    """Canonical order of normalized primes: by norm, then coordinates."""
    return (gi_norm(p), p[0], p[1])


def _sqrt_minus_one(p):
    """A square root of -1 mod a prime p = 1 mod 4: c^((p-1)/4) for the
    least c that is not a square mod p (Euler's criterion)."""
    for c in count(2):
        s = pow(c, (p - 1) // 4, p)
        if s * s % p == p - 1:
            return s


def _primes_over(p):
    """The normalized Gaussian primes over a rational prime p: 1+i over 2,
    p itself when p = 3 mod 4, and pi, conj(pi) when p = 1 mod 4."""
    if p == 2:
        return ((1, 1),)
    if p % 4 == 3:
        return ((p, 0),)
    pi = _gi_gcd((p, 0), (_sqrt_minus_one(p), 1))
    return (normalize_prime(pi)[0], normalize_prime((pi[0], -pi[1]))[0])


def factor_gauss_int(z, memo=None) -> GaussianFactorization:
    """Factor a nonzero Gaussian integer (a, b) over Z[i].

    A dict passed as memo is a factorization context (see
    factor_gaussian): the norm is divided first by the rational primes it
    holds, whose Gaussian primes are read from it, and only a cofactor
    greater than 1 goes to factorint; the primes that returns join it.
    """
    if z == (0, 0):
        raise ZeroDivisionError("cannot factor zero")
    memo = {} if memo is None else memo
    rest, norm_primes = gi_norm(z), []
    for p in memo:
        if type(p) is int and rest % p == 0:
            e = 0
            while rest % p == 0:
                rest, e = rest // p, e + 1
            norm_primes.append((p, e))
    if rest > 1:
        for p, e in factorint(rest).items():
            memo[p] = _primes_over(p)
            norm_primes.append((p, e))
    found = {}
    for p, e in norm_primes:
        if p % 4 == 3:
            e //= 2
        for prime in memo[p]:
            k = 0
            while k < e and (q := _gi_divexact(z, prime)) is not None:
                z, k = q, k + 1
            if k:
                e -= k
                found[prime] = k
    if z not in _UNITS:
        raise ArithmeticError(f"factorization left non-unit remainder {z}")
    factors = tuple(sorted(found.items(), key=lambda kv: prime_key(kv[0])))
    return GaussianFactorization(_UNITS[z], factors)


def factor_gaussian(q, memo=None):
    """Split an exact scalar into numerator/denominator factorizations.

    Returns (GaussianFactorization of the Gaussian-integer numerator,
    GaussianFactorization of the positive rational-integer denominator);
    their quotient recomposes to the input.  A dict passed as memo is the
    factorization context of the calls that share it, and lives only as
    long as the caller keeps it: it holds each Gaussian integer's
    factorization under its (a, b) pair, and each rational prime p met so
    far under the int p, mapped to the normalized Gaussian primes over p
    (1+i for 2, p itself when inert, pi and conj(pi) when p splits).  The
    norm of each Gaussian integer not yet in it is divided by those primes
    first; only a cofactor greater than 1 goes to sympy.
    """
    if not is_exact(q):
        raise Unsupported("factor_gaussian requires the exact backend")
    q = exactify(q)
    if q.is_zero():
        raise ZeroDivisionError("cannot factor zero")
    a, b, d = q.integer_parts()
    memo = {} if memo is None else memo
    for z in ((a, b), (d, 0)):
        if z not in memo:
            memo[z] = factor_gauss_int(z, memo)
    return memo[a, b], memo[d, 0]


def exponent_vector(q, memo=None) -> dict:
    """Merged prime -> exponent map of an exact scalar (units dropped);
    memo is a factorization context as for factor_gaussian, shared by the
    calls that pass it and by nothing else."""
    fnum, fden = factor_gaussian(q, memo)
    vec = dict(fnum.factors)
    for p, e in fden.factors:
        vec[p] = vec.get(p, 0) - e
        if vec[p] == 0:
            del vec[p]
    return vec
