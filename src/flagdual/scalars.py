"""Scalar backends threaded through every geometric computation.

Two backends exist and are never mixed inside one expression:

* exact  -- Gaussian rationals (a + b*i)/d, held as three ints in lowest
  terms (d > 0, gcd(a, b, d) = 1) over one common denominator; all the
  polynomial identities of the coordinate geometry hold on the nose
  here.  ``re`` and ``im`` read the parts as ``fractions.Fraction``.
  A sum or product ends in one gcd (``_reduced``); adding or
  subtracting an int needs none, since gcd(a + n*d, b, d) = gcd(a, b, d).
  A difference is the sum with the negation, and there is one quotient
  formula, gauss_quotient of two Gaussian integers.  Those are bare
  (a, b) int pairs, whose product, norm and text (gi_mul, gi_norm,
  format_gauss_int) are defined here once: the projective kernels work
  on Gaussian-integer representatives, with no gcd per step, and turn
  each measured ratio into a scalar once, by gauss_quotient; the
  gaussian module factors them.
* float  -- plain binary64 ``complex``; used for dilogarithm volumes and
  the Newton solver.

Plain ``int``/``Fraction`` values are exact in both backends and may mix
freely into either; normalize_values settles them into the backend of
the values beside them.  Combining a :class:`GaussRational` with a
``complex`` or ``float`` raises :class:`~flagdual.errors.BackendMismatch`
instead of silently coercing.  Every scalar answers ``x == 0``,
``complex(x)`` and ``x.conjugate()`` itself; :func:`nearly_equal` is the
one equality test that spans both backends.
"""

from __future__ import annotations

import cmath
import math
import re as _re
import sys
from fractions import Fraction

from .errors import BackendMismatch, OutOfDomain, ParseError, Unsupported

_EXACT_OK = (int, Fraction)


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise BackendMismatch(
        f"cannot combine exact scalar with {type(x).__name__}")


class GaussRational:
    """An element (a + b*i)/d of Q(i): ints a, b, d with d > 0 and
    gcd(a, b, d) = 1, so every value has exactly one representation.

    The three ints are private to this module and never rebound after
    construction; ``re``/``im`` read the value as Fractions and
    ``integer_parts`` as the ints.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if isinstance(re, int) and isinstance(im, int):
            self._a, self._b, self._d = int(re), int(im), 1
            return
        re, im = _as_fraction(re), _as_fraction(im)
        # over the lcm of the two denominators the triple is reduced
        d = math.lcm(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def integer_parts(self):
        """(a, b, d): the value is (a + b*i)/d in lowest terms, d > 0."""
        return self._a, self._b, self._d

    # -- ring operations ---------------------------------------------------
    #
    # Each operation takes a GaussRational operand as it is and sends any
    # other through _coerce; each result ends in one gcd (_reduced), a
    # quotient's in gauss_quotient.  An int (not a bool) added or
    # subtracted keeps the result in lowest terms, gcd(a + n*d, b, d) =
    # gcd(a, b, d) = 1, so it needs neither.  x + n, x - n, n - x and
    # n / x take an int without _coerce; a product takes it through
    # _coerce and the generic formula.

    def __add__(self, other):
        if type(other) is int:
            return _raw(self._a + other * self._d, self._b, self._d)
        if not isinstance(other, GaussRational):
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d1, d2 = self._d, other._d
        return _reduced(self._a * d2 + other._a * d1,
                        self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not int:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self + -other

    def __rsub__(self, other):
        if type(other) is int:
            return _raw(other * self._d - self._a, -self._b, self._d)
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + -self

    def __mul__(self, other):
        if not isinstance(other, GaussRational):
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2,
                        self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, GaussRational):
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d1, d2 = self._d, other._d
        return gauss_quotient((self._a * d2, self._b * d2),
                              (other._a * d1, other._b * d1))

    def __rtruediv__(self, other):
        if type(other) is int:
            return gauss_quotient((other * self._d, 0), (self._a, self._b))
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return _raw(-self._a, -self._b, self._d)

    def __pos__(self):
        return self

    # -- predicates and helpers --------------------------------------------

    def conjugate(self):
        return _raw(self._a, -self._b, self._d)

    def norm(self) -> Fraction:
        """Field norm re^2 + im^2 (a nonnegative rational)."""
        return Fraction(self._a * self._a + self._b * self._b,
                        self._d * self._d)

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, GaussRational):
            return (self._a == other._a and self._b == other._b
                    and self._d == other._d)
        if isinstance(other, int):
            return self._b == 0 and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (self._b == 0 and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        # equal to hash(Fraction) on real values, as == demands; a
        # non-real value equals only itself, so its one triple will do
        if self._b == 0:
            return hash(self._a) if self._d == 1 else hash(self.re)
        return hash((self._a, self._b, self._d))

    def __complex__(self):
        return complex(_ratio(self._a, self._d), _ratio(self._b, self._d))

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_exact(self)


def _ratio(n, d=1):
    """n / d for an int or float n and an int d > 0, correctly rounded, as
    Fraction.__float__ is; beyond the float range it saturates to +-inf."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _complex(x):
    """complex(x), saturated as _ratio is beyond the float range."""
    try:
        return complex(x)
    except OverflowError:
        return complex(exactify(x))


def _coerce(x):
    """x as a GaussRational if it is exact; None for a foreign type."""
    if isinstance(x, GaussRational):
        return x
    if isinstance(x, int):
        return _raw(int(x), 0, 1)  # int(): a bool becomes its int
    if isinstance(x, Fraction):
        return _raw(x.numerator, 0, x.denominator)
    if isinstance(x, (complex, float)):
        raise BackendMismatch(
            "exact scalar combined with float scalar; convert explicitly")
    return None


_new_object = object.__new__


def _raw(a, b, d):
    """The GaussRational (a + b*i)/d of a triple already in lowest terms."""
    z = _new_object(GaussRational)
    z._a, z._b, z._d = a, b, d
    return z


def _reduced(a, b, d):
    """(a + b*i)/d for any d > 0, reduced by the one gcd of the result."""
    g = math.gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    z = _new_object(GaussRational)
    z._a, z._b, z._d = a, b, d
    return z


def gauss_quotient(num, den) -> GaussRational:
    """The GaussRational num/den of two Gaussian integers, (a, b) int
    pairs, den nonzero: num times the conjugate of den over its norm,
    reduced once.  The reduced triple is the one representation of the
    value, so a real divisor needs no formula of its own."""
    (a, b), (c, d) = num, den
    n = c * c + d * d
    if not n:
        raise ZeroDivisionError("division by zero")
    return _reduced(a * c + b * d, b * c - a * d, n)


# -- Gaussian integers, (a, b) int pairs -------------------------------------

def gi_mul(x, y):
    """The product of two Gaussian integers."""
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def gi_norm(x):
    """The norm a^2 + b^2 of a Gaussian integer (a, b)."""
    return x[0] * x[0] + x[1] * x[1]


def format_gauss_int(x) -> str:
    """A Gaussian integer (a, b) as text: "(a+bi)" or "(a-bi)"."""
    a, b = x
    return f"({a}{'+' if b >= 0 else '-'}{abs(b)}i)"


# -- backend dispatch --------------------------------------------------------

def is_exact(x) -> bool:
    """True for exact scalars (GaussRational, int, Fraction)."""
    # a float or complex is refused before the isinstance check of
    # Fraction's metaclass, ABCMeta, which is several times slower
    return isinstance(x, GaussRational) or (
        not isinstance(x, (complex, float)) and isinstance(x, _EXACT_OK))


def exactify(x) -> GaussRational:
    if isinstance(x, GaussRational):
        return x
    if isinstance(x, _EXACT_OK):
        return _coerce(x)
    raise BackendMismatch(f"not an exact scalar: {x!r}")


def check_domain(z, what):
    """z in its backend's normal form, if it is a finite point of C
    minus {0, 1}; otherwise OutOfDomain, naming the value as `what`."""
    if is_exact(z):
        z = exactify(z)
        # 0 or 1; with b = 0, lowest terms give a == d only at 1
        if z._b == 0 and (z._a == 0 or z._a == z._d):
            raise OutOfDomain(f"{what} = {z} lies in {{0,1}}")
        return z
    z = complex(z)
    if z == 0 or z == 1:
        raise OutOfDomain(f"{what} = {z} lies in {{0,1}}")
    if not cmath.isfinite(z):
        raise OutOfDomain(f"{what} = {z} is not finite")
    return z


def normalize_values(values, what="scalars"):
    """Settle a collection into one backend.

    Any float/complex present makes the whole collection complex; pure
    int/Fraction collections become exact; a GaussRational beside a
    float/complex raises BackendMismatch.  (Bare ints would otherwise
    drift to float through true division.)
    """
    values = tuple(values)
    # already settled: all exact, or all complex (a subclass converts)
    if all(isinstance(v, GaussRational) for v in values) or all(
            type(v) is complex for v in values):
        return values
    if any(isinstance(v, (complex, float)) for v in values):
        if any(isinstance(v, GaussRational) for v in values):
            raise BackendMismatch(f"mixed exact/float {what}")
        return tuple(_complex(v) for v in values)
    return tuple(exactify(v) for v in values)


# -- serialization ------------------------------------------------------------
#
# Exact scalars travel as strings "a/b" or "a/b+c/d*i" (lowest terms,
# explicit sign on the imaginary part); float scalars as JSON pairs
# [re, im].  Every file format in the package shares this encoding.

def format_exact(x: GaussRational) -> str:
    """The text of an exact scalar.  A part past int's digit limit, which
    str() refuses and parse_exact would refuse to read back, raises
    Unsupported."""
    try:
        re_s = str(x.re)
        if x.im == 0:
            return re_s
        sign = "+" if x.im > 0 else "-"
        return f"{re_s}{sign}{abs(x.im)}*i"
    except ValueError:  # the digit limit
        raise Unsupported("cannot write an exact part of more than "
                          f"{sys.get_int_max_str_digits()} digits") from None


# [±]a[/b], [±]a[/b]±[c[/d][*]]i or [±][c[/d][*]]i: a space may stand
# between two tokens but splits none, so two digit runs never meet and
# "1 2" fails; (?=.) refuses the empty literal
_RATIONAL = r"(\d+)(?: */ *(\d+))?"
_LITERAL = _re.compile(
    rf"(?=.)(?:([+-]?) *{_RATIONAL})?"  # real part
    # imaginary part: its sign is required after a real part
    rf"(?: *((?(2)[+-]|[+-]?)) *(?:{_RATIONAL} *\*? *)?(i))?")


def clip(text: str) -> str:
    """text, cut to 60 characters ending in "..." when longer."""
    return text if len(text) <= 60 else text[:57] + "..."


def describe(x) -> str:
    """A scalar as error messages show it: a float one by str(x), an exact
    one as format_exact writes it; one with a part past int's digit
    limit, which format_exact refuses, as 12 significant digits of each
    part instead, clipped (see clip)."""
    if not is_exact(x):
        return str(x)
    x = exactify(x)
    try:
        return format_exact(x)
    except Unsupported:  # the digit limit; decimal converts with none
        from decimal import Context, Decimal  # loaded with fractions
        a, b, d = x.integer_parts()
        re, im = (Context(prec=12).divide(Decimal(n), Decimal(d))
                  for n in (a, b))
        return clip(f"~{re}" + (f"{'-' if b < 0 else '+'}{abs(im)}*i"
                                if b else ""))


def parse_exact(s: str) -> GaussRational:
    m = _LITERAL.fullmatch(s.strip())
    if m is None:
        raise ParseError(f"not an exact scalar: {clip(repr(s))}")
    re_sign, a, b, im_sign, c, d, i = m.groups("")
    try:
        return GaussRational(
            Fraction(int(re_sign + (a or "0")), int(b or 1)),
            Fraction(int(im_sign + (c or "1")), int(d or 1)) if i else 0)
    except ZeroDivisionError as exc:
        raise ParseError(f"zero denominator: {clip(repr(s))}") from exc
    except ValueError as exc:  # int()'s digit limit
        raise ParseError(f"{clip(repr(s))} has a part of more than "
                         f"{sys.get_int_max_str_digits()} digits") from exc


def scalar_to_json(x):
    if is_exact(x):
        return format_exact(exactify(x))
    z = complex(x)
    return [z.real, z.imag]


def _is_real(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def scalar_from_json(v, backend: str):
    """Decode one scalar; ``backend`` is 'exact', 'float' or 'auto'.

    A bare real reads as the pair [v, 0]; a bare int stays exact unless
    the backend is 'float'."""
    if isinstance(v, str):
        q = parse_exact(v)
        return complex(q) if backend == "float" else q
    pair = [v, 0] if _is_real(v) else v
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2
            and all(map(_is_real, pair))):
        raise ParseError(f"not a scalar encoding: {v!r}")
    if isinstance(v, int) and backend != "float":
        return GaussRational(v)
    if backend == "exact":
        raise ParseError(f"float literal {v!r} rejected by the exact backend")
    return complex(_ratio(pair[0]), _ratio(pair[1]))


def nearly_equal(a, b, tol) -> bool:
    """Backend-aware equality: exact, or relative float closeness to tol.

    Plain int/Fraction values are neutral, as everywhere; only a
    GaussRational against a float or complex raises BackendMismatch.
    """
    if is_exact(a) and is_exact(b):
        return a == b
    if isinstance(a, GaussRational) or isinstance(b, GaussRational):
        raise BackendMismatch("comparing exact with float scalar")
    za, zb = _complex(a), _complex(b)
    if not (math.isfinite(za.real) and math.isfinite(za.imag)
            and math.isfinite(zb.real) and math.isfinite(zb.imag)):
        return False
    return abs(za - zb) <= tol * (1.0 + abs(za) + abs(zb))
