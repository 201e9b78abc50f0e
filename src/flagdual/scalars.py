"""Scalar backends threaded through every geometric computation.

Two backends exist and are never mixed inside one expression:

* exact  -- Gaussian rationals, pairs of ``fractions.Fraction``; all the
  polynomial identities of the coordinate geometry hold on the nose here.
* float  -- plain binary64 ``complex``; used for dilogarithm volumes and
  the Newton solver.

Plain ``int``/``Fraction`` values are exact in both backends and may mix
freely into either.  Combining a :class:`GaussRational` with a ``complex``
or ``float`` raises :class:`~flagdual.errors.BackendMismatch` instead of
silently coercing.  Every scalar answers ``x == 0``, ``complex(x)`` and
``x.conjugate()`` itself; :func:`nearly_equal` is the one equality test
that spans both backends.
"""

from __future__ import annotations

import cmath
import math
import re as _re
from fractions import Fraction

from .errors import BackendMismatch, OutOfDomain, ParseError

_EXACT_OK = (int, Fraction)


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise BackendMismatch(
        f"cannot combine exact scalar with {type(x).__name__}")


class GaussRational:
    """An element of Q(i), stored as exact real and imaginary Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRational is immutable")

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, GaussRational):
            return other
        if isinstance(other, _EXACT_OK):
            return GaussRational(other)
        if isinstance(other, (complex, float)):
            raise BackendMismatch(
                "exact scalar combined with float scalar; convert explicitly")
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re * o.re - self.im * o.im,
                             self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussRational((self.re * o.re + self.im * o.im) / n,
                             (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __pos__(self):
        return self

    # -- predicates and helpers --------------------------------------------

    def conjugate(self):
        return GaussRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """Field norm re^2 + im^2 (a nonnegative rational)."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, GaussRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _EXACT_OK):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_exact(self)


# -- backend dispatch --------------------------------------------------------

def is_exact(x) -> bool:
    """True for exact scalars (GaussRational, int, Fraction)."""
    return isinstance(x, (GaussRational,) + _EXACT_OK)


def exactify(x) -> GaussRational:
    if isinstance(x, GaussRational):
        return x
    if isinstance(x, _EXACT_OK):
        return GaussRational(x)
    raise BackendMismatch(f"not an exact scalar: {x!r}")


def check_domain(z, what):
    """z in its backend's normal form, if it is a finite point of C
    minus {0, 1}; otherwise OutOfDomain, naming the value as `what`."""
    if is_exact(z):
        z = exactify(z)
        if z.is_zero() or z == 1:
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
    has_float = any(
        isinstance(v, (complex, float)) and not isinstance(v, bool)
        for v in values)
    if has_float:
        if any(isinstance(v, GaussRational) for v in values):
            raise BackendMismatch(f"mixed exact/float {what}")
        return tuple(complex(v) for v in values)
    return tuple(exactify(v) for v in values)


# -- serialization ------------------------------------------------------------
#
# Exact scalars travel as strings "a/b" or "a/b+c/d*i" (lowest terms,
# explicit sign on the imaginary part); float scalars as JSON pairs
# [re, im].  Every file format in the package shares this encoding.

def format_exact(x: GaussRational) -> str:
    re_s = str(x.re)
    if x.im == 0:
        return re_s
    sign = "+" if x.im > 0 else "-"
    return f"{re_s}{sign}{abs(x.im)}*i"


def _parse_rational(txt: str) -> Fraction:
    if not _re.fullmatch(r"[+-]?\d+(/\d+)?", txt):
        raise ParseError(f"not a rational literal: {txt!r}")
    try:
        return Fraction(txt)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator: {txt!r}") from None


def parse_exact(s: str) -> GaussRational:
    t = s.strip().replace(" ", "")
    if not t:
        raise ParseError("empty scalar string")
    if "i" not in t:
        return GaussRational(_parse_rational(t))
    # locate the sign separating real and imaginary parts (never at index 0)
    split = -1
    for k in range(1, len(t)):
        if t[k] in "+-" and t[k - 1] not in "+-*/":
            split = k
    if split == -1:
        re_txt, im_txt = "", t
    else:
        re_txt, im_txt = t[:split], t[split:]
    if not im_txt.endswith("i") or "i" in re_txt:
        raise ParseError(f"not an exact scalar: {s!r}")
    im_txt = im_txt[:-1]
    sign = 1
    if im_txt[:1] in ("+", "-"):
        sign = -1 if im_txt[0] == "-" else 1
        im_txt = im_txt[1:]
    if im_txt.endswith("*"):
        im_txt = im_txt[:-1]
        if not im_txt:
            raise ParseError(f"dangling '*' in scalar: {s!r}")
    im_part = _parse_rational(im_txt) if im_txt else Fraction(1)
    re_part = _parse_rational(re_txt) if re_txt else Fraction(0)
    return GaussRational(re_part, sign * im_part)


def scalar_to_json(x):
    if is_exact(x):
        return format_exact(exactify(x))
    z = complex(x)
    return [z.real, z.imag]


def scalar_from_json(v, backend: str):
    """Decode one scalar; ``backend`` is 'exact', 'float' or 'auto'."""
    if isinstance(v, str):
        q = parse_exact(v)
        if backend == "float":
            return complex(q)
        return q
    if isinstance(v, (list, tuple)) and len(v) == 2 \
            and all(isinstance(c, (int, float)) for c in v):
        if backend == "exact":
            raise ParseError(
                f"float literal {v!r} rejected by the exact backend")
        return complex(v[0], v[1])
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        # bare reals: exact when integral and backend allows
        if backend != "float" and isinstance(v, int):
            return GaussRational(v)
        if backend == "exact":
            raise ParseError(
                f"float literal {v!r} rejected by the exact backend")
        return complex(v)
    raise ParseError(f"not a scalar encoding: {v!r}")


def nearly_equal(a, b, tol=1e-12) -> bool:
    """Backend-aware equality: exact equality or relative float closeness.

    Plain int/Fraction values are neutral, as everywhere; only a
    GaussRational against a float or complex raises BackendMismatch.
    """
    if is_exact(a) and is_exact(b):
        return a == b
    if isinstance(a, GaussRational) or isinstance(b, GaussRational):
        raise BackendMismatch("comparing exact with float scalar")
    za, zb = complex(a), complex(b)
    if not (math.isfinite(za.real) and math.isfinite(za.imag)
            and math.isfinite(zb.real) and math.isfinite(zb.imag)):
        return False
    return abs(za - zb) <= tol * (1.0 + abs(za) + abs(zb))
