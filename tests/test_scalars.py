"""Exact scalar backend: closure, rejection of mixing, serialization."""

import math
import operator
import random
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagdual import GaussRational, format_exact, parse_exact, scalars
from flagdual.errors import BackendMismatch, ParseError, Unsupported
from flagdual.scalars import (describe, gauss_quotient, is_exact,
                              nearly_equal, normalize_values,
                              scalar_from_json, scalar_to_json)

from helpers import FractionPairGauss, rand_gauss_rational


def test_field_operations_are_closed_and_exact():
    rng = random.Random(11)
    for _ in range(300):
        a = rand_gauss_rational(rng)
        b = rand_gauss_rational(rng)
        for v in (a + b, a - b, a * b, a / b):
            assert isinstance(v, GaussRational)
        assert (a / b) * b == a
        assert a * b.conjugate() == (a.conjugate() * b).conjugate()
        assert a.norm() == (a * a.conjugate()).re


def test_int_and_fraction_mix_into_exact():
    a = GaussRational(Fraction(1, 2), Fraction(3))
    assert 1 - a == GaussRational(Fraction(1, 2), Fraction(-3))
    assert a * 2 == GaussRational(1, 6)
    assert 1 / GaussRational(0, 1) == GaussRational(0, -1)
    assert Fraction(1, 3) + a == GaussRational(Fraction(5, 6), 3)


def test_mixed_backend_is_rejected_not_coerced():
    a = GaussRational(1, 2)
    with pytest.raises(BackendMismatch):
        a + (0.5 + 0j)
    with pytest.raises(BackendMismatch):
        (0.5 + 0j) * a
    with pytest.raises(BackendMismatch):
        a / 0.25
    with pytest.raises(BackendMismatch):
        normalize_values([a, 1.0j])


def test_foreign_operands_are_left_to_python():
    # each operator returns NotImplemented for a type it does not know,
    # so Python raises its TypeError; == falls back to identity
    x, foreign = GaussRational(1, 2), object()
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for args in ((x, foreign), (foreign, x)):
            with pytest.raises(TypeError, match="unsupported operand"):
                op(*args)
    assert (x == "x") is False
    assert +x is x


def test_zero_division_raises():
    # one quotient formula, so one message
    for divide in (lambda: GaussRational(1) / GaussRational(0),
                   lambda: GaussRational(1, 2) / 0,
                   lambda: 1 / GaussRational(0),
                   lambda: Fraction(1, 2) / GaussRational(0),
                   lambda: gauss_quotient((1, 1), (0, 0))):
        with pytest.raises(ZeroDivisionError, match="^division by zero$"):
            divide()


def test_format_parse_round_trip():
    rng = random.Random(12)
    for _ in range(300):
        q = rand_gauss_rational(rng, span=40)
        assert parse_exact(format_exact(q)) == q
    assert format_exact(GaussRational(2)) == "2"
    assert format_exact(GaussRational(Fraction(-3, 2))) == "-3/2"
    assert format_exact(GaussRational(Fraction(1, 2), Fraction(-3, 4))) \
        == "1/2-3/4*i"


# literal -> (re, im); a space between two tokens is insignificant
ACCEPTED = {
    "i": (0, 1), "-i": (0, -1), "+i": (0, 1), "2i": (0, 2), "2*i": (0, 2),
    "3/4*i": (0, Fraction(3, 4)), "-3/4i": (0, Fraction(-3, 4)),
    "5": (5, 0), "+5": (5, 0), "-3/2": (Fraction(-3, 2), 0), "-0": (0, 0),
    "007/010*i": (0, Fraction(7, 10)),
    "1/2-3/4*i": (Fraction(1, 2), Fraction(-3, 4)),
    " 1/2 + 3/4*i ": (Fraction(1, 2), Fraction(3, 4)),
    "- 12 / 34 - i": (Fraction(-6, 17), -1), "1+2 * i": (1, 2),
    "1 -2 i": (1, -2), "\t1/2+i\n": (Fraction(1, 2), 1),
}


def test_parse_accepts_common_forms():
    for text, (re_part, im_part) in ACCEPTED.items():
        assert parse_exact(text) == GaussRational(re_part, im_part), text


# besides malformed tokens: a space between two digits, a doubled sign
# and a zero denominator
@pytest.mark.parametrize("bad", ["", "x", "1//2", "1+2", "2i+1", "1.5",
                                 "1/2+*i", "i*i", "1 2", "1 2i", "12 3/4",
                                 "1+-2i", "1-+2i", "--2i", "+-i", "1+2 3*i",
                                 "*i", "1/0", "1+2/0*i", "1/2/3", "1+2j"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ParseError, match=f"^[a-z ]+: {re.escape(repr(bad))}$"):
        parse_exact(bad)


def test_json_encoding_per_backend():
    assert scalar_to_json(GaussRational(Fraction(1, 3))) == "1/3"
    assert scalar_to_json(0.5 - 2j) == [0.5, -2.0]
    assert scalar_from_json("1/3", "auto") == GaussRational(Fraction(1, 3))
    assert scalar_from_json([0.5, -2.0], "auto") == 0.5 - 2j
    assert scalar_from_json("1/3", "float") == complex(1 / 3)
    with pytest.raises(ParseError):
        scalar_from_json([0.5, -2.0], "exact")


@pytest.mark.parametrize("backend", ("auto", "exact", "float"))
@pytest.mark.parametrize("x,as_complex", [
    (0, 0j), (3, 3 + 0j), (-10 ** 400, complex(-math.inf, 0)), (0.0, 0j),
    (-0.0, complex(-0.0, 0)), (2.5, 2.5 + 0j), (1e308, 1e308 + 0j),
    (math.inf, complex(math.inf, 0))])
def test_bare_reals_read_as_real_pairs(x, as_complex, backend):
    # exact only for a bare int outside the float backend
    if isinstance(x, int) and backend != "float":
        assert scalar_from_json(x, backend) == GaussRational(x)
    elif backend == "exact":
        with pytest.raises(ParseError, match="rejected by the exact"):
            scalar_from_json(x, backend)
    else:
        assert repr(scalar_from_json(x, backend)) == repr(as_complex) \
            == repr(scalar_from_json([x, 0], backend))


@pytest.mark.parametrize("backend", ("auto", "exact", "float"))
@pytest.mark.parametrize("v", (True, None, [], [1], [1, 2, 3], [[1], 2],
                               [True, 0], [1, "2"], {"re": 1}))
def test_non_scalar_encodings_are_parse_errors(v, backend):
    with pytest.raises(ParseError, match="not a scalar encoding"):
        scalar_from_json(v, backend)


def test_values_beyond_the_float_range_saturate_to_inf():
    big = 10 ** 400
    assert complex(GaussRational(big, -big)) == complex(math.inf, -math.inf)
    assert complex(GaussRational(Fraction(-big, 3), 1)) == \
        complex(-math.inf, 1)
    # a huge numerator over a huge denominator is an ordinary float
    assert complex(GaussRational(Fraction(big, 10 ** 399), 0)) == 10
    assert complex(GaussRational(Fraction(1, big))) == 0
    assert normalize_values([big, Fraction(-big, 7), 1.5]) == (
        complex(math.inf), complex(-math.inf), 1.5)
    assert scalar_from_json(big, "float") == complex(math.inf)
    assert scalar_from_json([-big, big], "auto") == complex(-math.inf,
                                                            math.inf)
    assert scalar_from_json(str(big), "float") == complex(math.inf)
    assert not nearly_equal(big, 1.0, 1e-9)


@pytest.mark.parametrize("x,exact", [
    (3, True), (True, True), (Fraction(1, 3), True),
    (GaussRational(1, 2), True), (0.5, False), (1j, False),
    (np.float64(1), False), (np.complex128(1), False), (np.int64(1), False),
    (None, False), ("1", False)], ids=repr)
def test_is_exact_truth_table(x, exact):
    assert is_exact(x) is exact


def test_nearly_equal_semantics():
    assert nearly_equal(GaussRational(1, 2), GaussRational(1, 2), 1e-12)
    assert not nearly_equal(GaussRational(1, 2), GaussRational(1, 3), 1e-12)
    assert nearly_equal(1 + 1e-14 + 0j, 1 + 0j, 1e-12)
    assert not nearly_equal(1 + 1e-6 + 0j, 1 + 0j, 1e-12)
    with pytest.raises(BackendMismatch):
        nearly_equal(GaussRational(1), 1 + 0j, 1e-12)


# -- properties against the Fraction-pair reference -------------------------------

# small parts collide often enough to exercise ==; wide ones carry gcds
_RATIONALS = st.one_of(
    st.fractions(-4, 4, max_denominator=4),
    st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70),
              st.integers(1, 2 ** 70)))
_PARTS = st.tuples(_RATIONALS, _RATIONALS)  # (re, im) of a GaussRational
_PLAIN = st.one_of(st.integers(-2 ** 70, 2 ** 70), _RATIONALS)
_OPS = [operator.add, operator.sub, operator.mul, operator.truediv]


def _pair(v):
    """(value, reference) for drawn parts or a plain int/Fraction."""
    if isinstance(v, tuple):
        return GaussRational(*v), FractionPairGauss(*v)
    return v, FractionPairGauss(v)


def _agrees(x, ref):
    """x is ref, in lowest terms with a positive denominator."""
    a, b, d = x.integer_parts()
    return (d > 0 and math.gcd(a, b, d) == 1
            and (Fraction(a, d), Fraction(b, d)) == (ref.re, ref.im)
            and (x.re, x.im) == (ref.re, ref.im))


@settings(max_examples=300, deadline=None)
@given(_PARTS, st.one_of(_PARTS, _PLAIN), st.sampled_from(_OPS),
       st.booleans())
def test_ring_operations_agree_with_fraction_pairs(x, y, op, swap):
    (x, rx), (y, ry) = _pair(x), _pair(y)
    (left, rl), (right, rr) = ((y, ry), (x, rx)) if swap else ((x, rx),
                                                               (y, ry))
    if op is operator.truediv and right == 0:
        with pytest.raises(ZeroDivisionError):
            op(left, right)
        return
    got = op(left, right)
    assert isinstance(got, GaussRational)
    assert _agrees(got, op(rl, rr))


@settings(max_examples=200, deadline=None)
@given(_PARTS, _PARTS)
def test_conjugate_norm_and_equality_agree_with_fraction_pairs(x, y):
    (x, rx), (y, ry) = _pair(x), _pair(y)
    assert _agrees(x, rx) and _agrees(-x, FractionPairGauss() - rx)
    assert _agrees(x.conjugate(), rx.conjugate())
    assert x.norm() == rx.norm()
    assert (x == y) == (rx == ry)
    if x == y:
        assert hash(x) == hash(y)


@settings(max_examples=200, deadline=None)
@given(_PLAIN)
def test_real_values_hash_and_compare_as_their_rational(q):
    x = GaussRational(q)
    assert x == q and q == x
    assert hash(x) == hash(q)
    assert _agrees(x, FractionPairGauss(q))


@settings(max_examples=200, deadline=None)
@given(_PARTS)
def test_format_parse_round_trip_property(x):
    x = GaussRational(*x)
    assert parse_exact(format_exact(x)) == x


@settings(max_examples=200, deadline=None)
@given(_PARTS, st.data())
def test_spaces_matter_only_between_digits(x, data):
    q = GaussRational(*x)
    text = format_exact(q)

    def pad():
        return " " * data.draw(st.integers(0, 2))

    # spaces around every sign, slash, star and i, and at both ends
    spaced = pad() + "".join(c if c.isdigit() else pad() + c + pad()
                             for c in text) + pad()
    assert parse_exact(spaced) == q
    splits = [k for k in range(1, len(text))
              if text[k - 1].isdigit() and text[k].isdigit()]
    if splits:
        k = data.draw(st.sampled_from(splits))
        with pytest.raises(ParseError):
            parse_exact(text[:k] + " " + text[k:])


# the operations with an int fast path, as (operator, int on the left)
_INT_FAST = [(operator.add, False), (operator.add, True),
             (operator.sub, False), (operator.sub, True),
             (operator.truediv, True)]


@settings(max_examples=300, deadline=None)
@given(_PARTS, st.one_of(st.integers(-2 ** 70, 2 ** 70), st.booleans()),
       st.sampled_from(_INT_FAST))
def test_int_fast_paths_equal_the_generic_path(x, n, case):
    op, int_left = case
    x, generic = GaussRational(*x), GaussRational(n)
    if int_left and op is operator.truediv and x == 0:
        return
    coerce, coerced = scalars._coerce, []
    with mock.patch.object(scalars, "_coerce",
                           lambda v: coerced.append(v) or coerce(v)):
        got = op(n, x) if int_left else op(x, n)
    want = op(generic, x) if int_left else op(x, generic)
    assert got.integer_parts() == want.integer_parts()
    # a bool is no int here: it takes the generic path, through _coerce
    assert coerced == ([n] if type(n) is bool else [])


def test_non_real_hash_reads_the_triple():
    x = GaussRational(Fraction(3, 4), Fraction(-1, 2))
    assert hash(x) == hash(x.integer_parts()) == hash(GaussRational(
        Fraction(6, 8), Fraction(-2, 4)))


def test_gauss_quotient_divides_gaussian_integers():
    assert gauss_quotient((6, 4), (2, 0)) == GaussRational(3, 2)
    assert gauss_quotient((6, 4), (-4, 0)) == GaussRational(
        Fraction(-3, 2), -1)
    assert gauss_quotient((1, 0), (0, 1)) == GaussRational(0, -1)
    assert gauss_quotient((5, 0), (1, 2)) == GaussRational(1, -2)
    with pytest.raises(ZeroDivisionError):
        gauss_quotient((1, 1), (0, 0))


def test_describe_clips_values_past_the_digit_limit():
    assert describe(GaussRational(Fraction(1, 2), -3)) == "1/2-3*i"
    assert describe(0.5 - 1j) == "(0.5-1j)"
    big = GaussRational(10 ** 2200 + 1)
    with pytest.raises(Unsupported, match=r"^cannot write an exact part of "
                       r"more than \d+ digits$"):
        str(big * big)  # int's digit limit
    assert describe(big * big) == "~1.00000000000E+4400"
    assert describe((10 ** 2200 + 1) ** 2) == "~1.00000000000E+4400"
    assert describe(GaussRational(Fraction(-2, 3) * 10 ** 4400, 5)) == \
        "~-6.66666666667E+4399+5*i"
