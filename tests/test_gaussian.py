"""Gaussian-integer factorization: examples and the multiply-back oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagdual import GaussRational, factor_gauss_int, factor_gaussian
from flagdual.errors import Unsupported
from flagdual.gaussian import exponent_vector, normalize_prime
from flagdual.scalars import gi_mul, gi_norm

from helpers import STRUCTURED_PRIMES, rand_gauss_rational, \
    structured_product


def test_factor_two_ramifies():
    num, den = factor_gaussian(GaussRational(2))
    assert den.factors == () and den.unit_pow == 0
    assert num.factors == (((1, 1), 2),)
    assert num.unit_pow == 3  # 2 = i^3 (1+i)^2
    assert num.recompose() == (2, 0)
    assert str(num) == "i^3 * (1+1i)^2"


def test_factor_i_is_a_pure_unit():
    num, den = factor_gaussian(GaussRational(0, 1))
    assert num.factors == ()
    assert num.unit_pow == 1
    assert str(num) == "i^1"
    assert den.recompose() == (1, 0)


def test_factor_five_splits():
    num, _ = factor_gaussian(GaussRational(5))
    primes = [p for p, _ in num.factors]
    assert len(primes) == 2
    assert {gi_norm(p) for p in primes} == {5}
    assert num.recompose() == (5, 0)


def test_inert_prime_stays():
    num, _ = factor_gaussian(GaussRational(9))
    assert num.factors == (((3, 0), 2),)


def test_normalize_prime_lands_in_first_quadrant():
    for p in [(2, 1), (2, -1), (-2, 1), (-2, -1), (1, 2), (0, 3), (-3, 0),
              (1, 1), (1, -1)]:
        q, k = normalize_prime(p)
        assert q[0] > 0 and q[1] >= 0
        # p = i^k q
        v = q
        for _ in range(k):
            v = gi_mul(v, (0, 1))
        assert v == p


def test_multiply_back_oracle_random():
    rng = random.Random(31)
    for _ in range(200):
        q = rand_gauss_rational(rng, span=30)
        num, den = factor_gaussian(q)
        zn = num.recompose()
        zd = den.recompose()
        assert zd[1] == 0 and zd[0] > 0
        assert GaussRational(zn[0], zn[1]) / zd[0] == q
        # primes pairwise non-associate and normalized
        for fact in (num, den):
            primes = [p for p, _ in fact.factors]
            assert len(set(primes)) == len(primes)
            for p in primes:
                assert p[0] > 0 and p[1] >= 0
                assert normalize_prime(p) == (p, 0)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3),
       st.tuples(*[st.integers(0, 5)] * len(STRUCTURED_PRIMES)))
def test_structured_products_factor_into_their_primes(unit, exponents):
    # repeated split pairs and high ramified powers, which random
    # multiply-back draws almost never reach
    z = structured_product(unit, exponents)
    f = factor_gauss_int(z)
    assert f.unit_pow == unit
    assert f.factors == tuple((p, e) for p, e in zip(STRUCTURED_PRIMES,
                                                      exponents) if e)


def test_exponent_vector_is_multiplicative():
    rng = random.Random(32)
    for _ in range(50):
        a = rand_gauss_rational(rng, span=12)
        b = rand_gauss_rational(rng, span=12)
        va, vb = exponent_vector(a), exponent_vector(b)
        vab = exponent_vector(a * b)
        combined = dict(va)
        for p, e in vb.items():
            combined[p] = combined.get(p, 0) + e
            if combined[p] == 0:
                del combined[p]
        assert combined == vab


def test_float_backend_is_unsupported():
    with pytest.raises(Unsupported):
        factor_gaussian(0.5 + 0.5j)


def test_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        factor_gaussian(GaussRational(0))
    with pytest.raises(ZeroDivisionError):
        factor_gauss_int((0, 0))


def test_rational_with_mixed_denominators():
    q = GaussRational(Fraction(1, 2), Fraction(1, 3))
    num, den = factor_gaussian(q)
    assert den.recompose() == (6, 0)
    zn = num.recompose()
    assert GaussRational(zn[0], zn[1]) / 6 == q
