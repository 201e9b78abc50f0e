"""Dilogarithm, formal sums, six-orbit canonicalization, exact delta."""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flagdual import (FormalSum, GaussRational, beta_complex, bundled,
                      canonicalize_six, delta_exact, dilog_D, eval_D,
                      five_term, gaussian, prebloch, six_orbit)
from flagdual.errors import BackendMismatch, OutOfDomain, Unsupported
from flagdual.gaussian import factor_gaussian, prime_key
from flagdual.prebloch import MERGE_TOL, _orbit_rep

from helpers import (STRUCTURED_SCALAR, delta_dense, dilog_quadrature,
                     rand_exact_minimal, rand_gauss_rational)


def test_dilog_vanishes_on_reals():
    for x in (-17.0, -1.0, -0.2, 0.0, 0.3, 0.5, 1.0, 1.7, 250.0):
        assert dilog_D(complex(x)) == 0.0


def test_dilog_special_value_against_quadrature():
    w = cmath.exp(1j * math.pi / 3)
    oracle = dilog_quadrature(w)
    assert abs(oracle - 1.014941606409653) < 1e-11
    assert abs(dilog_D(w) - oracle) < 1e-11


def test_dilog_series_matches_quadrature_on_100_points():
    rng = random.Random(81)
    checked = 0
    while checked < 100:
        r = rng.uniform(0.05, 3.5)
        th = rng.uniform(0.05, math.pi - 0.05)
        z = cmath.rect(r, th if rng.random() < 0.5 else -th)
        if abs(z - 1) < 0.05:
            continue
        assert abs(dilog_D(z) - dilog_quadrature(z)) < 1e-11
        checked += 1


def _dilog_mpmath(z: complex) -> float:
    """D(z) = Im Li_2(z) + arg(1-z) log|z| through mpmath's polylog."""
    with mpmath.workdps(30):
        w = mpmath.mpc(z)
        return float(mpmath.im(mpmath.polylog(2, w))
                     + mpmath.arg(1 - w) * mpmath.log(abs(w)))


def test_dilog_matches_mpmath_polylog():
    rng = random.Random(90)
    regions = {"inside": 0, "outside": 0, "right": 0}
    checked = 0
    while checked < 300:
        z = cmath.rect(math.exp(rng.uniform(-3, 3)),
                       rng.uniform(-math.pi, math.pi))
        if abs(z - 1) < 0.05 or abs(z.imag) < 1e-3:
            continue
        regions["outside" if abs(z) > 1 else "inside"] += 1
        regions["right"] += z.real > 0.5
        assert abs(dilog_D(z) - _dilog_mpmath(z)) < 1e-12
        checked += 1
    assert min(regions.values()) > 30


def test_eval_d_matches_mpmath_polylog():
    rng = random.Random(91)
    for _ in range(20):
        pairs = [(complex(rng.uniform(-3, 3), rng.uniform(0.05, 3)),
                  rng.choice((-2, -1, 1, 3))) for _ in range(12)]
        oracle = math.fsum(n * _dilog_mpmath(g) for g, n in pairs)
        assert abs(eval_D(FormalSum(pairs)) - oracle) < 1e-11


def test_dilog_symmetries():
    rng = random.Random(82)
    for _ in range(1000):
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(z) < 0.1 or abs(z - 1) < 0.1:
            continue
        d = dilog_D(z)
        assert abs(dilog_D(z.conjugate()) + d) <= 1e-12 * (1 + abs(d))
        assert abs(dilog_D(1 / z) + d) <= 1e-12 * (1 + abs(d))
        assert abs(dilog_D(1 - z) + d) <= 1e-12 * (1 + abs(d))


def test_subnormal_imaginary_parts_are_accepted():
    assert abs(dilog_D(0.3 + 5e-324j)) < 1e-300
    assert dilog_D(-2 + 5e-324j) == 0.0
    assert len(canonicalize_six(FormalSum([(3 - 5e-324j, 1)]))) == 1


def test_dilog_extends_by_zero():
    assert dilog_D(0 + 0j) == 0.0
    assert dilog_D(1 + 0j) == 0.0
    assert dilog_D(complex("inf")) == 0.0
    # an exact value beyond the float range is read as infinity
    assert dilog_D(GaussRational(10 ** 400, 3 * 10 ** 400)) == 0.0
    assert dilog_D(10 ** 400) == 0.0
    assert dilog_D(Fraction(-10 ** 400, 7)) == 0.0


def test_dilog_continuous_at_exceptional_points():
    # D extends continuously by 0 at 0, 1 and infinity
    for eps in (1e-8, 1e-11, 1e-13):
        assert abs(dilog_D(complex(eps, eps))) < 1e-6
        assert abs(dilog_D(complex(1 - eps, eps))) < 1e-6
        assert abs(dilog_D(complex(1e7, 1e7))) < 1e-5


def test_six_orbit_signs():
    z = 3 + 1j
    vals = dict(six_orbit(z))
    assert vals[z] == 1
    assert vals[1 / z] == -1
    assert vals[1 - z] == -1
    assert vals[1 / (1 - z)] == 1
    assert vals[1 - 1 / z] == 1
    assert vals[z / (z - 1)] == -1


def test_five_term_literal_two_three():
    s = five_term(GaussRational(2), GaussRational(3))
    expect = FormalSum([
        (GaussRational(2), 1), (GaussRational(3), -1),
        (GaussRational(Fraction(3, 2)), 1),
        (GaussRational(Fraction(3, 4)), -1),
        (GaussRational(Fraction(1, 2)), 1)])
    assert s == expect
    assert eval_D(s) == 0.0  # all real generators


def test_five_term_numeric_1000():
    rng = random.Random(83)
    done = 0
    while done < 1000:
        x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        y = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if min(abs(x), abs(y), abs(x - 1), abs(y - 1), abs(x - y)) < 0.02:
            continue
        assert abs(eval_D(five_term(x, y))) < 1e-10
        done += 1


FIVE_TERM_TOL = 1e-10  # |D| of a float five-term sum, as in criterion 4
_REAL = st.floats(-3, 3, allow_nan=False, allow_infinity=False)
_FLOAT_ARG = st.builds(complex, _REAL, _REAL)
_PART = st.fractions(-9, 9, max_denominator=9)
_EXACT_ARG = st.builds(GaussRational, _PART, _PART).filter(
    lambda q: q != 0 and q != 1)


@settings(max_examples=300, deadline=None)
@given(_FLOAT_ARG, _FLOAT_ARG)
def test_five_term_dilogarithm_property(x, y):
    assume(min(abs(x), abs(y), abs(x - 1), abs(y - 1), abs(x - y)) >= 0.02)
    assert abs(eval_D(five_term(x, y))) <= FIVE_TERM_TOL


@settings(max_examples=100, deadline=None)
@given(_EXACT_ARG, _EXACT_ARG)
def test_five_term_delta_property(x, y):
    assume(x != y)
    assert delta_exact(five_term(x, y)).is_zero()


def test_five_term_degenerate_arguments():
    with pytest.raises(OutOfDomain):
        five_term(GaussRational(1), GaussRational(2))
    with pytest.raises(OutOfDomain):
        five_term(GaussRational(2), GaussRational(2))


def test_five_term_and_six_orbit_settle_plain_numbers():
    exact = five_term(GaussRational(2), GaussRational(3))
    assert five_term(2, 3).terms == exact.terms
    assert delta_exact(five_term(2, 3)).is_zero()
    assert five_term(GaussRational(3), 2).terms == five_term(
        GaussRational(3), GaussRational(2)).terms
    y = 0.5 + 0.3j
    assert five_term(2, y).terms == five_term(2 + 0j, y).terms
    assert abs(eval_D(five_term(2, y))) <= FIVE_TERM_TOL
    for g in (2, Fraction(1, 3)):
        orbit = six_orbit(g)
        assert all(isinstance(v, GaussRational) for v, _ in orbit)
        assert orbit == six_orbit(GaussRational(g))
    assert six_orbit(2.0) == six_orbit(2 + 0j)


def test_product_identity():
    # [ab] = [a] + [b] + [(1-a)/(1-1/b)] + [(1-b)/(1-1/a)] under D
    rng = random.Random(84)
    done = 0
    while done < 200:
        a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        b = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if min(abs(a), abs(b), abs(a - 1), abs(b - 1), abs(a * b - 1)) < 0.05:
            continue
        s = FormalSum([(a * b, 1), (a, -1), (b, -1),
                       ((1 - a) / (1 - 1 / b), -1),
                       ((1 - b) / (1 - 1 / a), -1)])
        assert abs(eval_D(s)) < 1e-10
        done += 1


def test_eval_d_linear():
    assert eval_D(FormalSum()) == 0.0
    w = cmath.exp(1j * math.pi / 3)
    assert eval_D(FormalSum([(w, 4)])) == 4 * dilog_D(w)


def test_formal_sum_merging_and_domain():
    s = FormalSum([(GaussRational(2), 1), (GaussRational(2), 2),
                   (GaussRational(3), -1)])
    assert s.terms == ((GaussRational(2), 3), (GaussRational(3), -1))
    assert (s - s).is_zero()
    with pytest.raises(OutOfDomain):
        FormalSum([(GaussRational(0), 1)])
    with pytest.raises(OutOfDomain):
        FormalSum([(1 + 0j, 1)])
    # a plain int beside both backends settles into neither
    for pairs in ([(GaussRational(2), 1), (2.5 + 0j, 1)],
                  [(0.5j, 1), (3, 2), (GaussRational(2), 1)]):
        with pytest.raises(BackendMismatch,
                           match="^mixed exact/float formal sum$"):
            FormalSum(pairs)


def test_formal_sum_float_merging():
    s = FormalSum([(0.5 + 0.5j, 1), (0.5 + 0.5j + 1e-14, -1)])
    assert s.is_zero()
    t = FormalSum([(0.5 + 0.5j, 1), (0.5 + 0.51j, -1)])
    assert len(t) == 2


def test_formal_sum_float_merge_ignores_input_order():
    # the two near-equal generators cancel although another generator
    # sorts between them
    s = FormalSum([(1 + 5j, 1), (1 + 1e-15 - 3j, 1), (1 + 2e-15 + 5j, -1)])
    assert s.terms == ((1 + 1e-15 - 3j, 1),)


def test_formal_sum_float_merge_chains_and_picks_least_member():
    step = 0.6 * MERGE_TOL * 3  # close to its neighbours, not to theirs
    chain = [(0.5 + 0.5j + k * step, 1) for k in range(4)]
    for pairs in (chain, chain[::-1], chain[1::2] + chain[::2]):
        s = FormalSum(pairs)
        assert s.terms == ((0.5 + 0.5j, 4),)


def _merge_by_all_pairs(pairs):
    """Reference float merge: union-find over every pair of generators."""
    coeffs = {}
    for g, n in pairs:
        coeffs[complex(g)] = coeffs.get(complex(g), 0) + n
    values = list(coeffs)
    root = list(range(len(values)))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for i, a in enumerate(values):
        for j in range(i):
            b = values[j]
            if abs(a - b) <= MERGE_TOL * (1 + abs(a) + abs(b)):
                root[find(i)] = find(j)
    groups = {}
    for i, g in enumerate(values):
        groups.setdefault(find(i), []).append(g)
    terms = [(min(grp, key=lambda g: (g.real, g.imag)),
              sum(coeffs[g] for g in grp)) for grp in groups.values()]
    return tuple(sorted(((g, n) for g, n in terms if n),
                        key=lambda t: (t[0].real, t[0].imag)))


def test_float_merge_matches_all_pairs_reference():
    # clusters about as wide as the merge distance, centred where the
    # grid changes level (5 MERGE_TOL (1 + |c|) = 2^k) and elsewhere
    rng = random.Random(93)
    moduli = [2.0 ** k / (5 * MERGE_TOL) - 1 for k in (-37, -36, -35, -30)]
    moduli += [rng.uniform(0.01, 50) for _ in range(6)]
    for modulus in moduli:
        for _ in range(20):
            centre = cmath.rect(modulus, rng.uniform(-math.pi, math.pi))
            spread = rng.choice((1, 3, 10)) * MERGE_TOL * (1 + modulus)
            pairs = [(centre + cmath.rect(rng.uniform(0, spread),
                                          rng.uniform(-math.pi, math.pi)),
                      rng.choice((-1, 1, 2)))
                     for _ in range(rng.randint(2, 25))]
            assert FormalSum(pairs).terms == _merge_by_all_pairs(pairs)


# generators whose six orbits are well separated, inside the region where
# a relative jitter below MERGE_TOL/10 moves every orbit value by less
# than MERGE_TOL/4
def _orbit_well_separated(z):
    vals = [v for v, _ in six_orbit(z)]
    if min(abs(a - b) for i, a in enumerate(vals) for b in vals[i + 1:]) \
            < 1e-6:
        return False
    smallest = sorted(abs(v) for v in vals)
    return smallest[1] - smallest[0] > 1e-6


_FLOAT_GENS = st.builds(
    complex, st.floats(-2, 2), st.floats(-2, 2)).filter(
    lambda z: 0.5 <= abs(z) <= 2 and abs(1 - z) >= 1
    and _orbit_well_separated(z))

_EXACT_GENS = st.builds(
    GaussRational,
    st.fractions(-3, 3, max_denominator=5),
    st.fractions(-3, 3, max_denominator=5)).filter(lambda q: q not in (0, 1))


def _pairs(gens):
    """(base generators, pairs drawing on them with repeats)."""
    return st.lists(gens, min_size=1, max_size=6).flatmap(
        lambda base: st.tuples(st.just(base), st.lists(
            st.tuples(st.sampled_from(base),
                      st.integers(-3, 3).filter(bool)),
            min_size=1, max_size=20)))


def _orbits_apart_or_equal(base):
    vals = [v for g in base for v, _ in six_orbit(g)]
    return all(abs(a - b) < 1e-14 or abs(a - b) > 1e-6
               for i, a in enumerate(vals) for b in vals[i + 1:])


@settings(max_examples=100, deadline=None)
@given(_pairs(_FLOAT_GENS), st.randoms(use_true_random=False))
def test_float_merge_ignores_order_and_jitter(drawn, rng):
    base, pairs = drawn
    assume(_orbits_apart_or_equal(base))
    s = FormalSum(pairs)
    shuffled = rng.sample(pairs, len(pairs))
    assert FormalSum(shuffled).terms == s.terms
    jittered = [(g * (1 + cmath.rect(rng.uniform(0, MERGE_TOL / 10),
                                     rng.uniform(-math.pi, math.pi))), n)
                for g, n in shuffled]
    t = FormalSum(jittered)
    assert len(t) == len(s) and t == s
    c = canonicalize_six(s)
    assert canonicalize_six(FormalSum(shuffled)).terms == c.terms
    ct = canonicalize_six(t)
    assert len(ct) == len(c) and ct == c


@settings(max_examples=100, deadline=None)
@given(_pairs(_EXACT_GENS), st.randoms(use_true_random=False))
def test_exact_merge_ignores_order(drawn, rng):
    _, pairs = drawn
    s = FormalSum(pairs)
    shuffled = rng.sample(pairs, len(pairs))
    assert FormalSum(shuffled).terms == s.terms
    totals = {}
    for g, n in pairs:
        totals[g] = totals.get(g, 0) + n
    assert dict(s.terms) == {g: n for g, n in totals.items() if n}
    assert canonicalize_six(FormalSum(shuffled)).terms == \
        canonicalize_six(s).terms


_PLAIN_GENS = st.one_of(
    st.integers(-3, 3), st.fractions(-3, 3, max_denominator=5)).filter(
    lambda q: q not in (0, 1))


@pytest.mark.parametrize("gens", [_FLOAT_GENS, _EXACT_GENS],
                         ids=["float", "exact"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_plain_generators_are_settled_into_the_sum(gens, data):
    pairs = data.draw(st.lists(
        st.tuples(st.one_of(gens, _PLAIN_GENS), st.integers(-3, 3).filter(
            bool)), min_size=1, max_size=12))
    shuffled = data.draw(st.permutations(pairs))
    floats = any(isinstance(g, complex) for g, _ in pairs)
    settled = [(g if isinstance(g, (complex, GaussRational))
                else complex(g) if floats else GaussRational(g), n)
               for g, n in pairs]
    assert FormalSum(shuffled).terms == FormalSum(settled).terms


def test_canonicalize_relations():
    z = GaussRational(3, 1)
    assert canonicalize_six(FormalSum([(z, 1), (1 / z, 1)])).is_zero()
    assert canonicalize_six(FormalSum([(z, 1), (1 - z, 1)])).is_zero()
    two = GaussRational(2)
    half = GaussRational(Fraction(1, 2))
    assert canonicalize_six(FormalSum([(two, 1), (half, 1)])).is_zero()


def test_canonicalize_idempotent_and_d_invariant():
    rng = random.Random(85)
    for _ in range(50):
        s = FormalSum([(rand_gauss_rational(rng), rng.randint(-3, 3))
                       for _ in range(5)])
        c1 = canonicalize_six(s)
        assert canonicalize_six(c1) == c1
        assert abs(eval_D(s) - eval_D(c1)) <= 1e-12 * (1 + abs(eval_D(s)))


def test_canonicalize_exceptional_orbit():
    minus_one = GaussRational(-1)
    assert canonicalize_six(FormalSum([(minus_one, 2)])).is_zero()
    kept = canonicalize_six(FormalSum([(minus_one, 5)]))
    assert len(kept) == 1 and kept.terms[0][1] == 1
    # [2] + [-1] is an instance of [1-z] = -[z] at z = -1
    assert canonicalize_six(
        FormalSum([(GaussRational(2), 1), (minus_one, 1)])).is_zero()


def test_canonicalize_keeps_generators_near_zero_and_infinity():
    # their orbits hold two values near 1 with opposite signs, as the
    # exceptional orbit holds each of its values twice; they are not it
    for g in (1e-13 + 0j, 3e12 + 1j):
        (term,) = canonicalize_six(FormalSum([(g, 2)])).terms
        assert abs(term[1]) == 2
    assert canonicalize_six(FormalSum([(-1 + 1e-13j, 2)])).is_zero()


_EXCEPTIONAL_EXACT = frozenset(
    (GaussRational(-1), GaussRational(2), GaussRational(Fraction(1, 2))))


def _canonicalize_by_brute_force(s, exceptional):
    """Reference canonicalize_six, as {representative: coefficient}:
    float representatives merged over all pairs, and the exceptional
    orbit known by membership -- a class holding the representative of a
    generator in `exceptional` reduces mod 2."""
    pairs, special = [], set()
    for g, n in s.terms:
        rep, sign = _orbit_rep(six_orbit(g))
        pairs.append((rep, n * sign))
        if g in exceptional:
            special.add(rep)
    if all(isinstance(g, GaussRational) for g, _ in pairs):
        merged = {}
        for g, n in pairs:
            merged[g] = merged.get(g, 0) + n
    else:
        merged = dict(_merge_by_all_pairs(pairs))
    reduced = {g: n % 2 if g in special else n for g, n in merged.items()}
    return {g: n for g, n in reduced.items() if n}


@settings(max_examples=100, deadline=None)
@given(_pairs(st.one_of(_EXACT_GENS, st.sampled_from(sorted(
    _EXCEPTIONAL_EXACT, key=str)))))
def test_canonicalize_matches_brute_force_exact(drawn):
    _, pairs = drawn
    s = FormalSum(pairs)
    assert dict(canonicalize_six(s).terms) == \
        _canonicalize_by_brute_force(s, _EXCEPTIONAL_EXACT)


# floats within 1e-12 of the exceptional orbit {-1, 2, 1/2}
_NEAR_EXCEPTIONAL = st.builds(
    lambda e, r, phi: e + cmath.rect(r, phi), st.sampled_from((-1, 2, 0.5)),
    st.floats(0, 1e-12), st.floats(-math.pi, math.pi))


@settings(max_examples=100, deadline=None)
@given(st.lists(_FLOAT_GENS, max_size=4),
       st.lists(_NEAR_EXCEPTIONAL, max_size=4), st.data())
def test_canonicalize_matches_brute_force_float(gens, near, data):
    assume(gens or near)
    pairs = data.draw(st.lists(
        st.tuples(st.sampled_from(gens + near),
                  st.integers(-3, 3).filter(bool)), min_size=1, max_size=20))
    s = FormalSum(pairs)
    assert dict(canonicalize_six(s).terms) == \
        _canonicalize_by_brute_force(s, set(near))


def test_canonicalize_merges_once(monkeypatch):
    merge, calls = prebloch._merge_groups, []
    monkeypatch.setattr(prebloch, "_merge_groups",
                        lambda values: calls.append(1) or merge(values))
    rng = random.Random(90)
    for exact in (True, False):
        s = FormalSum([(rand_gauss_rational(rng) if exact
                        else complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                        rng.randint(1, 3)) for _ in range(8)]
                      + [(GaussRational(-1) if exact else -1 + 0j, 3)])
        calls.clear()
        canonicalize_six(s)
        assert len(calls) == 1


def _orbit_rep_by_full_key(orbit):
    """The float order with a phase for every member: min over (modulus,
    phase, real part), the oracle for _orbit_rep's modulus-first scan."""
    return min(orbit, key=lambda t: (abs(t[0]), math.atan2(t[0].imag,
                                                          t[0].real),
                                     t[0].real))


# generators whose orbits tie in modulus exactly: on the unit circle z
# and 1/z, on Re z = 1/2 z and 1 - z, and all six at exp(i pi/3)
_TIED = st.one_of(
    st.floats(-math.pi, math.pi).map(lambda a: cmath.exp(1j * a)),
    st.floats(-4, 4).map(lambda y: complex(0.5, y)),
    st.just(cmath.exp(1j * math.pi / 3)))
# generators with a part near the ends of the float range: members
# overflow to inf (subnormal parts) or turn NaN (1e308 + 1e308i)
_EXTREME_PART = st.one_of(st.floats(-1e-300, 1e-300),
                          st.floats(1e300, 1e308), st.floats(-1e308, -1e300),
                          st.sampled_from([0.0, 0.5, 1.0]))
_EXTREME = st.builds(complex, _EXTREME_PART, _EXTREME_PART)


def _assert_orbit_rep_is_the_full_key_minimum(g):
    orbit = six_orbit(g)
    for k in range(6):  # every rotation: a NaN member also comes first
        rotated = orbit[k:] + orbit[:k]
        assert _orbit_rep(rotated) is _orbit_rep_by_full_key(rotated)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_TIED, _EXTREME))
def test_float_orbit_rep_agrees_with_the_full_key(g):
    assume(g != 0 and g != 1)
    _assert_orbit_rep_is_the_full_key_minimum(g)


def test_float_orbit_rep_cases_reach_ties_inf_and_nan():
    tied = six_orbit(complex(0.5, 0.3))
    moduli = [abs(v) for v, _ in tied]
    assert moduli.count(min(moduli)) == 2  # 1/2 + 0.3i and 1/2 - 0.3i
    assert _orbit_rep(tied)[0] == complex(0.5, -0.3)
    overflowing = six_orbit(complex(5e-324, 1e-310))
    assert any(math.isinf(abs(v)) for v, _ in overflowing)
    nan_member = six_orbit(complex(1e308, 1e308))
    assert any(math.isnan(abs(v)) for v, _ in nan_member)
    rotated = nan_member[-1:] + nan_member[:-1]
    assert math.isnan(abs(rotated[0][0]))
    assert _orbit_rep(rotated) is rotated[0]  # nothing compares below NaN
    for g in (complex(0.5, 0.3), cmath.exp(1j * math.pi / 3),
              complex(5e-324, 1e-310), complex(1e308, 1e308)):
        _assert_orbit_rep_is_the_full_key_minimum(g)


def test_canonicalize_kills_relation_instances_mixed():
    rng = random.Random(86)
    for _ in range(30):
        z = rand_gauss_rational(rng)
        pieces = FormalSum([(z, 2), (1 / z, 1), (1 - z, 1)])
        assert canonicalize_six(pieces).is_zero()


def test_sums_equal_modulo_relations_canonicalize_identically():
    rng = random.Random(89)
    for _ in range(40):
        base = FormalSum([(rand_gauss_rational(rng), rng.randint(-4, 4))
                          for _ in range(4)])
        noisy = base
        for _ in range(rng.randint(1, 6)):
            g = rand_gauss_rational(rng)
            n = rng.choice((-2, -1, 1, 2))
            if rng.random() < 0.5:
                relation = FormalSum([(g, n), (1 / g, n)])
            else:
                relation = FormalSum([(g, n), (1 - g, n)])
            noisy = noisy + relation
        assert canonicalize_six(noisy) == canonicalize_six(base)


def test_delta_kills_five_term_and_relations():
    rng = random.Random(87)
    for _ in range(20):
        x = rand_gauss_rational(rng, span=6)
        y = rand_gauss_rational(rng, span=6)
        if x == y:
            continue
        assert delta_exact(five_term(x, y)).is_zero()
        z = rand_gauss_rational(rng, span=6)
        assert delta_exact(FormalSum([(z, 1), (1 / z, 1)])).is_zero()
        assert delta_exact(FormalSum([(z, 1), (1 - z, 1)])).is_zero()


def test_delta_examples():
    zero = delta_exact(FormalSum([(GaussRational(2), 1)]))
    assert zero.is_zero() and str(zero) == "0"
    d = delta_exact(FormalSum([(GaussRational(Fraction(1, 3)), 1)]))
    assert not d.is_zero()
    assert str(d) == "2*(1+1i)^(3+0i)"
    ent = d.terms
    assert len(ent) == 1
    (p, q, coeff) = ent[0]
    assert {p, q} == {(1, 1), (3, 0)} and abs(coeff) == 2


def test_delta_factors_each_gaussian_integer_once(monkeypatch):
    factor, seen = gaussian.factor_gauss_int, []
    monkeypatch.setattr(gaussian, "factor_gauss_int",
                        lambda z, memo: seen.append(z) or factor(z, memo))
    factorint, split = gaussian.factorint, []
    monkeypatch.setattr(gaussian, "factorint",
                        lambda n: split.append(n) or factorint(n))
    rng = random.Random(91)
    for _ in range(5):
        s = beta_complex(bundled.twisted_double_complex(
            rand_exact_minimal(rng)))
        # z and 1 - z share their denominator: one factorization for both
        parts = {(a, b) for g, _ in s.terms for z in (g, 1 - g)
                 for a, b, _ in [z.integer_parts()]}
        parts |= {(z.integer_parts()[2], 0) for g, _ in s.terms
                  for z in (g, 1 - g)}
        seen.clear()
        split.clear()
        delta_exact(s)
        assert sorted(seen) == sorted(parts)
        first = list(split)
        delta_exact(s)
        # the factorization context outlives no call
        assert seen[len(parts):] == seen[:len(parts)]
        assert split == 2 * first


def test_delta_factors_new_norms_only_once_per_operation(monkeypatch):
    # the factorint calls of one exact_duality operation (delta of beta
    # on the twisted double) on a seeded pool.  Factoring every norm from
    # scratch made 780 on this pool; with each sum's known primes divided
    # out first it makes 220, bounded with 25 % headroom.
    factorint, split = gaussian.factorint, []
    monkeypatch.setattr(gaussian, "factorint",
                        lambda n: split.append(n) or factorint(n))
    rng = random.Random(91)
    for _ in range(40):
        m = rand_exact_minimal(rng)
        assert delta_exact(beta_complex(
            bundled.twisted_double_complex(m))).is_zero()
    assert 0 < len(split) <= 275


def test_delta_requires_exact():
    with pytest.raises(Unsupported):
        delta_exact(FormalSum([(0.5 + 0.5j, 1)]))


def test_delta_matches_dense_reference():
    rng = random.Random(88)
    sums = [FormalSum([(rand_gauss_rational(rng), rng.randint(-3, 3))
                       for _ in range(rng.randint(1, 6))]) for _ in range(60)]
    while len(sums) < 90:
        x = rand_gauss_rational(rng, span=6)
        y = rand_gauss_rational(rng, span=6)
        if x != y:
            sums.append(five_term(x, y))
            sums.append(five_term(x, y) + FormalSum([(y, 2)]))
    for s in sums:
        basis, m = delta_dense(s)
        dense = [(basis[i], basis[j], m[i][j]) for i in range(len(basis))
                 for j in range(i + 1, len(basis)) if m[i][j]]
        d = delta_exact(s)
        assert list(d.terms) == dense
        assert d.is_zero() == (not dense)
        keys = [(prime_key(p), prime_key(q)) for p, q, _ in d.terms]
        assert all(kp < kq for kp, kq in keys)
        assert keys == sorted(set(keys))
        assert all(c for _, _, c in d.terms)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(STRUCTURED_SCALAR, st.sampled_from((-2, -1, 1, 3))),
                min_size=1, max_size=6))
@example([(GaussRational(Fraction(1, 65)), 1),
          (GaussRational(5, 12), -1)])  # 5, 13 met first in a denominator
def test_delta_on_structured_generators_matches_dense_reference(terms):
    s = FormalSum(terms)
    basis, m = delta_dense(s)
    dense = [(basis[i], basis[j], m[i][j]) for i in range(len(basis))
             for j in range(i + 1, len(basis)) if m[i][j]]
    assert list(delta_exact(s).terms) == dense
    # a context filled by the scalars before changes no factorization
    memo = {}
    for q in (x for g, _ in terms for x in (g, 1 - g)):
        assert factor_gaussian(q, memo) == factor_gaussian(q)
