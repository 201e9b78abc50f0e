"""Cross-ratio and 3x3 linear algebra."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagdual import (Flag, FlagTuple, GaussRational, Mat3, ProjPoint1,
                      cr_flag, cross_ratio, edge_coords, heisenberg_null_point,
                      normalize_to_standard, reconstruct)
from flagdual.errors import DegenerateInput, NotOnSphere, SingularMatrix
from flagdual.flags import cross_pairings, measurements
from flagdual.projective import det3, negligible, restrict_to_p1, vcross

from helpers import (apply_mobius, proportional, rand_gauss_rational,
                     rand_mobius_exact, rand_p1_points_exact, rand_pgl3_exact)


def _affine(*vals):
    return [ProjPoint1(GaussRational(v) if isinstance(v, int) else v, 1)
            for v in vals]


def test_normalization_infinity_zero_one():
    z = GaussRational(7, -3)
    x = cross_ratio(ProjPoint1(1, 0), ProjPoint1(0, 1),
                    ProjPoint1(1, 1), ProjPoint1(z, 1))
    assert x == z


def test_affine_example():
    # X(2,0,1,w) = w/(2-w); at w = 4 this is -2
    pts = _affine(2, 0, 1, 4)
    assert cross_ratio(*pts) == GaussRational(-2)


def test_coincident_points_rejected():
    pts = _affine(2, 2, 1, 4)
    with pytest.raises(DegenerateInput):
        cross_ratio(*pts)


def test_moebius_invariance_exact():
    rng = random.Random(21)
    for _ in range(100):
        pts = rand_p1_points_exact(rng, 4)
        x = cross_ratio(*pts)
        m = rand_mobius_exact(rng)
        moved = [apply_mobius(m, p) for p in pts]
        assert cross_ratio(*moved) == x


def test_moebius_invariance_float():
    rng = random.Random(22)
    for _ in range(200):
        vals = []
        while len(vals) < 4:
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if all(abs(z - w) > 0.1 for w in vals):
                vals.append(z)
        pts = [ProjPoint1(v, 1) for v in vals]
        x = cross_ratio(*pts)
        a, b, c, d = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                      for _ in range(4))
        if abs(a * d - b * c) < 0.05:
            continue
        moved = [ProjPoint1(a * p.a + b * p.b, c * p.a + d * p.b)
                 for p in pts]
        y = cross_ratio(*moved)
        assert abs(y - x) <= 1e-12 * (1 + abs(x))


def test_swap_middle_pair_identity():
    rng = random.Random(23)
    for _ in range(50):
        p1, p2, p3, p4 = rand_p1_points_exact(rng, 4)
        assert cross_ratio(p1, p2, p3, p4) == 1 - cross_ratio(p1, p3, p2, p4)


def test_multiplicative_cocycle_six_points():
    rng = random.Random(24)
    for _ in range(50):
        a1, a2, b1, b2, b3, b4 = rand_p1_points_exact(rng, 6)
        lhs = cross_ratio(a1, a2, b1, b4)
        rhs = (cross_ratio(a1, a2, b1, b2)
               * cross_ratio(a1, a2, b2, b3)
               * cross_ratio(a1, a2, b3, b4))
        assert lhs == rhs


def test_cross_ratio_of_tiny_representatives():
    # the 2x2 minors of these representatives underflow: they must be
    # taken after rescaling, not read as coincident points
    s = 1e-160
    pts = [ProjPoint1(s, 0.0), ProjPoint1(0.0, s), ProjPoint1(s, s),
           ProjPoint1(2.5 * s, s)]
    assert not pts[0].same_point(pts[1])
    assert cross_ratio(*pts) == 2.5
    frame = [ProjPoint1(1.0, 0.0), ProjPoint1(0.0, 1.0), ProjPoint1(1.0, 1.0)]
    for a, b in ((1e-300, 4e-301), (3e-50, -2.4e-50 + 9e-50j)):
        assert abs(cross_ratio(*frame, ProjPoint1(a, b)) - a / b) <= \
            1e-15 * abs(a / b)


# real and imaginary parts that stay normal floats at any scale 2^k,
# |k| <= 500, so that the scaled representatives are exact
_PART = st.one_of(st.just(0.0), st.floats(1e-3, 4.0),
                  st.floats(-4.0, -1e-3))
_PAIR = st.tuples(st.builds(complex, _PART, _PART),
                  st.builds(complex, _PART, _PART)).filter(
    lambda ab: ab != (0, 0))


def _scaled(z, k):
    return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))


def _cross_ratio_or_error(pts):
    try:
        return cross_ratio(*pts)
    except DegenerateInput as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(st.lists(_PAIR, min_size=4, max_size=4),
       st.lists(st.integers(-500, 500), min_size=4, max_size=4))
def test_power_of_two_rescaling_changes_no_answer(pairs, ks):
    pts = [ProjPoint1(a, b) for a, b in pairs]
    scaled = [ProjPoint1(_scaled(a, k), _scaled(b, k))
              for (a, b), k in zip(pairs, ks)]
    for i in range(4):
        for j in range(4):
            assert scaled[i].same_point(scaled[j]) == pts[i].same_point(pts[j])
    assert _cross_ratio_or_error(scaled) == _cross_ratio_or_error(pts)


def test_mat3_examples():
    ident = Mat3(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert det3(*ident.columns()) == 1
    assert ident.inverse().rows == ident.rows
    diag = Mat3(((GaussRational(1), 0, 0), (0, GaussRational(2), 0),
                 (0, 0, GaussRational(3))))
    assert det3(*diag.columns()) == 6


def test_mat3_inverse_exact_self_consistency():
    rng = random.Random(25)
    ident = Mat3(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    for _ in range(50):
        m = rand_pgl3_exact(rng)
        assert (m @ m.inverse()).rows == ident.rows
        assert m.transpose().transpose().rows == m.rows


def test_singular_matrix_rejected():
    rows = ((GaussRational(1), GaussRational(2), GaussRational(3)),
            (GaussRational(2), GaussRational(4), GaussRational(6)),
            (GaussRational(0), GaussRational(1), GaussRational(1)))
    with pytest.raises(SingularMatrix):
        Mat3(rows).inverse()


def test_mat3_apply_and_det_of_columns():
    m = Mat3(((GaussRational(0), GaussRational(1), GaussRational(0)),
              (GaussRational(0), GaussRational(0), GaussRational(1)),
              (GaussRational(1), GaussRational(0), GaussRational(0))))
    v = (GaussRational(5), GaussRational(7), GaussRational(11))
    assert m.apply(v) == (GaussRational(7), GaussRational(11),
                          GaussRational(5))
    assert det3(*m.columns()) == 1  # cyclic permutation is even


def test_restrict_to_p1_recovers_cross_ratio():
    # four collinear points a*u + b*v: their P^1 coordinates reproduce
    # the cross-ratio of the (a : b) parameters
    rng = random.Random(26)
    for _ in range(30):
        u = tuple(rand_gauss_rational(rng) for _ in range(3))
        v = tuple(rand_gauss_rational(rng) for _ in range(3))
        params = rand_p1_points_exact(rng, 4)
        pts = [tuple(p.a * uc + p.b * vc for uc, vc in zip(u, v))
               for p in params]
        try:
            coords = restrict_to_p1(pts)
        except DegenerateInput:
            continue  # u, v accidentally proportional
        assert cross_ratio(*coords) == cross_ratio(*params)


def test_restrict_to_p1_float_matches_the_exact_route():
    # floats take the largest basis minor, exact values the first nonzero
    # one; the first pair (u, v) has a first minor of 1e-12 beside two of
    # modulus 1.  The cross-ratio agrees at any scale of the basis pair
    # and of each other point.
    rng = random.Random(27)
    first = ((1, 1, 0), (1, 1 + GaussRational(1, 0) / 10 ** 12, 1))
    for k in range(30):
        u, v = first if k == 0 else [
            tuple(rand_gauss_rational(rng) for _ in range(3)) for _ in "uv"]
        params = rand_p1_points_exact(rng, 4)
        pts = [tuple(p.a * uc + p.b * vc for uc, vc in zip(u, v))
               for p in params]
        try:
            exact = complex(cross_ratio(*restrict_to_p1(pts)))
        except DegenerateInput:
            continue  # u, v accidentally proportional
        for scales in ((1, 1, 1, 1), (1e100, 1e100, 1e-100, 3e80)):
            floats = [tuple(s * complex(c) for c in p)
                      for s, p in zip(scales, pts)]
            got = cross_ratio(*restrict_to_p1(floats))
            assert abs(got - exact) <= 1e-9 * abs(exact)


def test_restrict_to_p1_takes_exact_minors_beyond_float_range():
    big = 10 ** 400
    pts = [(big, 1, 0), (0, 1, 1), (big, 2, 1), (3 * big, 5, 2)]
    for given in ([tuple(map(GaussRational, p)) for p in pts], pts):
        coords = restrict_to_p1(given)
        assert [(p.a, p.b) for p in coords] == [(1, 0), (0, 1), (1, 1), (3, 2)]
        # int entries are exact too: they must not drift to float
        assert all(isinstance(c, GaussRational)
                   for p in coords for c in (p.a, p.b))
    with pytest.raises(ValueError):
        restrict_to_p1([(1, 0, 0), (0, 1)])


# -- the float zero test, site by site ------------------------------------------
#
# Each site reports whether its zero test fired on an input that is
# degenerate (eps = 0) or moved eps relative off degeneracy, with one
# homogeneous operand multiplied by s.  The answer must not depend on s.

def _norm(v):
    return math.sqrt(sum(abs(c) ** 2 for c in v))


def _off(v, eps, k=2):
    """v with entry k moved by eps |v|."""
    v = list(v)
    v[k] += eps * _norm(v)
    return tuple(v)


def _times(s, v):
    return tuple(s * c for c in v)


P1 = (1, 2j, 3)
P2 = (2 - 1j, 1, 1j)
P3 = tuple(a + (1 + 1j) * b for a, b in zip(P1, P2))  # on the line P1 P2


def _pairing(s, eps):
    u = (1 + 2j, 3 - 1j, 2j)
    x = _off(vcross(u, (1, 1j, 2)), eps, 0)  # u(x) = 0 exactly at eps = 0
    flags = (Flag(vcross(u, (0, 1, 1j)), u),
             Flag(_times(s, x), vcross(x, (1, 0, 0))))
    try:
        cross_pairings(flags)
    except DegenerateInput as exc:
        assert "pairing f1(x2) vanishes" in str(exc)
        return True
    return False


def _collinear_triple(s, eps):
    flags = [Flag(_times(k, p), vcross(p, (1, -1, 2j)))
             for k, p in ((1, P1), (1, P2), (s, _off(P3, eps)))]
    try:
        measurements(flags)[1]
    except DegenerateInput as exc:
        assert "points x1, x2, x3 are collinear" in str(exc)
        return True
    return False


def _singular_matrix(s, eps):
    try:
        Mat3((P1, P2, _times(s, _off(P3, eps)))).inverse()
    except SingularMatrix:
        return True
    return False


def _coincident_p1_points(s, eps):
    a, b = 2 + 1j, 1 - 3j
    other = _off(((1 + 1j) * a, (1 + 1j) * b), eps, 0)
    return ProjPoint1(a, b).same_point(ProjPoint1(*_times(s, other)))


def _cr_null_point(s, eps):
    x = heisenberg_null_point(1 + 2j, 0.5)  # <x, x> = 0 exactly
    try:
        cr_flag(_times(s, _off(x, eps)))
    except NotOnSphere:
        return False
    return True


def _fourth_point_collinear(s, eps):
    # the fourth point on the line P1 P2: the Cramer numerator
    # det(p1, p2, p4) vanishes, p1 carrying the scale
    pts = [_times(s, P1), P2, (0, 1, 1 + 1j), _off(P3, eps)]
    try:
        normalize_to_standard(pts)
    except DegenerateInput as exc:
        assert "fourth point" in str(exc)
        return True
    return False


ZERO_TEST_SITES = {f.__name__[1:]: f for f in (
    _pairing, _collinear_triple, _singular_matrix, _coincident_p1_points,
    _cr_null_point, _fourth_point_collinear)}


@pytest.mark.parametrize("s", [1e-150, 1.0, 1e150])
@pytest.mark.parametrize("site", sorted(ZERO_TEST_SITES))
def test_float_zero_test_is_scale_relative(site, s):
    fires = ZERO_TEST_SITES[site]
    assert fires(s, 0.0), "degenerate input accepted"
    assert not fires(s, 1e-6), "input 1e-6 off degeneracy rejected"


@pytest.mark.parametrize("site", sorted(ZERO_TEST_SITES))
def test_float_zero_test_takes_huge_finite_operands(site):
    fires = ZERO_TEST_SITES[site]
    assert fires(1e300, 0.0), "degenerate input accepted"
    assert not fires(1e300, 1e-6), "input 1e-6 off degeneracy rejected"


def test_incident_flag_with_huge_finite_entry():
    flag = Flag((1e300, 0, 0), (0, 1, 0))
    assert flag.point == (1e300, 0, 0)
    # norms whose product overflows read every value as negligible
    assert negligible(1 + 0j, (1e200, 0, 0), (0, 1e200, 0), (0, 0, 1e200))
    # but normalize_to_standard balances its points first (see
    # projective.balanced), so it takes the frame at that scale
    frame = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    huge = [_times(1e200, p) for p in frame[:3]] + frame[3:]
    m = normalize_to_standard(huge)
    assert all(proportional(m.apply(p), q) for p, q in zip(huge, frame))


def test_cp2_zero_tests_take_tiny_representatives():
    # every minor of these triples, about 1e-330, underflows as computed
    s = 1e-110
    rows = [_times(s, r) for r in (P1, P2, (0, 1, 1 + 1j))]
    product = Mat3(rows) @ Mat3(rows).inverse()
    assert all(abs(product.rows[i][j] - (i == j)) < 1e-12
               for i in range(3) for j in range(3))
    frame = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    tiny = [_times(s, p) for p in frame]
    m = normalize_to_standard(tiny)
    assert all(proportional(m.apply(p), q) for p, q in zip(tiny, frame))


def test_edge_coords_take_tiny_representatives():
    # rescaling by powers of two is exact, so the coordinates are the
    # same bits, although the raw minors of the points underflow
    t = reconstruct((0.3 + 0.7j, 1.9 - 0.4j, -0.6 + 1.1j, 0.8 + 0.9j))
    tiny = FlagTuple([Flag(_times(2.0 ** -(360 + j), f.point),
                           _times(2.0 ** -(300 + 7 * j), f.line))
                      for j, f in enumerate(t)])
    c, c_tiny = edge_coords(t), edge_coords(tiny)
    assert c_tiny.edge == c.edge and c_tiny.face == c.face


def test_negligible_is_exact_or_relative():
    # these operands have no norm: an exact value must not look at them
    assert negligible(GaussRational(0), None)
    assert not negligible(GaussRational(1, -1), None)
    assert not negligible(1e-9 + 0j, (1,))
    assert negligible(1e-9 + 0j, (3e2, 4e2), (1e3,))
