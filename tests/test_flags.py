"""Flags, genericity, normalization and the two geometric constructions."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flagdual import (Flag, FlagTuple, GaussRational, Mat3, ProjPoint1,
                      cr_flag, cr_tetrahedron, dual_coords_closed,
                      dual_coords_matrix, edge_coords,
                      heisenberg_null_point, hyperbolic_flag, is_generic,
                      is_very_generic, normalize_to_standard, reconstruct,
                      veronese_tetrahedron)
from flagdual.errors import DegenerateInput, NotOnSphere
from flagdual.projective import vdot

from helpers import (EXACT_MINIMAL, SMALL_GAUSS, proportional,
                     rand_exact_flag_tetra, rand_exact_tetra,
                     rand_float_tetra, rand_gauss_rational, rand_pgl3_exact)


def standard_triple(z):
    return FlagTuple([
        Flag((1, 0, 0), (0, 1, -1)),
        Flag((0, 1, 0), (1, 0, -1)),
        Flag((0, 0, 1), (z, 1, 0)),
    ])


def test_incidence_enforced():
    with pytest.raises(DegenerateInput):
        Flag((1, 0, 0), (1, 1, 0))
    Flag((1, 0, 0), (0, 1, 0))  # incident: fine


def test_generic_and_very_generic_triple():
    t = standard_triple(GaussRational(2))
    assert is_generic(t)
    assert is_very_generic(t)
    # z = -1 is the unique generic but not very generic triple
    t_bad = standard_triple(GaussRational(-1))
    assert is_generic(t_bad)
    assert not is_very_generic(t_bad)


def test_coincident_points_not_generic():
    t = FlagTuple([
        Flag((1, 0, 0), (0, 1, -1)),
        Flag((1, 0, 0), (0, 1, -1)),
        Flag((0, 0, 1), (GaussRational(2), 1, 0)),
    ])
    assert not is_generic(t)


def test_dual_flag_swaps_and_is_involutive():
    f = Flag((1, 0, 0), (0, 1, -1))
    d = f.dual()
    assert d.point == f.line and d.line == f.point
    dd = d.dual()
    assert dd.point == f.point and dd.line == f.line


def test_dual_of_very_generic_is_very_generic():
    rng = random.Random(41)
    for _ in range(20):
        t, _ = rand_exact_flag_tetra(rng)
        assert is_very_generic(t)
        assert is_very_generic(t.dual())


def test_normalize_already_standard_is_identity():
    rng = random.Random(42)
    t, _ = rand_exact_flag_tetra(rng)
    m = normalize_to_standard(t)
    std = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
    for p, s in zip(t.transformed(m).points(), std):
        assert proportional(p, s)
    # reconstruct output is already standard, so m is scalar
    assert m.rows[0][1] == 0 and m.rows[0][2] == 0
    assert m.rows[1][0] == 0 and m.rows[1][2] == 0
    assert m.rows[2][0] == 0 and m.rows[2][1] == 0
    assert m.rows[0][0] == m.rows[1][1] == m.rows[2][2]


def test_normalize_permuted_standard_points():
    pts = [(0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 0, 0)]
    m = normalize_to_standard([tuple(GaussRational(c) for c in p)
                               for p in pts])
    std = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
    for p, s in zip(pts, std):
        image = m.apply(tuple(GaussRational(c) for c in p))
        assert proportional(image, tuple(GaussRational(c) for c in s))


def test_normalize_random_apply_and_check():
    rng = random.Random(43)
    for _ in range(40):
        g = rand_pgl3_exact(rng)
        std = [(GaussRational(1), GaussRational(0), GaussRational(0)),
               (GaussRational(0), GaussRational(1), GaussRational(0)),
               (GaussRational(0), GaussRational(0), GaussRational(1)),
               (GaussRational(1), GaussRational(1), GaussRational(1))]
        pts = [g.apply(p) for p in std]
        m = normalize_to_standard(pts)
        for p, s in zip(pts, std):
            assert proportional(m.apply(p), s)


def test_normalize_rejects_collinear():
    pts = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
    with pytest.raises(DegenerateInput):
        normalize_to_standard([tuple(GaussRational(c) for c in p)
                               for p in pts])


def test_pgl3_invariance_of_edge_coords():
    rng = random.Random(44)
    for _ in range(20):
        t, c = rand_exact_flag_tetra(rng)
        g = rand_pgl3_exact(rng)
        assert edge_coords(t.transformed(g)).same_as(c)


def test_hyperbolic_flag_incidence_and_coords():
    rng = random.Random(45)
    for _ in range(20):
        z = rand_gauss_rational(rng)
        params = [ProjPoint1(GaussRational(0), GaussRational(1)),
                  ProjPoint1(GaussRational(1), GaussRational(0)),
                  ProjPoint1(GaussRational(1), GaussRational(1)),
                  ProjPoint1(GaussRational(1), z)]
        t = veronese_tetrahedron(params)
        c = edge_coords(t)
        assert tuple(c.minimal()) == (z, z, z, z)
        assert all(v == 1 for v in c.face.values())


def test_hyperbolic_flag_construction_details():
    f = hyperbolic_flag(ProjPoint1(GaussRational(2), GaussRational(3)))
    assert f.point == (GaussRational(4), GaussRational(6), GaussRational(9))
    # polar line of the conic xz = y^2 at that point
    assert f.line == (GaussRational(9), GaussRational(-12), GaussRational(4))


def test_cr_flag_basepoint():
    f = cr_flag((GaussRational(1), GaussRational(0), GaussRational(0)))
    assert f.point == (1, 0, 0)
    assert f.line == (0, 0, 1)


def test_cr_flag_rejects_off_sphere():
    with pytest.raises(NotOnSphere):
        cr_flag((1 + 0j, 0j, 1 + 0j))
    with pytest.raises(NotOnSphere):
        cr_flag((GaussRational(1), GaussRational(1), GaussRational(1)))


# an entry of 2,201 digits: its square is past int's 4,300-digit limit
BIG = GaussRational(10 ** 2200 + 1)


def test_huge_broken_incidence_is_named():
    with pytest.raises(DegenerateInput, match=re.escape(
            "flag incidence violated: f(x) = ~1.00000000000E+4400")):
        Flag((BIG, 1, 0), (BIG, 0, 0))


def test_huge_point_off_the_sphere_is_named():
    with pytest.raises(NotOnSphere, match=re.escape(
            "<x,x> = ~2.00000000000E+4400 != 0")):
        cr_flag((BIG, 1, BIG))


def _random_cr_tuple(rng):
    while True:
        pts = [heisenberg_null_point(
            complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
            rng.uniform(-1.5, 1.5)) for _ in range(4)]
        t = cr_tetrahedron(pts)
        if is_very_generic(t):
            return t


def test_cr_relation_nine_and_unit_faces():
    rng = random.Random(46)
    from flagdual.tetra import EVEN_COMPLETION
    for _ in range(20):
        t = _random_cr_tuple(rng)
        c = edge_coords(t)
        for (i, j), (k, l) in EVEN_COMPLETION.items():
            lhs = c.edge_value(i, j) * c.edge_value(j, i)
            rhs = (c.edge_value(k, l) * c.edge_value(l, k)).conjugate()
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))
        for v in c.face.values():
            assert abs(abs(v) - 1) <= 1e-12


def test_exact_cr_tetrahedron_relation_nine_exactly():
    # null points with Gaussian-rational entries: conjugation is exact
    data = [(GaussRational(Fraction(1, 2), Fraction(1, 3)), Fraction(2, 5)),
            (GaussRational(Fraction(-2, 3), Fraction(1, 4)), Fraction(-1, 2)),
            (GaussRational(Fraction(3, 4), Fraction(-1, 2)), Fraction(1, 3)),
            (GaussRational(Fraction(-1, 5), Fraction(-2, 3)), Fraction(-3, 4))]
    pts = [heisenberg_null_point(y, t) for y, t in data]
    t = cr_tetrahedron(pts)
    assert is_very_generic(t)
    c = edge_coords(t)
    from flagdual.tetra import EVEN_COMPLETION
    for (i, j), (k, l) in EVEN_COMPLETION.items():
        assert c.edge_value(i, j) * c.edge_value(j, i) == \
            (c.edge_value(k, l) * c.edge_value(l, k)).conjugate()


def test_heisenberg_points_are_null():
    rng = random.Random(47)
    for _ in range(20):
        y = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        p = heisenberg_null_point(y, rng.uniform(-2, 2))
        cr_flag(p)  # would raise NotOnSphere if the point were off the cone


# -- flags incident by construction -------------------------------------------

@settings(max_examples=100, deadline=None)
@given(EXACT_MINIMAL, st.lists(SMALL_GAUSS, min_size=9, max_size=9))
def test_flags_built_incident_pair_to_zero_exactly(m, entries):
    # reconstruct and the exact transformed skip the incidence check:
    # each flag they build must still satisfy f(x) = 0 exactly
    assume(all(z != 0 and z != 1 for z in m))
    t = reconstruct(m)
    built = [t]
    try:
        built.append(t.transformed(
            Mat3([entries[0:3], entries[3:6], entries[6:9]])))
    except DegenerateInput:  # a singular matrix can send a point to zero
        pass
    dual = t.dual()
    try:  # the route of dual_coords_matrix
        built.append(dual.transformed(normalize_to_standard(dual)))
    except DegenerateInput:  # three of the lines are concurrent
        pass
    for flag in (f for u in built for f in u):
        assert vdot(flag.line, flag.point) == 0


def test_exact_duality_builds_no_flag_through_the_checking_constructor(
        monkeypatch):
    init, calls = Flag.__init__, []
    monkeypatch.setattr(Flag, "__init__", lambda self, point, line:
                        calls.append(1) or init(self, point, line))
    m, c = rand_exact_tetra(random.Random(97))
    t = reconstruct(m)
    assert dual_coords_matrix(t).same_as(dual_coords_closed(c))
    assert not calls
    # the public constructor and the float route keep the check
    with pytest.raises(DegenerateInput, match="incidence"):
        Flag(t[0].point, t[1].line)
    float_tuple = reconstruct(rand_float_tetra(random.Random(98)).minimal())
    assert len(calls) == 1 + 4
    float_tuple.transformed(normalize_to_standard(float_tuple.dual()))
    assert len(calls) == 1 + 4 + 4


def test_exact_transform_by_a_singular_matrix_names_the_zero_point():
    t, _ = rand_exact_flag_tetra(random.Random(99))
    one, zero = GaussRational(1), GaussRational(0)
    singular = Mat3([[zero, one, zero], [zero, zero, one], [zero, one, one]])
    with pytest.raises(DegenerateInput, match="point is the zero triple"):
        t.transformed(singular)  # it sends x1 = (1, 0, 0) to zero
