"""Duality: closed form vs matrix route, corollaries, w-coordinates."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flagdual import (Flag, FlagTuple, FormalSum, GaussRational, Mat3,
                      ProjPoint1, WCoords, beta_complex, beta_defect,
                      beta_tetra, bundled, complete_from_minimal, cross_ratio,
                      delta_exact, dual_coords_closed, dual_coords_matrix,
                      edge_coords, eval_D, from_w, reconstruct, scalars,
                      to_w, very_generic, veronese_tetrahedron)
from flagdual.duality import W_PAIRS, _dual_edge
from flagdual.errors import NotVeryGeneric, WSingular
from flagdual.projective import det3, restrict_to_p1, vcross
from flagdual.tetra import CANONICAL_FACES, EVEN_COMPLETION

from helpers import (SMALL_GAUSS, rand_exact_flag_tetra, rand_exact_tetra,
                     rand_float_tetra, rand_gauss_rational)


def test_closed_equals_matrix_exactly():
    rng = random.Random(61)
    for _ in range(60):
        m, c = rand_exact_tetra(rng)
        assert dual_coords_closed(c).same_as(dual_coords_matrix(reconstruct(m)))


_PART = st.fractions(-9, 9, max_denominator=9)
_MINIMAL = st.tuples(*[st.builds(GaussRational, _PART, _PART).filter(
    lambda q: q != 0 and q != 1)] * 4)


def _very_generic_coords(m):
    c = complete_from_minimal(m)
    assume(very_generic(c))
    return c


@settings(max_examples=100, deadline=None)
@given(_MINIMAL)
def test_duality_is_an_involution_property(m):
    c = _very_generic_coords(m)
    assert dual_coords_closed(dual_coords_closed(c)).same_as(c)


@settings(max_examples=100, deadline=None)
@given(_MINIMAL)
def test_closed_equals_matrix_property(m):
    c = _very_generic_coords(m)
    assert dual_coords_closed(c).same_as(dual_coords_matrix(reconstruct(m)))


# each point and line rescaled by its own Gaussian rational, denominators
# up to 10^6, after a projectivity that takes the points off the frame
_SCALE_PART = st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 6)
_SCALE = st.builds(GaussRational, _SCALE_PART, _SCALE_PART).filter(bool)


@settings(max_examples=30, deadline=None)
@given(_MINIMAL, st.lists(SMALL_GAUSS, min_size=9, max_size=9),
       st.lists(_SCALE, min_size=8, max_size=8))
def test_measurements_ignore_the_representatives(m, entries, scales):
    c = _very_generic_coords(m)
    g = Mat3([entries[0:3], entries[3:6], entries[6:9]])
    assume(det3(*zip(*g.rows)) != 0)
    t = reconstruct(m).transformed(g)
    scaled = FlagTuple([Flag(tuple(s * x for x in f.point),
                             tuple(r * u for u in f.line))
                        for f, s, r in zip(t, scales[:4], scales[4:])])
    assert edge_coords(t).same_as(c)
    assert edge_coords(scaled).same_as(c)
    dual = dual_coords_closed(c)
    assert dual_coords_matrix(t).same_as(dual)
    assert dual_coords_matrix(scaled).same_as(dual)


def test_exact_operation_reduces_at_most_half_as_often(monkeypatch):
    # one operation of the exact_duality benchmark on a seeded
    # tetrahedron; with every pairing and minor a Gaussian rational (the
    # kernel before integral representatives) it made 1,474 reductions.
    # It makes 203 now, bounded with 10 % headroom, and measures flags
    # twice: the tuple and its dual; the twisted double is read off the
    # chart, and exact faces are derived from the edges.
    reduced, calls = scalars._reduced, []
    monkeypatch.setattr(scalars, "_reduced",
                        lambda a, b, d: calls.append(1) or reduced(a, b, d))
    measure, measured_tuples = edge_coords, []

    def counted_edge_coords(t):
        measured_tuples.append(t)
        return measure(t)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("flagdual") \
                and getattr(module, "edge_coords", None) is measure:
            monkeypatch.setattr(module, "edge_coords", counted_edge_coords)
    m, c = rand_exact_tetra(random.Random(96))
    t = reconstruct(m)
    measured = counted_edge_coords(t)
    closed = dual_coords_closed(measured)
    matrix = dual_coords_matrix(t)
    twice = dual_coords_closed(closed)
    wedge = delta_exact(beta_complex(bundled.twisted_double_complex(m)))
    assert 0 < len(calls) <= 225
    assert len(measured_tuples) == 2
    assert measured.same_as(c) and closed.same_as(matrix)
    assert twice.same_as(c) and wedge.is_zero()


def test_closed_equals_matrix_with_huge_rationals():
    # tolerance scales must never force exact values through binary64
    big = Fraction(10 ** 320 + 7, 3)
    m = (GaussRational(big), GaussRational(Fraction(2, 3), Fraction(-1, 7)),
         GaussRational(Fraction(-5, 11)), GaussRational(0, big))
    c = complete_from_minimal(m)
    t = reconstruct(m)
    assert edge_coords(t).same_as(c)
    assert dual_coords_closed(c).same_as(dual_coords_matrix(t))


def test_closed_equals_matrix_float_backend():
    rng = random.Random(75)
    for _ in range(40):
        c = rand_float_tetra(rng)
        t = reconstruct(c.minimal())
        closed = dual_coords_closed(c)
        matrix = dual_coords_matrix(t)
        assert closed.same_as(matrix, tol=1e-9)


def test_corollary_edge_products_swap():
    rng = random.Random(62)
    for _ in range(30):
        _, c = rand_exact_tetra(rng)
        d = dual_coords_closed(c)
        for (i, j), (k, l) in EVEN_COMPLETION.items():
            assert d.edge_value(i, j) * d.edge_value(j, i) == \
                c.edge_value(k, l) * c.edge_value(l, k)


def test_face_coordinates_invert():
    rng = random.Random(63)
    _, c = rand_exact_tetra(rng)
    d = dual_coords_closed(c)
    for key in c.face:
        assert d.face[key] * c.face[key] == 1


def test_closed_dual_completion_agrees_with_formula():
    # dual_coords_closed evaluates the formula on the four minimal edges
    # only: the eight completed edges must equal the formula as well, and
    # the faces completed from the dual edges the inverted originals
    rng = random.Random(76)
    for _ in range(60):
        _, c = rand_exact_tetra(rng)
        d = dual_coords_closed(c)
        for (i, j) in EVEN_COMPLETION:
            assert d.edge_value(i, j) == _dual_edge(c, i, j)
        completed = complete_from_minimal(d.minimal())
        for key in CANONICAL_FACES:
            assert completed.face[key] == 1 / c.face[key]


def test_duality_is_an_involution():
    rng = random.Random(64)
    for _ in range(20):
        _, c = rand_exact_tetra(rng)
        assert dual_coords_closed(dual_coords_closed(c)).same_as(c)


def test_matrix_route_involution():
    rng = random.Random(65)
    t, c = rand_exact_flag_tetra(rng)
    d = dual_coords_matrix(t)
    dd = dual_coords_matrix(t.dual())
    assert dd.same_as(c)


def test_not_very_generic_rejected():
    bad = complete_from_minimal((GaussRational(2), GaussRational(3),
                                 GaussRational(-4), GaussRational(5)))
    with pytest.raises(NotVeryGeneric):
        dual_coords_closed(bad)
    with pytest.raises(NotVeryGeneric):
        beta_defect(bad)


def test_conjugation_commutes_with_duality():
    rng = random.Random(66)
    for _ in range(100):
        _, c = rand_exact_tetra(rng)
        lhs = dual_coords_closed(c.conjugate())
        rhs = dual_coords_closed(c).conjugate()
        assert lhs.same_as(rhs)
    assert c.conjugate().conjugate().same_as(c)


def test_conjugate_of_real_coords_unchanged():
    c = complete_from_minimal(tuple(GaussRational(v) for v in (2, 3, 5, 7)))
    assert c.conjugate().same_as(c)


def test_paper_explicit_rational_function_for_z12():
    rng = random.Random(67)
    for _ in range(20):
        (z12, z21, z34, z43), c = rand_exact_tetra(rng)
        d = dual_coords_closed(c)
        denom = z12 * (z21 - 1) + z34 * (z12 - 1)
        if denom == 0:
            continue
        rhs = z34 * (z21 * (z12 - 1) + z43 * (z21 - 1)) / denom
        assert d.edge_value(1, 2) == rhs


def test_referee_cross_ratio_route_for_dual_edges():
    # z*_21 = X(x2, l1^l2, l4^l2, l3^l2) read off the primal lines
    rng = random.Random(68)
    for _ in range(20):
        t, c = rand_exact_flag_tetra(rng)
        d = dual_coords_closed(c)
        l = [f.line for f in t]
        x2 = t[1].point
        pts = [x2, vcross(l[0], l[1]), vcross(l[3], l[1]),
               vcross(l[2], l[1])]
        coords = restrict_to_p1(pts)
        assert cross_ratio(*coords) == d.edge_value(2, 1)


def test_hyperbolic_self_duality_exact():
    rng = random.Random(69)
    for _ in range(25):
        z = rand_gauss_rational(rng)
        pts = [ProjPoint1(GaussRational(0), GaussRational(1)),
               ProjPoint1(GaussRational(1), GaussRational(0)),
               ProjPoint1(GaussRational(1), GaussRational(1)),
               ProjPoint1(GaussRational(1), z)]
        t = veronese_tetrahedron(pts)
        c = edge_coords(t)
        assert dual_coords_closed(c).same_as(c)
        assert dual_coords_matrix(t).same_as(c)


def test_w_coordinates_of_hyperbolic_are_squares():
    z = GaussRational(Fraction(5, 2), Fraction(1, 3))
    c = complete_from_minimal((z, z, z, z))
    w = to_w(c)
    for (i, j) in W_PAIRS:
        e = c.edge_value(i, j)
        assert c.edge_value(j, i) == e  # hyperbolic: symmetric edges
        assert w.value(i, j) == e * e


def test_w_round_trip_and_dual_swap():
    rng = random.Random(70)
    for _ in range(100):
        m, c = rand_exact_tetra(rng)
        try:
            w = to_w(c)
            assert from_w(w) == tuple(m)
            dual_minimal = from_w(w.dual())
        except WSingular:
            continue
        d = dual_coords_closed(c)
        assert dual_minimal == tuple(d.minimal())


def test_reprs_show_the_stored_values():
    assert repr(Flag((1.0, 0, 0), (0, 1.0, 0))) == \
        "Flag(point=((1+0j), 0j, 0j), line=(0j, (1+0j), 0j))"
    assert repr(Mat3([[1.0, 2, 0], [0, 1, 0], [0, 0, 1]])) == \
        "Mat3((((1+0j), (2+0j), 0j), (0j, (1+0j), 0j), (0j, 0j, (1+0j))))"
    assert repr(ProjPoint1(2, 3)) == "[2 : 3]"
    assert repr(complete_from_minimal((2.0, 3, 5, 7))) == \
        "TetraCoords(z12=(2+0j), z21=(3+0j), z34=(5+0j), z43=(7+0j))"
    assert repr(WCoords(dict.fromkeys(W_PAIRS, 2.0))) == \
        "WCoords({" + ", ".join(f"{p}: (2+0j)" for p in W_PAIRS) + "})"


def test_w_triple_ratio_formula():
    # each face coordinate is the reciprocal product of the w-values of
    # the face's own three edges: z_ijk = 1/(w_ij w_ik w_jk)
    rng = random.Random(71)
    for _ in range(30):
        _, c = rand_exact_tetra(rng)
        w = to_w(c)
        for (i, j, k) in c.face:
            assert c.face[(i, j, k)] == \
                1 / (w.value(i, j) * w.value(i, k) * w.value(j, k))


def test_w_singular_denominator_raises():
    w = WCoords({(1, 2): GaussRational(-1), (1, 3): GaussRational(1),
                 (1, 4): GaussRational(2), (2, 3): GaussRational(1),
                 (2, 4): GaussRational(3), (3, 4): GaussRational(2)})
    with pytest.raises(WSingular):
        from_w(w)


def test_beta_defect_hyperbolic():
    z = GaussRational(Fraction(4, 3))
    c = complete_from_minimal((z, z, z, z))
    defect = beta_defect(c)
    assert defect == FormalSum([(GaussRational(-1), 4)])
    assert eval_D(defect) == 0.0


def test_beta_defect_numeric_identity():
    rng = random.Random(72)
    for _ in range(60):
        c = rand_float_tetra(rng)
        d = dual_coords_closed(c)
        gap = eval_D(beta_tetra(c)) - eval_D(beta_tetra(d))
        assert abs(gap - eval_D(beta_defect(c))) < 1e-9


def test_beta_defect_cr_doubles_beta():
    # for CR tetrahedra the dual is the conjugate, so the defect carries
    # twice D(beta)
    from flagdual import cr_tetrahedron, heisenberg_null_point, is_very_generic
    rng = random.Random(73)
    for _ in range(10):
        pts = [heisenberg_null_point(
            complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
            rng.uniform(-1.5, 1.5)) for _ in range(4)]
        t = cr_tetrahedron(pts)
        if not is_very_generic(t):
            continue
        c = edge_coords(t)
        d_beta = eval_D(beta_tetra(c))
        assert abs(eval_D(beta_defect(c)) - 2 * d_beta) < 1e-9


def test_cr_duality_is_conjugation():
    from flagdual import cr_tetrahedron, heisenberg_null_point, is_very_generic
    rng = random.Random(74)
    count = 0
    while count < 25:
        pts = [heisenberg_null_point(
            complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
            rng.uniform(-1.5, 1.5)) for _ in range(4)]
        t = cr_tetrahedron(pts)
        if not is_very_generic(t):
            continue
        count += 1
        c = edge_coords(t)
        d = dual_coords_closed(c)
        cc = c.conjugate()
        assert d.same_as(cc, tol=1e-12)
