"""Tetrahedron coordinates: relations, round trips, the triple-cross lemma."""

import cmath
import math
import random
import re
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flagdual import (Flag, GaussRational, Mat3, MinimalCoords,
                      ProjPoint1, TetraCoords, beta_tetra,
                      complete_from_minimal, cross_ratio,
                      dual_coords_closed, edge_coords,
                      reconstruct, triple_ratio, very_generic,
                      veronese_tetrahedron, volume_tetra)
from flagdual import duality, tetra
from flagdual.errors import DegenerateInput, FlagdualError, NotVeryGeneric, \
    OutOfDomain
from flagdual.flags import normalize_to_standard
from flagdual.projective import det3, restrict_to_p1, vcross
from flagdual.scalars import is_exact
from flagdual.tetra import CANONICAL_FACES, CHART_FACTORS, EVEN_COMPLETION, \
    FACE_OPPOSITE, MINIMAL_EDGES, face_class, perm_parity
from flagdual.tolerances import VALIDATION_TOL

from helpers import (EXACT_MINIMAL, FLOAT_MINIMAL, SMALL_GAUSS,
                     dilog_quadrature, proportional, rand_exact_flag_tetra,
                     rand_exact_minimal, rand_exact_tetra, rand_float_scalar,
                     rand_float_tetra, rand_gauss_rational, relabel_tuple)


def test_even_completion_table_is_even():
    assert len(EVEN_COMPLETION) == 12
    for (i, j), (k, l) in EVEN_COMPLETION.items():
        assert {i, j, k, l} == {1, 2, 3, 4}
        assert perm_parity((i, j, k, l)) == 1


def test_face_class_resolution():
    assert face_class(1, 2, 3) == ((1, 2, 3), 1)
    assert face_class(2, 3, 1) == ((1, 2, 3), 1)
    assert face_class(1, 3, 2) == ((1, 2, 3), -1)
    assert face_class(2, 1, 4) == ((1, 4, 2), 1)
    assert face_class(4, 3, 2) == ((2, 4, 3), 1)
    assert face_class(3, 4, 1) == ((1, 3, 4), 1)


def standard_triple(z):
    return [Flag((1, 0, 0), (0, 1, -1)),
            Flag((0, 1, 0), (1, 0, -1)),
            Flag((0, 0, 1), (z, 1, 0))]


def test_triple_ratio_standard_triple():
    z = GaussRational(Fraction(5, 3), Fraction(1, 2))
    f1, f2, f3 = standard_triple(z)
    assert triple_ratio(f1, f2, f3) == z
    # odd permutation inverts
    assert triple_ratio(f1, f3, f2) == 1 / z
    assert triple_ratio(f2, f1, f3) == 1 / z
    # even permutation preserves
    assert triple_ratio(f2, f3, f1) == z
    # dual flags invert
    assert triple_ratio(f1.dual(), f2.dual(), f3.dual()) == 1 / z


def test_triple_ratio_degenerate_pairing():
    f1, f2, _ = standard_triple(GaussRational(2))
    f3 = Flag((0, 0, 1), (1, 0, 0))  # f3(x2) = 0
    with pytest.raises(DegenerateInput):
        triple_ratio(f1, f2, f3)


def test_hyperbolic_example_coordinates():
    z = GaussRational(2)
    pts = [ProjPoint1(GaussRational(0), GaussRational(1)),
           ProjPoint1(GaussRational(1), GaussRational(0)),
           ProjPoint1(GaussRational(1), GaussRational(1)),
           ProjPoint1(GaussRational(1), z)]
    c = edge_coords(veronese_tetrahedron(pts))
    assert tuple(c.minimal()) == (z, z, z, z)
    assert c.edge_value(1, 3) == -1          # 1/(1-2)
    assert c.edge_value(1, 4) == Fraction(1, 2)  # 1 - 1/2
    assert all(v == 1 for v in c.face.values())


def test_reconstruct_literal_flags():
    m = tuple(GaussRational(v) for v in (2, 3, 5, 7))
    t = reconstruct(m)
    assert t[0].point == (1, 0, 0)
    assert t[0].line == (0, GaussRational(Fraction(1, 2)), -1)
    assert t[1].point == (0, 1, 0)
    assert t[1].line == (GaussRational(-2), 0, -1)
    assert t[2].point == (0, 0, 1)
    assert t[2].line == (GaussRational(5), -1, 0)
    assert t[3].point == (1, 1, 1)
    assert t[3].line == (GaussRational(Fraction(-1, 6)),
                         GaussRational(Fraction(7, 6)), -1)
    assert tuple(edge_coords(t).minimal()) == m


def test_round_trip_measure_reconstruct():
    rng = random.Random(51)
    for _ in range(100):
        m, c = rand_exact_tetra(rng)
        measured = edge_coords(reconstruct(m))
        assert tuple(measured.minimal()) == m
        assert measured.same_as(c)


def test_reconstruct_agrees_with_veronese_projectively():
    rng = random.Random(52)
    for _ in range(10):
        z = rand_gauss_rational(rng)
        t_rec = reconstruct((z, z, z, z))
        pts = [ProjPoint1(GaussRational(0), GaussRational(1)),
               ProjPoint1(GaussRational(1), GaussRational(0)),
               ProjPoint1(GaussRational(1), GaussRational(1)),
               ProjPoint1(GaussRational(1), z)]
        t_ver = veronese_tetrahedron(pts)
        norm = t_ver.transformed(normalize_to_standard(t_ver))
        for a, b in zip(t_rec, norm):
            assert proportional(a.point, b.point)
            assert proportional(a.line, b.line)


def test_vertex_and_face_relations_hold_exactly():
    rng = random.Random(53)
    for _ in range(30):
        _, c = rand_exact_tetra(rng)
        for (i, j), (k, l) in EVEN_COMPLETION.items():
            zij = c.edge_value(i, j)
            assert c.edge_value(i, k) == 1 / (1 - zij)
            assert c.edge_value(i, l) == 1 - 1 / zij
        for i in (1, 2, 3, 4):
            prod = GaussRational(1)
            for j in (1, 2, 3, 4):
                if j != i:
                    prod = prod * c.edge_value(i, j)
            assert prod == -1
        for f in CANONICAL_FACES:
            i, j, k = f
            l = FACE_OPPOSITE[f]
            assert c.face[f] == -(c.edge_value(i, l) * c.edge_value(j, l)
                                  * c.edge_value(k, l))


def test_validation_detects_corruption():
    m, c = rand_exact_tetra(random.Random(54))
    edges = dict(c.edge)
    edges[(1, 3)] = edges[(1, 3)] + 1
    with pytest.raises(DegenerateInput):
        TetraCoords(edges, dict(c.face))


def test_validation_refuses_every_small_corruption():
    # a change of 1e-5 on the tolerance's own scale (1 + |z|) to any one
    # of the 16 values, on shapes of modulus 0.1 to 10
    rng = random.Random(62)
    for _ in range(100):
        c = complete_from_minimal(
            [cmath.rect(10 ** rng.uniform(-1, 1), rng.uniform(-3.14, 3.14))
             for _ in range(4)])
        TetraCoords(dict(c.edge), dict(c.face))
        for which in ("edge", "face"):
            for key in getattr(c, which):
                values = {"edge": dict(c.edge), "face": dict(c.face)}
                v = values[which][key]
                values[which][key] = v + 1e-5 * (1 + abs(v)) * cmath.exp(
                    1j * rng.uniform(-3.14, 3.14))
                with pytest.raises(DegenerateInput):
                    TetraCoords(**values)


def test_validation_refuses_every_relative_corruption():
    # a change of relative size 1e-5, in a random direction, to any one of
    # the 16 values, on shapes of modulus 0.1 to 10: the face relation is
    # compared as a ratio, so faces of small modulus are refused too
    rng = random.Random(11)
    for _ in range(2000):
        c = complete_from_minimal(
            [cmath.rect(10 ** rng.uniform(-1, 1), rng.uniform(-3.14, 3.14))
             for _ in range(4)])
        for which in ("edge", "face"):
            for key in getattr(c, which):
                values = {"edge": dict(c.edge), "face": dict(c.face)}
                values[which][key] *= 1 + 1e-5 * cmath.exp(
                    1j * rng.uniform(-3.14, 3.14))
                with pytest.raises(DegenerateInput):
                    TetraCoords(**values)


def _chart_value(m, sign, factors):
    value = sign
    for idx, shape, power in factors:
        z = m[idx]
        s = (z, 1 / (1 - z), 1 - 1 / z)[shape]
        value = value * s if power == 1 else value / s
    return value


def test_chart_table_matches_measured_coordinates():
    # every key of CHART_FACTORS, evaluated on the minimal coordinates,
    # against the value measured from the flags reconstruct builds: edges
    # by edge_coords, each ordering of a face by triple_ratio
    rng = random.Random(64)
    assert len(CHART_FACTORS) == 36
    for _ in range(40):
        for m in (rand_exact_minimal(rng),
                  tuple(rand_float_scalar(rng) for _ in range(4))):
            t = reconstruct(m)
            c = edge_coords(t)
            for key, (sign, factors) in CHART_FACTORS.items():
                measured = c.edge_value(*key) if len(key) == 2 else \
                    triple_ratio(*(t[v - 1] for v in key))
                value = _chart_value(m, sign, factors)
                if is_exact(value):
                    assert value == measured, key
                else:
                    assert abs(value - measured) <= 1e-12 * abs(measured)


def test_domain_errors():
    with pytest.raises(OutOfDomain):
        complete_from_minimal((GaussRational(0), GaussRational(2),
                               GaussRational(2), GaussRational(2)))
    with pytest.raises(OutOfDomain):
        reconstruct((GaussRational(2), GaussRational(1), GaussRational(2),
                     GaussRational(2)))


def test_triple_cross_lemma():
    # the triple ratio is a cross-ratio of four points on the line l2
    rng = random.Random(55)
    for _ in range(30):
        t, _ = rand_exact_flag_tetra(rng)
        f1, f2, f3 = t[0], t[1], t[2]
        z = triple_ratio(f1, f2, f3)
        l1, l2, l3 = f1.line, f2.line, f3.line
        p_l1l2 = vcross(l1, l2)
        p_l2l3 = vcross(l2, l3)
        x2 = f2.point
        x1x3 = vcross(f1.point, f3.point)
        p_mix = vcross(l2, x1x3)
        a, b, c_, d = restrict_to_p1([p_l1l2, p_l2l3, x2, p_mix])
        assert cross_ratio(a, b, c_, d) == -z
        a, b, c_, d = restrict_to_p1([p_l1l2, x2, p_l2l3, p_mix])
        assert cross_ratio(a, b, c_, d) == 1 + z


def test_edge_coords_match_pencil_cross_ratio():
    # z_ij is the cross-ratio of (ker f_i, x_i x_j, x_i x_k, x_i x_l) in
    # the pencil through x_i, computed by cutting with an auxiliary line
    rng = random.Random(56)
    t, c = rand_exact_flag_tetra(rng)
    x = [f.point for f in t]
    for (i, j), (k, l) in EVEN_COMPLETION.items():
        lines = [t[i - 1].line,
                 vcross(x[i - 1], x[j - 1]),
                 vcross(x[i - 1], x[k - 1]),
                 vcross(x[i - 1], x[l - 1])]
        # cut the pencil with the line x_j x_k shifted: use line through
        # x_j and x_l, which avoids x_i for a generic tetrahedron
        cutter = vcross(x[j - 1], x[l - 1])
        pts = [vcross(ln, cutter) for ln in lines]
        coords = restrict_to_p1(pts)
        assert cross_ratio(*coords) == c.edge_value(i, j)


@pytest.mark.parametrize("z12, edge", [(1 + 1e-320j, "z13"),
                                      (1e-320 + 0j, "z13"),
                                      (1.7e308 + 0j, "z14")])
def test_completion_rejects_derived_values_out_of_domain(z12, edge):
    # in binary64, z13 = 1/(1-z12) overflows or rounds to 1, and
    # z14 = 1-1/z12 rounds to 1: the completed edge is refused by name
    with pytest.raises(OutOfDomain, match=f"edge coordinate {edge} = "):
        complete_from_minimal((z12, 0.3 + 0.7j, 1.6 - 0.5j, 0.2 - 1.3j))


@pytest.mark.parametrize("z12, message", [
    (GaussRational(1), "z12 = 1 lies in {0,1}"),
    (1e-320 + 0j, "edge coordinate z13 = (1+0j) lies in {0,1}")])
def test_dual_completion_rejects_values_out_of_domain(monkeypatch, z12,
                                                      message):
    # the dual's minimal coordinates are refused by their own name, and
    # an edge the chart derives from them (z13 = 1/(1-z12) rounds to 1)
    # by the edge's name
    rng = random.Random(61)
    c = rand_exact_tetra(rng)[1] if isinstance(z12, GaussRational) else \
        rand_float_tetra(rng)
    dual_edge = duality._dual_edge
    monkeypatch.setattr(duality, "_dual_edge", lambda c, i, j: z12 if (
        i, j) == (1, 2) else dual_edge(c, i, j))
    with pytest.raises(OutOfDomain, match=re.escape(message)):
        dual_coords_closed(c)


_ALL_EDGE_NAMES = [f"edge coordinate z{i}{j}" for i, j in EVEN_COMPLETION]


def test_each_edge_is_domain_checked_once(monkeypatch):
    # the chart checks the minimal coordinates by name, then only the 8
    # edges it derives from them; the other derived paths check all 12
    rng = random.Random(60)
    t, c = rand_exact_flag_tetra(rng)
    f = rand_float_tetra(rng)
    names, check = [], tetra.check_domain
    monkeypatch.setattr(tetra, "check_domain", lambda z, what:
                        names.append(what) or check(z, what))
    chart = list(MinimalCoords._fields) + [
        f"edge coordinate z{i}{j}" for i, j in EVEN_COMPLETION
        if (i, j) not in MINIMAL_EDGES]
    for build, expected in (
            (lambda: complete_from_minimal(c.minimal()), chart),
            (lambda: complete_from_minimal(f.minimal()), chart),
            (lambda: dual_coords_closed(c), chart),
            (lambda: dual_coords_closed(f), chart),
            (lambda: TetraCoords(c.edge, c.face), _ALL_EDGE_NAMES),
            (lambda: TetraCoords(f.edge, f.face), _ALL_EDGE_NAMES),
            (lambda: c.relabeled((2, 1, 3, 4)), _ALL_EDGE_NAMES),
            (c.conjugate, _ALL_EDGE_NAMES),
            (lambda: edge_coords(t), _ALL_EDGE_NAMES)):
        names.clear()
        build()
        assert names == expected


def test_derived_coordinates_keep_the_stored_order():
    rng = random.Random(59)
    t, c = rand_exact_flag_tetra(rng)
    f = rand_float_tetra(rng)
    edges = list(c.edge.items())
    rng.shuffle(edges)
    shuffled = TetraCoords(dict(edges), dict(reversed(c.face.items())))
    # c and f come from complete_from_minimal
    for d in (c, c.conjugate(), dual_coords_closed(c),
              c.relabeled((2, 1, 3, 4)), f, dual_coords_closed(f),
              edge_coords(t), shuffled):
        assert list(d.edge) == sorted(EVEN_COMPLETION)
        assert tuple(d.face) == CANONICAL_FACES


def test_very_generic_detects_face_minus_one():
    rng = random.Random(57)
    _, c = rand_exact_tetra(rng)
    assert very_generic(c)
    # engineer z_123 = -1: with z12 = 2, z21 = 3 we get z14 = 1/2 and
    # z24 = -1/2, so z34 = -4 makes the face product -1
    bad = complete_from_minimal((GaussRational(2), GaussRational(3),
                                 GaussRational(-4), GaussRational(5)))
    assert bad.face[(1, 2, 3)] == -1
    assert not very_generic(bad)
    with pytest.raises(NotVeryGeneric, match=r"face coordinate z_123 = -1"):
        very_generic(bad, require=True)


def test_beta_and_volume():
    z = GaussRational(Fraction(7, 2))
    c = complete_from_minimal((z, z, z, z))
    assert all(v == 1 for v in c.face.values())
    assert beta_tetra(c) == 4 * __import__(
        "flagdual").FormalSum([(z, 1)])
    assert volume_tetra(c) == 0.0  # real coordinates have zero volume

    w = cmath.exp(1j * math.pi / 3)
    cw = complete_from_minimal((w, w, w, w))
    oracle = dilog_quadrature(w)
    assert abs(volume_tetra(cw) - oracle) < 1e-11


def test_minimal_coords_name_the_chart_edges():
    rng = random.Random(58)
    _, c = rand_exact_tetra(rng)
    m = MinimalCoords(*c.minimal())
    assert m.z12 == c.edge_value(1, 2)
    assert m.z43 == c.edge_value(4, 3)


# -- flag tuples measured afresh: relabeling and the derived faces -------------

_PERMUTATIONS = tuple(permutations((1, 2, 3, 4)))


def _generic_tuple(m, entries=None):
    """reconstruct(m), moved by the projectivity of the nine entries when
    given; a degenerate draw is assumed away."""
    try:
        t = reconstruct(m)
        if entries is not None:
            g = Mat3([entries[0:3], entries[3:6], entries[6:9]])
            assume(det3(*g.columns()) != 0)
            t = t.transformed(g)
        return t, edge_coords(t)
    except FlagdualError:
        assume(False)


@settings(max_examples=40, deadline=None)
@given(st.one_of(EXACT_MINIMAL, FLOAT_MINIMAL))
def test_relabeled_matches_the_permuted_flags(m):
    # the flag route: measure the reordered tuple, for all 24 orders;
    # exactly on exact flags, within VALIDATION_TOL on float ones
    t, c = _generic_tuple(m)
    tol = 0.0 if c.exact else VALIDATION_TOL
    for perm in _PERMUTATIONS:
        measured = edge_coords(relabel_tuple(t, perm))
        assert measured.same_as(c.relabeled(perm), tol), perm


def test_relabeled_refuses_a_non_permutation():
    _, c = rand_exact_tetra(random.Random(60))
    for perm in ((1, 2, 3), (1, 1, 3, 4), (0, 1, 2, 3)):
        with pytest.raises(ValueError, match="not a permutation"):
            c.relabeled(perm)


@settings(max_examples=40, deadline=None)
@given(EXACT_MINIMAL, st.lists(SMALL_GAUSS, min_size=9, max_size=9))
def test_exact_edge_coords_faces_are_the_triple_ratios(m, entries):
    # exact edge_coords derives its faces from its edges; measured
    # independently as triple ratios they agree, and the validating
    # constructor accepts the 16 values
    t, c = _generic_tuple(m, entries)
    for f in CANONICAL_FACES:
        assert c.face[f] == triple_ratio(*(t[v - 1] for v in f)), f
    assert TetraCoords(c.edge, c.face).same_as(c)
