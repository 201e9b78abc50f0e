"""Triangulations, consistency checks, invariants, duality at complex level."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flagdual import (DecoratedComplex, Decoration, FacePairing,
                      GaussRational, IdealTriangulation, beta_complex,
                      canonicalize_six, check_edges, check_faces,
                      complete_from_minimal, conjugate_complex, delta_exact,
                      dilog_D, dualize, duality_defect, dump_complex, eval_D,
                      is_consistent, load_complex, solve_consistency,
                      very_generic, volume_complex)
from flagdual.complexes import CheckItem, CheckReport
from flagdual.bundled import (GEOMETRIC_SHAPE, cr_complex, cyclic_cover,
                              figure_eight_complex,
                              figure_eight_triangulation, hyperbolic_complex,
                              lifted_cover, single_tetra_triangulation,
                              twisted_double_complex,
                              twisted_double_triangulation)
from flagdual import prebloch
from flagdual.duality import beta_defect
from flagdual.errors import MalformedPairing, NotVeryGeneric, OutOfDomain
from flagdual.tetra import TetraCoords, volume_tetra

from helpers import (EXACT_MINIMAL, FLOAT_MINIMAL, classical_edge_products,
                     flood_fill_edge_orbits, rand_exact_tetra,
                     reversed_face_order_cover)

FIG8_VOLUME = 2.029883212819307


def test_single_tetra_orbit_counts():
    k = single_tetra_triangulation()
    orbits = k.edge_orbits()
    assert len(orbits) == 12
    assert all(len(o) == 1 for o in orbits)
    classes = k.edge_classes()
    assert len(classes) == 6
    assert not k.is_closed()
    assert len(k.boundary_faces()) == 4


def test_figure_eight_edge_classes():
    k = figure_eight_triangulation()
    orbits = k.edge_orbits()
    assert sorted(len(o) for o in orbits) == [6, 6, 6, 6]
    classes = k.edge_classes()
    assert len(classes) == 2
    for cls in classes:
        assert len(cls.members) == 6
        assert len(cls.reverse_members) == 6
        # reversal really reverses
        rev = {(t, j, i) for (t, i, j) in cls.members}
        assert rev == set(cls.reverse_members)
    assert k.is_closed()


def test_malformed_pairings_rejected():
    with pytest.raises(MalformedPairing):
        FacePairing(0, (1, 2, 2), 1, (1, 2, 3))
    # well-shaped file records that are not simplicial gluings
    for key, value in (("map", [[1, 1], [2, 1], [3, 3]]),
                       ("faceA", [1, 2, 5]), ("faceB", [1, 1, 3])):
        data = dump_complex(figure_eight_complex())
        data["pairings"] = [{"tetA": 0, "faceA": [1, 2, 3],
                             "tetB": 1, "faceB": [1, 2, 3], key: value}]
        with pytest.raises(MalformedPairing):
            load_complex(data)
    with pytest.raises(MalformedPairing, match="paired with itself"):
        IdealTriangulation(1, [FacePairing(0, (1, 2, 3), 0, (2, 1, 3))])
    # one face in two pairings
    p1 = FacePairing(0, (1, 2, 3), 1, (1, 2, 3))
    p2 = FacePairing(0, (3, 2, 1), 1, (2, 4, 3))
    with pytest.raises(MalformedPairing):
        IdealTriangulation(2, [p1, p2])


def test_figure_eight_geometric_consistency():
    dc = figure_eight_complex()
    faces = check_faces(dc)
    edges = check_edges(dc)
    assert faces.max_residual < 1e-12
    assert edges.max_residual < 1e-12
    assert is_consistent(dc, tol=1e-12)


def test_perturbed_face_flagged():
    # a uniform shape change keeps all hyperbolic faces at 1, so perturb
    # one minimal coordinate only: that moves the face coordinates
    dc = figure_eight_complex()
    z = GEOMETRIC_SHAPE
    bad = DecoratedComplex(
        dc.triangulation,
        Decoration([dc.coords[0],
                    complete_from_minimal((z * (1 + 1e-3), z, z, z))]))
    report = check_faces(bad)
    assert not report.passed(1e-9)
    assert report.failures(1e-9)


@pytest.mark.parametrize("nan_first", [True, False])
def test_nan_residual_fails_the_report(nan_first):
    # an overflowing product gives a NaN residual, which no tolerance
    # passes, wherever it stands in the report
    good = CheckItem("a", 1, 0.0, None)
    bad = CheckItem("b", math.nan, math.nan, None)
    report = CheckReport("edges", [bad, good] if nan_first else [good, bad])
    assert not report.passed()
    assert not report.passed(math.inf)
    assert report.failures() == [bad]
    assert math.isnan(report.max_residual)


def test_random_gluing_generically_fails():
    rng = random.Random(91)
    _, c0 = rand_exact_tetra(rng)
    _, c1 = rand_exact_tetra(rng)
    dc = DecoratedComplex(figure_eight_triangulation(), Decoration([c0, c1]))
    faces = check_faces(dc)
    edges = check_edges(dc)
    assert faces.failures() or edges.failures()
    assert len(faces.failures()) + len(edges.failures()) >= 1


def test_single_unglued_tetra_inconsistent():
    rng = random.Random(92)
    _, c = rand_exact_tetra(rng)
    dc = DecoratedComplex(single_tetra_triangulation(), Decoration([c]))
    report = check_edges(dc)
    # singleton classes demand z_ij = 1, impossible for generic values
    assert not report.passed()
    assert len(report.failures()) == 6


def test_edge_class_fails_when_one_directed_product_is_not_one():
    # glued along one face, the edge 12 has forward product 2 * 1/2,
    # exactly 1, and reverse product 3 * 5
    c0 = complete_from_minimal((2, 3, 5, 7))
    c1 = complete_from_minimal((Fraction(1, 2), 5, 5, 7))
    tri = IdealTriangulation(2, [FacePairing(0, (1, 2, 3), 1, (1, 2, 3))])
    item = check_edges(DecoratedComplex(tri, Decoration([c0, c1]))).items[0]
    assert item.value == (1, 15)
    assert item.residual == 14.0
    assert item.exact_ok is False


def test_edge_equations_match_classical_gluing_oracle():
    dc = figure_eight_complex()
    report = check_edges(dc)
    oracle = classical_edge_products(dc.triangulation, GEOMETRIC_SHAPE)
    for item, prod in zip(report.items, oracle):
        pf, _ = item.value
        assert abs(pf - prod) < 1e-12


def test_beta_and_volume_figure_eight():
    dc = figure_eight_complex()
    b = beta_complex(dc)
    assert len(b) == 1
    gen, coeff = b.terms[0]
    assert coeff == 8
    assert abs(gen - GEOMETRIC_SHAPE) < 1e-15
    assert abs(volume_complex(dc) - FIG8_VOLUME) < 1e-9
    assert abs(volume_complex(dc) - 2 * dilog_D(GEOMETRIC_SHAPE)) < 1e-12


def test_conjugation_negates_volume():
    dc = figure_eight_complex()
    assert abs(volume_complex(conjugate_complex(dc))
               + volume_complex(dc)) < 1e-12


def test_empty_complex():
    dc = DecoratedComplex(IdealTriangulation(0, []), Decoration([]))
    assert beta_complex(dc).is_zero()
    assert volume_complex(dc) == 0.0
    assert check_faces(dc).passed() and check_edges(dc).passed()


def _repeated_complex(tetrahedra):
    """An unglued complex of each tetrahedron's coordinates, repeated."""
    coords = []
    for m, times in tetrahedra:
        try:
            coords += [complete_from_minimal(m)] * times
        except OutOfDomain:
            assume(False)
    return DecoratedComplex(IdealTriangulation(len(coords), []),
                            Decoration(coords))


_REPEATED = st.integers(1, 11)


def _assert_is_the_merged_route(volume, dc):
    """volume is eval_D(beta)/4 bit for bit when no two distinct minimal
    coordinates lie within MERGE_TOL, and within rounding of it when
    some do (drawn ones do, as 1j and 5e-160+1j): Vol merges none."""
    expected = eval_D(beta_complex(dc)) / 4
    distinct = list(dict.fromkeys(z for c in dc.coords for z in c.minimal()))
    if dc.decoration.exact or not any(
            prebloch._close(a, b) for a, b in combinations(distinct, 2)):
        assert volume.hex() == expected.hex()
    else:
        assert math.isclose(volume, expected, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.lists(st.tuples(FLOAT_MINIMAL, _REPEATED), min_size=2, max_size=5),
    st.lists(st.tuples(EXACT_MINIMAL, _REPEATED), min_size=2, max_size=5)))
def test_volume_is_a_quarter_of_D_of_beta_bit_for_bit(tetrahedra):
    dc = _repeated_complex(tetrahedra)
    _assert_is_the_merged_route(volume_complex(dc), dc)
    first = dc.coords[0]
    _assert_is_the_merged_route(volume_tetra(first), DecoratedComplex(
        IdealTriangulation(1, []), Decoration([first])))


def test_volume_merges_no_formal_sum(monkeypatch):
    merge, calls = prebloch._merge_groups, []
    monkeypatch.setattr(prebloch, "_merge_groups",
                        lambda values: calls.append(1) or merge(values))
    for dc in (lifted_cover(figure_eight_complex(), 4, (3, 5, 7, 11)),
               twisted_double_complex(), cr_complex()):
        volume_complex(dc)
        for c in dc.coords:
            volume_tetra(c)
    assert not calls


def test_dualize_stores_each_dual_tetrahedron_once(monkeypatch):
    # its edges come from the chart and its faces are the inverted ones,
    # so no completed TetraCoords is built on the way
    store, calls = TetraCoords._store, []
    monkeypatch.setattr(TetraCoords, "_store", lambda self, *args:
                        calls.append(1) or store(self, *args))
    for dc in (lifted_cover(figure_eight_complex(), 8, (3, 5, 7, 11)),
               twisted_double_complex(), cr_complex()):
        calls.clear()
        dualize(dc)
        assert len(calls) == dc.triangulation.n


def test_dualize_figure_eight_is_identity():
    dc = figure_eight_complex()
    dd = dualize(dc)
    for a, b in zip(dc.coords, dd.coords):
        assert a.same_as(b, tol=1e-12)
    assert is_consistent(dd, tol=1e-9)


def test_dualize_involution_and_consistency_preserved():
    tdc = twisted_double_complex()
    assert is_consistent(tdc)
    dd = dualize(tdc)
    assert check_faces(dd).passed() and check_edges(dd).passed()
    back = dualize(dd)
    for a, b in zip(tdc.coords, back.coords):
        assert a.same_as(b)


def test_dualize_names_offending_tetrahedron():
    bad = complete_from_minimal((GaussRational(2), GaussRational(3),
                                 GaussRational(-4), GaussRational(5)))
    rng = random.Random(93)
    _, good = rand_exact_tetra(rng)
    dc = DecoratedComplex(figure_eight_triangulation(),
                          Decoration([good, bad]))
    with pytest.raises(NotVeryGeneric, match="tetrahedron 1"):
        dualize(dc)
    with pytest.raises(NotVeryGeneric, match="tetrahedron 1"):
        duality_defect(dc)


def test_duality_defect_figure_eight_cancels_exactly():
    dc = figure_eight_complex()
    defect = duality_defect(dc)
    assert len(defect) >= 1  # eight raw face terms, merged
    assert sum(abs(n) for _, n in defect.terms) == 8 or defect.is_zero()
    assert canonicalize_six(defect).is_zero()
    assert abs(eval_D(defect)) < 1e-12


def test_duality_defect_single_tetra_is_beta_defect():
    rng = random.Random(94)
    _, c = rand_exact_tetra(rng)
    dc = DecoratedComplex(single_tetra_triangulation(), Decoration([c]))
    assert duality_defect(dc) == beta_defect(c)


def test_duality_defect_numeric_identity_on_complex():
    dc = figure_eight_complex(shape=0.4 + 1.1j)
    defect = duality_defect(dc)
    gap = 4 * (volume_complex(dc) - volume_complex(dualize(dc)))
    assert abs(gap - eval_D(defect)) < 1e-9


def test_twisted_double_orbit_structure():
    from flagdual.bundled import twisted_double_triangulation
    k = twisted_double_triangulation()
    orbits = k.edge_orbits()
    # every oriented edge of tet 0 pairs with exactly one of tet 1
    assert len(orbits) == 12
    assert all(len(o) == 2 for o in orbits)
    assert len(k.edge_classes()) == 6
    assert k.is_closed()


def test_conjugation_commutes_with_dualize_at_complex_level():
    tdc = twisted_double_complex()
    lhs = dualize(conjugate_complex(tdc))
    rhs = conjugate_complex(dualize(tdc))
    for a, b in zip(lhs.coords, rhs.coords):
        assert a.same_as(b)


def test_twisted_double_exact_end_to_end():
    tdc = twisted_double_complex()
    assert tdc.triangulation.is_closed()
    assert tdc.decoration.exact
    assert check_faces(tdc).passed() and check_edges(tdc).passed()
    b = beta_complex(tdc)
    assert delta_exact(b).is_zero()
    assert canonicalize_six(duality_defect(tdc)).is_zero()
    # the dual decoration has the same invariant
    assert canonicalize_six(b - beta_complex(dualize(tdc))).is_zero()


def test_twisted_double_arbitrary_exact_decorations():
    rng = random.Random(95)
    for _ in range(10):
        m, _ = rand_exact_tetra(rng, span=6)
        tdc = twisted_double_complex(m)
        assert check_faces(tdc).passed() and check_edges(tdc).passed()
        assert delta_exact(beta_complex(tdc)).is_zero()


def test_consistent_cr_decorated_complex_has_zero_volume():
    # a closed complex decorated entirely with spherical CR flags and
    # satisfying all pairings: its beta has vanishing dilogarithm
    from flagdual import FlagTuple, cr_tetrahedron, heisenberg_null_point
    from flagdual.bundled import twisted_double_triangulation
    rng = random.Random(96)
    pts = [heisenberg_null_point(
        complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
        rng.uniform(-1.5, 1.5)) for _ in range(4)]
    t0 = cr_tetrahedron(pts)
    t1 = FlagTuple([t0[1], t0[0], t0[2], t0[3]])
    dc = DecoratedComplex(twisted_double_triangulation(),
                          Decoration.from_flags([t0, t1]))
    assert dc.triangulation.is_closed()
    assert check_faces(dc).passed(1e-10) and check_edges(dc).passed(1e-10)
    assert abs(volume_complex(dc)) < 1e-9
    assert abs(eval_D(beta_complex(dc))) < 1e-9


def test_cr_complex_loads_and_measures():
    dc = cr_complex()
    assert len(dc.coords) == 1
    assert dc.decoration.flag_tuples is not None
    assert not dc.decoration.exact
    # CR tetrahedra are very generic
    assert all(very_generic(c) for c in dc.coords)


def test_hyperbolic_complex_real_volume_zero():
    dc = hyperbolic_complex(GaussRational(Fraction(3, 2)))
    assert volume_complex(dc) == 0.0
    dual = dualize(dc)
    for a, b in zip(dc.coords, dual.coords):
        assert a.same_as(b)


def _count_merge_tests(monkeypatch):
    calls = [0]
    close = prebloch._close

    def counting(a, b):
        calls[0] += 1
        return close(a, b)

    monkeypatch.setattr(prebloch, "_close", counting)
    return calls


def test_lifted_cover_invariants_cost_linear_merge_tests(monkeypatch):
    n = 128
    dc = lifted_cover(figure_eight_complex(), n, (1, 0, 0, 0))
    tri = dc.triangulation
    assert tri.n == 256 and tri.is_closed()
    calls = _count_merge_tests(monkeypatch)
    assert abs(volume_complex(dc) - n * FIG8_VOLUME) <= 1e-9 * n
    assert canonicalize_six(duality_defect(dc)).is_zero()
    generators = 8 * tri.n  # four in beta, four in the defect, per tetrahedron
    assert calls[0] <= 5 * generators

    # distinct generators, each with a near-duplicate from a twin copy
    rng = random.Random(92)
    coords = []
    for _ in range(n):
        m = tuple(GEOMETRIC_SHAPE * (1 + complex(rng.uniform(-1e-3, 1e-3),
                                                 rng.uniform(-1e-3, 1e-3)))
                  for _ in range(4))
        twin = tuple(z * (1 + 1e-15) for z in m)
        coords += [complete_from_minimal(m), complete_from_minimal(twin)]
    jittered = DecoratedComplex(tri, Decoration(coords))
    calls[0] = 0
    beta = beta_complex(jittered)
    assert len(beta) == 4 * n
    canonicalize_six(duality_defect(jittered))
    # a linear scan per class, as in pairwise merging, would need ~n^2
    assert calls[0] <= 5 * generators


ORBIT_CASES = {
    "single": single_tetra_triangulation,
    "figure8": figure_eight_triangulation,
    "double": twisted_double_triangulation,
    "fig8-cover-1000": lambda: cyclic_cover(8, (1, 0, 0, 0)),
    "fig8-cover-1100": lambda: cyclic_cover(6, (1, 1, 0, 0)),
    "fig8-cover-3-5-7-11": lambda: cyclic_cover(16, (3, 5, 7, 11)),
    "fig8-cover-0000": lambda: cyclic_cover(3, (0, 0, 0, 0)),
    "double-cover-1000": lambda: cyclic_cover(
        8, (1, 0, 0, 0), twisted_double_triangulation()),
    "double-cover-2-0-1-3": lambda: cyclic_cover(
        5, (2, 0, 1, 3), twisted_double_triangulation()),
    "reversed-faces": reversed_face_order_cover,
}


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_edge_orbits_match_flood_fill_oracle(case):
    tri = ORBIT_CASES[case]()
    orbits = tri.edge_orbits()
    assert list(orbits) == flood_fill_edge_orbits(tri)
    classes = tri.edge_classes()
    assert tri.edge_classes() is classes and tri.edge_orbits() is orbits
    sides = [o for cls in classes for o in (cls.members, cls.reverse_members)]
    # every orbit is a side of exactly one class, whose other side is
    # its reversal (a class may be its own reversal)
    assert {frozenset(s) for s in sides} == {frozenset(o) for o in orbits}
    assert len(sides) == 2 * len(classes)
    for cls in classes:
        assert cls.reverse_members == tuple(sorted(
            (t, j, i) for t, i, j in cls.members))


def test_edges_are_built_once_and_only_when_read():
    dc = twisted_double_complex()
    tri = dc.triangulation
    dualize(dc)
    beta_complex(dc)
    duality_defect(dc)
    assert check_faces(dc).passed()
    assert "_edges" not in vars(tri) and "equations" not in vars(tri)
    assert is_consistent(dc)
    rows = tri.equations
    assert dualize(dc).triangulation.equations is rows
    assert len(rows) == len(tri.pairings) + 2 * len(tri.edge_classes())


COVER_BASES = {"figure8": figure_eight_complex,
               "double": twisted_double_complex}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(COVER_BASES)), st.integers(1, 12),
       st.tuples(*[st.integers(-20, 20)] * 4))
def test_lifts_stay_consistent_with_n_times_the_volume(base, n, voltages):
    dc = COVER_BASES[base]()
    lift = lifted_cover(dc, n, voltages)
    assert lift.triangulation.n == n * dc.triangulation.n
    assert lift.triangulation.is_closed()
    # passed() is exact on the exact double and ignores the tolerance
    assert check_faces(lift).passed(1e-12) and check_edges(lift).passed(1e-12)
    assert abs(volume_complex(lift) - n * volume_complex(dc)) <= 1e-12 * n
    assert canonicalize_six(duality_defect(lift)).is_zero()
    if dc.decoration.exact:
        assert delta_exact(beta_complex(lift)).is_zero()


@given(st.sampled_from(sorted(COVER_BASES)), st.integers(-12, 12),
       st.integers(0, 8))
def test_cover_degree_and_voltage_count_are_checked(base, n, count):
    assume(n < 1 or count != 4)
    with pytest.raises(MalformedPairing, match="a cover needs"):
        cyclic_cover(n, (1,) * count, COVER_BASES[base]().triangulation)


@pytest.mark.parametrize("n,voltages", [
    (True, (1, 0, 0, 0)), (4.0, (1, 0, 0, 0)), ("4", (1, 0, 0, 0)),
    (4, (1, 0, 0, 0.0)), (4, (1, False, 0, 0)), (4, (1, 0, 0, "0"))])
def test_cover_degree_and_voltages_are_ints(n, voltages):
    with pytest.raises(MalformedPairing, match="a cover needs"):
        cyclic_cover(n, voltages)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("voltages", [(1, 0, 0, 0), (3, 5, 7, 11)])
def test_exact_twisted_double_covers_at_tolerance_zero(n, voltages):
    dc = lifted_cover(twisted_double_complex(), n, voltages)
    assert dc.triangulation.n == 2 * n and dc.decoration.exact
    assert dc.triangulation.is_closed()
    assert check_faces(dc).passed() and check_edges(dc).passed()
    assert delta_exact(beta_complex(dc)).is_zero()
    assert canonicalize_six(duality_defect(dc)).is_zero()
    result = solve_consistency(dc)
    assert result.iterations == 0 and result.decorated is dc
