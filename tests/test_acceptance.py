"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
All tolerances are pinned here, not configurable.
"""

import cmath
import math
import random
import time

import numpy as np

from flagdual import (FormalSum, GaussRational, ProjPoint1, beta_defect,
                      beta_tetra, canonicalize_six, check_edges, check_faces,
                      cr_tetrahedron, delta_exact, dilog_D, dual_coords_closed,
                      dual_coords_matrix, duality_defect,
                      dualize, edge_coords, eval_D, five_term,
                      heisenberg_null_point, is_very_generic, reconstruct,
                      solve_consistency, veronese_tetrahedron, volume_complex)
from flagdual.bundled import figure_eight_complex, twisted_double_complex
from flagdual.solver import (ConsistencySystem, complex_from_vector,
                             minimal_vector)
from flagdual.tetra import EVEN_COMPLETION

from helpers import (dilog_quadrature, finite_difference_jacobian,
                     rand_exact_tetra, rand_float_tetra, rand_gauss_rational)

FIG8_VOLUME = 2.029883212819307
D_OMEGA = 1.014941606409653


def _ok(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_closed_vs_matrix_duality_exact():
    rng = random.Random(1001)
    start = time.perf_counter()
    for _ in range(200):
        m, c = rand_exact_tetra(rng)
        closed = dual_coords_closed(c)
        matrix = dual_coords_matrix(reconstruct(m))
        assert closed.same_as(matrix)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    _ok(1, f"200 random very generic exact tetrahedra, closed formula == "
           f"matrix route exactly in {elapsed:.2f}s")


def test_criterion_02_edge_product_corollary_exact():
    rng = random.Random(1001)  # the same 200 tetrahedra as criterion 1
    for _ in range(200):
        _, c = rand_exact_tetra(rng)
        d = dual_coords_closed(c)
        for (i, j), (k, l) in EVEN_COMPLETION.items():
            assert d.edge_value(i, j) * d.edge_value(j, i) == \
                c.edge_value(k, l) * c.edge_value(l, k)
    _ok(2, "z*_ij z*_ji = z_kl z_lk exactly on 200 exact tetrahedra")


def test_criterion_03_face_defect_numeric():
    rng = random.Random(1003)
    worst = 0.0
    for _ in range(500):
        c = rand_float_tetra(rng)
        d = dual_coords_closed(c)
        gap = eval_D(beta_tetra(c)) - eval_D(beta_tetra(d))
        err = abs(gap - eval_D(beta_defect(c)))
        worst = max(worst, err)
    assert worst < 1e-9
    _ok(3, f"|D(beta(T)) - D(beta(T*)) - sum D(-z_face)| < 1e-9 on 500 "
           f"float tetrahedra (worst {worst:.2e})")


def test_criterion_04_five_term_and_dilogarithm():
    rng = random.Random(1004)
    worst5 = 0.0
    done = 0
    while done < 1000:
        x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        y = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if min(abs(x), abs(y), abs(x - 1), abs(y - 1), abs(x - y)) < 0.02:
            continue
        worst5 = max(worst5, abs(eval_D(five_term(x, y))))
        done += 1
    assert worst5 < 1e-10

    worstq = 0.0
    done = 0
    while done < 100:
        r = rng.uniform(0.05, 3.5)
        th = rng.uniform(0.05, math.pi - 0.05)
        z = cmath.rect(r, th if rng.random() < 0.5 else -th)
        if abs(z - 1) < 0.05:
            continue
        worstq = max(worstq, abs(dilog_D(z) - dilog_quadrature(z)))
        done += 1
    assert worstq < 1e-11

    w = cmath.exp(1j * math.pi / 3)
    assert abs(dilog_D(w) - D_OMEGA) < 1e-11
    _ok(4, f"5-term |D| < 1e-10 on 1000 pairs (worst {worst5:.2e}); series "
           f"vs quadrature < 1e-11 on 100 points (worst {worstq:.2e}); "
           f"D(e^(i pi/3)) within 1e-11 of {D_OMEGA}")


def test_criterion_05_hyperbolic_self_duality():
    rng = random.Random(1005)
    for _ in range(100):
        z = rand_gauss_rational(rng)
        pts = [ProjPoint1(GaussRational(0), GaussRational(1)),
               ProjPoint1(GaussRational(1), GaussRational(0)),
               ProjPoint1(GaussRational(1), GaussRational(1)),
               ProjPoint1(GaussRational(1), z)]
        c = edge_coords(veronese_tetrahedron(pts))
        assert all(v == 1 for v in c.face.values())
        d = dual_coords_closed(c)
        for key in c.edge:
            assert d.edge[key] == c.edge[key]
    _ok(5, "100 random Veronese tetrahedra: faces all 1 and z*_ij = z_ij "
           "exactly")


def test_criterion_06_cr_duality_is_conjugation():
    rng = random.Random(1006)
    done = 0
    worst = 0.0
    while done < 100:
        pts = [heisenberg_null_point(
            complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
            rng.uniform(-1.5, 1.5)) for _ in range(4)]
        t = cr_tetrahedron(pts)
        if not is_very_generic(t):
            continue
        done += 1
        c = edge_coords(t)
        d = dual_coords_closed(c)
        cc = c.conjugate()
        for key in c.edge:
            err = abs(complex(d.edge[key]) - complex(cc.edge[key]))
            worst = max(worst, err / (1 + abs(complex(c.edge[key]))))
        for (i, j), (k, l) in EVEN_COMPLETION.items():
            lhs = complex(c.edge_value(i, j) * c.edge_value(j, i))
            rhs = complex(c.edge_value(k, l) * c.edge_value(l, k)).conjugate()
            err = abs(lhs - rhs) / (1 + abs(lhs))
            worst = max(worst, err)
    assert worst < 1e-12
    _ok(6, f"100 CR tetrahedra: z*_ij = conj(z_ij) and z_ij z_ji = "
           f"conj(z_kl z_lk) to 1e-12 (worst {worst:.2e})")


def test_criterion_07_figure_eight_end_to_end():
    dc = figure_eight_complex()
    faces = check_faces(dc)
    edges = check_edges(dc)
    assert faces.max_residual < 1e-12
    assert edges.max_residual < 1e-12
    vol = volume_complex(dc)
    assert abs(vol - FIG8_VOLUME) < 1e-9
    dual = dualize(dc)
    for a, b in zip(dc.coords, dual.coords):
        assert a.same_as(b, tol=1e-12)
    assert canonicalize_six(duality_defect(dc)).is_zero()
    _ok(7, f"figure-eight: residuals < 1e-12, Vol = {vol:.15f}, dual "
           f"decoration identical, canonicalized defect empty")


def test_criterion_08_main_theorem_at_non_geometric_solution():
    dc = figure_eight_complex()
    rng = np.random.default_rng(1008)
    m0 = minimal_vector(dc)
    noise = rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)
    start = complex_from_vector(dc, m0 * (1 + 1e-3 * noise))
    result = solve_consistency(start, tol=1e-12)
    solved = result.decorated
    assert result.residual < 1e-12
    dist = float(np.max(np.abs(minimal_vector(solved) - m0)))
    assert dist > 1e-6  # genuinely non-geometric point of Sol(K)
    v = volume_complex(solved)
    v_dual = volume_complex(dualize(solved))
    assert abs(v - v_dual) < 1e-9
    assert canonicalize_six(duality_defect(solved)).is_zero()
    _ok(8, f"re-solved perturbed figure-eight (residual {result.residual:.2e},"
           f" {dist:.1e} from geometric): |Vol - Vol*| = {abs(v - v_dual):.2e}"
           f" and defect cancels exactly")


def test_criterion_09_solver_convergence_and_jacobian():
    dc = figure_eight_complex()
    rng = np.random.default_rng(1009)
    m0 = minimal_vector(dc)
    noise = rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)
    start = complex_from_vector(dc, m0 * (1 + 1e-3 * noise))
    result = solve_consistency(start, tol=1e-12)
    assert result.iterations <= 25
    assert result.residual < 1e-12

    system = ConsistencySystem(dc.triangulation)
    m = minimal_vector(start)
    _, analytic = system.residuals_and_jacobian(m)
    numeric = finite_difference_jacobian(system, m, h=1e-6)
    rel = float(np.max(np.abs(analytic.toarray() - numeric))
                / np.max(np.abs(analytic.toarray())))
    assert rel < 1e-5
    _ok(9, f"solver: {result.iterations} Newton steps to "
           f"{result.residual:.2e}; Jacobian vs central differences "
           f"{rel:.2e} relative")


def test_criterion_10_delta_necessary_condition():
    rng = random.Random(1010)
    for _ in range(50):
        x = rand_gauss_rational(rng, span=6)
        y = rand_gauss_rational(rng, span=6)
        if x == y:
            continue
        assert delta_exact(five_term(x, y)).is_zero()

    # exact consistent boundaryless decorations in the corpus
    from fractions import Fraction
    corpus = [twisted_double_complex()]
    for _ in range(5):
        m, _ = rand_exact_tetra(rng, span=5)
        corpus.append(twisted_double_complex(m))
    for tdc in corpus:
        assert tdc.triangulation.is_closed()
        assert check_faces(tdc).passed() and check_edges(tdc).passed()
        assert delta_exact(__import__("flagdual").beta_complex(tdc)).is_zero()

    d = delta_exact(FormalSum([(GaussRational(Fraction(1, 3)), 1)]))
    assert not d.is_zero()
    _ok(10, f"delta vanishes on 5-term sums and on beta of {len(corpus)} "
            f"exact consistent closed complexes; delta([1/3]) != 0")
