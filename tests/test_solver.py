"""Newton solver over the consistency variety."""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flagdual import (DecoratedComplex, Decoration, IdealTriangulation,
                      canonicalize_six, check_edges, check_faces,
                      complete_from_minimal, duality_defect, dualize,
                      solve_consistency, solver, volume_complex,
                      write_complex)
from flagdual.cli import main
from flagdual.bundled import (GEOMETRIC_SHAPE, cyclic_cover,
                              figure_eight_complex,
                              figure_eight_triangulation, lifted_cover,
                              single_tetra_triangulation,
                              twisted_double_complex,
                              twisted_double_triangulation)
from flagdual.errors import LeftDomain, SolverDiverged, Unsupported
from flagdual.prebloch import _orbit_rep, six_orbit
from flagdual.solver import (DENSE_MAX_UNKNOWNS, ConsistencySystem, cgls,
                             complex_from_vector, forcing_term,
                             minimal_vector)
from flagdual.tetra import C1, C2, CHART_FACTORS, ID
from flagdual.tolerances import CGLS_RTOL, CGLS_RTOL_MAX, MERGE_TOL

from helpers import finite_difference_jacobian, reversed_face_order_cover


def _perturbed_figure_eight(scale=1e-3, seed=7):
    dc = figure_eight_complex()
    rng = np.random.default_rng(seed)
    m = minimal_vector(dc)
    noise = rng.uniform(-1, 1, m.size) + 1j * rng.uniform(-1, 1, m.size)
    return dc, complex_from_vector(dc, m * (1 + scale * noise))


def _perturbed(dc, scale=1e-3, seed=31):
    rng = np.random.default_rng(seed)
    m = minimal_vector(dc)
    noise = rng.uniform(-1, 1, m.size) + 1j * rng.uniform(-1, 1, m.size)
    return complex_from_vector(dc, m * (1 + scale * noise))


def test_self_convergence_from_perturbed_geometric():
    dc, start = _perturbed_figure_eight()
    result = solve_consistency(start)
    assert result.iterations <= 25
    assert result.residual < 1e-12
    assert check_faces(result.decorated).passed(1e-12)
    assert check_edges(result.decorated).passed(1e-12)
    # the variety is positive-dimensional: the solution is a nearby point
    # of it, close to (but in general distinct from) the geometric one
    dist = float(np.max(np.abs(minimal_vector(result.decorated)
                               - minimal_vector(dc))))
    assert dist < 1e-2


def test_solutions_found_are_generically_non_geometric():
    dc = figure_eight_complex()
    geo = minimal_vector(dc)
    distances = []
    for seed in (1, 2, 3):
        _, start = _perturbed_figure_eight(seed=seed)
        result = solve_consistency(start)
        distances.append(
            float(np.max(np.abs(minimal_vector(result.decorated) - geo))))
    assert max(distances) > 1e-6


def test_volume_duality_at_solved_point():
    _, start = _perturbed_figure_eight(seed=11)
    result = solve_consistency(start)
    dc = result.decorated
    dual = dualize(dc)
    # duality preserves consistency even away from the geometric point,
    # where the face coordinates are no longer 1
    assert check_faces(dual).passed(1e-10)
    assert check_edges(dual).passed(1e-10)
    assert abs(volume_complex(dc) - volume_complex(dual)) < 1e-9
    assert canonicalize_six(duality_defect(dc)).is_zero()


def test_exact_consistent_input_returned_unchanged():
    tdc = twisted_double_complex()
    result = solve_consistency(tdc)
    assert result.iterations == 0
    assert result.decorated is tdc


def test_exact_inconsistent_input_unsupported():
    from flagdual import GaussRational
    c = complete_from_minimal(tuple(GaussRational(v) for v in (2, 3, 5, 7)))
    dc = DecoratedComplex(single_tetra_triangulation(), Decoration([c]))
    with pytest.raises(Unsupported):
        solve_consistency(dc)


def test_unsatisfiable_single_tetrahedron_fails():
    c = complete_from_minimal((0.5 + 0j,) * 4)
    dc = DecoratedComplex(single_tetra_triangulation(), Decoration([c]))
    with pytest.raises((SolverDiverged, LeftDomain)):
        solve_consistency(dc)


def test_already_consistent_float_zero_iterations():
    dc = figure_eight_complex()
    result = solve_consistency(dc)
    assert result.iterations == 0
    assert result.decorated is dc
    empty = DecoratedComplex(IdealTriangulation(0, []), Decoration([]))
    result = solve_consistency(empty)
    assert (result.iterations, result.residual) == (0, 0.0)
    assert result.decorated is empty


@pytest.mark.parametrize("name, value, error, message", [
    ("MAX_ITER", 1, SolverDiverged, "no convergence within 1 iterations"),
    ("DOMAIN_RADIUS", 1e300, LeftDomain,
     "Newton step driven into the disks around 0 or 1"),
])
def test_solver_failure_raises_and_exits_3(name, value, error, message,
                                           monkeypatch, tmp_path, capsys):
    # one iteration does not reach 1e-12 from 1e-3 away; with a domain
    # radius of 1e300 every trial step is refused
    _, start = _perturbed_figure_eight()
    monkeypatch.setattr(solver, name, value)
    with pytest.raises(error) as info:
        solve_consistency(start)
    assert str(info.value).startswith(f"{message} (residual ")
    if error is SolverDiverged:
        assert info.value.residual > 1e-12
    write_complex(tmp_path / "start.json", start)
    assert main(["solve", str(tmp_path / "start.json")]) == 3
    assert capsys.readouterr() == ("", f"error: {info.value}\n")


def test_jacobian_matches_central_differences():
    dc, start = _perturbed_figure_eight(seed=13)
    system = ConsistencySystem(dc.triangulation)
    m = minimal_vector(start)
    _, analytic = system.residuals_and_jacobian(m)
    numeric = finite_difference_jacobian(system, m, h=1e-6)
    scale = np.max(np.abs(analytic.toarray()))
    assert np.max(np.abs(analytic.toarray() - numeric)) <= 1e-5 * scale


def test_jacobian_rank_deficiency_at_geometric_point():
    dc = figure_eight_complex()
    system = ConsistencySystem(dc.triangulation)
    r, jac = system.residuals_and_jacobian(minimal_vector(dc))
    assert float(np.max(np.abs(r))) < 1e-12
    sv = np.linalg.svd(jac.toarray(), compute_uv=False)
    assert sv[5] > 1e-6      # rank at least 6
    assert sv[6] < 1e-10     # nullity 2: the variety has positive dimension


def _as_float(dc):
    coords = [complete_from_minimal(tuple(complex(z) for z in c.minimal()))
              for c in dc.coords]
    return DecoratedComplex(dc.triangulation, Decoration(coords))


def test_solver_on_perturbed_double_complex():
    # a second gluing pattern: 16 residuals in 8 unknowns, closed complex
    base = _as_float(twisted_double_complex())
    rng = np.random.default_rng(23)
    m = minimal_vector(base)
    noise = rng.uniform(-1, 1, m.size) + 1j * rng.uniform(-1, 1, m.size)
    start = complex_from_vector(base, m * (1 + 1e-3 * noise))
    result = solve_consistency(start)
    assert result.residual < 1e-12
    assert check_faces(result.decorated).passed(1e-12)
    assert check_edges(result.decorated).passed(1e-12)
    assert canonicalize_six(duality_defect(result.decorated)).is_zero()


def test_solver_tolerance_parameter():
    _, start = _perturbed_figure_eight(seed=17)
    loose = solve_consistency(start, tol=1e-6)
    tight = solve_consistency(start, tol=1e-13)
    assert loose.residual < 1e-6
    assert tight.residual < 1e-13
    assert loose.iterations <= tight.iterations


def test_history_records_every_dense_iteration():
    _, start = _perturbed_figure_eight(seed=19)
    result = solve_consistency(start)
    history = result.history
    assert len(history) == result.iterations >= 1
    assert history[-1].max_residual == result.residual
    for rec in history:
        assert rec.rank == 6
        assert rec.inner_iterations is None and rec.inner_rtol is None
        assert 0.0 < rec.alpha <= 1.0
        assert rec.alpha == 0.5 ** rec.halvings
        assert rec.step_norm > 0.0
        assert rec.max_residual ** 2 <= rec.residual_sq <= \
            8 * rec.max_residual ** 2
    assert solve_consistency(figure_eight_complex()).history == []


def test_matrix_free_solve_on_cover():
    lift = lifted_cover(figure_eight_complex(), 32, (3, 5, 7, 11))
    assert 4 * lift.triangulation.n > DENSE_MAX_UNKNOWNS
    start = _perturbed(lift)
    result = solve_consistency(start)
    assert result.residual < 1e-12
    for rec in result.history:
        assert rec.rank is None and rec.inner_iterations > 0
        # each step is solved to the forcing term of the residual it
        # starts from, between the floor and the cap
        assert CGLS_RTOL <= rec.inner_rtol <= CGLS_RTOL_MAX
    system = ConsistencySystem(lift.triangulation)
    starts = [float(np.max(np.abs(system.residuals(minimal_vector(start)))))]
    starts += [rec.max_residual for rec in result.history[:-1]]
    assert [rec.inner_rtol for rec in result.history] == \
        [forcing_term(x) for x in starts]
    assert result.history[0].inner_rtol > CGLS_RTOL
    dc = result.decorated
    dual = dualize(dc)
    for side in (dc, dual):
        assert check_faces(side).passed(1e-10)
        assert check_edges(side).passed(1e-10)
    assert abs(volume_complex(dc) - volume_complex(dual)) < 1e-9
    assert canonicalize_six(duality_defect(dc)).is_zero()
    gap = np.max(np.abs(minimal_vector(dc) - minimal_vector(lift)))
    assert gap > 1e-6  # a nearby point of the variety, not the lift


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
def test_matrix_free_step_is_the_minimum_norm_step(n):
    # the Jacobian at the lifted point is rank-deficient; the residual of
    # a perturbed point is in general not in its range
    lift = lifted_cover(figure_eight_complex(), n, (1, 0, 0, 0))
    system = ConsistencySystem(lift.triangulation)
    assert (system.n_unknowns <= DENSE_MAX_UNKNOWNS) == (n <= 8)
    _, jac = system.residuals_and_jacobian(minimal_vector(lift))
    r = system.residuals(minimal_vector(_perturbed(lift, seed=n)))
    dense = jac.toarray()
    assert np.linalg.matrix_rank(dense) < min(dense.shape)
    reference = np.linalg.lstsq(dense, -r, rcond=None)[0]
    step, inner = cgls(jac, -r, CGLS_RTOL)
    assert 0 < inner
    assert np.linalg.norm(step - reference) <= \
        1e-8 * np.linalg.norm(reference)
    # a step truncated at a loose tolerance, as the forcing term sets it
    # far from the variety, still lies in the row space of J (orthogonal
    # to its null space) and is no longer than the minimum-norm step
    loose, loose_inner = cgls(jac, -r, CGLS_RTOL_MAX)
    assert 0 < loose_inner < inner
    _, sv, vh = np.linalg.svd(dense)
    null = vh[np.sum(sv > 1e-10 * sv[0]):]
    assert null.shape[0] > 0
    assert np.linalg.norm(null @ loose) <= 1e-10 * np.linalg.norm(loose)
    assert np.linalg.norm(loose) <= np.linalg.norm(reference)


def test_inexact_steps_cut_the_inner_work(monkeypatch):
    # a deterministic work gate: against the same solver with every step
    # solved to the floor CGLS_RTOL (forcing constant 0), the forcing
    # term takes no more Gauss-Newton steps and at most 0.6x the CGLS
    # iterations on a perturbed 64-fold (1,0,0,0) cover
    start = _perturbed(lifted_cover(figure_eight_complex(), 64,
                                    (1, 0, 0, 0)))
    inexact = solve_consistency(start)
    monkeypatch.setattr(solver, "CGLS_FORCING", 0.0)
    exact = solve_consistency(start)
    assert {rec.inner_rtol for rec in exact.history} == {CGLS_RTOL}

    def work(result):
        return sum(rec.inner_iterations for rec in result.history)

    assert inexact.iterations <= exact.iterations
    assert work(inexact) <= 0.6 * work(exact)
    assert inexact.residual < 1e-12
    gap = np.max(np.abs(minimal_vector(inexact.decorated)
                        - minimal_vector(exact.decorated)))
    assert gap < 1e-6  # against a perturbation of 1e-3


@pytest.mark.parametrize("tri", [
    figure_eight_triangulation(), twisted_double_triangulation(),
    single_tetra_triangulation(),
    *(cyclic_cover(64, v) for v in ((1, 0, 0, 0), (1, 1, 0, 0),
                                    (3, 5, 7, 11))),
    reversed_face_order_cover()],
    ids=["figure8", "double", "single", "cover1000", "cover1100",
         "cover357_11", "reversed"])
def test_chart_signs_of_every_row_multiply_to_one(tri):
    # ConsistencySystem drops the CHART_FACTORS signs: a face row holds
    # two face terms (sign -1 each), an edge row only edges (sign +1)
    for row in tri.equations:
        assert np.prod([CHART_FACTORS[vertices][0]
                        for _, vertices in row]) == 1


def _factors(row):
    """(column, shape, power) of each factor of one gluing-equation row."""
    return [(4 * tet + idx, shape, power) for tet, vertices in row
            for idx, shape, power in CHART_FACTORS[vertices][1]]


def test_jacobian_on_cover_matches_central_differences():
    tri = reversed_face_order_cover()
    regular = complete_from_minimal((GEOMETRIC_SHAPE,) * 4)
    lift = DecoratedComplex(tri, Decoration([regular] * tri.n))
    system = ConsistencySystem(tri)
    assert np.max(np.abs(system.residuals(minimal_vector(lift)))) < 1e-12
    rows = [_factors(row) for row in system.products]
    assert {tag for fs in rows for _, tag, _ in fs} == {ID, C1, C2}
    assert {sign for fs in rows for _, _, sign in fs} == {1, -1}
    assert any(len({col for col, _, _ in fs}) < len(fs) for fs in rows)
    m = minimal_vector(_perturbed(lift, seed=5))
    _, jac = system.residuals_and_jacobian(m)
    analytic = jac.toarray()
    numeric = finite_difference_jacobian(system, m, h=1e-6)
    scale = np.max(np.abs(analytic))
    assert np.max(np.abs(analytic - numeric)) <= 1e-5 * scale
    rng = np.random.default_rng(3)
    x = rng.standard_normal(analytic.shape[1]) * (1 + 1j)
    y = rng.standard_normal(analytic.shape[0]) * (1 - 2j)
    assert np.allclose(jac.matvec(x), analytic @ x, rtol=1e-13, atol=0)
    assert np.allclose(jac.rmatvec(y), analytic.conj().T @ y,
                       rtol=1e-13, atol=0)


def test_solving_a_cover_imports_no_scipy():
    code = """if True:
        import sys
        import numpy as np
        from flagdual import bundled, solve_consistency
        from flagdual.solver import complex_from_vector, minimal_vector
        lift = bundled.lifted_cover(bundled.figure_eight_complex(), 32,
                                    (3, 5, 7, 11))
        m = minimal_vector(lift)
        m = m * (1 + 1e-3 * np.sin(np.arange(m.size)))
        result = solve_consistency(complex_from_vector(lift, m))
        assert result.residual < 1e-12 and result.history[0].rank is None
        print("scipy" in sys.modules)
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("k, voltages", enumerate(
    ((1, 0, 0, 0), (1, 1, 0, 0), (3, 5, 7, 11))))
def test_cover_defect_cancels_with_a_margin(k, voltages):
    """The seed-7 cover_pipeline covers, solved at tol 1e-12: the
    canonical duality defect is zero, and not by a near thing.  Each
    orbit representative of the defect's terms meets its partner well
    inside the merge distance MERGE_TOL (1 + |a| + |b|), and no third
    representative and no 1/2 (the exceptional orbit) is anywhere near,
    so the zero does not hang on rounding.  A solve that lands only just
    below its tolerance leaves pairs near the merge distance."""
    lift = lifted_cover(figure_eight_complex(), 64, voltages)
    m = minimal_vector(lift)
    # the perturbation of perfbench's workloads.perturbed
    rng = np.random.default_rng([7, k])
    m = m + 1e-3 * (rng.standard_normal(m.size)
                    + 1j * rng.standard_normal(m.size))
    solved = solve_consistency(complex_from_vector(lift, m),
                               tol=1e-12).decorated
    raw = duality_defect(solved)
    assert canonicalize_six(raw).is_zero()
    reps = np.array([complex(_orbit_rep(six_orbit(g))[0])
                     for g, _ in raw.terms])
    size = np.abs(reps)
    # distances in merge distances, nearest first
    ratio = np.abs(reps[:, None] - reps) \
        / (MERGE_TOL * (1 + size[:, None] + size))
    np.fill_diagonal(ratio, np.inf)
    ratio.sort(axis=1)
    assert ratio[:, 0].max() <= 0.1
    assert ratio[:, 1].min() > 100
    assert np.min(np.abs(reps - 0.5) / (MERGE_TOL * (1.5 + size))) > 100
