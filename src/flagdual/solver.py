"""Damped Gauss-Newton solver for the consistency equations.

Unknowns are the 4N minimal coordinates (z12, z21, z34, z43) per
tetrahedron, as one complex vector.  Every coordinate is a signed
product of shapes m, 1/(1-m), 1-1/m of single minimal coordinates, as
the chart table tetra.CHART_FACTORS lists it, so each residual is a
product of factors, each factor depending on exactly one unknown.  The
residuals are the rows of the triangulation's gluing equations
(IdealTriangulation.equations, the same rows check_faces and
check_edges evaluate); ConsistencySystem looks up the factors of each
row term in CHART_FACTORS and stores them once as numpy arrays, and
residuals and the sparse Jacobian (from logarithmic derivatives) are
evaluated from them in vectorized form.  Residuals are multiplicative
(product minus one), which avoids logarithm branch tracking entirely.

The linear step is the minimum-norm least-squares solution: the
consistency variety is typically positive-dimensional, so the Jacobian
is rank-deficient at solutions and the minimum-norm Gauss-Newton step
converges to a nearby point of the variety rather than to one
distinguished solution.  Up to DENSE_MAX_UNKNOWNS unknowns the step is
a dense SVD solve (``numpy.linalg.lstsq``); above that, a matrix-free
CGLS iteration on the sparse Jacobian, started from zero so that its
iterates stay in the row space of the Jacobian and converge to the same
minimum-norm step (Paige & Saunders, ACM TOMS 8, 1982).

The CGLS steps are inexact Gauss-Newton steps: each is solved only to
the relative tolerance eta = max(CGLS_RTOL, min(CGLS_RTOL_MAX,
CGLS_FORCING * max|r|)) for the residual r it starts from (forcing_term),
a forcing term in the sense of Dembo, Eisenstat & Steihaug (SIAM J.
Numer. Anal. 19, 1982) and Eisenstat & Walker (SIAM J. Sci. Comput. 17,
1996), so far from the variety a step costs few iterations, and
CGLS_RTOL is the floor reached as the residual falls.  A truncated step
still lies in the row space of the Jacobian and is no longer than the
minimum-norm step (CGLS iterate norms grow monotonically), so the solver
still moves to a nearby point of the variety.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complexes import DecoratedComplex, Decoration, is_consistent
from .errors import LeftDomain, SolverDiverged, Unsupported
from .tetra import CHART_FACTORS, complete_from_minimal
from .tolerances import CGLS_FORCING, CGLS_RTOL, CGLS_RTOL_MAX

DOMAIN_RADIUS = 1e-8  # forbidden disks around 0 and 1
ARMIJO_C1 = 1e-4
MAX_ITER = 100  # Gauss-Newton iteration budget
MAX_HALVINGS = 40  # step halvings before the line search gives up

# Largest unknown count solved by the dense SVD step; measured crossover
# against CGLS on perturbed cyclic covers (see CHANGES.md).
DENSE_MAX_UNKNOWNS = 64
# CGLS iteration budget per unknown (see cgls)
CGLS_MAX_ITER_FACTOR = 4

class CooJacobian:
    """Sparse complex matrix as COO triplets: one entry per (row, column),
    sorted by row and then column, with an entry in every row and every
    column.  Only data changes from step to step; the rest of the
    sparsity is computed once (ConsistencySystem._sparsity) and passed in
    as (row_start, by_col, col_start, rows_by_col): the first entry of
    each row, the stable column order of the entries, the first entry of
    each column in that order, and the rows in that order."""

    def __init__(self, shape, rows, cols, data, sparsity):
        self.shape = shape
        self.rows = rows
        self.cols = cols
        self.data = data
        self._row_start, by_col, self._col_start, self._rows_by_col = sparsity
        self._conj_by_col = np.conjugate(data[by_col])

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=complex)
        out[self.rows, self.cols] = self.data
        return out

    def matvec(self, x):
        """J x."""
        return np.add.reduceat(self.data * x[self.cols], self._row_start)

    def rmatvec(self, y):
        """J^H y."""
        return np.add.reduceat(self._conj_by_col * y[self._rows_by_col],
                               self._col_start)


class ConsistencySystem:
    """Residuals and analytic Jacobian of the face and edge equations."""

    def __init__(self, triangulation):
        self.n_unknowns = n = 4 * triangulation.n
        # one residual per row of the triangulation's gluing equations
        self.products = triangulation.equations
        # the CHART_FACTORS signs of a row multiply to +1 (a face row
        # holds two face terms, an edge row none), so they are dropped
        table = []
        for row, terms in enumerate(self.products):
            for tet, vertices in terms:
                for idx, shape, power in CHART_FACTORS[vertices][1]:
                    table += (row, 4 * tet + idx, shape, power)

        # the factor table, sorted by row and then column; every row has
        # at least one factor (a face has six, an edge class a member)
        table = np.array(table, dtype=np.intp).reshape(-1, 4)
        row, col, shape, power = table[np.lexsort((table[:, 1],
                                                   table[:, 0]))].T
        self._row_start = np.flatnonzero(np.diff(row, prepend=-1))
        # index into the shape table [m, 1/(1-m), 1-1/m] of all unknowns
        # (the shape order of tetra.ID, C1, C2), shifted by 3n for a
        # factor entering as a reciprocal
        self._shape_index = shape * n + col
        self._value_index = self._shape_index + 3 * n * (power < 0)
        self._power = power.astype(float)
        # Jacobian entries: repeated (row, column) factors are summed.
        # Every column has an entry: each minimal coordinate's three
        # shapes lie on edges, and every edge is in an edge class.
        self._entry_start = np.flatnonzero(
            np.diff(row, prepend=-1) | np.diff(col, prepend=-1))
        self._entry_row = row[self._entry_start]
        self._entry_col = col[self._entry_start]
        # the Jacobian's sparsity, the same at every step (see CooJacobian)
        by_col = np.argsort(self._entry_col, kind="stable")
        self._sparsity = (
            np.flatnonzero(np.diff(self._entry_row, prepend=-1)), by_col,
            np.flatnonzero(np.diff(self._entry_col[by_col], prepend=-1)),
            self._entry_row[by_col])

    def residuals_and_jacobian(self, m, want_jacobian=True):
        m = np.asarray(m, dtype=complex)
        n = self.n_unknowns
        inv = 1.0 / m
        shapes = np.concatenate((m, 1.0 / (1.0 - m), 1.0 - inv))
        values = np.concatenate((shapes, 1.0 / shapes))[self._value_index]
        prod = np.multiply.reduceat(values, self._row_start)
        if not want_jacobian:
            return prod - 1.0, None
        # logarithmic derivatives of the shapes: 1/m, 1/(1-m), 1/(m(m-1))
        dlog = np.concatenate((inv, shapes[n:2 * n], inv / (m - 1.0)))
        terms = self._power * dlog[self._shape_index]
        data = np.add.reduceat(terms, self._entry_start) \
            * prod[self._entry_row]
        return prod - 1.0, CooJacobian(
            (len(self.products), n), self._entry_row, self._entry_col, data,
            self._sparsity)

    def residuals(self, m):
        return self.residuals_and_jacobian(m, want_jacobian=False)[0]


def cgls(jac, b, rtol):
    """Minimum-norm least-squares solution of ``jac x = b`` by CGLS.

    Started from x = 0, every iterate lies in the row space of ``jac``,
    so on a rank-deficient ``jac`` the limit is the minimum-norm
    solution, and the iterate norms grow monotonically towards its
    norm.  Only ``jac.matvec`` and ``jac.rmatvec`` are used.  Stops when
    |J^H s| <= rtol |J^H b| for the current residual s = b - J x, or
    after CGLS_MAX_ITER_FACTOR iterations per unknown.  Returns
    (x, iterations).
    """
    max_iter = CGLS_MAX_ITER_FACTOR * jac.shape[1]
    x = np.zeros(jac.shape[1], dtype=complex)
    s = np.array(b, dtype=complex)
    p = z = jac.rmatvec(s)
    gamma = float(np.vdot(z, z).real)
    stop = gamma * rtol ** 2
    it = 0
    while gamma > stop and it < max_iter:
        q = jac.matvec(p)
        qq = float(np.vdot(q, q).real)
        if qq == 0.0:
            break
        alpha = gamma / qq
        x += alpha * p
        s -= alpha * q
        z = jac.rmatvec(s)
        gamma, previous = float(np.vdot(z, z).real), gamma
        p = z + (gamma / previous) * p
        it += 1
    return x, it


def minimal_vector(dc: DecoratedComplex) -> np.ndarray:
    out = []
    for c in dc.coords:
        out.extend(complex(z) for z in c.minimal())
    return np.array(out, dtype=complex)


def complex_from_vector(dc: DecoratedComplex, m) -> DecoratedComplex:
    values = m.tolist()  # plain complex, exactly: settled once here
    coords = [complete_from_minimal(values[4 * t:4 * t + 4])
              for t in range(dc.triangulation.n)]
    return DecoratedComplex(dc.triangulation, Decoration(coords))


def _domain_distance(m) -> float:
    return min(float(np.abs(m).min()), float(np.abs(m - 1.0).min()))


@dataclass(frozen=True)
class IterationRecord:
    """One Gauss-Newton iteration.  ``max_residual`` and ``residual_sq``
    (max |r| and |r|^2) are taken after the accepted step; ``rank`` is
    set by the dense step, ``inner_iterations`` and ``inner_rtol`` (the
    CGLS tolerance, see forcing_term) by the matrix-free one."""

    max_residual: float
    residual_sq: float
    step_norm: float
    alpha: float
    halvings: int
    rank: int | None = None
    inner_iterations: int | None = None
    inner_rtol: float | None = None


@dataclass
class SolveResult:
    decorated: DecoratedComplex
    iterations: int
    residual: float
    history: list[IterationRecord] = field(default_factory=list)


def forcing_term(residual: float) -> float:
    """CGLS tolerance of a step from a point of max residual |r|:
    CGLS_FORCING |r|, clamped to [CGLS_RTOL, CGLS_RTOL_MAX]."""
    return max(CGLS_RTOL, min(CGLS_RTOL_MAX, CGLS_FORCING * residual))


def _gauss_newton_step(system: ConsistencySystem, jac, r):
    """Minimum-norm solution of jac @ step = -r, exact on the dense path
    and to the forcing term of max |r| on the matrix-free one: (step,
    rank, inner iterations, inner rtol), None for what the method used
    does not set."""
    if system.n_unknowns <= DENSE_MAX_UNKNOWNS:
        step, _, rank, _ = np.linalg.lstsq(jac.toarray(), -r, rcond=None)
        return step, int(rank), None, None
    rtol = forcing_term(float(np.max(np.abs(r))))
    step, inner = cgls(jac, -r, rtol)
    return step, None, inner, rtol


def solve_consistency(dc: DecoratedComplex, tol=1e-12) -> SolveResult:
    """Drive the decoration onto the consistency variety.

    Exact decorations are accepted only when already consistent (zero
    iterations, returned unchanged); otherwise the float backend is
    required.  Raises SolverDiverged when damping stalls or the
    iteration budget runs out, LeftDomain when an iterate approaches the
    forbidden values 0 and 1.
    """
    if dc.decoration.exact:
        if is_consistent(dc):
            return SolveResult(dc, 0, 0.0)
        raise Unsupported(
            "exact decoration is inconsistent; solving needs the float backend")

    system = ConsistencySystem(dc.triangulation)
    m = minimal_vector(dc)
    if system.n_unknowns == 0:
        return SolveResult(dc, 0, 0.0)

    r = system.residuals(m)
    residual = float(np.max(np.abs(r)))
    if residual < tol:
        return SolveResult(dc, 0, residual)

    history = []
    for it in range(1, MAX_ITER + 1):
        r, jac = system.residuals_and_jacobian(m)
        f0 = float(np.vdot(r, r).real)
        step, rank, inner, rtol = _gauss_newton_step(system, jac, r)
        alpha = 1.0
        for halvings in range(MAX_HALVINGS + 1):
            trial = m + alpha * step
            if _domain_distance(trial) > DOMAIN_RADIUS:
                r_new = system.residuals(trial)
                f_new = float(np.vdot(r_new, r_new).real)
                if f_new <= (1.0 - ARMIJO_C1 * alpha) * f0:
                    break
            alpha *= 0.5
        else:
            residual = float(np.max(np.abs(r)))
            if _domain_distance(m + step) <= DOMAIN_RADIUS:
                raise LeftDomain(
                    "Newton step driven into the disks around 0 or 1 "
                    f"(residual {residual:.3e})")
            raise SolverDiverged(
                f"no Armijo step accepted after {MAX_HALVINGS} halvings "
                f"(residual {residual:.3e})", residual)
        m = trial
        residual = float(np.max(np.abs(r_new)))
        history.append(IterationRecord(
            residual, f_new, float(np.linalg.norm(step)), alpha, halvings,
            rank, inner, rtol))
        if residual < tol:
            return SolveResult(complex_from_vector(dc, m), it, residual,
                               history)
    raise SolverDiverged(
        f"no convergence within {MAX_ITER} iterations "
        f"(residual {residual:.3e})", residual)

