"""Inputs, operations and output checks of the three benchmark workloads.

Each workload builds its inputs from the seed in its constructor and
hands out one round of operations through ``ops()``.  Every round
holds the same operations on the same inputs in the same order, so
every run attempts whole rounds, and the operation at one position is
the same work in every round: the benchmark times each position once
per round and keeps its best time of the run.  An ``Op`` has a
``run(tracer)`` that does the timed work and returns what the program
produced, and a ``check(result)`` that returns a list of errors, empty
when the output has every property it must have.  Checks use independent routes or
identities, never stored copies of earlier output.

``scale`` is "full" for measured runs and "tiny" for the self-test and
the traced sweep; only input sizes differ between the two.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from flagdual import (GaussRational, beta_complex, bundled, canonicalize_six,
                      check_edges, check_faces, complete_from_minimal,
                      delta_exact, dual_coords_closed, dual_coords_matrix,
                      dualize, duality_defect, edge_coords, fileio,
                      reconstruct, solve_consistency, very_generic,
                      volume_complex)
from flagdual.complexes import (DecoratedComplex, Decoration, FacePairing,
                                IdealTriangulation)
from flagdual.tetra import EVEN_COMPLETION

FIG8_VOLUME = 2.029883212819307
HERE = Path(__file__).resolve().parent
TRACED_CLI = HERE / "tracing.py"


@dataclass
class Op:
    label: str
    run: Callable
    check: Callable


class Workload:
    def close(self):
        """Remove files the workload wrote."""


# -- exact_duality --------------------------------------------------------------

def _rand_gauss_rational(rng, span=9):
    """Random Gaussian rational outside {0, 1}; real with probability 0.4."""
    while True:
        re = Fraction(rng.randint(-span, span), rng.randint(1, span))
        im = Fraction(0) if rng.random() < 0.4 else \
            Fraction(rng.randint(-span, span), rng.randint(1, span))
        q = GaussRational(re, im)
        if q != 0 and q != 1:
            return q


def rand_exact_minimal(rng):
    """Minimal coordinates of a random very generic exact tetrahedron."""
    while True:
        m = tuple(_rand_gauss_rational(rng) for _ in range(4))
        if very_generic(complete_from_minimal(m)):
            return m


class ExactDuality(Workload):
    """One operation verifies one random very generic exact tetrahedron.

    Set-up draws a pool of tetrahedra from the seed and every round runs
    the whole pool.  Op times depend on the tetrahedron, so the pool is
    large enough that its mean cost varies little from seed to seed.
    """

    def __init__(self, seed, scale):
        rng = random.Random(seed)
        size = 100 if scale == "full" else 2
        self.pool = [rand_exact_minimal(rng) for _ in range(size)]

    def ops(self):
        return [self._op(m) for m in self.pool]

    @staticmethod
    def _op(m):
        def run(tracer=None):
            t = reconstruct(m)
            c = edge_coords(t)
            closed = dual_coords_closed(c)
            matrix = dual_coords_matrix(t)
            twice = dual_coords_closed(closed)
            wedge = delta_exact(beta_complex(bundled.twisted_double_complex(m)))
            return c, closed, matrix, twice, wedge

        def check(result):
            c, closed, matrix, twice, wedge = result
            errors = []
            if tuple(c.minimal()) != m:
                errors.append("measured coordinates do not restrict to m")
            if not closed.same_as(matrix):
                errors.append("closed formula != matrix route")
            if not twice.same_as(c):
                errors.append("dual of the dual != original")
            for (i, j), (k, l) in EVEN_COMPLETION.items():
                if closed.edge_value(i, j) * closed.edge_value(j, i) != \
                        c.edge_value(k, l) * c.edge_value(l, k):
                    errors.append(f"z*_{i}{j} z*_{j}{i} != z_{k}{l} z_{l}{k}")
            if not wedge.is_zero():
                errors.append("delta(beta) != 0 on the twisted double")
            return errors

        return Op("exact", run, check)


def corrupt_exact(result):
    c, closed, matrix, twice, wedge = result
    return c, c, matrix, twice, wedge


# -- cover_pipeline -------------------------------------------------------------

def cyclic_cover(n, voltages) -> IdealTriangulation:
    """n-fold cyclic voltage cover of the figure-eight triangulation.

    Copy s of base tetrahedron t is tetrahedron 2s + t; copy s of face
    pairing p glues copy s of its first side to copy s + voltages[p]
    (mod n) of its second side.
    """
    base = bundled.figure_eight_triangulation()
    pairings = [FacePairing(2 * s + p.tet_a, p.face_a,
                            2 * ((s + v) % n) + p.tet_b, p.face_b)
                for p, v in zip(base.pairings, voltages)
                for s in range(n)]
    return IdealTriangulation(2 * n, pairings)


def lifted_regular(triangulation) -> DecoratedComplex:
    """Every tetrahedron carries the geometric figure-eight decoration."""
    c = complete_from_minimal((bundled.GEOMETRIC_SHAPE,) * 4)
    return DecoratedComplex(triangulation,
                            Decoration([c] * triangulation.n))


def minimal_array(dc) -> np.ndarray:
    return np.array([complex(z) for c in dc.coords for z in c.minimal()])


def perturbed(dc, rng, amplitude=1e-3) -> DecoratedComplex:
    m = minimal_array(dc)
    m = m + amplitude * (rng.standard_normal(len(m))
                         + 1j * rng.standard_normal(len(m)))
    coords = [complete_from_minimal(tuple(m[4 * t:4 * t + 4]))
              for t in range(dc.triangulation.n)]
    return DecoratedComplex(dc.triangulation, Decoration(coords))


class CoverPipeline(Workload):
    """One operation solves one perturbed lifted-regular cover and
    computes its invariants.  Set-up perturbs each voltage's lift once,
    from the seed.

    The voltage vectors give different edge-class structures (n + 1
    classes with one long class; two classes; a few long classes), so
    the solver's row count differs between them.  Each keeps the solved
    tetrahedra distinct: with voltages (1, 0, 1, 0) the solver lands on a
    point where every tetrahedron has the same coordinates, and the
    formal sums collapse to a handful of generators.
    """

    VOLTAGES = ((1, 0, 0, 0), (1, 1, 0, 0), (3, 5, 7, 11))

    def __init__(self, seed, scale):
        self.n = 64 if scale == "full" else 4
        self.lifts = [lifted_regular(cyclic_cover(self.n, v))
                      for v in self.VOLTAGES]
        self.starts = [perturbed(lift, np.random.default_rng([seed, k]))
                       for k, lift in enumerate(self.lifts)]
        self.lift_checked = [False] * len(self.lifts)

    def ops(self):
        return [self._op(k) for k in range(len(self.lifts))]

    def _op(self, k):
        lift, start = self.lifts[k], self.starts[k]

        def run(tracer=None):
            solved = solve_consistency(start, tol=1e-12).decorated
            vol = volume_complex(solved)
            dual = dualize(solved)
            vol_dual = volume_complex(dual)
            canon = canonicalize_six(duality_defect(solved))
            return solved, dual, vol, vol_dual, canon

        def check(result):
            solved, dual, vol, vol_dual, canon = result
            errors = []
            if not self.lift_checked[k]:
                lift_vol = volume_complex(lift)
                if abs(lift_vol - self.n * FIG8_VOLUME) > 1e-9 * self.n:
                    errors.append(f"lifted regular volume {lift_vol}")
                self.lift_checked[k] = True
            for name, dc in (("solution", solved), ("dual", dual)):
                if not (check_faces(dc).passed(1e-10)
                        and check_edges(dc).passed(1e-10)):
                    errors.append(f"{name} fails face/edge checks at 1e-10")
            if abs(vol - vol_dual) > 1e-9:
                errors.append(f"|Vol - Vol*| = {abs(vol - vol_dual):.3e}")
            if not canon.is_zero():
                errors.append("canonicalized duality defect is not 0")
            back = dualize(dual)
            if not all(a.same_as(b, 1e-12)
                       for a, b in zip(back.coords, solved.coords)):
                errors.append("dualizing twice moved the decoration")
            gap = np.max(np.abs(minimal_array(solved) - minimal_array(lift)))
            if gap <= 1e-6:
                errors.append("solution is the geometric point")
            return errors

        return Op("cover", run, check)


def corrupt_cover(result):
    solved, dual, vol, vol_dual, canon = result
    return solved, dual, vol, vol_dual + 1e-6, canon


# -- cli_verbs ----------------------------------------------------------------

class CliVerbs(Workload):
    """One operation is one fresh-interpreter CLI invocation.

    Input files are written here, during set-up; ``close`` removes them.
    The cover file is the lifted regular 64-fold cover (128 tetrahedra);
    the solve input is that cover perturbed by 1e-3.
    """

    def __init__(self, seed, scale, workdir):
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True)
        self.n = 64 if scale == "full" else 4
        d = self.dir
        fileio.write_complex(d / "fig8.json", bundled.figure_eight_complex())
        fileio.write_complex(d / "cr.json", bundled.cr_complex(),
                             keep_flags=True)
        fileio.write_complex(d / "double.json",
                             bundled.twisted_double_complex())
        self.cover = lifted_regular(cyclic_cover(self.n, (1, 0, 0, 0)))
        fileio.write_complex(d / "cover.json", self.cover)
        fileio.write_complex(
            d / "start.json",
            perturbed(self.cover, np.random.default_rng(seed)))
        self.fig8 = fileio.read_complex(d / "fig8.json")
        self.cycle = [
            ("example", ["figure8", "-o", "ex.json"], self._example),
            ("coords", ["cr.json", "--json"], self._coords),
            ("conjugate", ["cr.json", "-o", "cr_conj.json"], _no_check),
            ("dualize", ["cr.json", "-o", "cr_dual.json"], self._dual_cr),
            ("dualize", ["fig8.json", "-o", "fig8_dual.json"],
             self._dual_fig8),
            ("volume", ["fig8.json", "--json"], self._volume_fig8),
            ("beta", ["double.json", "--json"], self._beta_double),
            ("defect", ["fig8.json", "--json"], _defect_zero),
            ("check", ["cover.json"], _no_check),
            ("volume", ["cover.json", "--json"], self._volume_cover),
            ("beta", ["cover.json", "--json"], self._beta_cover),
            ("defect", ["cover.json", "--json"], _defect_zero),
            ("dualize", ["cover.json", "-o", "cover_dual.json"],
             self._dual_cover),
            ("solve", ["start.json", "-o", "solved.json"], _no_check),
            ("check", ["solved.json"], _no_check),
        ]

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def ops(self):
        return [self._op(verb, args, extra) for verb, args, extra in self.cycle]

    def _op(self, verb, args, extra):
        def run(tracer=None):
            if tracer is None:
                cmd = [sys.executable, "-m", "flagdual.cli", verb, *args]
            else:
                spans = self.dir / "spans.json"
                cmd = [sys.executable, str(TRACED_CLI), str(spans), verb, *args]
            proc = subprocess.run(cmd, cwd=self.dir, capture_output=True,
                                  text=True, timeout=120)
            if tracer is not None and spans.exists():
                tracer.merge_file(spans)
                spans.unlink()
            return proc

        def check(proc):
            if proc.returncode != 0:
                return [f"{verb} {' '.join(args)}: exit {proc.returncode}: "
                        f"{proc.stderr.strip()[-200:]}"]
            return extra(proc)

        return Op(verb, run, check)

    def _load(self, name):
        return fileio.read_complex(self.dir / name)

    def _same(self, a, b, what):
        ok = a.triangulation.n == b.triangulation.n and all(
            x.same_as(y, 1e-12) for x, y in zip(a.coords, b.coords))
        return [] if ok else [what]

    def _example(self, proc):
        ex = self._load("ex.json")
        return self._same(ex, self.fig8, "example figure8 != bundled figure8")

    def _coords(self, proc):
        data = json.loads(proc.stdout)["complex"]
        return [] if data["decoration"]["mode"] == "coords" \
            else ["coords did not measure coordinates"]

    def _dual_cr(self, proc):
        return self._same(self._load("cr_dual.json"),
                          self._load("cr_conj.json"),
                          "dual of the CR complex != its conjugate")

    def _dual_fig8(self, proc):
        return self._same(self._load("fig8_dual.json"), self.fig8,
                          "dual of the figure-eight != itself")

    def _dual_cover(self, proc):
        return self._same(self._load("cover_dual.json"), self.cover,
                          "dual of the regular cover != itself")

    def _volume_fig8(self, proc):
        vol = json.loads(proc.stdout)["volume"]
        return [] if abs(vol - FIG8_VOLUME) <= 1e-9 \
            else [f"figure-eight volume {vol}"]

    def _volume_cover(self, proc):
        vol = json.loads(proc.stdout)["volume"]
        return [] if abs(vol - self.n * FIG8_VOLUME) <= 1e-9 * self.n \
            else [f"cover volume {vol}"]

    def _beta_cover(self, proc):
        out = json.loads(proc.stdout)
        return [] if abs(out["D"] / 4 - self.n * FIG8_VOLUME) \
            <= 1e-9 * self.n else [f"cover D(beta)/4 = {out['D'] / 4}"]

    def _beta_double(self, proc):
        # the second tetrahedron is the first relabelled by an odd
        # permutation, so the two volumes cancel
        d = json.loads(proc.stdout)["D"]
        return [] if abs(d) <= 1e-12 else [f"D(beta) of the double = {d}"]


def _no_check(proc):
    return []


def _defect_zero(proc):
    canon = json.loads(proc.stdout)["canonicalized"]
    return [] if canon == [] else ["canonicalized duality defect is not 0"]


def corrupt_cli(proc):
    return subprocess.CompletedProcess(proc.args, 1, proc.stdout, proc.stderr)


# -- registry -------------------------------------------------------------------

WORKLOADS = ("exact_duality", "cover_pipeline", "cli_verbs")
CORRUPT = {"exact_duality": corrupt_exact, "cover_pipeline": corrupt_cover,
           "cli_verbs": corrupt_cli}


def build(name, seed, scale, workdir):
    """The workload object; ``workdir`` holds the CLI input files."""
    if name == "exact_duality":
        return ExactDuality(seed, scale)
    if name == "cover_pipeline":
        return CoverPipeline(seed, scale)
    return CliVerbs(seed, scale, Path(workdir) / f"cli-{seed}-{os.getpid()}")
