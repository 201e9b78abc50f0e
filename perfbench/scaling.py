"""Reference figures measured once, for the README: cover_pipeline steps
at several cover sizes, and the import-time breakdown.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/scaling.py [N ...]

N is the number of fold (2N tetrahedra); the default is 32 64 128 256.
Each size solves one cover per voltage vector of cover_pipeline from a
1e-3 perturbation (seed 0) and prints the median seconds of each step.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

from flagdual import (canonicalize_six, dualize, duality_defect,
                      solve_consistency, volume_complex)
from run import import_times_ms
from workloads import CoverPipeline, cyclic_cover, lifted_regular, perturbed


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def cover_row(n):
    steps = {"solve": [], "vol": [], "dualize": [], "vol*": [],
             "defect+canon": []}
    for k, voltages in enumerate(CoverPipeline.VOLTAGES):
        lift = lifted_regular(cyclic_cover(n, voltages))
        start = perturbed(lift, np.random.default_rng([0, 0, k]))
        res, t = timed(solve_consistency, start, 1e-12)
        steps["solve"].append(t)
        steps["vol"].append(timed(volume_complex, res.decorated)[1])
        dual, t = timed(dualize, res.decorated)
        steps["dualize"].append(t)
        steps["vol*"].append(timed(volume_complex, dual)[1])
        steps["defect+canon"].append(timed(
            lambda dc: canonicalize_six(duality_defect(dc)),
            res.decorated)[1])
    cells = "  ".join(f"{k} {statistics.median(v):7.3f}"
                      for k, v in steps.items())
    print(f"{2 * n:5d} tetrahedra  {cells}", flush=True)


def import_breakdown():
    cumulative = import_times_ms()
    for name in ("flagdual", "sympy", "numpy", "flagdual.gaussian"):
        print(f"import {name:18s} {cumulative[name]:8.1f} ms cumulative")


if __name__ == "__main__":
    for n in [int(a) for a in sys.argv[1:]] or [32, 64, 128, 256]:
        cover_row(n)
    import_breakdown()
