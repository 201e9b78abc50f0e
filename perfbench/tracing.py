"""Spans and counters recorded around calls into flagdual's public functions.

``Tracer.installed(op)`` swaps each traced function for a wrapper, in
every ``flagdual`` module that holds a reference to it, and puts the
originals back on exit, so untraced code runs unmodified.  A span is
``[name, start, end, parent index, operation id]``; spans stay in memory
until ``dump``.  A layer's self time is its spans' duration minus the
time covered by their direct child spans.

Run as a script, this module is a traced CLI: it runs
``flagdual.cli.main`` on the remaining arguments with tracing installed
and writes the spans to the file named first, so that a parent can
merge what a CLI child did:

    python3 perfbench/tracing.py SPANS.json VERB ARGS...
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict

# (span name, module, attribute); several names may share a layer
FUNCTIONS = (
    ("tetra.reconstruct", "flagdual.tetra", "reconstruct"),
    ("tetra.edge_coords", "flagdual.tetra", "edge_coords"),
    ("tetra.complete", "flagdual.tetra", "complete_from_minimal"),
    ("flags.normalize", "flagdual.flags", "normalize_to_standard"),
    ("duality.closed", "flagdual.duality", "dual_coords_closed"),
    ("duality.matrix", "flagdual.duality", "dual_coords_matrix"),
    ("prebloch.delta", "flagdual.prebloch", "delta_exact"),
    ("prebloch.eval_D", "flagdual.prebloch", "eval_D"),
    ("prebloch.canonicalize", "flagdual.prebloch", "canonicalize_six"),
    ("gaussian.factor", "flagdual.gaussian", "factor_gaussian"),
    ("complexes.check", "flagdual.complexes", "check_faces"),
    ("complexes.check", "flagdual.complexes", "check_edges"),
    ("complexes.beta", "flagdual.complexes", "beta_complex"),
    ("complexes.dualize", "flagdual.complexes", "dualize"),
    ("complexes.defect", "flagdual.complexes", "duality_defect"),
    ("fileio.read", "flagdual.fileio", "read_complex"),
    ("fileio.write", "flagdual.fileio", "write_complex"),
)

GAUSS_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__truediv__", "__rtruediv__", "__neg__")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)  # (counter, op) -> total
        self.maxima = defaultdict(float)  # (gauge, op) -> largest value
        self.op = None
        self._stack = []
        self._patch_list = None

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _span(self, name, fn):
        def traced(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return traced

    def _count(self, name, fn):
        def counted(*args):
            self.counts[(name, self.op)] += 1
            return fn(*args)
        return counted

    def _solve(self, fn):
        def solve(*args, **kwargs):
            self._open("solver.solve")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            self.counts[("solver.iterations", self.op)] += result.iterations
            return result
        return solve

    def _assembly(self, fn):
        def residuals_and_jacobian(system, m, want_jacobian=True):
            if want_jacobian:
                mb = len(system.products) * system.n_unknowns * 16 / 1e6
                key = ("solver.jacobian_mb", self.op)
                self.maxima[key] = max(self.maxima[key], mb)
            else:
                self.counts[("solver.residual_evals", self.op)] += 1
            self._open("solver.assembly" if want_jacobian
                       else "solver.residual")
            try:
                return fn(system, m, want_jacobian)
            finally:
                self._close()
        return residuals_and_jacobian

    def _formal_sum(self, fn):
        def init(s, pairs=()):
            pairs = list(pairs)
            self.counts[("prebloch.formal_sum_terms", self.op)] += len(pairs)
            fn(s, pairs)
        return init

    def _patches(self):
        """(owner, attribute, wrapper) for everything traced."""
        import numpy
        from flagdual.complexes import IdealTriangulation
        from flagdual.prebloch import FormalSum
        from flagdual.scalars import GaussRational
        from flagdual.solver import ConsistencySystem

        wrappers = {}  # id(original function) -> wrapper
        for name, modname, attr in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrappers[id(original)] = self._span(name, original)
        solve = sys.modules["flagdual.solver"].solve_consistency
        wrappers[id(solve)] = self._solve(solve)
        # every module holding a reference, so that calls made through
        # `from flagdual.x import f` copies are traced too
        out = [(m, a, wrappers[id(v)])
               for m in list(sys.modules.values()) if m is not None
               for a, v in list(vars(m).items()) if id(v) in wrappers]
        out.append((numpy.linalg, "lstsq",
                    self._span("solver.lstsq", numpy.linalg.lstsq)))
        out.append((ConsistencySystem, "__init__",
                    self._span("solver.system", ConsistencySystem.__init__)))
        out.append((ConsistencySystem, "residuals_and_jacobian",
                    self._assembly(ConsistencySystem.residuals_and_jacobian)))
        out.append((IdealTriangulation, "edge_classes",
                    self._span("complexes.edge_classes",
                               IdealTriangulation.edge_classes)))
        out.append((FormalSum, "__init__",
                    self._formal_sum(FormalSum.__init__)))
        out += [(GaussRational, a,
                 self._count("scalars.gauss_ops", getattr(GaussRational, a)))
                for a in GAUSS_OPS]
        return out

    @contextlib.contextmanager
    def installed(self, op):
        """Trace calls made inside the block under operation id ``op``."""
        if self._patch_list is None:
            self._patch_list = self._patches()
        patches = self._patch_list
        saved = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _ in patches]
        self.op = op
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
            self.op = None

    # -- exchange with traced children ---------------------------------------

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans,
                       "counts": [[k, op, v] for (k, op), v
                                  in self.counts.items()],
                       "maxima": [[k, op, v] for (k, op), v
                                  in self.maxima.items()]}, fh)

    def merge_file(self, path):
        """Add a traced child's spans and counters under the current op."""
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for name, start, end, par, _ in data["spans"]:
            self.spans.append([name, start, end,
                               parent if par < 0 else base + par, self.op])
        for k, _, v in data["counts"]:
            self.counts[(k, self.op)] += v
        for k, _, v in data["maxima"]:
            self.maxima[(k, self.op)] = max(self.maxima[(k, self.op)], v)

    # -- summaries -----------------------------------------------------------

    def self_times(self):
        """{(span name, op): self time in seconds}."""
        covered = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(float)
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            out[(name, op)] += end - start - covered[idx]
        return out


def per_op(values, ops):
    """{name: mean over the ops in ``ops`` that recorded it}."""
    total = defaultdict(float)
    seen = defaultdict(set)
    for (name, op), v in values.items():
        if op in ops:
            total[name] += v
            seen[name].add(op)
    return {name: total[name] / len(seen[name]) for name in total}


if __name__ == "__main__":
    from flagdual import cli

    tracer = Tracer()
    with tracer.installed(0):
        code = cli.main(sys.argv[2:])
    tracer.dump(sys.argv[1])
    sys.exit(code)
