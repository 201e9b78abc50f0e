"""The names the benchmark's tracer wraps still resolve on the package.

``perfbench/tracing.py`` swaps the functions named in its ``FUNCTIONS``
table, and the ``GaussRational`` operators in ``GAUSS_OPS``, for
recording wrappers; a name renamed away in the library breaks a traced
run (``perfbench/run.py --trace 1``), which this suite does not start.
The tables are read from the file's syntax tree, without importing it.

Resolving a name cannot show that it is still called inside a traced
operation, so that its per-layer metric is produced; ``python3
perfbench/selftest.py`` checks that.  One span is guarded here as well:
``gaussian.factor`` must keep enclosing the factorization work of
``delta_exact``.
"""

import ast
import importlib
import random
from pathlib import Path

from flagdual import beta_complex, bundled, delta_exact, gaussian
from flagdual.scalars import GaussRational

from helpers import rand_exact_minimal

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _table(name):
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} table in {TRACING}")


def test_traced_functions_resolve():
    functions = _table("FUNCTIONS")
    assert functions
    for span, module, attribute in functions:
        assert callable(getattr(importlib.import_module(module), attribute,
                                None)), (span, module, attribute)


def test_counted_scalar_operators_resolve():
    operators = _table("GAUSS_OPS")
    assert operators
    for name in operators:
        assert name in vars(GaussRational), name


def test_delta_factors_inside_the_traced_factor_span(monkeypatch):
    # the tracer wraps gaussian.factor_gaussian as the gaussian.factor
    # span: delta_exact must call it, and every factorint call of delta
    # must happen inside it, or gaussian.factor_ms stops measuring
    factor, factorint, depth, calls = (gaussian.factor_gaussian,
                                       gaussian.factorint, [0], [])

    def spanned(*args):
        depth[0] += 1
        try:
            return factor(*args)
        finally:
            depth[0] -= 1

    def inside(n):
        calls.append(depth[0])
        return factorint(n)

    monkeypatch.setattr(gaussian, "factor_gaussian", spanned)
    monkeypatch.setattr(gaussian, "factorint", inside)
    s = beta_complex(bundled.twisted_double_complex(
        rand_exact_minimal(random.Random(93))))
    assert delta_exact(s).is_zero()
    assert calls and all(calls)
