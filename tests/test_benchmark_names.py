"""The names the benchmark's tracer wraps still resolve on the package.

``perfbench/tracing.py`` swaps the functions named in its ``FUNCTIONS``
table, and the ``GaussRational`` operators in ``GAUSS_OPS``, for
recording wrappers; a name renamed away in the library breaks a traced
run (``perfbench/run.py --trace 1``), which this suite does not start.
The tables are read from the file's syntax tree, without importing it.

This test cannot see whether each name is still called inside a traced
operation, so that its per-layer metric is produced; ``python3
perfbench/selftest.py`` checks that.
"""

import ast
import importlib
from pathlib import Path

from flagdual.scalars import GaussRational

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
