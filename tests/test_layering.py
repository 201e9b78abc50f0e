"""Package layering: modules share only their public names."""

import ast
import sys
from pathlib import Path

import flagdual
from flagdual import GaussRational

PACKAGE = Path(flagdual.__file__).parent


def test_no_module_imports_a_private_name_of_another():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = "." * node.level + (node.module or "")
            if node.level or source.split(".")[0] == "flagdual":
                found += [f"{path.name}: {alias.name} from {source}"
                          for alias in node.names
                          if alias.name.startswith("_")]
    assert not found


def test_only_scalars_reads_the_fields_of_a_gauss_rational():
    fields = set(GaussRational.__slots__)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "scalars.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in fields:
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert fields and not found


def _package_modules(node):
    """The package modules an import statement reads from."""
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if not node.level:
            if module.split(".")[0] != "flagdual":
                return set()
            module = module.partition(".")[2]
        return {module} if module else {a.name for a in node.names}
    if isinstance(node, ast.Import):
        return {a.name.partition(".")[2] for a in node.names
                if a.name.startswith("flagdual.")}
    return set()


def test_no_function_repeats_an_import_of_its_module():
    # a lazy import that keeps a module from loading stays allowed
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = set().union(*map(_package_modules, tree.body))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}: .{module}"
                          for node in ast.walk(fn)
                          for module in _package_modules(node) & top]
    assert not found


# each third-party runtime dependency and the one module that imports it:
# the gluing equations and check_* stay pure Python, and replacing sympy
# touches one known site
RUNTIME_IMPORTS = {"numpy": "solver.py", "sympy": "gaussian.py"}


def test_third_party_imports_stay_at_their_one_site():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] \
                if isinstance(node, ast.Import) else \
                [node.module or ""] \
                if isinstance(node, ast.ImportFrom) and not node.level else []
            tops = {name.split(".")[0] for name in names}
            found += [f"{path.name}:{node.lineno}: {top}" for top in tops
                      if top not in sys.stdlib_module_names
                      and top != "flagdual"
                      and RUNTIME_IMPORTS.get(top) != path.name]
    assert not found
