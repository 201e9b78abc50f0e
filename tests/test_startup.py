"""Start-up cost: what `import flagdual` loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

# dataclasses, the stdlib decorator of four modules, was loaded before
# this guard was written
IMPORTED_BEYOND_DEPENDENCIES = {"flagdual", "dataclasses"}


def _top_level_modules(statement):
    code = (f"{statement}; import sys, json; print(json.dumps(sorted("
            "{name.partition('.')[0] for name in sys.modules})))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_import_loads_nothing_its_dependencies_do_not():
    # no top-level module beyond those of the two runtime dependencies,
    # numpy and sympy, but the recorded ones
    added = _top_level_modules("import flagdual") \
        - _top_level_modules("import numpy, sympy")
    assert added <= IMPORTED_BEYOND_DEPENDENCIES, added
