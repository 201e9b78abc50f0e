"""Byte digests of the command line's output, as a standing gate.

cli_digests.json holds one entry per invocation in ``invocations()``:
its argv, exit code, the sha256 of its stdout and stderr, and the
sha256 of each file it wrote, with the Python version and platform the
table was made on (float bytes depend on the interpreter, numpy and
the C library).  test_cli_digests.py reruns every invocation through
``cli.main`` and compares.  After a change that moves output on
purpose, rewrite the table with

    PYTHONPATH=src python tests/cli_digests.py

and say in CHANGES.md which entries moved, and why.

Every invocation runs in one directory with relative paths, so no
absolute path enters a digest.  The inputs that no invocation writes
come from ``bundled``: the 64-fold (1, 0, 0, 0) cover of the
figure-eight (128 tetrahedra) and a seeded perturbation of the
figure-eight.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from flagdual import bundled, cli, fileio
from flagdual.solver import complex_from_vector, minimal_vector

TABLE = Path(__file__).with_name("cli_digests.json")

EXAMPLES = ("figure8", "cr", "double", "hyperbolic")
VERBS = ("coords", "dualize", "conjugate", "check", "beta", "volume",
         "defect")


def write_inputs():
    """The inputs no invocation writes, in the current directory."""
    fileio.write_complex("cover.json", bundled.lifted_cover(
        bundled.figure_eight_complex(), 64, (1, 0, 0, 0)))
    dc = bundled.figure_eight_complex()
    m = minimal_vector(dc)
    rng = np.random.default_rng(7)
    noise = rng.standard_normal(m.size) + 1j * rng.standard_normal(m.size)
    fileio.write_complex("perturbed.json",
                         complex_from_vector(dc, m + 1e-3 * noise))


def invocations() -> list:
    """Every argv, in order: later ones read files earlier ones wrote."""
    out = []
    for name in EXAMPLES:
        out += [["example", name], ["example", name, "-o", f"{name}.json"]]
    for name in EXAMPLES:
        out.append(["dualize", f"{name}.json", "-o", f"{name}_dual.json"])
    inputs = [f"{name}{suffix}.json" for suffix in ("", "_dual")
              for name in EXAMPLES] + ["cover.json"]
    out += [[verb, path, *mode] for path in inputs for verb in VERBS
            for mode in ((), ("--json",))]
    out += [
        ["solve", "perturbed.json", "-o", "solved.json"],
        ["example", "hyperbolic", "--param", "1+"],  # parse error: 1
        ["check", "perturbed.json"],  # inconsistent: 2
    ]
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv) -> dict:
    """One invocation through cli.main, in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    entry = {"argv": list(argv), "exit": code,
             "stdout": _sha(out.getvalue().encode()),
             "stderr": _sha(err.getvalue().encode())}
    if "-o" in argv:
        path = argv[argv.index("-o") + 1]
        entry["files"] = {path: _sha(Path(path).read_bytes())}
    return entry


def environment() -> dict:
    return {"python": platform.python_version(),
            "platform": platform.platform()}


def run_all() -> list:
    """Every invocation's entry; run in an empty current directory."""
    write_inputs()
    return [run(argv) for argv in invocations()]


def main():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            entries = run_all()
        finally:
            os.chdir(cwd)
    TABLE.write_text(json.dumps({**environment(), "entries": entries},
                                indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {TABLE.name}", file=sys.stderr)


if __name__ == "__main__":
    main()
