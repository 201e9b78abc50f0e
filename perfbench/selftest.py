"""Quick self-test of the benchmark (about two minutes):

    python3 perfbench/selftest.py

1. Each workload, listed in BENCHMARK.json or not, runs one round at
   the tiny scale, untraced and traced; the last output line must hold
   exactly the metrics BENCHMARK.json names for that mode, each with
   its unit, and no failed operation.
2. One deliberately corrupted result per workload goes through the
   workload's checks and must be counted as a failed, wrong operation.
3. In a directory holding only BENCHMARK.json and the benchmark, the
   benchmark must exit non-zero without printing a result.

Exits non-zero and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def check_runs(spec):
    problems = []
    # every workload, also cli_verbs, which BENCHMARK.json leaves out
    for workload in workloads.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            what = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "0", "--trace", str(trace),
                 "--scale", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            if proc.returncode != 0:
                problems.append(f"{what}: exit {proc.returncode}: "
                                f"{proc.stderr[-500:]}")
                continue
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{what}: keys {sorted(out)}")
            if not (out["correct"] and out["failed"] == 0
                    and out["attempted"] >= 1):
                problems.append(f"{what}: correct={out['correct']} "
                                f"failed={out['failed']}/{out['attempted']}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = out["metrics"]
            if set(got) != set(want):
                problems.append(f"{what}: missing {sorted(set(want) - set(got))}"
                                f", extra {sorted(set(got) - set(want))}")
            for name in set(got) & set(want):
                value, unit = got[name]["value"], got[name]["unit"]
                if unit != want[name] or not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    problems.append(f"{what}: {name} = {value!r} {unit}")
            print(f"ran {what}", flush=True)
    return problems


def check_corruption():
    os.environ.update(run.child_env())
    problems = []
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, 1, "tiny", run.OUT)
        try:
            op = workload.ops()[0]
            corrupt = workloads.CORRUPT[name]

            class Corrupted:
                def ops(self):
                    return [workloads.Op(
                        op.label, lambda tracer=None: corrupt(op.run()),
                        op.check)]

            result = run.measure(Corrupted(), 0)
        finally:
            workload.close()
        if not (result["attempted"] == result["failed"] == result["wrong"]
                == 1):
            problems.append(f"{name}: a corrupted result was not counted "
                            f"as failed: {result['failed']}/"
                            f"{result['attempted']}")
        print(f"corrupted {name}", flush=True)
    return problems


def check_bare_directory():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload",
             "exact_duality", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, "
                f"stdout {proc.stdout[-200:]!r}"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_runs(spec) + check_corruption() + check_bare_directory()
    for p in problems:
        print(f"PROBLEM {p}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
