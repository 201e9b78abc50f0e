"""The flagdual benchmark: one workload per run, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: exact_duality, cover_pipeline, cli_verbs (see README.md).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; with --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones.

This process only launches and collects.  The timed loop runs in one
worker process, a closed loop with one operation at a time; ops_per_s
and op_median_ms come from each input's best time over the run.  Set-up is
timed in fresh processes from their start to the point where the first
operation would begin: the worker and, untraced, SETUP_PROBES more
processes that stop there; setup_s is the median.  Children see
PYTHONPATH pointing at this checkout's src/ and one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 2
REF_SAMPLES = 5
DEADLINE_S = 170  # a hung child is killed so that the run ends within 180 s
VERBS = ("example", "coords", "dualize", "conjugate", "check", "beta",
         "volume", "defect", "solve")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s",
                    "op_median_ms": "ms", "peak_rss_mb": "MB"}


def host_ref_ms():
    """A fixed pure-Python computation outside flagdual, in ms."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return (time.perf_counter() - start) * 1e3


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def last_json(text):
    lines = text.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed nothing")
    return json.loads(lines[-1])


def launch(args):
    base = [sys.executable, str(HERE / "run.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scale", args.scale]
    env = child_env()
    deadline = time.monotonic() + DEADLINE_S
    refs = [host_ref_ms() for _ in range(REF_SAMPLES)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc = subprocess.run(
                base + ["--role", "probe", "--t0", repr(time.monotonic())],
                env=env, capture_output=True, text=True, check=True,
                timeout=deadline - time.monotonic())
            setups.append(last_json(proc.stdout)["setup_s"])
    proc = subprocess.run(
        base + ["--role", "worker", "--t0", repr(time.monotonic())],
        env=env, stdout=subprocess.PIPE, text=True, check=True,
        timeout=deadline - time.monotonic())
    result = last_json(proc.stdout)
    refs += [host_ref_ms() for _ in range(REF_SAMPLES)]
    metrics = result["metrics"]
    if args.trace:
        metrics["host.ref_ms"] = {"value": statistics.median(refs),
                                  "unit": "ms"}
    else:
        setups.append(result.pop("setup_s"))
        metrics["setup_s"] = {"value": statistics.median(setups),
                              "unit": END_TO_END_UNITS["setup_s"]}
        print(f"host.ref_ms median {statistics.median(refs):.3f}",
              file=sys.stderr)
    out = {k: result[k] for k in ("correct", "attempted", "failed")}
    out["metrics"] = dict(sorted(metrics.items()))
    print(json.dumps(out))


# -- worker side ------------------------------------------------------------------

def measure(workload, seconds, tracer=None, paired=True, first_op=0):
    """Run whole rounds, at least one, for about ``seconds``: another
    round starts only if it is expected to end before ``seconds`` plus
    half a round, so that runs end near ``seconds`` on average.

    Each sample is kept with its operation's position in the round;
    rounds repeat the same work, so a position is one input.

    Untraced, each operation runs once.  Traced and ``paired``, each runs
    twice: as is, and then under the tracer with a fresh op id, so that
    the two times of a pair give the tracing overhead; unpaired, only
    the traced run is made.  Returns a dict of the samples.
    """
    times, traced_times, labels, positions, errors = [], [], [], [], []
    attempted = failed = wrong = 0
    op_id = first_op
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for position, op in enumerate(workload.ops()):
            attempted += 1
            try:
                if tracer is None or paired:
                    t0 = time.perf_counter()
                    result = op.run()
                    elapsed = time.perf_counter() - t0
                if tracer is not None:
                    with tracer.installed(op_id):
                        t0 = time.perf_counter()
                        traced = op.run(tracer)
                        traced_times.append(time.perf_counter() - t0)
                    op_id += 1
                    if not paired:
                        result, elapsed = traced, traced_times[-1]
            except Exception as exc:  # an operation's failure is counted
                failed += 1
                errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            problems = op.check(result)
            if problems:
                failed += 1
                wrong += 1
                errors.extend(f"{op.label}: {p}" for p in problems)
            times.append(elapsed)
            labels.append(op.label)
            positions.append(position)
        now = time.perf_counter()
        if now - start + (now - round_start) / 2 >= seconds:
            break
    for e in errors[:20]:
        print(f"FAILED {e}", file=sys.stderr)
    return {"times": times, "traced_times": traced_times, "labels": labels,
            "positions": positions, "attempted": attempted, "failed": failed,
            "wrong": wrong, "next_op": op_id}


def best_times(run):
    """Each input's best time over the run's rounds, in seconds.

    The host's speed changes by tens of percent for minutes at a time;
    an input's best time is the one least slowed by it.
    """
    best = {}
    for position, t in zip(run["positions"], run["times"]):
        best[position] = min(t, best.get(position, t))
    return list(best.values())


def end_to_end(workload_name, run):
    times = best_times(run)
    if workload_name == "cli_verbs":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {"ops_per_s": len(times) / sum(times),
              "op_median_ms": statistics.median(times) * 1e3,
              "peak_rss_mb": rss_kb / 1024}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def import_times_ms():
    """Cumulative import time per module of `import flagdual`, in ms."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import flagdual"],
        capture_output=True, text=True, check=True)
    out = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            out.setdefault(parts[2].strip(), int(parts[1]) / 1e3)
    return out


def startup_probes(repeats=3):
    """Bare interpreter start, and flagdual/sympy import times."""
    python_ms, import_ms, sympy_ms = [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        python_ms.append((time.perf_counter() - t0) * 1e3)
        cumulative = import_times_ms()
        import_ms.append(cumulative["flagdual"])
        sympy_ms.append(cumulative["sympy"])
    return {"startup.python_ms": statistics.median(python_ms),
            "startup.import_ms": statistics.median(import_ms),
            "startup.sympy_import_ms": statistics.median(sympy_ms)}


def per_layer(run, tracer, own, sweep, sweep_cli):
    """Per-layer metrics of the workload's own traced operations.

    A layer the workload never calls is read from the sweep (ops in
    ``sweep``), one tiny round of each other workload, so that every
    metric is a measurement.
    """
    from tracing import per_op

    values = {}
    for source in (sweep, own):  # own operations take precedence
        values.update({f"{k}_ms": v * 1e3 for k, v
                       in per_op(tracer.self_times(), source).items()})
        values.update(per_op(tracer.counts, source))
        values.update(per_op(tracer.maxima, source))
    for runs in (sweep_cli, run):
        for verb in VERBS:
            samples = [t for t, lab in zip(runs["times"], runs["labels"])
                       if lab == verb]
            if samples:
                values[f"cli.{verb}_ms"] = statistics.median(samples) * 1e3
    pairs = [b / a for a, b in zip(run["times"], run["traced_times"])]
    values["trace.overhead_pct"] = (statistics.median(pairs) - 1) * 100
    values.update(startup_probes())
    units = {"scalars.gauss_ops": "count/op", "solver.iterations": "count/op",
             "solver.residual_evals": "count/op",
             "prebloch.formal_sum_terms": "count/op",
             "solver.jacobian_mb": "MB-computed",
             "trace.overhead_pct": "%"}
    out = {}
    for k, v in values.items():
        unit = units.get(k, "ms" if k.startswith(("cli.", "startup."))
                         else "ms/op")
        out[k] = {"value": v, "unit": unit}
    return out


def traced(args, workload):
    """The traced run: paired own operations, then the sweep."""
    import workloads
    from tracing import Tracer

    tracer = Tracer()
    run = measure(workload, args.seconds, tracer)
    own = set(range(run["next_op"]))
    sweep, sweep_cli = set(), {"times": [], "labels": []}
    for other in workloads.WORKLOADS:
        if other == args.workload:
            continue
        tiny = workloads.build(other, args.seed, "tiny", OUT)
        try:
            swept = measure(tiny, 0, tracer, paired=False,
                            first_op=run["next_op"])
        finally:
            tiny.close()
        sweep |= set(range(run["next_op"], swept["next_op"]))
        for key in ("attempted", "failed", "wrong", "next_op"):
            run[key] = swept[key] + (0 if key == "next_op" else run[key])
        if other == "cli_verbs":
            sweep_cli = swept
    metrics = per_layer(run, tracer, own, sweep, sweep_cli)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
    return run, metrics


def work(args):
    import workloads

    workload = workloads.build(args.workload, args.seed, args.scale, OUT)
    try:
        setup_s = time.monotonic() - args.t0
        if args.role == "probe":
            print(json.dumps({"setup_s": setup_s}))
            return
        if args.trace:
            run, metrics = traced(args, workload)
        else:
            run = measure(workload, args.seconds)
            metrics = end_to_end(args.workload, run)
    finally:
        workload.close()
    result = {"correct": run["wrong"] == 0, "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    if not args.trace:
        result["setup_s"] = setup_s
    print(json.dumps(result))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("exact_duality", "cover_pipeline", "cli_verbs"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input sizes; tiny is for the self-test")
    ap.add_argument("--role", choices=("launcher", "probe", "worker"),
                    default="launcher", help=argparse.SUPPRESS)
    ap.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "flagdual" / "__init__.py").is_file():
        sys.exit(f"error: no flagdual sources under {ROOT / 'src'}")
    if args.role == "launcher":
        launch(args)
    else:
        work(args)


if __name__ == "__main__":
    main()
