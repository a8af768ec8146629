#!/usr/bin/env python3
"""Benchmark of the stokesbem pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--scale smoke|bench]

Run from a checkout of the repository; the package is imported from its
``src/`` directory and nowhere else.  Workloads (see ``workloads.py``):

* ``table2-circle`` -- circle, P0, reduced (Nystrom) assembly, BDF3,
  N = M in {20, 40, 80}: assembly- and kernel-bound.
* ``table1-square`` -- square, discontinuous P1, Galerkin, bordered
  ``multiplier_m`` system, (N, M) = (4, 10) .. (32, 80): the same
  kernels through the Galerkin self/vertex/separated clouds.
* ``star-snapshot`` -- star (1, 0.3, 6), P0 reduced, N = 48, M = 24 and
  a 21x21 snapshot grid at four steps: bound by the potential layer.

``--scale smoke`` runs the first two ladder rows and an 11x11 grid,
for the benchmark's own test.

Each repetition is a fresh process (``worker.py``), started one after
another until ``--seconds`` have passed and at least three (trace: two)
have run.  With ``--trace 0``, ``SETUP_ONLY_PER_REP`` further fresh
processes before each repetition only import the package and build the inputs, so that
``setup_s`` is a median over more samples.  The inputs are fixed
problems of the paper; ``--seed`` draws the kernel microbenchmark's
arguments.  BLAS and OpenMP run one thread; the allocator keeps its
defaults.  Every repetition's output is checked (``Workload.check``); a
crash or a failed check counts as a failed repetition.

With ``--trace 0`` the end-to-end metrics are medians over the
repetitions, except ``peak_rss_mb``:

* ``wall_s`` -- time to a verified table or snapshot;
* ``setup_s`` -- import of the package plus building the inputs, over
  the repetitions and the set-up-only processes;
* ``peak_rss_mb`` -- peak resident set of a repetition's process, the
  smallest over the repetitions: the same computation peaks 0 to 12 %
  higher in some processes, by where the allocator places memory;
* ``err_u``, ``err_p`` -- accuracy guards: the finest row's largest
  error at the observation points against the exact solution (tables),
  or the largest deviation of the observation histories from a stored
  N = 192, M = 96 solution (star).

With ``--trace 1`` repetitions alternate untraced and traced, and the
per-layer metrics are medians over the traced ones (``tracing.py``),
plus the kernel microbenchmark (``kernel_micro.py``) and
``trace.overhead_s``, the traced minus the untraced median ``wall_s``.
Which end-to-end metric each layer should move:

* ``laplace_kernels.*`` -> ``wall_s`` on all three, by the branch mix;
* ``bem_space.assemble_V.*`` -> ``wall_s`` on the tables, not the star;
* ``bem_space.potential_*``, ``stokes_solver.field_snapshot.*`` ->
  ``wall_s`` on the star, not the tables;
* ``cq_engine.*`` -> ``peak_rss_mb`` everywhere, ``wall_s`` a little;
* ``bem_space.data_functional.s``, ``stokes_solver.run_simulation.self_s``
  should stay small everywhere.

The last line of standard output is the result as JSON; the full
record (environment, every repetition, the spans of traced ones) goes
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("table2-circle", "table1-square", "star-snapshot")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "err_u": "1",
    "err_p": "1",
}
THREAD_VARS = ("STOKESBEM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")
THREADS = "1"
#: set-up-only processes started before each repetition
SETUP_ONLY_PER_REP = 2
#: stop starting repetitions after this long, whatever --seconds says,
#: and stop a repetition still running at the limit, so that a run ends
#: within three minutes
HARD_STOP_S = 120.0
RUN_LIMIT_S = 170.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def run_worker(env: dict, timeout: float, *args: str) -> dict:
    """One worker process; its JSON result, or ``{"error": ...}``."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"stopped after {timeout:.0f} s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("smoke", "bench"), default="bench")
    args = parser.parse_args()

    if not (ROOT / "src" / "stokesbem" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'stokesbem'}; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({var: THREADS for var in THREAD_VARS})
    start = time.perf_counter()

    def time_left():
        return RUN_LIMIT_S - (time.perf_counter() - start)

    micro = None
    if args.trace:
        micro = run_worker(env, time_left(), "--micro-seed", str(args.seed))
        if "error" in micro:
            print(f"error: kernel microbenchmark failed: {micro['error']}",
                  file=sys.stderr)
            return 1

    reps = []
    setups = []
    min_reps = 2 if args.trace else 3
    while True:
        for _ in range(0 if args.trace else SETUP_ONLY_PER_REP):
            setups.append(run_worker(env, time_left(), "--workload", args.workload,
                                     "--scale", args.scale, "--setup-only"))
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep = run_worker(env, time_left(), "--workload", args.workload,
                         "--scale", args.scale, "--traced", str(int(traced)))
        rep["traced"] = traced
        reps.append(rep)
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and len(reps) >= min_reps:
            break
        if elapsed >= HARD_STOP_S:
            break

    failed = [r for r in reps + setups if "error" in r or r.get("failures")]
    for r in failed:
        print(f"failed repetition: {r.get('error') or r['failures']}", file=sys.stderr)
    good = [r for r in reps if "error" not in r]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not plain or (args.trace and not traced):
        print("error: no repetition completed", file=sys.stderr)
        return 1

    if args.trace:
        wall_plain = statistics.median([r["wall_s"] for r in plain])
        wall_traced = statistics.median([r["wall_s"] for r in traced])
        metrics = {
            name: {"value": statistics.median([r["layers"][name][0]
                                               for r in traced]),
                   "unit": unit}
            for name, (_, unit) in traced[0]["layers"].items()
        }
        metrics.update({
            f"laplace_kernels.evals_per_s.{branch}": {"value": rate, "unit": "1/s"}
            for branch, rate in micro["evals_per_s"].items()
        })
        metrics["trace.overhead_s"] = {"value": wall_traced - wall_plain, "unit": "s"}
    else:
        metrics = {name: {"value": statistics.median([r[name] for r in plain]),
                          "unit": unit}
                   for name, unit in END_TO_END.items()}
        metrics["peak_rss_mb"]["value"] = min(r["peak_rss_mb"] for r in plain)
        metrics["setup_s"]["value"] = statistics.median(
            [r["setup_s"] for r in plain + setups if "error" not in r])

    environment = {
        "workload": args.workload, "scale": args.scale, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: env[var] for var in THREAD_VARS},
        "malloc": {var: env[var] for var in env if var.startswith("MALLOC_")},
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "libraries": good[0]["libs"], "git_commit": git_commit(),
        "repetitions": len(reps), "setup_only": len(setups),
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / (f"{args.workload}-{args.scale}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    record.write_text(json.dumps({"environment": environment, "metrics": metrics,
                                  "micro": micro, "repetitions": reps,
                                  "setup_only": setups}))

    print("environment " + json.dumps(environment))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"record {record.relative_to(ROOT)}")
    print(json.dumps({"correct": not failed, "attempted": len(reps) + len(setups),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
