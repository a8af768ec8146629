#!/usr/bin/env python3
"""One repetition of a workload in a fresh process.

Times the set-up (import of the package from ``src/`` plus building the
inputs) and the run to a verified table or snapshot, optionally under
the tracer, and prints one JSON object as its last line.  With
``--setup-only`` it stops after the set-up; with ``--micro-seed`` it
runs the kernel microbenchmark instead.  Started by ``run.py``; not
meant to be run by hand.
"""

import argparse
import json
import pathlib
import resource
import sys
import time


def library_versions() -> dict:
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas}


def main() -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--scale", default="bench")
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--micro-seed", type=int)
    args = parser.parse_args()
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

    if args.micro_seed is not None:
        import kernel_micro

        print(json.dumps({"evals_per_s": kernel_micro.evals_per_second(args.micro_seed)}))
        return 0

    import workloads

    workload = workloads.Workload(args.workload, args.scale)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    def verified():
        return workload.check(workload.run())

    tracer = None
    if args.traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        verified = tracer.root(verified)
    t0 = time.perf_counter()
    failures, err_u, err_p = verified()
    wall_s = time.perf_counter() - t0

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "err_u": err_u,
        "err_p": err_p,
        "failures": failures,
        "libs": library_versions(),
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts)
        uncovered = out["layers"]["trace.uncovered_pct"][0]
        if uncovered > tracing.MAX_UNCOVERED_PCT:
            failures.append(f"spans leave {uncovered:.1f} % of the traced wall_s "
                            f"uncovered (limit {tracing.MAX_UNCOVERED_PCT} %)")
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
