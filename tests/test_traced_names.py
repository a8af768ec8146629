"""The layer benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` replaces module attributes of the package
(``stokes_solver.cq_weights``, ``bem_space._ab2``, ...) with span
recorders and reads ``.weights`` from what ``cq_weights`` returns.  The
benchmark's own tests are not part of this suite, so a refactor that
drops one of those names would otherwise fail only the benchmark.  The
script runs a simulation and a small snapshot, so that the solver's and
the observation layer's names are both exercised.  The kernel counts
must be positive too: an assembly that stopped reaching the profiles
through ``bem_space._ab2`` and ``bem_space._pr2`` would leave the traced
kernel layer at zero without failing, and so would an observation pass
whose point shares all ran in forked workers for the potential layer:
the tracer sees the calling process only.  The tracer patches the
package in place, hence the separate process.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:]
import stokesbem, tracing
tracer = tracing.Tracer()
tracer.install()
result = stokesbem.run_simulation(
    stokesbem.BoundaryCurve.circle(1.0), 8, "P0",
    stokesbem.ConstraintMode.none,
    stokesbem.CQScheme(order=3, kappa=0.25, n_steps=4),
    stokesbem.manufactured_dirichlet_data(), [(0.0, 0.0)],
    stokesbem.ProblemConfig(), assembly="reduced",
)
grid = stokesbem.GridSpec(x0=-2.0, y0=-2.0, dx=1.0, dy=1.0, n_rows=5, n_cols=5)
stokesbem.field_snapshot(result, grid, [4])
metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
print(json.dumps({name: value for name, (value, _) in metrics.items()}))
"""


def test_tracer_installs_and_counts_a_run():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout)
    assert metrics["cq_engine.weight_bytes"] > 0
    assert metrics["cq_engine.contour_nodes"] > 0
    assert metrics["bem_space.assemble_V.calls"] > 0
    assert metrics["cq_engine.march.s"] > 0
    assert metrics["cq_engine.postprocess.self_s"] > 0
    assert metrics["bem_space.potential_velocity.calls"] > 0
    assert metrics["stokes_solver.field_snapshot.us_per_point"] > 0
    branches = [name for name in metrics
                if name.startswith("laplace_kernels.args.")]
    assert sum(metrics[name] for name in branches) > 0
    assert metrics["laplace_kernels.args.pr2_series"] > 0
