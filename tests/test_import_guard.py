"""Importing the package, a run and a snapshot never import SciPy.

The kernels take ``K_0``, ``K_1`` from the package's own rational
(``laplace_kernels._k01``), :func:`bem_space.factor` inverts by
``numpy.linalg.inv``, and ``cq_engine.cq_weights`` inverse-transforms
its contour samples with NumPy's FFT.  Importing ``scipy.special`` and ``scipy.linalg`` took
most of the fixed time and about half of the resident memory of every
fresh process, so a run must leave every ``scipy`` module unimported.
Only ``stokesbem verify``'s oracle imports ``scipy.integrate``, when it
is called.  The check needs a fresh interpreter: the test process itself
imports SciPy for its references.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:]
import stokesbem, stokesbem.cli, stokesbem.verification
result = stokesbem.run_simulation(
    stokesbem.BoundaryCurve.circle(1.0), 8, "P0",
    stokesbem.ConstraintMode.none,
    stokesbem.CQScheme(order=3, kappa=0.25, n_steps=4),
    stokesbem.manufactured_dirichlet_data(), [(0.0, 0.0)],
    stokesbem.ProblemConfig(), assembly="reduced",
)
grid = stokesbem.GridSpec(x0=-2.0, y0=-2.0, dx=1.0, dy=1.0, n_rows=5, n_cols=5)
stokesbem.field_snapshot(result, grid, [4])
print(json.dumps(sorted(name for name in sys.modules
                        if name.split(".")[0] == "scipy")))
"""


def test_imports_run_and_snapshot_leave_scipy_unimported():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
