"""A run and a snapshot never import SciPy's FFT modules.

``cq_engine.cq_weights`` inverse-transforms its contour samples with
NumPy's FFT.  Importing ``scipy.fftpack`` adds tens of milliseconds and
about a megabyte of resident memory to the first sweep of every fresh
process, and nothing else in the package needs it, so a run must leave
both ``scipy.fftpack`` and ``scipy.fft`` unimported.  The check needs a
fresh interpreter: the test process itself imports ``scipy.fftpack``
for the transform's reference.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:]
import stokesbem
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
                        if name.split(".")[:2] in (["scipy", "fft"],
                                                   ["scipy", "fftpack"]))))
"""


def test_run_and_snapshot_leave_scipy_fft_unimported():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
