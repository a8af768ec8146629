"""Importing the package, a run, a snapshot and ``stokesbem verify``
never import SciPy, nor ``numpy.polynomial``.

The kernels take ``K_0``, ``K_1`` from the package's own rational
(``laplace_kernels._k01``), :func:`bem_space.factor` inverts by
``numpy.linalg.inv``, ``cq_engine.cq_weights`` inverse-transforms its
contour samples with NumPy's FFT, and ``verify``'s convolution oracle
sums the package's own Gauss-Legendre panels.  Importing
``scipy.special`` and ``scipy.linalg`` took most of the fixed time and
about half of the resident memory of every fresh process, and
``scipy.integrate`` more than half of ``verify``'s, so the package needs
NumPy alone: the fresh interpreter refuses every ``scipy`` import, and a
run, a snapshot and ``verify`` must still succeed in it.  The
Gauss-Legendre rules of ``_quadrature`` repeat ``leggauss``'s arithmetic
with ``numpy.linalg`` alone: importing ``numpy.polynomial`` cost every
workload about 6 ms and 0.9 MB of peak resident set.  The check needs a
fresh interpreter: the test process itself imports SciPy for its
references.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json, sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is refused: the package needs NumPy alone")
        return None


sys.meta_path.insert(0, RefuseScipy())
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
with contextlib.redirect_stdout(io.StringIO()):
    code = stokesbem.cli.main(["verify"])
if code != 0:
    sys.exit(f"stokesbem verify exited {code}")
print(json.dumps(sorted(name for name in sys.modules
                        if name.split(".")[0] == "scipy"
                        or name.startswith("numpy.polynomial"))))
"""


def test_imports_run_and_snapshot_leave_scipy_unimported():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
