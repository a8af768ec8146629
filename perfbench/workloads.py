"""Workload definitions, their inputs and their output checks.

Three workloads follow the paper's three results.  Each exists at two
scales:

* ``bench`` -- what ``run.py`` measures by default.  The default ladders
  of ``scripts/table1.py`` / ``scripts/table2.py`` without their finest
  row, and the star illustration at half resolution (the script's
  N = 96, M = 48 on a 41x41 grid), so that one repetition takes a few
  seconds and a timed run holds several.
* ``smoke`` -- the first two ladder rows and a coarse grid, for the
  benchmark's own test.

Only the package's public API is used here; the tracer in
``tracing.py`` wraps module attributes around these calls.
"""

from __future__ import annotations

import math
import pathlib

import numpy as np

import stokesbem
from stokesbem.verification import SweepProblem, convergence_sweep

REFERENCE_DIR = pathlib.Path(__file__).resolve().parent / "reference"
SCALES = ("smoke", "bench")

#: Tolerance of the star-snapshot comparison, relative to each field's
#: maximum: the contour accuracy floor sqrt(CONTOUR_EPSILON) of the
#: convolution quadrature (CONTOUR_EPSILON = 1e-15 in cq_engine).
STAR_RTOL = math.sqrt(1e-15)

# -- tables ------------------------------------------------------------------

#: Finest-row (err_u, err_p) of each table ladder, measured when this
#: benchmark was written.  The check allows the acceptance test's factor
#: around them.
TABLES = {
    "table2-circle": {
        "problem": lambda: SweepProblem(
            curve=stokesbem.BoundaryCurve.circle(1.0),
            kind="P0",
            constraint=stokesbem.ConstraintMode.none,
            order=3,
            data=stokesbem.manufactured_dirichlet_data(),
            observation_points=[(0.0, 0.0), (0.5, 0.5), (-0.6, 0.1)],
            cfg=stokesbem.ProblemConfig(),
            assembly="reduced",
        ),
        "ladder": [(20, 20), (40, 40), (80, 80)],
        "finest": {
            "smoke": (2.4051e-4, 6.9770e-4),
            "bench": (2.9959e-5, 8.5265e-5),
        },
        "ratio": 3.0,
        "rate_window": (2.7, 3.3),
    },
    "table1-square": {
        "problem": lambda: SweepProblem(
            curve=stokesbem.BoundaryCurve.square(1.0),
            kind="P1_discontinuous",
            constraint=stokesbem.ConstraintMode.multiplier_m,
            order=3,
            data=stokesbem.manufactured_dirichlet_data(),
            observation_points=[(-0.5, -0.5), (0.3, 0.7), (0.6, 0.2)],
            cfg=stokesbem.ProblemConfig(),
            assembly="galerkin",
        ),
        "ladder": [(4, 10), (8, 20), (16, 40), (32, 80)],
        "finest": {
            "smoke": (9.6096e-3, 6.3904e-2),
            "bench": (6.0070e-5, 8.4062e-4),
        },
        "ratio": 5.0,
        # least-squares slope of log err_u against log N over the rows
        # with N >= 16, as in the acceptance test
        "min_slope": (2.4, 16),
    },
}

# -- star illustration -------------------------------------------------------

STAR_OBSERVATION_POINTS = [(1.8, 0.0), (0.0, 1.8), (-1.2, -1.2)]
STAR_FINAL_TIME = 3.0
STAR_DIRECTION = np.array([1.0, 1.0]) / np.sqrt(2.0)
#: (N elements, M steps, grid size) per scale.
STAR_SIZES = {"smoke": (24, 12, 11), "bench": (48, 24, 21)}
#: Resolution of the stored fine solution the star errors are taken
#: against; every scale's time steps are a subset of its steps.
STAR_FINE = (192, 96)


def _star_velocity(t: float, positions: np.ndarray) -> np.ndarray:
    pulse = t**5 * np.exp(-2.0 * t) if t > 0.0 else 0.0
    return pulse * np.broadcast_to(STAR_DIRECTION, positions.shape)


def star_run(n_elements: int, n_steps: int):
    """The illustration's simulation at the given resolution."""
    scheme = stokesbem.CQScheme(
        order=3, kappa=STAR_FINAL_TIME / n_steps, n_steps=n_steps
    )
    return stokesbem.run_simulation(
        stokesbem.BoundaryCurve.star(1.0, 0.3, 6),
        n_elements,
        "P0",
        stokesbem.ConstraintMode.none,
        scheme,
        stokesbem.DirichletData(_star_velocity, smoothness=4),
        STAR_OBSERVATION_POINTS,
        stokesbem.ProblemConfig(),
        assembly="reduced",
    )


def star_snapshot(result, grid_size: int):
    """Fields at the illustration's four snapshot steps."""
    n_steps = result.scheme.n_steps
    dx = 4.0 / (grid_size - 1)
    grid = stokesbem.GridSpec(-2.0, -2.0, dx, dx, grid_size, grid_size)
    steps = [k * n_steps // 4 for k in range(1, 5)]
    return stokesbem.field_snapshot(result, grid, steps)


def star_fields(result, snap) -> dict[str, np.ndarray]:
    """Arrays compared against the stored reference."""
    return {
        "velocity_series": result.velocity_series,
        "pressure_series": result.pressure_series,
        "ux": snap.velocity[..., 0],
        "uy": snap.velocity[..., 1],
        "p": snap.pressure,
        "vorticity": snap.vorticity,
        "mask": snap.mask,
        "vorticity_mask": snap.vorticity_mask,
    }


def star_errors(result, fine: dict) -> tuple[float, float]:
    """Largest observation-history deviation from the fine solution."""
    stride = STAR_FINE[1] // result.scheme.n_steps
    u_fine = fine["velocity_series"][::stride]
    p_fine = fine["pressure_series"][::stride]
    err_u = float(np.linalg.norm(result.velocity_series - u_fine, axis=2).max())
    err_p = float(np.abs(result.pressure_series - p_fine).max())
    return err_u, err_p


def reference_path(scale: str) -> pathlib.Path:
    return REFERENCE_DIR / f"star-snapshot-{scale}.npz"


FINE_PATH = REFERENCE_DIR / "star-fine.npz"

# -- the common interface ----------------------------------------------------

WORKLOADS = ("table2-circle", "table1-square", "star-snapshot")


class Workload:
    """Inputs of one workload at one scale, built in ``__init__``.

    ``run`` computes the table or snapshot through the package's public
    API; ``check`` verifies it and returns ``(failures, err_u, err_p)``.
    """

    def __init__(self, name: str, scale: str):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}; choose from {SCALES}")
        self.name = name
        self.scale = scale
        if name in TABLES:
            spec = TABLES[name]
            self.spec = spec
            self.problem = spec["problem"]()
            self.ladder = spec["ladder"][:2] if scale == "smoke" else spec["ladder"]
        else:
            self.sizes = STAR_SIZES[scale]

    def run(self):
        if self.name in TABLES:
            return convergence_sweep(self.problem, self.ladder)
        n_elements, n_steps, grid_size = self.sizes
        result = star_run(n_elements, n_steps)
        return result, star_snapshot(result, grid_size)

    def check(self, output) -> tuple[list[str], float, float]:
        if self.name in TABLES:
            return _check_table(self.spec, self.scale, output)
        return _check_star(self.scale, *output)


def _check_table(spec: dict, scale: str, records) -> tuple[list[str], float, float]:
    failures = []
    err_u = np.array([rec.err_u for rec in records])
    err_p = np.array([rec.err_p for rec in records])
    if not (np.isfinite(err_u).all() and np.isfinite(err_p).all()
            and (err_u > 0).all() and (err_p > 0).all()):
        failures.append(f"errors not finite and positive: {err_u} {err_p}")
        return failures, math.nan, math.nan
    if "rate_window" in spec:
        lo, hi = spec["rate_window"]
        rates = [r for rec in records[1:] for r in (rec.ecr_u, rec.ecr_p)]
        if not all(lo <= r <= hi for r in rates):
            failures.append(f"rates {rates} outside [{lo}, {hi}]")
    if "min_slope" in spec:
        if not all(a > b for a, b in zip(err_u, err_u[1:])):
            failures.append(f"err_u not decreasing: {err_u.tolist()}")
        slope_min, n_min = spec["min_slope"]
        fit = [(rec.n_elements, rec.err_u) for rec in records
               if rec.n_elements >= n_min]
        if len(fit) >= 2:
            n, e = np.array(fit).T
            slope = -np.polyfit(np.log(n), np.log(e), 1)[0]
            if slope < slope_min:
                failures.append(f"err_u slope {slope:.2f} < {slope_min}")
    ratio = spec["ratio"]
    for label, got, want in zip(("err_u", "err_p"), (err_u[-1], err_p[-1]),
                                spec["finest"][scale]):
        if max(got / want, want / got) > ratio:
            failures.append(
                f"finest {label} {got:.4e} not within x{ratio} of {want:.4e}"
            )
    return failures, float(err_u[-1]), float(err_p[-1])


def _check_star(scale: str, result, snap) -> tuple[list[str], float, float]:
    failures = []
    with np.load(reference_path(scale)) as ref:
        expected = {key: ref[key] for key in ref.files}
    got = star_fields(result, snap)
    for key in ("mask", "vorticity_mask"):
        if not np.array_equal(got[key], expected[key]):
            failures.append(f"{key} differs from the reference")
    n_unmasked = int((~snap.mask).sum())
    if n_unmasked != int(expected["n_unmasked"]):
        failures.append(
            f"{n_unmasked} unmasked cells, reference has {int(expected['n_unmasked'])}"
        )
    if not failures:
        compared = {
            "velocity_series": None, "pressure_series": None,
            "ux": "mask", "uy": "mask", "p": "mask",
            "vorticity": "vorticity_mask",
        }
        for key, mask_key in compared.items():
            valid = (Ellipsis,) if mask_key is None \
                else (slice(None), ~expected[mask_key])
            want = expected[key][valid]
            dev = float(np.abs(got[key][valid] - want).max())
            field_max = float(np.abs(want).max())
            if not dev <= STAR_RTOL * field_max:
                failures.append(
                    f"{key} deviates by {dev:.3e}, limit "
                    f"{STAR_RTOL:.1e} x {field_max:.3e}"
                )
    with np.load(FINE_PATH) as fine:
        err_u, err_p = star_errors(result, {k: fine[k] for k in fine.files})
    return failures, err_u, err_p
