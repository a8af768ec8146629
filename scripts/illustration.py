#!/usr/bin/env python3
"""Flow past a six-lobed star driven by a smooth pulse.

The boundary velocity is g(t) = t^5 exp(-2 t) H(t) (1, 1) / sqrt(2), a
causal pulse that peaks near t = 2.5 and is four times continuously
differentiable at t = 0.  The run uses P0 densities with reduced
integration and third-order time stepping, then samples velocity,
pressure, and vorticity on a uniform grid around the star and writes
one text file per field per snapshot step (rows of grid values, masked
near the boundary).

Defaults finish in about 4.5 s on a 2-core VM; the grid evaluation
dominates.
"""

import argparse

import numpy as np

from stokesbem import (
    BoundaryCurve,
    ConstraintMode,
    CQScheme,
    DirichletData,
    GridSpec,
    ProblemConfig,
    field_snapshot,
    run_simulation,
)
from stokesbem.cli import _write_series_csv, _write_snapshots

DIRECTION = np.array([1.0, 1.0]) / np.sqrt(2.0)
OBSERVATION_POINTS = [(1.8, 0.0), (0.0, 1.8), (-1.2, -1.2)]


def pulse(t: float) -> float:
    if t <= 0.0:
        return 0.0
    return t**5 * np.exp(-2.0 * t)


def boundary_velocity(t: float, positions: np.ndarray) -> np.ndarray:
    return pulse(t) * np.broadcast_to(DIRECTION, positions.shape)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-elements", type=int, default=96)
    parser.add_argument("--n-steps", type=int, default=48)
    parser.add_argument("--final-time", type=float, default=3.0)
    parser.add_argument(
        "--grid-size", type=int, default=41,
        help="snapshot grid is grid-size x grid-size over [-2, 2]^2",
    )
    parser.add_argument("--prefix", default="star")
    parser.add_argument(
        "--series", default="star_series.csv",
        help="CSV of the velocity and pressure histories at the "
        "observation points",
    )
    args = parser.parse_args()

    scheme = CQScheme(
        order=3,
        kappa=args.final_time / args.n_steps,
        n_steps=args.n_steps,
    )
    data = DirichletData(boundary_velocity, smoothness=4)
    result = run_simulation(
        BoundaryCurve.star(1.0, 0.3, 6),
        args.n_elements,
        "P0",
        ConstraintMode.none,
        scheme,
        data,
        OBSERVATION_POINTS,
        ProblemConfig(),
        assembly="reduced",
    )
    _write_series_csv(args.series, result)
    print(f"wrote {args.series}")
    speed = np.linalg.norm(result.velocity_series, axis=2)
    n_peak = int(speed.max(axis=1).argmax())
    print(
        f"peak observed speed {speed.max():.4f} at "
        f"t = {scheme.times()[n_peak]:.3f}"
    )

    n = args.grid_size
    dx = 4.0 / (n - 1)
    grid = GridSpec(-2.0, -2.0, dx, dx, n, n)
    steps = [k * args.n_steps // 4 for k in range(1, 5)]
    snap = field_snapshot(result, grid, steps)
    _write_snapshots(snap, args.prefix)
    for k, step in enumerate(steps):
        vort = np.where(snap.vorticity_mask, 0.0, snap.vorticity[k])
        print(
            f"step {step:4d}  t = {scheme.times()[step]:.3f}  "
            f"max |vorticity| = {np.abs(vort).max():.4f}"
        )
    print(f"wrote {4 * len(steps)} snapshot files with prefix "
          f"'{args.prefix}'")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
