#!/usr/bin/env python3
"""Convergence study on the unit square: discontinuous P1 densities,
Galerkin
assembly, the multiplier-augmented system, third-order time stepping.

Runs the ladder (N, M) = (4, 10) doubling to (64, 160) by default
(about 0.9 s on a 2-core VM), prints the error table, and writes it as CSV.  The
errors are measured at three points interior to the square at the
final time against the closed-form reference solution.  The corner
singularities of the square keep the observed velocity rate a little
below the smooth-boundary value of 3.

``--extended`` appends the (128, 320) row.  The stored convolution
weights hold the rows of one quarter of the square, its rotational
sector: L * N * 4N real numbers with L = M + 1 contour nodes, the
contour samples sharing their buffer, 168 MB there.  Measured on a
2-core VM with one BLAS thread, the extended run takes about 8 s and
peaks at about 227 MB; it runs in one process and forks nothing.
"""

import argparse

from stokesbem import BoundaryCurve, ConstraintMode, ProblemConfig
from stokesbem import manufactured_dirichlet_data
from stokesbem.cli import _converge_table_lines, _write_convergence_csv
from stokesbem.verification import SweepProblem, convergence_sweep

OBSERVATION_POINTS = [(-0.5, -0.5), (0.3, 0.7), (0.6, 0.2)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--extended", action="store_true",
        help="append the (128, 320) row (about 8 s, peak about 0.23 GB)",
    )
    parser.add_argument(
        "--output", default="convergence_square.csv",
        help="CSV output path (default: %(default)s)",
    )
    args = parser.parse_args()

    ladder = [(4, 10), (8, 20), (16, 40), (32, 80), (64, 160)]
    if args.extended:
        ladder.append((128, 320))

    problem = SweepProblem(
        curve=BoundaryCurve.square(1.0),
        kind="P1_discontinuous",
        constraint=ConstraintMode.multiplier_m,
        order=3,
        data=manufactured_dirichlet_data(),
        observation_points=OBSERVATION_POINTS,
        cfg=ProblemConfig(),
        assembly="galerkin",
    )
    records = convergence_sweep(problem, ladder)
    print("\n".join(_converge_table_lines(records)))
    _write_convergence_csv(args.output, records)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
