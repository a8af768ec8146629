#!/usr/bin/env python3
"""Convergence study on the unit circle: P0 densities, reduced
integration, third-order time stepping.

Runs the ladder N = M in {20, 40, 80, 160} by default (about 0.5 s on a
2-core VM), prints the error table, and writes it as CSV.  The errors are
measured at three points interior to the circle at the final time
against the closed-form reference solution; both rates should settle
near 3.

``--extended`` appends the (320, 320) row.  The stored convolution
weights hold the rows of one element, the circle's rotational sector:
L * 2 * 2N real numbers with L = M + 1 contour nodes, the contour
samples sharing their buffer, 3.3 MB at 320.  Measured on a 2-core VM
with one BLAS thread, the extended run takes about 2.0 to 2.4 s and
peaks at about 73 MB; it runs in one process and forks nothing.  Its errP
prints anywhere from 1.3157e-06 to 1.3162e-06 under rounding-level
changes of the leading solve (the inverse, the BLAS threads), so the row is
checked by its rates, 2.7 to 3.3, not by its fourth digit.
"""

import argparse

from stokesbem import BoundaryCurve, ConstraintMode, ProblemConfig
from stokesbem import manufactured_dirichlet_data
from stokesbem.cli import _converge_table_lines, _write_convergence_csv
from stokesbem.verification import SweepProblem, convergence_sweep

OBSERVATION_POINTS = [(0.0, 0.0), (0.5, 0.5), (-0.6, 0.1)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--extended", action="store_true",
        help="append the (320, 320) row (about 2.2 s, peak about 73 MB)",
    )
    parser.add_argument(
        "--output", default="convergence_circle.csv",
        help="CSV output path (default: %(default)s)",
    )
    args = parser.parse_args()

    ladder = [(20, 20), (40, 40), (80, 80), (160, 160)]
    if args.extended:
        ladder.append((320, 320))

    problem = SweepProblem(
        curve=BoundaryCurve.circle(1.0),
        kind="P0",
        constraint=ConstraintMode.none,
        order=3,
        data=manufactured_dirichlet_data(),
        observation_points=OBSERVATION_POINTS,
        cfg=ProblemConfig(),
        assembly="reduced",
    )
    records = convergence_sweep(problem, ladder)
    print("\n".join(_converge_table_lines(records)))
    _write_convergence_csv(args.output, records)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
