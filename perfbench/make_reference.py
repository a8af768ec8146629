#!/usr/bin/env python3
"""Regenerate the stored star-snapshot references.

Writes ``reference/star-fine.npz`` (observation histories at N = 192,
M = 96, the solution the star errors are measured against) and one
``reference/star-snapshot-<scale>.npz`` per scale with the histories,
the four snapshot fields, the masks and the unmasked cell count.

Run from the repository root only when the reference itself must
change, and say why in the change that does it:

    python3 perfbench/make_reference.py
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    fine = workloads.star_run(*workloads.STAR_FINE)
    np.savez_compressed(workloads.FINE_PATH,
                        velocity_series=fine.velocity_series,
                        pressure_series=fine.pressure_series)
    print(f"wrote {workloads.FINE_PATH}")
    for scale in workloads.SCALES:
        n_elements, n_steps, grid_size = workloads.STAR_SIZES[scale]
        result = workloads.star_run(n_elements, n_steps)
        snap = workloads.star_snapshot(result, grid_size)
        fields = workloads.star_fields(result, snap)
        path = workloads.reference_path(scale)
        np.savez_compressed(path, n_unmasked=int((~snap.mask).sum()), **fields)
        print(f"wrote {path}: {int((~snap.mask).sum())} unmasked cells")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
