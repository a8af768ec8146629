"""Command-line front end: configs, experiment drivers, stable output.

Three subcommands drive the package from plain-text configuration:

* ``run <config>`` marches one transient problem and writes the
  observation series as CSV, optionally with grid snapshot files,
* ``converge <config>`` sweeps a refinement ladder and writes the
  error table as CSV next to an aligned text rendition,
* ``verify`` prints the operator property report and the measured
  time-stepping orders, exiting nonzero when any check fails.

Configs are line-oriented ``key = value`` text; ``#`` starts a
comment, keys may not repeat, and unknown keys are errors.  All
numeric output uses 17 significant digits so reruns of the same
config produce byte-identical files.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 failed verification property.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from typing import Callable

import numpy as np

from .bem_space import ConstraintMode, build_space
from .boundary_geometry import BoundaryCurve, build_mesh
from .cq_engine import CQScheme
from .laplace_kernels import ProblemConfig
from .stokes_solver import (
    DirichletData,
    GridSpec,
    field_snapshot,
    manufactured_dirichlet_data,
    run_simulation,
    snapshot_mask,
)
from .verification import (
    SweepProblem,
    convergence_sweep,
    cq_order_report,
    laplace_property_suite,
)

#: Token written for masked grid cells in snapshot files.
MASKED_TOKEN = "masked"

#: Mesh resolution of the canonical square space probed by ``verify``.
VERIFY_MESH_ELEMENTS = 12

USAGE = """usage: python3 -m stokesbem.cli <command> [args]

commands:
  run <config>       march one problem, write the observation CSV
  converge <config>  run a refinement ladder, write the error table
  verify             print the property report (exit 3 on failure)
"""


class ConfigError(Exception):
    """A configuration file problem; maps to exit code 1."""


def _fmt(x: float) -> str:
    """Decimal rendering with 17 significant digits."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# config parsing


def parse_key_values(path: str) -> dict[str, str]:
    """Read a ``key = value`` file into an ordered dict.

    Raises
    ------
    ConfigError
        For unreadable files, lines without ``=``, or repeated keys.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}")
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value', got {line!r}"
            )
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: repeated key {key!r}")
        out[key] = value
    return out


def _take(raw: dict[str, str], key: str, default: str | None = None) -> str:
    if key in raw:
        return raw.pop(key)
    if default is None:
        raise ConfigError(f"missing required key {key!r}")
    return default


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"key {key!r} needs an integer, got {value!r}")


def _parse_float(key: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"key {key!r} needs a number, got {value!r}")
    if not np.isfinite(number):
        raise ConfigError(f"key {key!r} needs a finite number, got {value!r}")
    return number


def _parse_choice(key: str, value: str, choices: dict):
    if value not in choices:
        raise ConfigError(
            f"key {key!r} must be one of {sorted(choices)}, got {value!r}"
        )
    return choices[value]


def _parse_pairs(key: str, value: str) -> np.ndarray:
    """Semicolon-separated ``x,y`` pairs into an ``(K, 2)`` array."""
    pairs = []
    for chunk in value.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(
                f"key {key!r}: expected 'x,y' pairs separated by ';', "
                f"got {chunk!r}"
            )
        pairs.append([_parse_float(key, p.strip()) for p in parts])
    if not pairs:
        raise ConfigError(f"key {key!r} lists no pairs")
    return np.asarray(pairs)


def _require_directory(key: str, path: str) -> str:
    """``path`` itself, if the directory it names a file in exists."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ConfigError(
            f"key {key!r}: directory {folder!r} of {path!r} does not exist"
        )
    return path


def _build_curve(raw: dict[str, str]) -> BoundaryCurve:
    kind = _take(raw, "curve")
    if kind == "circle":
        return BoundaryCurve.circle(
            _parse_float("radius", _take(raw, "radius", "1.0"))
        )
    if kind == "square":
        return BoundaryCurve.square(
            _parse_float("half_width", _take(raw, "half_width", "1.0"))
        )
    if kind == "star":
        return BoundaryCurve.star(
            base_radius=_parse_float(
                "base_radius", _take(raw, "base_radius", "1.0")
            ),
            amplitude=_parse_float(
                "amplitude", _take(raw, "amplitude", "0.3")
            ),
            lobes=_parse_int("lobes", _take(raw, "lobes", "6")),
        )
    raise ConfigError(
        f"key 'curve' must be one of ['circle', 'square', 'star'], "
        f"got {kind!r}"
    )


_CONSTRAINTS = {mode.value: mode for mode in ConstraintMode}

_DATA_CHOICES: dict[str, Callable[[], DirichletData]] = {
    "manufactured": manufactured_dirichlet_data,
    "zero": lambda: DirichletData(
        boundary_values=lambda t, pos: np.zeros(pos.shape)
    ),
}


def _build_time(raw: dict[str, str]) -> tuple[int, float]:
    """The BDF ``order`` and the positive ``final_time`` of a config."""
    order = _parse_int("order", _take(raw, "order", "3"))
    final_time = _parse_float("final_time", _take(raw, "final_time", "1.0"))
    if not final_time > 0.0:
        raise ConfigError("key 'final_time' must be positive")
    return order, final_time


def _build_problem(raw: dict[str, str]) -> dict:
    """Parse the keys that ``run`` and ``converge`` configs share, as
    keyword arguments of both ``RunConfig`` and ``SweepProblem``."""
    curve = _build_curve(raw)
    kind = _take(raw, "space", "P0")
    constraint = _parse_choice(
        "constraint", _take(raw, "constraint", "none"), _CONSTRAINTS
    )
    assembly = _take(raw, "assembly", "galerkin")
    if assembly not in ("galerkin", "reduced"):
        raise ConfigError(
            f"key 'assembly' must be 'galerkin' or 'reduced', "
            f"got {assembly!r}"
        )
    data = _parse_choice("data", _take(raw, "data", "manufactured"),
                         _DATA_CHOICES)()
    obs = _parse_pairs("observation_points", _take(raw, "observation_points"))
    cfg = ProblemConfig(nu=_parse_float(
        "viscosity", _take(raw, "viscosity", "1.0")))
    return dict(curve=curve, kind=kind, constraint=constraint,
                assembly=assembly, data=data, observation_points=obs, cfg=cfg)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully validated ingredients of one ``run`` invocation."""

    curve: BoundaryCurve
    n_elements: int
    kind: str
    constraint: ConstraintMode
    assembly: str
    scheme: CQScheme
    data: DirichletData
    observation_points: np.ndarray
    cfg: ProblemConfig
    output: str
    snapshot_steps: tuple[int, ...]
    snapshot_grid: GridSpec | None
    snapshot_prefix: str


def build_run_config(raw: dict[str, str]) -> RunConfig:
    """Validate raw keys into a RunConfig; every value is constructed
    here so component preconditions fire before any assembly work."""
    problem = _build_problem(raw)
    order, final_time = _build_time(raw)
    n_steps = _parse_int("n_steps", _take(raw, "n_steps"))
    if n_steps < 1:
        raise ConfigError(f"key 'n_steps' must be at least 1, got {n_steps}")
    scheme = CQScheme(order, final_time / n_steps, n_steps)
    n_elements = _parse_int("n_elements", _take(raw, "n_elements"))
    output = _require_directory("output", _take(raw, "output", "series.csv"))

    steps_text = _take(raw, "snapshot_steps", "")
    snapshot_steps = tuple(
        _parse_int("snapshot_steps", tok) for tok in steps_text.split()
    )
    for step in snapshot_steps:
        if not 0 <= step <= scheme.n_steps:
            raise ConfigError(
                f"key 'snapshot_steps' needs steps in 0..{scheme.n_steps}, "
                f"got {step}"
            )
    grid_text = _take(raw, "snapshot_grid", "")
    snapshot_grid = None
    if grid_text:
        parts = grid_text.split()
        if len(parts) != 6:
            raise ConfigError(
                "key 'snapshot_grid' needs 'x0 y0 dx dy n_rows n_cols'"
            )
        snapshot_grid = GridSpec(
            x0=_parse_float("snapshot_grid", parts[0]),
            y0=_parse_float("snapshot_grid", parts[1]),
            dx=_parse_float("snapshot_grid", parts[2]),
            dy=_parse_float("snapshot_grid", parts[3]),
            n_rows=_parse_int("snapshot_grid", parts[4]),
            n_cols=_parse_int("snapshot_grid", parts[5]),
        )
    if bool(snapshot_steps) != (snapshot_grid is not None):
        raise ConfigError(
            "'snapshot_steps' and 'snapshot_grid' must be given together"
        )
    if snapshot_grid is not None:
        # a grid with nothing to evaluate fails here, before the run
        snapshot_mask(build_mesh(problem["curve"], n_elements), snapshot_grid)
    prefix = _require_directory("snapshot_prefix",
                                _take(raw, "snapshot_prefix", "snap"))
    if raw:
        raise ConfigError(f"unknown keys: {sorted(raw)}")
    return RunConfig(
        **problem,
        n_elements=n_elements,
        scheme=scheme,
        output=output,
        snapshot_steps=snapshot_steps,
        snapshot_grid=snapshot_grid,
        snapshot_prefix=prefix,
    )


def _build_sweep(raw: dict[str, str]) -> tuple[SweepProblem, list, str]:
    """Validate raw keys of a ``converge`` config."""
    problem = _build_problem(raw)
    order, final_time = _build_time(raw)
    ladder_pairs = _parse_pairs("ladder", _take(raw, "ladder"))
    ladder = [(int(n), int(m)) for n, m in ladder_pairs]
    for (n, m), row in zip(ladder, ladder_pairs):
        if n != row[0] or m != row[1]:
            raise ConfigError("key 'ladder' needs integer 'N,M' pairs")
    output = _require_directory("output",
                                _take(raw, "output", "convergence.csv"))
    if raw:
        raise ConfigError(f"unknown keys: {sorted(raw)}")
    sweep = SweepProblem(**problem, order=order, final_time=final_time)
    return sweep, ladder, output


# ---------------------------------------------------------------------------
# output writers


def _write_series_csv(path: str, result) -> None:
    times = result.scheme.times()
    lines = ["step,time,point_id,ux,uy,p"]
    for n in range(result.scheme.n_steps + 1):
        for k in range(result.observation_points.shape[0]):
            ux, uy = result.velocity_series[n, k]
            p = result.pressure_series[n, k]
            lines.append(
                f"{n},{_fmt(times[n])},{k},{_fmt(ux)},{_fmt(uy)},{_fmt(p)}"
            )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _write_snapshot_field(
    path: str, grid: GridSpec, values: np.ndarray, invalid: np.ndarray
) -> None:
    header = (
        f"{grid.n_rows} {grid.n_cols} {_fmt(grid.x0)} {_fmt(grid.y0)} "
        f"{_fmt(grid.dx)} {_fmt(grid.dy)}"
    )
    lines = [header]
    for i in range(grid.n_rows):
        tokens = [
            MASKED_TOKEN if invalid[i, j] else _fmt(values[i, j])
            for j in range(grid.n_cols)
        ]
        lines.append(" ".join(tokens))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _write_snapshots(snap, prefix: str) -> None:
    """One file ``<prefix>_<field>_<step>.txt`` per field and step."""
    for k, step in enumerate(snap.step_indices):
        fields = (
            ("ux", snap.velocity[k, :, :, 0], snap.mask),
            ("uy", snap.velocity[k, :, :, 1], snap.mask),
            ("p", snap.pressure[k], snap.mask),
            ("vorticity", snap.vorticity[k], snap.vorticity_mask),
        )
        for name, values, invalid in fields:
            _write_snapshot_field(f"{prefix}_{name}_{step}.txt", snap.grid,
                                  values, invalid)


def _converge_table_lines(records) -> list[str]:
    out = [
        f"{'N':>6s} {'M':>6s} {'errU':>12s} {'ecrU':>6s} "
        f"{'errP':>12s} {'ecrP':>6s}"
    ]
    for rec in records:
        ecr_u = "--" if rec.ecr_u is None else f"{rec.ecr_u:.2f}"
        ecr_p = "--" if rec.ecr_p is None else f"{rec.ecr_p:.2f}"
        out.append(
            f"{rec.n_elements:>6d} {rec.n_steps:>6d} {rec.err_u:>12.4e} "
            f"{ecr_u:>6s} {rec.err_p:>12.4e} {ecr_p:>6s}"
        )
    return out


def _write_convergence_csv(path: str, records) -> None:
    lines = ["N,M,errU,ecrU,errP,ecrP"]
    for rec in records:
        ecr_u = "" if rec.ecr_u is None else _fmt(rec.ecr_u)
        ecr_p = "" if rec.ecr_p is None else _fmt(rec.ecr_p)
        lines.append(
            f"{rec.n_elements},{rec.n_steps},{_fmt(rec.err_u)},{ecr_u},"
            f"{_fmt(rec.err_p)},{ecr_p}"
        )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_run(config_path: str) -> int:
    """March one problem per the config; write CSV and snapshots."""
    config = build_run_config(parse_key_values(config_path))
    result = run_simulation(
        config.curve,
        config.n_elements,
        config.kind,
        config.constraint,
        config.scheme,
        config.data,
        config.observation_points,
        config.cfg,
        assembly=config.assembly,
    )
    _write_series_csv(config.output, result)
    if config.snapshot_steps:
        snap = field_snapshot(result, config.snapshot_grid,
                              config.snapshot_steps)
        _write_snapshots(snap, config.snapshot_prefix)
    return 0


def cmd_converge(config_path: str) -> int:
    """Sweep the config's ladder; write and print the error table."""
    problem, ladder, output = _build_sweep(parse_key_values(config_path))
    records = convergence_sweep(problem, ladder)
    _write_convergence_csv(output, records)
    print("\n".join(_converge_table_lines(records)))
    return 0


def cmd_verify() -> int:
    """Print the operator and time-stepping property report."""
    space = build_space(
        build_mesh(BoundaryCurve.square(1.0), VERIFY_MESH_ELEMENTS),
        "P1_discontinuous",
    )
    operator_report = laplace_property_suite(space)
    order_report = cq_order_report()
    checks = operator_report.checks + order_report.checks
    for line in operator_report.lines() + order_report.lines():
        print(line)
    n_passed = sum(c.passed for c in checks)
    print(f"{n_passed}/{len(checks)} properties passed")
    if n_passed != len(checks):
        return 3
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the exit code."""
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        if not args:
            raise ConfigError("no command given\n" + USAGE)
        command, rest = args[0], args[1:]
        if command == "run":
            if len(rest) != 1:
                raise ConfigError("run needs exactly one config path")
            return cmd_run(rest[0])
        if command == "converge":
            if len(rest) != 1:
                raise ConfigError("converge needs exactly one config path")
            return cmd_converge(rest[0])
        if command == "verify":
            if rest:
                raise ConfigError("verify takes no arguments")
            return cmd_verify()
        raise ConfigError(f"unknown command {command!r}\n" + USAGE)
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
