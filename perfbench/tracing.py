"""Spans around the calls one module makes into the next, and the
per-layer metrics derived from them.

The package is not instrumented; ``Tracer.install`` replaces the names
through which one module reaches another (``stokes_solver.cq_weights``,
``bem_space._ab2``, ...) with wrappers that record a span
``[name, start, end, parent]`` per call and a few counts.  Spans stay
in memory until the run ends.  A name missing from the package (after a
refactor) raises ``AttributeError``, so that the traced repetition
fails instead of reporting 0 for the layer.
"""

from __future__ import annotations

import collections
import functools
import importlib
import time

import numpy as np

#: |z| radii of the package's kernel branches when this benchmark was
#: written: A_2/B_2 series up to 0.5, then K_0/K_1 by ascending series up
#: to 4, by continued fraction below 30 and by the asymptotic expansion
#: beyond (arguments with Re z > 745, which underflow to 0, count as
#: asymptotic).  Fixed here so that the argument mix stays comparable
#: when the package's own branches change.
BRANCH_RADII = (0.5, 4.0, 30.0)
BRANCHES = ("ab2_series", "k01_series", "k01_cf", "k01_asym")

ROOT_SPAN = "workload"
#: largest share of the traced wall_s the root's child spans may leave
#: uncovered before the traced repetition counts as failed
MAX_UNCOVERED_PCT = 5.0


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []

    def wrap(self, fn, name, before=None, after=None):
        """``fn`` recording a span ``name`` per call.

        ``before(args, kwargs)`` may return replacement ``(args,
        kwargs)``; ``after(result, args, kwargs)`` sees the result.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs) or (args, kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def root(self, fn):
        """``fn`` as the root span, the traced ``wall_s``."""
        return self.wrap(fn, ROOT_SPAN)

    def install(self) -> None:
        """Wrap the inter-module names of the package in place."""
        counts = self.counts

        def count_kernel_args(args, kwargs):
            mag = np.abs(np.asarray(args[0]))
            n_series = int(np.count_nonzero(mag <= BRANCH_RADII[0]))
            n_low = int(np.count_nonzero(mag <= BRANCH_RADII[1]))
            n_mid = int(np.count_nonzero(mag < BRANCH_RADII[2]))
            counts["ab2_series"] += n_series
            counts["k01_series"] += n_low - n_series
            counts["k01_cf"] += n_mid - n_low
            counts["k01_asym"] += mag.size - n_mid

        def count_pr2_args(args, kwargs):
            counts["pr2_series"] += np.asarray(args[0]).size

        def count_points(args, kwargs):
            points = args[3] if len(args) > 3 else kwargs["points"]
            points = np.atleast_2d(np.asarray(points))
            counts["potential_points"] += points.shape[0]

        def count_nodes(args, kwargs):
            transfer, *rest = args

            def counted(s):
                counts["contour_nodes"] += 1
                return transfer(s)

            return (counted, *rest), kwargs

        def weight_bytes(result, args, kwargs):
            # (M+1) dof^2 8 of the boundary operator's weights, dof the
            # order of its (possibly bordered) matrix; largest over calls
            scheme = args[1] if len(args) > 1 else kwargs["scheme"]
            dof = np.shape(result.weights)[-1]
            counts["weight_bytes"] = max(counts["weight_bytes"],
                                         (scheme.n_steps + 1) * dof * dof * 8)

        def snapshot_points(result, args, kwargs):
            counts["snapshot_points"] += int(np.count_nonzero(~result.mask))

        plan = [
            ("stokesbem", "run_simulation", "stokes_solver.run_simulation", {}),
            ("stokesbem", "field_snapshot", "stokes_solver.field_snapshot",
             dict(after=snapshot_points)),
            ("stokesbem.verification", "run_simulation",
             "stokes_solver.run_simulation", {}),
            ("stokesbem.stokes_solver", "assemble_nystrom_V", "bem_space.assemble_V", {}),
            ("stokesbem.stokes_solver", "assemble_galerkin_V", "bem_space.assemble_V", {}),
            ("stokesbem.stokes_solver", "cq_weights", "cq_engine.weights",
             dict(before=count_nodes, after=weight_bytes)),
            ("stokesbem.cq_engine", "cq_weights", "cq_engine.weights",
             dict(before=count_nodes)),
            ("stokesbem.stokes_solver", "cq_march", "cq_engine.march", {}),
            ("stokesbem.stokes_solver", "cq_postprocess", "cq_engine.postprocess", {}),
            ("stokesbem.stokes_solver", "potential_velocity_matrix",
             "bem_space.potential_velocity", dict(before=count_points)),
            ("stokesbem.stokes_solver", "potential_pressure_matrix",
             "bem_space.potential_pressure", {}),
            ("stokesbem.stokes_solver", "data_functional", "bem_space.data_functional", {}),
            ("stokesbem.bem_space", "_ab2", "laplace_kernels.ab2",
             dict(before=count_kernel_args)),
            ("stokesbem.bem_space", "_pr2", "laplace_kernels.pr2",
             dict(before=count_pr2_args)),
        ]
        for module_name, attr, span_name, hooks in plan:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(getattr(module, attr), span_name, **hooks))


def span_times(spans) -> tuple[dict, dict, dict]:
    """Total time, self time and call count per span name."""
    durations = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for (_, _, _, parent), dur in zip(spans, durations):
        if parent >= 0:
            child[parent] += dur
    total = collections.defaultdict(float)
    own = collections.defaultdict(float)
    calls = collections.Counter()
    for (name, _, _, _), dur, sub in zip(spans, durations, child):
        total[name] += dur
        own[name] += dur - sub
        calls[name] += 1
    return total, own, calls


def layer_metrics(spans, counts) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced repetition: name -> (value, unit)."""
    total, own, calls = span_times(spans)
    roots = {i for i, span in enumerate(spans) if span[3] == -1}
    wall = sum(spans[i][2] - spans[i][1] for i in roots)
    covered = sum(end - start for _, start, end, parent in spans
                  if parent in roots)
    n_assemble = calls["bem_space.assemble_V"]
    n_points = counts["potential_points"]
    n_cells = counts["snapshot_points"]
    metrics = {f"laplace_kernels.args.{b}": (counts[b], "count") for b in BRANCHES}
    metrics.update({
        "laplace_kernels.args.pr2_series": (counts["pr2_series"], "count"),
        "laplace_kernels.self_s":
            (own["laplace_kernels.ab2"] + own["laplace_kernels.pr2"], "s"),
        "bem_space.assemble_V.calls": (n_assemble, "count"),
        "bem_space.assemble_V.self_s": (own["bem_space.assemble_V"], "s"),
        "bem_space.assemble_V.ms_per_call":
            (1e3 * total["bem_space.assemble_V"] / max(n_assemble, 1), "ms"),
        "bem_space.potential_velocity.calls":
            (calls["bem_space.potential_velocity"], "count"),
        "bem_space.potential_velocity.self_s":
            (own["bem_space.potential_velocity"], "s"),
        "bem_space.potential_velocity.us_per_point_freq":
            (1e6 * total["bem_space.potential_velocity"] / max(n_points, 1), "us"),
        "bem_space.potential_pressure.s": (total["bem_space.potential_pressure"], "s"),
        "bem_space.data_functional.s": (total["bem_space.data_functional"], "s"),
        "stokes_solver.field_snapshot.self_s":
            (own["stokes_solver.field_snapshot"], "s"),
        "stokes_solver.field_snapshot.us_per_point":
            (1e6 * total["stokes_solver.field_snapshot"] / max(n_cells, 1), "us"),
        "stokes_solver.run_simulation.self_s":
            (own["stokes_solver.run_simulation"], "s"),
        "cq_engine.weights.self_s": (own["cq_engine.weights"], "s"),
        "cq_engine.march.s": (total["cq_engine.march"], "s"),
        "cq_engine.postprocess.self_s": (own["cq_engine.postprocess"], "s"),
        "cq_engine.contour_nodes": (counts["contour_nodes"], "count"),
        "cq_engine.weight_bytes": (counts["weight_bytes"], "B_computed"),
        "trace.wall_s": (wall, "s"),
        "trace.uncovered_s": (wall - covered, "s"),
        "trace.uncovered_pct": (100.0 * (wall - covered) / wall, "%"),
    })
    return metrics
