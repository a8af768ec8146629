"""Transient Stokes flow driver: data sampling, marching, observables.

Solves the Dirichlet problem for the transient Stokes system

    u_t = nu Lap u - grad p,    div u = 0,    u = phi on Gamma,

starting from rest, with a single-layer ansatz for the pair ``(u, p)``.
In the Laplace domain the boundary density solves ``V(s) lam = phi-hat``
and the fields are recovered through the potential operators,
``u-hat = S(s) lam`` and ``p-hat = S_p lam``.  Multistep convolution
quadrature turns the density equation into the implicit recurrence

    W_0 lam_n = phi_n - sum_{m=1}^{n} W_m lam_{n-m},

with ``W_m`` the weights of the transfer ``s -> V(s)`` and ``phi_n`` the
Dirichlet trace at ``t_n`` tested against the boundary basis.  Velocity
observables convolve the weights of the potential transfer
``s -> S(s)`` against the density history; the pressure kernel carries
no frequency dependence, so the pressure observable is one fixed matrix
applied to each ``lam_n`` separately.

Gauge constraints (the operator kernel spanned by the normal field)
do not depend on the frequency, so their weight expansion is
``C delta_{m0}`` and they enter ``W_0`` alone.  Weights are generated
for the plain density block, and the march takes the solve of
:func:`stokesbem.bem_space.constrain` of ``W_0`` alone, factored once.
With a border the recurrence enforces ``<lam_n, m> = 0`` at every step
while the multiplier acts instantaneously, never entering the
convolution tail.

A rotation of order ``m`` maps every mesh onto itself, and ``V(s)``, so
every weight, is fixed by the rows of its first sector.  Only those
``r = dof / m`` rows are sampled and transformed, ``L r dof`` reals in
all.  One group object, :class:`stokesbem.bem_space.SectorAction`,
does the rest: it fills the whole ``W_0`` once for the factored system
(:func:`stokesbem.bem_space.unfold`), the march applies the later
weights through its rotations, and the observation pass evaluates one
point per orbit of its rotations and reflections and turns the rest by
it too; this module applies no rotation or reflection of its own.
"""

from __future__ import annotations

import dataclasses
import math
import mmap
import os
from typing import Callable

import numpy as np

from .bem_space import (
    ConstraintMode,
    DensitySpace,
    assemble_galerkin_V,
    assemble_nystrom_V,
    build_space,
    check_observation_points,
    constrain,
    data_functional,
    factor,
    potential_node_bytes,
    potential_pressure_matrix,
    potential_velocity_matrix,
    sector_action,
    unfold,
)
from ._checks import count, length
from ._quadrature import panel_gauss
from .boundary_geometry import (
    BoundaryCurve,
    BoundaryMesh,
    build_mesh,
)
from .cq_engine import (
    _SAMPLE_BLOCK_BYTES,
    CQScheme,
    cq_march,
    cq_postprocess,
    cq_weights,
)
from .laplace_kernels import ProblemConfig

__all__ = [
    "DATA_COMPATIBILITY_TOL",
    "DATA_CAUSALITY_TOL",
    "MASK_SENTINEL",
    "DirichletData",
    "GridSpec",
    "FieldSnapshot",
    "SimulationResult",
    "exact_solution",
    "manufactured_dirichlet_data",
    "inside_obstacle",
    "run_simulation",
    "snapshot_mask",
    "field_snapshot",
]

# Bound on |int_Gamma phi(t_n) . n ds| relative to max(1, max |phi|): the
# single-layer velocity has zero total flux through Gamma, so data with
# net flux is outside the range of the operator and the solve would
# chase an inconsistent right-hand side.
DATA_COMPATIBILITY_TOL = 1e-8

# Bound on |phi| at t <= 0 relative to max(1, max |phi|); the scheme
# starts from rest, so non-causal data contradicts the ansatz.
DATA_CAUSALITY_TOL = 1e-12

# Value stored in snapshot arrays at masked grid cells.  A finite
# sentinel keeps accidental arithmetic on masked cells finite (no NaN
# propagation); consumers must consult the mask, not the value.
MASK_SENTINEL = -1.0e30

# Gauss order and minimum panel count of the composite flux rule used
# for the compatibility check; panels align with polygon corners.
FLUX_RULE_ORDER = 8
FLUX_MIN_PANELS = 64

# Memory cap (bytes) for one block of points in the field evaluation of
# observation points and snapshot cells alike: the velocity-potential
# weights, the potential matrix of one contour node, the postprocess
# product, the velocity and pressure rows and the potential clouds,
# counted per point; points are processed in blocks under it.  A block
# whose points are spread over processes divides these among them, each
# holding its own points' share.
SNAPSHOT_WEIGHT_BYTES = 1 << 28

@dataclasses.dataclass(frozen=True)
class DirichletData:
    """Causal velocity trace prescribed on the boundary.

    Attributes
    ----------
    boundary_values:
        Callback ``(t, positions) -> values`` mapping a time and an
        array of points of shape ``(..., 2)`` to real velocity vectors
        of the same shape.
    smoothness:
        Number of continuous causal time derivatives the caller
        guarantees at ``t = 0``; full order-``p`` convergence of the
        time discretization needs roughly ``p + 1``.
    """

    boundary_values: Callable[[float, np.ndarray], np.ndarray]
    smoothness: int = 0

    def __post_init__(self) -> None:
        if not callable(self.boundary_values):
            raise ValueError("boundary_values must be callable")
        count("smoothness", self.smoothness, 0)

    def sample(self, t: float, positions: np.ndarray) -> np.ndarray:
        """Evaluate the trace, validating shape, realness and finiteness."""
        vals = np.asarray(self.boundary_values(float(t), positions))
        if vals.shape != positions.shape:
            raise ValueError(
                f"data callback returned shape {vals.shape} for positions "
                f"of shape {positions.shape}"
            )
        if np.iscomplexobj(vals):
            raise ValueError("Dirichlet data must be real valued")
        if not np.isfinite(vals).all():
            raise ValueError(f"Dirichlet data is not finite at t = {t:.6g}")
        return np.asarray(vals, dtype=float)


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """Uniform evaluation lattice ``x_j = x0 + j dx``, ``y_i = y0 + i dy``.

    Attributes
    ----------
    x0, y0:
        Finite coordinates of the first lattice point (row 0, column 0).
    dx, dy:
        Positive, finite lattice spacings.
    n_rows, n_cols:
        Integer lattice extent; at least 2 in each direction so finite
        differences are defined.
    """

    x0: float
    y0: float
    dx: float
    dy: float
    n_rows: int
    n_cols: int

    def __post_init__(self) -> None:
        if not np.isfinite([self.x0, self.y0]).all():
            raise ValueError(
                f"grid origin must be finite, got x0={self.x0}, y0={self.y0}"
            )
        length("dx", self.dx)
        length("dy", self.dy)
        count("n_rows", self.n_rows, 2)
        count("n_cols", self.n_cols, 2)

    def points(self) -> np.ndarray:
        """Lattice points, shape ``(n_rows, n_cols, 2)``."""
        x = self.x0 + self.dx * np.arange(self.n_cols)
        y = self.y0 + self.dy * np.arange(self.n_rows)
        out = np.empty((self.n_rows, self.n_cols, 2))
        out[..., 0] = x[None, :]
        out[..., 1] = y[:, None]
        return out


@dataclasses.dataclass(frozen=True)
class FieldSnapshot:
    """Velocity, pressure, and vorticity on a grid at selected steps.

    Attributes
    ----------
    grid:
        The lattice the fields live on.
    step_indices:
        Time-step indices the snapshot was taken at, shape ``(K,)``.
    times:
        The corresponding times ``t_n``.
    mask:
        Boolean ``(n_rows, n_cols)``; True marks cells within one
        minimal element length of the boundary, where the potential
        quadrature degrades.  Masked cells hold ``MASK_SENTINEL`` in
        every field array.
    velocity:
        ``(K, n_rows, n_cols, 2)`` real.
    pressure:
        ``(K, n_rows, n_cols)`` real.
    vorticity:
        ``(K, n_rows, n_cols)`` real, central differences of the
        velocity with one-sided fallback next to masked cells.
    vorticity_mask:
        Cells where no difference stencil fit (masked, or no valid
        neighbor along one axis).
    """

    grid: GridSpec
    step_indices: np.ndarray
    times: np.ndarray
    mask: np.ndarray
    velocity: np.ndarray
    pressure: np.ndarray
    vorticity: np.ndarray
    vorticity_mask: np.ndarray


@dataclasses.dataclass(frozen=True)
class SimulationResult:
    """Everything one transient solve produces.

    Attributes
    ----------
    space:
        The discrete density space (carries mesh and curve).
    scheme:
        Time discretization parameters.
    cfg:
        Physical configuration (viscosity, dimension).
    observation_points:
        ``(K, 2)`` evaluation points off the boundary.
    history:
        ``(M + 1, dof)`` density coefficients per step;
        ``scheme.times()`` is its time axis.
    velocity_series:
        ``(M + 1, K, 2)`` velocities at the observation points.
    pressure_series:
        ``(M + 1, K)`` pressures at the observation points.
    """

    space: DensitySpace
    scheme: CQScheme
    cfg: ProblemConfig
    observation_points: np.ndarray
    history: np.ndarray
    velocity_series: np.ndarray
    pressure_series: np.ndarray

    def __post_init__(self) -> None:
        n = self.scheme.n_steps + 1
        k = self.observation_points.shape[0]
        if self.history.shape[0] != n:
            raise ValueError("history length does not match the scheme")
        if self.velocity_series.shape != (n, k, 2):
            raise ValueError(
                f"velocity series must have shape {(n, k, 2)}, got "
                f"{self.velocity_series.shape}"
            )
        if self.pressure_series.shape != (n, k):
            raise ValueError(
                f"pressure series must have shape {(n, k)}, got "
                f"{self.pressure_series.shape}"
            )


def exact_solution(t: float, points) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form causal Stokes solution used by the convergence studies.

    .. math::

        u(t, x) = \\sin^9(t)\\, H(t) \\begin{pmatrix} 2 x_1 \\\\
            -2 x_2 \\end{pmatrix}, \\qquad
        p(t, x) = -9 \\sin^8(t) \\cos(t)\\, H(t) (x_1^2 - x_2^2),

    with ``H`` the Heaviside function.  The field is linear in space,
    so ``Lap u = 0`` and the pair solves the transient Stokes system
    for every viscosity; it is divergence free, hence compatible data.

    Parameters
    ----------
    t:
        Evaluation time; nonpositive times return zeros.
    points:
        Array of shape ``(..., 2)``.

    Returns
    -------
    tuple of numpy.ndarray
        Velocity of shape ``(..., 2)`` and pressure of shape ``(...)``.
    """
    pts = np.asarray(points, dtype=float)
    u = np.zeros(pts.shape)
    p = np.zeros(pts.shape[:-1])
    if t <= 0.0:
        return u, p
    amp = np.sin(t) ** 9
    u[..., 0] = 2.0 * amp * pts[..., 0]
    u[..., 1] = -2.0 * amp * pts[..., 1]
    p = -9.0 * np.sin(t) ** 8 * np.cos(t) * (pts[..., 0] ** 2 - pts[..., 1] ** 2)
    return u, p


def manufactured_dirichlet_data() -> DirichletData:
    """Trace of the manufactured solution (eight causal derivatives)."""
    return DirichletData(
        boundary_values=lambda t, pos: exact_solution(t, pos)[0],
        smoothness=8,
    )


def _flux_rule(curve: BoundaryCurve, n_elements: int):
    """Composite Gauss rule for boundary integrals in exact parameters.

    Panels are a multiple of 4 so polygon corners land on panel edges;
    returns positions, tangential velocities, and the combined quadrature
    weights (Gauss weight times panel width) at the flat nodes.
    """
    n_panels = max(FLUX_MIN_PANELS, 4 * n_elements)
    theta, weights = panel_gauss(FLUX_RULE_ORDER,
                                 np.linspace(0.0, 1.0, n_panels + 1))
    return curve.point(theta), curve.velocity(theta), weights


def _check_data_admissible(
    data: DirichletData, curve: BoundaryCurve, n_elements: int, scheme: CQScheme
) -> None:
    """Causality at t <= 0 and zero net flux at every sample time.

    The flux uses the exact parametrization, ``n ds = (x2', -x1') d
    theta`` for the counterclockwise curves of this package, so
    divergence-free data passes at quadrature accuracy regardless of
    the mesh's discrete normals.
    """
    pos, vel, weights = _flux_rule(curve, n_elements)
    peak = 0.0
    fluxes = np.empty(scheme.n_steps + 1)
    for n, t in enumerate(scheme.times()):
        vals = data.sample(t, pos)
        peak = max(peak, float(np.abs(vals).max()))
        integrand = vals[..., 0] * vel[..., 1] - vals[..., 1] * vel[..., 0]
        fluxes[n] = float((integrand * weights).sum())
    scale = max(1.0, peak)
    worst = int(np.argmax(np.abs(fluxes)))
    if abs(fluxes[worst]) > DATA_COMPATIBILITY_TOL * scale:
        raise ValueError(
            f"Dirichlet data has net boundary flux {fluxes[worst]:.3e} at "
            f"t = {scheme.times()[worst]:.6g}; the single-layer velocity "
            "is flux free, so the data is incompatible"
        )
    for t in (0.0, -scheme.kappa):
        vals = data.sample(t, pos)
        if np.abs(vals).max() > DATA_CAUSALITY_TOL * scale:
            raise ValueError(
                f"Dirichlet data is not causal: |phi| = "
                f"{np.abs(vals).max():.3e} at t = {t:.6g}"
            )


def run_simulation(
    curve: BoundaryCurve,
    n_elements: int,
    kind: str,
    constraint: ConstraintMode | str,
    scheme: CQScheme,
    data: DirichletData,
    observation_points,
    cfg: ProblemConfig,
    *,
    assembly: str = "galerkin",
) -> SimulationResult:
    """Run the full pipeline: sample, march, and observe.

    Parameters
    ----------
    curve, n_elements, kind:
        Boundary, mesh resolution, and density family.
    constraint:
        Gauge handling, a :class:`ConstraintMode` or its value string;
        ``multiplier_m`` borders the leading system by its multiplier.
    scheme:
        Time discretization.
    data:
        Causal, compatible Dirichlet trace.
    observation_points:
        ``(K, 2)`` points off the boundary where velocity and pressure
        are recorded at every step.
    cfg:
        Physical configuration.
    assembly:
        The test rule of the density space (:class:`DensitySpace`):
        ``"galerkin"`` for the variational matrix, ``"reduced"`` for
        the midpoint-tested scheme (P0 on smooth curves only).  The
        data, the constraint and the assembler follow the space.

    Returns
    -------
    SimulationResult

    Raises
    ------
    ValueError
        For inadmissible data, observation points not of shape
        ``(K, 2)``, a non-finite point or one on the boundary, an
        unknown constraint or assembly flag, a non-planar ``cfg``, or
        any violated component precondition.

    Notes
    -----
    The weights of ``V`` are held for the first rotational sector's
    rows only, ``(M + 1) r dof`` reals with ``r = 2 nb N / m``; the
    mesh's :class:`~stokesbem.bem_space.SectorAction` fills ``W_0``
    (``dof^2`` reals) to be factored once and applies the rest.
    """
    constraint = ConstraintMode(constraint)
    mesh = build_mesh(curve, n_elements)
    space = build_space(mesh, kind, assembly)
    if cfg.dimension != 2:
        raise ValueError(
            f"the transient solver is implemented for the planar problem "
            f"only, got dimension {cfg.dimension}"
        )
    # reject bad points before any sampling or assembly
    points = check_observation_points(mesh, observation_points)

    _check_data_admissible(data, curve, n_elements, scheme)

    rhs = np.array([data_functional(space, lambda pos: data.sample(t, pos))
                    for t in scheme.times()])

    assemble = assemble_nystrom_V if space.reduced else assemble_galerkin_V
    action = sector_action(space)
    # the weights, like V(s), are fixed by their first sector's rows,
    # which are what the assemblers return
    seq = cq_weights(lambda s: assemble(space, s, cfg), scheme)
    # the constraint is frequency independent: it enters W_0 alone
    solve = factor(constrain(unfold(seq.weights[0], space), space, constraint))
    history = cq_march(seq, rhs, solve, action)
    velocity, pressure = _observe(space, scheme, cfg, history, points)

    return SimulationResult(
        space=space,
        scheme=scheme,
        cfg=cfg,
        observation_points=points,
        history=history,
        velocity_series=velocity,
        pressure_series=pressure,
    )


def _process_count(n_items: int) -> int:
    """Processes a spread of ``n_items`` items runs on: one per usable
    core and at most one per item; one where ``os.fork`` or
    ``os.sched_getaffinity`` is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), n_items)


def _shared_buffers(shapes, n_flags: int):
    """Zeroed float arrays of the given ``shapes`` and ``n_flags`` done
    flags, as views of one anonymous mapping that forked workers share
    with the caller."""
    sizes = [math.prod(shape) for shape in shapes]
    buf = mmap.mmap(-1, 8 * sum(sizes) + n_flags)
    views, offset = [], 0
    for shape, size in zip(shapes, sizes):
        views.append(np.frombuffer(buf, count=size, offset=offset).reshape(shape))
        offset += 8 * size
    views.append(np.frombuffer(buf, dtype=bool, count=n_flags, offset=offset))
    return views


def _spread(evaluate, done: np.ndarray) -> None:
    """Call ``evaluate`` on the items whose ``done`` flag is clear, dealt
    round-robin into one share per ``_process_count`` process;
    ``evaluate(items)`` takes a share, an array of items in order, and
    sets ``done[k]`` for each item ``k`` it finishes.  The items are the
    orbit representatives of an observation pass (:func:`_observe`).

    The caller keeps the first share and forks a worker for each other
    one; a worker stops at its first failure and leaves by ``os._exit``.
    Once the workers are reaped the caller evaluates, in order, the
    items that are still not done (a worker that raised or died, a fork
    that failed, a failure of its own), which raises any error exactly
    as a serial sweep would.
    """
    items = np.flatnonzero(~done)
    n_proc = _process_count(items.size)
    children = []
    try:
        for share in (items[k::n_proc] for k in range(1, n_proc)):
            try:
                pid = os.fork()
            except OSError:
                break
            if pid == 0:
                code = 1
                try:
                    evaluate(share)
                    code = 0
                finally:
                    os._exit(code)
            children.append(pid)
        evaluate(items[::n_proc])
    except Exception:
        if n_proc == 1:
            raise  # a serial sweep stops at its first failure
        # otherwise the sweep below raises it again
    finally:
        for pid in children:
            os.waitpid(pid, 0)
    rest = np.flatnonzero(~done)
    if rest.size:
        evaluate(rest)


def _observe(space: DensitySpace, scheme: CQScheme, cfg: ProblemConfig,
             history: np.ndarray, points: np.ndarray):
    """Velocity ``(M + 1, K, 2)`` and pressure ``(M + 1, K)`` histories
    at the ``K`` points, off the boundary, from the ``(M + 1, dof)``
    density history.

    The points are first gathered into orbits under the rotations
    ``Q_k`` and the reflections ``Q_k tau`` that map the mesh onto
    itself, and only one representative per orbit is evaluated.  The
    rest follow, for each such orthogonal ``g``, from

        u(g x; lam) = g u(x; g^T lam(g .)),
        p(g x; lam) = p(x; g^T lam(g .)),

    with the orbits, the densities ``g^T lam(g .)`` (``copies``) and the
    turn ``g`` all those of :class:`stokesbem.bem_space.SectorAction`;
    a reflection also reverses the elements.  Each representative is
    convolved against a stack of ``c`` histories, the density's turned
    copies of the ``c`` turns the set uses, and every velocity is turned
    back by its own ``g``.  A set with no orbit is the stack of its one
    identity turn.

    Representatives are evaluated in blocks under
    ``SNAPSHOT_WEIGHT_BYTES``, counting per representative: 2 rows of
    cq_weights' packed ``(L, entries)`` buffer, 2 rows of the complex
    velocity-potential matrix of one contour node, the ``(M+1, 2, M+1)``
    product of cq_postprocess, which convolves the stack one history at
    a time, for each history its velocities in cq_postprocess's result
    and in the shared buffer, its pressure-matrix row in
    potential_pressure_matrix's result and in the shared buffer, and the
    potential clouds with their ray bases.  cq_weights stacks the
    potential matrices of a block of contour nodes, which hold one
    node's rows or at most ``cq_engine._SAMPLE_BLOCK_BYTES``: the cap is
    lowered by that much per process.

    With at least as many representatives as the half contour has nodes,
    the representatives of each block are the items of :func:`_spread`,
    dealt round-robin over one process per usable core: each process
    runs the whole contour for its own points, writing their velocities
    and pressure-matrix rows into one shared mapping.  With fewer, the
    block is evaluated here at once and nothing is forked, since
    ``cq_weights`` samples every node in its calling process.  This is
    the package's one process spread.  The pressure is multiplied here,
    one product per block and turn, so that its bits do not depend on
    the deal.
    """
    n_keep = scheme.n_steps + 1
    dof = space.dof_count
    action = sector_action(space)
    rep, turn = action.orbits(points)
    reps = np.flatnonzero(rep == np.arange(points.shape[0]))
    turns, slot = np.unique(turn, return_inverse=True)
    stack = np.ascontiguousarray(
        np.moveaxis(action.copies(history, turns), -1, 0))
    per_point = (2 * dof * 8 * scheme.n_contour_nodes + 2 * dof * 16
                 + 16 * n_keep * n_keep + 32 * turns.size * n_keep
                 + 16 * dof + potential_node_bytes(space, points[reps]))
    by_points = reps.size >= scheme.n_half_nodes
    # each process stacks the samples of a block of nodes: one node's
    # are counted per point, the rest of the block per process
    n_proc = _process_count(reps.size) if by_points else 1
    block = (np.cumsum(per_point) - per_point) // max(
        SNAPSHOT_WEIGHT_BYTES - n_proc * _SAMPLE_BLOCK_BYTES, 1)
    at_rep = np.searchsorted(reps, rep)
    velocity = np.empty((n_keep, points.shape[0], 2))
    pressure = np.empty((n_keep, points.shape[0]))
    for idx in np.split(np.arange(reps.size),
                        np.flatnonzero(np.diff(block)) + 1):
        vel, p_rows, done = _shared_buffers(
            ((turns.size, n_keep, idx.size, 2), (idx.size, dof)), idx.size
        )

        def evaluate(mine: np.ndarray) -> None:
            pts = points[reps[idx[mine]]]
            p_rows[mine] = potential_pressure_matrix(space, pts)
            vel[:, :, mine] = cq_postprocess(
                lambda s: potential_velocity_matrix(space, s, cfg, pts),
                scheme,
                stack,
            ).reshape(turns.size, n_keep, pts.shape[0], 2)
            done[mine] = True

        if by_points:
            _spread(evaluate, done)
        else:
            evaluate(np.arange(idx.size))
        inside = (at_rep >= idx[0]) & (at_rep <= idx[-1])
        for t, k in enumerate(turns):
            at = np.flatnonzero(inside & (slot == t))
            src = at_rep[at] - idx[0]
            pressure[:, at] = stack[t] @ p_rows[src].T
            velocity[:, at] = action.turn(vel[t][:, src], k)
    return velocity, pressure


def _segment_distances(points: np.ndarray, mesh: BoundaryMesh) -> np.ndarray:
    """Distance from each point to the mesh's chord polygon."""
    a = mesh.endpoints[:, 0, :]
    d = mesh.endpoints[:, 1, :] - a
    rel = points[:, None, :] - a[None, :, :]
    t = np.einsum("pnc,nc->pn", rel, d) / np.einsum("nc,nc->n", d, d)
    np.clip(t, 0.0, 1.0, out=t)
    nearest = rel - t[:, :, None] * d[None, :, :]
    return np.sqrt(np.einsum("pnc,pnc->pn", nearest, nearest)).min(axis=1)


def inside_obstacle(mesh: BoundaryMesh, points) -> np.ndarray:
    """Even-odd test of points against the mesh's chord polygon.

    Nothing in the package calls it: the snapshot evaluates cells on
    both sides of the boundary and masks them by distance alone.  It is
    the reference that picks out the interior cells in tests of the flow
    inside the obstacle.  Points on or extremely near the polygon land
    on either side.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    a = mesh.endpoints[:, 0, :]
    b = mesh.endpoints[:, 1, :]
    y1, y2 = a[None, :, 1], b[None, :, 1]
    x1, x2 = a[None, :, 0], b[None, :, 0]
    py = pts[:, None, 1]
    straddles = (y1 > py) != (y2 > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
    hits = straddles & (pts[:, None, 0] < x_cross)
    return (hits.sum(axis=1) % 2).astype(bool)


def _masked_derivative(field: np.ndarray, invalid: np.ndarray, spacing: float,
                       axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Central difference with one-sided fallback next to invalid cells.

    ``field`` has the grid shape of ``invalid``, optionally followed by
    trailing axes that are differenced alike.  Returns the derivative
    and the grid cells where some stencil applied; entries without any
    valid neighbor along ``axis`` stay zero and are reported invalid.
    """
    f = np.moveaxis(field, axis, 0)
    bad = np.moveaxis(invalid, axis, 0)
    n = f.shape[0]
    prev_ok = np.zeros_like(bad)
    next_ok = np.zeros_like(bad)
    prev_ok[1:] = ~bad[:-1]
    next_ok[:-1] = ~bad[1:]
    f_prev = np.zeros_like(f)
    f_next = np.zeros_like(f)
    f_prev[1:] = f[:-1]
    f_next[:-1] = f[1:]
    out = np.zeros_like(f)
    central = prev_ok & next_ok
    out[central] = (f_next[central] - f_prev[central]) / (2.0 * spacing)
    forward = next_ok & ~prev_ok
    out[forward] = (f_next[forward] - f[forward]) / spacing
    backward = prev_ok & ~next_ok
    out[backward] = (f[backward] - f_prev[backward]) / spacing
    ok = (prev_ok | next_ok) & ~bad
    return np.moveaxis(out, 0, axis), np.moveaxis(ok, 0, axis)


def snapshot_mask(mesh: BoundaryMesh, grid: GridSpec) -> np.ndarray:
    """The ``(n_rows, n_cols)`` cells a snapshot leaves out, those within
    one minimal element length of the mesh; ``ValueError`` if that is
    every cell."""
    flat = grid.points().reshape(-1, 2)
    masked = _segment_distances(flat, mesh) <= float(mesh.arclengths.min())
    if masked.all():
        raise ValueError(
            "every grid cell lies within one element length of the "
            "boundary; nothing to evaluate"
        )
    return masked.reshape(grid.n_rows, grid.n_cols)


def field_snapshot(result: SimulationResult, grid: GridSpec,
                   step_indices) -> FieldSnapshot:
    """Evaluate velocity, pressure, and vorticity on a lattice.

    Cells within one minimal element length of the boundary are masked
    (:func:`snapshot_mask`; the potential quadrature loses accuracy
    there); all other cells, on both sides of the boundary, are
    evaluated through the same potential matrices as the observation
    points, by the same pass, once per orbit of the rotations that map
    the mesh onto itself and of its reflections
    (:meth:`stokesbem.bem_space.SectorAction.orbits`): on a grid centred
    at the origin the star's half turn and its mirror images in the axes
    leave about a quarter of the cells to evaluate, and the square's or
    the circle's quarter turns and mirror images in the axes and the
    diagonals about an eighth.  Vorticity is
    ``d(u_y)/dx - d(u_x)/dy`` by central differences with one-sided
    fallback where a neighbor is masked.

    Parameters
    ----------
    result:
        A completed simulation.
    grid:
        Evaluation lattice.
    step_indices:
        Time steps to snapshot, each in ``0 .. M``.

    Returns
    -------
    FieldSnapshot

    Raises
    ------
    ValueError
        If a step index is out of range or every cell is masked.
    """
    steps = np.array([count("step index", k, 0, result.scheme.n_steps)
                      for k in np.ravel(step_indices)])
    if steps.size == 0:
        raise ValueError("need at least one step index")
    mask = snapshot_mask(result.space.mesh, grid)
    u_kept, p_kept = _observe(result.space, result.scheme, result.cfg,
                              result.history, grid.points()[~mask])
    n_sel = steps.size
    velocity = np.full((n_sel, grid.n_rows, grid.n_cols, 2), MASK_SENTINEL)
    pressure = np.full((n_sel, grid.n_rows, grid.n_cols), MASK_SENTINEL)
    velocity[:, ~mask] = u_kept[steps]
    pressure[:, ~mask] = p_kept[steps]

    # the steps ride along as a trailing axis, so the stencil validity,
    # which depends on the mask alone, is worked out once
    u_steps = np.moveaxis(velocity, 0, -1)
    duy_dx, ok_x = _masked_derivative(u_steps[:, :, 1], mask, grid.dx, axis=1)
    dux_dy, ok_y = _masked_derivative(u_steps[:, :, 0], mask, grid.dy, axis=0)
    ok = ok_x & ok_y & ~mask
    vorticity = np.full((n_sel, grid.n_rows, grid.n_cols), MASK_SENTINEL)
    vorticity[:, ok] = (duy_dx[ok] - dux_dy[ok]).T

    return FieldSnapshot(
        grid=grid,
        step_indices=steps,
        times=result.scheme.times()[steps],
        mask=mask,
        velocity=velocity,
        pressure=pressure,
        vorticity=vorticity,
        vorticity_mask=~ok,
    )
