"""Convergence tables, operator property suites, and convolution oracles.

Three independent instruments check the solver from the outside:

* :func:`convergence_sweep` runs the transient pipeline over a
  refinement ladder and reports errors against a closed-form reference
  together with estimated convergence rates,

  .. math::

      \\mathrm{ecr}_k = \\log_2 \\frac{e_{k-1}}{e_k},

  meaningful because the ladder doubles both the mesh resolution and
  the number of time steps between rows.
* :func:`laplace_property_suite` probes the assembled boundary matrix
  ``V(s)`` at frequencies spanning several magnitudes and arguments and
  reports, per frequency, the complex-symmetry residual, the scaled
  coercivity margin of ``Re(sqrt(s) x^H V(s) x)``, the kernel residual
  ``|V(s) c_n|`` for the discrete normal, and the agreement of the two
  gauge-fixing formulations.  Failures become report entries, never
  exceptions, so a driver can print the full table before exiting.
* :func:`time_convolution_oracle` evaluates ``(k * g)(t)`` by composite
  Gauss-Legendre quadrature of a time-domain kernel ``k`` known in closed
  form, giving the time marcher a reference that shares none of its
  machinery.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

import numpy as np

from ._checks import count, length
from ._quadrature import panel_gauss
from .bem_space import (
    ConstraintMode,
    DensitySpace,
    assemble_galerkin_V,
    constrain,
    data_functional,
    factor,
    unfold,
)
from .boundary_geometry import BoundaryCurve
from .cq_engine import CQScheme, cq_postprocess
from .laplace_kernels import ComplexFrequency, ProblemConfig
from .stokes_solver import DirichletData, exact_solution, run_simulation

#: Relative bound on ``max |V - V^T|`` for the Galerkin assembly.
SYMMETRY_TOL = 1e-12

#: Lower bound on the scaled margin ``Re(sqrt(s) x^H V x)``.
POSITIVITY_TOL = 1e-10

#: Relative bound on ``|V c_n|`` for exactly flat elements (polygons).
KERNEL_RESIDUAL_TOL = 1e-8

#: Bound on the relative disagreement of the two gauge formulations.
EQUIVALENCE_TOL = 1e-10

#: Random test vectors drawn per frequency for the coercivity margin.
PROPERTY_VECTOR_COUNT = 100

#: Seed for the coercivity test vectors; fixed for reproducible reports.
PROPERTY_SEED = 1815

_DEFAULT_MAGNITUDES = (0.1, 1.0, 10.0, 100.0)
_DEFAULT_ARGUMENTS = (0.0, 0.5 * np.pi, -0.5 * np.pi, 0.75 * np.pi)


def default_frequencies() -> tuple[complex, ...]:
    """The 16 standard probe frequencies.

    Four magnitudes ``{0.1, 1, 10, 100}`` crossed with arguments
    ``{0, +pi/2, -pi/2, +3 pi/4}``; the ray at ``-3 pi/4`` is covered
    by conjugation symmetry of the kernels and is omitted to keep the
    set at 16 points.
    """
    return tuple(
        complex(m * np.exp(1j * a))
        for m in _DEFAULT_MAGNITUDES
        for a in _DEFAULT_ARGUMENTS
    )


@dataclasses.dataclass(frozen=True)
class ConvergenceRecord:
    """One refinement-ladder row: resolution, errors, and rates.

    Attributes
    ----------
    n_elements, n_steps:
        Mesh and time resolution of the row.
    err_u, err_p:
        Maximum velocity (Euclidean) and pressure (absolute) errors
        over the observation points at the final time.
    ecr_u, ecr_p:
        Estimated convergence rates ``log2(previous / current)``;
        ``None`` on the first row where no ratio exists.
    """

    n_elements: int
    n_steps: int
    err_u: float
    err_p: float
    ecr_u: float | None = None
    ecr_p: float | None = None

    def __post_init__(self) -> None:
        if self.err_u < 0.0 or self.err_p < 0.0:
            raise ValueError("errors must be nonnegative")


@dataclasses.dataclass(frozen=True)
class SweepProblem:
    """Everything a convergence sweep needs besides the ladder.

    Attributes
    ----------
    curve, kind, constraint:
        Geometry, density family, and gauge handling passed through to
        the transient driver.
    order:
        Multistep order of the time discretization.
    data:
        Dirichlet trace to march.
    observation_points:
        Points where errors are measured, shape ``(K, 2)``.
    cfg:
        Physical configuration.
    assembly:
        ``"galerkin"`` or ``"reduced"``.
    final_time:
        Horizon ``T``; each row uses ``kappa = T / M``.  Errors are
        measured against :func:`stokesbem.stokes_solver.exact_solution`
        at ``T``.
    """

    curve: BoundaryCurve
    kind: str
    constraint: ConstraintMode
    order: int
    data: DirichletData
    observation_points: Sequence
    cfg: ProblemConfig
    assembly: str = "galerkin"
    final_time: float = 1.0


def convergence_sweep(
    problem: SweepProblem, ladder: Sequence[tuple[int, int]]
) -> list[ConvergenceRecord]:
    """Run the transient solver over a doubling refinement ladder.

    Parameters
    ----------
    problem:
        Fixed ingredients of every row.
    ladder:
        Pairs ``(N_k, M_k)``; consecutive rows must double both.

    Returns
    -------
    list of ConvergenceRecord
        One row per ladder entry, rates filled from the second row.

    Raises
    ------
    ValueError
        If the ladder is empty, has a row whose ``N`` or ``M`` is not an
        integer of at least 1 (a float is refused, never truncated), or
        does not double between rows, or if ``final_time`` is not
        finite and positive.
    """
    ladder = [(count("ladder N", n, 1), count("ladder M", m, 1))
              for n, m in ladder]
    if not ladder:
        raise ValueError("refinement ladder must contain at least one row")
    for (n0, m0), (n1, m1) in zip(ladder, ladder[1:]):
        if n1 != 2 * n0 or m1 != 2 * m0:
            raise ValueError(
                f"refinement ladder must double N and M between rows; "
                f"got ({n0}, {m0}) -> ({n1}, {m1})"
            )
    length("final_time", problem.final_time)
    obs = np.atleast_2d(np.asarray(problem.observation_points, dtype=float))
    u_ref, p_ref = exact_solution(problem.final_time, obs)

    records: list[ConvergenceRecord] = []
    for n_elements, n_steps in ladder:
        scheme = CQScheme(
            order=problem.order,
            kappa=problem.final_time / n_steps,
            n_steps=n_steps,
        )
        result = run_simulation(
            problem.curve,
            n_elements,
            problem.kind,
            problem.constraint,
            scheme,
            problem.data,
            obs,
            problem.cfg,
            assembly=problem.assembly,
        )
        err_u = float(
            np.linalg.norm(result.velocity_series[-1] - u_ref, axis=1).max()
        )
        err_p = float(np.abs(result.pressure_series[-1] - p_ref).max())
        ecr_u = ecr_p = None
        if records:
            prev = records[-1]
            ecr_u = float(np.log2(prev.err_u / err_u))
            ecr_p = float(np.log2(prev.err_p / err_p))
        records.append(
            ConvergenceRecord(n_elements, n_steps, err_u, err_p, ecr_u, ecr_p)
        )
    return records


@dataclasses.dataclass(frozen=True)
class PropertyCheck:
    """One property evaluation at one probe point.

    ``margin`` stores the signed quantity the tolerance applies to:
    residuals (smaller is better, pass iff ``margin <= tolerance``)
    for symmetry, kernel, and equivalence checks; the minimum scaled
    coercivity value (larger is better, pass iff
    ``margin >= -tolerance``) for positivity; the observed order
    (pass iff ``|margin - p| <= tolerance``) for time-stepping rates.
    """

    name: str
    label: str
    margin: float
    tolerance: float
    passed: bool


@dataclasses.dataclass(frozen=True)
class PropertyReport:
    """All property checks of one suite run."""

    checks: tuple[PropertyCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def select(self, name: str) -> list[PropertyCheck]:
        """The checks of one property, in frequency order."""
        return [c for c in self.checks if c.name == name]

    def lines(self) -> list[str]:
        """Aligned text rows, one per check, with a PASS/FAIL flag."""
        out = []
        for c in self.checks:
            out.append(
                f"{c.name:<12s} {c.label:<24s} value = {c.margin:>13.6e}  "
                f"tol = {c.tolerance:.1e}  "
                f"{'PASS' if c.passed else 'FAIL'}"
            )
        return out


def _normal_coefficients(space: DensitySpace) -> np.ndarray:
    """Coefficients interpolating the outward normal in the space."""
    return np.repeat(space.mesh.normals[:, None, :], space.n_basis,
                     axis=1).ravel()


def _gauge_trace(pos: np.ndarray) -> np.ndarray:
    """Divergence-free test trace ``(x, -y)`` for the gauge comparison."""
    return np.stack([pos[..., 0], -pos[..., 1]], axis=-1)


def laplace_property_suite(
    space: DensitySpace,
    frequencies: Sequence[complex] | None = None,
) -> PropertyReport:
    """Probe the assembled boundary operator at a set of frequencies.

    Per frequency ``s`` the suite evaluates four properties of the
    Galerkin matrix: the complex-symmetry residual, the minimum of the
    scaled coercivity functional ``Re(sqrt(s) x^H V(s) x)`` over random
    complex vectors, the kernel residual of the discrete normal, and
    the relative disagreement between the bordered (multiplier) and the
    rank-corrected gauge formulations, both built by
    :func:`~stokesbem.bem_space.constrain` from the one assembled matrix,
    applied to a compatible load.
    Every evaluation becomes a report entry; nothing raises on a
    failing property.  The planar ``ProblemConfig()`` is probed with
    ``PROPERTY_VECTOR_COUNT`` coercivity vectors per frequency drawn
    from ``PROPERTY_SEED``; the kernel residual is held to
    ``KERNEL_RESIDUAL_TOL``.

    Parameters
    ----------
    space:
        Discrete density space of the Galerkin rule; a polygon mesh
        keeps the kernel residual at rounding level, smooth curves add
        an O(h^2) interpolation error to it.
    frequencies:
        Probe points in the cut plane; defaults to
        :func:`default_frequencies`.

    Returns
    -------
    PropertyReport
    """
    if frequencies is None:
        frequencies = default_frequencies()
    cfg = ProblemConfig()
    rng = np.random.default_rng(PROPERTY_SEED)
    c_n = _normal_coefficients(space)
    c_n_norm = float(np.linalg.norm(c_n))

    checks: list[PropertyCheck] = []
    for s in frequencies:
        freq = ComplexFrequency(complex(s))
        label = f"s = {s.real:.6g} {s.imag:+.6g}i"
        v = unfold(assemble_galerkin_V(space, [freq.s], cfg)[0], space)
        v_scale = float(np.abs(v).max())

        sym = float(np.abs(v - v.T).max()) / v_scale
        checks.append(
            PropertyCheck("symmetry", label, sym, SYMMETRY_TOL,
                          sym <= SYMMETRY_TOL)
        )

        shape = (PROPERTY_VECTOR_COUNT, space.dof_count)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        quad = np.einsum("kd,kd->k", x.conj(), x @ v.T)
        margins = (freq.sqrt_s * quad).real / (
            v_scale * np.einsum("kd,kd->k", x.conj(), x).real
        )
        worst = float(margins.min())
        checks.append(
            PropertyCheck("positivity", label, worst, POSITIVITY_TOL,
                          worst >= -POSITIVITY_TOL)
        )

        kernel = float(np.linalg.norm(v @ c_n)) / (
            np.linalg.norm(v) * c_n_norm
        )
        checks.append(
            PropertyCheck("kernel", label, kernel, KERNEL_RESIDUAL_TOL,
                          kernel <= KERNEL_RESIDUAL_TOL)
        )

        bordered = constrain(v, space, ConstraintMode.multiplier_m)
        tilde = constrain(v, space, ConstraintMode.augmented_Vtilde)
        rhs = data_functional(space, _gauge_trace)
        lam_mult = factor(bordered)(rhs)
        lam_tilde = factor(tilde)(rhs)
        scale = max(1.0, float(np.abs(lam_mult).max()))
        equiv = float(np.abs(lam_mult - lam_tilde).max()) / scale
        checks.append(
            PropertyCheck("equivalence", label, equiv, EQUIVALENCE_TOL,
                          equiv <= EQUIVALENCE_TOL)
        )
    return PropertyReport(tuple(checks))


#: Allowed deviation of the observed time-stepping order from p.
CQ_ORDER_TOL = 0.2

#: Step-count ladder for the order measurement (kappa halving).
CQ_ORDER_RESOLUTIONS = (16, 32, 64, 128)

#: Gauss-Legendre points per panel of :func:`time_convolution_oracle`.
ORACLE_ORDER = 20
#: Uniform panel counts of ``[0, t]`` that the oracle takes in turn.
ORACLE_PANELS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


def cq_order_report() -> PropertyReport:
    """Measure the discrete convolution's convergence order per scheme.

    The scalar transfer ``F(s) = 1/(s + 1)`` is convolved with the
    smooth causal data ``g(t) = t**5`` on ``[0, 1]`` over the
    kappa-halving ladder ``CQ_ORDER_RESOLUTIONS``; each run's
    maximum error at eight sample times is measured against
    :func:`time_convolution_oracle` of the inverse transform
    ``k(t) = exp(-t)``, and the least-squares slope of
    ``log error`` versus ``log kappa`` must stay within
    ``CQ_ORDER_TOL`` of the multistep order.

    Returns
    -------
    PropertyReport
        One check per order 1, 2, 3, labeled ``p=<order>``; ``margin``
        holds the observed slope.
    """
    transfer = lambda s: 1.0 / (s + 1.0)  # noqa: E731
    kernel = lambda t: np.exp(-np.asarray(t, dtype=float))  # noqa: E731
    checks = []
    for p in (1, 2, 3):
        kappas = []
        errors = []
        for m in CQ_ORDER_RESOLUTIONS:
            scheme = CQScheme(order=p, kappa=1.0 / m, n_steps=m)
            times = scheme.times()
            values = cq_postprocess(
                lambda s: np.array([[[transfer(complex(x))]] for x in s]),
                scheme,
                (times**5)[:, None],
            )[:, 0].real
            samples = np.arange(m // 8, m + 1, m // 8)
            err = max(abs(values[n] - time_convolution_oracle(
                kernel, lambda u: u**5, float(times[n]))) for n in samples)
            kappas.append(scheme.kappa)
            errors.append(err)
        slope = float(
            np.polyfit(np.log(np.asarray(kappas)), np.log(errors), 1)[0]
        )
        checks.append(
            PropertyCheck(
                "cq order",
                f"p={p}",
                slope,
                CQ_ORDER_TOL,
                abs(slope - p) <= CQ_ORDER_TOL,
            )
        )
    return PropertyReport(tuple(checks))


def time_convolution_oracle(
    kernel: Callable[[float], float],
    data: Callable[[float], float],
    t: float,
) -> float:
    """Composite Gauss-Legendre value of ``(k * g)(t)``.

    ``int_0^t k(t - tau) g(tau) dtau`` is summed from the time-domain
    kernel ``k``, the inverse Laplace transform of the transfer under
    test, by the ``ORACLE_ORDER``-point rule on each of ``ORACLE_PANELS``
    uniform panels of ``[0, t]`` in turn, until a sum agrees with the
    previous one within ``max(1e-13, 1e-12 |value|)``.  The result
    shares no machinery with the discrete marcher and serves as its
    reference.  It is for integrands smooth on ``[0, t]``: one that 256
    panels do not settle is a ``RuntimeError`` naming ``t``, and a
    non-finite ``t`` is a ``ValueError``.

    Parameters
    ----------
    kernel:
        Real-valued time-domain kernel ``k``, called with a float.
    data:
        Real-valued causal data ``g``, called with a float.
    t:
        Evaluation time; nonpositive times return 0.

    Returns
    -------
    float
    """
    if not np.isfinite(t):
        raise ValueError(f"the oracle needs a finite time t, got {t!r}")
    if t <= 0.0:
        return 0.0
    value = np.nan
    for panels in ORACLE_PANELS:
        nodes, weights = panel_gauss(ORACLE_ORDER,
                                     np.linspace(0.0, t, panels + 1))
        previous, value = value, float(sum(
            w * kernel(t - tau) * data(tau)
            for tau, w in zip(nodes.tolist(), weights.tolist())))
        change = abs(value - previous)
        if change <= max(1e-13, 1e-12 * abs(value)):
            return value
    raise RuntimeError(f"the oracle did not settle at t={t!r}: the sums on "
                       f"{panels} panels still changed by {change:.3e}")
