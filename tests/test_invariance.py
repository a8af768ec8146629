"""Metamorphic laws of the transient solver.

Each law relates two runs of the whole pipeline (sampling, convolution
weights, march, observation) and is an identity of the discrete method
up to roundoff, so no reference solution is needed:

* linearity: doubling the data doubles the density, the velocity and
  the pressure, bit for bit (every operation is linear, and scaling by
  two is exact);
* viscosity scaling: ``u_t = nu Lap u - grad p`` turns into the unit
  viscosity problem on the time axis ``nu t``.  The transfer satisfies
  ``V(s; nu) = V(s / nu; 1) / nu``, so a run at ``(nu, kappa)`` and one
  at ``(1, nu kappa)`` on the same data samples have the same weights
  up to the factor ``1 / nu``: the velocity agrees, the density and the
  pressure are scaled by ``nu``;
* time shift: delaying the data by ``k`` steps delays every output by
  ``k`` steps (the convolution is shift invariant and starts from
  rest);
* rotation by one symmetry sector of the mesh: rotating the data and
  the observation points rotates the density (shifted by ``N / m``
  elements), the velocity, and leaves the pressure unchanged;
* reflection ``tau`` of the mesh (``x(-theta) = tau x(theta)``):
  reflecting the data and the observation points reflects the velocity,
  reverses the density (element ``j`` onto ``N - 1 - j``, with its two
  P1 basis functions swapped) and leaves the pressure unchanged.
"""

import numpy as np
import pytest

from stokesbem import (BoundaryCurve, ConstraintMode, CQScheme, DirichletData,
                       ProblemConfig, exact_solution, run_simulation)

POINTS = np.array([[0.1, 0.2], [-0.3, 0.4], [0.25, -0.35]])


def _velocity(t, pos):
    return exact_solution(t, pos)[0]


def _run(curve, n, kind, constraint, assembly, boundary_values, points,
         kappa=0.125, n_steps=8, nu=1.0):
    return run_simulation(
        curve, n, kind, constraint,
        CQScheme(order=3, kappa=kappa, n_steps=n_steps),
        DirichletData(boundary_values, smoothness=8), points,
        ProblemConfig(nu=nu), assembly=assembly)


def _close(got, want, rtol):
    """``got`` equals ``want`` to ``rtol`` of the largest entry of ``want``."""
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize("assembly", ["reduced", "galerkin"])
def test_doubling_the_data_doubles_every_output(assembly):
    curve = BoundaryCurve.star(1.0, 0.3, 6)
    base = _run(curve, 24, "P0", ConstraintMode.none, assembly, _velocity,
                POINTS)
    doubled = _run(curve, 24, "P0", ConstraintMode.none, assembly,
                   lambda t, pos: 2.0 * _velocity(t, pos), POINTS)
    np.testing.assert_array_equal(doubled.history, 2.0 * base.history)
    np.testing.assert_array_equal(doubled.velocity_series,
                                  2.0 * base.velocity_series)
    np.testing.assert_array_equal(doubled.pressure_series,
                                  2.0 * base.pressure_series)


@pytest.mark.parametrize("nu", [0.5, 2.0])
@pytest.mark.parametrize(
    "curve, n, kind, constraint, assembly",
    [(BoundaryCurve.circle(1.0), 16, "P0", ConstraintMode.none, "reduced"),
     (BoundaryCurve.square(1.0), 8, "P1_discontinuous",
      ConstraintMode.multiplier_m, "galerkin")],
    ids=["circle-reduced", "square-p1-multiplier"],
)
def test_viscosity_rescales_time(nu, curve, n, kind, constraint, assembly):
    """A run at ``(nu, kappa)`` against one at ``(1, nu kappa)`` whose
    data is sampled at the same values (its time axis is stretched by
    ``nu``)."""
    kappa = 0.125
    viscous = _run(curve, n, kind, constraint, assembly, _velocity, POINTS,
                   kappa=kappa, nu=nu)
    unit = _run(curve, n, kind, constraint, assembly,
                lambda t, pos: _velocity(t / nu, pos), POINTS,
                kappa=nu * kappa)
    _close(viscous.velocity_series, unit.velocity_series, 1e-13)
    _close(viscous.history, nu * unit.history, 1e-13)
    _close(viscous.pressure_series, nu * unit.pressure_series, 1e-13)


@pytest.mark.parametrize("delay", [1, 3])
def test_delaying_the_data_delays_every_output(delay):
    """The step ``1/8`` keeps ``t_n - delay kappa`` exact, so both runs
    sample the same data values."""
    curve = BoundaryCurve.square(1.0)
    base = _run(curve, 8, "P1_discontinuous", ConstraintMode.multiplier_m,
                "galerkin", _velocity, POINTS)
    late = _run(curve, 8, "P1_discontinuous", ConstraintMode.multiplier_m,
                "galerkin", lambda t, pos: _velocity(t - delay * 0.125, pos),
                POINTS)
    for got, want in [(late.history, base.history),
                      (late.velocity_series, base.velocity_series),
                      (late.pressure_series, base.pressure_series)]:
        assert not got[:delay].any()
        _close(got[delay:], want[:-delay], 1e-13)


def _rotation(angle):
    return np.array([[np.cos(angle), -np.sin(angle)],
                     [np.sin(angle), np.cos(angle)]])


@pytest.mark.parametrize(
    "curve, n, kind, constraint, assembly, turns",
    [
        (BoundaryCurve.circle(1.0), 40, "P0", ConstraintMode.multiplier_m,
         "reduced", 40),
        (BoundaryCurve.star(1.0, 0.3, 6), 48, "P0",
         ConstraintMode.augmented_Vtilde, "reduced", 6),
        (BoundaryCurve.square(1.0), 16, "P1_discontinuous",
         ConstraintMode.multiplier_m, "galerkin", 4),
    ],
    ids=["circle-40-one-element", "star-48-60-degrees", "square-p1-16-90-degrees"],
)
def test_rotating_the_problem_rotates_the_solution(curve, n, kind, constraint,
                                                   assembly, turns):
    """Turn the data and the points by ``2 pi / turns``, one symmetry
    sector of the mesh (``n / turns`` elements).

    Each run removes the gauge kernel: with ``ConstraintMode.none`` the
    normal component of the density is fixed by roundoff alone, and the
    pressure, which sees it, turns only to about 1e-11."""
    rot = _rotation(2.0 * np.pi / turns)
    base = _run(curve, n, kind, constraint, assembly, _velocity, POINTS)
    turned = _run(curve, n, kind, constraint, assembly,
                  lambda t, pos: _velocity(t, pos @ rot) @ rot.T,
                  POINTS @ rot.T)
    shift = n // turns
    steps = base.history.shape[0]
    lam = base.history.reshape(steps, n, -1, 2) @ rot.T
    _close(turned.history.reshape(steps, n, -1, 2),
           np.roll(lam, shift, axis=1), 1e-11)
    _close(turned.velocity_series, base.velocity_series @ rot.T, 1e-11)
    _close(turned.pressure_series, base.pressure_series, 1e-11)


@pytest.mark.parametrize(
    "curve, n, kind, constraint, assembly, tau",
    [
        (BoundaryCurve.square(1.0), 16, "P1_discontinuous",
         ConstraintMode.multiplier_m, "galerkin", [[0.0, 1.0], [1.0, 0.0]]),
        (BoundaryCurve.star(1.0, 0.3, 6), 48, "P0",
         ConstraintMode.augmented_Vtilde, "reduced",
         [[1.0, 0.0], [0.0, -1.0]]),
    ],
    ids=["square-p1-16-diagonal", "star-48-axis"],
)
def test_reflecting_the_problem_reflects_the_solution(curve, n, kind,
                                                      constraint, assembly,
                                                      tau):
    """Reflect the data and the points in the line through the origin
    and ``x(0)``: the diagonal on the square, the x axis on the star."""
    tau = np.array(tau)
    base = _run(curve, n, kind, constraint, assembly, _velocity, POINTS)
    mirrored = _run(curve, n, kind, constraint, assembly,
                    lambda t, pos: _velocity(t, pos @ tau) @ tau,
                    POINTS @ tau)
    steps = base.history.shape[0]
    lam = base.history.reshape(steps, n, -1, 2) @ tau
    _close(mirrored.history.reshape(steps, n, -1, 2), lam[:, ::-1, ::-1],
           1e-11)
    _close(mirrored.velocity_series, base.velocity_series @ tau, 1e-11)
    _close(mirrored.pressure_series, base.pressure_series, 1e-11)
