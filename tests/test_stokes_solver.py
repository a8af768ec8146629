"""Tests for the transient simulation driver and field evaluation.

Covers the closed-form reference solution, data admissibility
screening, the marched solve (causality, solenoidality, gauge
constraints, stability under refinement), and grid snapshots with
their masking and vorticity stencils.
"""

import dataclasses
import os
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesbem import stokes_solver
from stokesbem.bem_space import (ConstraintMode, build_space, constrain,
                                 data_functional, factor, potential_node_bytes,
                                 sector_action, unfold)
from stokesbem.boundary_geometry import BoundaryCurve, build_mesh
from stokesbem.cq_engine import CQScheme
from stokesbem.laplace_kernels import ProblemConfig
from stokesbem.stokes_solver import (
    MASK_SENTINEL,
    DirichletData,
    GridSpec,
    SimulationResult,
    _masked_derivative,
    _segment_distances,
    exact_solution,
    field_snapshot,
    inside_obstacle,
    manufactured_dirichlet_data,
    run_simulation,
)
from stokesbem.verification import SweepProblem, convergence_sweep

CFG = ProblemConfig()

#: Observation points inside the unit circle used throughout.
OBS_INTERIOR = ((0.0, 0.0), (0.5, 0.5), (-0.6, 0.1))


@pytest.fixture(scope="module")
def circle_run():
    """Galerkin P0 solve on the unit circle, reused by snapshot tests."""
    return run_simulation(
        BoundaryCurve.circle(1.0),
        32,
        "P0",
        ConstraintMode.none,
        CQScheme(order=3, kappa=1.0 / 12, n_steps=12),
        manufactured_dirichlet_data(),
        OBS_INTERIOR,
        CFG,
    )


@pytest.fixture(scope="module")
def square_mult_run():
    """P1 discontinuous solve on the square with the moment multiplier."""
    return run_simulation(
        BoundaryCurve.square(1.0),
        8,
        "P1_discontinuous",
        ConstraintMode.multiplier_m,
        CQScheme(order=3, kappa=1.0 / 12, n_steps=12),
        manufactured_dirichlet_data(),
        [(0.3, 0.7)],
        CFG,
    )


class TestExactSolution:
    """The closed-form causal solution and its sampled trace."""

    def test_velocity_at_unit_amplitude(self):
        u, p = exact_solution(np.pi / 2, [0.3, 0.7])
        np.testing.assert_allclose(u, [0.6, -1.4], rtol=0, atol=1e-15)
        assert p == pytest.approx(0.0, abs=1e-15)

    def test_velocity_on_diagonal(self):
        u, p = exact_solution(1.0, [-0.5, -0.5])
        amp = np.sin(1.0) ** 9
        np.testing.assert_allclose(u, [-amp, amp], rtol=1e-15)
        assert p == pytest.approx(0.0, abs=1e-15)

    def test_pressure_value(self):
        _, p = exact_solution(0.5, [1.0, 0.0])
        expected = -9.0 * np.sin(0.5) ** 8 * np.cos(0.5)
        assert p == pytest.approx(expected, rel=1e-15)

    def test_causal_zeros(self):
        for t in (0.0, -0.3):
            u, p = exact_solution(t, [[1.0, 2.0], [3.0, -4.0]])
            assert np.all(u == 0.0)
            assert np.all(p == 0.0)

    def test_batch_shapes(self):
        pts = np.zeros((2, 3, 2))
        u, p = exact_solution(0.7, pts)
        assert u.shape == (2, 3, 2)
        assert p.shape == (2, 3)

    @given(
        x=st.floats(-2, 2),
        y=st.floats(-2, 2),
        t=st.floats(0.05, 3.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_divergence_free(self, x, y, t):
        """du_x/dx + du_y/dy vanishes identically for the linear field."""
        eps = 1e-5
        up, _ = exact_solution(t, [x + eps, y])
        um, _ = exact_solution(t, [x - eps, y])
        vp, _ = exact_solution(t, [x, y + eps])
        vm, _ = exact_solution(t, [x, y - eps])
        div = (up[0] - um[0]) / (2 * eps) + (vp[1] - vm[1]) / (2 * eps)
        assert abs(div) < 1e-9

    def test_manufactured_data_matches_solution(self):
        data = manufactured_dirichlet_data()
        assert data.smoothness == 8
        pts = np.array([[0.2, -0.4], [1.0, 1.0]])
        np.testing.assert_array_equal(
            data.sample(0.9, pts), exact_solution(0.9, pts)[0]
        )


class TestDirichletData:
    """Construction and sampling validation."""

    def test_rejects_non_callable(self):
        with pytest.raises(ValueError, match="callable"):
            DirichletData(boundary_values=3)

    def test_rejects_negative_smoothness(self):
        with pytest.raises(ValueError,
                           match="^smoothness must be at least 0, got -1$"):
            DirichletData(boundary_values=lambda t, p: p, smoothness=-1)

    def test_rejects_complex_values(self):
        data = DirichletData(boundary_values=lambda t, p: 1j * p)
        with pytest.raises(ValueError, match="real"):
            data.sample(1.0, np.zeros((4, 2)))

    def test_rejects_wrong_shape(self):
        data = DirichletData(boundary_values=lambda t, p: p[..., 0])
        with pytest.raises(ValueError, match="shape"):
            data.sample(1.0, np.zeros((4, 2)))


class TestDataAdmissibility:
    """Incompatible or non-causal data is rejected before marching."""

    def scheme(self):
        return CQScheme(order=2, kappa=1.0 / 8, n_steps=8)

    def test_net_flux_rejected(self):
        radial = DirichletData(boundary_values=lambda t, p: t * t * p)
        with pytest.raises(ValueError, match="net boundary flux"):
            run_simulation(
                BoundaryCurve.circle(1.0), 8, "P0", ConstraintMode.none,
                self.scheme(), radial, [(0.0, 0.0)], CFG,
            )

    def test_non_causal_rejected(self):
        steady = DirichletData(
            boundary_values=lambda t, p: np.broadcast_to([1.0, 0.0], p.shape)
        )
        with pytest.raises(ValueError, match="not causal"):
            run_simulation(
                BoundaryCurve.circle(1.0), 8, "P0", ConstraintMode.none,
                self.scheme(), steady, [(0.0, 0.0)], CFG,
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_fails_before_the_contour(self, bad,
                                                      monkeypatch):
        """NaN or inf data is named with its time before any contour
        sampling (the flux and causality comparisons cannot see NaN)."""
        def unreachable(*args, **kwargs):
            raise AssertionError("contour sampled")

        monkeypatch.setattr(stokes_solver, "cq_weights", unreachable)
        data = DirichletData(
            lambda t, p: np.full(p.shape, bad if t >= 0.5 else 0.0))
        with pytest.raises(ValueError, match=r"not finite at t = 0\.5$"):
            run_simulation(
                BoundaryCurve.circle(1.0), 8, "P0", ConstraintMode.none,
                self.scheme(), data, [(0.0, 0.0)], CFG,
            )

    def test_tangential_data_passes_flux_screen(self):
        """Rotational data has zero net flux and a causal ramp."""
        def values(t, p):
            ramp = max(t, 0.0) ** 2
            out = np.empty(p.shape)
            out[..., 0] = -ramp * p[..., 1]
            out[..., 1] = ramp * p[..., 0]
            return out

        res = run_simulation(
            BoundaryCurve.circle(1.0), 8, "P0", ConstraintMode.none,
            self.scheme(), DirichletData(values, smoothness=1),
            [(0.0, 0.0)], CFG,
        )
        assert np.isfinite(res.velocity_series).all()


class TestRunSimulationBasics:
    """Shapes, trivial data, and argument validation."""

    def scheme(self):
        return CQScheme(order=2, kappa=0.1, n_steps=10)

    def test_zero_data_gives_zero_fields(self):
        zero = DirichletData(boundary_values=lambda t, p: np.zeros(p.shape))
        res = run_simulation(
            BoundaryCurve.circle(1.0), 8, "P0", ConstraintMode.none,
            self.scheme(), zero, OBS_INTERIOR, CFG,
        )
        assert np.all(res.history == 0.0)
        assert np.all(res.velocity_series == 0.0)
        assert np.all(res.pressure_series == 0.0)

    def test_causal_data_starts_at_rest(self, circle_run):
        assert np.all(circle_run.history[0] == 0.0)
        assert np.all(circle_run.velocity_series[0] == 0.0)
        assert np.all(circle_run.pressure_series[0] == 0.0)

    def test_result_shapes(self, circle_run):
        assert circle_run.observation_points.shape == (3, 2)
        assert circle_run.velocity_series.shape == (13, 3, 2)
        assert circle_run.pressure_series.shape == (13, 3)
        assert circle_run.history.shape == (13, circle_run.space.dof_count)
        assert circle_run.space.mesh.n_elements == 32

    @pytest.mark.parametrize("points, message", [
        ([(0.5, 0.5), (np.nan, 0.0)], r"point 1 = \[nan, 0.0\] is not finite"),
        ([(np.inf, 1.0)], r"point 0 = \[inf, 1.0\] is not finite"),
        ([], r"shape \(K, 2\) with K >= 1, got shape \(0,\)"),
        ([(0.5, 0.5, 0.0)], r"shape \(K, 2\) with K >= 1, got shape \(1, 3\)"),
    ])
    def test_rejects_bad_observation_points_before_sampling(self, points,
                                                            message):
        def never(t, pos):
            raise AssertionError("data sampled")

        with pytest.raises(ValueError, match=message):
            run_simulation(
                BoundaryCurve.circle(1.0), 8, "P0", ConstraintMode.none,
                self.scheme(), DirichletData(never), points, CFG,
            )

    def test_rejects_unknown_assembly(self):
        with pytest.raises(ValueError, match="assembly"):
            run_simulation(
                BoundaryCurve.circle(1.0), 8, "P0", ConstraintMode.none,
                self.scheme(), manufactured_dirichlet_data(),
                OBS_INTERIOR, CFG, assembly="spectral",
            )

    def test_reduced_requires_piecewise_constants(self):
        with pytest.raises(ValueError):
            run_simulation(
                BoundaryCurve.square(1.0), 8, "P1_discontinuous",
                ConstraintMode.none, self.scheme(),
                manufactured_dirichlet_data(), OBS_INTERIOR, CFG,
                assembly="reduced",
            )

    def test_rejects_unknown_density_family(self):
        with pytest.raises(ValueError):
            run_simulation(
                BoundaryCurve.circle(1.0), 8, "P2", ConstraintMode.none,
                self.scheme(), manufactured_dirichlet_data(),
                OBS_INTERIOR, CFG,
            )

    def test_three_dimensional_config_is_rejected_before_sampling(
            self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("sampling or assembly reached")

        monkeypatch.setattr(stokes_solver, "data_functional", unreachable)
        monkeypatch.setattr(stokes_solver, "cq_weights", unreachable)
        with pytest.raises(ValueError, match="planar problem only"):
            run_simulation(
                BoundaryCurve.circle(1.0), 8, "P0", ConstraintMode.none,
                self.scheme(), manufactured_dirichlet_data(),
                OBS_INTERIOR, ProblemConfig(dimension=3),
            )


class TestCausality:
    """Delayed data produces exactly zero response before the onset."""

    def test_delayed_data_delayed_response(self):
        delay = 0.25
        delayed = DirichletData(
            boundary_values=lambda t, p: exact_solution(t - delay, p)[0],
            smoothness=8,
        )
        res = run_simulation(
            BoundaryCurve.circle(1.0), 8, "P0", ConstraintMode.none,
            CQScheme(order=3, kappa=1.0 / 16, n_steps=16), delayed,
            [(0.5, 0.0)], CFG,
        )
        quiet = res.scheme.times() <= delay
        assert quiet.sum() == 5
        assert np.abs(res.history[quiet]).max() == 0.0
        assert np.abs(res.velocity_series[quiet]).max() == 0.0
        assert np.abs(res.velocity_series[~quiet]).max() > 1e-3


class TestSolenoidality:
    """The computed velocity is flux free through closed test rings."""

    def test_ring_fluxes_vanish(self):
        angles = 2 * np.pi * np.arange(256) / 256
        ring = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        obs = np.concatenate([0.3 * ring, 1.8 * ring])
        res = run_simulation(
            BoundaryCurve.circle(1.0), 16, "P0", ConstraintMode.none,
            CQScheme(order=3, kappa=1.0 / 16, n_steps=16),
            manufactured_dirichlet_data(), obs, CFG, assembly="reduced",
        )
        scale = max(1.0, float(np.abs(res.velocity_series).max()))
        for k, radius in enumerate((0.3, 1.8)):
            sl = slice(256 * k, 256 * (k + 1))
            normal_part = np.einsum(
                "nkc,kc->nk", res.velocity_series[:, sl, :], ring
            )
            flux = (2 * np.pi * radius / 256) * normal_part.sum(axis=1)
            assert np.abs(flux).max() <= 1e-10 * scale


class TestGaugeConstraints:
    """Bordered marching enforces moment orthogonality each step."""

    def test_moment_orthogonality(self, square_mult_run):
        b = data_functional(square_mult_run.space, lambda pos: pos)
        lam = square_mult_run.history
        scale = max(1.0, float(np.abs(lam).max()))
        assert np.abs(lam @ b).max() <= 1e-12 * scale

    def test_augmented_operator_matches_multiplier(self, square_mult_run):
        """Kernel-shifted assembly and bordered marching agree."""
        aug = run_simulation(
            BoundaryCurve.square(1.0), 8, "P1_discontinuous",
            ConstraintMode.augmented_Vtilde,
            CQScheme(order=3, kappa=1.0 / 12, n_steps=12),
            manufactured_dirichlet_data(), [(0.3, 0.7)], CFG,
        )
        lam_scale = float(np.abs(square_mult_run.history).max())
        assert (
            np.abs(aug.history - square_mult_run.history).max()
            <= 1e-9 * lam_scale
        )
        vel_scale = float(np.abs(square_mult_run.velocity_series).max())
        assert (
            np.abs(aug.velocity_series - square_mult_run.velocity_series).max()
            <= 1e-10 * vel_scale
        )

    def test_none_on_the_square_is_refused(self):
        """Square P1 at N = 16, M = 40 with ``none``: the leading system
        carries the normal-field kernel, singular to working precision
        (``rcond_1`` 7.6e-15), and ``factor`` refuses it by name."""
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"numerically singular: rcond_1 = .* is "
                                 r"not above 1e-12"):
            run_simulation(
                BoundaryCurve.square(1.0), 16, "P1_discontinuous",
                ConstraintMode.none,
                CQScheme(order=3, kappa=1.0 / 40, n_steps=40),
                manufactured_dirichlet_data(), [(1.5, 0.2)], CFG,
            )

    @staticmethod
    def circle_history(constraint):
        return run_simulation(
            BoundaryCurve.circle(1.0), 16, "P0", constraint,
            CQScheme(order=3, kappa=0.1, n_steps=10),
            manufactured_dirichlet_data(), [(0.0, 0.0)], CFG,
            assembly="reduced",
        ).history

    def test_value_string_runs_its_mode(self):
        """``"none"`` runs the plain system, not the border."""
        np.testing.assert_array_equal(
            self.circle_history("none"),
            self.circle_history(ConstraintMode.none),
        )

    def test_unknown_constraint_fails_before_sampling(self, monkeypatch):
        def no_weights(*args, **kwargs):
            raise AssertionError("cq_weights reached")

        monkeypatch.setattr(stokes_solver, "cq_weights", no_weights)
        with pytest.raises(ValueError, match="constraint must be one of 'none', "
                           "'multiplier_m', 'augmented_Vtilde', got 'nonsense'"):
            self.circle_history("nonsense")

    @pytest.mark.parametrize("assembly", ["galerkin", "reduced"])
    def test_constraint_enters_the_leading_weight_only(self, assembly,
                                                       monkeypatch):
        """Border or rank-one term, the constraint is in the factored
        leading system alone: the sector weights reach ``cq_march``
        exactly as ``cq_weights`` returned them, the same in every mode,
        and the factored system is ``constrain`` of the plain ``W_0``
        unfolded from its sector."""
        sample = stokes_solver.cq_weights
        factor = stokes_solver.factor
        march = stokes_solver.cq_march
        returned, marched, systems = {}, {}, {}
        for mode in ConstraintMode:
            def capture_weights(transfer, scheme, mode=mode):
                seq = sample(transfer, scheme)
                returned[mode] = seq.weights.copy()
                return seq

            def capture_factor(system, mode=mode):
                systems[mode] = system.copy()
                return factor(system)

            def capture_march(seq, rhs, solve, action, mode=mode):
                marched[mode] = seq.weights.copy()
                return march(seq, rhs, solve, action)

            monkeypatch.setattr(stokes_solver, "cq_weights", capture_weights)
            monkeypatch.setattr(stokes_solver, "factor", capture_factor)
            monkeypatch.setattr(stokes_solver, "cq_march", capture_march)
            res = run_simulation(
                BoundaryCurve.circle(1.0), 8, "P0", mode,
                CQScheme(order=2, kappa=0.1, n_steps=6),
                manufactured_dirichlet_data(), [(0.0, 0.0)], CFG,
                assembly=assembly,
            )
        plain = marched[ConstraintMode.none]
        for mode in ConstraintMode:
            np.testing.assert_array_equal(marched[mode], returned[mode])
            np.testing.assert_array_equal(marched[mode], plain)
            want = constrain(unfold(plain[0], res.space), res.space, mode)
            np.testing.assert_array_equal(systems[mode], want)

    @pytest.mark.parametrize("mode", list(ConstraintMode),
                             ids=lambda m: m.value)
    def test_one_solve_path_matches_the_padded_march(self, mode,
                                                     monkeypatch):
        """The march through the factored, constrained ``W_0`` agrees with
        a march of the padded system: every weight zero-padded to the
        constrained size, ``W_0`` replaced by the constrained one (unfolded
        from its sector), one factorization, the rhs padded with the zero
        load of the border.  The later weights are applied in their sector, as the
        march applies them: padded by zeros, they add nothing to the
        border rows and take nothing from the multiplier, so the padded
        tail is the sector tail with zeros appended."""
        march = stokes_solver.cq_march
        seen = {}

        def capture(seq, rhs, solve, action):
            seen.update(w=seq.weights.copy(), rhs=rhs.copy(), action=action)
            return march(seq, rhs, solve, action)

        monkeypatch.setattr(stokes_solver, "cq_march", capture)
        # the square refuses ``none``; the circle's ``none`` is regular
        curve = (BoundaryCurve.circle(1.0) if mode is ConstraintMode.none
                 else BoundaryCurve.square(1.0))
        res = run_simulation(
            curve, 16, "P1_discontinuous", mode,
            CQScheme(order=3, kappa=1.0 / 40, n_steps=40),
            manufactured_dirichlet_data(), [(0.3, 0.7)], CFG,
        )
        w, rhs, action = seen["w"], seen["rhs"], seen["action"]
        n_steps, rows, dof = w.shape[0] - 1, w.shape[1], w.shape[2]
        system = constrain(unfold(w[0], res.space), res.space, mode)
        k = system.shape[0] - dof
        load = np.pad(rhs, ((0, 0), (0, k)))
        solve = factor(system)
        lam = np.empty(load.shape)
        tails = np.zeros((n_steps + 1, rows, action.order))
        for n in range(n_steps + 1):
            tail = np.pad(action.place(tails[n]), (0, k))
            lam[n] = solve(load[n] - tail)
            ahead = n_steps - n
            if ahead:
                flat = w[1:ahead + 1].reshape(ahead * rows, dof)
                tails[n + 1:] += (flat @ action.copies(lam[n, :dof])).reshape(
                    ahead, rows, action.order)
        scale = float(np.abs(lam[:, :dof]).max())
        assert np.abs(res.history - lam[:, :dof]).max() <= 1e-14 * scale


class TestInteriorAccuracy:
    """A coarse solve already reproduces the interior field well."""

    def test_circle_reduced_spot_errors(self):
        res = run_simulation(
            BoundaryCurve.circle(1.0), 20, "P0", ConstraintMode.none,
            CQScheme(order=3, kappa=1.0 / 20, n_steps=20),
            manufactured_dirichlet_data(), OBS_INTERIOR, CFG,
            assembly="reduced",
        )
        u_exact, p_exact = exact_solution(1.0, np.asarray(OBS_INTERIOR))
        err_u = np.linalg.norm(
            res.velocity_series[-1] - u_exact, axis=1
        ).max()
        err_p = np.abs(res.pressure_series[-1] - p_exact).max()
        assert 1e-5 < err_u < 4e-3
        assert 1e-5 < err_p < 1.2e-2

    @pytest.mark.parametrize("nu", [0.5, 2.0])
    def test_manufactured_solution_at_any_viscosity(self, nu):
        """The manufactured flow solves ``u_t = nu Lap u - grad p`` for
        every ``nu`` (``Lap u = 0``), so the errors stay at their ``nu =
        1`` size, 2.4e-4 and 7.0e-4; a kernel that takes ``nu`` in its
        prefactor alone misses the pressure by a factor ``nu``."""
        [row] = convergence_sweep(
            SweepProblem(BoundaryCurve.circle(1.0), "P0", ConstraintMode.none,
                         3, manufactured_dirichlet_data(),
                         [(0.0, 0.0), (0.5, 0.5), (-0.6, 0.1)],
                         ProblemConfig(nu=nu), assembly="reduced"),
            [(40, 40)])
        assert row.err_u < 1e-3
        assert row.err_p < 1e-3


class TestStability:
    """Density norms stay bounded under mesh refinement."""

    def test_boundary_norm_stable_across_refinement(self):
        norms = []
        for n_elements in (8, 16, 32):
            res = run_simulation(
                BoundaryCurve.circle(1.0), n_elements, "P0",
                ConstraintMode.none,
                CQScheme(order=3, kappa=1.0 / 24, n_steps=24),
                manufactured_dirichlet_data(), [(0.0, 0.0)], CFG,
            )
            h = res.space.mesh.arclengths
            lam = res.history.reshape(25, n_elements, 2)
            loading = np.sqrt((lam**2).sum(axis=2) @ h).max()
            norms.append(loading)
        norms = np.asarray(norms)
        assert norms.max() / norms.min() <= 1.05
        assert norms.max() < 20.0


class TestGridSpec:
    """Lattice construction and validation."""

    def test_points_layout(self):
        grid = GridSpec(x0=-1.0, y0=2.0, dx=0.5, dy=0.25, n_rows=3, n_cols=4)
        pts = grid.points()
        assert pts.shape == (3, 4, 2)
        np.testing.assert_allclose(pts[0, :, 0], [-1.0, -0.5, 0.0, 0.5])
        np.testing.assert_allclose(pts[:, 0, 1], [2.0, 2.25, 2.5])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dx=0.0, dy=0.1, n_rows=3, n_cols=3),
            dict(dx=0.1, dy=-0.1, n_rows=3, n_cols=3),
            dict(dx=0.1, dy=0.1, n_rows=1, n_cols=3),
            dict(dx=0.1, dy=0.1, n_rows=3, n_cols=1),
            dict(x0=np.nan, dx=0.1, dy=0.1, n_rows=3, n_cols=3),
            dict(y0=np.inf, dx=0.1, dy=0.1, n_rows=3, n_cols=3),
            dict(dx=np.inf, dy=0.1, n_rows=3, n_cols=3),
            dict(dx=0.1, dy=np.inf, n_rows=3, n_cols=3),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            GridSpec(**(dict(x0=0.0, y0=0.0) | kwargs))


@pytest.mark.parametrize("make, field", [
    (lambda: CQScheme(3, 0.1, 8.5), "n_steps"),
    (lambda: CQScheme(3, 0.1, 8.0), "n_steps"),
    (lambda: CQScheme(3.0, 0.1, 8), "order"),
    (lambda: build_mesh(BoundaryCurve.circle(1.0), 8.7), "n_elements"),
    (lambda: GridSpec(0.0, 0.0, 1.0, 1.0, 2.5, 3), "n_rows"),
    (lambda: GridSpec(0.0, 0.0, 1.0, 1.0, 3, np.float64(3.0)), "n_cols"),
    (lambda: BoundaryCurve.star(1.0, 0.3, 2.5), "lobes"),
    (lambda: DirichletData(lambda t, p: p, smoothness=2.5), "smoothness"),
    (lambda: convergence_sweep(
        SweepProblem(BoundaryCurve.circle(1.0), "P0", ConstraintMode.none, 3,
                     manufactured_dirichlet_data(), OBS_INTERIOR, CFG),
        [(8.7, 8)]), "ladder N"),
    (lambda: field_snapshot(
        types.SimpleNamespace(scheme=CQScheme(3, 0.1, 8)),
        GridSpec(0.0, 0.0, 1.0, 1.0, 3, 3), [2.7]), "step index"),
])
def test_integer_counts_must_be_integers(make, field):
    """Counts are Python or NumPy integers; a float, even integral, is
    a ValueError that names the field and is never truncated (NumPy
    integers pass)."""
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        make()
    CQScheme(np.int64(3), 0.1, np.int32(8))
    build_mesh(BoundaryCurve.circle(1.0), np.int64(8))
    GridSpec(0.0, 0.0, 1.0, 1.0, np.int64(2), 3)
    BoundaryCurve.star(1.0, 0.3, np.int64(2))


@pytest.mark.parametrize("value", [np.inf, np.nan, 0.0])
@pytest.mark.parametrize("make, field", [
    (BoundaryCurve.circle, "radius"),
    (BoundaryCurve.square, "half_width"),
    (BoundaryCurve.star, "base_radius"),
    (lambda kappa: CQScheme(3, kappa, 8), "kappa"),
])
def test_lengths_must_be_finite_and_positive(make, field, value):
    """A length that is infinite, NaN or zero is a ValueError that
    names the field, before any mesh or contour is built."""
    with pytest.raises(ValueError,
                       match=f"^{field} must be positive and finite"):
        make(value)


class TestMaskedDerivative:
    """Central differences with one-sided fallback at masked cells."""

    def test_linear_field_exact_everywhere(self):
        x = 0.3 * np.arange(7)
        field = np.broadcast_to(1.5 - 2.0 * x[:, None], (7, 3)).copy()
        invalid = np.zeros((7, 3), dtype=bool)
        deriv, ok = _masked_derivative(field, invalid, 0.3, axis=0)
        assert ok.all()
        np.testing.assert_allclose(deriv, -2.0, rtol=1e-13)

    def test_hole_forces_one_sided_yet_exact(self):
        x = 0.1 * np.arange(6)
        field = np.broadcast_to(4.0 * x[:, None], (6, 2)).copy()
        invalid = np.zeros((6, 2), dtype=bool)
        invalid[3, :] = True
        deriv, ok = _masked_derivative(field, invalid, 0.1, axis=0)
        assert not ok[3].any()
        assert ok[2].all() and ok[4].all()
        np.testing.assert_allclose(deriv[ok], 4.0, rtol=1e-12)

    def test_isolated_cell_has_no_stencil(self):
        field = np.arange(3.0)[:, None] * np.ones((3, 2))
        invalid = np.zeros((3, 2), dtype=bool)
        invalid[0] = invalid[2] = True
        _, ok = _masked_derivative(field, invalid, 1.0, axis=0)
        assert not ok.any()

    @given(
        n=st.integers(4, 12),
        a=st.floats(-2, 2),
        b=st.floats(-2, 2),
        bits=st.integers(0, 2**12 - 1),
        axis=st.integers(0, 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_linear_profile_invariant(self, n, a, b, bits, axis):
        """Any mask pattern: wherever a stencil fits, it is exact."""
        h = 0.17
        profile = a + b * h * np.arange(n)
        if axis == 0:
            field = np.broadcast_to(profile[:, None], (n, 3)).copy()
            invalid = np.zeros((n, 3), dtype=bool)
            invalid[:, 1] = [(bits >> i) & 1 for i in range(n)]
        else:
            field = np.broadcast_to(profile[None, :], (3, n)).copy()
            invalid = np.zeros((3, n), dtype=bool)
            invalid[1, :] = [(bits >> i) & 1 for i in range(n)]
        deriv, ok = _masked_derivative(field, invalid, h, axis=axis)
        assert not (ok & invalid).any()
        tol = 1e-11 * max(1.0, abs(a), abs(b))
        assert np.abs(deriv[ok] - b).max() <= tol


class TestGeometryHelpers:
    """Distance-to-polygon and point-in-polygon classification."""

    def test_distances_vanish_on_vertices(self):
        mesh = build_mesh(BoundaryCurve.circle(1.0), 16)
        d = _segment_distances(mesh.endpoints[:, 0, :], mesh)
        assert d.max() <= 1e-14

    def test_inside_outside_classification(self):
        mesh = build_mesh(BoundaryCurve.circle(1.0), 32)
        pts = np.array([[0.0, 0.0], [0.5, 0.5], [2.0, 0.0], [0.0, -1.5]])
        np.testing.assert_array_equal(
            inside_obstacle(mesh, pts), [True, True, False, False]
        )

    def test_square_classification(self):
        mesh = build_mesh(BoundaryCurve.square(1.0), 8)
        pts = np.array([[0.9, -0.9], [1.1, 0.0], [-0.99, 0.0], [0.0, 2.0]])
        np.testing.assert_array_equal(
            inside_obstacle(mesh, pts), [True, False, True, False]
        )


class TestFieldSnapshot:
    """Grid evaluation: masking, consistency, and vorticity."""

    def test_grid_matches_observation_pipeline(self, circle_run):
        grid = GridSpec(
            x0=-0.6, y0=0.0, dx=0.1, dy=0.05, n_rows=11, n_cols=12
        )
        snap = field_snapshot(circle_run, grid, [0, 6, 12])
        np.testing.assert_allclose(
            snap.times, [0.0, 0.5, 1.0], rtol=0, atol=1e-15
        )
        cells = [(0, 6), (10, 11), (2, 0)]
        for point_id, (row, col) in enumerate(cells):
            expected = grid.points()[row, col]
            np.testing.assert_allclose(
                expected, circle_run.observation_points[point_id], atol=1e-15
            )
            assert not snap.mask[row, col]
            for k, step in enumerate([0, 6, 12]):
                assert (
                    np.abs(
                        snap.velocity[k, row, col]
                        - circle_run.velocity_series[step, point_id]
                    ).max()
                    <= 1e-12
                )
                assert (
                    abs(
                        snap.pressure[k, row, col]
                        - circle_run.pressure_series[step, point_id]
                    )
                    <= 1e-12
                )

    def test_wide_grid_masking_and_sentinels(self, circle_run):
        grid = GridSpec(
            x0=-1.3, y0=-1.3, dx=0.13, dy=0.13, n_rows=21, n_cols=21
        )
        snap = field_snapshot(circle_run, grid, [12])
        assert 0 < snap.mask.sum() < snap.mask.size
        assert snap.mask.sum() == 140
        assert snap.vorticity_mask.sum() == 152
        assert (snap.vorticity_mask | ~snap.mask).all()
        assert np.all(snap.velocity[0][snap.mask] == MASK_SENTINEL)
        assert np.all(snap.pressure[0][snap.mask] == MASK_SENTINEL)
        assert np.all(snap.vorticity[0][snap.vorticity_mask] == MASK_SENTINEL)
        keep = ~snap.mask
        assert np.isfinite(snap.velocity[0][keep]).all()
        assert np.abs(snap.velocity[0][keep]).max() < 10.0

    def test_blocked_snapshot_matches_one_block(self, circle_run,
                                                monkeypatch):
        """The quarter turns of the circle and its reflections in the
        axes and the diagonals gather the 301 unmasked cells into 46
        orbits.  A cap of 11 representatives' packed weight buffer,
        potential matrix of one contour node, postprocess product,
        velocities of the eight turned histories, pressure-matrix rows
        and potential clouds, at their mean size, and of the one
        process's block of stacked samples, splits the representatives
        into 5 blocks, with the fields of one block; the same 301 points
        as observation points of a run split alike, with the series of
        one block.  One usable core evaluates each block here, at once,
        so that the count of postprocess calls is the count of
        blocks."""
        use_cores(monkeypatch, 1)
        from stokesbem import stokes_solver

        grid = GridSpec(
            x0=-1.3, y0=-1.3, dx=0.13, dy=0.13, n_rows=21, n_cols=21
        )
        scheme = circle_run.scheme

        def snapshot():
            snap = field_snapshot(circle_run, grid, [6, 12])
            return snap.velocity, snap.pressure, snap.vorticity

        def observe():
            res = run_simulation(
                BoundaryCurve.circle(1.0), 32, "P0", ConstraintMode.none,
                scheme, manufactured_dirichlet_data(), kept, CFG,
            )
            return res.velocity_series, res.pressure_series

        mask = field_snapshot(circle_run, grid, [12]).mask
        kept = grid.points().reshape(-1, 2)[~mask.ravel()]
        wholes = [snapshot(), observe()]
        rep, turn = sector_action(circle_run.space).orbits(kept)
        reps = kept[rep == np.arange(kept.shape[0])]
        assert reps.shape[0] == 46
        assert np.unique(turn).tolist() == [0, 8, 16, 24, 32, 40, 48, 56]
        dof = circle_run.space.dof_count
        per_point = (
            2 * dof * 8 * scheme.n_contour_nodes
            + 2 * dof * 16
            + 16 * (scheme.n_steps + 1) ** 2
            + 32 * 8 * (scheme.n_steps + 1)
            + 16 * dof
            + potential_node_bytes(circle_run.space, reps)
        )
        monkeypatch.setattr(stokes_solver, "SNAPSHOT_WEIGHT_BYTES",
                            11 * int(per_point.mean())
                            + stokes_solver._SAMPLE_BLOCK_BYTES)
        blocks = []
        postprocess = stokes_solver.cq_postprocess

        def counted(*args):
            blocks.append(args)
            return postprocess(*args)

        monkeypatch.setattr(stokes_solver, "cq_postprocess", counted)
        assert kept.shape[0] == 301
        for evaluate, whole in zip((snapshot, observe), wholes):
            blocks.clear()
            split = evaluate()
            assert len(blocks) == 5
            for got, want in zip(split, whole):
                scale = np.abs(want[want != MASK_SENTINEL]).max()
                np.testing.assert_allclose(got, want, rtol=0,
                                           atol=1e-14 * scale)

    def test_interior_vorticity_vanishes(self, circle_run):
        """The interior solution is linear in space, hence curl free."""
        grid = GridSpec(
            x0=-1.3, y0=-1.3, dx=0.13, dy=0.13, n_rows=21, n_cols=21
        )
        snap = field_snapshot(circle_run, grid, [12])
        pts = grid.points().reshape(-1, 2)
        interior = inside_obstacle(circle_run.space.mesh, pts).reshape(21, 21)
        ok = ~snap.vorticity_mask & interior
        assert ok.sum() > 100
        assert np.abs(snap.vorticity[0][ok]).max() <= 5e-3

    def test_rejects_bad_step_indices(self, circle_run):
        grid = GridSpec(x0=-0.5, y0=-0.5, dx=0.5, dy=0.5, n_rows=3, n_cols=3)
        with pytest.raises(ValueError,
                           match="^step index must be in 0..12, got 13$"):
            field_snapshot(circle_run, grid, [13])
        with pytest.raises(ValueError,
                           match="^step index must be in 0..12, got -1$"):
            field_snapshot(circle_run, grid, [-1])
        with pytest.raises(ValueError, match="at least one"):
            field_snapshot(circle_run, grid, [])

    def test_rejects_fully_masked_grid(self, square_mult_run):
        grid = GridSpec(x0=0.9, y0=-0.05, dx=0.05, dy=0.05, n_rows=2, n_cols=2)
        with pytest.raises(ValueError, match="element length"):
            field_snapshot(square_mult_run, grid, [0])


def use_cores(monkeypatch, n: int) -> None:
    """Let the solver see ``n`` usable cores, hence ``n`` processes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def count_forks(monkeypatch) -> list:
    """Record the pid of each ``os.fork`` call made in this process in
    the returned list, then fork."""
    forks, fork = [], os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def point_key(point) -> str:
    """A point as the text the logging helpers write and compare."""
    return ",".join(repr(float(c)) for c in point)


def assert_children_reaped() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def star_pulse(t: float, positions: np.ndarray) -> np.ndarray:
    """A uniform, hence flux-free, causal pulse along (1, 1)."""
    amp = t**5 * np.exp(-2.0 * t) if t > 0.0 else 0.0
    return np.broadcast_to(amp * np.array([1.0, 1.0]), positions.shape)


@pytest.fixture(scope="module")
def star_run():
    """Reduced P0 solve past the six-lobed star, N = 24, M = 12."""
    return run_simulation(
        BoundaryCurve.star(1.0, 0.3, 6), 24, "P0", ConstraintMode.none,
        CQScheme(order=3, kappa=0.25, n_steps=12),
        DirichletData(star_pulse, smoothness=4),
        [(1.8, 0.0), (0.0, 1.8), (-1.2, -1.2)], CFG, assembly="reduced",
    )


STAR_GRID = GridSpec(x0=-2.0, y0=-2.0, dx=0.4, dy=0.4, n_rows=11, n_cols=11)
CORE_COUNTS = (1, 2, 3)


class TestPointShares:
    """Observation passes with at least as many representatives as
    half-contour nodes deal each block's representatives round-robin
    over one process per usable core, each over the whole contour."""

    @staticmethod
    def star_fields(run):
        snap = field_snapshot(run, STAR_GRID, [4, 12])
        return snap.velocity, snap.pressure, snap.vorticity

    @staticmethod
    def logged(monkeypatch, log):
        """Log the pid and the frequency of each velocity-potential
        matrix evaluated, one line per frequency of a block."""
        matrix = stokes_solver.potential_velocity_matrix

        def logging_matrix(space, freqs, cfg, points):
            with open(log, "a") as out:
                out.writelines(f"{os.getpid()} {s!r}\n" for s in freqs)
            return matrix(space, freqs, cfg, points)

        monkeypatch.setattr(stokes_solver, "potential_velocity_matrix",
                            logging_matrix)

    @staticmethod
    def logged_points(monkeypatch, log):
        """Log the pid and each point of every pressure-matrix
        evaluation, which a process makes once for its own points."""
        matrix = stokes_solver.potential_pressure_matrix

        def logging_matrix(space, points):
            with open(log, "a") as out:
                out.writelines(f"{os.getpid()} {point_key(x)}\n"
                               for x in points)
            return matrix(space, points)

        monkeypatch.setattr(stokes_solver, "potential_pressure_matrix",
                            logging_matrix)

    @staticmethod
    def seen(log):
        """The frequencies of ``logged``, or the points of
        ``logged_points``, by pid."""
        by_pid = {}
        for line in log.read_text().splitlines():
            pid, s = line.split(" ", 1)
            by_pid.setdefault(pid, []).append(s)
        return by_pid

    @staticmethod
    def half_contour(run):
        scheme = run.scheme
        return sorted(map(repr, scheme.frequencies()[: scheme.n_half_nodes]))

    def test_core_count_leaves_fields_bit_identical(self, star_run,
                                                     circle_run, monkeypatch):
        """The star snapshot and a circle run observed at the 301
        unmasked cells of a grid give the same bits on 1, 2 and 3
        cores."""
        grid = GridSpec(x0=-1.3, y0=-1.3, dx=0.13, dy=0.13, n_rows=21,
                        n_cols=21)
        mask = field_snapshot(circle_run, grid, [12]).mask
        kept = grid.points()[~mask]
        assert kept.shape[0] == 301
        assert kept.shape[0] >= circle_run.scheme.n_half_nodes

        def observe():
            res = run_simulation(
                BoundaryCurve.circle(1.0), 32, "P0", ConstraintMode.none,
                circle_run.scheme, manufactured_dirichlet_data(), kept, CFG,
            )
            return res.velocity_series, res.pressure_series

        runs = []
        for n in CORE_COUNTS:
            use_cores(monkeypatch, n)
            runs.append(self.star_fields(star_run) + observe())
            assert_children_reaped()
        for fields in runs[1:]:
            for got, want in zip(fields, runs[0]):
                assert np.array_equal(got, want)

    def test_failing_share_is_raised_as_in_serial(self, star_run,
                                                  monkeypatch, tmp_path):
        """Representative 1, which the round-robin deal gives to a
        worker for 2 and 3 cores: the worker's points are redone here
        and raise the serial error, and no worker is left unreaped."""
        mask = field_snapshot(star_run, STAR_GRID, [0]).mask
        kept = STAR_GRID.points()[~mask]
        rep, _ = sector_action(star_run.space).orbits(kept)
        reps = np.flatnonzero(rep == np.arange(kept.shape[0]))
        assert reps.size >= star_run.scheme.n_half_nodes
        bad = kept[reps[1]]
        matrix = stokes_solver.potential_velocity_matrix
        refusals = tmp_path / "refusals"

        def failing(space, freq, cfg, points):
            if (points == bad).all(axis=1).any():
                with open(refusals, "a") as out:
                    out.write(f"{os.getpid()}\n")
                raise ValueError("refused point")
            return matrix(space, freq, cfg, points)

        monkeypatch.setattr(stokes_solver, "potential_velocity_matrix",
                            failing)
        messages = []
        for n in CORE_COUNTS:
            use_cores(monkeypatch, n)
            refusals.write_text("")
            with pytest.raises(ValueError, match="contour node 0 ") as info:
                field_snapshot(star_run, STAR_GRID, [4])
            assert str(info.value.__cause__) == "refused point"
            pids = refusals.read_text().split()
            assert pids[-1] == str(os.getpid())
            assert (pids[0] != pids[-1]) == (n > 1)
            assert_children_reaped()
            messages.append(str(info.value))
        assert messages == messages[:1] * len(CORE_COUNTS)

    def test_dead_worker_share_is_redone_here(self, star_run, monkeypatch):
        """A worker that dies leaves its share to the caller."""
        use_cores(monkeypatch, 1)
        serial = self.star_fields(star_run)
        parent = os.getpid()
        matrix = stokes_solver.potential_velocity_matrix

        def dying(*args):
            if os.getpid() != parent:
                os._exit(3)
            return matrix(*args)

        monkeypatch.setattr(stokes_solver, "potential_velocity_matrix", dying)
        for n in CORE_COUNTS[1:]:
            use_cores(monkeypatch, n)
            for got, want in zip(self.star_fields(star_run), serial):
                assert np.array_equal(got, want)
            assert_children_reaped()

    def test_point_split_forks_once_per_further_core(self, star_run,
                                                     monkeypatch, tmp_path):
        """Only the caller forks, ``cores - 1`` times, and each of the
        ``cores`` processes sweeps the whole half contour for its own
        points, evaluating every node exactly once.  Every
        representative is evaluated by exactly one process, and the
        caller's are every ``cores``-th from the first."""
        forks, calls = tmp_path / "forks", tmp_path / "calls"
        evaluated = tmp_path / "points"
        fork = os.fork

        def counted_fork():
            with open(forks, "a") as out:
                out.write(f"{os.getpid()}\n")
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        self.logged(monkeypatch, calls)
        self.logged_points(monkeypatch, evaluated)
        half = self.half_contour(star_run)
        mask = field_snapshot(star_run, STAR_GRID, [0]).mask
        kept = STAR_GRID.points()[~mask]
        rep, _ = sector_action(star_run.space).orbits(kept)
        reps = [point_key(x) for x in kept[rep == np.arange(kept.shape[0])]]
        assert len(reps) >= len(half)
        for n in CORE_COUNTS:
            use_cores(monkeypatch, n)
            forks.write_text("")
            calls.write_text("")
            evaluated.write_text("")
            field_snapshot(star_run, STAR_GRID, [4])
            assert_children_reaped()
            assert forks.read_text().split() == [str(os.getpid())] * (n - 1)
            by_pid = self.seen(calls)
            assert len(by_pid) == n
            assert all(sorted(seen) == half for seen in by_pid.values())
            by_pid = self.seen(evaluated)
            assert len(by_pid) == n
            assert sorted(sum(by_pid.values(), [])) == sorted(reps)
            assert by_pid[str(os.getpid())] == reps[::n]

    def test_refused_fork_leaves_fields_bit_identical(self, star_run,
                                                      monkeypatch):
        """With ``os.fork`` refused, the caller evaluates the shares it
        could not deal: the fields are those of one core, bit for bit.
        The first refusal ends the deal, so each split pass on 2 or 3
        cores tries to fork once."""
        use_cores(monkeypatch, 1)
        serial = self.star_fields(star_run)
        forks = []

        def no_fork():
            forks.append(os.getpid())
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", no_fork)
        for n in CORE_COUNTS:
            use_cores(monkeypatch, n)
            forks.clear()
            for got, want in zip(self.star_fields(star_run), serial):
                assert np.array_equal(got, want)
            assert forks == ([os.getpid()] if n > 1 else [])

    def test_half_contour_nodes_decide_the_split(self, star_run,
                                                 monkeypatch, tmp_path):
        """Six representatives, one fewer than the seven half-contour
        nodes of M = 12, run in the caller and fork nothing, every node
        evaluated exactly once; seven split the points over ``cores``
        processes, and every process sweeps the whole half contour."""
        calls = tmp_path / "calls"
        self.logged(monkeypatch, calls)
        forks = count_forks(monkeypatch)
        half = self.half_contour(star_run)
        assert len(half) == 7
        for n_points in (6, 7):
            k = np.arange(n_points)
            radius, angle = 1.6 + 0.1 * k, 0.3 + 0.9 * k
            points = np.stack([radius * np.cos(angle),
                               radius * np.sin(angle)], axis=-1)
            rep, _ = sector_action(star_run.space).orbits(points)
            assert (rep == k).all()
            for n in CORE_COUNTS[1:]:
                use_cores(monkeypatch, n)
                calls.write_text("")
                forks.clear()
                stokes_solver._observe(star_run.space, star_run.scheme,
                                       star_run.cfg, star_run.history, points)
                assert_children_reaped()
                by_pid = self.seen(calls)
                if n_points < len(half):
                    assert forks == []
                    assert list(by_pid) == [str(os.getpid())]
                    assert sorted(by_pid[str(os.getpid())]) == half
                else:
                    assert len(forks) == n - 1
                    assert len(by_pid) == n
                    assert all(sorted(seen) == half
                               for seen in by_pid.values())

    def test_few_points_spread_the_nodes(self, star_run, monkeypatch,
                                         tmp_path):
        """Three observation points, fewer than the half contour's
        nodes, are one share: on 1, 2 and 3 cores the caller evaluates
        every node exactly once and forks nothing."""
        calls = tmp_path / "calls"
        self.logged(monkeypatch, calls)
        forks = count_forks(monkeypatch)
        points = star_run.observation_points
        assert points.shape[0] < star_run.scheme.n_half_nodes
        for n in CORE_COUNTS:
            use_cores(monkeypatch, n)
            calls.write_text("")
            stokes_solver._observe(star_run.space, star_run.scheme,
                                   star_run.cfg, star_run.history, points)
            by_pid = self.seen(calls)
            assert list(by_pid) == [str(os.getpid())]
            assert sorted(by_pid[str(os.getpid())]) == self.half_contour(
                star_run)
        assert forks == []


def turned(points, turns, m):
    """The images of ``points`` under the rotations by ``2 pi k / m``,
    ``k`` in ``turns``, each image set in the order of ``points``."""
    angle = 2.0 * np.pi * np.asarray(turns)[:, None] / m
    x, y = np.asarray(points, dtype=float).T
    return np.stack([np.cos(angle) * x - np.sin(angle) * y,
                     np.sin(angle) * x + np.cos(angle) * y],
                    axis=-1).reshape(-1, 2)


def mirrored(points, angle):
    """The images of ``points`` under the reflection in the line through
    the origin at ``angle``, in the order of ``points``."""
    c, s = np.cos(2.0 * angle), np.sin(2.0 * angle)
    x, y = np.asarray(points, dtype=float).T
    return np.stack([c * x + s * y, s * x - c * y], axis=-1)


class TestOrbits:
    """A point set that rotations or reflections of the mesh map onto
    itself is evaluated at one representative per orbit; the other
    points take the turned fields of the turned density."""

    @staticmethod
    def assert_orbits_match_points(run, points, n_reps, monkeypatch):
        """The orbit pass evaluates ``n_reps`` points and agrees with
        evaluating each point alone within 1e-11 of each field's max."""
        args = (run.space, run.scheme, run.cfg, run.history)
        single = [stokes_solver._observe(*args, p[None]) for p in points]
        want_u = np.concatenate([u for u, _ in single], axis=1)
        want_p = np.concatenate([p for _, p in single], axis=1)
        seen = []
        matrix = stokes_solver.potential_velocity_matrix

        def counted(space, freq, cfg, pts):
            seen.append(pts.shape[0])
            return matrix(space, freq, cfg, pts)

        monkeypatch.setattr(stokes_solver, "potential_velocity_matrix",
                            counted)
        use_cores(monkeypatch, 1)
        got_u, got_p = stokes_solver._observe(*args, points)
        assert set(seen) == {n_reps}
        for got, want in ((got_u, want_u), (got_p, want_p)):
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-11 * np.abs(want).max())

    def test_half_turn_closed_set_on_the_star(self, star_run, monkeypatch):
        points = turned([(1.7, 0.2), (0.4, -1.5), (-0.9, 1.1), (0.1, 0.05)],
                        [0, 3], 6)
        assert star_run.space.mesh.symmetry_order == 6
        self.assert_orbits_match_points(star_run, points, 4, monkeypatch)

    def test_sixth_turn_closed_set_on_the_star(self, star_run, monkeypatch):
        """Every turn of the star's mesh.  The pulse along (1, 1) has no
        symmetry, so a turn the wrong way, ``Q_k^T`` or the copies
        rolled by ``-k``, shows here.  The half turn is its own inverse,
        and the manufactured data of the circle and the square, which a
        quarter turn maps to its negative, hide the wrong roll."""
        points = turned([(1.7, 0.2), (-0.9, 1.1)], np.arange(6), 6)
        self.assert_orbits_match_points(star_run, points, 2, monkeypatch)

    def test_quarter_turn_closed_set_on_the_circle(self, circle_run,
                                                   monkeypatch):
        points = turned([(0.3, 0.1), (-0.5, 0.6), (1.6, -0.4)],
                        [0, 8, 16, 24], 32)
        self.assert_orbits_match_points(circle_run, points, 3, monkeypatch)

    def test_quarter_turn_closed_set_on_the_p1_square(self, square_mult_run,
                                                      monkeypatch):
        assert square_mult_run.space.n_basis == 2
        points = turned([(0.3, 0.1), (-0.2, 0.35), (1.2, -0.9)],
                        [0, 1, 2, 3], 4)
        self.assert_orbits_match_points(square_mult_run, points, 3,
                                        monkeypatch)

    def test_mirror_closed_set_on_the_circle(self, circle_run, monkeypatch):
        """The circle's reflection ``tau`` maps ``(x, y)`` to ``(x,
        -y)``."""
        base = [(0.3, 0.1), (-0.5, 0.6), (1.6, -0.4)]
        points = np.concatenate([base, mirrored(base, 0.0)])
        self.assert_orbits_match_points(circle_run, points, 3, monkeypatch)

    def test_mirror_closed_set_on_the_p1_square(self, square_mult_run,
                                                monkeypatch):
        """The square's reflection ``tau`` is the one in the diagonal,
        ``(x, y)`` to ``(y, x)``; the one in the x axis is the square's
        ``Q_3 tau``.  A reflection reverses each element, so the two P1
        basis functions of the reflected density trade places; a copy
        that kept them shows here."""
        assert square_mult_run.space.n_basis == 2
        base = [(0.3, 0.1), (-0.2, 0.35), (1.2, -0.9)]
        points = np.concatenate([base, mirrored(base, np.pi / 4),
                                 mirrored(base, 0.0)])
        self.assert_orbits_match_points(square_mult_run, points, 3,
                                        monkeypatch)

    def test_mirror_closed_set_on_the_star(self, star_run, monkeypatch):
        """Every reflection of the star's mesh, in the lines at ``pi k /
        6``.  The pulse along (1, 1) has no mirror symmetry, so a wrong
        ``tau``, a density whose elements are not reversed or reversed
        about the wrong element, shows here."""
        base = [(1.7, 0.2), (-0.9, 1.1)]
        points = np.concatenate(
            [base] + [mirrored(base, np.pi * k / 6) for k in range(6)])
        assert star_run.space.mesh.symmetry_order == 6
        self.assert_orbits_match_points(star_run, points, 2, monkeypatch)

    def test_offset_images_are_never_matched(self, star_run):
        """An image moved by 1e-9 in any direction is its own
        representative; the exact image is derived."""
        base = np.array([[1.3, -0.7]])
        image = turned(base, [3], 6)
        offsets = 1e-9 * turned([(1.0, 0.0)], np.arange(8), 8)
        points = np.concatenate([base, image + offsets, image])
        assert star_run.space.mesh.symmetry_order == 6
        rep, turn = sector_action(star_run.space).orbits(points)
        assert rep.tolist() == list(range(9)) + [0]
        assert turn.tolist() == [0] * 9 + [3]

    def test_more_points_than_two_to_the_sixteen(self):
        """A centred 260 x 260 lattice, 67,600 points, takes every point
        to the least index of its four images: the point ``(a, b)`` of
        the lattice's row and column, its half-turn image ``(259 - a,
        259 - b)`` (element 1), its mirror image in the x axis ``(a, 259
        - b)`` (element 2, ``tau``) and in the y axis ``(259 - a, b)``
        (element 3, the half turn after ``tau``)."""
        axis = (np.arange(260) - 129.5) / 128.0
        x, y = np.meshgrid(axis, axis, indexing="ij")
        points = np.stack([x.ravel(), y.ravel()], axis=-1)
        n = points.shape[0]
        assert n > 2**16
        space = build_space(build_mesh(BoundaryCurve.star(), 8), "P0")
        assert space.mesh.symmetry_order == 2
        rep, turn = sector_action(space).orbits(points)
        a, b = np.divmod(np.arange(n), 260)
        assert np.array_equal(
            rep, 260 * np.minimum(a, 259 - a) + np.minimum(b, 259 - b))
        low_a, low_b = a < 130, b < 130
        assert np.array_equal(turn, np.select(
            [low_a & low_b, ~low_a & ~low_b, low_a], [0, 1, 2], 3))

    def test_set_without_orbit_gives_the_plain_series(self, star_run,
                                                      monkeypatch):
        """The run's own three points form no orbit: one call with the
        stack of the identity turn, a view of the history, and, bit for
        bit, the series of the plain ``(M + 1, dof)`` history convolved
        and multiplied alone."""
        histories = []
        postprocess = stokes_solver.cq_postprocess

        def recorded(transfer, scheme, history):
            histories.append(history)
            return postprocess(transfer, scheme, history)

        monkeypatch.setattr(stokes_solver, "cq_postprocess", recorded)
        use_cores(monkeypatch, 1)
        run, points = star_run, star_run.observation_points
        velocity, pressure = stokes_solver._observe(
            run.space, run.scheme, run.cfg, run.history, points)
        assert len(histories) == 1
        assert histories[0].shape == (1,) + run.history.shape
        assert np.shares_memory(histories[0], run.history)
        plain_u = postprocess(
            lambda s: stokes_solver.potential_velocity_matrix(
                run.space, s, run.cfg, points),
            run.scheme, run.history).reshape(velocity.shape)
        plain_p = run.history @ stokes_solver.potential_pressure_matrix(
            run.space, points).T
        assert velocity.tobytes() == plain_u.tobytes()
        assert pressure.tobytes() == plain_p.tobytes()
        assert velocity.tobytes() == run.velocity_series.tobytes()
        assert pressure.tobytes() == run.pressure_series.tobytes()


class TestSimulationResultValidation:
    """Stored series must match the scheme and observation layout."""

    def test_rejects_truncated_history(self, circle_run):
        with pytest.raises(ValueError, match="history length"):
            dataclasses.replace(circle_run, history=circle_run.history[:-1])

    def test_rejects_wrong_velocity_shape(self, circle_run):
        with pytest.raises(ValueError, match="velocity series"):
            dataclasses.replace(
                circle_run,
                velocity_series=circle_run.velocity_series[:, :2, :],
            )

    def test_rejects_wrong_pressure_shape(self, circle_run):
        with pytest.raises(ValueError, match="pressure series"):
            dataclasses.replace(
                circle_run,
                pressure_series=circle_run.pressure_series[:, :1],
            )
