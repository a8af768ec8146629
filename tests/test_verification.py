"""Tests for convergence sweeps, operator property reports, and oracles."""

import os
import subprocess
import sys

import numpy as np
import pytest

import stokesbem
from stokesbem.bem_space import ConstraintMode, build_space
from stokesbem.boundary_geometry import BoundaryCurve, build_mesh
from stokesbem.laplace_kernels import ProblemConfig
from stokesbem.stokes_solver import DirichletData, manufactured_dirichlet_data
from stokesbem.verification import (
    ConvergenceRecord,
    SweepProblem,
    convergence_sweep,
    default_frequencies,
    laplace_property_suite,
    time_convolution_oracle,
)

CFG = ProblemConfig()


def circle_problem(**overrides):
    base = dict(
        curve=BoundaryCurve.circle(1.0),
        kind="P0",
        constraint=ConstraintMode.none,
        order=3,
        data=manufactured_dirichlet_data(),
        observation_points=[(0.0, 0.0), (0.5, 0.5), (-0.6, 0.1)],
        cfg=CFG,
        assembly="reduced",
    )
    base.update(overrides)
    return SweepProblem(**base)


class TestDefaultFrequencies:
    def test_count_and_coverage(self):
        freqs = np.asarray(default_frequencies())
        assert freqs.shape == (16,)
        mags = np.abs(freqs)
        np.testing.assert_allclose(
            np.unique(np.round(mags, 12)), [0.1, 1.0, 10.0, 100.0]
        )
        args = np.angle(freqs)
        np.testing.assert_allclose(
            np.unique(np.round(args, 12)),
            np.sort([0.0, 0.5 * np.pi, -0.5 * np.pi, 0.75 * np.pi]),
            atol=1e-12,
        )

    def test_avoids_negative_real_axis(self):
        for s in default_frequencies():
            assert not (s.real < 0 and abs(s.imag) < 1e-12 * abs(s))


class TestConvergenceRecord:
    def test_rejects_negative_errors(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ConvergenceRecord(8, 8, -1.0, 0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            ConvergenceRecord(8, 8, 1.0, -0.5)

    def test_first_row_has_no_rates(self):
        rec = ConvergenceRecord(8, 8, 1.0, 0.5)
        assert rec.ecr_u is None and rec.ecr_p is None


class TestConvergenceSweep:
    def test_rejects_empty_ladder(self):
        with pytest.raises(ValueError, match="at least one"):
            convergence_sweep(circle_problem(), [])

    @pytest.mark.parametrize(
        "ladder",
        [
            [(10, 10), (20, 30)],
            [(10, 10), (15, 20)],
            [(10, 10), (20, 20), (30, 40)],
        ],
    )
    def test_rejects_non_doubling_ladder(self, ladder):
        with pytest.raises(ValueError, match="double"):
            convergence_sweep(circle_problem(), ladder)

    def test_rates_follow_error_ratios(self):
        records = convergence_sweep(
            circle_problem(), [(10, 10), (20, 20), (40, 40)]
        )
        assert len(records) == 3
        assert records[0].ecr_u is None and records[0].ecr_p is None
        for prev, cur in zip(records, records[1:]):
            assert cur.ecr_u == pytest.approx(
                np.log2(prev.err_u / cur.err_u), rel=1e-12
            )
            assert cur.ecr_p == pytest.approx(
                np.log2(prev.err_p / cur.err_p), rel=1e-12
            )

    def test_third_order_scheme_shows_third_order_rates(self):
        records = convergence_sweep(
            circle_problem(), [(10, 10), (20, 20), (40, 40)]
        )
        assert records[1].err_u == pytest.approx(1.9321e-03, rel=1e-3)
        assert records[2].err_u == pytest.approx(2.4051e-04, rel=1e-3)
        for rec in records[1:]:
            assert 2.6 <= rec.ecr_u <= 3.4
            assert 2.6 <= rec.ecr_p <= 3.4

    def test_zero_data_gives_flat_errors_and_zero_rates(self):
        zero = DirichletData(boundary_values=lambda t, p: np.zeros(p.shape))
        records = convergence_sweep(
            circle_problem(data=zero), [(8, 8), (16, 16)]
        )
        assert records[0].err_u == records[1].err_u > 0.0
        assert records[1].ecr_u == 0.0
        assert records[1].ecr_p == 0.0


class TestLaplacePropertySuite:
    def test_square_space_passes_everything(self):
        space = build_space(
            build_mesh(BoundaryCurve.square(1.0), 8), "P1_discontinuous"
        )
        report = laplace_property_suite(space, default_frequencies()[:4])
        assert report.all_passed
        assert len(report.checks) == 16
        names = {c.name for c in report.checks}
        assert names == {"symmetry", "positivity", "kernel", "equivalence"}
        assert all(c.margin <= 1e-12 for c in report.select("symmetry"))
        assert all(c.margin >= 0.01 for c in report.select("positivity"))
        assert all(c.margin <= 1e-10 for c in report.select("kernel"))
        assert all(c.margin <= 1e-10 for c in report.select("equivalence"))

    def test_smooth_curve_reports_kernel_defect_without_raising(self):
        """P0 only interpolates the circle normal to O(h^2), so the
        kernel and gauge checks fail as report entries."""
        space = build_space(build_mesh(BoundaryCurve.circle(1.0), 16), "P0")
        report = laplace_property_suite(space, [1.0 + 0.5j, 0.2j])
        assert not report.all_passed
        assert all(c.passed for c in report.select("symmetry"))
        assert all(c.passed for c in report.select("positivity"))
        assert not any(c.passed for c in report.select("kernel"))
        assert all(c.margin > 1e-6 for c in report.select("kernel"))

    def test_report_is_deterministic(self):
        space = build_space(build_mesh(BoundaryCurve.square(1.0), 8), "P0")
        first = laplace_property_suite(space, [2.0 + 1.0j])
        second = laplace_property_suite(space, [2.0 + 1.0j])
        assert [c.margin for c in first.checks] == [
            c.margin for c in second.checks
        ]

    def test_lines_format(self):
        space = build_space(build_mesh(BoundaryCurve.square(1.0), 8), "P0")
        report = laplace_property_suite(space, [2.0 + 1.0j])
        lines = report.lines()
        assert len(lines) == len(report.checks)
        assert all(("PASS" in ln) or ("FAIL" in ln) for ln in lines)


class TestTimeConvolutionOracle:
    """Kernels of the transfers ``1/s`` (unit step), ``1/(s + 1)``
    (decaying exponential) and ``1/s**2`` (ramp)."""

    @pytest.mark.parametrize("power", [0, 1, 3])
    def test_step_transfer_integrates_data(self, power):
        value = time_convolution_oracle(
            lambda t: 1.0, lambda t: t**power, 0.8
        )
        assert value == pytest.approx(0.8 ** (power + 1) / (power + 1),
                                      rel=1e-11)

    def test_exponential_transfer_quadratic_data(self):
        t = 1.3
        value = time_convolution_oracle(
            lambda u: np.exp(-u), lambda u: u * u, t
        )
        closed = t * t - 2 * t + 2 - 2 * np.exp(-t)
        assert value == pytest.approx(closed, rel=1e-11)

    def test_exponential_transfer_sine_data(self):
        t = 0.9
        value = time_convolution_oracle(
            lambda u: np.exp(-u), np.sin, t
        )
        closed = 0.5 * (np.sin(t) - np.cos(t) + np.exp(-t))
        assert value == pytest.approx(closed, rel=1e-11)

    def test_ramp_transfer(self):
        value = time_convolution_oracle(
            lambda t: t, lambda t: 1.0, 0.5
        )
        assert value == pytest.approx(0.125, rel=1e-12)

    def test_nonpositive_time_is_zero(self):
        for t in (0.0, -1.0):
            assert time_convolution_oracle(
                lambda u: 1.0, lambda u: 1.0, t
            ) == 0.0

    def test_package_import_leaves_scipy_integrate_out(self):
        """Only the oracle needs ``scipy.integrate``; it imports it when
        called, so ``import stokesbem`` does not pay for it."""
        src = os.path.dirname(os.path.dirname(stokesbem.__file__))
        code = (f"import sys; sys.path.insert(0, {src!r}); import stokesbem; "
                "print('scipy.integrate' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "False"
