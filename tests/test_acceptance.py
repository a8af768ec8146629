"""End-to-end acceptance gate.

Six criteria, one test each, covering the two convergence tables, the
frequency-domain operator properties, the time-stepping order, kernel
accuracy against an arbitrary-precision oracle, and the structural
solver invariants.  Each test prints one ``CRITERION n: PASS/FAIL``
line with the measured numbers and enforces its stated runtime budget.
"""

import time

import mpmath as mp
import numpy as np

from test_laplace_kernels import mp_a2, mp_a3, mp_b2, mp_b3

from stokesbem.bem_space import ConstraintMode, build_space
from stokesbem.boundary_geometry import BoundaryCurve, build_mesh
from stokesbem.cq_engine import CQScheme
from stokesbem.laplace_kernels import (
    ComplexFrequency,
    ProblemConfig,
    scalar_A,
    scalar_B,
    velocity_kernel,
)
from stokesbem.stokes_solver import (
    DirichletData,
    exact_solution,
    manufactured_dirichlet_data,
    run_simulation,
)
from stokesbem.verification import (
    SweepProblem,
    convergence_sweep,
    cq_order_report,
    laplace_property_suite,
)

CFG = ProblemConfig()

#: Published reference errors the reproduced tables are checked against.
REFERENCE_ERR_U_CIRCLE_80 = 1.7287e-05
REFERENCE_ERR_U_SQUARE_128 = 2.2716e-06


def _verdict(num, name, passed, detail, elapsed, budget):
    line = (
        f"CRITERION {num} ({name}): {'PASS' if passed else 'FAIL'} - "
        f"{detail} [{elapsed:.1f}s / budget {budget:.0f}s]"
    )
    print(line)
    assert passed and elapsed < budget, line


def test_criterion_1_circle_table_reproduction():
    """Circle, P0 + reduced integration, BDF3, N = M in {20,...,160}:
    rates in [2.7, 3.3] from the third row, errU at 80 within x3."""
    budget, t0 = 300.0, time.monotonic()
    problem = SweepProblem(
        curve=BoundaryCurve.circle(1.0),
        kind="P0",
        constraint=ConstraintMode.none,
        order=3,
        data=manufactured_dirichlet_data(),
        observation_points=[(0.0, 0.0), (0.5, 0.5), (-0.6, 0.1)],
        cfg=CFG,
        assembly="reduced",
    )
    records = convergence_sweep(
        problem, [(20, 20), (40, 40), (80, 80), (160, 160)]
    )
    rates = [
        r for rec in records[2:] for r in (rec.ecr_u, rec.ecr_p)
    ]
    rates_ok = all(2.7 <= r <= 3.3 for r in rates)
    err_80 = records[2].err_u
    ratio = max(err_80 / REFERENCE_ERR_U_CIRCLE_80,
                REFERENCE_ERR_U_CIRCLE_80 / err_80)
    elapsed = time.monotonic() - t0
    _verdict(
        1,
        "circle error table",
        rates_ok and ratio <= 3.0,
        f"rates {[f'{r:.2f}' for r in rates]} in [2.7,3.3]: {rates_ok}; "
        f"errU(80)={err_80:.4e} vs {REFERENCE_ERR_U_CIRCLE_80:.4e} "
        f"(x{ratio:.2f} <= 3)",
        elapsed,
        budget,
    )


def test_criterion_2_square_table_reproduction():
    """Square, discontinuous P1 + multiplier constraint, BDF3, ladder
    (16,40)...(128,320): monotone, LS slope >= 2.4, final errU x5."""
    budget, t0 = 900.0, time.monotonic()
    problem = SweepProblem(
        curve=BoundaryCurve.square(1.0),
        kind="P1_discontinuous",
        constraint=ConstraintMode.multiplier_m,
        order=3,
        data=manufactured_dirichlet_data(),
        observation_points=[(-0.5, -0.5), (0.3, 0.7), (0.6, 0.2)],
        cfg=CFG,
    )
    records = convergence_sweep(
        problem, [(16, 40), (32, 80), (64, 160), (128, 320)]
    )
    errors = [rec.err_u for rec in records]
    monotone = all(a > b for a, b in zip(errors, errors[1:]))
    slope = -float(np.polyfit(
        np.log([rec.n_elements for rec in records]), np.log(errors), 1
    )[0])
    err_last = errors[-1]
    ratio = max(err_last / REFERENCE_ERR_U_SQUARE_128,
                REFERENCE_ERR_U_SQUARE_128 / err_last)
    elapsed = time.monotonic() - t0
    _verdict(
        2,
        "square error table",
        monotone and slope >= 2.4 and ratio <= 5.0,
        f"errU {[f'{e:.3e}' for e in errors]} monotone: {monotone}; "
        f"LS slope {slope:.2f} >= 2.4; errU(128,320)={err_last:.4e} vs "
        f"{REFERENCE_ERR_U_SQUARE_128:.4e} (x{ratio:.2f} <= 5)",
        elapsed,
        budget,
    )


def test_criterion_3_frequency_domain_properties():
    """16 frequencies: symmetry 1e-12, positivity -1e-10 scaled,
    kernel residual at quadrature tolerance, gauge equivalence 1e-10."""
    budget, t0 = 120.0, time.monotonic()
    space = build_space(
        build_mesh(BoundaryCurve.square(1.0), 12), "P1_discontinuous"
    )
    report = laplace_property_suite(space)
    worst = {
        "symmetry": max(c.margin for c in report.select("symmetry")),
        "positivity": min(c.margin for c in report.select("positivity")),
        "kernel": max(c.margin for c in report.select("kernel")),
        "equivalence": max(c.margin for c in report.select("equivalence")),
    }
    elapsed = time.monotonic() - t0
    _verdict(
        3,
        "operator properties",
        report.all_passed,
        f"worst symmetry {worst['symmetry']:.2e} <= 1e-12, "
        f"positivity {worst['positivity']:.2e} >= -1e-10, "
        f"kernel {worst['kernel']:.2e} <= 1e-8, "
        f"equivalence {worst['equivalence']:.2e} <= 1e-10 "
        f"({len(report.checks)} checks)",
        elapsed,
        budget,
    )


def test_criterion_4_time_stepping_order():
    """F(s) = 1/(s+1) with smooth causal data: observed orders within
    0.2 of p for p in {1, 2, 3}."""
    budget, t0 = 10.0, time.monotonic()
    report = cq_order_report()
    slopes = {c.label: c.margin for c in report.checks}
    elapsed = time.monotonic() - t0
    _verdict(
        4,
        "time-stepping order",
        report.all_passed,
        f"observed slopes {({k: f'{v:.3f}' for k, v in slopes.items()})} "
        f"within +-0.2",
        elapsed,
        budget,
    )


def test_criterion_5_kernel_accuracy():
    """Kernel profiles and the assembled tensor match the
    arbitrary-precision oracle to 1e-10 at 200 samples; switch-radius
    seams consistent to 1e-9."""
    budget, t0 = 30.0, time.monotonic()
    mp.mp.dps = 40
    rng = np.random.default_rng(20260822)
    worst_profile = 0.0
    worst_tensor = 0.0
    oracles = {2: (mp_a2, mp_b2), 3: (mp_a3, mp_b3)}
    for dimension in (2, 3):
        mp_a, mp_b = oracles[dimension]
        for _ in range(100):
            mag = 10.0 ** rng.uniform(-1.3, 1.75)
            arg = rng.uniform(-0.49 * np.pi, 0.49 * np.pi)
            z = mag * np.exp(1j * arg)
            a_ref, b_ref = mp_a(z), mp_b(z)
            worst_profile = max(
                worst_profile,
                abs(scalar_A(dimension, z) - a_ref) / abs(a_ref),
                abs(scalar_B(dimension, z) - b_ref) / abs(b_ref),
            )
            dist = 10.0 ** rng.uniform(-1.0, 0.5)
            sqrt_s = z / dist
            cfg = ProblemConfig(dimension=dimension)
            direction = rng.standard_normal(dimension)
            direction /= np.linalg.norm(direction)
            tensor = velocity_kernel(
                dist * direction, ComplexFrequency(sqrt_s**2), cfg
            )
            rhat = np.outer(direction, direction)
            reference = cfg.kernel_prefactor / dist ** (dimension - 2) * (
                a_ref * np.eye(dimension) + b_ref * rhat
            )
            worst_tensor = max(
                worst_tensor,
                float(
                    np.abs(tensor - reference).max()
                    / np.abs(reference).max()
                ),
            )
    samples_ok = worst_profile <= 1e-10 and worst_tensor <= 1e-10

    worst_seam = 0.0
    for radius in (4.0, 30.0):
        for bump in (-1e-6, 1e-6):
            for arg in np.linspace(-0.45 * np.pi, 0.45 * np.pi, 8):
                z = (radius + bump) * np.exp(1j * arg)
                for profile, oracle in ((scalar_A, mp_a2), (scalar_B, mp_b2)):
                    ref = oracle(z)
                    worst_seam = max(
                        worst_seam, abs(profile(2, z) - ref) / abs(ref)
                    )
    elapsed = time.monotonic() - t0
    _verdict(
        5,
        "kernel accuracy",
        samples_ok and worst_seam <= 1e-9,
        f"200 samples: profiles {worst_profile:.2e} <= 1e-10, tensors "
        f"{worst_tensor:.2e} <= 1e-10; seam {worst_seam:.2e} <= 1e-9",
        elapsed,
        budget,
    )


def test_criterion_6_solver_invariants():
    """Table-2 configuration at N = M = 40: closed-ring fluxes vanish
    and delayed data produces an exactly delayed response."""
    budget, t0 = 60.0, time.monotonic()
    scheme = CQScheme(order=3, kappa=1.0 / 40, n_steps=40)

    angles = 2 * np.pi * np.arange(256) / 256
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    obs = np.concatenate([0.3 * ring, 1.8 * ring])
    flow = run_simulation(
        BoundaryCurve.circle(1.0), 40, "P0", ConstraintMode.none,
        scheme, manufactured_dirichlet_data(), obs, CFG, assembly="reduced",
    )
    scale = max(1.0, float(np.abs(flow.velocity_series).max()))
    worst_flux = 0.0
    for k, radius in enumerate((0.3, 1.8)):
        sl = slice(256 * k, 256 * (k + 1))
        normal_part = np.einsum(
            "nkc,kc->nk", flow.velocity_series[:, sl, :], ring
        )
        flux = (2 * np.pi * radius / 256) * normal_part.sum(axis=1)
        worst_flux = max(worst_flux, float(np.abs(flux).max() / scale))

    delay = 0.25
    delayed = DirichletData(
        boundary_values=lambda t, p: exact_solution(t - delay, p)[0],
        smoothness=8,
    )
    quiet_run = run_simulation(
        BoundaryCurve.circle(1.0), 40, "P0", ConstraintMode.none,
        scheme, delayed, [(0.5, 0.0)], CFG, assembly="reduced",
    )
    quiet = quiet_run.scheme.times() <= delay
    early = float(np.abs(quiet_run.history[quiet]).max())
    late = float(np.abs(quiet_run.history[~quiet]).max())
    elapsed = time.monotonic() - t0
    _verdict(
        6,
        "solver invariants",
        worst_flux <= 1e-10 and early == 0.0 and late > 0.0,
        f"ring flux {worst_flux:.2e} <= 1e-10 scaled; response before "
        f"t={delay} exactly {early:.1e}, after: {late:.2e} > 0",
        elapsed,
        budget,
    )
