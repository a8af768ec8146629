"""Point-level tests of the Laplace-domain kernel evaluations.

The reference values come from arbitrary-precision evaluation with
mpmath of the closed-form profiles

    A_2(z) = 2 (K_0(z) + K_1(z)/z - 1/z^2),
    B_2(z) = 2 (2/z^2 - K_0(z) - 2 K_1(z)/z),

and their three-dimensional exponential counterparts.
"""

import functools
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import kv

from stokesbem.laplace_kernels import (
    SPLIT_SERIES_RADIUS,
    ComplexFrequency,
    ProblemConfig,
    _bessel_sums,
    _pr2,
    pressure_kernel,
    principal_sqrt,
    scalar_A,
    scalar_B,
    velocity_kernel,
)

mp.mp.dps = 40


def mp_k(order, z):
    return complex(mp.besselk(order, mp.mpc(z)))


@functools.lru_cache(maxsize=16)
def _mp_k01(z, dps):
    """K_0 and K_1 at ``z``; cached because the A_2 and B_2 oracles are
    usually called one after the other on the same argument."""
    z = mp.mpc(z)
    return mp.besselk(0, z), mp.besselk(1, z)


def mp_a2(z):
    k0, k1 = _mp_k01(complex(z), mp.mp.dps)
    z = mp.mpc(z)
    return complex(2 * (k0 + k1 / z - 1 / z**2))


def mp_b2(z):
    k0, k1 = _mp_k01(complex(z), mp.mp.dps)
    z = mp.mpc(z)
    return complex(2 * (2 / z**2 - k0 - 2 * k1 / z))


def mp_a3(z):
    z = mp.mpc(z)
    if z == 0:
        return 1.0 + 0.0j
    return complex(2 * (mp.e**-z * (z**2 + z + 1) - 1) / z**2)


def mp_b3(z):
    z = mp.mpc(z)
    if z == 0:
        return 1.0 + 0.0j
    return complex(-2 * (mp.e**-z * (z**2 + 3 * z + 3) - 3) / z**2)


# ---------------------------------------------------------------------------
# principal_sqrt


def test_principal_sqrt_positive_real():
    assert principal_sqrt(4.0) == pytest.approx(2.0)


def test_principal_sqrt_imaginary_unit():
    root = principal_sqrt(1j)
    assert root == pytest.approx(np.sqrt(2) / 2 * (1 + 1j))


def test_principal_sqrt_rejects_cut():
    with pytest.raises(ValueError):
        principal_sqrt(-1.0)
    with pytest.raises(ValueError):
        principal_sqrt(0.0)


NON_FINITE = [complex(np.nan, 0.0), complex(np.inf, 0.0),
              complex(1.0, np.inf), complex(1.0, np.nan)]


@pytest.mark.parametrize("s", NON_FINITE, ids=["nan", "inf", "1+inf j",
                                               "1+nan j"])
def test_principal_sqrt_rejects_non_finite(s):
    """A non-finite frequency is refused by name before any kernel sees
    it, through the square root and the frequency built on it."""
    message = re.escape(f"frequency {s} is not finite")
    with pytest.raises(ValueError, match=message):
        principal_sqrt(s)
    with pytest.raises(ValueError, match=message):
        velocity_kernel([1.0, 0.0], ComplexFrequency(s), ProblemConfig())


@settings(deadline=None)
@given(
    st.floats(-3, 3),
    st.floats(-np.pi + 1e-3, np.pi - 1e-3),
)
def test_principal_sqrt_round_trip(log10_mod, arg):
    s = 10.0**log10_mod * np.exp(1j * arg)
    root = principal_sqrt(s)
    assert root.real > 0.0
    assert abs(root * root - s) <= 1e-13 * abs(s)


# ---------------------------------------------------------------------------
# K_l of complex argument from scipy.special.kv, as the closed forms of
# A_2 and B_2 take them: B_2 relies on K_2 = K_0 + 2 K_1 / z, the far
# field on an exact 0 where the exponential underflows, and the real
# convolution weights on K_l(conj z) = conj K_l(z).


def test_bessel_k0_at_one():
    assert kv(0, 1.0 + 0.0j) == pytest.approx(0.42102443824070834, rel=1e-13)


def test_bessel_k1_at_one():
    assert kv(1, 1.0 + 0.0j) == pytest.approx(0.6019072301972346, rel=1e-13)


def test_bessel_k2_recurrence_spot():
    z = 2.0 + 3.0j
    lhs = kv(2, z)
    rhs = kv(0, z) + 2.0 * kv(1, z) / z
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_bessel_k_accuracy_against_mpmath():
    """Relative accuracy 1e-14 from |z| = 1e-4 to 600."""
    rng = np.random.default_rng(31)
    mods = 10.0 ** rng.uniform(-4, np.log10(600.0), 60)
    args = rng.uniform(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3, 60)
    zs = mods * np.exp(1j * args)
    for z in zs:
        for order in (0, 1):
            got = kv(order, z)
            ref = mp_k(order, z)
            assert abs(got - ref) <= 1e-14 * abs(ref), (order, z)


def test_bessel_k_recurrence_grid():
    rng = np.random.default_rng(5)
    zs = rng.uniform(0.1, 20.0, 25) * np.exp(1j * rng.uniform(-1.3, 1.3, 25))
    k0 = kv(0, zs)
    k1 = kv(1, zs)
    k2 = kv(2, zs)
    resid = np.abs(k2 - (k0 + 2.0 * k1 / zs))
    assert (resid <= 1e-12 * np.abs(k2)).all()


def test_bessel_k_branch_seams():
    """The probe radii 4 and 30 stay consistent to 1e-9 with the oracle."""
    for radius in (4.0, 30.0):
        for bump in (-1e-6, 1e-6):
            for arg in (-1.2, -0.4, 0.0, 0.7, 1.3):
                z = (radius + bump) * np.exp(1j * arg)
                for order in (0, 1):
                    got = kv(order, z)
                    ref = mp_k(order, z)
                    assert abs(got - ref) <= 1e-9 * abs(ref)


def test_bessel_k_underflow_flush():
    assert kv(0, 800.0 + 1.0j) == 0.0


def test_bessel_k_conjugation_symmetry():
    rng = np.random.default_rng(11)
    zs = rng.uniform(0.2, 40.0, 20) * np.exp(1j * rng.uniform(-1.4, 1.4, 20))
    for order in (0, 1, 2):
        up = kv(order, zs)
        down = kv(order, np.conj(zs))
        np.testing.assert_allclose(down, np.conj(up), rtol=1e-14)


# ---------------------------------------------------------------------------
# scalar_A / scalar_B


def test_scalar_a3_b3_at_zero():
    assert scalar_A(3, 0.0) == pytest.approx(1.0)
    assert scalar_B(3, 0.0) == pytest.approx(1.0)


def test_scalar_a3_linear_coefficient():
    """A_3(z) = 1 - (4/3) z + O(z^2), checked one-sided (Re z >= 0).

    The Richardson combination (4 A(h) - 3 A(0) - A(2h)) / (2h) kills
    the O(h) term of the forward difference.
    """
    h = 1e-4
    slope = (4 * scalar_A(3, h) - 3 * scalar_A(3, 0.0) - scalar_A(3, 2 * h)) / (2 * h)
    assert slope == pytest.approx(-4.0 / 3.0, abs=1e-7)


def test_scalar_b2_small_argument_limit():
    """B_2(z) -> 1 as z -> 0 along several rays."""
    for arg in (0.0, 0.9, -1.2):
        z = 1e-6 * np.exp(1j * arg)
        assert scalar_B(2, z) == pytest.approx(1.0, abs=1e-10)
    assert scalar_A(2, 1e-300 + 0j) != 0  # no spurious underflow on entry


def test_scalar_ab2_against_mpmath():
    rng = np.random.default_rng(77)
    mods = 10.0 ** rng.uniform(-3, np.log10(50.0), 40)
    args = rng.uniform(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3, 40)
    for z in mods * np.exp(1j * args):
        ra = scalar_A(2, z)
        rb = scalar_B(2, z)
        assert abs(ra - mp_a2(z)) <= 1e-10 * max(abs(mp_a2(z)), 1e-3)
        assert abs(rb - mp_b2(z)) <= 1e-10 * max(abs(mp_b2(z)), 1e-3)


def test_scalar_ab3_against_mpmath():
    rng = np.random.default_rng(78)
    mods = 10.0 ** rng.uniform(-3, np.log10(50.0), 30)
    args = rng.uniform(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3, 30)
    for z in mods * np.exp(1j * args):
        ra = scalar_A(3, z)
        rb = scalar_B(3, z)
        assert abs(ra - mp_a3(z)) <= 1e-12 * max(abs(mp_a3(z)), 1e-3)
        assert abs(rb - mp_b3(z)) <= 1e-12 * max(abs(mp_b3(z)), 1e-3)


def test_scalar_series_seam_band():
    """Series and closed-form branches agree near their handover."""
    rng = np.random.default_rng(79)
    mods = np.concatenate(
        [np.linspace(0.05, 5.0, 30), 0.5 + rng.uniform(-1e-8, 1e-8, 10)]
    )
    args = rng.uniform(-1.3, 1.3, mods.size)
    for z in mods * np.exp(1j * args):
        assert abs(scalar_A(2, z) - mp_a2(z)) <= 1e-9 * max(abs(mp_a2(z)), 1e-3)
        assert abs(scalar_B(2, z) - mp_b2(z)) <= 1e-9 * max(abs(mp_b2(z)), 1e-3)


def test_split_companions_skip_the_harmonic_sums_bit_for_bit():
    """``_pr2`` sums the I-type series alone: the sums and the companions
    are the bits of the full loop, whose harmonic sums it drops."""
    rng = np.random.default_rng(83)
    z = rng.uniform(0.01, SPLIT_SERIES_RADIUS, 400) * np.exp(
        1j * rng.uniform(-1.5, 1.5, 400))
    u, full, harmonic = _bessel_sums(z)
    u_only, i_only, none = _bessel_sums(z, harmonic=False)
    assert none is None and len(harmonic) == 3
    assert np.array_equal(u_only, u)
    for got, want in zip(i_only, full):
        assert np.array_equal(got, want)
    p, r = _pr2(z)
    assert np.array_equal(p, 2.0 * full[0] - full[1])
    assert np.array_equal(r, 2.0 * u * full[2])


def test_scalar_rejects_bad_dimension():
    with pytest.raises(ValueError):
        scalar_A(4, 1.0)


def test_scalar_a2_rejects_left_half_plane():
    with pytest.raises(ValueError):
        scalar_A(2, -0.3 + 0.0j)


@pytest.mark.parametrize("z", NON_FINITE, ids=["nan", "inf", "1+inf j",
                                               "1+nan j"])
def test_scalar_a2_rejects_non_finite(z):
    message = re.escape(f"argument {z} is not finite")
    with pytest.raises(ValueError, match=message):
        scalar_A(2, z)
    with pytest.raises(ValueError, match=message):
        scalar_B(2, np.array([1.0, z, 2.0]))


def test_problem_config_rejects_infinite_viscosity():
    with pytest.raises(ValueError, match="viscosity must be positive and finite"):
        ProblemConfig(nu=np.inf)


# ---------------------------------------------------------------------------
# velocity_kernel / pressure_kernel


def test_velocity_kernel_symmetric_random():
    rng = np.random.default_rng(3)
    cfg = ProblemConfig()
    for _ in range(10):
        r = rng.standard_normal(2)
        s = complex(rng.uniform(0.1, 10), rng.uniform(-10, 10))
        tensor = velocity_kernel(r, ComplexFrequency(s), cfg)
        assert tensor[0, 1] == tensor[1, 0]


def test_velocity_kernel_axis_aligned_entry():
    cfg = ProblemConfig()
    tensor = velocity_kernel([1.0, 0.0], ComplexFrequency(1.0 + 0j), cfg)
    expected = (scalar_A(2, 1.0) + scalar_B(2, 1.0)) / (4 * np.pi)
    assert tensor[0, 0] == pytest.approx(expected, rel=1e-14)


def test_velocity_kernel_oracle_composition():
    """d=2, s=10+5i, r=(0.3,0.4) against mpmath-composed entries."""
    cfg = ProblemConfig()
    s = 10.0 + 5.0j
    r = np.array([0.3, 0.4])
    dist = np.hypot(*r)
    z = complex(mp.sqrt(mp.mpc(s)) * dist)
    rhat = r / dist
    tensor = velocity_kernel(r, ComplexFrequency(s), cfg)
    for i in range(2):
        for j in range(2):
            ref = mp_b2(z) * rhat[i] * rhat[j]
            if i == j:
                ref = ref + mp_a2(z)
            ref = ref / (4 * np.pi)
            assert abs(tensor[i, j] - ref) <= 1e-10 * abs(ref)


def test_velocity_kernel_even():
    cfg = ProblemConfig()
    freq = ComplexFrequency(2.0 + 1.0j)
    r = np.array([0.7, -0.2])
    t_plus = velocity_kernel(r, freq, cfg)
    t_minus = velocity_kernel(-r, freq, cfg)
    np.testing.assert_allclose(t_minus, t_plus, rtol=1e-15)


def test_velocity_kernel_rejects_origin():
    cfg = ProblemConfig()
    with pytest.raises(ValueError):
        velocity_kernel([0.0, 0.0], ComplexFrequency(1.0 + 0j), cfg)


def test_velocity_kernel_viscosity_scaling():
    """``u_t = nu Lap u - grad p`` transforms to ``(s/nu) u - Lap u +
    grad(p/nu) = 0``: the Brinkman problem with parameter ``s/nu``, so
    ``E(r; s, nu) = E(r; s/nu, 1) / nu``; ``z = sqrt(s/nu) r``."""
    r = np.array([0.5, 0.1])
    rhat = r / np.linalg.norm(r)
    s = 2.0 + 1.0j
    for nu in (0.5, 2.0, 4.0):
        got = velocity_kernel(r, ComplexFrequency(s), ProblemConfig(nu=nu))
        want = velocity_kernel(r, ComplexFrequency(s / nu),
                               ProblemConfig()) / nu
        np.testing.assert_allclose(got, want, rtol=1e-15)
        z = np.sqrt(s / nu) * np.linalg.norm(r)
        direct = (scalar_A(2, z) * np.eye(2)
                  + scalar_B(2, z) * np.outer(rhat, rhat)) / (4.0 * np.pi * nu)
        np.testing.assert_allclose(got, direct, rtol=1e-14)


def test_pressure_kernel_planar_axis():
    np.testing.assert_allclose(
        pressure_kernel([1.0, 0.0], 2), [1.0 / (2 * np.pi), 0.0], rtol=1e-15
    )


def test_pressure_kernel_odd():
    r = np.array([0.3, -0.8])
    np.testing.assert_allclose(
        pressure_kernel(-r, 2), -pressure_kernel(r, 2), rtol=1e-15
    )


def test_pressure_kernel_three_dimensional_axis():
    np.testing.assert_allclose(
        pressure_kernel([2.0, 0.0, 0.0], 3), [1.0 / (16 * np.pi), 0.0, 0.0],
        rtol=1e-15,
    )


def test_pressure_kernel_rejects_origin():
    with pytest.raises(ValueError):
        pressure_kernel([0.0, 0.0], 2)


@settings(deadline=None, max_examples=30)
@given(
    st.floats(0.05, 20.0),
    st.floats(-np.pi, np.pi),
    st.floats(-1, 1),
    st.floats(-8, 8),
)
def test_velocity_kernel_symmetry_property(dist, direction, log10_mod, arg_scale):
    r = dist * np.array([np.cos(direction), np.sin(direction)])
    s = 10.0**log10_mod * np.exp(1j * 0.37 * arg_scale)
    tensor = velocity_kernel(r, ComplexFrequency(s), ProblemConfig())
    assert tensor[0, 1] == tensor[1, 0]
    assert np.isfinite(tensor).all()
