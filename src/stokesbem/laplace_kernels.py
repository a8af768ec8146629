"""Laplace-domain kernels of the transient Stokes single-layer operator.

Applying the Laplace transform to the time-dependent Stokes system yields
the resolvent (Brinkman) problem, whose fundamental velocity tensor is

    E_u(r; s) = 1 / (4 (d-1) pi nu) * [ A_d(z) / r^(d-2) * I
                                        + B_d(z) / r^d * (r x r) ],

with ``r = |r|``, ``z = sqrt(s / nu) r``, and ``I`` the d x d identity.
The viscosity enters twice because ``u_t = nu Lap u - grad p`` becomes
``(s / nu) u - Lap u + grad (p / nu) = 0``: a Brinkman problem with
parameter ``s / nu`` (:meth:`ProblemConfig.brinkman`, the one place that
maps a frequency to the kernels' argument), whose velocity kernel is
the unit-viscosity one divided by ``nu``.  The accompanying pressure
vector

    e_p(r) = r / (2 (d-1) pi r^d)

is the negative gradient of the fundamental solution of the Laplacian and
does not depend on ``s``.  The scalar profiles are

    A_2(z) = 2 (K_0(z) + K_1(z)/z - 1/z^2),
    B_2(z) = 2 (2/z^2 - K_2(z)),
    A_3(z) = 2 z^{-2} (e^{-z} (z^2 + z + 1) - 1),
    B_3(z) = -2 z^{-2} (e^{-z} (z^2 + 3z + 3) - 3),

where ``K_l`` is the modified Bessel function of order ``l``.  All four are
numerically delicate near ``z = 0``: the closed forms subtract nearly equal
terms of size ``|z|^-2`` while the limits are finite (all four tend to 1).
Below ``SERIES_SWITCH_RADIUS`` (0.5) the implementation therefore switches
to explicit power series in which the cancellation has been carried out
analytically.  One loop, ``_bessel_sums``, sums the series of ``I_0``,
``I_1``, ``I_2`` and their harmonic-number companions; these profile
series and the companions ``P``, ``R`` of the logarithmic split used by
the boundary-element quadrature are all built from its sums.  Above the
switch the closed forms are stable; ``K_0`` and ``K_1`` there come from
``scipy.special.kv``, the AMOS evaluation (Amos, ACM TOMS 12 (1986)
265-273).

The frequency ``s`` may be any complex number off the half-line
``(-inf, 0]``; its square root is always taken with the principal
determination, so that ``Re sqrt(s) > 0`` and the kernels decay
exponentially in ``r``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
import math

import numpy as np
from scipy.special import kv

from ._checks import count, length

# Euler-Mascheroni constant, to double precision.
EULER_GAMMA = 0.5772156649015328606

#: below this |z| the scalar profiles A_d, B_d use their cancellation-free
#: power series; above it the closed forms built on Bessel/exponential
#: evaluations are stable.
SERIES_SWITCH_RADIUS = 0.5

#: power-series terms are accumulated until they drop below this magnitude.
SERIES_TERM_FLOOR = 1e-18

_MAX_SERIES_TERMS = 34


def principal_sqrt(s: complex) -> complex:
    """Principal square root of a frequency off the negative real axis.

    Parameters
    ----------
    s : complex
        Laplace parameter; must not lie on ``(-inf, 0]``.

    Returns
    -------
    complex
        ``|s|^(1/2) exp(i Arg(s) / 2)`` with ``Arg`` in ``(-pi, pi)``; the
        real part is strictly positive.

    Raises
    ------
    ValueError
        If ``s`` is not finite or lies on the branch cut ``(-inf, 0]``.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise ValueError(f"frequency {s} is not finite")
    if s.imag == 0.0 and s.real <= 0.0:
        raise ValueError(f"frequency {s} lies on the cut (-inf, 0]")
    root = complex(np.sqrt(complex(s)))
    # numpy's principal branch lands exactly on Arg/2; guard the sign anyway
    if root.real < 0.0:
        root = -root
    return root


@dataclass(frozen=True)
class ComplexFrequency:
    """A Laplace frequency with its principal square root.

    Attributes
    ----------
    s : complex
        The frequency itself, any point of ``C \\ (-inf, 0]``.
    sqrt_s : complex
        Principal square root, ``Re sqrt_s > 0``.
    """

    s: complex
    sqrt_s: complex = field(init=False)

    def __post_init__(self) -> None:
        root = principal_sqrt(self.s)
        object.__setattr__(self, "s", complex(self.s))
        object.__setattr__(self, "sqrt_s", root)


@dataclass(frozen=True)
class ProblemConfig:
    """Physical configuration: viscosity and space dimension."""

    nu: float = 1.0
    dimension: int = 2

    def __post_init__(self) -> None:
        length("viscosity", self.nu)
        count("dimension", self.dimension, 2, 3)

    @property
    def kernel_prefactor(self) -> float:
        """The scaling ``1 / (4 (d-1) pi nu)`` of the velocity kernel."""
        return 1.0 / (4.0 * (self.dimension - 1) * math.pi * self.nu)

    def brinkman(self, freq: ComplexFrequency) -> ComplexFrequency:
        """The Brinkman parameter ``s / nu`` of the frequency ``s``.

        Every kernel argument is ``z = sqrt(s / nu) r``; at ``nu = 1``
        the division is exact and returns ``s`` itself.
        """
        return ComplexFrequency(freq.s / self.nu)


def _require_right_half_plane(z: np.ndarray) -> None:
    finite = np.isfinite(z)
    if not finite.all():
        raise ValueError(f"argument {z.flat[np.argmin(finite)]} is not finite")
    if np.any(z.real <= 0.0):
        bad = z.flat[np.argmax(z.real <= 0.0)]
        raise ValueError(f"argument {bad} has Re <= 0; kernels need Re z > 0")


def _bessel_sums(z: np.ndarray, harmonic: bool = True):
    """The small-|z| series of the planar profiles, summed in one loop.

    With ``u = z^2/4``, ``H_k = 1 + 1/2 + ... + 1/k`` and ``g`` the Euler
    constant, returns ``u``, the I-type sums

        S_0 = sum u^k/(k!)^2           = I_0(z),
        S_1 = sum u^k/(k!(k+1)!)       = I_1(z) / (z/2),
        S_2 = sum u^k/(k!(k+2)!)       = I_2(z) / u,

    and the harmonic sums

        H   = sum_{k>=1} H_k u^k/(k!)^2,
        M_1 = sum (2H_k + 1/(k+1) - 2g) u^k/(k!(k+1)!),
        M_2 = sum (2H_k + 1/(k+1) + 1/(k+2) - 2g) u^k/(k!(k+2)!),

    each truncated once ``u^k/(k!)^2`` drops below ``SERIES_TERM_FLOOR``.
    With ``harmonic=False`` the harmonic sums are skipped and returned
    as ``None``; the I-type sums are the same bits either way.
    """
    u = z * z / 4.0
    s_i0 = np.zeros_like(z)
    s_i1 = np.zeros_like(z)
    s_i2 = np.zeros_like(z)
    t0 = np.ones_like(z)            # u^k / (k!)^2
    t1 = np.ones_like(z)            # u^k / (k!(k+1)!)
    t2 = np.full_like(z, 0.5)       # u^k / (k!(k+2)!)
    if harmonic:
        s_h = np.zeros_like(z)
        s_m1 = np.zeros_like(z)
        s_m2 = np.zeros_like(z)
    h_k = 0.0
    for k in range(_MAX_SERIES_TERMS):
        s_i0 += t0
        s_i1 += t1
        s_i2 += t2
        if harmonic:
            if k >= 1:
                s_h += h_k * t0
            s_m1 += (2.0 * h_k + 1.0 / (k + 1.0) - 2.0 * EULER_GAMMA) * t1
            s_m2 += (2.0 * h_k + 1.0 / (k + 1.0) + 1.0 / (k + 2.0)
                     - 2.0 * EULER_GAMMA) * t2
        t0 = t0 * u / ((k + 1.0) ** 2)
        t1 = t1 * u / ((k + 1.0) * (k + 2.0))
        t2 = t2 * u / ((k + 1.0) * (k + 3.0))
        h_k += 1.0 / (k + 1.0)
        if np.max(np.abs(t0)) < SERIES_TERM_FLOOR:
            break
    return u, (s_i0, s_i1, s_i2), (s_h, s_m1, s_m2) if harmonic else None


def _ab2_series(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cancellation-free power series for A_2, B_2 (|z| <= ~0.5).

    Derived by inserting the Bessel series into the closed forms and
    cancelling the 1/z^2 and log singularities analytically:

        A_2 = -2 (L + g) S_0 + L S_1 + 2 H - M_1 / 2,
        B_2 = 1 + 2 L u S_2 - u M_2,

    with ``L = log(z/2)`` and the sums of ``_bessel_sums``.
    """
    u, (s_i0, s_i1, s_i2), (s_h, s_m1, s_m2) = _bessel_sums(z)
    logz2 = np.log(z / 2.0)
    a2 = -2.0 * (logz2 + EULER_GAMMA) * s_i0 + logz2 * s_i1 + 2.0 * s_h - 0.5 * s_m1
    b2 = 1.0 + 2.0 * logz2 * (u * s_i2) - u * s_m2
    return a2, b2


def _ab2_closed(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A_2, B_2 from AMOS K_0, K_1 (|z| above the series switch)."""
    k0, k1 = kv(0, z), kv(1, z)
    a2 = 2.0 * (k0 + k1 / z - 1.0 / (z * z))
    b2 = 2.0 * (2.0 / (z * z) - (k0 + 2.0 * k1 / z))
    return a2, b2


def _ab2(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A_2 and B_2 on an array with Re z > 0, branch-switched at 0.5."""
    z = np.asarray(z, dtype=complex)
    a2 = np.empty_like(z)
    b2 = np.empty_like(z)
    small = np.abs(z) <= SERIES_SWITCH_RADIUS
    if small.any():
        a2[small], b2[small] = _ab2_series(z[small])
    if (~small).any():
        a2[~small], b2[~small] = _ab2_closed(z[~small])
    return a2, b2


# Taylor coefficients of A_3 and B_3: coefficient of z^m is _a3_coeff[m].
def _a3b3_coefficients(n: int) -> tuple[np.ndarray, np.ndarray]:
    a = np.empty(n)
    b = np.empty(n)
    for m in range(n):
        k = m + 2
        sign = -1.0 if k % 2 else 1.0
        a[m] = 2.0 * sign * (1.0 / math.factorial(k) - 1.0 / math.factorial(k - 1)
                             + 1.0 / math.factorial(k - 2))
        b[m] = -2.0 * sign * (3.0 / math.factorial(k) - 3.0 / math.factorial(k - 1)
                              + 1.0 / math.factorial(k - 2))
    return a, b


_A3_COEFF, _B3_COEFF = _a3b3_coefficients(30)


def _ab3(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A_3 and B_3 on an array; entire functions, series below 0.5."""
    z = np.asarray(z, dtype=complex)
    a3 = np.empty_like(z)
    b3 = np.empty_like(z)
    small = np.abs(z) <= SERIES_SWITCH_RADIUS
    if small.any():
        zs = z[small]
        pa = np.zeros_like(zs)
        pb = np.zeros_like(zs)
        zp = np.ones_like(zs)
        for m in range(_A3_COEFF.size):
            pa += _A3_COEFF[m] * zp
            pb += _B3_COEFF[m] * zp
            zp = zp * zs
        a3[small] = pa
        b3[small] = pb
    if (~small).any():
        zl = z[~small]
        ez = np.exp(-zl)
        a3[~small] = 2.0 / (zl * zl) * (ez * (zl * zl + zl + 1.0) - 1.0)
        b3[~small] = -2.0 / (zl * zl) * (ez * (zl * zl + 3.0 * zl + 3.0) - 3.0)
    return a3, b3


#: largest |z| for which the log-split companion series below are accurate;
#: callers cap their split region well inside this.
SPLIT_SERIES_RADIUS = 8.0


def _pr2(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Companions of the logarithmic split of the planar profiles.

    ``A_2(z) = -log(z) P(z) + (smooth)`` and ``B_2(z) = log(z) R(z) + (smooth)``
    with

        P(z) = 2 (I_0(z) - I_1(z)/z),      P(0) = 1,
        R(z) = 2 I_2(z),                   R(0) = 0,

    in terms of modified Bessel functions of the first kind.  Evaluated from
    the I-type sums of ``_bessel_sums``, valid for |z| up to
    ``SPLIT_SERIES_RADIUS``; the split is never used beyond that.
    """
    u, (i0, i1s, i2s), _ = _bessel_sums(np.asarray(z, dtype=complex),
                                        harmonic=False)
    return 2.0 * i0 - i1s, 2.0 * u * i2s


def _scalar_pair(dimension: int, z) -> tuple[np.ndarray, np.ndarray]:
    """(A_d, B_d) on an array of arguments, with domain validation."""
    za = np.atleast_1d(np.asarray(z, dtype=complex))
    if dimension == 2:
        _require_right_half_plane(za)
        return _ab2(za)
    if dimension == 3:
        if np.any(za.real < 0.0):
            raise ValueError("A_3/B_3 are evaluated only for Re z >= 0")
        return _ab3(za)
    raise ValueError(f"dimension must be 2 or 3, got {dimension}")


def scalar_A(dimension: int, z):
    """Profile ``A_d(z)`` of the velocity kernel; see the module docstring."""
    a, _ = _scalar_pair(dimension, z)
    if np.isscalar(z) or np.asarray(z).ndim == 0:
        return complex(a[0])
    return a.reshape(np.asarray(z).shape)


def scalar_B(dimension: int, z):
    """Profile ``B_d(z)`` of the velocity kernel; see the module docstring."""
    _, b = _scalar_pair(dimension, z)
    if np.isscalar(z) or np.asarray(z).ndim == 0:
        return complex(b[0])
    return b.reshape(np.asarray(z).shape)


def velocity_kernel(r_vec, freq: ComplexFrequency, cfg: ProblemConfig) -> np.ndarray:
    """Evaluate ``E_u(r; s)`` at a single displacement.

    Parameters
    ----------
    r_vec : array_like
        Displacement vector of length ``cfg.dimension``; must be nonzero.
    freq : ComplexFrequency
        Laplace frequency.
    cfg : ProblemConfig
        Viscosity and dimension.

    Returns
    -------
    numpy.ndarray
        Complex symmetric d x d tensor ``1/(4(d-1) pi nu) [A_d(z)/r^{d-2} I
        + B_d(z)/r^d r x r]`` with ``z = sqrt(s / nu) r``.
    """
    r = np.asarray(r_vec, dtype=float)
    if r.shape != (cfg.dimension,):
        raise ValueError(f"displacement shape {r.shape} does not match d={cfg.dimension}")
    dist = float(np.hypot.reduce(r) if cfg.dimension == 2 else np.linalg.norm(r))
    if dist == 0.0:
        raise ValueError("velocity kernel is singular at r = 0")
    z = cfg.brinkman(freq).sqrt_s * dist
    a, b = _scalar_pair(cfg.dimension, z)
    a, b = complex(a[0]), complex(b[0])
    rhat = r / dist
    eye = np.eye(cfg.dimension)
    return cfg.kernel_prefactor / dist ** (cfg.dimension - 2) * (
        a * eye + b * np.outer(rhat, rhat))


def pressure_kernel(r_vec, dimension: int) -> np.ndarray:
    """Evaluate the pressure vector ``e_p(r) = r / (2 (d-1) pi r^d)``.

    Real-valued and independent of the frequency; odd in ``r``.
    """
    if dimension not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {dimension}")
    r = np.asarray(r_vec, dtype=float)
    if r.shape != (dimension,):
        raise ValueError(f"displacement shape {r.shape} does not match d={dimension}")
    dist = float(np.linalg.norm(r))
    if dist == 0.0:
        raise ValueError("pressure kernel is singular at r = 0")
    return r / (2.0 * (dimension - 1) * math.pi * dist ** dimension)
