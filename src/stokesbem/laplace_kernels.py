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
Near zero the implementation therefore switches to explicit power series
in which the cancellation has been carried out analytically: below
``SERIES_SWITCH_RADIUS`` (0.5) for ``A_3``, ``B_3``, and below
``AB2_SWITCH_RADIUS`` (2) for ``A_2``, ``B_2``, whose series stay within
about 1e-14 of the profiles there.  One loop, ``_bessel_sums``, sums the
series of ``I_0``, ``I_1``, ``I_2`` and their harmonic-number companions;
these profile series and the companions ``P``, ``R`` of the logarithmic
split used by the boundary-element quadrature are all built from its
sums.

Above the switch the closed forms are stable, and they need ``K_0`` and
``K_1`` for ``|z| >= 2`` only.  Write ``K_nu(z) = sqrt(pi / (2 z))
e^{-z} g_nu(z)``.  Then ``g_0(z) = int z / (z + tau) dmu(tau)`` is a
Stieltjes function of ``1/z``: the moments of the positive measure
``mu`` on ``(0, inf)`` are the coefficients of the asymptotic expansion,

    m_k = int tau^k dmu = ((2k - 1)!!)^2 / (8^k k!).

The n-point Gauss rule ``(tau_j, r_j)`` of ``mu`` turns ``g_0`` into a
rational function of ``z`` with poles at ``-tau_j`` (Gautschi,
*Orthogonal Polynomials: Computation and Approximation*, OUP 2004):

    g_0(z) ~ 1 - sum_j c_j / (z + tau_j),        c_j = r_j tau_j,

and ``K_1 = -K_0'`` gives ``g_1 = g_0 (1 + 1/(2 z)) - g_0'`` with
``g_0'(z) ~ sum_j c_j / (z + tau_j)^2``, from the same reciprocals.  The
rule of 40 points, computed from the moments by the Chebyshev algorithm
at 300 digits, holds both to 7e-15 of mpmath on ``2 <= |z| <= 600`` over
the right half-plane, the worst near ``z = 2i``, and to 6e-16 on
``|arg z| <= 0.7``, the contour's sector.  Its 16 largest poles are
dropped: their residues over ``tau_j`` sum to less than 2e-19, which
bounds their terms since ``|z + tau| >= tau`` for ``Re z >= 0``.  Where ``e^{-z}`` underflows the result is an exact 0,
and ``K(conj z) = conj K(z)`` holds exactly.  AMOS (Amos, ACM TOMS 12
(1986) 265-273) is the accuracy target; the tests hold the rule to
1e-14 of mpmath.

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

from ._checks import count, length

# Euler-Mascheroni constant, to double precision.
EULER_GAMMA = 0.5772156649015328606

#: below this |z| the profiles A_3, B_3 use their cancellation-free power
#: series; above it the exponential closed forms are stable.
SERIES_SWITCH_RADIUS = 0.5

#: the same switch for A_2, B_2: their series up to it, the closed forms
#: with the K_0, K_1 of ``_k01`` beyond.
AB2_SWITCH_RADIUS = 2.0

#: the poles ``tau_j`` and residues ``c_j = r_j tau_j`` of ``_k01``: the
#: 24 leading nodes of the 40-point Gauss rule of the measure of ``g_0``
#: (module docstring), computed as ``tests/test_laplace_kernels.py``
#: rebuilds them.
_K_POLES, _K_RESIDUES = np.array([
    (0.004722123335649797, 0.0021755819606028726),
    (0.05651713477846636, 0.013864478378406422),
    (0.16773595435383468, 0.02390651144820832),
    (0.3396983816037592, 0.026895670730544177),
    (0.5731815283667244, 0.023321126803715057),
    (0.8688156325745438, 0.0165459173306807),
    (1.2272174283773079, 0.009871397958654379),
    (1.6490498527363455, 0.005022840419366537),
    (2.1350541704938992, 0.002196643132920771),
    (2.686070446826311, 0.0008291586611443468),
    (3.3030530467208594, 0.00027069622062651105),
    (3.9870843566567467, 7.648412095432724e-05),
    (4.739388452663023, 1.8695302052997587e-05),
    (5.561345786247964, 3.948557462493214e-06),
    (6.454509679687699, 7.192175891702514e-07),
    (7.420625331985796, 1.1269250088975108e-07),
    (8.461652058589642, 1.5141741809195593e-08),
    (9.579789590785285, 1.7380805009987662e-09),
    (10.777509437937704, 1.6969367711122623e-10),
    (12.057592576363783, 1.4020100042289945e-11),
    (13.423175095274777, 9.745009823431136e-13),
    (14.877803941523611, 5.6603255661380283e-14),
    (16.425505621693297, 2.7263569371890193e-15),
    (18.07087173708146, 1.0793513638560813e-16),
]).T.copy()

#: arguments per block of ``_k01``: its (block, poles) complex temporary
#: holds 96 KiB, below the allocator's default threshold for a mapping of
#: its own.
_K_BLOCK = 256

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
    if np.any(z.real <= 0.0):
        bad = z.flat[np.argmax(z.real <= 0.0)]
        raise ValueError(f"argument {bad} has Re <= 0; kernels need Re z > 0")


def _series_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per term ``k`` of ``_bessel_sums``: the factors that take its three
    I-type terms to term ``k + 1``, ``u`` times the reciprocals below, and
    the factors of the harmonic sums ``H``, ``M_1``, ``M_2`` on those
    terms, each as a (3, 1) column."""
    reciprocals = np.empty((n, 3, 1))
    factors = np.empty((n, 3, 1))
    h_k = 0.0
    for k in range(n):
        reciprocals[k, :, 0] = (1.0 / (k + 1.0) ** 2,
                                1.0 / ((k + 1.0) * (k + 2.0)),
                                1.0 / ((k + 1.0) * (k + 3.0)))
        factors[k, :, 0] = (h_k,
                            2.0 * h_k + 1.0 / (k + 1.0) - 2.0 * EULER_GAMMA,
                            2.0 * h_k + 1.0 / (k + 1.0) + 1.0 / (k + 2.0)
                            - 2.0 * EULER_GAMMA)
        h_k += 1.0 / (k + 1.0)
    return reciprocals, factors


_SERIES_RECIPROCALS, _SERIES_HARMONIC = _series_tables(_MAX_SERIES_TERMS)


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
    as ``None``; the I-type sums are the same bits either way.  The
    three terms, and the sums, are advanced together as one stacked
    array, so a term costs a handful of array operations whatever the
    number of sums.
    """
    shape = z.shape
    z = z.reshape(-1)
    u = z * z / 4.0
    sums = np.zeros((6 if harmonic else 3, z.size), dtype=z.dtype)
    # u^k / (k!)^2, u^k / (k!(k+1)!), u^k / (k!(k+2)!)
    terms = np.ones((3, z.size), dtype=z.dtype)
    terms[2] = 0.5
    # real views: the sums take real factors part by part
    sums_parts = sums.view(float)
    terms_parts = terms.view(float)
    for k in range(_MAX_SERIES_TERMS):
        sums_parts[:3] += terms_parts
        if harmonic:
            sums_parts[3:] += _SERIES_HARMONIC[k] * terms_parts
        terms *= u
        terms_parts *= _SERIES_RECIPROCALS[k]
        if np.max(np.abs(terms[0])) < SERIES_TERM_FLOOR:
            break
    sums = sums.reshape((-1,) + shape)
    return (u.reshape(shape), tuple(sums[:3]),
            tuple(sums[3:]) if harmonic else None)


def _ab2_series(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cancellation-free power series for A_2, B_2 (|z| <= 2).

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


def _k01(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K_0 and K_1 on a 1-D array with Re z > 0 and |z| >= 2, from the
    Gauss-Stieltjes rational of the module docstring.

    The reciprocals ``1 / (z + tau_j)`` are formed a block of
    ``_K_BLOCK`` arguments at a time, in place, and contracted with the
    residues, once for ``g_0`` and, squared, once for ``g_0'``.  The
    contractions are einsums rather than matmuls: a multithreaded BLAS
    call on these thin shapes waits for its threads whenever the cores
    are busy, as they are while the workers of a split observation pass
    run, or under any other load.
    """
    sums = np.empty((2, z.size), dtype=complex)
    recip = np.empty((_K_BLOCK, _K_POLES.size), dtype=complex)
    for start in range(0, z.size, _K_BLOCK):
        block = slice(start, start + _K_BLOCK)
        d = recip[:z[block].size]
        np.add.outer(z[block], _K_POLES, out=d)
        np.reciprocal(d, out=d)
        np.einsum("ij,j->i", d, _K_RESIDUES, out=sums[0, block])
        np.multiply(d, d, out=d)
        np.einsum("ij,j->i", d, _K_RESIDUES, out=sums[1, block])
    g0 = 1.0 - sums[0]
    g1 = g0 * (1.0 + 0.5 / z) - sums[1]
    scale = np.sqrt(np.pi / (2.0 * z)) * np.exp(-z)
    return scale * g0, scale * g1


def _ab2_closed(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A_2, B_2 from K_0, K_1 (|z| above ``AB2_SWITCH_RADIUS``)."""
    k0, k1 = _k01(z)
    a2 = 2.0 * (k0 + k1 / z - 1.0 / (z * z))
    b2 = 2.0 * (2.0 / (z * z) - (k0 + 2.0 * k1 / z))
    return a2, b2


def _ab2(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A_2 and B_2 on an array with Re z > 0, branch-switched at 2."""
    z = np.asarray(z, dtype=complex)
    a2 = np.empty_like(z)
    b2 = np.empty_like(z)
    small = np.abs(z) <= AB2_SWITCH_RADIUS
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
    if dimension not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {dimension}")
    za = np.atleast_1d(np.asarray(z, dtype=complex))
    finite = np.isfinite(za)
    if not finite.all():
        raise ValueError(f"argument {za.flat[np.argmin(finite)]} is not finite")
    if dimension == 2:
        _require_right_half_plane(za)
        return _ab2(za)
    if np.any(za.real < 0.0):
        raise ValueError("A_3/B_3 are evaluated only for Re z >= 0")
    return _ab3(za)


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
    if not np.isfinite(r).all():
        raise ValueError(f"displacement {r} is not finite")
    dist = float(np.linalg.norm(r))
    if dist == 0.0:
        raise ValueError("pressure kernel is singular at r = 0")
    return r / (2.0 * (dimension - 1) * math.pi * dist ** dimension)
