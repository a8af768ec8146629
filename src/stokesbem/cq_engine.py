"""Multistep convolution quadrature for matrix-valued transfer functions.

Approximates a causal convolution ``u(t) = int_0^t k(t - tau) g(tau) dtau``
whose kernel is known only through its Laplace transform ``F(s)`` by the
discrete convolution

    u_n ~= sum_{m=0}^{n} W_m g_{n-m},      g_m = g(m kappa),

where the weights are the Taylor coefficients of the transfer function
composed with the characteristic function of a backward differentiation
formula,

    F(delta(zeta) / kappa) = sum_{n>=0} W_n zeta^n,
    delta(zeta) = sum_{l=1}^{p} (1 - zeta)^l / l.

The coefficients are recovered by a scaled discrete Fourier transform on
the circle ``|zeta| = R < 1``,

    W_n ~= R^{-n} / L * sum_{l=0}^{L-1} F(delta(zeta_l) / kappa)
                                        exp(-2 pi i n l / L),

with ``zeta_l = R exp(2 pi i l / L)``.  The radius balances the aliasing
error ``O(R^L)`` against roundoff amplified by ``R^{-M}``; the scheme
always uses ``R = eps^{1/(2 (M + 1))}`` and ``L = M + 1``, where both
contributions land near ``sqrt(eps) * max_l ||F||``, which is therefore
the accuracy floor of the computed weights.  For transfer functions with real symbols
(``F(conj s) = conj F(s)``) the integrand is Hermitian in ``l``, so only
``floor(L / 2) + 1`` evaluations are needed and the weights come out
real up to that floor.  The samples and the weights share one real
``(L, entries)`` buffer: each evaluation is written into it as it is
made, in the FFTPACK half-complex layout (``Re F_0``, then ``Re F_l,
-Im F_l`` row pairs, then ``Re F_{L/2}`` for even ``L``), one library
call inverse-transforms it in place along the nodes and the rows are
scaled by ``R^{-n}`` in place, so the ``L = M + 1`` rows of the buffer
are the weights and cost ``L * entries`` reals and nothing more.

The evaluations are independent, so they are spread over one process
per usable core.  Node 0 is evaluated first, in the calling process,
which fills the geometry caches that the forked workers then share
copy-on-write.  The buffer is one anonymous shared mapping that also
holds the imaginary rows of the two real-axis nodes, each node's
``max |F|`` and a done flag per node: every worker writes its nodes'
rows straight into it and leaves, so nothing is pickled.  The caller
then evaluates, in node order, every node no worker marked done (a
worker that raised or died, or a fork that failed), which raises any
error exactly as a serial sweep would.  The weights do not depend on
the number of workers, and with one usable core nothing is forked.

The same spread (``_spread`` over the done flags of a ``_shared_buffers``
mapping) carries the point shares of a large observation pass in
:mod:`stokesbem.stokes_solver`, each of which runs the whole contour
for its own points.  A spread inside a spread that forked, in the
caller or in a worker, runs serially, so such a share samples its
nodes in its own process and no worker forks again.

The implicit one-sided recurrence

    W_0 lam_n = phi_n - sum_{m=1}^{n} W_m lam_{n-m}

then marches a discretized operator equation forward in time with the
solve of the leading system that the caller factored once (``W_0``, with
any frequency-independent constraint added), and observables are
recovered by one more discrete convolution against the weights of the
observation transfer function.

A transfer function returns a 2-D matrix at every frequency (a scalar
transfer is the 1x1 matrix), its weights have shape ``(M + 1, rows,
cols)``, and a history is the plain real array of one vector per step,
shape ``(M + 1, n)``.
"""

from __future__ import annotations

import dataclasses
import math
import mmap
import os

import numpy as np

from ._checks import count, length

__all__ = [
    "CONTOUR_EPSILON",
    "IMAG_RESIDUE_TOL",
    "CQScheme",
    "WeightSequence",
    "bdf_delta",
    "cq_weights",
    "cq_march",
    "cq_postprocess",
]

# Target accuracy parameter for the contour radius R = eps^{1/(2(M+1))}.
# The weight error floor is sqrt(CONTOUR_EPSILON) * max ||F|| on the
# contour, reached when aliasing and amplified roundoff balance.
CONTOUR_EPSILON = 1e-15

# Relative bound on the imaginary residue of weights computed for a
# real-symbol transfer function.  The Hermitian symmetrization makes the
# exact coefficients real; anything beyond roundoff signals a transfer
# callback that is not a real symbol, so it is an error, not noise.  The
# residue is compared against this fraction of the largest weight or
# against the rigorous FFT roundoff bound ``8 L eps R^{-M} max||F||``,
# whichever is larger: the scaling ``R^{-n}`` amplifies machine noise in
# the late coefficients above any fixed relative threshold.
IMAG_RESIDUE_TOL = 1e-10

# Largest multistep order with a convergence theory for operator
# convolution quadrature; BDF methods of higher order are not zero
# stable anyway.
MAX_BDF_ORDER = 6


def bdf_delta(order: int, zeta: complex | np.ndarray) -> complex | np.ndarray:
    """Characteristic function of the backward differentiation formula.

    Evaluates ``delta(zeta) = sum_{l=1}^{p} (1 - zeta)^l / l``, the
    generating polynomial whose truncation order sets the convergence
    order of the time discretization.

    Parameters
    ----------
    order:
        Multistep order ``p`` with ``1 <= p <= 6``.
    zeta:
        Evaluation point or array of points in the complex plane.

    Returns
    -------
    complex or numpy.ndarray
        ``delta(zeta)``, matching the shape of ``zeta``.

    Raises
    ------
    ValueError
        If ``order`` is not an integer in ``{1, ..., 6}``.
    """
    order = count("order", order, 1, MAX_BDF_ORDER)
    w = np.asarray(zeta)
    u = 1.0 - w
    acc = np.zeros_like(u)
    power = np.ones_like(u)
    for ell in range(1, order + 1):
        power = power * u
        acc = acc + power / ell
    if np.isscalar(zeta) or np.ndim(zeta) == 0:
        return complex(acc)
    return acc


@dataclasses.dataclass(frozen=True)
class CQScheme:
    """Parameters of one BDF convolution-quadrature discretization.

    The recovery contour is derived from the step count: the
    error-balancing radius ``R = CONTOUR_EPSILON ** (1 / (2 (M + 1)))``
    and ``L = M + 1`` nodes (see the module docstring).

    Attributes
    ----------
    order:
        Integer BDF order ``p`` in ``{1, ..., 6}``.
    kappa:
        Time step ``kappa > 0``; the discrete times are ``t_n = n kappa``.
    n_steps:
        Integer number of steps ``M``; histories carry ``M + 1`` samples.

    Raises
    ------
    ValueError
        Naming the field, for an ``order`` or ``n_steps`` that is not an
        integer (a float, even an integral one, is refused and never
        truncated), an ``order`` outside ``1..6``, ``n_steps < 1``, or a
        ``kappa`` that is not finite and positive.  Also for a contour
        node whose scaled frequency ``delta(zeta_l) / kappa`` falls on
        the closed negative real axis, where the transfer
        functions of interest are not defined.  BDF orders up to 2 keep
        ``Re delta > 0`` on the whole disk; orders 3 to 6 are only
        A(alpha)-stable, so for small steps part of the contour maps
        into the left half plane and only the cut ``(-inf, 0]`` can be
        excluded.
    """

    order: int
    kappa: float
    n_steps: int

    def __post_init__(self) -> None:
        count("order", self.order, 1, MAX_BDF_ORDER)
        length("kappa", self.kappa)
        count("n_steps", self.n_steps, 1)
        bad = self._cut_nodes()
        if bad.size:
            raise ValueError(
                f"contour nodes {bad.tolist()} map onto the closed negative "
                "real axis; change the step or the order"
            )

    @property
    def contour_radius(self) -> float:
        """Radius ``R = CONTOUR_EPSILON ** (1 / (2 (M + 1)))`` of the circle."""
        return CONTOUR_EPSILON ** (1.0 / (2.0 * (self.n_steps + 1)))

    @property
    def n_contour_nodes(self) -> int:
        """Number of transform nodes ``L = M + 1``."""
        return self.n_steps + 1

    def _cut_nodes(self) -> np.ndarray:
        """Indices of contour nodes with ``delta(zeta_l)/kappa`` on ``(-inf, 0]``."""
        s = self.frequencies()
        scale = np.abs(s)
        on_axis = np.abs(s.imag) <= 1e-14 * np.maximum(scale, 1e-300)
        return np.nonzero(on_axis & (s.real <= 0.0))[0]

    def times(self) -> np.ndarray:
        """Sample times ``t_n = n kappa`` for ``n = 0, ..., M``."""
        return self.kappa * np.arange(self.n_steps + 1, dtype=float)

    def contour_points(self) -> np.ndarray:
        """The transform nodes ``zeta_l = R exp(2 pi i l / L)``."""
        angles = 2.0 * np.pi * np.arange(self.n_contour_nodes) / self.n_contour_nodes
        return self.contour_radius * np.exp(1j * angles)

    def frequencies(self) -> np.ndarray:
        """Scaled frequencies ``s_l = delta(zeta_l) / kappa`` at all nodes."""
        return bdf_delta(self.order, self.contour_points()) / self.kappa

    @property
    def n_half_nodes(self) -> int:
        """Evaluations needed for a real symbol: ``floor(L / 2) + 1``."""
        return self.n_contour_nodes // 2 + 1


@dataclasses.dataclass(frozen=True)
class WeightSequence:
    """Convolution weights ``W_0, ..., W_M`` of one transfer function.

    A class rather than the bare array because the layer benchmark's
    tracer reads the ``weights`` attribute of what ``cq_weights``
    returns.

    Attributes
    ----------
    weights:
        Real array of shape ``(M + 1, rows, cols)``.
    peak:
        The largest ``|entry|``, from the min and max of the finiteness
        check (0 for no entries).
    """

    weights: np.ndarray
    peak: float = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.weights)
        if arr.ndim != 3:
            raise ValueError(
                f"weights must have shape (M+1, rows, cols), got {arr.shape}"
            )
        # NaN propagates through min and max: no full-size temporary
        hi, lo = (float(arr.max()), float(arr.min())) if arr.size else (0.0, 0.0)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError("weight sequence contains non-finite entries")
        object.__setattr__(self, "peak", max(hi, -lo))


def _sample(transfer, node: int, s: complex) -> np.ndarray:
    """Evaluate the transfer callback at contour node ``node``.

    Failures inside the callback are re-raised with the node index
    attached: a ``ValueError`` (a configuration error) stays one, any
    other failure becomes a ``RuntimeError``.  Non-finite return values
    are rejected for the same reason (a frequency off the domain of the
    symbol).
    """
    where = f"contour node {node} (s = {s:.6g})"
    try:
        val = np.asarray(transfer(s), dtype=complex)
    except Exception as exc:
        # LinAlgError subclasses ValueError but is a numerical failure
        if isinstance(exc, ValueError) and not isinstance(
            exc, np.linalg.LinAlgError
        ):
            raise ValueError(f"transfer rejected {where}: {exc}") from exc
        raise RuntimeError(f"transfer evaluation failed at {where}") from exc
    if val.ndim != 2:
        raise ValueError(
            f"transfer must return a 2-D matrix, got shape {val.shape} at "
            f"contour node {node}"
        )
    if not np.isfinite(val).all():
        raise RuntimeError(f"transfer returned non-finite values at {where}")
    return val


#: True in the caller and the workers of a spread that forked, so that a
#: spread inside one (a point share's own contour sweep) runs serially.
_FORKED = False


def _process_count(n_items: int) -> int:
    """Processes a spread of ``n_items`` items runs on: one per usable
    core and at most one per item; one inside a spread that forked, or
    where ``os.fork`` or ``os.sched_getaffinity`` is missing."""
    if _FORKED or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
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
    """Call ``evaluate`` on every item whose ``done`` flag is clear,
    split round-robin over ``_process_count`` processes; ``evaluate(k)``
    sets ``done[k]`` when it succeeds.

    The caller keeps the first share and forks a worker for each other
    one; a worker stops at its first failure and leaves by ``os._exit``.
    Once the workers are reaped the caller evaluates, in order, every
    item that is still not done (a worker that raised or died, a fork
    that failed, a failure of its own), which raises any error exactly
    as a serial sweep would.
    """
    global _FORKED
    items = np.flatnonzero(~done)
    n_proc = _process_count(items.size)
    outer, children = _FORKED, []
    try:
        for share in (items[k::n_proc] for k in range(1, n_proc)):
            try:
                pid = os.fork()
            except OSError:
                break
            if pid == 0:
                _FORKED = True
                code = 1
                try:
                    for item in share:
                        evaluate(int(item))
                    code = 0
                finally:
                    os._exit(code)
            children.append(pid)
        _FORKED = outer or bool(children)
        for item in items[::n_proc]:
            evaluate(int(item))
    except Exception:
        if n_proc == 1:
            raise  # a serial sweep stops at its first failure
        # otherwise the sweep below raises it again
    finally:
        for pid in children:
            os.waitpid(pid, 0)
        _FORKED = outer
    for item in np.flatnonzero(~done):
        evaluate(int(item))


def cq_weights(transfer, scheme: CQScheme) -> WeightSequence:
    """Generate the convolution weights of a transfer function.

    Samples ``F(delta(zeta_l) / kappa)`` on the recovery circle and
    applies the scaled discrete Fourier transform.  The callback is
    assumed to be a real symbol (``F(conj s) = conj F(s)``), which holds
    for every Laplace-domain operator of a real time-domain kernel; only
    half the contour is evaluated and the weights are returned real.

    Parameters
    ----------
    transfer:
        Callback mapping a complex frequency to a complex matrix of
        fixed shape.
    scheme:
        Contour and multistep parameters.

    Returns
    -------
    WeightSequence
        Real weights ``W_0, ..., W_M``; accuracy is limited by the floor
        ``sqrt(CONTOUR_EPSILON) * max_l ||F||`` of the balanced contour.
        They are the ``(L, entries)`` transform buffer (``L = M + 1``) at
        the start of the shared mapping, reshaped to ``(M + 1, rows,
        cols)`` without a copy.

    Raises
    ------
    ValueError
        If the callback raises a ``ValueError`` at some node (reported
        with its index), returns anything but a 2-D matrix or changes its
        output shape.
    RuntimeError
        If the callback fails otherwise or returns non-finite values at
        some node (reported with its index), or if the imaginary residue
        exceeds ``IMAG_RESIDUE_TOL`` relative to the largest weight,
        indicating a symbol that is not real.
    """
    # deferred: importing scipy's FFT costs about 25 ms of package import
    import scipy.fftpack

    n_nodes = scheme.n_contour_nodes
    freqs = scheme.frequencies()[: scheme.n_half_nodes]
    # node 0 first, here: it fills the geometry caches the workers share
    first = _sample(transfer, 0, complex(freqs[0]))
    shape = first.shape
    packed, imag_ends, peaks, done = _shared_buffers(
        ((n_nodes, first.size), (2, first.size), (freqs.size,)), freqs.size
    )

    def store(node: int, val: np.ndarray) -> None:
        flat = val.reshape(-1)
        peaks[node] = np.abs(flat).max()
        # FFTPACK half-complex rows: Re F_0, (Re F_l, -Im F_l) pairs and,
        # for even L, Re F_{L/2}; the conjugate turns the forward sum
        # into the inverse real transform
        packed[max(2 * node - 1, 0)] = flat.real
        if 0 < 2 * node < n_nodes:
            packed[2 * node] = -flat.imag
        else:
            imag_ends[int(node > 0)] = flat.imag
        done[node] = True

    def evaluate(node: int) -> None:
        val = _sample(transfer, node, complex(freqs[node]))
        if val.shape != shape:
            raise ValueError(
                f"transfer changed output shape at contour node {node}: "
                f"{val.shape} != {shape}"
            )
        store(node, val)

    store(0, first)
    _spread(evaluate, done)
    max_transfer = float(peaks.max())

    scale = scheme.contour_radius ** -np.arange(n_nodes, dtype=float)
    packed = scipy.fftpack.irfft(packed, axis=0, overwrite_x=True)
    packed *= scale[:, None]
    seq = WeightSequence(weights=packed.reshape((n_nodes,) + shape))

    # The Hermitian extension drops every imaginary part but those of the
    # real-axis nodes zeta = R and, for even L, zeta = -R; they leave
    # Im W_n = R^{-n} (Im F_0 + (-1)^n Im F_{L/2}) / L, largest at the
    # last even and the last odd n.
    first, last = imag_ends
    sign = (-1.0) ** scheme.n_steps
    resid = max(
        scale[-1] * float(np.abs(first + sign * last).max()),
        scale[-2] * float(np.abs(first - sign * last).max()),
    ) / n_nodes
    # machine noise eps max|F| per sample through the length-L transform,
    # amplified by R^{-M}; the factor 8 is margin over the textbook bound
    eps = float(np.finfo(float).eps)
    roundoff = 8.0 * n_nodes * eps * scale[-1] * max_transfer
    if resid > max(IMAG_RESIDUE_TOL * max(seq.peak, 1e-300), roundoff):
        raise RuntimeError(
            f"imaginary weight residue {resid:.3e} exceeds both "
            f"{IMAG_RESIDUE_TOL:.1e} x max weight {seq.peak:.3e} and the "
            f"roundoff floor {roundoff:.3e}; the transfer function is not "
            "a real symbol"
        )
    return seq


def cq_march(weights: WeightSequence, rhs_samples: np.ndarray,
             solve) -> np.ndarray:
    """Solve the implicit convolution recurrence forward in time.

    Computes ``lam_n = solve(phi_n - sum_{m=1}^{n} W_m lam_{n-m})``.

    Parameters
    ----------
    weights:
        Weights of the boundary system; matrices must be square.
    rhs_samples:
        Real data samples ``phi_0, ..., phi_M``, shaped ``(M + 1, n)``.
    solve:
        The solve of the leading system, for instance
        :func:`stokesbem.bem_space.factor` of ``W_0``, constrained or
        not: a real load of length ``n`` to a real vector of length ``n``.

    Returns
    -------
    numpy.ndarray
        The real solution samples ``lam_0, ..., lam_M``, shaped
        ``(M + 1, n)``.

    Raises
    ------
    ValueError
        On shape mismatches or complex data (of any imaginary size).
    """
    w = weights.weights
    rhs = np.asarray(rhs_samples)
    if np.iscomplexobj(rhs):
        raise ValueError("right-hand side samples must be real")
    rhs = np.ascontiguousarray(rhs, dtype=float)
    n_steps = w.shape[0] - 1
    if w.shape[1:2] != w.shape[2:]:
        raise ValueError(f"marching needs square weight matrices, got {w.shape[1:]}")
    want = (n_steps + 1,) + w.shape[2:]
    if rhs.shape != want:
        raise ValueError(f"rhs must have shape {want}, got {rhs.shape}")
    lam = np.empty(rhs.shape)
    for n in range(n_steps + 1):
        if n:
            tail = np.einsum("mij,mj->i", w[1 : n + 1], lam[n - 1 :: -1])
        else:
            tail = 0.0
        lam[n] = solve(rhs[n] - tail)
    return lam


def cq_postprocess(transfer, scheme: CQScheme, history: np.ndarray) -> np.ndarray:
    """Convolve observation weights against a computed history.

    Generates the weights ``S_0, ..., S_M`` of the observation transfer
    function and returns ``u_n = sum_{m=0}^{n} S_m lam_{n-m}``.

    Parameters
    ----------
    transfer:
        Callback for the observation operator; returns matrices of shape
        ``(rows, n)``, observables by unknowns.
    scheme:
        The scheme the history was marched with.
    history:
        Real, finite solution samples ``lam_0, ..., lam_M``, shaped
        ``(M + 1, n)``.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(M + 1, rows)`` of real observables.

    Raises
    ------
    ValueError
        If the history is not a real, finite 2-D array, its length does
        not match the scheme or the matrix columns do not match its
        width; the history is checked before any transfer evaluation.
    """
    lam = np.asarray(history)
    if lam.ndim != 2:
        raise ValueError(f"history must be 2-D, got shape {lam.shape}")
    if np.iscomplexobj(lam):
        raise ValueError("history must be real")
    if not np.isfinite(lam).all():
        raise ValueError("history contains non-finite entries")
    n_keep = scheme.n_steps + 1
    if lam.shape[0] != n_keep:
        raise ValueError(
            f"history length {lam.shape[0]} does not match scheme with "
            f"{n_keep} samples"
        )
    w = cq_weights(transfer, scheme).weights
    if w.shape[2:] != lam.shape[1:]:
        raise ValueError(
            f"observation weights of shape {w.shape[1:]} do not match a "
            f"history of shape {lam.shape}"
        )
    rows = w.shape[1]
    # One BLAS product gives B[m, :, k] = S_m lam_k; the causal
    # convolution is then the sum over the anti-diagonals n = m + k.
    b = (w.reshape(n_keep * rows, -1) @ lam.T).reshape(n_keep, rows, n_keep)
    out = np.zeros((n_keep, rows))
    for m in range(n_keep):
        out[m:] += b[m, :, : n_keep - m].T
    return out
