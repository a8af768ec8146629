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
-Im F_l`` row pairs, then ``Re F_{L/2}`` for even ``L``).  NumPy's
inverse real transform then takes it along the nodes a block of columns
at a time, each block's temporaries under ``_TRANSFORM_BLOCK_BYTES``, and
writes the block back in place scaled by ``R^{-n}``, so the ``L = M +
1`` rows of the buffer are the weights and cost ``L * entries`` reals
and little more.

The evaluations are independent problems, one per node (Banjai &
Sauter, *SIAM J. Numer. Anal.* 47 (2008) 227-249), and the transfer is
sampled a block of nodes at a time, in the calling process.  Node 0 is
evaluated first, alone, which fixes the matrix shape and fills the
geometry caches; the other nodes follow in order, in blocks whose
stacked samples hold at most ``_SAMPLE_BLOCK_BYTES`` (a node that holds
more is a block of its own).  Each block's samples are written straight
into the buffer, beside the imaginary rows of the two real-axis nodes
and each node's ``max |F|``.  A block that fails is sampled again node
by node, so an error names its node whatever the blocks, and the
weights do not depend on the blocks.  This module forks nothing: a
large observation pass in :mod:`stokesbem.stokes_solver` splits its
points over processes instead, and each process runs the whole contour
for its own points.

The implicit one-sided recurrence

    W_0 lam_n = phi_n - sum_{m=1}^{n} W_m lam_{n-m}

then marches a discretized operator equation forward in time with the
solve of the leading system that the caller factored once (``W_0``, with
any frequency-independent constraint added), and observables are
recovered by one more discrete convolution against the weights of the
observation transfer function.  The march pushes each solution forward:
once ``lam_t`` is solved, ``W_1 ... W_{M-t}`` applied to it are added to
the tails of the later steps, one matrix product per step.  The weights
of a matrix that a group of order ``m`` maps onto itself may be given by
the rows of one sector, ``dof / m`` of them, with the group action that
applies them (:func:`cq_march`); the boundary operator of
:mod:`stokesbem.stokes_solver` is marched so, and its weights cost ``L
dof^2 / m`` reals.  This module knows no mesh: the plain matrix is the
trivial action.

A transfer function takes a 1-D array of ``b`` frequencies, a block, and
returns the ``(b, rows, cols)`` stack of its matrices at them, the same
2-D shape at every frequency (a scalar transfer is the 1x1 matrix); a
single frequency is the block of one.  Its weights have shape ``(M + 1,
rows, cols)``, and a history is the plain real array of one vector per
step, shape ``(M + 1, n)``.  :func:`cq_postprocess` also takes a stack
of ``c`` histories, ``(c, M + 1, n)``, convolved one by one against the
weights of one contour sweep by the same loop, which takes a plain
history as the stack of one.
"""

from __future__ import annotations

import dataclasses

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

# Bytes of the temporaries of one block of columns of the inverse
# transform: its half spectrum and the transform's output.
_TRANSFORM_BLOCK_BYTES = 1 << 20

# Bytes of the samples of one block of contour nodes, the stack that the
# transfer returns for it; a node whose matrix is larger is a block of
# its own.
_SAMPLE_BLOCK_BYTES = 1 << 18

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


def _sample_node(transfer, node: int, s: np.ndarray, shape) -> np.ndarray:
    """Evaluate the transfer callback at contour node ``node`` alone, the
    block ``s`` of its one frequency.

    Failures inside the callback are re-raised with the node index
    attached: a ``ValueError`` (a configuration error) stays one, any
    other failure becomes a ``RuntimeError``.  Non-finite return values
    are rejected for the same reason (a frequency off the domain of the
    symbol), and so is a matrix whose shape is not ``shape`` (unless
    ``shape`` is None, for the first node).
    """
    where = f"contour node {node} (s = {complex(s[0]):.6g})"
    try:
        val = np.asarray(transfer(s), dtype=complex)
    except Exception as exc:
        # LinAlgError subclasses ValueError but is a numerical failure
        if isinstance(exc, ValueError) and not isinstance(
            exc, np.linalg.LinAlgError
        ):
            raise ValueError(f"transfer rejected {where}: {exc}") from exc
        raise RuntimeError(f"transfer evaluation failed at {where}") from exc
    if val.ndim != 3 or val.shape[0] != 1:
        raise ValueError(
            f"transfer must return one 2-D matrix per frequency, got shape "
            f"{val.shape} for one frequency at contour node {node}"
        )
    if not np.isfinite(val).all():
        raise RuntimeError(f"transfer returned non-finite values at {where}")
    if shape is not None and val.shape[1:] != shape:
        raise ValueError(
            f"transfer changed output shape at contour node {node}: "
            f"{val.shape[1:]} != {shape}"
        )
    return val


def _sample(transfer, nodes: np.ndarray, freqs: np.ndarray,
            shape=None) -> np.ndarray:
    """The ``(b, rows, cols)`` samples of the transfer at the contour
    nodes ``nodes``, whose frequencies it takes as one block.

    A block that raises, or returns anything but a finite stack of
    ``shape`` matrices, is sampled again one node at a time
    (:func:`_sample_node`), so that the error names the first failing
    node of the block, with the class, message and cause of a sweep of
    single nodes.
    """
    if nodes.size > 1:
        try:
            val = np.asarray(transfer(freqs[nodes]), dtype=complex)
        except Exception:
            # any failure: the nodes alone raise it with its node
            val = None
        if (val is not None and val.shape == (nodes.size,) + shape
                and np.isfinite(val).all()):
            return val
    return np.concatenate([_sample_node(transfer, int(k), freqs[k : k + 1],
                                        shape) for k in nodes])


def _inverse_transform(packed: np.ndarray, scale: np.ndarray) -> None:
    """Replace each column of the ``(L, entries)`` buffer ``packed``,
    FFTPACK half-complex rows, by its inverse real transform times
    ``scale``, in place, one block of columns at a time."""
    n = packed.shape[0]
    width = max(1, _TRANSFORM_BLOCK_BYTES // (24 * n))
    for start in range(0, packed.shape[1], width):
        block = packed[:, start : start + width]
        half = np.zeros((n // 2 + 1, block.shape[1]), dtype=complex)
        half.real[0] = block[0]
        half.real[1:] = block[1::2]
        half.imag[1 : (n + 1) // 2] = block[2::2]
        np.multiply(np.fft.irfft(half, n, axis=0), scale[:, None], out=block)


def cq_weights(transfer, scheme: CQScheme) -> WeightSequence:
    """Generate the convolution weights of a transfer function.

    Samples ``F(delta(zeta_l) / kappa)`` on the recovery circle and
    applies the scaled discrete Fourier transform.  The callback is
    assumed to be a real symbol (``F(conj s) = conj F(s)``), which holds
    for every Laplace-domain operator of a real time-domain kernel; only
    half the contour is evaluated and the weights are returned real.
    The half contour is sampled in blocks of nodes (see the module
    docstring); the weights are those of a sweep of single nodes, bit
    for bit, whenever the callback's matrix at a frequency does not
    depend on the block it comes in.

    Parameters
    ----------
    transfer:
        Callback mapping a 1-D array of ``b`` complex frequencies to the
        ``(b, rows, cols)`` stack of its complex matrices at them, of
        fixed shape.
    scheme:
        Contour and multistep parameters.

    Returns
    -------
    WeightSequence
        Real weights ``W_0, ..., W_M``; accuracy is limited by the floor
        ``sqrt(CONTOUR_EPSILON) * max_l ||F||`` of the balanced contour.
        They are the ``(L, entries)`` transform buffer (``L = M + 1``),
        reshaped to ``(M + 1, rows, cols)`` without a copy.  Every node
        is sampled in the calling process, so they do not depend on the
        number of usable cores.

    Raises
    ------
    ValueError
        If the callback raises a ``ValueError`` at some node (reported
        with its index), returns anything but one 2-D matrix per
        frequency or changes its output shape.
    RuntimeError
        If the callback fails otherwise or returns non-finite values at
        some node (reported with its index, the first such node of its
        block, sampled alone), or if the imaginary residue
        exceeds ``IMAG_RESIDUE_TOL`` relative to the largest weight,
        indicating a symbol that is not real.
    """
    n_nodes = scheme.n_contour_nodes
    freqs = scheme.frequencies()[: scheme.n_half_nodes]
    # node 0 alone fixes the shape, hence the block width
    first = _sample(transfer, np.zeros(1, dtype=int), freqs)
    shape = first.shape[1:]
    packed = np.zeros((n_nodes, first.size))
    # zeroed: for odd L only the row of node 0 is written
    imag_ends = np.zeros((2, first.size))
    peaks = np.zeros(freqs.size)
    width = max(1, _SAMPLE_BLOCK_BYTES // first.nbytes)

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

    store(0, first[0])
    for start in range(1, freqs.size, width):
        block = np.arange(start, min(start + width, freqs.size))
        for node, val in zip(block, _sample(transfer, block, freqs, shape)):
            store(int(node), val)
    max_transfer = float(peaks.max())

    scale = scheme.contour_radius ** -np.arange(n_nodes, dtype=float)
    _inverse_transform(packed, scale)
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


class _Identity:
    """The trivial group action of a plain matrix: one copy, placed as
    it is (see :class:`stokesbem.bem_space.SectorAction`)."""

    order = 1

    @staticmethod
    def copies(lam: np.ndarray) -> np.ndarray:
        return lam[:, None]

    @staticmethod
    def place(part: np.ndarray) -> np.ndarray:
        return part[:, 0]


def cq_march(weights: WeightSequence, rhs_samples: np.ndarray,
             solve, action=_Identity) -> np.ndarray:
    """Solve the implicit convolution recurrence forward in time.

    Computes ``lam_n = solve(phi_n - sum_{m=1}^{n} W_m lam_{n-m})`` by
    pushing each solution forward: once ``lam_t`` is known, ``W_1 ...
    W_{M-t}`` applied to it are added to the tails of the steps ahead,
    one product of the contiguous weights against ``action.copies(lam_t)``.
    The weights may be those of one sector of a matrix that a group of
    order ``m`` maps onto itself: ``rows`` rows by ``m rows`` columns,
    the product then holds each tail in the sector's frame and
    ``action.place`` turns it into the global one.  The default action
    is the trivial one, for square weight matrices.

    Parameters
    ----------
    weights:
        Weights of the boundary system: square matrices, or the first
        sector's rows under ``action``.
    rhs_samples:
        Real data samples ``phi_0, ..., phi_M``, shaped ``(M + 1, n)``.
    solve:
        The solve of the leading system, for instance
        :func:`stokesbem.bem_space.factor` of ``W_0``, constrained or
        not: a real load of length ``n`` to a real vector of length ``n``.
    action:
        The group, with ``order`` ``m``, ``copies(lam)`` of shape ``(n,
        m)`` and ``place(part)`` from shape ``(rows, m)`` to ``(n,)``;
        :func:`stokesbem.bem_space.sector_action` of the space for
        sector weights.

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
    n_steps, rows, cols = w.shape[0] - 1, w.shape[1], w.shape[2]
    if rows * action.order != cols:
        raise ValueError(f"marching needs square weight matrices, or the "
                         f"rows of one of {action.order} sectors, got "
                         f"{w.shape[1:]}")
    want = (n_steps + 1, cols)
    if rhs.shape != want:
        raise ValueError(f"rhs must have shape {want}, got {rhs.shape}")
    lam = np.empty(rhs.shape)
    tails = np.zeros((n_steps + 1, rows, action.order))
    for t in range(n_steps + 1):
        lam[t] = solve(rhs[t] - action.place(tails[t]))
        ahead = n_steps - t
        if ahead:
            flat = w[1 : ahead + 1].reshape(ahead * rows, cols)
            tails[t + 1 :] += (flat @ action.copies(lam[t])).reshape(
                ahead, rows, action.order)
    return lam


def cq_postprocess(transfer, scheme: CQScheme, history: np.ndarray) -> np.ndarray:
    """Convolve observation weights against computed histories.

    Generates the weights ``S_0, ..., S_M`` of the observation transfer
    function once and returns ``u_n = sum_{m=0}^{n} S_m lam_{n-m}`` for
    one history, or for each history of a stack.  A history is convolved
    as a stack of one, and a stack one history at a time, so the working
    buffer is that of one history whatever the stack's depth, and each
    result has the bits of a call with that history alone.

    Parameters
    ----------
    transfer:
        Callback for the observation operator, taking a block of
        frequencies as :func:`cq_weights` does; returns a stack of
        matrices of shape ``(rows, n)``, observables by unknowns, one
        per frequency.
    scheme:
        The scheme the history was marched with.
    history:
        Real, finite solution samples ``lam_0, ..., lam_M``, shaped
        ``(M + 1, n)``, or a stack of ``c`` such histories, shaped
        ``(c, M + 1, n)``.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(M + 1, rows)`` of real observables, or ``(c,
        M + 1, rows)`` for a stack.

    Raises
    ------
    ValueError
        If a history is not real and finite, the array is neither 2-D
        nor a 3-D stack, a history's length does not match the scheme or
        the matrix columns do not match its width; every history is
        checked before any transfer evaluation.
    """
    lam = np.asarray(history)
    if lam.ndim not in (2, 3):
        raise ValueError(f"history must be a 3-D stack or 2-D, got shape "
                         f"{lam.shape}")
    if np.iscomplexobj(lam):
        raise ValueError("history must be real")
    finite = np.isfinite(lam.reshape((-1,) + lam.shape[-2:])).all(axis=(1, 2))
    if not finite.all():
        where = (f" (history {int(np.argmin(finite))} of the stack)"
                 if lam.ndim == 3 else "")
        raise ValueError(f"history contains non-finite entries{where}")
    n_keep = scheme.n_steps + 1
    if lam.shape[-2] != n_keep:
        kind = "stacked 2-D history" if lam.ndim == 3 else "history"
        raise ValueError(
            f"{kind} length {lam.shape[-2]} does not match scheme with "
            f"{n_keep} samples"
        )
    w = cq_weights(transfer, scheme).weights
    if w.shape[2:] != lam.shape[-1:]:
        raise ValueError(
            f"observation weights of shape {w.shape[1:]} do not match a "
            f"history of shape {lam.shape}"
        )
    rows = w.shape[1]
    stack = lam if lam.ndim == 3 else lam[None]
    out = np.zeros((stack.shape[0], n_keep, rows))
    for one, u in zip(stack, out):
        # One BLAS product gives B[m, :, k] = S_m lam_k; the causal
        # convolution is then the sum over the anti-diagonals n = m + k.
        b = (w.reshape(n_keep * rows, -1) @ one.T).reshape(n_keep, rows,
                                                            n_keep)
        for m in range(n_keep):
            u[m:] += b[m, :, : n_keep - m].T
        del b  # freed before the next history's product
    return out if lam.ndim == 3 else out[0]
