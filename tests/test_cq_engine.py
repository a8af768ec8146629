"""Unit tests for the convolution-quadrature engine.

Weight accuracy is asserted against the floor of the balanced contour,
``sqrt(CONTOUR_EPSILON) * max ||F||`` over the contour nodes, computed
inside each test from the scheme itself.  The floor is tight: no fixed
absolute tolerance below it is attainable in double precision, and the
measured errors sit within one order of magnitude beneath it.

Transfers are matrices; a scalar transfer is passed as the 1x1 matrix
(``as_matrix``), its histories as ``(M + 1, 1)`` arrays.
Convergence-order checks use the scalar transfer ``F(s) = 1/(s+1)``
whose causal convolution with ``g`` has the closed forms

    g(t) = t^2 : t^2 - 2t + 2 - 2 e^{-t},
    g(t) = t^5 : t^5 - 5t^4 + 20t^3 - 60t^2 + 120t - 120 + 120 e^{-t},

both verified here against independent quadrature before use.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import stokesbem.cq_engine
from stokesbem.bem_space import factor
from stokesbem.cq_engine import (
    CONTOUR_EPSILON,
    CQScheme,
    WeightSequence,
    bdf_delta,
    cq_march,
    cq_postprocess,
    cq_weights,
)


def weight_floor(transfer, scheme: CQScheme) -> float:
    """Accuracy floor sqrt(eps_contour) * max ||F|| over the contour."""
    peak = max(np.abs(transfer(complex(s))).max() for s in scheme.frequencies())
    return np.sqrt(CONTOUR_EPSILON) * peak


def as_matrix(scalar):
    """The 1x1 matrix transfer of a scalar one."""
    return lambda s: np.array([[scalar(s)]])


def march(seq: WeightSequence, rhs) -> np.ndarray:
    """``cq_march`` with the solve of the plain leading weight."""
    return cq_march(seq, rhs, factor(seq.weights[0]))


def oracle_transfer(s: complex) -> complex:
    return 1.0 / (s + 1.0)


def convolved_t2(t: float) -> float:
    return t * t - 2.0 * t + 2.0 - 2.0 * np.exp(-t)


def convolved_t5(t: float) -> float:
    poly = t**5 - 5.0 * t**4 + 20.0 * t**3 - 60.0 * t**2 + 120.0 * t - 120.0
    return poly + 120.0 * np.exp(-t)


# ---------------------------------------------------------------------------
# characteristic function


def test_bdf_delta_order1_is_one_minus_zeta():
    for zeta in (0.0, 0.3 + 0.1j, -0.8j, 1.0):
        assert bdf_delta(1, zeta) == pytest.approx(1.0 - zeta, abs=1e-15)


def test_bdf_delta_at_zero_is_harmonic_number():
    assert bdf_delta(1, 0.0) == pytest.approx(1.0, abs=0)
    assert bdf_delta(2, 0.0) == pytest.approx(1.5, abs=1e-15)
    assert bdf_delta(3, 0.0) == pytest.approx(11.0 / 6.0, abs=1e-15)


def test_bdf_delta_scalar_and_array_shapes():
    assert isinstance(bdf_delta(3, 0.2 + 0.1j), complex)
    z = np.array([0.1, 0.2j, -0.3 + 0.4j])
    out = bdf_delta(3, z)
    assert out.shape == z.shape


def test_bdf_delta_rejects_bad_order():
    with pytest.raises(ValueError):
        bdf_delta(0, 0.5)
    with pytest.raises(ValueError):
        bdf_delta(7, 0.5)


@given(
    order=st.integers(min_value=2, max_value=6),
    re=st.floats(-1.0, 1.0),
    im=st.floats(-1.0, 1.0),
)
def test_bdf_delta_order_increment_property(order, re, im):
    """delta_p - delta_{p-1} = (1 - zeta)^p / p, straight from the sum."""
    zeta = complex(re, im)
    diff = bdf_delta(order, zeta) - bdf_delta(order - 1, zeta)
    assert diff == pytest.approx((1.0 - zeta) ** order / order, abs=1e-12)


# ---------------------------------------------------------------------------
# scheme construction


def test_scheme_default_contour():
    scheme = CQScheme(order=3, kappa=0.05, n_steps=32)
    assert scheme.contour_radius == pytest.approx(
        CONTOUR_EPSILON ** (1.0 / 66.0), rel=1e-15
    )
    assert scheme.n_contour_nodes == 33
    assert scheme.n_half_nodes == 17
    np.testing.assert_allclose(scheme.times(), 0.05 * np.arange(33), rtol=1e-15)
    pts = scheme.contour_points()
    assert pts.shape == (33,)
    np.testing.assert_allclose(np.abs(pts), scheme.contour_radius, rtol=1e-14)
    np.testing.assert_allclose(
        scheme.frequencies(), bdf_delta(3, pts) / 0.05, rtol=1e-14
    )


def test_scheme_validation_errors():
    with pytest.raises(ValueError):
        CQScheme(order=0, kappa=0.1, n_steps=8)
    with pytest.raises(ValueError):
        CQScheme(order=7, kappa=0.1, n_steps=8)
    with pytest.raises(ValueError):
        CQScheme(order=2, kappa=0.0, n_steps=8)
    with pytest.raises(ValueError):
        CQScheme(order=2, kappa=0.1, n_steps=0)
    with pytest.raises(TypeError):
        CQScheme(order=2, kappa=0.1, n_steps=8, n_contour_nodes=10)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("n_steps", [8, 33, 160])
def test_scheme_frequencies_avoid_negative_real_axis(order, n_steps):
    """Every scaled contour node stays off the closed cut (-inf, 0].

    High-order BDF contours do enter the left half plane for small
    steps (they are only A(alpha)-stable), but the only real-valued
    nodes sit at zeta = +-R where delta > 0, so construction succeeds.
    """
    scheme = CQScheme(order=order, kappa=1.0 / n_steps, n_steps=n_steps)
    s = scheme.frequencies()
    on_axis = np.abs(s.imag) <= 1e-14 * np.abs(s)
    assert not np.any(on_axis & (s.real <= 0.0))


# ---------------------------------------------------------------------------
# weight generation


def test_weights_of_1_over_s_bdf1_are_kappa():
    """kappa / (1 - zeta) is the geometric series: every weight is kappa."""
    kappa = 0.05
    scheme = CQScheme(order=1, kappa=kappa, n_steps=40)
    transfer = as_matrix(lambda s: 1.0 / s)
    seq = cq_weights(transfer, scheme)
    assert seq.weights.shape == (41, 1, 1)
    assert np.abs(seq.weights - kappa).max() <= weight_floor(transfer, scheme)


def test_weights_of_1_over_s_bdf2_leading_weight():
    kappa = 0.05
    scheme = CQScheme(order=2, kappa=kappa, n_steps=24)
    transfer = as_matrix(lambda s: 1.0 / s)
    seq = cq_weights(transfer, scheme)
    assert abs(seq.weights[0, 0, 0] - 2.0 * kappa / 3.0) <= weight_floor(
        transfer, scheme)


def rational_coefficients(kappa: float, n_steps: int) -> np.ndarray:
    """Taylor coefficients of kappa / (delta(zeta) + kappa), BDF3.

    The denominator is a cubic in zeta, so the coefficients satisfy a
    four-term recurrence solved here exactly, independent of the
    contour transform.
    """
    # delta(zeta) + kappa = sum_k a_k zeta^k via the binomial expansion
    a = np.zeros(4)
    a[0] += kappa
    for ell in range(1, 4):
        for k in range(ell + 1):
            a[k] += scipy.special.comb(ell, k, exact=True) * (-1.0) ** k / ell
    coeff = np.zeros(n_steps + 1)
    coeff[0] = kappa / a[0]
    for n in range(1, n_steps + 1):
        tail = sum(a[k] * coeff[n - k] for k in range(1, min(n, 3) + 1))
        coeff[n] = -tail / a[0]
    return coeff


def check_rational_coefficients(n_steps, kappa=0.1):
    transfer = as_matrix(oracle_transfer)
    scheme = CQScheme(order=3, kappa=kappa, n_steps=n_steps)
    seq = cq_weights(transfer, scheme)
    assert scheme.n_contour_nodes == n_steps + 1
    assert seq.weights.shape == (n_steps + 1, 1, 1)
    coeff = rational_coefficients(kappa, n_steps)
    assert np.abs(seq.weights[:, 0, 0] - coeff).max() <= weight_floor(
        transfer, scheme)


def test_weights_match_rational_long_division():
    """M = 32: odd L = 33 gives the exact coefficients."""
    check_rational_coefficients(32)


@pytest.mark.parametrize("extra", [1, 2])
def test_weights_with_extra_contour_nodes(extra):
    """`extra` more contour nodes than the M = 32 case (L = M + 1 fixes
    M = 32 + extra): even L = 34, with the Nyquist row, and odd L = 35
    give the exact coefficients too."""
    check_rational_coefficients(32 + extra)


def test_weights_matrix_agrees_with_scalar():
    scheme = CQScheme(order=3, kappa=0.05, n_steps=24)
    f = lambda s: 1.0 / (s + 1.0)
    g = lambda s: 1.0 / (s + 2.0)
    ws = cq_weights(as_matrix(f), scheme).weights[:, 0, 0]
    wg = cq_weights(as_matrix(g), scheme).weights[:, 0, 0]
    wm = cq_weights(lambda s: np.diag([f(s), g(s)]), scheme).weights
    assert wm.shape == (25, 2, 2)
    scale = np.abs(ws).max()
    assert np.abs(wm[:, 0, 0] - ws).max() <= 1e-14 * scale
    assert np.abs(wm[:, 1, 1] - wg).max() <= 1e-14 * scale
    assert np.abs(wm[:, 0, 1]).max() <= 1e-14 * scale
    assert np.abs(wm[:, 1, 0]).max() <= 1e-14 * scale


def test_weights_reject_non_real_symbol():
    scheme = CQScheme(order=2, kappa=0.1, n_steps=16)
    with pytest.raises(RuntimeError, match="not a real symbol"):
        cq_weights(as_matrix(lambda s: 1j * s), scheme)
    with pytest.raises(RuntimeError, match="not a real symbol"):
        cq_weights(as_matrix(lambda s: 1j + 0.0 * s), scheme)


def test_weights_reject_imaginary_part_at_negative_real_node():
    """With even L the node zeta = -R is real too; an imaginary part
    there alone is caught."""
    scheme = CQScheme(order=2, kappa=0.1, n_steps=17)
    assert scheme.n_contour_nodes % 2 == 0
    nyquist = scheme.frequencies()[scheme.n_contour_nodes // 2]

    def transfer(s):
        return 1.0 / (s + 1.0) + (1e-3j if abs(s - nyquist) < 1e-9 else 0.0)

    with pytest.raises(RuntimeError, match="not a real symbol"):
        cq_weights(as_matrix(transfer), scheme)


def test_weights_peak_memory_is_one_buffer():
    """The samples and the weights share one (L, entries) float buffer,
    for odd L = 41 and even L = 42: the peak resident set of a fresh
    process rises by at most 1.5 times its size across the call.  The
    buffer is a shared mapping, which tracemalloc does not see; the
    resident set counts it, the per-node samples and the FFT library's
    own scratch memory.  The peak is the process's own high-water mark
    ``VmHWM``: ``ru_maxrss`` of a fresh process starts at the peak of
    the test process, which it inherits through fork and exec."""
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from stokesbem.cq_engine import CQScheme, cq_weights\n"
        "def peak():\n"
        "    with open('/proc/self/status') as status:\n"
        "        return next(int(line.split()[1]) for line in status\n"
        "                    if line.startswith('VmHWM:'))\n"
        "a = np.random.default_rng(6).standard_normal((200, 200))\n"
        "transfer = lambda s: a / (s + 1.0)\n"
        "cq_weights(lambda s: a[:2, :2] / (s + 1.0), CQScheme(3, 0.05, 2))\n"
        "before = peak()\n"
        "seq = cq_weights(transfer, CQScheme(3, 0.05, int(sys.argv[1])))\n"
        "print(seq.weights.shape[0], 1024 * (peak() - before))\n"
    )
    src = os.path.dirname(os.path.dirname(stokesbem.cq_engine.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for n_steps in (40, 41):
        done = subprocess.run([sys.executable, "-c", script, str(n_steps)],
                              env=env, check=True, capture_output=True,
                              text=True)
        n_nodes, rise = map(int, done.stdout.split())
        assert n_nodes == n_steps + 1
        assert rise <= 1.5 * n_nodes * 200 * 200 * 8


def test_entry_blocks_leave_weights_bit_identical():
    """Each matrix entry is transformed on its own: a block of entries
    gets the weights of the whole matrix bit for bit, and a non-real
    last entry alone trips the residue check."""
    scheme = CQScheme(order=3, kappa=0.05, n_steps=24)
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((2, 5, 4))
    matrix = lambda s: a / (s + 1.0) + b / (s + 2.0) ** 2
    whole = cq_weights(matrix, scheme).weights
    assert whole.shape == (25, 5, 4)
    block = cq_weights(lambda s: matrix(s)[1:4, :3], scheme).weights
    assert np.array_equal(block, whole[:, 1:4, :3])
    marked = np.zeros((5, 4), dtype=complex)
    marked[-1, -1] = 1j
    with pytest.raises(RuntimeError, match="not a real symbol"):
        cq_weights(lambda s: matrix(s) + marked, scheme)


def test_weights_report_failing_node():
    scheme = CQScheme(order=2, kappa=0.1, n_steps=16)

    def broken(s):
        if abs(s.imag) > 5.0:
            raise FloatingPointError("boom")
        return np.array([[1.0 / s]])

    with pytest.raises(RuntimeError, match="contour node"):
        cq_weights(broken, scheme)

    def infinite(s):
        return np.array([[np.inf if abs(s.imag) > 5.0 else 1.0 / s]])

    with pytest.raises(RuntimeError, match="non-finite"):
        cq_weights(infinite, scheme)


def test_weights_keep_config_errors_with_failing_node():
    """A ValueError raised by the transfer stays a ValueError (a config
    error, exit 1) and names the node; a LinAlgError stays numerical."""
    scheme = CQScheme(order=2, kappa=0.1, n_steps=16)
    target = scheme.frequencies()[3]

    def rejecting(s):
        if abs(s - target) < 1e-9:
            raise ValueError("bad parameter")
        return np.array([[1.0 / s]])

    with pytest.raises(ValueError, match="contour node 3.*bad parameter"):
        cq_weights(rejecting, scheme)

    def singular(s):
        if abs(s - target) < 1e-9:
            raise np.linalg.LinAlgError("singular")
        return np.array([[1.0 / s]])

    with pytest.raises(RuntimeError, match="contour node 3"):
        cq_weights(singular, scheme)


def test_weights_reject_shape_change():
    scheme = CQScheme(order=2, kappa=0.1, n_steps=16)
    calls = {"n": 0}

    def shifty(s):
        calls["n"] += 1
        size = 2 if calls["n"] == 1 else 3
        return np.eye(size, dtype=complex) / s

    with pytest.raises(ValueError, match="changed output shape"):
        cq_weights(shifty, scheme)


def test_weights_reject_scalar_transfer():
    """A scalar transfer is passed as the 1x1 matrix."""
    scheme = CQScheme(order=2, kappa=0.1, n_steps=16)
    with pytest.raises(ValueError, match="2-D matrix"):
        cq_weights(lambda s: 1.0 / s, scheme)


def test_weight_sequence_validation():
    with pytest.raises(ValueError):
        WeightSequence(weights=np.zeros((5, 3)))
    with pytest.raises(ValueError):
        WeightSequence(weights=np.zeros(5))
    bad = np.ones((5, 1, 1))
    bad[2] = np.nan
    with pytest.raises(ValueError):
        WeightSequence(weights=bad)
    assert WeightSequence(weights=np.array([1.0, -4.0, 3.0])[:, None, None]).peak == 4.0
    assert WeightSequence(weights=np.zeros((5, 0, 0))).peak == 0.0


# ---------------------------------------------------------------------------
# contour nodes sampled in forked workers

WORKER_COUNTS = (1, 2, 3)


def use_cores(monkeypatch, n: int) -> None:
    """Let cq_weights see ``n`` usable cores, hence ``n`` processes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def assert_children_reaped() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def brinkman_transfer(name: str):
    """The reduced ``V`` of circle P0 N = 8, or its velocity potential at
    three exterior points (a rectangular 6 x 16 transfer)."""
    from stokesbem.bem_space import (
        assemble_nystrom_V,
        build_space,
        potential_velocity_matrix,
    )
    from stokesbem.boundary_geometry import BoundaryCurve, build_mesh
    from stokesbem.laplace_kernels import ComplexFrequency, ProblemConfig

    cfg = ProblemConfig()
    space = build_space(build_mesh(BoundaryCurve.circle(1.0), 8), "P0",
                        "reduced")
    if name == "V":
        return lambda s: assemble_nystrom_V(space, ComplexFrequency(s), cfg)
    points = np.array([[2.0, 0.5], [-1.5, -1.5], [0.0, 3.0]])
    return lambda s: potential_velocity_matrix(
        space, ComplexFrequency(s), cfg, points
    )


@pytest.mark.parametrize("name", ["V", "potential"])
def test_worker_count_leaves_weights_bit_identical(monkeypatch, tmp_path, name):
    """1, 2 and 3 processes share the nodes, each evaluated once, and
    give the same weights bit for bit."""
    transfer = brinkman_transfer(name)
    log = tmp_path / "pids"

    def logged(s):
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")
        return transfer(s)

    scheme = CQScheme(order=3, kappa=1.0 / 16, n_steps=16)
    runs = []
    for n in WORKER_COUNTS:
        use_cores(monkeypatch, n)
        log.write_text("")
        runs.append(cq_weights(logged, scheme).weights)
        assert_children_reaped()
        pids = log.read_text().split()
        assert len(pids) == scheme.n_half_nodes
        assert len(set(pids)) == n
    for weights in runs[1:]:
        assert np.array_equal(weights, runs[0])


@pytest.mark.parametrize("error, raised", [
    (ValueError, ValueError),
    (np.linalg.LinAlgError, RuntimeError),
])
@pytest.mark.parametrize("failing", [(2,), (2, 3)])
def test_worker_failure_is_raised_as_in_serial(monkeypatch, error, raised,
                                               failing):
    """Node 2 belongs to a forked worker for 2 and 3 processes, node 3 to
    the caller for 2: the error names the first failing node with the
    serial message and cause, and no worker is left unreaped."""
    scheme = CQScheme(order=2, kappa=0.1, n_steps=16)
    targets = scheme.frequencies()[list(failing)]

    def transfer(s):
        if np.abs(targets - s).min() < 1e-9:
            raise error("bad parameter")
        return np.array([[1.0 / s]])

    messages = []
    for n in WORKER_COUNTS:
        use_cores(monkeypatch, n)
        with pytest.raises(raised, match="contour node 2 ") as info:
            cq_weights(transfer, scheme)
        assert type(info.value.__cause__) is error
        assert_children_reaped()
        messages.append(str(info.value))
    assert messages == messages[:1] * len(WORKER_COUNTS)


def test_dead_worker_and_failed_fork_leave_weights_bit_identical(monkeypatch):
    """The caller evaluates the nodes of a worker that died or was never
    forked; with one core nothing is forked."""
    parent = os.getpid()

    def dying(s):
        if os.getpid() != parent:
            os._exit(3)
        return np.array([[1.0 / (s + 1.0), 1.0 / (s + 2.0) ** 2]])

    scheme = CQScheme(order=3, kappa=0.05, n_steps=24)
    use_cores(monkeypatch, 1)
    serial = cq_weights(dying, scheme).weights
    for n in WORKER_COUNTS[1:]:
        use_cores(monkeypatch, n)
        assert np.array_equal(cq_weights(dying, scheme).weights, serial)
        assert_children_reaped()

    forks = []

    def no_fork():
        forks.append(1)
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    for n in WORKER_COUNTS:
        use_cores(monkeypatch, n)
        assert np.array_equal(cq_weights(dying, scheme).weights, serial)
    assert len(forks) == 2


# ---------------------------------------------------------------------------
# marching


def test_march_zero_data_gives_zero_history():
    scheme = CQScheme(order=2, kappa=0.1, n_steps=16)
    seq = cq_weights(as_matrix(oracle_transfer), scheme)
    out = march(seq, np.zeros((17, 1)))
    assert out.shape == (17, 1)
    assert np.all(out == 0.0)


def test_march_identity_transfer_returns_data():
    scheme = CQScheme(order=2, kappa=0.05, n_steps=32)
    seq = cq_weights(as_matrix(lambda s: 1.0 + 0.0 * s), scheme)
    rng = np.random.default_rng(0)
    g = rng.standard_normal((33, 1))
    out = march(seq, g)
    # W_0 = 1 exactly; the later weights only leak transform roundoff
    assert np.abs(out - g).max() <= np.sqrt(CONTOUR_EPSILON) * np.abs(
        g
    ).max()


def test_march_matrix_diagonal_matches_scalar():
    scheme = CQScheme(order=3, kappa=0.05, n_steps=24)
    f = lambda s: 1.0 / (s + 1.0)
    g = lambda s: 1.0 / (s + 2.0)
    rng = np.random.default_rng(1)
    rhs = rng.standard_normal((25, 2))
    coupled = march(cq_weights(lambda s: np.diag([f(s), g(s)]), scheme), rhs)
    first = march(cq_weights(as_matrix(f), scheme), rhs[:, :1])
    second = march(cq_weights(as_matrix(g), scheme), rhs[:, 1:])
    scale = np.abs(coupled).max()
    assert np.abs(coupled[:, :1] - first).max() <= 1e-12 * scale
    assert np.abs(coupled[:, 1:] - second).max() <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_march_inverts_forward_convolution(data):
    """Marched histories satisfy the defining recurrence.

    Random short weight sequences with a well-conditioned leading
    weight: convolving the output against the weights must reproduce
    the data, which is exactly the recurrence solved in reverse.
    """
    m = data.draw(st.integers(min_value=1, max_value=10))
    lead = data.draw(
        st.floats(min_value=0.5, max_value=2.0).map(
            lambda v: v * data.draw(st.sampled_from([-1.0, 1.0]))
        )
    )
    tail = data.draw(
        st.lists(
            st.floats(min_value=-0.4, max_value=0.4),
            min_size=m,
            max_size=m,
        )
    )
    rhs = data.draw(
        st.lists(
            st.floats(min_value=-1.0, max_value=1.0),
            min_size=m + 1,
            max_size=m + 1,
        )
    )
    w = np.array([lead] + tail)
    seq = WeightSequence(weights=w[:, None, None])
    lam = march(seq, np.array(rhs)[:, None])[:, 0]
    recovered = np.convolve(w, lam)[: m + 1]
    assert np.abs(recovered - np.array(rhs)).max() <= 1e-9 * max(
        1.0, np.abs(lam).max()
    )


def test_march_rejects_bad_shapes_and_complex_data():
    scheme = CQScheme(order=2, kappa=0.1, n_steps=8)
    seq = cq_weights(as_matrix(oracle_transfer), scheme)
    with pytest.raises(ValueError):
        march(seq, np.zeros((8, 1)))
    with pytest.raises(ValueError):
        march(seq, np.zeros(9))
    with pytest.raises(ValueError):
        march(seq, np.full((9, 1), 1.0 + 1.0j))
    mat = cq_weights(lambda s: np.eye(2, dtype=complex) / (s + 1.0), scheme)
    with pytest.raises(ValueError):
        march(mat, np.zeros((9, 3)))


def test_march_accepts_negligible_imaginary_part():
    """cq_march has one real path: a complex rhs is rejected even when
    its imaginary part is negligible or zero."""
    scheme = CQScheme(order=2, kappa=0.1, n_steps=8)
    seq = cq_weights(as_matrix(oracle_transfer), scheme)
    for imag in (1e-14j, 0j):
        with pytest.raises(ValueError, match="must be real"):
            march(seq, np.ones((9, 1)) + imag)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_march_rejects_singular_leading_weight():
    """The march does not factor: the solve of a singular ``W_0`` is
    refused when it is factored, before any step."""
    delta_weights = np.zeros((5, 1, 1))
    delta_weights[1] = 1.0
    with pytest.raises(np.linalg.LinAlgError, match="numerically singular"):
        march(WeightSequence(weights=delta_weights), np.ones((5, 1)))
    singular = np.zeros((5, 2, 2))
    singular[0, 0, 0] = 1.0
    with pytest.raises(np.linalg.LinAlgError, match="numerically singular"):
        march(WeightSequence(weights=singular), np.ones((5, 2)))


def test_march_rejects_nonsquare_weights():
    def never(load):
        raise AssertionError("solve reached with non-square weights")

    rect = np.ones((4, 2, 3))
    with pytest.raises(ValueError, match="square weight matrices"):
        cq_march(WeightSequence(weights=rect), np.ones((4, 3)), never)


def test_march_requires_the_leading_solve():
    """One path: the march has no default solve and factors nothing."""
    import inspect

    param = inspect.signature(cq_march).parameters["solve"]
    assert param.default is inspect.Parameter.empty
    seq = WeightSequence(weights=np.array([[[2.0]], [[1.0]], [[0.5]]]))
    loads = []

    def halve(load):
        loads.append(load.copy())
        return load / 2.0

    lam = cq_march(seq, np.array([[2.0], [0.0], [0.0]]), halve)
    np.testing.assert_array_equal(lam[:, 0], [1.0, -0.5, 0.0])
    np.testing.assert_array_equal(np.concatenate(loads), [2.0, -1.0, 0.0])


def test_postprocess_rejects_bad_history():
    """A history that is not a real, finite 2-D array is rejected before
    the transfer is evaluated."""
    scheme = CQScheme(order=2, kappa=0.1, n_steps=3)

    def never(s):
        raise AssertionError("transfer evaluated for a bad history")

    bad = {
        "2-D": np.zeros((4, 1, 1)),
        "2-D, got shape \\(4,\\)": np.zeros(4),
        "real": np.zeros((4, 1), dtype=complex),
        "non-finite": np.full((4, 1), np.nan),
        "length": np.zeros((3, 1)),
    }
    for message, history in bad.items():
        with pytest.raises(ValueError, match=message):
            cq_postprocess(never, scheme, history)


# ---------------------------------------------------------------------------
# postprocessing


def test_postprocess_identity_returns_history():
    scheme = CQScheme(order=2, kappa=0.05, n_steps=32)
    rng = np.random.default_rng(2)
    hist = rng.standard_normal((33, 1))
    out = cq_postprocess(as_matrix(lambda s: 1.0 + 0.0 * s), scheme, hist)
    assert np.abs(out - hist).max() <= np.sqrt(CONTOUR_EPSILON) * np.abs(
        hist
    ).max() * 33


def test_postprocess_delta_history_gives_weights():
    scheme = CQScheme(order=3, kappa=0.1, n_steps=16)
    transfer = as_matrix(oracle_transfer)
    delta = np.zeros((17, 1))
    delta[0] = 1.0
    out = cq_postprocess(transfer, scheme, delta)
    np.testing.assert_array_equal(out, cq_weights(transfer, scheme).weights[:, :, 0])


def test_postprocess_linear_in_history():
    scheme = CQScheme(order=2, kappa=0.1, n_steps=12)
    transfer = as_matrix(oracle_transfer)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((13, 1))
    y = rng.standard_normal((13, 1))
    combo = cq_postprocess(transfer, scheme, 2.0 * x - 0.5 * y)
    parts = (2.0 * cq_postprocess(transfer, scheme, x)
             - 0.5 * cq_postprocess(transfer, scheme, y))
    assert np.abs(combo - parts).max() <= 1e-13 * np.abs(parts).max()


def test_postprocess_rectangular_matches_direct_sum():
    """The blocked anti-diagonal accumulation equals the literal formula."""
    scheme = CQScheme(order=2, kappa=0.1, n_steps=10)

    def transfer(s):
        base = np.array(
            [[1.0, 0.3, 0.1, 0.0], [0.0, 1.0, 0.2, 0.4], [0.5, 0.0, 1.0, 0.1]],
            dtype=complex,
        )
        return base / (s + 1.0)

    rng = np.random.default_rng(4)
    lam = rng.standard_normal((11, 4))
    out = cq_postprocess(transfer, scheme, lam)
    assert out.shape == (11, 3)
    w = cq_weights(transfer, scheme).weights
    direct = np.zeros((11, 3))
    for n in range(11):
        for m in range(n + 1):
            direct[n] += w[m] @ lam[n - m]
    assert np.abs(out - direct).max() <= 1e-12 * np.abs(direct).max()


def test_postprocess_shape_errors():
    scheme = CQScheme(order=2, kappa=0.1, n_steps=8)
    transfer = as_matrix(oracle_transfer)
    with pytest.raises(ValueError):
        cq_postprocess(transfer, scheme, np.zeros((8, 1)))
    with pytest.raises(ValueError):
        cq_postprocess(transfer, scheme, np.zeros((9, 2)))
    mat = lambda s: np.eye(2, dtype=complex) / (s + 1.0)
    with pytest.raises(ValueError):
        cq_postprocess(mat, scheme, np.zeros((9, 3)))


def test_postprocess_of_identity_march_is_direct_convolution():
    """Convolving after an identity solve equals convolving the data.

    The residual is the identity-march leakage pushed through one more
    convolution, an order of magnitude under the asserted bound.
    """
    scheme = CQScheme(order=2, kappa=0.05, n_steps=32)
    transfer = as_matrix(oracle_transfer)
    rng = np.random.default_rng(5)
    g = rng.standard_normal(33)
    hist = march(cq_weights(as_matrix(lambda s: 1.0 + 0.0 * s), scheme),
                 g[:, None])
    via_history = cq_postprocess(transfer, scheme, hist)[:, 0]
    direct = np.convolve(cq_weights(transfer, scheme).weights[:, 0, 0], g)[:33]
    assert np.abs(via_history - direct).max() <= 1e-10 * max(
        1.0, np.abs(direct).max()
    )


# ---------------------------------------------------------------------------
# convergence orders


def test_closed_form_convolutions_against_quadrature():
    for g, closed in ((lambda t: t * t, convolved_t2), (lambda t: t**5, convolved_t5)):
        val, err = scipy.integrate.quad(
            lambda tau: np.exp(-(1.0 - tau)) * g(tau), 0.0, 1.0, epsabs=1e-13
        )
        assert closed(1.0) == pytest.approx(val, abs=max(1e-12, 10 * err))


def forward_error(order: int, n_steps: int, power: int, closed) -> float:
    scheme = CQScheme(order=order, kappa=1.0 / n_steps, n_steps=n_steps)
    g = scheme.times() ** power
    weights = cq_weights(as_matrix(oracle_transfer), scheme).weights[:, 0, 0]
    u = np.convolve(weights, g)[: n_steps + 1]
    return abs(u[-1] - closed(1.0))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_convergence_order_smooth_data(order):
    """Least-squares slope within +-0.2 of p for g(t) = t^5."""
    ladder = [16, 32, 64, 128]
    errs = [forward_error(order, m, 5, convolved_t5) for m in ladder]
    steps = np.log([1.0 / m for m in ladder])
    design = np.vstack([steps, np.ones(len(ladder))]).T
    slope = np.linalg.lstsq(design, np.log(errs), rcond=None)[0][0]
    assert abs(slope - order) <= 0.2


def test_convergence_example_quadratic_data():
    """g(t) = t^2: clean orders for p = 1, 2; at least order p for p = 3.

    g''(0) = 2 breaks the smoothness assumption for BDF3, which then
    converges faster than order 3 on coarse grids (measured stepwise
    rates 4.0 and 3.8) before hitting the contour accuracy floor; the
    observed decay therefore stays at least cubic on the resolvable
    window while never settling at slope 3.
    """
    for order in (1, 2):
        ladder = [16, 32, 64, 128]
        errs = [forward_error(order, m, 2, convolved_t2) for m in ladder]
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(rates - order) <= 0.2)
    errs = [forward_error(3, m, 2, convolved_t2) for m in (16, 32, 64)]
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert errs[0] > errs[1] > errs[2]
    assert np.all(rates >= 2.8)


# ---------------------------------------------------------------------------
# operator-valued weights


def test_brinkman_weight_norms_stay_bounded():
    """No growth beyond 10x the largest of the first five weights."""
    from stokesbem.bem_space import assemble_galerkin_V, build_space
    from stokesbem.boundary_geometry import BoundaryCurve, build_mesh
    from stokesbem.laplace_kernels import ComplexFrequency, ProblemConfig

    cfg = ProblemConfig()
    space = build_space(build_mesh(BoundaryCurve.circle(1.0), 8), "P0")
    scheme = CQScheme(order=3, kappa=1.0 / 32, n_steps=32)
    seq = cq_weights(
        lambda s: assemble_galerkin_V(space, ComplexFrequency(s), cfg),
        scheme,
    )
    norms = np.linalg.norm(seq.weights, axis=(1, 2))
    assert norms.max() <= 10.0 * norms[:5].max()
