"""Quadrature rules used by the boundary-element assembly.

Everything is expressed on the reference interval ``(0, 1)``.

* ``gauss_legendre_01(n)``: cached Gauss-Legendre rule mapped to (0, 1).
* ``panel_gauss(order, breaks)``: composite Gauss-Legendre rule on the
  panels between consecutive ``breaks``, the one place where nodes are
  laid on several panels.
* ``log_gauss_01()``: the 16-point Gauss rule for the weight ``-log(u)``
  on (0, 1), so ``sum w_i f(x_i) ~ int_0^1 (-log u) f(u) du``; the one
  log rule, used by every logarithmic split.  Nodes and weights were
  generated once with 60-digit arithmetic (modified Chebyshev moments
  ``int_0^1 u^k (-log u) du = (k+1)^-2`` plus Golub-Welsch) and are
  frozen below as literals checked by the test suite.
* ``graded_panels(a)``: geometric subdivision of ``(a, 1]`` by halving
  toward ``a``, used above a logarithmic split.

The singular-integral convention throughout the package: on a cut
interval ``(0, u0)`` a factor ``log(u)`` in an integrand is split against
``log(u / u0)``, because scaling ``log_gauss_01`` to ``(0, u0)`` by
``u = u0 t`` integrates exactly the weight ``-log(u / u0)`` with no
correction term.  The remainder ``log(u0)``-part is smooth and belongs to
the companion Gauss-Legendre channel.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: nodes, then weights, of the 16-point Gauss rule for -log(u) on (0, 1)
_LOG_GAUSS_16 = (
    (0.0038978344871159159241,
     0.02302894561687323982,
     0.058280398306240412348,
     0.10867836509105403649,
     0.17260945490984393776,
     0.24793705447057849515,
     0.33209454912991715598,
     0.42218391058194860012,
     0.51508247338146260348,
     0.60755612044772872409,
     0.69637565322821406116,
     0.7784325658732654052,
     0.85085026971539108323,
     0.91108685722227190542,
     0.95702557170354215759,
     0.98704780024798447676),
    (0.060791710043591232851,
     0.10291567751758214439,
     0.12235566204600919356,
     0.12756924693701598872,
     0.12301357460007091542,
     0.11184724485548572262,
     0.096596385152124341253,
     0.079356664351473138782,
     0.061850494581965207095,
     0.045435246507726668629,
     0.031098974751581806409,
     0.019459765927360842078,
     0.010776254963205525646,
     0.0049725428900876417125,
     0.001678201110051194515,
     0.00028235376466843632178),
)


def _legendre_sum(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The Legendre series ``c`` at ``x`` by Clenshaw's recurrence, in
    the order of operations of NumPy 2.4's ``legval``."""
    if c.size == 1:
        return c[0] + 0 * x
    c0, c1 = c[-2], c[-1]
    for nd in range(c.size - 1, 1, -1):
        c0, c1 = (c[nd - 2] - c1 * ((nd - 1) / nd),
                  c0 + c1 * x * ((2 * nd - 1) / nd))
    return c0 + c1 * x


@lru_cache(maxsize=32)
def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on ``(0, 1)``.

    The arithmetic of NumPy 2.4's ``leggauss``, bit for bit, without
    importing ``numpy.polynomial``: the eigenvalues of the symmetric
    companion matrix of ``L_n``, one Newton step, and weights from
    ``L_n'`` and ``L_{n-1}``, symmetrized.
    """
    k = np.arange(n)
    scl = 1.0 / np.sqrt(2 * k + 1)
    off = k[1:] * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    c = np.zeros(n + 1)
    c[-1] = 1.0
    # L_n' = sum (2 j + 1) L_j over j = n - 1, n - 3, ...
    df = _legendre_sum(x, np.where((n - 1 - k) % 2 == 0, 2.0 * k + 1.0, 0.0))
    x -= _legendre_sum(x, c) / df
    fm = _legendre_sum(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2. / w.sum()
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=1)
def log_gauss_01() -> tuple[np.ndarray, np.ndarray]:
    """The 16-point Gauss rule for the weight ``-log(u)`` on ``(0, 1)``.

    ``sum_i w_i u_i^k = (k+1)^-2`` exactly for ``k < 32``.
    """
    nodes = np.array(_LOG_GAUSS_16[0])
    weights = np.array(_LOG_GAUSS_16[1])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def panel_gauss(order: int, breaks) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on the panels between ``breaks``.

    Returns flat nodes ``lo + (hi - lo) x`` and weights ``(hi - lo) w``,
    panel by panel, for the ``order``-point rule ``(x, w)`` on (0, 1).
    """
    x, w = gauss_legendre_01(order)
    breaks = np.asarray(breaks, dtype=float)
    width = np.diff(breaks)[:, None]
    return (breaks[:-1, None] + width * x).ravel(), (width * w).ravel()


def graded_panels(a: float) -> np.ndarray:
    """Breakpoints of a geometric panel subdivision of ``(a, 1]``.

    Panels halve toward ``a`` until the innermost panel is comparable to
    ``a`` itself (the integrand is then resolved by a fixed-order Gauss
    rule per panel).  Returns the ascending breakpoint array including
    both endpoints; at least one panel.
    """
    if not (0.0 < a < 1.0):
        raise ValueError("need 0 < a < 1")
    pts = [1.0]
    cur = 1.0
    while cur / 2.0 > a * 1.0000001:
        cur = max(cur / 2.0, a)
        pts.append(cur)
    pts.append(a)
    return np.array(pts[::-1])
