"""Quadrature rules used by the boundary-element assembly.

Everything is expressed on the reference interval ``(0, 1)``.

* ``gauss_legendre_01(n)``: cached Gauss-Legendre rule mapped to (0, 1).
* ``panel_gauss(order, breaks)``: composite Gauss-Legendre rule on the
  panels between consecutive ``breaks``, the one place where nodes are
  laid on several panels.
* ``log_gauss_01(n)``: Gauss rule for the weight ``-log(u)`` on (0, 1),
  so ``sum w_i f(x_i) ~ int_0^1 (-log u) f(u) du``.  Nodes and weights
  were generated once with 60-digit arithmetic (modified Chebyshev
  moments ``int_0^1 u^k (-log u) du = (k+1)^-2`` plus Golub-Welsch) and
  are frozen below as literals checked by the test suite; only order
  16, the order of every logarithmic split, is tabulated.
* ``graded_panels(a, b, ratio)``: geometric subdivision of ``(a, b]``
  refined toward ``a``, used for nearly singular outer integrals.

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

LOG_GAUSS_RULES = {
    16: (
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
    ),
}


@lru_cache(maxsize=32)
def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on ``(0, 1)``."""
    x, w = np.polynomial.legendre.leggauss(n)
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=8)
def log_gauss_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for the weight ``-log(u)`` on ``(0, 1)``.

    ``sum_i w_i u_i^k = (k+1)^-2`` exactly for ``k < 2 n``.
    """
    try:
        xs, ws = LOG_GAUSS_RULES[n]
    except KeyError:
        raise ValueError(
            f"no tabulated -log(u) rule of order {n}; "
            f"available: {sorted(LOG_GAUSS_RULES)}") from None
    nodes = np.array(xs)
    weights = np.array(ws)
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


def graded_panels(a: float, b: float, ratio: float = 2.0) -> np.ndarray:
    """Breakpoints of a geometric panel subdivision of ``(a, b]``.

    Panels shrink toward ``a`` by ``ratio`` per step until the innermost
    panel is comparable to ``a`` itself (the integrand is then resolved by
    a fixed-order Gauss rule per panel).  Returns the ascending breakpoint
    array including both endpoints; at least one panel.
    """
    if not (0.0 < a < b):
        raise ValueError("need 0 < a < b")
    pts = [b]
    cur = b
    while cur / ratio > a * 1.0000001:
        cur = max(cur / ratio, a)
        pts.append(cur)
    pts.append(a)
    return np.array(pts[::-1])
