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
  are frozen below as literals checked by the test suite.
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
    8: (
        (0.013320244160892465012,
         0.07975042901389493841,
         0.19787102932618805379,
         0.35415399435190941967,
         0.52945857523491727771,
         0.70181452993909996384,
         0.84937932044110667605,
         0.95332645005635978877),
        (0.16441660472800288683,
         0.2375256100233060205,
         0.22684198443191912637,
         0.17575407900607024499,
         0.11292403024675905186,
         0.057872210717782072399,
         0.020979073742132978043,
         0.0036864071040276190134),
    ),
    10: (
        (0.0090426309621996506369,
         0.053971266222500629504,
         0.13531182463925077487,
         0.24705241628715982422,
         0.38021253960933233397,
         0.52379231797184320116,
         0.66577520551642459722,
         0.79419041601196621736,
         0.89816109121900353817,
         0.96884798871863353939),
        (0.12095513195457051499,
         0.18636354256407187033,
         0.19566087327775998271,
         0.17357714218290692084,
         0.13569567299548420167,
         0.093646758538110525987,
         0.055787727351415874076,
         0.027159810899233331146,
         0.0095151826028485149993,
         0.0016381576335982632549),
    ),
    12: (
        (0.0065487222790800587893,
         0.038946809560449959162,
         0.098150263106006628862,
         0.18113858159063157735,
         0.2832200676673725547,
         0.3984344351634366437,
         0.51995262679235266273,
         0.6405109167161064543,
         0.75286501205183057837,
         0.85024002416230220067,
         0.92674968322391410105,
         0.97775612968999747917),
        (0.093192691443931324491,
         0.14975182757632236417,
         0.16655745436459300532,
         0.15963355943698765116,
         0.13842483186483562107,
         0.11001657063572116234,
         0.079961821770828970265,
         0.05240695482464177065,
         0.030071088873761187124,
         0.014249245587998279107,
         0.004899924582321760939,
         0.00083402903805690336469),
    ),
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
    x, w = np.polynomial.legendre.leggauss(int(n))
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
        xs, ws = LOG_GAUSS_RULES[int(n)]
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
