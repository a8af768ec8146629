"""Tests of the one-dimensional quadrature rules used by assembly.

The log-weighted rules integrate ``f(x) * (-log x)`` on ``(0, 1)``; the
monomial moments of that weight are ``int_0^1 x^k (-log x) dx =
(k + 1)^{-2}``, which gives an exactness check with rational targets.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stokesbem import bem_space
from stokesbem._quadrature import (
    LOG_GAUSS_RULES,
    gauss_legendre_01,
    graded_panels,
    log_gauss_01,
    panel_gauss,
)


def test_log_gauss_orders_available():
    """Only the order of every logarithmic split is tabulated."""
    assert set(LOG_GAUSS_RULES) == {16}
    assert {bem_space.SELF_LOG_ORDER, bem_space.VERTEX_LOG_ORDER,
            bem_space.DIAG_LOG_ORDER} == {16}


@pytest.mark.parametrize("order", sorted(LOG_GAUSS_RULES))
def test_log_gauss_moment_exactness(order):
    """An n-point Gauss rule is exact for polynomials up to degree 2n-1."""
    nodes, weights = log_gauss_01(order)
    for k in range(2 * order):
        moment = float(np.dot(weights, nodes**k))
        assert moment == pytest.approx(1.0 / (k + 1) ** 2, rel=5e-15), k


@pytest.mark.parametrize("order", sorted(LOG_GAUSS_RULES))
def test_log_gauss_nodes_interior_weights_positive(order):
    nodes, weights = log_gauss_01(order)
    assert nodes.shape == weights.shape == (order,)
    assert ((nodes > 0.0) & (nodes < 1.0)).all()
    assert (weights > 0.0).all()
    assert (np.diff(nodes) > 0.0).all()


def test_log_gauss_rejects_unknown_order():
    with pytest.raises(ValueError):
        log_gauss_01(7)


def test_log_gauss_log_integrand():
    """Integrates exp(x) * (-log x) on (0, 1): value e - Ei-type constant."""
    nodes, weights = log_gauss_01(16)
    got = float(np.dot(weights, np.exp(nodes)))
    # int_0^1 exp(x) (-log x) dx = sum_{k>=0} 1/(k! (k+1)^2)
    ref = sum(1.0 / (math.factorial(k) * (k + 1) ** 2) for k in range(20))
    assert got == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize("order", [4, 6, 8, 12, 16])
def test_gauss_legendre_polynomial_exactness(order):
    nodes, weights = gauss_legendre_01(order)
    for k in range(2 * order):
        moment = float(np.dot(weights, nodes**k))
        assert moment == pytest.approx(1.0 / (k + 1), rel=1e-13), k


def test_gauss_legendre_cached_arrays_read_only():
    nodes, _ = gauss_legendre_01(8)
    with pytest.raises(ValueError):
        nodes[0] = 0.5


@pytest.mark.parametrize("order", [1, 4, 8, 12])
def test_panel_gauss_polynomial_exactness(order):
    """Exact up to degree 2 order - 1 on panels of unequal width."""
    breaks = [-0.3, 0.1, 0.15, 0.9, 2.0]
    nodes, weights = panel_gauss(order, breaks)
    assert nodes.shape == weights.shape == (4 * order,)
    a, b = breaks[0], breaks[-1]
    for k in range(2 * order):
        moment = float(np.dot(weights, nodes**k))
        exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
        assert moment == pytest.approx(exact, rel=1e-13, abs=1e-15), k


def _panel_by_panel(order, edges):
    """Reference layout: the rule mapped to each panel in turn."""
    x, w = gauss_legendre_01(order)
    nodes = [lo + (hi - lo) * x for lo, hi in zip(edges[:-1], edges[1:])]
    weights = [(hi - lo) * w for lo, hi in zip(edges[:-1], edges[1:])]
    return np.concatenate(nodes), np.concatenate(weights)


@pytest.mark.parametrize("n_panels", [1, 2, 4])
@pytest.mark.parametrize("order", [6, 8, 12])
def test_panel_gauss_matches_equal_panels(order, n_panels):
    """Bit for bit the equal-panel layout ``(k + x) / n``, weights ``w / n``."""
    x, w = gauss_legendre_01(order)
    nodes, weights = panel_gauss(order, np.linspace(0.0, 1.0, n_panels + 1))
    np.testing.assert_array_equal(
        nodes, ((np.arange(n_panels)[:, None] + x[None, :]) / n_panels).ravel())
    np.testing.assert_array_equal(weights, np.tile(w / n_panels, n_panels))


def test_panel_gauss_matches_listed_breaks():
    """Bit for bit the panel loop over the reduced scheme's neighbour breaks."""
    from stokesbem.bem_space import NEIGHBOR_BREAKS, NEIGHBOR_PANEL_ORDER

    got = panel_gauss(NEIGHBOR_PANEL_ORDER, NEIGHBOR_BREAKS)
    want = _panel_by_panel(NEIGHBOR_PANEL_ORDER, np.asarray(NEIGHBOR_BREAKS))
    for g, r in zip(got, want):
        np.testing.assert_array_equal(g, r)


def test_panel_gauss_matches_subdivided_graded_panels():
    """Bit for bit the graded panels above a split cap, each subdivided
    into equal parts, laid out one sub-panel at a time."""
    cap, z_scale, span = 2.0 ** -5, 64.0, 3.0
    graded = graded_panels(cap, 1.0)
    nodes, weights, breaks = [], [], [graded[:1]]
    for a, b in zip(graded[:-1], graded[1:]):
        edges = np.linspace(a, b, max(1, math.ceil((b - a) * z_scale / span)) + 1)
        x, w = _panel_by_panel(8, edges)
        nodes.append(x)
        weights.append(w)
        breaks.append(edges[1:])
    assert sum(len(e) for e in breaks) > len(graded)
    got = panel_gauss(8, np.concatenate(breaks))
    np.testing.assert_array_equal(got[0], np.concatenate(nodes))
    np.testing.assert_array_equal(got[1], np.concatenate(weights))


def test_graded_panels_basic():
    edges = graded_panels(0.125, 1.0)
    assert edges[0] == pytest.approx(0.125)
    assert edges[-1] == pytest.approx(1.0)
    assert (np.diff(edges) > 0.0).all()


def test_graded_panels_rejects_bad_interval():
    with pytest.raises(ValueError):
        graded_panels(0.0, 1.0)
    with pytest.raises(ValueError):
        graded_panels(0.5, 0.5)


@settings(deadline=None, max_examples=50)
@given(
    st.floats(1e-6, 0.4),
    st.floats(0.5, 10.0),
    st.floats(1.5, 4.0),
)
def test_graded_panels_partition_property(a, b, ratio):
    """Edges partition [a, b] with bounded geometric growth toward a."""
    edges = graded_panels(a, b, ratio=ratio)
    assert edges[0] == pytest.approx(a)
    assert edges[-1] == pytest.approx(b)
    widths = np.diff(edges)
    assert (widths > 0.0).all()
    # each panel spans at most `ratio` times the distance of its left
    # edge from the singular endpoint, the defining grading property
    assert (edges[1:-1] / edges[:-2] <= ratio * (1 + 1e-12)).all()
