"""Tests of boundary curves, element meshes, and constraint functionals."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stokesbem.bem_space import build_space, data_functional
from stokesbem.boundary_geometry import BoundaryCurve, build_mesh


# ---------------------------------------------------------------------------
# curves


def test_square_closed():
    sq = BoundaryCurve.square(1.0)
    np.testing.assert_allclose(sq.point(0.0), sq.point(1.0 - 1e-12), atol=1e-10)


def test_square_starts_at_lower_left_corner():
    sq = BoundaryCurve.square(1.0)
    np.testing.assert_allclose(sq.point(0.0), [-1.0, -1.0], atol=1e-15)


def test_square_counterclockwise():
    sq = BoundaryCurve.square(1.0)
    np.testing.assert_allclose(sq.point(0.125), [0.0, -1.0], atol=1e-14)
    np.testing.assert_allclose(sq.point(0.375), [1.0, 0.0], atol=1e-14)


def test_circle_parametrization():
    circ = BoundaryCurve.circle(2.0)
    np.testing.assert_allclose(circ.point(0.25), [0.0, 2.0], atol=1e-14)


def test_star_is_closed_and_non_self_intersecting():
    star = BoundaryCurve.star(1.0, 0.3, 6)
    np.testing.assert_allclose(star.point(0.0), star.point(1 - 1e-14), atol=1e-10)
    # polar graph with r > 0 everywhere cannot self intersect
    thetas = np.linspace(0, 1, 720, endpoint=False)
    radii = np.hypot(*np.array([star.point(t) for t in thetas]).T)
    assert (radii >= 0.7 - 1e-12).all()


def test_curve_validation_errors():
    with pytest.raises(ValueError):
        BoundaryCurve.square(0.0)
    with pytest.raises(ValueError):
        BoundaryCurve.circle(-1.0)
    with pytest.raises(ValueError):
        BoundaryCurve.star(1.0, 1.5, 6)
    with pytest.raises(ValueError):
        BoundaryCurve.star(1.0, 0.3, 0)


@pytest.mark.parametrize(
    "fields, name",
    [
        (dict(kind="ellipse"), "kind"),
        (dict(kind="star", lobes=2.5), "lobes"),
        (dict(kind="star", lobes=0), "lobes"),
        (dict(kind="circle", radius=np.inf), "radius"),
        (dict(kind="square", half_width=np.nan), "half_width"),
        (dict(kind="star", base_radius=-1.0), "base_radius"),
        (dict(kind="star", amplitude=1.0), "amplitude"),
        (dict(kind="star", amplitude=-0.1), "amplitude"),
        (dict(kind="star", amplitude=np.nan), "amplitude"),
    ],
)
def test_curve_fields_checked_at_construction(fields, name):
    """The constructor itself, not only the classmethods, refuses a bad
    field and names it."""
    with pytest.raises(ValueError, match=name):
        BoundaryCurve(**fields)


def test_curve_keeps_an_integer_lobe_count():
    curve = BoundaryCurve.star(lobes=np.int64(6))
    assert type(curve.lobes) is int
    assert curve == BoundaryCurve.star()


@pytest.mark.parametrize(
    "curve, n, order",
    [
        (BoundaryCurve.circle(1.0), 40, 40),
        (BoundaryCurve.square(1.0), 16, 4),
        (BoundaryCurve.star(1.0, 0.3, 6), 48, 6),
        (BoundaryCurve.star(1.0, 0.3, 6), 20, 2),
        (BoundaryCurve.star(1.0, 0.3, 6), 25, 1),
    ],
)
def test_mesh_maps_onto_itself_under_its_symmetry(curve, n, order):
    """``x(theta + 1/m) = R x(theta)`` for the rotation ``R`` by ``2 pi /
    m``, so rotation maps element ``j`` onto element ``j + N/m``."""
    mesh = build_mesh(curve, n)
    assert mesh.symmetry_order == order
    ang = 2.0 * np.pi / order
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    theta = np.linspace(0.0, 1.0, 97)
    np.testing.assert_allclose(curve.point(theta + 1.0 / order),
                               curve.point(theta) @ rot.T, atol=1e-14)
    shift = n // order
    np.testing.assert_allclose(np.roll(mesh.midpoints, -shift, axis=0),
                               mesh.midpoints @ rot.T, atol=1e-14)
    np.testing.assert_allclose(np.roll(mesh.arclengths, -shift),
                               mesh.arclengths, rtol=1e-14)


def test_perimeters():
    assert BoundaryCurve.square(1.0).perimeter() == pytest.approx(8.0)
    assert BoundaryCurve.circle(1.0).perimeter() == pytest.approx(2 * np.pi)
    # the star perimeter exceeds that of its base circle
    assert BoundaryCurve.star(1.0, 0.3, 6).perimeter() > 2 * np.pi


@settings(deadline=None, max_examples=40)
@given(st.floats(0, 1, exclude_max=True), st.floats(1e-6, 1e-4))
def test_square_velocity_is_tangent_speed(theta, h):
    """Finite differences of the parametrization match `velocity`.

    Probes away from the corners, where the one-sided difference would
    straddle two sides.
    """
    sq = BoundaryCurve.square(1.0)
    corner_dist = min(abs(theta * 4 - round(theta * 4)), abs(theta * 4 - 4))
    if corner_dist * 0.25 < 2 * h:
        return
    fd = (np.asarray(sq.point(theta + h)) - np.asarray(sq.point(theta))) / h
    np.testing.assert_allclose(fd, sq.velocity(theta), atol=1e-8 * 8)


# ---------------------------------------------------------------------------
# meshes


def test_square_mesh_four_elements():
    mesh = build_mesh(BoundaryCurve.square(1.0), 4)
    assert mesh.n_elements == 4
    np.testing.assert_allclose(mesh.arclengths, 2.0)
    # one element per side, corners on element boundaries
    np.testing.assert_allclose(mesh.endpoints[0, 0], [-1.0, -1.0], atol=1e-15)
    np.testing.assert_allclose(mesh.endpoints[0, 1], [1.0, -1.0], atol=1e-15)


def test_circle_mesh_perimeter():
    mesh = build_mesh(BoundaryCurve.circle(1.0), 20)
    assert mesh.arclengths.sum() == pytest.approx(2 * np.pi, rel=1e-12)


def test_square_mesh_rejects_non_multiple_of_four():
    with pytest.raises(ValueError):
        build_mesh(BoundaryCurve.square(1.0), 6)


def test_mesh_rejects_too_few_elements():
    with pytest.raises(ValueError):
        build_mesh(BoundaryCurve.circle(1.0), 3)


@pytest.mark.parametrize(
    "curve",
    [
        BoundaryCurve.square(1.0),
        BoundaryCurve.circle(1.0),
        BoundaryCurve.star(1.0, 0.3, 6),
    ],
    ids=["square", "circle", "star"],
)
def test_mesh_invariants(curve):
    n = 16
    mesh = build_mesh(curve, n)
    # parameter intervals partition [0, 1)
    np.testing.assert_allclose(mesh.param_endpoints[:, 0], np.arange(n) / n)
    np.testing.assert_allclose(mesh.param_endpoints[:, 1], np.arange(1, n + 1) / n)
    # arclengths sum to the perimeter
    assert mesh.arclengths.sum() == pytest.approx(curve.perimeter(), rel=1e-12)
    # unit normals
    np.testing.assert_allclose(np.hypot(*mesh.normals.T), 1.0, rtol=1e-13)
    # outward: positive projection onto the centroid-to-midpoint ray
    # (star lobes are mild enough to stay star shaped about the origin)
    outward = np.einsum("ij,ij->i", mesh.midpoints, mesh.normals)
    assert (outward > 0.0).all()


def test_circle_mesh_rotational_symmetry():
    mesh = build_mesh(BoundaryCurve.circle(1.0), 12)
    np.testing.assert_allclose(mesh.arclengths, mesh.arclengths[0], rtol=1e-13)
    # rotating by one element maps midpoints onto each other
    angle = 2 * np.pi / 12
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    np.testing.assert_allclose(
        mesh.midpoints[1:], (rot @ mesh.midpoints[:-1].T).T, atol=1e-13
    )


@pytest.mark.parametrize(
    "curve,area",
    [
        (BoundaryCurve.square(1.0), 4.0),
        (BoundaryCurve.circle(1.0), np.pi),
        # polar graph r(t) = 1 + 0.3 cos(6 * 2 pi t): area = pi (1 + 0.3^2/2)
        (BoundaryCurve.star(1.0, 0.3, 6), np.pi * (1 + 0.045)),
    ],
    ids=["square", "circle", "star"],
)
def test_divergence_theorem(curve, area):
    """int_Gamma x . n dGamma = 2 |Omega_-| on every supported curve.

    Uses the exact normal at the quadrature nodes: with the tangent
    rotation n |x'| dtheta = (v_y, -v_x) dtheta the integrand becomes
    x_1 v_2 - x_2 v_1, evaluated with the assembly Gauss rule on a
    composite of the element partition.
    """
    from stokesbem._quadrature import gauss_legendre_01

    mesh = build_mesh(curve, 64)
    xg, wg = gauss_legendre_01(16)
    width = 1.0 / (8 * 64)
    th = (np.arange(8 * 64)[:, None] + xg[None, :]) * width
    pos = np.asarray(curve.point(th))
    vel = np.asarray(curve.velocity(th))
    integrand = pos[..., 0] * vel[..., 1] - pos[..., 1] * vel[..., 0]
    total = float((integrand * wg[None, :]).sum() * width)
    assert total == pytest.approx(2 * area, rel=1e-10)
    assert mesh.perimeter == pytest.approx(curve.perimeter(), rel=1e-12)


# ---------------------------------------------------------------------------
# constraint functionals (the border rows of the density spaces)


def _moment(mesh, kind, assembly="galerkin"):
    """The moment row ``<mu_j, m>`` of the space ``kind`` on ``mesh``,
    tested by the rule ``assembly``."""
    space = build_space(mesh, kind, assembly)
    return data_functional(space, lambda pos: pos)


def test_moment_vector_antipodal_cancellation():
    mesh = build_mesh(BoundaryCurve.circle(1.0), 16)
    assert abs(_moment(mesh, "P0").sum()) <= 1e-12


def test_moment_against_normal_on_unit_circle():
    """<n, m> = 2 pi on the unit circle since n = x there."""
    mesh = build_mesh(BoundaryCurve.circle(1.0), 256)
    normal_dofs = mesh.normals.ravel()
    # P0 interpolation of the normal commits an O(h^2) consistency error
    assert float(_moment(mesh, "P0") @ normal_dofs) == pytest.approx(2 * np.pi, rel=1e-4)


def test_moment_against_normal_on_square():
    """<n, m> = 2 |Omega_-| = 8 exactly (P0 normal is exact on a polygon)."""
    mesh = build_mesh(BoundaryCurve.square(1.0), 8)
    normal_dofs = mesh.normals.ravel()
    assert float(_moment(mesh, "P0") @ normal_dofs) == pytest.approx(8.0, rel=1e-12)


def test_p1_discontinuous_moment_matches_p0_on_constants():
    """Summing the two linear-basis moments recovers the P0 moment."""
    mesh = build_mesh(BoundaryCurve.square(1.0), 8)
    p0 = _moment(mesh, "P0")
    p1 = _moment(mesh, "P1_discontinuous")
    folded = p1.reshape(8, 2, 2).sum(axis=1).ravel()
    np.testing.assert_allclose(folded, p0, rtol=1e-12)


def test_reduced_moment_is_midpoint_rule():
    mesh = build_mesh(BoundaryCurve.circle(1.0), 12)
    reduced = _moment(mesh, "P0", "reduced")
    expected = (mesh.midpoints * mesh.arclengths[:, None]).ravel()
    np.testing.assert_allclose(reduced, expected, rtol=1e-13)


def test_reduced_rejected_for_p1():
    mesh = build_mesh(BoundaryCurve.square(1.0), 8)
    with pytest.raises(ValueError, match="reduced integration is defined "
                       "for P0 densities"):
        _moment(mesh, "P1_discontinuous", "reduced")


def test_unknown_space_tag_rejected():
    mesh = build_mesh(BoundaryCurve.circle(1.0), 8)
    with pytest.raises(ValueError):
        _moment(mesh, "P2")
