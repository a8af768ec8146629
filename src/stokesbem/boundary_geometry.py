"""Parametrized closed boundary curves and uniform element meshes.

Three curve families are supported, each parametrized over ``theta in
[0, 1)`` and traversed counterclockwise:

* ``square(half_width)``: the boundary of ``(-w, w)^2``, parametrized
  proportionally to arclength starting at the corner ``(-w, -w)``;
* ``circle(radius)``: ``radius * (cos 2 pi theta, sin 2 pi theta)``;
* ``star(base_radius, amplitude, lobes)``: the polar curve
  ``r(theta) = base + amplitude * cos(lobes * 2 pi theta)``, a smooth
  closed curve with ``lobes`` bumps.

A mesh is a uniform partition of the parameter interval into ``N``
elements.  For the square ``N`` must be a multiple of four so that the
corners always coincide with element boundaries and every element is a
straight segment.

Every curve is centered on the origin and its parametrization commutes
with a rotation: ``x(theta + 1/m) = R x(theta)``, ``R`` the rotation by
``2 pi / m``, for ``m = 4`` (square), any ``m`` (circle) and ``m`` a
divisor of ``lobes`` (star).  A uniform mesh of ``N`` elements inherits
the rotations whose ``m`` divides ``N``: rotation by ``2 pi / m`` maps
element ``j`` onto element ``j + N / m``.  The largest such order is
:attr:`BoundaryMesh.symmetry_order`: ``N`` for the circle, 4 for the
square and ``gcd(N, lobes)`` for the star.

Every curve is also its own mirror image: ``x(-theta) = tau x(theta)``,
``tau`` the reflection in the line through the origin and ``x(0)``,
``(x, y) -> (x, -y)`` for the circle and the star and ``(x, y) -> (y,
x)`` for the square.  Every uniform mesh inherits it: ``tau`` maps
element ``j`` onto element ``N - 1 - j``, reversed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._checks import count, length
from ._quadrature import gauss_legendre_01, panel_gauss

#: quadrature order used for element arclengths of non-polygonal curves and
#: for the moment functionals below; chosen so that these geometric
#: quantities are accurate to near machine precision on the meshes in use.
GEOMETRY_RULE_ORDER = 16

_KINDS = ("square", "circle", "star")

#: the square's corners ``(-1, -1) .. (-1, 1)`` in units of its half
#: width, and the unit direction of the side that starts at each
_CORNERS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
_SIDES = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


@dataclass(frozen=True)
class BoundaryCurve:
    """A closed parametrized curve ``x : [0, 1) -> R^2``.

    Use the classmethod constructors ``square``, ``circle`` and ``star``.
    Every field is checked at construction, whatever the kind: a
    ``ValueError`` names the field for an unknown ``kind``, a length
    that is not finite and positive, an ``amplitude`` outside ``[0,
    base_radius)`` or a ``lobes`` that is not an integer of at least 1.
    """

    kind: str
    half_width: float = 1.0
    radius: float = 1.0
    base_radius: float = 1.0
    amplitude: float = 0.3
    lobes: int = 6

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {', '.join(_KINDS)}, "
                             f"got {self.kind!r}")
        for name in ("half_width", "radius", "base_radius"):
            length(name, getattr(self, name))
        if not 0.0 <= self.amplitude < self.base_radius:
            # r(theta) would touch or cross the origin and self-intersect
            raise ValueError("amplitude must satisfy 0 <= amplitude < "
                             f"base_radius, got {self.amplitude!r}")
        object.__setattr__(self, "lobes", count("lobes", self.lobes, 1))

    @classmethod
    def square(cls, half_width: float = 1.0) -> "BoundaryCurve":
        return cls(kind="square", half_width=half_width)

    @classmethod
    def circle(cls, radius: float = 1.0) -> "BoundaryCurve":
        return cls(kind="circle", radius=radius)

    @classmethod
    def star(cls, base_radius: float = 1.0, amplitude: float = 0.3,
             lobes: int = 6) -> "BoundaryCurve":
        return cls(kind="star", base_radius=base_radius, amplitude=amplitude,
                   lobes=lobes)

    @property
    def is_polygonal(self) -> bool:
        return self.kind == "square"

    def point(self, theta) -> np.ndarray:
        """Positions ``x(theta)``, shape ``(..., 2)``."""
        th = np.asarray(theta, dtype=float) % 1.0
        if self.kind == "circle":
            ang = 2.0 * np.pi * th
            return self.radius * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        if self.kind == "star":
            ang = 2.0 * np.pi * th
            rad = self.base_radius + self.amplitude * np.cos(self.lobes * ang)
            return np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=-1)
        w = self.half_width
        side = np.floor(4.0 * th).astype(int)
        loc = 4.0 * th - side
        # th % 1.0 is 1.0 for a tiny negative th: side 4 is side 0, loc 0
        side %= 4
        return _CORNERS[side] * w + (2.0 * w * loc)[..., None] * _SIDES[side]

    def velocity(self, theta) -> np.ndarray:
        """Parameter derivative ``x'(theta)``, shape ``(..., 2)``.

        For the square this is the one-sided derivative inside each side;
        it is never requested at a corner parameter by the meshing code.
        """
        th = np.asarray(theta, dtype=float) % 1.0
        if self.kind == "circle":
            ang = 2.0 * np.pi * th
            return 2.0 * np.pi * self.radius * np.stack(
                [-np.sin(ang), np.cos(ang)], axis=-1)
        if self.kind == "star":
            ang = 2.0 * np.pi * th
            rad = self.base_radius + self.amplitude * np.cos(self.lobes * ang)
            drad = -self.amplitude * self.lobes * np.sin(self.lobes * ang)
            dx = drad * np.cos(ang) - rad * np.sin(ang)
            dy = drad * np.sin(ang) + rad * np.cos(ang)
            return 2.0 * np.pi * np.stack([dx, dy], axis=-1)
        # the perimeter, = |x'| for the arclength-proportional square
        side = np.floor(4.0 * th).astype(int) % 4
        return 8.0 * self.half_width * _SIDES[side]

    def perimeter(self) -> float:
        """Total arclength, exact for square and circle."""
        if self.kind == "square":
            return 8.0 * self.half_width
        if self.kind == "circle":
            return 2.0 * np.pi * self.radius
        # composite rule over 64 panels resolves the lobes far beyond 1e-12
        th, w = panel_gauss(GEOMETRY_RULE_ORDER, np.linspace(0.0, 1.0, 65))
        return float(np.sum(np.linalg.norm(self.velocity(th), axis=-1) * w))


@dataclass(frozen=True)
class BoundaryMesh:
    """Uniform partition of a boundary curve into ``N`` elements.

    Attributes
    ----------
    curve : BoundaryCurve
    n_elements : int
    param_endpoints : ndarray, shape (N, 2)
        Parameter interval ``[theta_j, theta_{j+1}]`` of each element.
    endpoints : ndarray, shape (N, 2, 2)
        Physical endpoints of each element.
    midpoints : ndarray, shape (N, 2)
        Physical image of the parameter midpoint.
    normals : ndarray, shape (N, 2)
        Outward unit normals at the midpoints.
    arclengths : ndarray, shape (N,)
        Element arclengths, exact for square and circle.
    """

    curve: BoundaryCurve
    n_elements: int
    param_endpoints: np.ndarray = field(repr=False)
    endpoints: np.ndarray = field(repr=False)
    midpoints: np.ndarray = field(repr=False)
    normals: np.ndarray = field(repr=False)
    arclengths: np.ndarray = field(repr=False)

    @property
    def perimeter(self) -> float:
        return float(self.arclengths.sum())

    @property
    def symmetry_order(self) -> int:
        """Order ``m`` of the rotations that map the mesh onto itself.

        Rotation by ``2 pi / m`` maps element ``j`` onto element ``j + N
        / m`` (see the module docstring); ``m = 1`` is no symmetry.
        """
        if self.curve.kind == "circle":
            return self.n_elements
        if self.curve.kind == "square":
            return 4
        return math.gcd(self.n_elements, self.curve.lobes)


def build_mesh(curve: BoundaryCurve, n_elements: int) -> BoundaryMesh:
    """Partition ``curve`` uniformly in parameter into ``n_elements`` pieces.

    Parameters
    ----------
    curve : BoundaryCurve
    n_elements : int
        An integer, at least 4; for the square, a multiple of 4 (so
        corners fall on element boundaries).

    Raises
    ------
    ValueError
        If the element count violates the rules above.
    """
    n = count("n_elements", n_elements, 4)
    if curve.kind == "square" and n % 4 != 0:
        raise ValueError(f"square meshes need a multiple of 4 elements, got {n}")
    theta = np.arange(n + 1) / n
    param_endpoints = np.stack([theta[:-1], theta[1:]], axis=-1)
    endpoints = np.stack([curve.point(theta[:-1]), curve.point(theta[1:])], axis=1)
    mid_param = (theta[:-1] + theta[1:]) / 2.0
    midpoints = curve.point(mid_param)
    vel = curve.velocity(mid_param)
    speed = np.linalg.norm(vel, axis=-1, keepdims=True)
    tang = vel / speed
    # counterclockwise traversal: outward normal is the tangent rotated by -90
    normals = np.stack([tang[:, 1], -tang[:, 0]], axis=-1)
    if curve.kind in ("square", "circle"):
        arclengths = np.full(n, curve.perimeter() / n)
    else:
        # composite rule: resolve each lobe of the speed oscillation by
        # several panels so the sum matches the perimeter to 1e-12
        xg, wg = gauss_legendre_01(GEOMETRY_RULE_ORDER)
        sub = max(1, math.ceil(8.0 * curve.lobes / n))
        width = (theta[1] - theta[0]) / sub
        offsets = (np.arange(sub)[:, None] + xg[None, :]) * width
        th = theta[:-1, None, None] + offsets[None, :, :]
        sp = np.linalg.norm(curve.velocity(th), axis=-1)
        arclengths = (sp * wg[None, None, :]).sum(axis=(1, 2)) * width
    return BoundaryMesh(curve=curve, n_elements=n, param_endpoints=param_endpoints,
                        endpoints=endpoints, midpoints=midpoints, normals=normals,
                        arclengths=arclengths)

