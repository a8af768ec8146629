"""Boundary-element spaces and matrices for the single-layer flow operator.

Discretizes the weakly singular boundary operator

    (V(s) lam)(x) = int_Gamma E_u(x - y; s) lam(y) dGamma(y),   x on Gamma,

with vector-valued piecewise-polynomial densities on a uniform element
mesh, either by a Galerkin method (double element integrals) or by
reduced integration (midpoint test rule, a Nystrom-type method).  Also
builds the off-boundary evaluation matrices of the velocity and pressure
potentials.

The test rule is a field of the space, :attr:`DensitySpace.assembly`,
checked where the space is built.  Each assembler takes the spaces of
its own rule only, and :func:`data_functional` and :func:`constrain`
test by the space's rule, so the data and the moment border always
match the matrix.

Every matrix is a plain ``ndarray``.  The assemblers and the velocity
potential take a block of frequencies, a 1-D array, and return one
matrix per frequency as a stack on a leading axis: the assemblers the
first sector's rows of the density block ``V(s)`` (see below), whose
:func:`unfold` is the square matrix of order ``dof_count``.
:func:`constrain` is the one function that removes the gauge kernel: it
borders a matrix by the multiplier row or adds a rank-one term.
:func:`factor` inverts such a system once by LAPACK, refuses it below
an exact condition threshold, and returns its solve: density load in,
density out, the multiplier dropped.

Sector assembly
---------------
Every mesh of the package is a uniform parameter partition of a curve
that a rotation by ``2 pi / m`` maps onto itself, element ``j`` onto
element ``j + N / m`` (:attr:`BoundaryMesh.symmetry_order`: ``m = N``
for the circle, 4 for the square, ``gcd(N, lobes)`` for the star).  The
kernel is equivariant, ``E(Q r) = Q E(r) Q^T``, and so is every
quadrature rule below, which depends on a pair of elements only through
their geometry.  Hence the 2x2 dof blocks obey

    block(i + k N/m, j + k N/m) = Q_k block(i, j) Q_k^T,

with ``Q_k`` the rotation by ``2 pi k / m`` acting on the Cartesian
component of each dof (``I_nb (x) R_k`` for ``nb`` basis functions; see
Allgower, Boehmer, Georg & Miranda, *SIAM J. Numer. Anal.* 29 (1992)
534-552).  The reflection ``tau`` of the mesh (``x(-theta) = tau
x(theta)``) obeys the same law, with element ``j`` mapped onto element
``N - 1 - j``, reversed, so that its two P1 basis functions swap.  Both
assemblers therefore integrate only the rows of the first sector,
elements ``i < N / m``, and of those one element pair per orbit of the
dihedral group of order ``2 m``: ordered pairs for the reduced scheme,
whose matrix is not symmetric, and pairs up to transposition for the
complex symmetric Galerkin scheme.  One routine for both,
:func:`_assemble`, sums the held blocks and fills every other block of
those rows from them, turned by a group element (and, for the Galerkin
rows, transposed); it returns the rows that the time march keeps.  The
clouds of the held pairs alone are built and cached.  For ``m = 1`` the
sector is the whole mesh and the group is the identity and ``tau``.

The convolution weights of ``V`` are linear combinations of matrices
``V(s)``, so they obey the same law, and the time march keeps their
first sector's rows only.  :class:`SectorAction` is the one home of the
mesh's symmetries, on matrices and vectors alike: the rotations ``Q_k``
and the reflections ``Q_k tau`` (``tau x(theta) = x(-theta)``, see
:mod:`stokesbem.boundary_geometry`), the dihedral group of order ``2
m``.  It fills matrices from their first sector's rows by one dof-level
index, the roll by whole sectors and the reversal that it applies to
densities: the blocks of the assemblers' rows that the clouds do not
hold, and in :func:`unfold` a whole matrix, the leading weight or a
``V(s)``.  It applies the weights' rows through the rotations in the
march, turns densities, points and velocities by one formula, and finds
the orbits of a point set under the whole group, on which the
observation pass of :mod:`stokesbem.stokes_solver` evaluates one
representative each.

Quadrature design
-----------------
The planar kernel profiles factor as ``A_2(z) = -log(z) P(z) + smooth``
and ``B_2(z) = log(z) R(z) + smooth`` with ``z = sqrt(s) |x - y|``; here
and below ``s`` is the Brinkman parameter ``s / nu`` of the frequency
(:meth:`ProblemConfig.brinkman`), the one argument of the kernels.  So
every singular integral is reduced to a one-dimensional coordinate ``u``
along which the distance vanishes linearly.  On a split interval
``(0, u0)`` the integrand is separated against ``-log(u / u0)`` and
integrated by a log-weighted Gauss rule, with the smooth remainder
(which carries the ``log(u0 sqrt(s) ...)`` pieces) handled by an
ordinary Gauss rule; on ``(u0, 1)`` geometrically graded panels are
used.  The split radius ``u0`` keeps ``|z|`` below ``Z_SPLIT_CAP`` so
the companion series of ``P`` and ``R`` stay accurate.  Element pairs
are classified as

* self (one element twice): strip coordinates ``u = xi - eta``,
* adjacent (shared vertex): Duffy triangle coordinates, radial split,
* separated: tensor Gauss rules, order chosen by the distance in units
  of the element length.

All node sets depend on ``s`` only through dyadically quantized split
radii, so the expensive point-cloud geometry is cached and shared by
the many frequencies of a convolution-quadrature contour.

A cloud is a plain channel (``_PairCloud``) with its quadrature weights
folded in, which takes ``(A_2, B_2)`` at its points, and for a
logarithmic split also the companion channel, which takes ``(P, -R)``,
folded whole (``_CompanionFold``, below).  One constructor,
``_pair_cloud``, builds every cloud; the singular classes give it their
coordinate maps, and one distance-class loop gives it the rules of the
Galerkin separated pairs, the reduced scheme's far rows and the
potentials.  One contraction, ``_accumulate_blocks``, turns every cloud
into 2x2 matrix blocks: those of ``V``, and those of the velocity
potential, whose clouds pair an observation point with an element.  The
pressure potential is summed over the same point clouds.

At one frequency every argument ``z = sqrt(s) r`` lies on a single ray,
so each profile is a smooth function of the real distance ``r``, with
its only singularity at ``r = 0``, and is interpolated in ``r``: with
``S = 2^ceil(log2 |sqrt(s)|)`` and ``W = RAY_PANEL_WIDTH = 4``, panels
are geometric (ratio 2) below ``r = W/S`` and uniform of width ``W/S``
above it, so each panel spans at most 4 in ``|z|`` and lies at least its
own width away from the singularity.  ``RAY_PANEL_ORDER`` Chebyshev
nodes resolve it to machine precision (Trefethen, *Approximation Theory
and Approximation Practice*, SIAM 2013, ch. 8): the tail of the entire
part on a panel of width 4 is about ``2 I_20(2) ~ 1e-18``.  All plain
channels share that grid, so those of the clouds summed together form
one fused point set.  Only the nodes of its occupied panels are
evaluated, or its points where those would hold as many nodes.

The companion profiles ``P = 2 (I_0 - I_1 / z)`` and ``R = 2 I_2`` are
entire and even, so along the ray they are entire in ``tau = (r /
rho)^2``, ``rho`` the channel's largest distance, and one Chebyshev
interpolant of ``RAY_PANEL_ORDER`` nodes on ``tau in [0, 1]`` spans the
whole channel while ``|sqrt(s)| rho <= SPLIT_SERIES_RADIUS``; the split
keeps it below ``Z_SPLIT_CAP``, and a larger value is a
``RuntimeError``.  So the channel's barycentric rows are folded into its
weights and directions once, when the cloud is built (:func:`_fold`),
into ``2 J x 3`` real weights per pair and basis pair, ``J =
RAY_PANEL_ORDER``; each frequency then evaluates ``P`` and ``R`` at
``J`` nodes per cloud instead of at its companion points, 672 per
Galerkin self or vertex pair.  Folding the plain profiles likewise
needs their piecewise panels per pair, about 110 coefficients per
separated pair against 38.6 points, and gains nothing.

Consecutive frequencies with the same clouds and ``S`` form a run, a
handful per contour, whose fused set and barycentric rows are built once
and held until the next run, and whose companion values come from one
kernel call (:func:`_sum_clouds`).  A run is summed in blocks of
frequencies whose temporaries each hold at most ``_BLOCK_BYTES``: per
block, one kernel call and one interpolation loop for the fused set, and
per cloud one contraction per channel and one scatter.  Every entry is
the arithmetic of its frequency alone, so a block gives the matrices of
single frequencies bit for bit.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._quadrature import (gauss_legendre_01, graded_panels, log_gauss_01,
                          panel_gauss)
from .boundary_geometry import GEOMETRY_RULE_ORDER, BoundaryMesh
from .laplace_kernels import (SPLIT_SERIES_RADIUS, ComplexFrequency,
                              ProblemConfig, _ab2, _pr2)

#: largest |z| = |sqrt(s)| r admitted inside the logarithmic split; must stay
#: below the companion-series validity radius of the kernel profiles.
Z_SPLIT_CAP = 6.0

#: maximum span of z across one direct quadrature panel; panels are split
#: until the kernel variation per panel is resolved by the panel rule.
MAX_PANEL_Z_SPAN = 3.0

#: rule orders for the self-element strip scheme
SELF_SMOOTH_ORDER = 12
SELF_INNER_ORDER = 12

#: rule orders for the shared-vertex Duffy scheme
VERTEX_SMOOTH_ORDER = 12
VERTEX_ANGULAR_ORDER = 12

#: Gauss order on each graded direct panel
DIRECT_PANEL_ORDER = 8

#: reduced-integration (midpoint test rule) inner quadrature
DIAG_SMOOTH_ORDER = 16
NEIGHBOR_PANEL_ORDER = 12
NEIGHBOR_BREAKS = (0.0, 0.0625, 0.125, 0.25, 0.5, 1.0)

#: separated-pair classes: (lower distance bound in element lengths,
#: Gauss order per direction, panels per direction)
SEPARATED_CLASSES = ((4.0, 6, 1), (2.0, 8, 1), (1.0, 12, 1), (0.0, 8, 2))

#: observation-point classes for the potential matrices
POTENTIAL_CLASSES = ((4.0, 6, 1), (2.0, 8, 1), (1.0, 12, 1), (0.0, 12, 4))

#: Chebyshev nodes per panel of the ray-wise profile interpolation, and
#: of the companion fold of a split cloud
RAY_PANEL_ORDER = 20

#: width of the uniform ray panels in ``|z|``, a power of two; the panels
#: below it are geometric (see ``_ray_basis``)
RAY_PANEL_WIDTH = 4

#: Bytes of each temporary of a block of frequencies summed together
#: (``_sum_clouds``), and of a chunk of images in ``SectorAction.orbits``;
#: a frequency whose temporaries are larger is a block of its own.
_BLOCK_BYTES = 1 << 18

#: Distance, relative to the largest coordinate of a point set, within
#: which a point counts as the image of another under a symmetry of the
#: mesh, and the rounding cell of the coordinates by which candidates are
#: looked up (see :meth:`SectorAction.orbits`).  Grid points mirrored
#: through the origin differ by a few ulps.
ORBIT_TOL = 1e-13
ORBIT_CELL = 2.0**-24

_KIND_BASIS = {"P0": 1, "P1_discontinuous": 2}


class ConstraintMode(enum.Enum):
    """How the one-dimensional gauge kernel of the operator is removed.

    ``none`` leaves the plain matrix.  ``multiplier_m`` appends one
    scalar multiplier enforcing ``<lam, m> = 0`` with ``m(x) = x``.
    ``augmented_Vtilde`` adds the rank-one term ``<., m> m`` to the
    operator instead of bordering the system.

    With ``none`` the leading system keeps the normal-field kernel: it is
    regular on the circle and the star, but singular to working
    precision on the square (``rcond_1`` 7.6e-15 for P1 at N = 16,
    M = 40), which :func:`factor` refuses.
    """

    none = "none"
    multiplier_m = "multiplier_m"
    augmented_Vtilde = "augmented_Vtilde"

    @classmethod
    def _missing_(cls, value):
        """Refuse an unknown value, naming the argument and the modes."""
        valid = ", ".join(repr(mode.value) for mode in cls)
        raise ValueError(f"constraint must be one of {valid}, got {value!r}")


@dataclass(frozen=True)
class DensitySpace:
    """Vector-valued discontinuous piecewise-polynomial space on a mesh,
    with the rule that tests it.

    Degrees of freedom are element-major: ``dof = 2 j + c`` for P0 and
    ``dof = 4 j + 2 a + c`` for P1_discontinuous, with element ``j``,
    local scalar function ``a`` (``1 - xi`` then ``xi``), Cartesian
    component ``c``; ``dof_count`` follows from the kind and the mesh.

    ``assembly`` is the test rule of the outer integral, shared by the
    matrix, :func:`data_functional` and :func:`constrain`:
    ``"galerkin"`` tests by the basis itself, ``"reduced"`` by the
    midpoint rule of :func:`assemble_nystrom_V`, defined for P0
    densities on smooth curves only.  Every field is checked here, so a
    space of either rule is consistent wherever it is used.
    """

    mesh: BoundaryMesh
    kind: str
    assembly: str = "galerkin"

    def __post_init__(self) -> None:
        if self.kind not in _KIND_BASIS:
            raise ValueError(f"unknown space kind {self.kind!r}; "
                             f"expected one of {sorted(_KIND_BASIS)}")
        if self.assembly not in ("galerkin", "reduced"):
            raise ValueError(f"assembly must be 'galerkin' or 'reduced', "
                             f"got {self.assembly!r}")
        if self.reduced and self.kind != "P0":
            raise ValueError("reduced integration is defined for P0 densities")
        if self.reduced and self.mesh.curve.is_polygonal:
            raise ValueError("reduced integration requires a smooth curve; "
                             "corner elements are not supported")

    @property
    def reduced(self) -> bool:
        """Whether the space is tested by the midpoint rule."""
        return self.assembly == "reduced"

    @property
    def n_basis(self) -> int:
        return _KIND_BASIS[self.kind]

    @property
    def dof_count(self) -> int:
        return 2 * self.n_basis * self.mesh.n_elements


def build_space(mesh: BoundaryMesh, kind: str,
                assembly: str = "galerkin") -> DensitySpace:
    """Create the density space of the given kind and test rule on
    ``mesh``."""
    return DensitySpace(mesh=mesh, kind=kind, assembly=assembly)


def _basis_values(n_basis: int, xi: np.ndarray) -> np.ndarray:
    """Local scalar basis functions sampled at ``xi``, shape (n_basis, ...)."""
    if n_basis == 1:
        return np.ones((1,) + xi.shape)
    return np.stack([1.0 - xi, xi])


def _element_points(mesh: BoundaryMesh, elems, xi):
    """Positions and parametric speeds for element-local coordinates.

    ``elems`` and ``xi`` broadcast; returns ``pos`` with a trailing
    length-2 axis and ``speed = |x'(xi)|`` (derivative with respect to
    the local coordinate).
    """
    th0 = mesh.param_endpoints[elems, 0]
    dth = mesh.param_endpoints[elems, 1] - th0
    theta = th0 + dth * xi
    pos = mesh.curve.point(theta)
    speed = np.linalg.norm(mesh.curve.velocity(theta), axis=-1) * dth
    return pos, speed


def _split_scale(z: float) -> tuple[float, float]:
    """Split cap and z-span for a log split whose ``|z|`` reaches ``z``.

    The cap, the largest power of two at most ``Z_SPLIT_CAP / z`` clipped
    to [2^-16, 1], keeps ``|z|`` below ``Z_SPLIT_CAP`` on the split
    interval; the z-span, the smallest power of two at least ``z``, sizes
    the direct panels above it (1 when the split covers the interval).
    Both are the cache key of the clouds built from them.
    """
    x = Z_SPLIT_CAP / z
    if x >= 1.0:
        return 1.0, 1.0
    k = math.ceil(-math.log2(max(x, 2.0 ** -16)))
    return 2.0 ** -min(k, 16), 2.0 ** math.ceil(math.log2(z))


def _split_channels(cap: float, z_scale: float, n_smooth: int):
    """Quadrature channels on (0, 1) for a log-singular radial integrand.

    Returns ``(u, w, alpha, beta)``.  A kernel profile value at a node is
    reconstructed as ``alpha * A + beta * P`` (and ``alpha * B - beta *
    R`` for the transverse part), which realizes the identity
    ``A(z) = -log(u / cap) P(z) + [A(z) + log(u / cap) P(z)]`` with the
    first factor integrated by the one log-weighted rule
    (``log_gauss_01``) and the bracket, smooth in ``u``, by a Gauss rule
    of order ``n_smooth``.  Above ``cap``, graded direct panels evaluate
    the profiles themselves (``alpha = 1``); each panel is subdivided
    until its z-span ``z_scale * width`` is resolvable.
    """
    us, ws, als, bes = [], [], [], []
    tl, wl = log_gauss_01()
    us.append(cap * tl)
    ws.append(cap * wl)
    als.append(np.zeros(tl.size))
    bes.append(np.ones(tl.size))
    tg, wg = gauss_legendre_01(n_smooth)
    us.append(cap * tg)
    ws.append(cap * wg)
    als.append(np.ones(n_smooth))
    bes.append(np.log(tg))
    if cap < 1.0:
        graded = graded_panels(cap)
        breaks = [graded[:1]]
        for a, b in zip(graded[:-1], graded[1:]):
            n_sub = max(1, math.ceil((b - a) * z_scale / MAX_PANEL_Z_SPAN))
            breaks.append(np.linspace(a, b, n_sub + 1)[1:])
        xd, wd = panel_gauss(DIRECT_PANEL_ORDER, np.concatenate(breaks))
        us.append(xd)
        ws.append(wd)
        als.append(np.ones(xd.size))
        bes.append(np.zeros(xd.size))
    return (np.concatenate(us), np.concatenate(ws),
            np.concatenate(als), np.concatenate(bes))


@dataclass(frozen=True)
class _PairCloud:
    """Precomputed quadrature geometry of the plain channel of a class of
    pairs, which takes the profiles ``(A_2, B_2)`` at its points.

    Per-point arrays end in the axes ``(n_pairs, n_points)``: the
    distances ``r``, the unit separation vectors ``rhat`` (component
    first) and the basis-pair weights ``wab`` (row basis major), which
    include the channel weight.  A cloud is a tuple of channels on the
    same pairs: this one alone, or for the split self, vertex and reduced
    diagonal clouds this one and the :class:`_CompanionFold` of the
    companion channel (see ``_split_channels``).  :func:`_pair_cloud`
    builds every cloud.
    """

    pairs: np.ndarray
    r: np.ndarray
    rhat: np.ndarray
    wab: np.ndarray


@dataclass(frozen=True)
class _CompanionFold:
    """The companion channel of a split cloud, which takes ``(P, -R)``,
    folded by :func:`_fold`: its largest distance ``radius``, ``rho``,
    and ``weights`` of shape ``(2 J, 3, n_pairs, n_basis^2)``, ``J =
    RAY_PANEL_ORDER``, per node ``rho sqrt(tau_j)`` of ``P`` then of
    ``R`` and per tensor entry ``xx, xy, yy``: the sum over the channel's
    points of their basis-pair weights and barycentric rows, times the
    entry of ``I`` for ``P`` and of ``-rhat rhat^T`` for ``R``.
    """

    radius: float
    weights: np.ndarray


def _pair_cloud(space: DensitySpace, rows, xi, cols, eta, w_pt, split=None,
                at=None):
    """The cloud of the pairs ``(rows[k], cols[k])`` on the nodes of one
    rule, whose weights ``w_pt`` span the node axes.

    The column is element ``cols[k]`` at coordinates ``eta``.  The row
    is element ``rows[k]`` at coordinates ``xi`` (the Galerkin rule) or,
    with ``at = (points, weights)``, the point ``points[rows[k]]`` of
    weight ``weights[rows[k]]``: a reduced-rule midpoint and its
    arclength, or an observation point and 1.  ``xi`` and ``eta``
    broadcast to the node axes, so the tensor rule evaluates each
    element at its own nodes only; or a side's coordinates are a pair
    ``(distinct, take)``, the flat nodes ``distinct[take]``, whose
    elements are evaluated once per distinct coordinate, once for both
    sides when they share both the elements and ``distinct``.  ``split``
    holds the ``(alpha, beta)`` of ``_split_channels`` at the flat
    nodes: the plain channel takes those with ``alpha != 0``, the
    companion channel, folded, those with ``beta != 0``.  Without it the
    cloud is one plain channel.
    """
    mesh = space.mesh
    # the pair axis first, then the node axes
    lead = (slice(None),) + (None,) * np.ndim(w_pt)
    tables = {}

    def side(elems, x):
        if not isinstance(x, tuple):
            return (*_element_points(mesh, elems[lead], x), x)
        distinct, take = x
        key = (id(elems), id(distinct))
        if key not in tables:
            tables[key] = _element_points(mesh, elems[:, None], distinct)
        return (*(np.take(a, take, axis=1) for a in tables[key]),
                distinct[take])

    pos_y, sp_y, eta = side(cols, eta)
    fy = _basis_values(space.n_basis, eta)
    if at is None:
        pos_x, sp_x, xi = side(rows, xi)
        fx = _basis_values(space.n_basis, xi)
    else:
        points, weights = at
        pos_x, sp_x, fx = points[rows[lead]], weights[rows[lead]], (1.0,)
    diff = (pos_x - pos_y).reshape(rows.size, -1, 2)
    r = np.linalg.norm(diff, axis=-1)
    rhat = np.stack([diff[..., 0], diff[..., 1]]) / r
    base = w_pt * sp_x * sp_y
    wab = np.stack([base * fa * fb for fa in fx for fb in fy]).reshape(
        -1, *r.shape)
    pairs = np.stack([rows, cols], axis=1)
    if split is None:
        return (_PairCloud(pairs, r, rhat, wab),)
    channels = [(np.compress(m, r, axis=1), np.compress(m, rhat, axis=2),
                 np.compress(m, wab, axis=2) * c[m])
                for c in split for m in [c != 0.0]]
    return _PairCloud(pairs, *channels[0]), _fold(*channels[1])


def _sector_size(mesh: BoundaryMesh) -> int:
    """Elements per rotational sector, ``N / mesh.symmetry_order``."""
    return mesh.n_elements // mesh.symmetry_order


def _mirror_rows(n: int, shift: int) -> np.ndarray:
    """The rows ``i < n`` with ``i <= (n - shift - i) mod n``: one of each
    pair of first-sector rows that the reflection ``Q_1 tau`` swaps,
    the self pairs ``(i, i)`` for ``shift = 1`` and the vertex pairs
    ``(i, i + 1)`` for ``shift = 2`` (see :func:`_assemble`)."""
    i = np.arange(n)
    return i[i <= (n - shift - i) % n]


def _build_self_cloud(space: DensitySpace, elems, cap: float,
                      z_scale: float):
    """Strip-coordinate cloud for the self pairs ``(i, i)`` of the
    elements ``elems``.

    With ``u = xi - eta`` the double integral over the reference square
    becomes two congruent strips ``v in (0, 1 - u)``, ``u in (0, 1)``;
    the distance vanishes linearly in ``u``, which carries the split.
    """
    u, wu, al, be = _split_channels(cap, z_scale, SELF_SMOOTH_ORDER)
    t, wt = gauss_legendre_01(SELF_INNER_ORDER)
    uu = u[:, None]
    eta_plus = (1.0 - uu) * t[None, :]
    xi_plus = eta_plus + uu
    w2 = (wu[:, None] * wt[None, :] * (1.0 - uu)).ravel()
    # the row takes (xi_plus, eta_plus), the column the halves swapped
    coords = np.concatenate([xi_plus.ravel(), eta_plus.ravel()])
    half = np.arange(w2.size)
    split = [np.tile(np.repeat(c, t.size), 2) for c in (al, be)]
    return _pair_cloud(space, elems, (coords, np.arange(coords.size)),
                       elems, (coords, np.concatenate([half + w2.size, half])),
                       np.concatenate([w2, w2]), split)


def _build_vertex_cloud(space: DensitySpace, left, cap: float,
                        z_scale: float):
    """Duffy-coordinate cloud for the adjacent pairs (i, i+1) of the
    elements ``i`` of ``left``.

    The shared vertex sits at the end of element i and the start of
    element i+1.  In corner coordinates ``(da, db)`` measured from the
    vertex, the unit square splits into two triangles mapped by
    ``(da, db) = p (1, q)`` and ``p (q, 1)`` with Jacobian ``p``; the
    distance vanishes linearly in ``p`` for straight, cornered, and
    curved adjacent pairs alike.
    """
    mesh = space.mesh
    p, wp, al, be = _split_channels(cap, z_scale, VERTEX_SMOOTH_ORDER)
    q, wq = gauss_legendre_01(VERTEX_ANGULAR_ORDER)
    pp = p[:, None]
    pq = (pp * q[None, :]).ravel()
    w2 = (wp[:, None] * wq[None, :] * pp).ravel()
    # (da, db) is (p, p q) on the first triangle and (p q, p) on the
    # second: the distinct corner coordinates are p and p q
    at_p = np.repeat(np.arange(p.size), q.size)
    at_pq = p.size + np.arange(pq.size)
    split = [np.tile(np.repeat(c, q.size), 2) for c in (al, be)]
    return _pair_cloud(
        space, left, (np.concatenate([1.0 - p, 1.0 - pq]),
                      np.concatenate([at_p, at_pq])),
        (left + 1) % mesh.n_elements, (np.concatenate([p, pq]),
                                       np.concatenate([at_pq, at_p])),
        np.concatenate([w2, w2]), split)


def _separated_pairs(mesh: BoundaryMesh, ordered: bool):
    """Non-touching pairs (i, j) of the first sector's rows, ``i < n =
    N/m``, one per orbit of the dihedral group, with their distance in
    element lengths.

    Rotation ``Q_k`` maps element ``j`` onto ``j + k n`` and ``Q_k tau``
    onto ``N - 1 - j + k n`` (mod ``N``), so an element of the first
    sector stays there under the identity and ``Q_1 tau`` only.  The
    images of ``(i, j)`` among the first sector's rows are therefore
    itself and its reflection ``(n - 1 - i, n - 1 - j)``; the
    ``ordered`` pairs of the reduced rows stop there.  The unordered
    pairs of the complex symmetric Galerkin rows add the transpose
    ``(j, i)`` brought into the first sector by a rotation and by a
    reflection.  Of each orbit the lexicographically least pair is kept.
    """
    n_all, n = mesh.n_elements, _sector_size(mesh)
    i, j = np.divmod(np.arange(n * n_all), n_all)
    keep = ((j - i) % n_all > 1) & ((i - j) % n_all > 1)
    images = [(n - 1 - i, n - 1 - j)]
    if not ordered:
        turn = j - j % n
        images += [(j % n, i - turn), (n - 1 - j % n, n - 1 - i + turn)]
    for a, b in images:
        keep &= i * n_all + j <= a * n_all + b % n_all
    i, j = i[keep], j[keep]
    dist = np.linalg.norm(mesh.midpoints[i] - mesh.midpoints[j], axis=1)
    scale = np.maximum(mesh.arclengths[i], mesh.arclengths[j])
    return i, j, dist / scale


def _distance_classes(ratio: np.ndarray, classes):
    """Yield ``(mask, order, n_panels)`` per non-empty class of ``ratio``.

    ``classes`` lists (lower bound, order, panels) farthest first; each
    class takes the ratios from its lower bound up to the previous one.
    """
    upper = np.inf
    for lower, order, n_panels in classes:
        sel = (ratio >= lower) & (ratio < upper)
        upper = lower
        if sel.any():
            yield sel, order, n_panels


def _class_clouds(space: DensitySpace, ii, jj, ratio, classes, at=None):
    """One cloud per distance class of the pairs ``(ii, jj)``: the
    class's Gauss rule on the column element, and on the row element too
    (the tensor rule) unless the rows are the points ``at`` of
    :func:`_pair_cloud`."""
    clouds = []
    for sel, order, n_panels in _distance_classes(ratio, classes):
        x, w = panel_gauss(order, np.linspace(0.0, 1.0, n_panels + 1))
        xi = None
        if at is None:
            xi, w = x[:, None], w[:, None] * w[None, :]
        clouds.append(_pair_cloud(space, ii[sel], xi, jj[sel], x, w, at=at))
    return clouds


#: cache of pair clouds, with the folded companion weights of the split
#: ones, keyed by (curve, N, kind, label, cap, z-span), and of what every
#: frequency or time step reads: the fill index of the sector rows
#: (:meth:`SectorAction.fill_index`) under "fill" and the rule, and the
#: Galerkin data rule (:func:`data_functional`) under "data".  The dyadic
#: split caps keep the key set small across a contour.  It holds one
#: space only: a new space drops the others first.
_GEOMETRY_CACHE: dict = {}


def _cached(key, builder):
    if key not in _GEOMETRY_CACHE:
        for other in [k for k in _GEOMETRY_CACHE if k[:3] != key[:3]]:
            del _GEOMETRY_CACHE[other]
        _GEOMETRY_CACHE[key] = builder()
    return _GEOMETRY_CACHE[key]


def _space_key(space: DensitySpace):
    return (space.mesh.curve, space.mesh.n_elements, space.kind)


#: first-kind Chebyshev points on [-1, 1] and their barycentric weights
_CHEB_T = np.cos((2.0 * np.arange(RAY_PANEL_ORDER) + 1.0) * np.pi
                 / (2.0 * RAY_PANEL_ORDER))
_CHEB_W = (-1.0) ** np.arange(RAY_PANEL_ORDER) * np.sin(
    (2.0 * np.arange(RAY_PANEL_ORDER) + 1.0) * np.pi / (2.0 * RAY_PANEL_ORDER))

#: the nodes of a companion fold over its radius: ``sqrt(tau_j)`` for the
#: Chebyshev points ``tau_j`` of [0, 1]
_FOLD_ROOTS = np.sqrt(0.5 * (1.0 + _CHEB_T))


def _barycentric(t: np.ndarray) -> np.ndarray:
    """The barycentric rows of the Chebyshev interpolant on [-1, 1] at
    the points ``t``: shape ``(RAY_PANEL_ORDER,) + t.shape``, the weights
    of its values at ``_CHEB_T``.  A point on a node takes that node's
    value."""
    axes = (-1,) + (1,) * t.ndim
    rows = t[None] - _CHEB_T.reshape(axes)
    hit = rows == 0.0
    on_node = hit.any(axis=0)
    rows[:, on_node] = 1.0
    np.divide(_CHEB_W.reshape(axes), rows, out=rows)
    rows /= rows.sum(axis=0)
    rows[:, on_node] = hit[:, on_node]
    return rows


def _fold(r: np.ndarray, rhat: np.ndarray, wab: np.ndarray) -> _CompanionFold:
    """The :class:`_CompanionFold` of a companion channel given by its
    per-point arrays, laid out as those of a :class:`_PairCloud`: one
    Chebyshev interpolant in ``tau = (r / rho)^2`` on [0, 1] (see the
    module docstring).  The barycentric rows of a chunk of pairs hold at
    most ``_BLOCK_BYTES``, and one pair at least.
    """
    n = RAY_PANEL_ORDER
    rho = float(r.max())
    weights = np.zeros((2 * n, 3, r.shape[0], wab.shape[0]))
    width = max(1, _BLOCK_BYTES // (8 * n * r.shape[1]))
    for lo in range(0, r.shape[0], width):
        part = slice(lo, lo + width)
        rows = _barycentric(2.0 * (r[part] / rho) ** 2 - 1.0)
        w, (x, y) = wab[:, part], rhat[:, part]
        np.einsum("jnp,knp->jnk", rows, w, out=weights[:n, 0, part])
        weights[:n, 2, part] = weights[:n, 0, part]
        np.einsum("jnp,kcnp->jcnk", rows,
                  -w[:, None] * np.stack([x * x, x * y, y * y]),
                  out=weights[n:, :, part])
    return _CompanionFold(rho, weights)


@dataclass(frozen=True)
class _RayBasis:
    """Interpolation of a profile at a set of distances, for one scale ``S``.

    The points are sorted by panel; panel ``k`` holds the sorted points
    ``bounds[k]:bounds[k + 1]`` and has Chebyshev nodes ``nodes[k]``.
    ``rows`` holds each sorted point's barycentric weights on its panel's
    nodes, shape (RAY_PANEL_ORDER, n_points); ``inverse`` maps the sorted
    order back to the input order.
    """

    inverse: np.ndarray
    bounds: list
    nodes: np.ndarray
    rows: np.ndarray


def _ray_scale(sqrt_s: complex) -> float:
    """Panel scale ``S = 2^ceil(log2 |sqrt(s)|)``."""
    return 2.0 ** math.ceil(math.log2(abs(sqrt_s)))


def _ray_basis(r: np.ndarray, scale: float) -> _RayBasis | None:
    """Panel sort and barycentric rows for the distances ``r`` (1-D), or
    ``None`` where the occupied panels would hold at least as many nodes
    as ``r`` has points: the profiles are then evaluated at the points
    themselves.

    With ``W = RAY_PANEL_WIDTH``, the panel of a scaled distance ``r S``
    is uniform, ``[k W, (k + 1) W)``, for ``r S >= W``; below, the binary
    exponent ``e`` of ``r S`` names the geometric panel ``[2^(e-1),
    2^e)``.  So every panel lies at least its own width from ``r = 0``
    and spans at most ``W`` in ``|z|``.
    """
    rs = r * scale
    top = RAY_PANEL_WIDTH.bit_length() - 1  # the largest geometric id
    ids = np.where(rs >= RAY_PANEL_WIDTH, np.floor(rs / RAY_PANEL_WIDTH) + top,
                   np.frexp(rs)[1]).astype(np.int64)
    # any order within a panel serves: each point is interpolated alone
    order = np.argsort(ids)
    panels, starts, counts = np.unique(ids[order], return_index=True,
                                       return_counts=True)
    if panels.size * RAY_PANEL_ORDER >= r.size:
        return None
    # powers of the geometric ids only: 2.0 ** k overflows for k >= 1024
    geo = np.minimum(panels, top)
    uniform = panels > top
    lo = np.where(uniform, (panels - top) * RAY_PANEL_WIDTH,
                  2.0 ** (geo - 1)) / scale
    hi = np.where(uniform, (panels - top + 1) * RAY_PANEL_WIDTH,
                  2.0 ** geo) / scale
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return _RayBasis(inverse=np.argsort(order),
                     bounds=np.append(starts, r.size).tolist(),
                     nodes=mid[:, None] + half[:, None] * _CHEB_T[None, :],
                     rows=_barycentric((r[order] - np.repeat(mid, counts))
                                       / np.repeat(half, counts)))


def _interpolate(basis: _RayBasis, table: np.ndarray) -> np.ndarray:
    """Values at the basis's points in panel order, read through
    ``basis.inverse``, of the rows of ``table``, their values at the
    nodes of shape (panels, ..., RAY_PANEL_ORDER): one contraction per
    occupied panel for every row."""
    rows = table.reshape(table.shape[0], -1, RAY_PANEL_ORDER)
    out = np.empty((rows.shape[1], basis.rows.shape[1]))
    # einsum rather than matmul: a multithreaded BLAS call on these thin
    # shapes costs milliseconds regardless of its size
    for k, (lo, hi) in enumerate(zip(basis.bounds[:-1], basis.bounds[1:])):
        np.einsum("fj,jp->fp", rows[k], basis.rows[:, lo:hi],
                  out=out[:, lo:hi])
    return out.reshape(table.shape[1:-1] + (-1,))


#: the key of the last run of frequencies summed, its scale ``S`` and its
#: plain channels' ids, and its fused point set (:func:`_fused_sets`),
#: which holds the channels so that the ids stay unique.  One run only is
#: held, which bounds the memory; a contour crosses few scales and split
#: radii.
_RAY_SLOT: list = [None, None]


def _fused_sets(clouds, scale: float):
    """The plain channels of the clouds in cloud order, and the ray basis
    (:func:`_ray_basis`) of their concatenated distances at ``scale``:
    the run's one fused point set.  The set of another run is dropped
    before a new one is built."""
    channels = [cloud[0] for cloud in clouds]
    key = (scale, [id(ch) for ch in channels])
    if _RAY_SLOT[0] != key:
        _RAY_SLOT[:] = [None, None]
        _RAY_SLOT[:] = [key, (channels, _ray_basis(
            np.concatenate([ch.r.ravel() for ch in channels]), scale))]
    return _RAY_SLOT[1]


def _fused_profiles(channels, basis, sqrt_s: np.ndarray):
    """Yield each plain channel's profiles ``(A_2, B_2)`` at ``z = sqrt_s
    * channel.r`` for the roots ``sqrt_s`` (1-D), real and imaginary
    parts on axis 1, from one kernel call for the fused set ``channels``
    at the nodes of ``basis`` or, without one, at the points."""
    z = (sqrt_s[:, None] * np.concatenate([ch.r.ravel() for ch in channels])
         if basis is None else basis.nodes[:, None, :] * sqrt_s[None, :, None])
    values = np.stack([part for f in _ab2(z) for part in (f.real, f.imag)],
                      axis=-2)
    if basis is not None:
        values = _interpolate(basis, values)
    stop = 0
    for channel in channels:
        start, stop = stop, stop + channel.r.size
        part = (values[..., start:stop] if basis is None else
                np.take(values, basis.inverse[start:stop], axis=-1))
        shape = (sqrt_s.size, 2) + channel.r.shape
        yield part[:, :2].reshape(shape), part[:, 2:].reshape(shape)


def _companion_values(clouds, sqrt_s: np.ndarray) -> list:
    """Per cloud, ``P`` and then ``R`` at the nodes of its companion fold
    for the roots ``sqrt_s`` (1-D), shape ``(roots, 2, 2 J)`` with real
    and imaginary parts on axis 1, or ``None`` for a cloud without one,
    from one kernel call.  A ``|sqrt(s)| rho`` beyond
    ``SPLIT_SERIES_RADIUS``, where neither the series nor the fold holds,
    is a ``RuntimeError`` naming the cloud.
    """
    split = [cloud for cloud in clouds if len(cloud) > 1]
    if not split:
        return [None] * len(clouds)
    radius = np.array([cloud[1].radius for cloud in split])
    reach = float(np.abs(sqrt_s).max()) * radius
    if reach.max() > SPLIT_SERIES_RADIUS:
        k = int(np.argmax(reach))
        i, j = split[k][0].pairs[0]
        raise RuntimeError(
            f"|sqrt(s)| rho = {reach[k]:.3g} on the companion channel of the "
            f"split cloud of element pair ({i}, {j}) exceeds "
            f"SPLIT_SERIES_RADIUS = {SPLIT_SERIES_RADIUS}")
    p, r = _pr2(sqrt_s[:, None, None] * (radius[:, None] * _FOLD_ROOTS))
    values = np.stack([np.concatenate([p.real, r.real], axis=-1),
                       np.concatenate([p.imag, r.imag], axis=-1)], axis=2)
    folds = iter(np.moveaxis(values, 1, 0))
    return [next(folds) if len(cloud) > 1 else None for cloud in clouds]


def _accumulate_blocks(V, cloud, profiles, companion, pref, index):
    """Add a cloud's 2x2 dof blocks into the stack ``V`` (no mirroring),
    one matrix per root, and the blocks' flat ``index`` into a matrix:
    ``f I + g rhat rhat^T`` summed over the plain channel's points from
    its ``profiles`` ``(f, g)`` at those roots, plus for a split cloud
    its fold's weights against the ``companion`` values at the roots
    (:func:`_companion_values`); the distinct pairs scattered at once.
    """
    channel, (f, g) = cloud[0], profiles
    x, y = channel.rhat
    # real and imaginary parts of f + g x^2, g x y, f + g y^2, six rows
    # per root, written in place
    tensor = np.empty((f.shape[0], 3) + f.shape[1:])
    for i, xy in enumerate((x * x, x * y, y * y)):
        np.multiply(g, xy, out=tensor[:, i])
    tensor[:, ::2] += f[:, None]
    sums = np.einsum("knp,cnp->cnk", channel.wab,
                     tensor.reshape((-1,) + channel.r.shape))
    sums = sums.reshape((V.shape[0], 6) + sums.shape[1:])
    if companion is not None:
        sums += np.einsum("fqj,jcnk->fcqnk", companion,
                          cloud[1].weights).reshape(sums.shape)
    V.reshape(V.shape[0], -1)[:, index] += pref * (  # C-ordered: a view
        sums[:, [0, 2, 2, 4]] + 1j * sums[:, [1, 3, 3, 5]])


def _sum_clouds(out, sqrt_s, clouds_at, pref, n_basis) -> None:
    """Add into ``out[i]``, a C-ordered stack, the blocks of the clouds
    ``clouds_at(root)`` of the root ``sqrt_s[i]``, for every root of
    ``sqrt_s`` (1-D); ``n_basis`` counts the column functions.

    A run (see the module docstring) takes its companion values from one
    kernel call (:func:`_companion_values`), and is summed in blocks as
    large as keep four reals per point of its fused set and six per
    point of each plain channel within ``_BLOCK_BYTES``, and one root at
    least.  A fold's contraction per root, six reals per pair and basis
    pair, is smaller than its cloud's tensor.
    """
    keys = [(clouds_at(root), _ray_scale(root)) for root in sqrt_s]
    start = 0
    for _, run in itertools.groupby(
            keys, key=lambda key: ([id(c) for c in key[0]], key[1])):
        stop = start + len(list(run))
        clouds, scale = keys[start]
        channels, basis = _fused_sets(clouds, scale)
        companion = _companion_values(clouds, sqrt_s[start:stop])
        sizes = [ch.r.size for ch in channels]
        width = max(1, _BLOCK_BYTES // max(32 * sum(sizes), 48 * max(sizes)))
        n_cols, index = out.shape[-1], []
        for cloud in clouds:
            # the flat entries xx, xy, yx, yy of the cloud's dof blocks;
            # one row function for an observation point
            pairs, n_rows = cloud[0].pairs, cloud[0].wab.shape[0] // n_basis
            a, b = np.divmod(np.arange(n_rows * n_basis), n_basis)
            corner = ((2 * n_rows * pairs[:, :1] + 2 * a) * n_cols
                      + 2 * n_basis * pairs[:, 1:] + 2 * b)
            index.append(corner + np.array([0, 1, n_cols, n_cols + 1])[
                :, None, None])
        for lo in range(start, stop, width):
            hi = min(lo + width, stop)
            profiles = _fused_profiles(channels, basis, sqrt_s[lo:hi])
            for cloud, cloud_index, values in zip(clouds, index, companion):
                _accumulate_blocks(
                    out[lo:hi], cloud, next(profiles),
                    None if values is None else values[lo - start:hi - start],
                    pref, cloud_index)
        start = stop


def unfold(sector: np.ndarray, space: DensitySpace) -> np.ndarray:
    """The matrix of order ``dof_count`` that the rotations of the mesh map
    onto itself and whose first ``SectorAction.rows`` rows are
    ``sector``: its block ``(i + k n, j)`` is ``Q_k sector(i, j - k n)
    Q_k^T``.

    Such is every convolution weight of ``V``, a linear combination of
    matrices ``V(s)``, real like ``sector`` (see :class:`SectorAction`),
    and every ``V(s)`` itself, complex, from the rows that the
    assemblers return.  Every entry is taken from the turned sectors by
    :meth:`SectorAction.fill_index`.  For ``m = 1`` it returns a copy of
    ``sector``, bit for bit.
    """
    action = sector_action(space)
    turns, index = action.fill_index(space.dof_count)
    return np.take(action.turned(sector, turns), index)


def _apply(q: np.ndarray, i: int, x, y):
    """Component ``i`` of the vectors ``q (x, y)``, ``q`` one or more 2x2
    matrices on its first two axes; ``q``'s other axes broadcast with
    ``x`` and ``y``.  One component at a time: both at once hold twice
    the temporaries and took twice as long in the march's copies."""
    return q[i, 0] * x + q[i, 1] * y


@dataclass(frozen=True)
class SectorAction:
    """The symmetries of a space's mesh, acting on its matrices and
    density vectors and on points and velocities of the plane: the
    rotations ``Q_k`` and the reflections ``Q_k tau``, the dihedral group
    of order ``2 m``.

    A matrix ``W`` that the rotations map onto itself, ``W(i + k n, j) =
    Q_k W(i, j - k n) Q_k^T`` in element blocks (see the module
    docstring), is given by its first ``rows`` rows ``S``, those of the
    elements ``i < n``.  Block ``k`` of a product is then

        (W lam)_k = Q_k S (Q_k^T lam rolled by k n elements),

    so one product ``S @ copies(lam)`` holds all ``m`` blocks in the
    sector's frame, and :meth:`place` turns them back into the global
    frame.  The rolled copies are gathered by an index, built once per
    action for the march's ``m`` rotations, and turned elementwise, which
    is cheaper per step than a rotation by ``einsum``.  The same roll,
    and the reversal of the reflections, rebuild entries of ``W`` itself
    from ``S``: :meth:`fill_index` into :meth:`turned`.

    Group element ``k`` is ``Q_k`` for ``k < m`` and ``Q_{k-m} tau`` for
    ``m <= k < 2 m``, where ``tau x(theta) = x(-theta)`` is the mesh's
    reflection (:mod:`stokesbem.boundary_geometry`): it maps element
    ``j`` onto element ``N - 1 - j``, reversed.  A reflection is its own
    inverse.  Every turn, :meth:`copies`, :meth:`place` and :meth:`turn`,
    is the one formula ``_apply`` of the element's matrix.

    Attributes
    ----------
    rows:
        ``r = 2 nb N / m``, the dofs of one sector.
    group:
        ``(2, 2, 2 m)``, the matrix of each group element on the first
        two axes, so that each entry is contiguous over the elements.
    """

    rows: int
    group: np.ndarray

    @property
    def order(self) -> int:
        """The symmetry order ``m``, the rotations and the copies per
        product."""
        return self.group.shape[-1] // 2

    def turn(self, v: np.ndarray, k) -> np.ndarray:
        """Group element ``k`` applied to the points or velocities on the
        last axis of ``v``; ``k``, an element or an array of elements,
        broadcasts against the other axes."""
        q = self.group[:, :, k]
        return np.stack([_apply(q, i, v[..., 0], v[..., 1]) for i in (0, 1)],
                        axis=-1)

    def _gather(self, k: np.ndarray):
        """For :meth:`copies` of the elements ``k``: where column ``j``
        takes each dof from the density, and the transposes of the
        elements' matrices.

        Entry ``(p + k r) mod dof`` of the density is entry ``p`` of the
        density rolled by ``k`` sectors.  A reflection reads the dof
        pairs in reverse order before the roll, ``p`` from ``dof - 2 - p
        + 2 (p % 2)``: the elements reversed, and the basis functions of
        each element swapped with them.
        """
        m, dof = self.order, self.rows * self.order
        p = np.arange(dof)[:, None]
        start = np.where(k < m, p, dof - 2 - p + 2 * (p % 2))
        return ((start + k % m * self.rows) % dof,
                self.group[:, :, k].swapaxes(0, 1))

    @cached_property
    def _rotations(self):
        """:meth:`_gather` of the ``m`` rotations, the march's copies."""
        return self._gather(np.arange(self.order))

    def copies(self, lam: np.ndarray, turns=None) -> np.ndarray:
        """``(..., dof, c)`` for densities ``lam`` of shape ``(..., dof)``:
        column ``j`` is ``g^T lam(g .)`` for the group element ``g`` of
        ``k = turns[j]``, so ``Q_k^T`` of ``lam`` rolled by ``k`` sectors
        for a rotation; the ``m`` rotations by default.

        The identity turn alone is ``lam`` itself, a view: the formula
        would give ``1 x + 0 y``, equal to ``x`` but for a zero's sign.
        """
        k = np.arange(self.order) if turns is None else np.asarray(turns)
        if k.tolist() == [0]:
            return lam[..., None]
        index, q = self._rotations if turns is None else self._gather(k)
        v = np.take(lam, index, axis=-1).reshape(lam.shape[:-1]
                                                 + (-1, 2, k.size))
        out = np.empty(v.shape)
        for i in (0, 1):
            out[..., i, :] = _apply(q, i, v[..., 0, :], v[..., 1, :])
        return out.reshape(lam.shape + (k.size,))

    def place(self, part: np.ndarray) -> np.ndarray:
        """The global dof vector whose sector ``k`` is ``Q_k`` of column
        ``k`` of the ``(rows, m)`` array ``part``."""
        x, y = part.reshape(-1, 2, self.order).transpose(1, 2, 0)
        out = np.empty((self.order, x.shape[1], 2))
        for i in (0, 1):
            out[..., i] = _apply(self.group[:, :, : self.order, None], i, x, y)
        return out.reshape(-1)

    def turned(self, sector: np.ndarray, turns) -> np.ndarray:
        """The images ``g S g^T`` of the first sector's rows ``S`` by the
        group elements ``turns`` (an array of element numbers), where
        ``g`` turns the Cartesian component of every dof.

        Shape ``(len(turns), 2, 2, r / 2, dof / 2)``: element, row
        component, column component, row dof pair, column dof pair, of
        the dtype of ``S``.  A complex ``S`` is turned in its real and
        imaginary parts alike; element 0 is the identity, so it holds
        ``S`` exactly.
        """
        q = self.group[:, :, turns]
        rows, cols = sector.shape[0] // 2, sector.shape[1] // 2
        x = np.ascontiguousarray(
            sector.reshape(rows, 2, cols, 2).transpose(1, 3, 0, 2)).view(float)
        # entry (k, c, d; e, f) is g_k[c, e] g_k[d, f]; einsum rather than
        # matmul for the thin shapes, see _interpolate
        both = np.einsum("cek,dfk->kcdef", q, q).reshape(-1, 4)
        turned = np.einsum("ab,bp->ap", both, x.reshape(4, -1))
        return turned.reshape((len(turns), 2, 2) + x.shape[2:]).view(
            sector.dtype)

    def fill_index(self, n_rows: int, held=None, symmetric=False):
        """``(turns, index)``: where the first ``n_rows`` rows of a matrix
        ``W`` that the group maps onto itself are taken from, as flat
        indices ``index``, ``(n_rows, dof)``, into :meth:`turned` of its
        first ``rows`` rows ``S`` by the elements ``turns``.

        The law is ``W(g P, g Q) = g W(P, Q) g^T`` in dof pairs, ``g P``
        the dof map of :meth:`_gather`.  Two elements bring row ``P``
        into the first sector: the rotation by ``-(P // r)`` sectors and
        the reflection ``Q_{P // r + 1} tau``, which reverses the
        sector's dof pairs.  ``held``, ``(r, dof)`` booleans, tells which
        entries ``S`` holds, all by default; entry ``(P, Q)`` is read
        from the first held source of: ``S`` turned by the rotation, the
        transpose ``(Q, P)`` turned by ``Q``'s rotation, ``S`` turned by
        the reflection, and the transpose turned by ``Q``'s reflection.
        The transposes are sources of a complex ``symmetric`` ``W`` only.
        With ``held`` omitted every row takes its rotation, for ``m``
        turns.  An entry without a held source is a ``ValueError``.
        """
        r, m, dof = self.rows, self.order, self.rows * self.order

        def sources(p, q):
            # (element, row of S, column of S) of each element that brings
            # dof p into the first sector, the rotation first
            k, i = np.divmod(p, r)
            rotation = (k, i, (q - k * r) % dof)
            j = (q - (k + 1) * r) % dof
            return [rotation, (m + (k + 1) % m, r - 2 - i + 2 * (i % 2),
                               dof - 2 - j + 2 * (j % 2))]

        p, q = np.arange(n_rows)[:, None], np.arange(dof)
        direct, mirror = sources(p, q)
        g, i, j = np.broadcast_arrays(*direct)
        if held is not None:
            others = [mirror]
            if symmetric:
                transposed, transposed_mirror = sources(q, p)
                others = [transposed, mirror, transposed_mirror]
            found = held[i, j]
            for source in others:
                take = ~found & held[source[1], source[2]]
                g, i, j = (np.where(take, new, old)
                           for new, old in zip(source, (g, i, j)))
                found |= take
            if not found.all():
                raise ValueError("an entry of the rows has no held source")
        # np.unique(g) imports numpy.ma (NumPy 2.4), half a megabyte of
        # resident set
        used = np.zeros(2 * m, dtype=bool)
        used[g] = True
        head = ((np.cumsum(used) - 1)[g] * 2 + i % 2) * 2 + j % 2
        return (np.flatnonzero(used),
                (head * (r // 2) + i // 2) * (dof // 2) + j // 2)

    def orbits(self, points: np.ndarray):
        """Each point's representative and turn: ``points[i]`` is, within
        ``ORBIT_TOL``, group element ``turn[i]`` of ``points[rep[i]]``.

        A representative is its own, with turn 0; it is the point of
        least index among the images of a point in the set, reached
        first by the element ``k = 1, ..., 2 m - 1`` of least ``k``; the
        elements are tried a chunk at a time.  Candidates are looked up
        by coordinates rounded to ``ORBIT_CELL`` and accepted by distance
        only, so a point never takes a representative farther than
        ``ORBIT_TOL`` from its image; a match lost to rounding, or to a
        candidate that is itself derived, leaves the point its own
        representative, which costs time alone.  Both bounds are relative
        to the largest coordinate of the set.  With ``m = 1`` the group
        is the identity and the reflection ``tau``.
        """
        n, m = points.shape[0], self.order
        index = np.arange(n)
        best = np.full(n, n)
        turn = np.zeros(n, dtype=int)
        scale = float(np.abs(points).max())
        if n > 1 and scale > 0.0:

            def key(p):
                # an image lies within sqrt(2) / ORBIT_CELL < 2^26 cells
                # of the origin, so both shifted coordinates fit one key
                q = (np.round(p / (ORBIT_CELL * scale)).astype(np.int64)
                     + (1 << 26))
                return q[..., 0] << 32 | q[..., 1]

            own = key(points)
            order = np.argsort(own, kind="stable")
            width = max(1, _BLOCK_BYTES // (16 * n))
            for first in range(1, 2 * m, width):
                k = np.arange(first, min(first + width, 2 * m))
                image = self.turn(points, k[:, None])
                at = np.searchsorted(own, key(image), sorter=order)
                j = order[np.minimum(at, n - 1)]
                gap = np.linalg.norm(points[j] - image, axis=-1)
                j[~(gap <= ORBIT_TOL * scale)] = n
                # the least candidate, of equal ones the first element
                first_k = np.argmin(j, axis=0)
                j = j[first_k, index]
                better = j < best
                # points[j] = g_k points[i]: points[i] = g_k^-1 points[j],
                # Q_{m-k} for a rotation and g_k for a reflection
                undo = np.where(k < m, m - k, k)
                best[better], turn[better] = j[better], undo[first_k[better]]
        derived = best < index
        # one step from a representative only: a candidate that is
        # derived itself leaves the point its own representative
        derived[derived] = best[best[derived]] >= best[derived]
        return np.where(derived, best, index), np.where(derived, turn, 0)


def sector_action(space: DensitySpace) -> SectorAction:
    """The :class:`SectorAction` of the symmetries of ``space``'s mesh."""
    mesh = space.mesh
    m = mesh.symmetry_order
    # tau x(theta) = x(-theta) fixes x(0): the reflection in the line
    # through the origin and x(0), exact for the axes and the diagonals
    a, b = mesh.endpoints[0, 0]
    tau = np.array([[a * a - b * b, 2 * a * b],
                    [2 * a * b, b * b - a * a]]) / (a * a + b * b)
    angle = 2.0 * np.pi * np.arange(m) / m
    cos, sin = np.cos(angle), np.sin(angle)
    rot = np.array([[cos, -sin], [sin, cos]])
    return SectorAction(space.dof_count // m, np.concatenate(
        [rot, np.einsum("abk,bc->ack", rot, tau)], axis=-1))


def _require_planar(cfg: ProblemConfig) -> None:
    if cfg.dimension != 2:
        raise NotImplementedError("matrix assembly is implemented for the "
                                  "planar problem only")


def _require_assembly(space: DensitySpace, assembly: str) -> None:
    """Refuse a space whose test rule is not the assembler's own."""
    if space.assembly != assembly:
        raise ValueError(f"the {assembly} assembler needs a space with "
                         f"assembly {assembly!r}, got {space.assembly!r}")


def _roots(freqs, cfg: ProblemConfig) -> np.ndarray:
    """The roots ``sqrt(s / nu)`` of the frequencies ``freqs`` (1-D), the
    kernels' argument per unit distance; a frequency on the cut is a
    ``ValueError`` (:class:`ComplexFrequency`)."""
    return np.array([cfg.brinkman(ComplexFrequency(s)).sqrt_s
                     for s in np.ravel(freqs)], dtype=complex)


def _assemble(space: DensitySpace, freqs, cfg: ProblemConfig,
              clouds_at) -> np.ndarray:
    """The first sector's rows of the boundary-operator matrix at each
    frequency of ``freqs``, shape ``(b, 2 nb n, dof_count)`` for the
    elements ``i < n = N / m``.

    ``clouds_at(sqrt_s)`` lists the clouds of those rows at one root;
    they are summed against every column (:func:`_sum_clouds`).  They
    hold one block per orbit of the dihedral group: ``g`` maps the
    element pair ``(i, j)`` onto ``(g i, g j)`` and its block ``B`` onto
    ``g B g^T``, reversed and with the P1 basis functions swapped for a
    reflection.  Every other block of the rows is read from a held block
    turned by a group element, or for the complex symmetric Galerkin
    matrix from the transpose of one (:meth:`SectorAction.fill_index`,
    cached per space and rule); only the elements that the index reads
    are turned, the identity and ``Q_1 tau`` for the reduced rows.

    Raises ``RuntimeError`` for a non-finite entry, naming its element
    pair.
    """
    sqrt_s = _roots(freqs, cfg)
    w, n = 2 * space.n_basis, _sector_size(space.mesh)
    sector = np.zeros((sqrt_s.size, w * n, space.dof_count), dtype=complex)
    if not sqrt_s.size:
        return sector
    _sum_clouds(sector, sqrt_s, clouds_at, cfg.kernel_prefactor,
                space.n_basis)
    if not np.isfinite(sector).all():
        ei, ej = np.argwhere(~np.isfinite(sector))[0, 1:] // w
        raise RuntimeError(f"quadrature produced a non-finite entry for "
                           f"element pair ({ei}, {ej})")
    action = sector_action(space)

    def fill():
        held = np.zeros((n, space.mesh.n_elements), dtype=bool)
        for cloud in clouds_at(sqrt_s[0]):
            held[cloud[0].pairs[:, 0], cloud[0].pairs[:, 1]] = True
        return action.fill_index(action.rows, held.repeat(w, 0).repeat(w, 1),
                                 symmetric=not space.reduced)

    turns, index = _cached(_space_key(space) + ("fill", space.assembly), fill)
    for k, rows in enumerate(sector):
        sector[k] = np.take(action.turned(rows, turns), index)
    return sector


def constrain(V: np.ndarray, space: DensitySpace,
              constraints: ConstraintMode | str) -> np.ndarray:
    """The system matrix for ``constraints`` from the density block ``V``.

    With ``b`` the moment row ``<mu_j, m>``, ``m(x) = x`` (the
    :func:`data_functional` of ``m``, so tested by the space's own
    rule, that of ``V``): ``multiplier_m`` borders ``V``
    by ``b`` as a last row and column with a zero diagonal entry;
    ``augmented_Vtilde`` adds ``b b^T``; ``none`` copies ``V``.  The
    constraint does not depend on the frequency, so the same call
    constrains one ``V(s)`` and the leading convolution weight ``W_0``;
    the dtype of ``V`` is kept, so a real ``W_0`` stays real.
    ``constraints`` may be a mode or its value string; any other value
    is a ``ValueError``.
    """
    constraints = ConstraintMode(constraints)
    if constraints == ConstraintMode.none:
        return V.copy()
    b = data_functional(space, lambda pos: pos)
    if constraints == ConstraintMode.augmented_Vtilde:
        return V + np.outer(b, b)
    return np.block([[V, b[:, None]], [b, np.zeros(1)]])


def assemble_galerkin_V(space: DensitySpace, freqs,
                        cfg: ProblemConfig) -> np.ndarray:
    """Galerkin matrices ``V_ij(s) = <mu_i, V(s) mu_j>`` at the
    frequencies ``freqs`` (1-D), as their first sector's rows: shape
    ``(b, 2 nb N / m, dof_count)``, one stack entry per frequency.
    :func:`unfold` gives a whole matrix, :func:`constrain` removes its
    gauge kernel.

    The matrix is complex symmetric by construction: one unordered
    element pair per orbit of the dihedral group is integrated, then
    turned and transposed into the rest of the rows (:func:`_assemble`).

    Raises
    ------
    ValueError
        For a space of the reduced rule, or a frequency on the cut.
    RuntimeError
        If quadrature produces a non-finite entry (reported with the
        offending element pair).
    """
    _require_planar(cfg)
    _require_assembly(space, "galerkin")
    l_max = float(space.mesh.arclengths.max())
    key = _space_key(space)
    separated = _cached(key + ("separated",), lambda: _class_clouds(
        space, *_separated_pairs(space.mesh, ordered=False),
        SEPARATED_CLASSES))
    n = _sector_size(space.mesh)
    self_rows, left = _mirror_rows(n, 1), _mirror_rows(n, 2)

    def clouds_at(sqrt_s):
        z_max = abs(sqrt_s) * l_max
        cap_u, z_u = _split_scale(z_max)
        cap_p, z_p = _split_scale(2.0 * z_max)
        self_cloud = _cached(key + ("self", cap_u, z_u), lambda:
                             _build_self_cloud(space, self_rows, cap_u, z_u))
        vertex_cloud = _cached(key + ("vertex", cap_p, z_p), lambda:
                               _build_vertex_cloud(space, left, cap_p, z_p))
        return [self_cloud, vertex_cloud, *separated]

    return _assemble(space, freqs, cfg, clouds_at)


# ---------------------------------------------------------------------------
# reduced integration (midpoint test rule)
# ---------------------------------------------------------------------------

def _build_diag_cloud(space: DensitySpace, elems, cap: float,
                      z_scale: float):
    """Self-element rows of the reduced scheme, the elements ``elems``:
    midpoint against own element.

    The inner integral is folded into the two half-elements; with
    ``eta = 1/2 +- v/2`` the distance from the midpoint vanishes
    linearly in ``v``, which carries the split.
    """
    mesh = space.mesh
    v, wv, al, be = _split_channels(cap, z_scale, DIAG_SMOOTH_ORDER)
    eta = np.concatenate([0.5 + 0.5 * v, 0.5 - 0.5 * v])
    w_pt = np.concatenate([0.5 * wv, 0.5 * wv])
    split = [np.tile(c, 2) for c in (al, be)]
    return _pair_cloud(space, elems, None, elems, eta, w_pt, split,
                       at=(mesh.midpoints, mesh.arclengths))


def _build_neighbor_cloud(space: DensitySpace):
    """First-sector rows against the next element, graded toward the
    shared vertex at ``eta = 0``."""
    mesh = space.mesh
    eta, w_pt = panel_gauss(NEIGHBOR_PANEL_ORDER, NEIGHBOR_BREAKS)
    rows = np.arange(_sector_size(mesh))
    return _pair_cloud(space, rows, None, (rows + 1) % mesh.n_elements,
                       eta, w_pt, at=(mesh.midpoints, mesh.arclengths))


def assemble_nystrom_V(space: DensitySpace, freqs,
                       cfg: ProblemConfig) -> np.ndarray:
    """Reduced-integration matrices at the frequencies ``freqs`` (1-D):
    midpoint test rule, accurate columns.

    Row ``i`` is the element arclength times the kernel integral against
    each basis function, evaluated at the element midpoint; this is the
    Nystrom-type scheme obtained from the Galerkin method by reduced
    integration of the outer (test) integral.  It takes a space of the
    reduced rule only (P0 on a smooth curve, see :class:`DensitySpace`),
    whose :func:`constrain` and :func:`data_functional` test by the same
    midpoint rule; any other space is a ``ValueError``.  The diagonal
    uses the logarithmic split so its entries are finite and accurate.
    Like :func:`assemble_galerkin_V` it returns the first sector's rows,
    shape ``(b, 2 N / m, dof_count)``: its clouds hold one ordered
    element pair per orbit of the dihedral group (the diagonal, the
    next neighbour and the separated pairs), and each previous
    neighbour and every other block is the reflection of a held one
    (:func:`_assemble`).
    """
    _require_planar(cfg)
    _require_assembly(space, "reduced")
    mesh = space.mesh
    l_max = float(mesh.arclengths.max())
    key = _space_key(space)
    nb_next = _cached(key + ("rnext",), lambda: _build_neighbor_cloud(space))
    far = _cached(key + ("rrows",), lambda: _class_clouds(
        space, *_separated_pairs(mesh, ordered=True), SEPARATED_CLASSES,
        at=(mesh.midpoints, mesh.arclengths)))
    diag_rows = _mirror_rows(_sector_size(mesh), 1)

    def clouds_at(sqrt_s):
        cap_d, z_dq = _split_scale(abs(sqrt_s) * l_max / 2.0)
        diag = _cached(key + ("rdiag", cap_d, z_dq), lambda:
                       _build_diag_cloud(space, diag_rows, cap_d, z_dq))
        return [diag, nb_next, *far]

    return _assemble(space, freqs, cfg, clouds_at)


# ---------------------------------------------------------------------------
# potential evaluation off the boundary
# ---------------------------------------------------------------------------

#: Gauss-Newton steps projecting a near point onto an element's parameter
PROJECTION_STEPS = 8


def check_observation_points(mesh: BoundaryMesh, points) -> np.ndarray:
    """The observation points ``points`` as a float array of shape (K, 2).

    Raises ``ValueError`` unless that shape holds with ``K >= 1``, every
    point is finite and none lies within 1e-12 of the curve.  Points
    within one element length of an element midpoint are projected onto
    that element's parameter interval by Gauss-Newton steps on ``|x(theta)
    - p|^2``; the other points are tested against the element samples
    only.
    """
    shape = np.shape(points)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.ndim != 2 or points.shape[1] != 2 or not points.shape[0]:
        raise ValueError("observation points must have shape (K, 2) with "
                         f"K >= 1, got shape {shape}")
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"observation point {k} = {points[k].tolist()} "
                         "is not finite")
    samples = np.concatenate([mesh.midpoints, mesh.endpoints[:, 0, :]])
    d = np.linalg.norm(points[:, None, :] - samples[None, :, :], axis=-1)
    on_curve = (d < 1e-12).any(axis=1)
    kk, jj = np.nonzero(d[:, :mesh.n_elements] < mesh.arclengths[None, :])
    lo, hi = mesh.param_endpoints[jj, 0], mesh.param_endpoints[jj, 1]
    theta = 0.5 * (lo + hi)
    p = points[kk]
    for _ in range(PROJECTION_STEPS):
        vel = mesh.curve.velocity(theta)
        res = mesh.curve.point(theta) - p
        step = np.sum(res * vel, axis=-1) / np.sum(vel * vel, axis=-1)
        theta = np.clip(theta - step, lo, hi)
    gap = np.linalg.norm(mesh.curve.point(theta) - p, axis=-1)
    on_curve[kk[gap < 1e-12]] = True
    if on_curve.any():
        k = int(np.argmax(on_curve))
        raise ValueError(f"observation point {k} lies on the boundary")
    return points


def _point_element_pairs(mesh: BoundaryMesh, points: np.ndarray):
    """Every (point, element) pair, point major, with its distance from
    the element midpoint in element lengths."""
    dist = np.linalg.norm(points[:, None, :] - mesh.midpoints[None, :, :],
                          axis=-1)
    kk, jj = np.indices(dist.shape).reshape(2, -1)
    return kk, jj, (dist / mesh.arclengths[None, :]).ravel()


#: the key and the clouds of the latest point set of the potentials,
#: reused across a contour sweep.  They stay out of ``_GEOMETRY_CACHE``,
#: which holds the clouds of the boundary operator.
_POINT_SLOT: list = [None, None]


def _potential_clouds(space: DensitySpace, points: np.ndarray):
    """The (point, element) clouds of ``points``, classed by distance.

    Built once per point set, after :func:`check_observation_points`;
    a new point set drops the previous clouds and the ray bases before
    its own are built.
    """
    key = _space_key(space) + (points.shape, points.tobytes())
    if _POINT_SLOT[0] != key:
        _POINT_SLOT[:], _RAY_SLOT[:] = [None, None], [None, None]
        check_observation_points(space.mesh, points)
        _POINT_SLOT[:] = [key, _class_clouds(
            space, *_point_element_pairs(space.mesh, points),
            POTENTIAL_CLASSES, at=(points, np.ones(points.shape[0])))]
    return _POINT_SLOT[1]


def potential_node_bytes(space: DensitySpace, points) -> np.ndarray:
    """Bytes that each point's potential clouds and its share of their
    fused point set's ray basis hold.

    Counted from the distance classes without building the clouds: per
    quadrature node a distance, a direction, ``n_basis`` weights and a
    barycentric row of ``RAY_PANEL_ORDER`` entries with its sort index.
    A set evaluated at its points holds no rows, so the count is a
    bound.  The concatenated distances are a temporary of each block.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    kk, _, ratio = _point_element_pairs(space.mesh, points)
    nodes = np.zeros(points.shape[0], dtype=np.int64)
    for sel, order, n_panels in _distance_classes(ratio, POTENTIAL_CLASSES):
        nodes += order * n_panels * np.bincount(kk[sel],
                                                minlength=points.shape[0])
    return nodes * 8 * (4 + space.n_basis + RAY_PANEL_ORDER)


def potential_velocity_matrix(space: DensitySpace, freqs,
                              cfg: ProblemConfig,
                              points) -> np.ndarray:
    """Evaluation matrices of the velocity potential at off-boundary
    points, one per frequency of ``freqs`` (1-D).

    Each maps density coefficients to the complex velocity vectors
    ``(S(s) lam)(z_k)``; shape ``(b, 2 K, dof_count)`` with rows ordered
    point-major (x then y component per point).  The kernel is smooth
    off the boundary; quadrature order follows the distance to each
    element in element lengths, and the profiles are interpolated along
    the frequency ray like those of the boundary operator.  A point set
    that :func:`check_observation_points` refuses is a ``ValueError``.
    """
    _require_planar(cfg)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    clouds = _potential_clouds(space, points)
    sqrt_s = _roots(freqs, cfg)
    out = np.zeros((sqrt_s.size, 2 * points.shape[0], space.dof_count),
                   dtype=complex)
    _sum_clouds(out, sqrt_s, lambda root: clouds, cfg.kernel_prefactor,
                space.n_basis)
    return out


def potential_pressure_matrix(space: DensitySpace, points) -> np.ndarray:
    """Evaluation matrix of the pressure potential at off-boundary points.

    The pressure kernel ``(x - y) / (2 pi |x - y|^2)`` does not depend
    on the frequency, so neither does this matrix; shape
    ``(K, dof_count)``, real.  It is summed over the velocity
    potential's clouds of the same points, checked alike.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    nb = space.n_basis
    out = np.zeros((points.shape[0], space.dof_count))
    for (channel,) in _potential_clouds(space, points):
        kernel = channel.rhat / (2.0 * np.pi * channel.r)
        sums = np.einsum("knp,cnp->cnk", channel.wab, kernel)
        rows = channel.pairs[:, :1]
        cols = 2 * nb * channel.pairs[:, 1:] + 2 * np.arange(nb)
        out[rows, np.stack([cols, cols + 1])] += sums
    return out


def data_functional(space: DensitySpace, values_at) -> np.ndarray:
    """Test a boundary field against the basis: ``rhs_i = <mu_i, g>``.

    ``values_at`` maps positions of shape (..., 2) to vector values of
    the same shape.  A reduced space is tested by the
    midpoint-times-arclength rule of its matrix, a Galerkin space by the
    element Gauss rule.
    """
    mesh = space.mesh
    if space.reduced:
        vals = np.asarray(values_at(mesh.midpoints))
        return (mesh.arclengths[:, None] * vals).ravel()

    def rule():
        # the element Gauss rule: its positions, read-only, and per basis
        # function its weights
        x, w = gauss_legendre_01(GEOMETRY_RULE_ORDER)
        pos, sp = _element_points(mesh, np.arange(mesh.n_elements)[:, None],
                                  x[None, :])
        pos.flags.writeable = False
        return pos, [w * sp * fb for fb in _basis_values(space.n_basis, x)]

    pos, jacs = _cached(_space_key(space) + ("data",), rule)
    vals = np.asarray(values_at(pos))
    # element major: dof 2 nb j + 2 a + c
    return np.stack([np.sum(jac * vals[:, :, c], axis=1)
                     for jac in jacs for c in (0, 1)], axis=1).ravel()


#: :func:`factor` refuses a system with ``rcond_1`` at most this: the tests'
#: regular systems have 5.4e-7 or more, the square's ``none`` 7.6e-15
_RCOND_MIN = 1e-12


def factor(system: np.ndarray):
    """Invert a system built by :func:`constrain` once; return its solve.

    ``solve(load)`` takes one entry per density row, appends the zero
    load of the constraint rows beyond them and returns the density part
    of the solution, ``inv[:n, :n] @ load``: real for a real system and
    load, complex for a complex one.

    With LAPACK's inverse the exact ``rcond_1 = 1 / (||A||_1
    ||A^-1||_1)`` costs two column sums and needs no estimator (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, ch. 15).

    Raises
    ------
    numpy.linalg.LinAlgError
        If the system is numerically singular, ``rcond_1`` at most
        ``_RCOND_MIN`` (the normal-field kernel is not removed, the
        frequency is on the branch cut, or assembly is broken); the
        message states ``rcond_1`` and the threshold.  Also if the
        system is not finite.
    ValueError
        From ``solve``, if the load is longer than the system.
    """
    system = np.asarray(system, dtype=np.result_type(system, float))
    if not np.isfinite(system).all():
        raise np.linalg.LinAlgError("system matrix is not finite")
    try:
        inv = np.linalg.inv(system)
    except np.linalg.LinAlgError:  # an exactly zero pivot
        rcond = 0.0
    else:
        rcond = 1.0 / (np.linalg.norm(system, 1) * np.linalg.norm(inv, 1))
    if not rcond > _RCOND_MIN:
        raise np.linalg.LinAlgError(
            f"system matrix is numerically singular: rcond_1 = {rcond:.3e} "
            f"is not above {_RCOND_MIN:.0e}; constraint multiplier_m or "
            f"augmented_Vtilde removes the normal-field kernel")
    size = system.shape[0]

    def solve(load: np.ndarray) -> np.ndarray:
        n = load.size
        if n > size:
            raise ValueError(f"load length {n} exceeds the system size {size}")
        return inv[:n, :n] @ load

    return solve
