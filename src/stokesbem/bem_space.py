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

Every matrix is a plain ``ndarray``.  The assemblers return the density
block ``V(s)``, square of order ``dof_count``.  :func:`constrain` is the
one function that removes the gauge kernel: it borders a matrix by the
multiplier row or adds a rank-one term.  :func:`factor`, the package's
one LU, factors such a system once and returns its solve: density load
in, density out, the multiplier dropped.

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
534-552).  Both assemblers therefore integrate only the rows of the
first sector, elements ``i < N / m``: the reduced scheme all of their
columns, the Galerkin scheme the self and vertex pairs and one
separated pair per orbit of unordered pairs.  One routine for both,
:func:`_assemble`, sums those rows and writes every other block as a
rotated copy, and for the complex symmetric Galerkin matrix as the
transpose of its mirror.  The clouds of the sector pairs alone are
built and cached.  For ``m = 1``
the sector is the whole mesh, ``Q_0`` is the identity and the matrices
are those of an element-by-element assembly, bit for bit.

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

At one frequency every argument ``z = sqrt(s) r`` lies on a single ray,
so each profile is a smooth function of the real distance ``r``, with
its only singularity at ``r = 0``.  The cloud profiles are therefore
interpolated in ``r`` rather than evaluated point by point: with
``S = 2^ceil(log2 |sqrt(s)|)``, panels are geometric (ratio 2) below
``r = 1/S`` and uniform of width ``1/S`` above it, so each panel spans
at most 1 in ``|z|`` and lies at least half its width away from the
singularity, and ``RAY_PANEL_ORDER`` Chebyshev nodes resolve it to
machine precision (Trefethen, *Approximation Theory and Approximation
Practice*, SIAM 2013).  Only the nodes of occupied panels are evaluated
directly.  The barycentric basis rows depend on ``s`` only through
``S``, which takes few values along a contour; they are kept for the
clouds of the latest assembly until ``S`` or the clouds change.

A cloud is a tuple of channels (``_PairCloud``), each with its
quadrature weights folded in: a plain channel takes ``(A_2, B_2)``, the
companion channel of a logarithmic split ``(P, -R)``.  One contraction,
``_accumulate_blocks``, turns every cloud into 2x2 matrix blocks: those
of ``V``, and those of the velocity potential, whose clouds pair an
observation point with an element, classed by distance.  The pressure
potential is summed over the same point clouds; the clouds of the
latest point set are held beside the bases.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._quadrature import (gauss_legendre_01, graded_panels, log_gauss_01,
                          panel_gauss)
from .boundary_geometry import GEOMETRY_RULE_ORDER, BoundaryMesh
from .laplace_kernels import ComplexFrequency, ProblemConfig, _ab2, _pr2

#: largest |z| = |sqrt(s)| r admitted inside the logarithmic split; must stay
#: below the companion-series validity radius of the kernel profiles.
Z_SPLIT_CAP = 6.0

#: maximum span of z across one direct quadrature panel; panels are split
#: until the kernel variation per panel is resolved by the panel rule.
MAX_PANEL_Z_SPAN = 3.0

#: rule orders for the self-element strip scheme
SELF_LOG_ORDER = 16
SELF_SMOOTH_ORDER = 12
SELF_INNER_ORDER = 12

#: rule orders for the shared-vertex Duffy scheme
VERTEX_LOG_ORDER = 16
VERTEX_SMOOTH_ORDER = 12
VERTEX_ANGULAR_ORDER = 12

#: Gauss order on each graded direct panel
DIRECT_PANEL_ORDER = 8

#: reduced-integration (midpoint test rule) inner quadrature
DIAG_LOG_ORDER = 16
DIAG_SMOOTH_ORDER = 16
NEIGHBOR_PANEL_ORDER = 12
NEIGHBOR_BREAKS = (0.0, 0.0625, 0.125, 0.25, 0.5, 1.0)

#: separated-pair classes: (lower distance bound in element lengths,
#: Gauss order per direction, panels per direction)
SEPARATED_CLASSES = ((4.0, 6, 1), (2.0, 8, 1), (1.0, 12, 1), (0.0, 8, 2))

#: observation-point classes for the potential matrices
POTENTIAL_CLASSES = ((4.0, 6, 1), (2.0, 8, 1), (1.0, 12, 1), (0.0, 12, 4))

#: Chebyshev nodes per panel of the ray-wise profile interpolation
RAY_PANEL_ORDER = 20

_KIND_BASIS = {"P0": 1, "P1_discontinuous": 2}


class ConstraintMode(enum.Enum):
    """How the one-dimensional gauge kernel of the operator is removed.

    ``none`` leaves the plain matrix.  ``multiplier_m`` appends one
    scalar multiplier enforcing ``<lam, m> = 0`` with ``m(x) = x``.
    ``augmented_Vtilde`` adds the rank-one term ``<., m> m`` to the
    operator instead of bordering the system.
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


def _split_channels(cap: float, z_scale: float, n_log: int, n_smooth: int):
    """Quadrature channels on (0, 1) for a log-singular radial integrand.

    Returns ``(u, w, alpha, beta)``.  A kernel profile value at a node is
    reconstructed as ``alpha * A + beta * P`` (and ``alpha * B - beta *
    R`` for the transverse part), which realizes the identity
    ``A(z) = -log(u / cap) P(z) + [A(z) + log(u / cap) P(z)]`` with the
    first factor integrated by the log-weighted rule and the bracket,
    smooth in ``u``, by a Gauss rule.  Above ``cap``, graded direct
    panels evaluate the profiles themselves (``alpha = 1``); each panel
    is subdivided until its z-span ``z_scale * width`` is resolvable.
    """
    us, ws, als, bes = [], [], [], []
    tl, wl = log_gauss_01(n_log)
    us.append(cap * tl)
    ws.append(cap * wl)
    als.append(np.zeros(n_log))
    bes.append(np.ones(n_log))
    tg, wg = gauss_legendre_01(n_smooth)
    us.append(cap * tg)
    ws.append(cap * wg)
    als.append(np.ones(n_smooth))
    bes.append(np.log(tg))
    if cap < 1.0:
        graded = graded_panels(cap, 1.0)
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
    """Precomputed quadrature geometry of one channel of a class of pairs.

    Per-point arrays end in the axes ``(n_pairs, n_points)``: the
    distances ``r``, the unit separation vectors ``rhat`` (component
    first) and the basis-pair weights ``wab`` (row basis major), which
    include the channel weight.  A plain channel takes the
    profiles ``(A_2, B_2)`` at its points, a ``companion`` channel
    ``(P, -R)``.  A cloud is a tuple of channels on the same pairs: one,
    or two for the split self, vertex and reduced diagonal clouds (see
    ``_split_channels``).
    """

    pairs: np.ndarray
    r: np.ndarray
    rhat: np.ndarray
    wab: np.ndarray
    companion: bool


def _finish_cloud(pairs, diff, r_weights, fx, fy, sp_x, sp_y, split=None):
    """Assemble a cloud from raw per-point geometry; ``fx`` and ``fy``
    hold the row and the column basis functions at the points.

    ``split`` holds the ``(alpha, beta)`` weights of ``_split_channels``
    at the points: the plain channel takes the points with ``alpha !=
    0``, the companion channel those with ``beta != 0``.  Without it the
    cloud is one plain channel of weight 1.
    """
    pairs = np.asarray(pairs)
    r = np.linalg.norm(diff, axis=-1)
    rhat = np.stack([diff[..., 0], diff[..., 1]]) / r
    base = r_weights * sp_x * sp_y
    wab = np.stack([base * fa * fb for fa in fx for fb in fy])
    if split is None:
        return (_PairCloud(pairs, r, rhat, wab, companion=False),)
    return tuple(_PairCloud(pairs, np.compress(m, r, axis=1),
                            np.compress(m, rhat, axis=2),
                            np.compress(m, wab, axis=2) * c[m],
                            companion=companion)
                 for c, companion in zip(split, (False, True))
                 for m in [c != 0.0])


def _sector_size(mesh: BoundaryMesh) -> int:
    """Elements per rotational sector, ``N / mesh.symmetry_order``."""
    return mesh.n_elements // mesh.symmetry_order


def _build_self_cloud(space: DensitySpace, cap: float, z_scale: float):
    """Strip-coordinate cloud for the self pairs of the first sector.

    With ``u = xi - eta`` the double integral over the reference square
    becomes two congruent strips ``v in (0, 1 - u)``, ``u in (0, 1)``;
    the distance vanishes linearly in ``u``, which carries the split.
    """
    mesh = space.mesh
    n = _sector_size(mesh)
    u, wu, al, be = _split_channels(cap, z_scale, SELF_LOG_ORDER,
                                    SELF_SMOOTH_ORDER)
    t, wt = gauss_legendre_01(SELF_INNER_ORDER)
    uu = u[:, None]
    eta_plus = (1.0 - uu) * t[None, :]
    xi_plus = eta_plus + uu
    w2 = (wu[:, None] * wt[None, :] * (1.0 - uu)).ravel()
    xi = np.concatenate([xi_plus.ravel(), eta_plus.ravel()])
    eta = np.concatenate([eta_plus.ravel(), xi_plus.ravel()])
    w_pt = np.concatenate([w2, w2])
    split = [np.tile(np.repeat(c, t.size), 2) for c in (al, be)]
    elems = np.arange(n)[:, None]
    pos_x, sp_x = _element_points(mesh, elems, xi[None, :])
    pos_y, sp_y = _element_points(mesh, elems, eta[None, :])
    fb_x = _basis_values(space.n_basis, xi)
    fb_y = _basis_values(space.n_basis, eta)
    pairs = np.stack([np.arange(n), np.arange(n)], axis=1)
    return _finish_cloud(pairs, pos_x - pos_y, w_pt[None, :], fb_x, fb_y,
                         sp_x, sp_y, split)


def _build_vertex_cloud(space: DensitySpace, cap: float, z_scale: float):
    """Duffy-coordinate cloud for the adjacent pairs (i, i+1) of the first
    sector's rows.

    The shared vertex sits at the end of element i and the start of
    element i+1.  In corner coordinates ``(da, db)`` measured from the
    vertex, the unit square splits into two triangles mapped by
    ``(da, db) = p (1, q)`` and ``p (q, 1)`` with Jacobian ``p``; the
    distance vanishes linearly in ``p`` for straight, cornered, and
    curved adjacent pairs alike.
    """
    mesh = space.mesh
    n = _sector_size(mesh)
    p, wp, al, be = _split_channels(cap, z_scale, VERTEX_LOG_ORDER,
                                    VERTEX_SMOOTH_ORDER)
    q, wq = gauss_legendre_01(VERTEX_ANGULAR_ORDER)
    pp = p[:, None]
    da1, db1 = np.broadcast_arrays(pp, pp * q[None, :])
    da2, db2 = db1, da1
    w2 = (wp[:, None] * wq[None, :] * pp).ravel()
    da = np.concatenate([da1.ravel(), da2.ravel()])
    db = np.concatenate([db1.ravel(), db2.ravel()])
    w_pt = np.concatenate([w2, w2])
    split = [np.tile(np.repeat(c, q.size), 2) for c in (al, be)]
    xi = 1.0 - da
    eta = db
    left = np.arange(n)
    right = (left + 1) % mesh.n_elements
    pos_x, sp_x = _element_points(mesh, left[:, None], xi[None, :])
    pos_y, sp_y = _element_points(mesh, right[:, None], eta[None, :])
    fb_x = _basis_values(space.n_basis, xi)
    fb_y = _basis_values(space.n_basis, eta)
    pairs = np.stack([left, right], axis=1)
    return _finish_cloud(pairs, pos_x - pos_y, w_pt[None, :], fb_x, fb_y,
                         sp_x, sp_y, split)


def _separated_pairs(mesh: BoundaryMesh, ordered: bool):
    """Non-touching pairs (i, j) of the first sector's rows, ``i < N/m``,
    with their distance in element lengths.

    ``ordered`` keeps them all, the rows of the reduced scheme.
    Otherwise one pair per rotation orbit of unordered pairs is kept:
    of ``(i, j)`` and the mirror ``(j, i)`` turned back into the first
    sector, the lexicographically smaller.  For ``m = 1`` these are the
    pairs ``i < j``.
    """
    n_all, n = mesh.n_elements, _sector_size(mesh)
    i, j = np.divmod(np.arange(n * n_all), n_all)
    keep = ((j - i) % n_all > 1) & ((i - j) % n_all > 1)
    if not ordered:
        mi, mj = j % n, (i - j + j % n) % n_all
        keep &= (i < mi) | ((i == mi) & (j <= mj))
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


def _build_separated_clouds(space: DensitySpace):
    """Tensor-rule clouds for one separated pair per orbit, one cloud per
    distance class."""
    mesh = space.mesh
    i, j, ratio = _separated_pairs(mesh, ordered=False)
    clouds = []
    for sel, order, n_panels in _distance_classes(ratio, SEPARATED_CLASSES):
        ii, jj = i[sel], j[sel]
        x, w = panel_gauss(order, np.linspace(0.0, 1.0, n_panels + 1))
        q = x.size
        pos_x, sp_x = _element_points(mesh, ii[:, None], x[None, :])
        pos_y, sp_y = _element_points(mesh, jj[:, None], x[None, :])
        fb = _basis_values(space.n_basis, x)
        diff = pos_x[:, :, None, :] - pos_y[:, None, :, :]
        npair = ii.size
        diff = diff.reshape(npair, q * q, 2)
        wxy = (w[:, None] * w[None, :]).reshape(q * q)
        fx = np.stack([np.repeat(fb[a], q) for a in range(space.n_basis)])
        fy = np.stack([np.tile(fb[a], q) for a in range(space.n_basis)])
        spx = np.repeat(sp_x, q, axis=1)
        spy = np.tile(sp_y, (1, q))
        clouds.append(_finish_cloud(np.stack([ii, jj], axis=1), diff,
                                    wxy[None, :], fx, fy, spx, spy))
    return clouds


#: cache of pair clouds keyed by (curve, N, kind, label, cap, z-span), and
#: of the fill indices of the two assemblers keyed by (curve, N, kind,
#: assembly); the dyadic quantization of the split caps keeps the key set
#: small across a convolution-quadrature contour.  It holds the entries
#: of one space only: a new space drops the others first.
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
    bounds: np.ndarray
    nodes: np.ndarray
    rows: np.ndarray


def _ray_scale(sqrt_s: complex) -> float:
    """Panel scale ``S = 2^ceil(log2 |sqrt(s)|)``."""
    return 2.0 ** math.ceil(math.log2(abs(sqrt_s)))


def _ray_basis(r: np.ndarray, scale: float) -> _RayBasis:
    """Panel sort and barycentric rows for the distances ``r`` (1-D)."""
    rs = r * scale
    # uniform panels [k, k + 1) / S for r S >= 1; below, the binary
    # exponent e of r S names the geometric panel [2^(e-1), 2^e) / S
    ids = np.where(rs >= 1.0, np.floor(rs), np.frexp(rs)[1]).astype(np.int64)
    order = np.argsort(ids, kind="stable")
    panels, starts, counts = np.unique(ids[order], return_index=True,
                                       return_counts=True)
    # powers of the geometric ids only: 2.0 ** k overflows for k >= 1024
    geo = np.minimum(panels, 0)
    lo = np.where(panels >= 1, panels, 2.0 ** (geo - 1)) / scale
    hi = np.where(panels >= 1, panels + 1.0, 2.0 ** geo) / scale
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    t = (r[order] - np.repeat(mid, counts)) / np.repeat(half, counts)
    rows = t[None, :] - _CHEB_T[:, None]
    hit = rows == 0.0
    rows[hit] = 1.0
    np.divide(_CHEB_W[:, None], rows, out=rows)
    rows /= rows.sum(axis=0)
    on_node = hit.any(axis=0)
    rows[:, on_node] = hit[:, on_node]
    return _RayBasis(inverse=np.argsort(order),
                     bounds=np.append(starts, r.size),
                     nodes=mid[:, None] + half[:, None] * _CHEB_T[None, :],
                     rows=rows)


def _interpolate(basis: _RayBasis, profiles, sqrt_s):
    """Interpolated values, in input order, of the two profiles that
    ``profiles`` (``_ab2`` or ``_pr2``) returns at ``z = sqrt_s r``: the
    real and imaginary parts of the first, then of the second, as the
    rows of a real (4, n_points) array."""
    f, g = profiles(sqrt_s * basis.nodes)
    table = np.stack([f.real, f.imag, g.real, g.imag], axis=1)
    out = np.empty((4, basis.rows.shape[1]))
    b = basis.bounds
    # einsum rather than matmul: a multithreaded BLAS call on these thin
    # shapes costs milliseconds regardless of its size
    for k in range(table.shape[0]):
        np.einsum("fj,jp->fp", table[k], basis.rows[:, b[k]:b[k + 1]],
                  out=out[:, b[k]:b[k + 1]])
    return np.take(out, basis.inverse, axis=1)


#: the scale ``S`` of the last assembly and the bases of its clouds, a
#: dict from ``id(cloud)`` to ``(cloud, one basis per channel)``; the
#: cloud is held so that its id cannot be reused.  Only the clouds of one
#: assembly are held, which bounds the memory; a contour sweep crosses
#: few scales, so most assemblies reuse them.
_RAY_SLOT: list = [None, {}]


def _ray_bases(clouds, sqrt_s) -> list:
    """The interpolation bases of each cloud's channels at ``sqrt_s``.

    Bases of other clouds or another scale are dropped before new ones
    are built.
    """
    scale = _ray_scale(sqrt_s)
    held = _RAY_SLOT[1] if _RAY_SLOT[0] == scale else {}
    held = {id(c): held[id(c)] for c in clouds if id(c) in held}
    _RAY_SLOT[:] = [scale, held]
    for cloud in clouds:
        if id(cloud) not in held:
            held[id(cloud)] = (cloud, tuple(_ray_basis(ch.r.ravel(), scale)
                                            for ch in cloud))
    return [held[id(c)][1] for c in clouds]


def _cloud_profiles(channel: _PairCloud, basis: _RayBasis, sqrt_s):
    """The channel's two kernel profiles at ``z = sqrt_s * channel.r``.

    ``(A_2, B_2)`` for a plain channel, ``(P, -R)`` for a companion one,
    interpolated from the channel's ``basis`` (see ``_ray_bases`` and the
    module docstring).  Each is a real array of shape (2, n_pairs,
    n_points) holding the real and the imaginary part.
    """
    shape = (2,) + channel.r.shape
    if channel.companion:
        values = _interpolate(basis, _pr2, sqrt_s)
        return values[:2].reshape(shape), -values[2:].reshape(shape)
    values = _interpolate(basis, _ab2, sqrt_s)
    return values[:2].reshape(shape), values[2:].reshape(shape)


def _accumulate_blocks(V, cloud, bases, sqrt_s, pref, n_basis):
    """Add a cloud's 2x2 dof blocks into the matrix ``V`` (no mirroring).

    ``n_basis`` counts the column functions; the cloud gives the row
    count, one for an observation point (two matrix rows).  Each channel
    contributes ``f I + g rhat rhat^T`` for its profiles ``(f, g)``; the
    pairs of a cloud are distinct, so one indexed add scatters them all.
    """
    sums = 0.0
    for channel, basis in zip(cloud, bases):
        f, g = _cloud_profiles(channel, basis, sqrt_s)
        x, y = channel.rhat
        # real and imaginary parts of f + g x^2, g x y, f + g y^2
        tensor = np.concatenate([f + g * (x * x), g * (x * y),
                                 f + g * (y * y)])
        sums = sums + np.einsum("knp,cnp->cnk", channel.wab, tensor)
    pairs = cloud[0].pairs
    n_rows = cloud[0].wab.shape[0] // n_basis
    a, b = np.divmod(np.arange(n_rows * n_basis), n_basis)
    rows = 2 * n_rows * pairs[:, :1] + 2 * a
    cols = 2 * n_basis * pairs[:, 1:] + 2 * b
    V[np.stack([rows, rows, rows + 1, rows + 1]),
      np.stack([cols, cols + 1, cols, cols + 1])] += pref * (
          sums[[0, 2, 2, 4]] + 1j * sums[[1, 3, 3, 5]])


def _turned_sectors(sector: np.ndarray, mesh: BoundaryMesh) -> np.ndarray:
    """The images ``Q_k S Q_k^T``, ``k = 0 .. m - 1``, of the first
    sector's rows ``S``, where ``Q_k`` turns the Cartesian component of
    every dof by ``2 pi k / m``.

    Shape ``(m, 2, 2, n nb, N nb)``: rotation, row component, column
    component, row element and basis, column element and basis.  The
    rotation is applied to the real and the imaginary parts alike;
    ``Q_0`` is the identity, so ``k = 0`` holds ``S`` exactly.
    """
    m = mesh.symmetry_order
    rows, cols = sector.shape[0] // 2, sector.shape[1] // 2
    x = np.ascontiguousarray(
        sector.reshape(rows, 2, cols, 2).transpose(1, 3, 0, 2)).view(float)
    angle = 2.0 * np.pi * np.arange(m) / m
    cos, sin = np.cos(angle), np.sin(angle)
    rot = np.stack([cos, -sin, sin, cos], axis=1).reshape(m, 2, 2)
    # entry (k, c, d; e, f) is Q_k[c, e] Q_k[d, f]; einsum rather than
    # matmul for the thin shapes, see _interpolate
    both = np.einsum("kce,kdf->kcdef", rot, rot).reshape(4 * m, 4)
    turned = np.einsum("ab,bp->ap", both, x.reshape(4, -1))
    return turned.reshape((m, 2, 2) + x.shape[2:]).view(complex)


def _fill_index(space: DensitySpace, clouds) -> np.ndarray:
    """Where :func:`_assemble` takes each entry of the matrix from, as flat
    indices into the turned sectors (:func:`_turned_sectors`).

    The block of the element pair ``(R, C)`` is the image under the
    rotation ``k = R // n`` of the sector block ``(R % n, C - k n)`` if
    one of the ``clouds`` holds that block, and otherwise the transpose
    of the block of ``(C, R)``.
    """
    mesh = space.mesh
    n_all, n, nb = mesh.n_elements, _sector_size(mesh), space.n_basis
    listed = np.zeros((n, n_all), dtype=bool)
    for cloud in clouds:
        listed[cloud[0].pairs[:, 0], cloud[0].pairs[:, 1]] = True
    row = np.arange(n_all)[:, None, None, None]
    col = row.reshape(1, 1, n_all, 1)
    p, q = np.arange(2 * nb)[:, None, None], np.arange(2 * nb)

    def source(r, c, a, b):
        # entry (a, b) of the block of (r, c): dof a of element r is
        # component a % 2 of basis a // 2, and likewise for b and c
        k, i = np.divmod(r, n)
        j = (c - k * n) % n_all
        head = ((k * 2 + a % 2) * 2 + b % 2) * n + i
        return ((head * nb + a // 2) * n_all + j) * nb + b // 2

    direct = listed[row % n, (col - row // n * n) % n_all]
    return np.where(direct, source(row, col, p, q),
                    source(col, row, q, p)).ravel()


def _require_planar(cfg: ProblemConfig) -> None:
    if cfg.dimension != 2:
        raise NotImplementedError("matrix assembly is implemented for the "
                                  "planar problem only")


def _require_assembly(space: DensitySpace, assembly: str) -> None:
    """Refuse a space whose test rule is not the assembler's own."""
    if space.assembly != assembly:
        raise ValueError(f"the {assembly} assembler needs a space with "
                         f"assembly {assembly!r}, got {space.assembly!r}")


def _assemble(space: DensitySpace, clouds, sqrt_s,
              cfg: ProblemConfig) -> np.ndarray:
    """The boundary-operator matrix of order ``dof_count`` from the
    ``clouds`` of its first sector's rows, elements ``i < n = N / m``.

    The clouds are summed into those rows, against every column.
    Rotation by ``2 pi k / m`` maps the element pair ``(i, j)`` onto
    ``(i + k n, j + k n)`` (mod ``N``) and its block ``B`` onto ``Q_k B
    Q_k^T``, so every block of the matrix is the image of a sector
    block.  The reduced scheme's clouds hold every sector block; the
    Galerkin clouds hold one per orbit of unordered pairs, and the
    matrix, complex symmetric, takes the other blocks as transposes
    (:func:`_fill_index`, cached under the space's ``assembly``).

    Raises ``RuntimeError`` for a non-finite entry, naming its element
    pair.
    """
    w = 2 * space.n_basis
    sector = np.zeros((w * _sector_size(space.mesh), space.dof_count),
                      dtype=complex)
    for cloud, bases in zip(clouds, _ray_bases(clouds, sqrt_s)):
        _accumulate_blocks(sector, cloud, bases, sqrt_s, cfg.kernel_prefactor,
                           space.n_basis)
    if not np.isfinite(sector).all():
        ei, ej = np.argwhere(~np.isfinite(sector))[0] // w
        raise RuntimeError(f"quadrature produced a non-finite entry for "
                           f"element pair ({ei}, {ej})")
    index = _cached(_space_key(space) + (space.assembly,),
                    lambda: _fill_index(space, clouds))
    turned = _turned_sectors(sector, space.mesh)
    return np.take(turned, index).reshape(space.dof_count, space.dof_count)


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


def assemble_galerkin_V(space: DensitySpace, freq: ComplexFrequency,
                        cfg: ProblemConfig) -> np.ndarray:
    """Galerkin matrix ``V_ij(s) = <mu_i, V(s) mu_j>``, square of order
    ``dof_count``; :func:`constrain` removes its gauge kernel.

    The matrix is complex symmetric by construction: one unordered
    element pair per rotation orbit is integrated, then turned into the
    other sectors and mirrored (:func:`_assemble`).

    Raises
    ------
    ValueError
        For a space of the reduced rule.
    RuntimeError
        If quadrature produces a non-finite entry (reported with the
        offending element pair).
    """
    _require_planar(cfg)
    _require_assembly(space, "galerkin")
    sqrt_s = cfg.brinkman(freq).sqrt_s
    z_max = abs(sqrt_s) * float(space.mesh.arclengths.max())
    cap_u, z_u = _split_scale(z_max)
    cap_p, z_p = _split_scale(2.0 * z_max)
    key = _space_key(space)
    self_cloud = _cached(key + ("self", cap_u, z_u),
                         lambda: _build_self_cloud(space, cap_u, z_u))
    vertex_cloud = _cached(key + ("vertex", cap_p, z_p),
                           lambda: _build_vertex_cloud(space, cap_p, z_p))
    separated = _cached(key + ("separated",),
                        lambda: _build_separated_clouds(space))
    clouds = [self_cloud, vertex_cloud, *separated]
    return _assemble(space, clouds, sqrt_s, cfg)


# ---------------------------------------------------------------------------
# reduced integration (midpoint test rule)
# ---------------------------------------------------------------------------

def _build_diag_cloud(space: DensitySpace, cap: float, z_scale: float):
    """Self-element rows of the reduced scheme, first sector: midpoint
    against own element.

    The inner integral is folded into the two half-elements; with
    ``eta = 1/2 +- v/2`` the distance from the midpoint vanishes
    linearly in ``v``, which carries the split.
    """
    mesh = space.mesh
    n = _sector_size(mesh)
    v, wv, al, be = _split_channels(cap, z_scale, DIAG_LOG_ORDER,
                                    DIAG_SMOOTH_ORDER)
    eta = np.concatenate([0.5 + 0.5 * v, 0.5 - 0.5 * v])
    w_pt = np.concatenate([0.5 * wv, 0.5 * wv])
    split = [np.tile(c, 2) for c in (al, be)]
    elems = np.arange(n)[:, None]
    pos_y, sp_y = _element_points(mesh, elems, eta[None, :])
    fb_y = _basis_values(space.n_basis, eta)
    ones = np.ones((1, eta.size))
    rows = mesh.arclengths[:n, None]
    pairs = np.stack([np.arange(n), np.arange(n)], axis=1)
    return _finish_cloud(pairs, mesh.midpoints[:n, None, :] - pos_y,
                         w_pt[None, :], ones, fb_y, rows, sp_y, split)


def _build_neighbor_cloud(space: DensitySpace, offset: int):
    """First-sector rows against an adjacent element, graded toward the
    shared vertex."""
    mesh = space.mesh
    n = _sector_size(mesh)
    eta, w_pt = panel_gauss(NEIGHBOR_PANEL_ORDER, NEIGHBOR_BREAKS)
    if offset == -1:
        # previous element: shared vertex at eta = 1
        eta = 1.0 - eta
    cols = (np.arange(n) + offset) % mesh.n_elements
    pos_y, sp_y = _element_points(mesh, cols[:, None], eta[None, :])
    fb_y = _basis_values(space.n_basis, eta)
    ones = np.ones((1, eta.size))
    rows = mesh.arclengths[:n, None]
    pairs = np.stack([np.arange(n), cols], axis=1)
    return _finish_cloud(pairs, mesh.midpoints[:n, None, :] - pos_y,
                         w_pt[None, :], ones, fb_y, rows, sp_y)


def _point_clouds(space: DensitySpace, points, ii, jj, ratio, row_weights,
                  classes):
    """Clouds of (point ``ii``, element ``jj``) pairs, one per distance
    class of ``ratio`` in ``classes``; ``row_weights`` scale the points."""
    mesh = space.mesh
    clouds = []
    for sel, order, n_panels in _distance_classes(ratio, classes):
        ik, jk = ii[sel], jj[sel]
        x, w = panel_gauss(order, np.linspace(0.0, 1.0, n_panels + 1))
        pos_y, sp_y = _element_points(mesh, jk[:, None], x[None, :])
        clouds.append(_finish_cloud(np.stack([ik, jk], axis=1),
                                    points[ik][:, None, :] - pos_y,
                                    w[None, :], np.ones((1, x.size)),
                                    _basis_values(space.n_basis, x),
                                    row_weights[ik][:, None], sp_y))
    return clouds


def _build_row_clouds(space: DensitySpace):
    """Separated columns of the reduced scheme's first-sector rows,
    classed by distance."""
    mesh = space.mesh
    return _point_clouds(space, mesh.midpoints,
                         *_separated_pairs(mesh, ordered=True),
                         mesh.arclengths, SEPARATED_CLASSES)


def assemble_nystrom_V(space: DensitySpace, freq: ComplexFrequency,
                       cfg: ProblemConfig) -> np.ndarray:
    """Reduced-integration matrix: midpoint test rule, accurate columns.

    Row ``i`` is the element arclength times the kernel integral against
    each basis function, evaluated at the element midpoint; this is the
    Nystrom-type scheme obtained from the Galerkin method by reduced
    integration of the outer (test) integral.  It takes a space of the
    reduced rule only (P0 on a smooth curve, see :class:`DensitySpace`),
    whose :func:`constrain` and :func:`data_functional` test by the same
    midpoint rule; any other space is a ``ValueError``.  The diagonal
    uses the logarithmic split so its entries are finite and accurate.
    """
    _require_planar(cfg)
    _require_assembly(space, "reduced")
    sqrt_s = cfg.brinkman(freq).sqrt_s
    l_max = float(space.mesh.arclengths.max())
    cap_d, z_dq = _split_scale(abs(sqrt_s) * l_max / 2.0)
    key = _space_key(space)
    diag = _cached(key + ("rdiag", cap_d, z_dq),
                   lambda: _build_diag_cloud(space, cap_d, z_dq))
    nb_next = _cached(key + ("rnext",),
                      lambda: _build_neighbor_cloud(space, +1))
    nb_prev = _cached(key + ("rprev",),
                      lambda: _build_neighbor_cloud(space, -1))
    far = _cached(key + ("rrows",), lambda: _build_row_clouds(space))
    clouds = [diag, nb_next, nb_prev, *far]
    return _assemble(space, clouds, sqrt_s, cfg)


# ---------------------------------------------------------------------------
# potential evaluation off the boundary
# ---------------------------------------------------------------------------

#: Gauss-Newton steps projecting a near point onto an element's parameter
PROJECTION_STEPS = 8


def require_off_boundary(mesh: BoundaryMesh, points: np.ndarray) -> None:
    """Raise ``ValueError`` for a point within 1e-12 of the curve.

    Points within one element length of an element midpoint are
    projected onto that element's parameter interval by Gauss-Newton
    steps on ``|x(theta) - p|^2``; the other points are tested against
    the element samples only.
    """
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

    Built once per point set, after checking that no point lies on the
    boundary; a new point set drops the previous clouds and the ray
    bases before its own are built.
    """
    key = _space_key(space) + (points.shape, points.tobytes())
    if _POINT_SLOT[0] != key:
        _POINT_SLOT[:], _RAY_SLOT[:] = [None, None], [None, {}]
        require_off_boundary(space.mesh, points)
        _POINT_SLOT[:] = [key, _point_clouds(
            space, points, *_point_element_pairs(space.mesh, points),
            np.ones(points.shape[0]), POTENTIAL_CLASSES)]
    return _POINT_SLOT[1]


def potential_node_bytes(space: DensitySpace, points) -> np.ndarray:
    """Bytes that each point's potential clouds and ray bases hold.

    Counted from the distance classes without building the clouds: per
    quadrature node a distance, a direction, ``n_basis`` weights and a
    barycentric row of ``RAY_PANEL_ORDER`` entries with its sort index.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    kk, _, ratio = _point_element_pairs(space.mesh, points)
    nodes = np.zeros(points.shape[0], dtype=np.int64)
    for sel, order, n_panels in _distance_classes(ratio, POTENTIAL_CLASSES):
        nodes += order * n_panels * np.bincount(kk[sel],
                                                minlength=points.shape[0])
    return nodes * 8 * (4 + space.n_basis + RAY_PANEL_ORDER)


def potential_velocity_matrix(space: DensitySpace, freq: ComplexFrequency,
                              cfg: ProblemConfig,
                              points) -> np.ndarray:
    """Evaluation matrix of the velocity potential at off-boundary points.

    Maps density coefficients to the complex velocity vectors
    ``(S(s) lam)(z_k)``; shape ``(2 K, dof_count)`` with rows ordered
    point-major (x then y component per point).  The kernel is smooth
    off the boundary; quadrature order follows the distance to each
    element in element lengths, and the profiles are interpolated along
    the frequency ray like those of the boundary operator.
    """
    _require_planar(cfg)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    clouds = _potential_clouds(space, points)
    sqrt_s = cfg.brinkman(freq).sqrt_s
    out = np.zeros((2 * points.shape[0], space.dof_count), dtype=complex)
    for cloud, bases in zip(clouds, _ray_bases(clouds, sqrt_s)):
        _accumulate_blocks(out, cloud, bases, sqrt_s, cfg.kernel_prefactor,
                           space.n_basis)
    return out


def potential_pressure_matrix(space: DensitySpace, points) -> np.ndarray:
    """Evaluation matrix of the pressure potential at off-boundary points.

    The pressure kernel ``(x - y) / (2 pi |x - y|^2)`` does not depend
    on the frequency, so neither does this matrix; shape
    ``(K, dof_count)``, real.  It is summed over the velocity
    potential's clouds of the same points.
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
    nb = space.n_basis
    out = np.zeros(space.dof_count)
    if space.reduced:
        vals = np.asarray(values_at(mesh.midpoints))
        out[0::2] = mesh.arclengths * vals[:, 0]
        out[1::2] = mesh.arclengths * vals[:, 1]
        return out
    x, w = gauss_legendre_01(GEOMETRY_RULE_ORDER)
    elems = np.arange(mesh.n_elements)[:, None]
    pos, sp = _element_points(mesh, elems, x[None, :])
    vals = np.asarray(values_at(pos))
    fb = _basis_values(nb, x)
    for a in range(nb):
        jac = w[None, :] * sp * fb[a][None, :]
        for c in range(2):
            out[2 * nb * np.arange(mesh.n_elements) + 2 * a + c] = np.sum(
                jac * vals[:, :, c], axis=1)
    return out


def factor(system: np.ndarray):
    """Factor a system built by :func:`constrain` once; return its solve.

    ``solve(load)`` takes one entry per density row, appends the zero
    load of the constraint rows beyond them and returns the density part
    of the solution, real for a real system and load.

    Raises
    ------
    numpy.linalg.LinAlgError
        If the system is numerically singular (the frequency is on or
        near the branch cut, or assembly is broken).
    ValueError
        From ``solve``, if the load is longer than the system.
    """
    lu_piv = scipy.linalg.lu_factor(system)
    du = np.abs(np.diag(lu_piv[0]))
    if du.min() <= du.max() * 1e-14:
        raise np.linalg.LinAlgError("system matrix is numerically singular")
    size = du.size

    def solve(load: np.ndarray) -> np.ndarray:
        n = load.shape[0]
        if n > size:
            raise ValueError(f"load length {n} exceeds the system size {size}")
        padded = np.concatenate([load, np.zeros(size - n)])
        return scipy.linalg.lu_solve(lu_piv, padded)[:n]

    return solve
