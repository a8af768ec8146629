"""Tests of boundary-space assembly, constraints, potentials, and solves.

Frozen reference entries were produced with an independent adaptive
quadrature (QUADPACK through scipy.integrate.quad, absolute and relative
targets 1e-13) composed with ``scipy.special.kv``, using the strip
substitution ``u = xi - eta`` for the self-element double integral.  The
self entries carry ~2e-11 oracle noise from the extrapolation table;
comparisons are at 1e-8.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stokesbem import bem_space
from stokesbem._quadrature import panel_gauss
from stokesbem.bem_space import (
    ConstraintMode,
    DensitySpace,
    assemble_galerkin_V,
    assemble_nystrom_V,
    build_space,
    constrain,
    data_functional,
    factor,
    potential_pressure_matrix,
    potential_velocity_matrix,
    unfold,
)
from stokesbem.boundary_geometry import BoundaryCurve, build_mesh
from stokesbem.cq_engine import CQScheme
from stokesbem.laplace_kernels import (
    ComplexFrequency,
    ProblemConfig,
    _ab2,
    _pr2,
    pressure_kernel,
    velocity_kernel,
)
from stokesbem.verification import default_frequencies

CFG = ProblemConfig()

# Adaptive double-integral references on the unit circle, N=4, P0, s=1.
GALERKIN_CIRCLE4_SELF = np.array(
    [
        [+2.579711582570762e-01, -6.980771375646480e-02],
        [-6.980771375646480e-02, +2.579711582582109e-01],
    ]
)
GALERKIN_CIRCLE4_VERTEX_00 = +1.201965099849706e-01
GALERKIN_CIRCLE4_SEPARATED_00 = +2.564087858722223e-02

# Inner adaptive integrals over element 1 seen from the midpoint of
# element 0, unit circle, N=8, s=1 (the reduced scheme multiplies the
# midpoint row by the element arclength pi/4).
NYSTROM_CIRCLE8_BLOCK01 = np.array(
    [
        [+3.981607202498558e-02, -2.503169906700231e-02],
        [-2.503169906700231e-02, +4.068312017504535e-02],
    ]
)


def whole_matrix(assemble, space, s):
    """The whole matrix of ``assemble`` at the one frequency ``s``: the
    first sector's rows that it returns, unfolded by rotation."""
    return unfold(assemble(space, [s], CFG)[0], space)


def galerkin(curve, n, kind, s, mode=ConstraintMode.none):
    """The space and its Galerkin system at ``s`` for the gauge ``mode``."""
    space = build_space(build_mesh(curve, n), kind)
    v = whole_matrix(assemble_galerkin_V, space, s)
    return space, constrain(v, space, mode)


def moment_row(space):
    """The moment row ``<mu_j, m>`` of ``space``."""
    return data_functional(space, lambda pos: pos)


def rule_space(assemble, curve, n, kind):
    """The space of ``kind`` on ``n`` elements of ``curve``, tested by the
    rule of ``assemble``: reduced for the Nystrom assembler, Galerkin
    otherwise (a potential takes either)."""
    assembly = "reduced" if assemble is assemble_nystrom_V else "galerkin"
    return build_space(build_mesh(curve, n), kind, assembly)


def reduced_circle(n):
    """The reduced P0 space on ``n`` elements of the unit circle."""
    return build_space(build_mesh(BoundaryCurve.circle(1.0), n), "P0",
                       "reduced")


# ---------------------------------------------------------------------------
# density spaces


@pytest.mark.parametrize(
    "curve, kind, assembly, message",
    [(BoundaryCurve.circle(1.0), "P7", "galerkin",
      "unknown space kind 'P7'; expected one of ['P0', 'P1_discontinuous']"),
     (BoundaryCurve.circle(1.0), "P0", "midpoint",
      "assembly must be 'galerkin' or 'reduced', got 'midpoint'"),
     (BoundaryCurve.circle(1.0), "P1_discontinuous", "reduced",
      "reduced integration is defined for P0 densities"),
     (BoundaryCurve.square(1.0), "P0", "reduced",
      "reduced integration requires a smooth curve; corner elements are "
      "not supported")],
    ids=["kind", "assembly", "reduced-p1", "reduced-square"],
)
def test_density_space_checks_its_fields(curve, kind, assembly, message):
    """A space built directly is checked like one from ``build_space``."""
    with pytest.raises(ValueError, match=re.escape(message)):
        DensitySpace(build_mesh(curve, 8), kind, assembly)


@pytest.mark.parametrize("kind, per_element", [("P0", 2),
                                               ("P1_discontinuous", 4)])
def test_density_space_derives_its_dof_count(kind, per_element):
    """The dof count follows from the kind and the mesh; it is no
    constructor argument, so it cannot disagree with them."""
    mesh = build_mesh(BoundaryCurve.circle(1.0), 12)
    space = DensitySpace(mesh, kind)
    assert space.assembly == "galerkin" and not space.reduced
    assert space.dof_count == per_element * 12
    assert DensitySpace(mesh, "P0", "reduced").reduced
    with pytest.raises(TypeError, match="dof_count"):
        DensitySpace(mesh, kind, dof_count=99)


# ---------------------------------------------------------------------------
# Galerkin assembly


def test_galerkin_complex_symmetry():
    _, v = galerkin(BoundaryCurve.circle(1.0), 8, "P0", 2.0 + 3.0j)
    assert np.linalg.norm(v - v.T) <= 1e-12 * np.linalg.norm(v)


def test_galerkin_kernel_containment_square():
    """The discrete normal spans Ker V(s) exactly in P0 on a polygon."""
    space, mat = galerkin(BoundaryCurve.square(1.0), 8, "P0", 1.5 + 0.5j)
    c_n = space.mesh.normals.ravel()
    resid = np.linalg.norm(mat @ c_n)
    assert resid <= 1e-8 * np.linalg.norm(mat) * np.linalg.norm(c_n)


def test_galerkin_kernel_containment_square_p1():
    space, mat = galerkin(BoundaryCurve.square(1.0), 8, "P1_discontinuous", 2.0 + 0j)
    c_n = np.zeros(space.dof_count)
    for j in range(space.mesh.n_elements):
        for a in range(2):
            c_n[4 * j + 2 * a : 4 * j + 2 * a + 2] = space.mesh.normals[j]
    resid = np.linalg.norm(mat @ c_n)
    assert resid <= 1e-8 * np.linalg.norm(mat) * np.linalg.norm(c_n)


def test_galerkin_self_block_against_adaptive_oracle():
    _, mat = galerkin(BoundaryCurve.circle(1.0), 4, "P0", 1.0 + 0j)
    block = mat[:2, :2]
    assert np.abs(block - GALERKIN_CIRCLE4_SELF).max() <= 1e-8 * np.abs(
        GALERKIN_CIRCLE4_SELF
    ).max()


def test_galerkin_vertex_entry_against_adaptive_oracle():
    _, mat = galerkin(BoundaryCurve.circle(1.0), 4, "P0", 1.0 + 0j)
    got = mat[0, 2]
    assert abs(got - GALERKIN_CIRCLE4_VERTEX_00) <= 1e-8 * abs(
        GALERKIN_CIRCLE4_VERTEX_00
    )


def test_galerkin_separated_entry_against_adaptive_oracle():
    _, mat = galerkin(BoundaryCurve.circle(1.0), 4, "P0", 1.0 + 0j)
    got = mat[0, 4]
    assert abs(got - GALERKIN_CIRCLE4_SEPARATED_00) <= 1e-8 * abs(
        GALERKIN_CIRCLE4_SEPARATED_00
    )


@pytest.mark.parametrize("s", [2.0 + 1.0j, 5.0 - 40.0j])
def test_galerkin_separated_blocks_pair_row_and_column_bases(s):
    """Every separated P1 block on the square (N = 8, symmetry order 4),
    held or filled by rotation and mirroring, against a test-side double
    Gauss sum of the kernel at the pair's class rule, with the row basis
    at the row nodes and the column basis at the column nodes."""
    mesh = build_mesh(BoundaryCurve.square(1.0), 8)
    assert mesh.symmetry_order == 4
    space = build_space(mesh, "P1_discontinuous")
    freq = ComplexFrequency(s)
    mat = whole_matrix(assemble_galerkin_V, space, s)
    n = mesh.n_elements
    ii, jj = np.nonzero((np.subtract.outer(np.arange(n), np.arange(n)) + 1)
                        % n > 2)
    dist = np.linalg.norm(mesh.midpoints[ii] - mesh.midpoints[jj], axis=1)
    ratio = dist / np.maximum(mesh.arclengths[ii], mesh.arclengths[jj])
    orders = set()
    for sel, order, n_panels in bem_space._distance_classes(
            ratio, bem_space.SEPARATED_CLASSES):
        orders.add(order)
        x, w = panel_gauss(order, np.linspace(0.0, 1.0, n_panels + 1))
        fb = np.stack([1.0 - x, x])
        for i, j in zip(ii[sel], jj[sel]):
            pos_x, sp_x = bem_space._element_points(mesh, i, x)
            pos_y, sp_y = bem_space._element_points(mesh, j, x)
            want = np.zeros((4, 4), dtype=complex)
            for p in range(x.size):
                for q in range(x.size):
                    tensor = velocity_kernel(pos_x[p] - pos_y[q], freq, CFG)
                    weight = w[p] * w[q] * sp_x[p] * sp_y[q]
                    for a in range(2):
                        for b in range(2):
                            want[2 * a:2 * a + 2, 2 * b:2 * b + 2] += (
                                weight * fb[a, p] * fb[b, q] * tensor)
            got = mat[4 * i:4 * i + 4, 4 * j:4 * j + 4]
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert len(orders) > 1


def test_galerkin_rejects_three_dimensional_config():
    space = build_space(build_mesh(BoundaryCurve.circle(1.0), 8), "P0")
    with pytest.raises(NotImplementedError):
        assemble_galerkin_V(space, [1.0 + 0j], ProblemConfig(dimension=3))


@settings(deadline=None, max_examples=8)
@given(st.floats(-1, 2), st.floats(-0.7, 0.7))
def test_galerkin_symmetry_property(log10_mod, arg_frac):
    s = 10.0**log10_mod * np.exp(1j * np.pi * arg_frac)
    _, v = galerkin(BoundaryCurve.circle(1.0), 6, "P0", s)
    assert np.abs(v - v.T).max() <= 1e-13 * np.abs(v).max()


def test_h_refinement_bilinear_form_consistency():
    """A P0 density embeds exactly under mesh halving on the circle.

    The coarse bilinear form x^T V_N y must match the fine form with
    both vectors prolongated (coefficients copied to the two children),
    since both discretize the same continuous double integral.
    """
    rng = np.random.default_rng(42)
    coarse_space, coarse = galerkin(BoundaryCurve.circle(1.0), 8, "P0", 2.0 + 1.0j)
    fine_space, fine = galerkin(BoundaryCurve.circle(1.0), 16, "P0", 2.0 + 1.0j)
    x = rng.standard_normal(coarse_space.dof_count)
    y = rng.standard_normal(coarse_space.dof_count)
    prolong = np.repeat(x.reshape(8, 2), 2, axis=0).ravel()
    prolong_y = np.repeat(y.reshape(8, 2), 2, axis=0).ravel()
    coarse_form = x @ coarse @ y
    fine_form = prolong @ fine @ prolong_y
    assert abs(coarse_form - fine_form) <= 1e-8 * abs(coarse_form)


# ---------------------------------------------------------------------------
# constraint modes


def test_multiplier_m_adds_one_row():
    space, mat = galerkin(
        BoundaryCurve.circle(1.0), 8, "P0", 1.0 + 0j, ConstraintMode.multiplier_m
    )
    assert mat.shape == (space.dof_count + 1,) * 2
    b = moment_row(space)
    np.testing.assert_allclose(mat[-1, :-1].real, b, rtol=1e-13)
    np.testing.assert_allclose(mat[:-1, -1].real, b, rtol=1e-13)
    assert mat[-1, -1] == 0.0


@pytest.mark.parametrize("mode", list(ConstraintMode), ids=lambda m: m.value)
def test_constrain_keeps_a_real_matrix_real(mode):
    """``constrain`` of a real density block (a leading weight ``W_0``)
    stays real, with the real part of the system assembled at one
    frequency."""
    space = build_space(build_mesh(BoundaryCurve.circle(1.0), 8), "P0")
    plain = whole_matrix(assemble_galerkin_V, space, 2.0 + 1.0j)
    real = constrain(plain.real, space, mode)
    whole = constrain(plain, space, mode)
    assert real.dtype == np.float64
    np.testing.assert_array_equal(real, whole.real)


def test_constrain_takes_a_mode_or_its_value():
    space, plain = galerkin(BoundaryCurve.circle(1.0), 8, "P0", 2.0 + 0j)
    for mode in ConstraintMode:
        np.testing.assert_array_equal(
            constrain(plain, space, mode.value),
            constrain(plain, space, mode),
        )
    with pytest.raises(ValueError, match="constraint must be one of 'none', "
                       "'multiplier_m', 'augmented_Vtilde', got 'nonsense'"):
        constrain(plain, space, "nonsense")


def test_vtilde_rank_one_reconstruction():
    space, plain = galerkin(BoundaryCurve.circle(1.0), 8, "P0", 3.0 + 1.0j)
    tilde = constrain(plain, space, ConstraintMode.augmented_Vtilde)
    b = moment_row(space)
    np.testing.assert_allclose(
        tilde, plain + np.outer(b, b), rtol=0, atol=0
    )


def test_vtilde_equals_v_on_moment_free_densities():
    space, plain = galerkin(BoundaryCurve.circle(1.0), 8, "P0", 2.0 + 0j)
    tilde = constrain(plain, space, ConstraintMode.augmented_Vtilde)
    b = moment_row(space)
    rng = np.random.default_rng(3)
    lam = rng.standard_normal(space.dof_count)
    lam -= b * (b @ lam) / (b @ b)
    np.testing.assert_allclose(
        tilde @ lam, plain @ lam, atol=1e-12 * np.abs(lam).max()
    )


def test_multiplier_vs_vtilde_densities_agree():
    """Both constrained formulations produce the same density.

    The data (x, -y) has vanishing normal flux element by element on the
    square, so the discrete compatibility functional is zero to rounding
    and the bordered system reproduces the projected solve exactly.
    """
    space, bordered = galerkin(
        BoundaryCurve.square(1.0), 12, "P0", 4.0 + 2.0j, ConstraintMode.multiplier_m
    )
    _, tilde = galerkin(BoundaryCurve.square(1.0), 12, "P0", 4.0 + 2.0j,
                        ConstraintMode.augmented_Vtilde)
    rhs = data_functional(space, lambda pos: np.stack(
        [pos[..., 0], -pos[..., 1]], axis=-1))
    lam_mult = factor(bordered)(rhs)
    lam_tilde = factor(tilde)(rhs)
    scale = np.abs(lam_mult).max()
    assert np.abs(lam_mult - lam_tilde).max() <= 1e-10 * scale


# ---------------------------------------------------------------------------
# reduced integration (Nystrom variant)


def test_nystrom_rejects_p1_and_square():
    """The reduced rule on P1 or on the square is refused where the
    space is built, so no Nystrom assembly can see it."""
    circle = build_mesh(BoundaryCurve.circle(1.0), 8)
    with pytest.raises(ValueError, match="reduced integration is defined for "
                       "P0 densities"):
        build_space(circle, "P1_discontinuous", "reduced")
    square = build_mesh(BoundaryCurve.square(1.0), 8)
    with pytest.raises(ValueError, match="reduced integration requires a "
                       "smooth curve; corner elements are not supported"):
        build_space(square, "P0", "reduced")


@pytest.mark.parametrize(
    "assemble, assembly, other",
    [(assemble_nystrom_V, "reduced", "galerkin"),
     (assemble_galerkin_V, "galerkin", "reduced")],
    ids=["nystrom", "galerkin"],
)
def test_assembler_refuses_the_other_rule(assemble, assembly, other):
    """A space tested by the other rule is refused before any quadrature,
    so its data and moment border cannot disagree with the matrix."""
    space = build_space(build_mesh(BoundaryCurve.circle(1.0), 8), "P0", other)
    with pytest.raises(ValueError, match=f"the {assembly} assembler needs a "
                       f"space with assembly '{assembly}', got '{other}'"):
        assemble(space, [1.0 + 0j], CFG)


def test_nystrom_block_rotational_equivariance():
    """Rotational symmetry of the circle in Cartesian components.

    The 2x2 blocks obey block(i, i+k) = Q_i block(0, k) Q_i^T with Q_i
    the rotation taking element 0 onto element i; the blocks themselves
    are not equal (they conjugate by the rotation).
    """
    n = 8
    space = reduced_circle(n)
    v = whole_matrix(assemble_nystrom_V, space, 2.0 + 3.0j)
    blocks = v.reshape(n, 2, n, 2).transpose(0, 2, 1, 3)
    worst = 0.0
    for i in range(n):
        ang = 2 * np.pi * i / n
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        for k in range(n):
            expected = rot @ blocks[0, k] @ rot.T
            worst = max(worst, np.abs(blocks[i, (i + k) % n] - expected).max())
    assert worst <= 1e-12 * np.abs(v).max()


def _contour_ends(n_steps, final_time=1.0):
    """The half-contour nodes of smallest and largest modulus."""
    nodes = _half_contour(n_steps, final_time)
    return nodes[np.argmin(np.abs(nodes))], nodes[np.argmax(np.abs(nodes))]


@pytest.mark.parametrize(
    "curve, n, m, final_time, kind, assemble",
    [
        (BoundaryCurve.circle(1.0), 80, 80, 1.0, "P0", assemble_nystrom_V),
        (BoundaryCurve.square(1.0), 32, 80, 1.0, "P1_discontinuous",
         assemble_galerkin_V),
        (BoundaryCurve.star(), 48, 24, 3.0, "P0", assemble_nystrom_V),
        (BoundaryCurve.star(), 48, 24, 3.0, "P0", assemble_galerkin_V),
        (BoundaryCurve.circle(1.0), 24, 24, 1.0, "P1_discontinuous",
         assemble_galerkin_V),
        (BoundaryCurve.star(), 48, 24, 3.0, "P1_discontinuous",
         assemble_galerkin_V),
    ],
    ids=["circle-80-reduced", "square-p1-32-galerkin", "star-48-reduced",
         "star-48-galerkin", "circle-p1-24-galerkin", "star-p1-48-galerkin"],
)
def test_sector_assembly_matches_whole_mesh_assembly(curve, n, m,
                                                     final_time, kind,
                                                     assemble):
    """Assembling the first sector's rows, one block per orbit of the
    dihedral group, and unfolding them agrees with integrating every
    ordered element pair of the mesh (:func:`every_block`), at the
    contour's smallest and largest frequency."""
    space = rule_space(assemble, curve, n, kind)
    assert space.mesh.symmetry_order > 1
    for s in _contour_ends(m, final_time):
        got = whole_matrix(assemble, space, s)
        want = every_block(space, s)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def every_block(space, s):
    """The whole matrix at ``s`` with every ordered element pair
    integrated and no symmetry used: the package's clouds built for
    every element (self, vertex and diagonal), the reduced rule's
    neighbours on both sides, every separated ordered pair, and for the
    Galerkin rule the vertex pairs ``(i + 1, i)`` as the vertex cloud
    with its roles swapped; summed with no fill."""
    mesh, nb = space.mesh, space.n_basis
    n_all = mesh.n_elements
    every = np.arange(n_all)
    sqrt_s = bem_space._roots([s], CFG)
    z = abs(sqrt_s[0]) * float(mesh.arclengths.max())
    i, j = np.divmod(np.arange(n_all * n_all), n_all)
    keep = ((j - i) % n_all > 1) & ((i - j) % n_all > 1)
    i, j = i[keep], j[keep]
    ratio = (np.linalg.norm(mesh.midpoints[i] - mesh.midpoints[j], axis=1)
             / np.maximum(mesh.arclengths[i], mesh.arclengths[j]))
    if space.reduced:
        at = (mesh.midpoints, mesh.arclengths)
        eta, w = panel_gauss(bem_space.NEIGHBOR_PANEL_ORDER,
                             bem_space.NEIGHBOR_BREAKS)
        clouds = [
            bem_space._build_diag_cloud(space, every,
                                        *bem_space._split_scale(z / 2.0)),
            bem_space._pair_cloud(space, every, None, (every + 1) % n_all,
                                  eta, w, at=at),
            bem_space._pair_cloud(space, every, None, (every - 1) % n_all,
                                  1.0 - eta, w, at=at),
            *bem_space._class_clouds(space, i, j, ratio,
                                     bem_space.SEPARATED_CLASSES, at=at)]
    else:
        vertex = bem_space._build_vertex_cloud(
            space, every, *bem_space._split_scale(2.0 * z))
        swapped = tuple(bem_space._PairCloud(
            ch.pairs[:, ::-1], ch.r, -ch.rhat,
            ch.wab.reshape((nb, nb) + ch.r.shape).swapaxes(0, 1).reshape(
                ch.wab.shape), ch.companion) for ch in vertex)
        clouds = [
            bem_space._build_self_cloud(space, every,
                                        *bem_space._split_scale(z)),
            vertex, swapped,
            *bem_space._class_clouds(space, i, j, ratio,
                                     bem_space.SEPARATED_CLASSES)]
    out = np.zeros((1, space.dof_count, space.dof_count), dtype=complex)
    bem_space._sum_clouds(out, sqrt_s, lambda root: clouds,
                          CFG.kernel_prefactor, nb)
    return out[0]


@pytest.mark.parametrize(
    "curve, n, kind, order",
    [(BoundaryCurve.square(1.0), 8, "P1_discontinuous", 4),
     (BoundaryCurve.star(), 12, "P0", 6),
     (BoundaryCurve.circle(1.0), 10, "P0", 10)],
    ids=["square-p1", "star-p0", "circle-p0"],
)
def test_unfold_matches_block_loops(curve, n, kind, order):
    """``unfold`` of a random, non-symmetric real sector is the matrix
    built block by block, ``block(i + k n, j) = Q_k S(i, j - k n)
    Q_k^T`` over element blocks, with ``Q_k`` the rotation by ``2 pi k /
    m`` of the Cartesian component of each basis function."""
    space = build_space(build_mesh(curve, n), kind)
    assert space.mesh.symmetry_order == order
    w, sector_n = 2 * space.n_basis, n // order
    sector = np.random.default_rng(6).standard_normal(
        (w * sector_n, space.dof_count))
    want = np.empty((space.dof_count, space.dof_count))
    for k in range(order):
        c, s = np.cos(2 * np.pi * k / order), np.sin(2 * np.pi * k / order)
        q = np.kron(np.eye(space.n_basis), np.array([[c, -s], [s, c]]))
        for i in range(sector_n):
            row = i + k * sector_n
            for j in range(n):
                col = (j - k * sector_n) % n
                block = sector[w * i: w * (i + 1), w * col: w * (col + 1)]
                want[w * row: w * (row + 1), w * j: w * (j + 1)] = (
                    q @ block @ q.T)
    got = unfold(sector, space)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def _group_matrices(mesh):
    """The ``2 m`` matrices of the mesh's dihedral group: the rotations
    by ``2 pi k / m``, then each of them after ``tau``, the reflection
    in the line through the origin and ``x(0)``."""
    m = mesh.symmetry_order
    x0, y0 = mesh.curve.point(np.array(0.0))
    phi = 2.0 * np.arctan2(y0, x0)
    tau = np.array([[np.cos(phi), np.sin(phi)], [np.sin(phi), -np.cos(phi)]])
    rotations = [np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
                 for t in 2.0 * np.pi * np.arange(m) / m]
    return rotations + [q @ tau for q in rotations]


def _element_images(mesh):
    """``(2 m, N)``: the element onto which each group matrix maps each
    element, found by turning the midpoints."""
    mid = mesh.midpoints
    images = []
    for g in _group_matrices(mesh):
        gap = np.linalg.norm((mid @ g.T)[:, None] - mid[None], axis=-1)
        assert gap.min(axis=1).max() <= 1e-12
        images.append(gap.argmin(axis=1))
    return np.array(images)


@pytest.mark.parametrize(
    "curve, n, order, n_ordered, n_unordered",
    [(BoundaryCurve.star(1.0, 0.3, 6), 25, 1, 275, 143),
     (BoundaryCurve.star(1.0, 0.3, 6), 48, 6, 180, 103),
     (BoundaryCurve.star(1.0, 0.3, 6), 20, 2, 85, 49),
     (BoundaryCurve.square(1.0), 64, 4, 488, 263),
     (BoundaryCurve.circle(1.0), 160, 160, 79, 79)],
    ids=["25-1", "48-6", "20-2", "square-64", "circle-160"],
)
def test_sector_pairs_cover_every_pair_once(curve, n, order, n_ordered,
                                            n_unordered):
    """Every non-touching pair of the first sector's rows is the image
    of exactly one separated pair that the sector holds, under the
    dihedral group built here from the midpoints: ordered pairs for the
    reduced rows, pairs up to transposition for the Galerkin rows.  The
    group of order 1 is the identity and the reflection."""
    mesh = build_mesh(curve, n)
    assert mesh.symmetry_order == order
    images = _element_images(mesh)
    sector = n // order
    rows = [(a, b) for a in range(sector) for b in range(n)
            if (b - a) % n not in (0, 1, n - 1)]
    for ordered, count in [(True, n_ordered), (False, n_unordered)]:
        i, j, _ = bem_space._separated_pairs(mesh, ordered=ordered)
        assert i.size == count
        covered = []
        for a, b in zip(i, j):
            orbit = {(g[a], g[b]) for g in images}
            if not ordered:
                orbit |= {(g[b], g[a]) for g in images}
            covered += [pair for pair in orbit if pair[0] < sector]
        assert sorted(covered) == rows


def _group_action(space):
    """The ``2 m`` dof matrices ``P_g G``, built in loops: element ``j``
    goes to ``j + k N / m`` under rotation ``k`` and, reversed with its
    two P1 basis functions swapped, to ``N - 1 - j + k N / m`` under
    ``Q_k tau``; the Cartesian components turn by ``G``."""
    mesh, nb, dof = space.mesh, space.n_basis, space.dof_count
    n_all, m = mesh.n_elements, mesh.symmetry_order
    out = []
    for k, g in enumerate(_group_matrices(mesh)):
        t = np.zeros((dof, dof))
        for j in range(n_all):
            for a in range(nb):
                if k < m:
                    image, b = (j + k * (n_all // m)) % n_all, a
                else:
                    image = (n_all - 1 - j + (k - m) * (n_all // m)) % n_all
                    b = nb - 1 - a
                row, col = 2 * (nb * image + b), 2 * (nb * j + a)
                t[row:row + 2, col:col + 2] = g
        out.append(t)
    return out


@pytest.mark.parametrize(
    "curve, n, kind, assemble",
    [(BoundaryCurve.square(1.0), 16, "P1_discontinuous", assemble_galerkin_V),
     (BoundaryCurve.star(), 24, "P0", assemble_galerkin_V),
     (BoundaryCurve.circle(1.0), 12, "P0", assemble_galerkin_V),
     (BoundaryCurve.star(), 24, "P0", assemble_nystrom_V),
     (BoundaryCurve.circle(1.0), 12, "P0", assemble_nystrom_V)],
    ids=["galerkin-square-p1", "galerkin-star-p0", "galerkin-circle-p0",
         "reduced-star-p0", "reduced-circle-p0"],
)
def test_fill_index_rebuilds_equivariant_rows_from_held_blocks(
        monkeypatch, curve, n, kind, assemble):
    """A random complex matrix averaged over the dihedral group, ``sum_g
    T_g A T_g^T`` (and made symmetric for the Galerkin rule), is rebuilt
    in its first sector's rows from the blocks that the assembler holds
    alone: every other entry is NaN, so reading one shows."""
    space = rule_space(assemble, curve, n, kind)
    calls = []
    fill_index = bem_space.SectorAction.fill_index

    def spy(action, n_rows, held=None, symmetric=False):
        calls.append((action, n_rows, held, symmetric))
        return fill_index(action, n_rows, held, symmetric)

    monkeypatch.setattr(bem_space.SectorAction, "fill_index", spy)
    monkeypatch.setattr(bem_space, "_GEOMETRY_CACHE", {})
    assemble(space, [2.0 + 1.0j], CFG)
    (action, n_rows, held, symmetric), = calls
    assert symmetric == (assemble is assemble_galerkin_V)
    assert n_rows == action.rows and held.shape == (n_rows, space.dof_count)
    assert held.mean() < 0.6
    rng = np.random.default_rng(8)
    shape = (space.dof_count, space.dof_count)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = sum(t @ a @ t.T for t in _group_action(space))
    if symmetric:
        want = want + want.T
    rows = want[:n_rows]
    sector = np.where(held, rows, np.nan)
    turns, index = fill_index(action, n_rows, held, symmetric)
    got = np.take(action.turned(sector, turns), index)
    assert np.isfinite(got).all()
    assert np.abs(got - rows).max() <= 1e-14 * np.abs(rows).max()


def test_nystrom_block_01_against_adaptive_oracle():
    space = reduced_circle(8)
    v = whole_matrix(assemble_nystrom_V, space, 1.0 + 0j)
    expected = (np.pi / 4.0) * NYSTROM_CIRCLE8_BLOCK01
    assert np.abs(v[0:2, 2:4] - expected).max() <= 1e-10 * np.abs(expected).max()


def test_nystrom_containment_decays_at_consistency_rate():
    """Reduced integration maps the discrete normal to a small residual.

    The P0 interpolation of the circle normal is only O(h^2) accurate,
    so the scaled residual cannot reach the Galerkin square's 1e-8; it
    decays at the interpolation rate instead.  Calibrated values:
    1.1e-4 at N=64 and rate ~2.2 between N=32 and N=128.
    """
    resid = {}
    for n in (32, 64, 128):
        space = reduced_circle(n)
        v = whole_matrix(assemble_nystrom_V, space, 2.0 + 3.0j)
        c_n = space.mesh.normals.ravel()
        resid[n] = np.abs(v @ c_n).max() / np.abs(v).max()
    assert resid[64] <= 2e-4
    rate = np.log2(resid[32] / resid[128]) / 2.0
    assert rate >= 1.9


@pytest.mark.parametrize("constraints", [ConstraintMode.multiplier_m])
def test_nystrom_constraint_border_uses_reduced_moments(constraints):
    space = reduced_circle(8)
    v = whole_matrix(assemble_nystrom_V, space, 1.0 + 0j)
    mat = constrain(v, space, constraints)
    b = moment_row(space)
    np.testing.assert_allclose(mat[-1, :-1].real, b, rtol=1e-13)


def midpoint_row(space, values_at):
    """The reduced test rule written out: element arclength times the
    field at the element midpoint, component by component."""
    mesh = space.mesh
    vals = values_at(mesh.midpoints)
    return np.stack([mesh.arclengths * vals[:, 0],
                     mesh.arclengths * vals[:, 1]], axis=1).ravel()


def test_reduced_space_tests_data_and_moments_by_the_midpoint_rule():
    """A reduced space's data and both moment constraints are those of
    the midpoint rule, bit for bit; the Galerkin space on the same mesh
    differs from it."""
    space = reduced_circle(8)
    field = lambda pos: np.stack([pos[..., 1] ** 2, np.sin(pos[..., 0])], -1)
    np.testing.assert_array_equal(data_functional(space, field),
                                  midpoint_row(space, field))
    b = midpoint_row(space, lambda pos: pos)
    v = whole_matrix(assemble_nystrom_V, space, 1.0 + 0j)
    np.testing.assert_array_equal(
        constrain(v, space, ConstraintMode.multiplier_m),
        np.block([[v, b[:, None]], [b, np.zeros(1)]]))
    np.testing.assert_array_equal(
        constrain(v, space, ConstraintMode.augmented_Vtilde),
        v + np.outer(b, b))
    galerkin_b = moment_row(build_space(space.mesh, "P0"))
    assert np.abs(galerkin_b - b).max() > 1e-3


# ---------------------------------------------------------------------------
# ray-wise interpolation of the cloud profiles


def _direct_profiles(channel, sqrt_s):
    """Reference: the channel's profiles evaluated directly at
    ``sqrt_s * channel.r`` for each root of ``sqrt_s``, ``(P, -R)`` for a
    companion channel, each as its real and imaginary part."""
    z = sqrt_s[:, None, None] * channel.r
    if channel.companion:
        p, r = _pr2(z)
        f, g = p, -r
    else:
        f, g = _ab2(z)
    return (np.stack([f.real, f.imag], axis=1),
            np.stack([g.real, g.imag], axis=1))


def _cloud_errors(monkeypatch, assemble, space, frequencies):
    """Per-cloud matrix error of the fused path's profiles against direct
    ones.

    Each cloud's contribution is assembled alone both ways, from the
    profiles that its fused point sets give and from the kernel at the
    channels' own points; the error is relative to the largest entry of
    the direct contribution.  Returns the worst error per cloud position
    in the assembly order.
    """
    accumulate = bem_space._accumulate_blocks
    errors, roots = [], []

    def checked(V, cloud, profiles, pref, index):
        parts = []
        for given in (profiles, [_direct_profiles(ch, roots[-1])
                                 for ch in cloud]):
            part = np.zeros_like(V)
            accumulate(part, cloud, given, pref, index)
            parts.append(part)
        errors[-1].append(np.abs(parts[0] - parts[1]).max()
                          / np.abs(parts[1]).max())
        V += parts[0]

    monkeypatch.setattr(bem_space, "_accumulate_blocks", checked)
    for s in frequencies:
        errors.append([])
        roots.append(bem_space._roots([s], CFG))
        assemble(space, [s], CFG)
    return np.max(errors, axis=0)


def _half_contour(n_steps, final_time=1.0):
    scheme = CQScheme(order=3, kappa=final_time / n_steps, n_steps=n_steps)
    return scheme.frequencies()[: scheme.n_half_nodes]


def _velocity_potential(points):
    """``potential_velocity_matrix`` at fixed points, called like an assembly."""
    return lambda space, freq, cfg: potential_velocity_matrix(space, freq, cfg,
                                                              points)


PROBE_FREQUENCIES = default_frequencies() + (1.0,)

#: a 9 x 9 grid around the star, inside and out, and a point 5 % outside it
_STAR_GRID = np.stack(np.meshgrid(np.linspace(-2.0, 2.0, 9),
                                  np.linspace(-2.0, 2.0, 9)), -1).reshape(-1, 2)
STAR_POINTS = np.vstack([_STAR_GRID, 1.05 * BoundaryCurve.star().point(0.1)])
SQUARE_POINTS = np.array([[0.1, 0.2], [0.55, 0.3], [3.0, 0.5], [0.3, 1.1]])


@pytest.mark.parametrize(
    "curve, n, kind, assemble, n_clouds",
    [
        (BoundaryCurve.star(), 32, "P0", assemble_nystrom_V, 6),
        (BoundaryCurve.star(), 32, "P1_discontinuous", assemble_galerkin_V, 6),
        (BoundaryCurve.square(1.0), 16, "P1_discontinuous",
         assemble_galerkin_V, 5),
        (BoundaryCurve.star(), 48, "P0", _velocity_potential(STAR_POINTS), 4),
        (BoundaryCurve.square(1.0), 16, "P1_discontinuous",
         _velocity_potential(SQUARE_POINTS), 4),
    ],
    ids=["reduced-star", "galerkin-star", "galerkin-square",
         "potential-star", "potential-square"],
)
def test_cloud_profiles_match_direct_evaluation(monkeypatch, curve, n, kind,
                                                assemble, n_clouds):
    """Every cloud kind (self, vertex, separated classes; diag, next
    neighbour, row classes; the potential's point classes) at the probe
    frequencies and s = 1."""
    space = rule_space(assemble, curve, n, kind)
    errors = _cloud_errors(monkeypatch, assemble, space, PROBE_FREQUENCIES)
    assert errors.size == n_clouds
    assert errors.max() <= 1e-12


@pytest.mark.parametrize(
    "curve, n, m, final_time, kind, assemble",
    [
        (BoundaryCurve.circle(1.0), 80, 80, 1.0, "P0", assemble_nystrom_V),
        (BoundaryCurve.square(1.0), 32, 80, 1.0, "P1_discontinuous",
         assemble_galerkin_V),
        (BoundaryCurve.star(), 48, 24, 3.0, "P0",
         _velocity_potential(STAR_POINTS)),
    ],
    ids=["circle-80", "square-p1-32", "star-48-potential"],
)
def test_cloud_profiles_match_direct_on_table_contours(monkeypatch, curve, n,
                                                       m, final_time, kind,
                                                       assemble):
    """The table contours, and the star illustration's at half size."""
    space = rule_space(assemble, curve, n, kind)
    errors = _cloud_errors(monkeypatch, assemble, space,
                           _half_contour(m, final_time))
    assert errors.max() <= 1e-12


def test_direct_channels_are_those_whose_basis_holds_as_many_nodes():
    """A fused point set whose ray basis would hold at least as many
    nodes as it has points gets no basis, and its channels take their
    profiles at the points, bit for bit those of the kernel; a larger set
    is interpolated.  The far rows of the reduced circle at N = 80 form
    one plain set, interpolated at the lower root and evaluated at the
    points at the higher one."""
    few = np.linspace(0.1, 3.0, 40)
    assert bem_space._ray_basis(few, 4.0) is None
    many = np.linspace(0.1, 3.0, 4000)
    assert bem_space._ray_basis(many, 4.0) is not None
    mesh = reduced_circle(80).mesh
    clouds = bem_space._class_clouds(
        reduced_circle(80), *bem_space._separated_pairs(mesh, ordered=True),
        bem_space.SEPARATED_CLASSES, at=(mesh.midpoints, mesh.arclengths))
    kinds = []
    for root in np.sqrt(np.array([1.0 + 0.0j, 900.0 - 5.0j])):
        sets = bem_space._fused_sets(clouds, bem_space._ray_scale(root))
        assert list(sets) == [False]
        channels, basis = sets[False]
        assert len(channels) == len(clouds)
        kinds.append(basis is None)
        if basis is None:
            for channel, (f, g) in zip(channels, bem_space._fused_profiles(
                    channels, None, root[None])):
                want = _direct_profiles(channel, root[None])
                assert f.tobytes() == want[0].tobytes()
                assert g.tobytes() == want[1].tobytes()
    assert kinds == [False, True]


#: the block byte bounds that force blocks of one frequency, of a few and
#: of whole runs
BLOCK_BOUNDS = {"ones": 1, "few": 1 << 15, "runs": 1 << 40}


@pytest.mark.parametrize("bound", BLOCK_BOUNDS.values(),
                         ids=BLOCK_BOUNDS.keys())
@pytest.mark.parametrize(
    "curve, n, kind, assemble",
    [
        (BoundaryCurve.circle(1.0), 40, "P0", assemble_nystrom_V),
        (BoundaryCurve.square(1.0), 16, "P1_discontinuous",
         assemble_galerkin_V),
        (BoundaryCurve.star(), 24, "P0", _velocity_potential(STAR_POINTS)),
    ],
    ids=["circle-reduced", "square-p1-galerkin", "star-potential"],
)
def test_block_samples_are_the_samples_of_single_frequencies(
        monkeypatch, curve, n, kind, assemble, bound):
    """The half contour sampled as one block, summed in blocks of one
    frequency, of a few or of whole runs of equal clouds and scale,
    equals each frequency sampled alone, bit for bit: the reduced
    circle, the Galerkin P1 square with its split self and vertex
    clouds, and the star's velocity potential."""
    space = rule_space(assemble, curve, n, kind)
    freqs = _half_contour(40)
    singles = np.concatenate([assemble(space, [s], CFG) for s in freqs])
    monkeypatch.setattr(bem_space, "_BLOCK_BYTES", bound)
    block = assemble(space, freqs, CFG)
    assert block.tobytes() == singles.tobytes()


def test_block_temporaries_stay_under_the_byte_bounds(monkeypatch):
    """Summing a contour's clouds, every temporary of a block of more
    than one frequency holds at most ``_BLOCK_BYTES``: a kernel call's
    arguments, each of its outputs and their stacked real parts, the
    interpolated values of a fused point set, and a channel's profile
    tensor; every stack of samples of a block of more than one node
    holds at most ``cq_engine._SAMPLE_BLOCK_BYTES``.  Larger blocks than
    one are formed."""
    from stokesbem import cq_engine

    tensors, stacks = [], []
    for name in ("_ab2", "_pr2"):
        def recorded(z, kernel=getattr(bem_space, name)):
            f, g = kernel(z)
            # (b, points) at the points, (panels, b, nodes) at the nodes
            size = z.shape[0] if z.ndim == 2 else z.shape[1]
            tensors.extend((size, nbytes) for nbytes in (
                z.nbytes, f.nbytes, g.nbytes, 2 * z.nbytes))
            return f, g

        monkeypatch.setattr(bem_space, name, recorded)
    interpolate = bem_space._interpolate
    accumulate = bem_space._accumulate_blocks

    def recorded_interpolate(basis, table):
        out = interpolate(basis, table)
        tensors.append((table.shape[1], out.nbytes))
        return out

    def recorded_accumulate(V, cloud, profiles, pref, index):
        # the tensor of _accumulate_blocks: six reals per point and root
        tensors.extend((V.shape[0], 3 * f.nbytes) for f, _ in profiles)
        return accumulate(V, cloud, profiles, pref, index)

    monkeypatch.setattr(bem_space, "_interpolate", recorded_interpolate)
    monkeypatch.setattr(bem_space, "_accumulate_blocks", recorded_accumulate)
    space = build_space(build_mesh(BoundaryCurve.square(1.0), 16),
                        "P1_discontinuous")

    def transfer(s):
        out = assemble_galerkin_V(space, s, CFG)
        stacks.append((s.size, out.nbytes))
        return out

    cq_engine.cq_weights(transfer, CQScheme(order=3, kappa=1.0 / 40,
                                            n_steps=40))
    for blocks, bound in ((tensors, bem_space._BLOCK_BYTES),
                          (stacks, cq_engine._SAMPLE_BLOCK_BYTES)):
        assert max(size for size, _ in blocks) > 1
        assert all(nbytes <= bound for size, nbytes in blocks if size > 1)


def test_one_kernel_call_per_profile_kind_and_block(monkeypatch):
    """A square P1 (16, 40) sweep makes at most one ``_ab2`` and one
    ``_pr2`` call per block of frequencies, for all the channels of its
    five clouds, and one contraction per cloud."""
    from stokesbem import cq_engine

    calls = {"_ab2": 0, "_pr2": 0, "clouds": 0}
    for name in ("_ab2", "_pr2"):
        def counted(z, kernel=getattr(bem_space, name), name=name):
            calls[name] += 1
            return kernel(z)

        monkeypatch.setattr(bem_space, name, counted)
    accumulate = bem_space._accumulate_blocks

    def counted_clouds(*args):
        calls["clouds"] += 1
        return accumulate(*args)

    monkeypatch.setattr(bem_space, "_accumulate_blocks", counted_clouds)
    space = build_space(build_mesh(BoundaryCurve.square(1.0), 16),
                        "P1_discontinuous")
    cq_engine.cq_weights(lambda s: assemble_galerkin_V(space, s, CFG),
                         CQScheme(order=3, kappa=1.0 / 40, n_steps=40))
    blocks, rest = divmod(calls["clouds"], 5)
    assert rest == 0 and blocks > 0
    assert 0 < calls["_ab2"] <= blocks
    assert 0 < calls["_pr2"] <= blocks


@pytest.mark.parametrize("scale", [0.25, 1.0, 32.0])
def test_ray_basis_is_exact_for_cubics_and_at_its_nodes(scale):
    """Distances on the panels' own nodes (some hit them exactly) and a
    cubic profile are reproduced to rounding."""
    # repeated distances and nodes: a basis needs more points than nodes
    panels = bem_space._ray_basis(
        np.repeat([0.003, 0.05, 0.3, 1.7], bem_space.RAY_PANEL_ORDER + 1), scale)
    r = np.tile(panels.nodes.ravel(), 2)
    basis = bem_space._ray_basis(r, scale)
    table = np.stack([basis.nodes, basis.nodes**3], axis=1)
    f, g = np.take(bem_space._interpolate(basis, table), basis.inverse,
                   axis=-1)
    np.testing.assert_allclose(f, r, rtol=0, atol=1e-15 * r.max())
    np.testing.assert_allclose(g, r**3, rtol=0, atol=1e-15 * r.max() ** 3)


def test_ray_basis_of_far_panels_raises_no_overflow_warning():
    """Uniform panel ids past 1024 (r S on a radius-10 circle at s = 1067)
    take no power of two, so assembly warns of nothing."""
    space = build_space(build_mesh(BoundaryCurve.circle(10.0), 16), "P0",
                        "reduced")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        V = assemble_nystrom_V(space, [1067.0], CFG)
    assert np.isfinite(V).all()


def test_interpolation_bases_leave_no_stale_state(monkeypatch):
    """Interleaving the boundary operators and both potentials at two
    point sets, across two panel scales, reproduces bit for bit the
    matrices assembled with no bases or clouds held; the potentials put
    nothing into the geometry cache."""
    mesh = build_mesh(BoundaryCurve.circle(1.0), 16)
    space, reduced = build_space(mesh, "P0"), build_space(mesh, "P0",
                                                          "reduced")
    s1, s2 = 10.0 + 3.0j, 900.0 - 40.0j
    assert bem_space._ray_scale(np.sqrt(s1)) != bem_space._ray_scale(
        np.sqrt(s2))
    near, far = np.array([[0.3, 0.2], [1.1, 0.1]]), np.array([[2.0, -1.5]])
    operators = {
        "reduced": lambda s: assemble_nystrom_V(reduced, [s], CFG),
        "galerkin": lambda s: assemble_galerkin_V(space, [s], CFG),
        "near-pressure": lambda s: potential_pressure_matrix(space, near),
        "near": lambda s: potential_velocity_matrix(space, [s], CFG, near),
        "far": lambda s: potential_velocity_matrix(space, [s], CFG, far),
        "far-pressure": lambda s: potential_pressure_matrix(space, far),
    }
    monkeypatch.setattr(bem_space, "_GEOMETRY_CACHE", {})
    fresh = {}
    for name in ("near-pressure", "near", "far", "far-pressure", "reduced",
                 "galerkin"):
        for s in (s1, s2):
            monkeypatch.setattr(bem_space, "_RAY_SLOT", [None, {}])
            monkeypatch.setattr(bem_space, "_POINT_SLOT", [None, None])
            fresh[name, s] = operators[name](s)
        if name == "far-pressure":
            assert bem_space._GEOMETRY_CACHE == {}
    for s in (s1, s2, s1):
        for name, operator in operators.items():
            for _ in range(2):  # with rebuilt, then with held state
                assert np.array_equal(operator(s), fresh[name, s])


def test_geometry_cache_holds_one_space(monkeypatch):
    """Assembling on a second mesh drops the first mesh's clouds; the
    Galerkin and the reduced space of one mesh share them."""
    monkeypatch.setattr(bem_space, "_GEOMETRY_CACHE", {})
    freq = [10.0 + 3.0j]
    meshes = [build_mesh(BoundaryCurve.circle(1.0), n) for n in (8, 16)]
    for mesh in meshes + meshes[:1]:
        space = build_space(mesh, "P0")
        assemble_galerkin_V(space, freq, CFG)
        assemble_nystrom_V(build_space(mesh, "P0", "reduced"), freq, CFG)
        keys = {key[:3] for key in bem_space._GEOMETRY_CACHE}
        assert keys == {bem_space._space_key(space)}


@pytest.mark.parametrize(
    "curve, n, kind, points",
    [(BoundaryCurve.star(), 48, "P0", STAR_POINTS),
     (BoundaryCurve.square(1.0), 16, "P1_discontinuous", SQUARE_POINTS)],
    ids=["star", "square"],
)
def test_potential_node_bytes_count_the_built_clouds(curve, n, kind, points):
    """The bytes reported per point, counted without building clouds, are
    those of the point's cloud nodes, and in total those that the clouds
    and the ray basis of their fused point set hold."""
    space = build_space(build_mesh(curve, n), kind)
    reported = bem_space.potential_node_bytes(space, points)
    clouds = bem_space._potential_clouds(space, points)
    nodes = np.zeros(points.shape[0], dtype=np.int64)
    held = 0
    for (channel,) in clouds:
        np.add.at(nodes, channel.pairs[:, 0], channel.r.shape[1])
        held += channel.r.nbytes + channel.rhat.nbytes + channel.wab.nbytes
    (_, basis), = bem_space._fused_sets(
        clouds, bem_space._ray_scale(np.sqrt(3.0 + 1.0j))).values()
    held += basis.rows.nbytes + basis.inverse.nbytes
    per_node = 8 * (4 + space.n_basis + bem_space.RAY_PANEL_ORDER)
    np.testing.assert_array_equal(reported, nodes * per_node)
    assert reported.sum() == held


def _pressure_by_element_loop(space, points):
    """Reference: the pressure potential summed class by class over the
    element quadrature of each (point, element) pair."""
    mesh = space.mesh
    nb = space.n_basis
    out = np.zeros((points.shape[0], space.dof_count))
    pairs = bem_space._point_element_pairs(mesh, points)
    for sel, order, n_panels in bem_space._distance_classes(
            pairs[2], bem_space.POTENTIAL_CLASSES):
        kk, jj = pairs[0][sel], pairs[1][sel]
        x, w = panel_gauss(order, np.linspace(0.0, 1.0, n_panels + 1))
        pos_y, sp_y = bem_space._element_points(mesh, jj[:, None], x[None, :])
        fb = bem_space._basis_values(nb, x)
        diff = points[kk][:, None, :] - pos_y
        r2 = np.sum(diff * diff, axis=-1)
        ker = diff / (2.0 * np.pi * r2[..., None])
        base = w[None, :] * sp_y
        for b in range(nb):
            wb = base * fb[b]
            cols = 2 * nb * jj + 2 * b
            out[kk, cols] += np.einsum("np,np->n", wb, ker[..., 0])
            out[kk, cols + 1] += np.einsum("np,np->n", wb, ker[..., 1])
    return out


@pytest.mark.parametrize(
    "curve, n, kind, points",
    [(BoundaryCurve.star(), 48, "P0", STAR_POINTS),
     (BoundaryCurve.square(1.0), 16, "P1_discontinuous", SQUARE_POINTS)],
    ids=["star", "square"],
)
def test_pressure_potential_matches_element_loop(curve, n, kind, points):
    """Every distance class, the nearest included, against a direct
    element-by-element summation."""
    space = build_space(build_mesh(curve, n), kind)
    want = _pressure_by_element_loop(space, points)
    got = potential_pressure_matrix(space, points)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


# ---------------------------------------------------------------------------
# potentials


def test_velocity_potential_annihilates_square_normal():
    """S(s) applied to the normal vanishes identically off the boundary."""
    space = build_space(build_mesh(BoundaryCurve.square(1.0), 16), "P0")
    points = np.array([[3.0, 0.5], [0.2, -2.5], [4.0, 4.0], [0.1, 0.2]])
    mat = potential_velocity_matrix(space, [2.0 + 1.0j], CFG, points)[0]
    c_n = space.mesh.normals.ravel()
    vals = mat @ c_n
    assert np.abs(vals).max() <= 1e-8


def test_velocity_potential_far_point_oracle():
    """Far-field rows match a dense fine-quadrature kernel summation."""
    from stokesbem._quadrature import gauss_legendre_01
    from stokesbem.bem_space import _element_points

    space = build_space(build_mesh(BoundaryCurve.circle(1.0), 8), "P0")
    freq = ComplexFrequency(1.5 + 0.8j)
    point = np.array([12.0, -5.0])  # distance > 5 diameters
    mat = potential_velocity_matrix(space, [freq.s], CFG, point[None, :])[0]
    xg, wg = gauss_legendre_01(32)
    oracle = np.zeros((2, space.dof_count), dtype=complex)
    elems = np.arange(8)[:, None]
    pos, sp = _element_points(space.mesh, elems, xg[None, :])
    for j in range(8):
        for q in range(32):
            tensor = velocity_kernel(point - pos[j, q], freq, CFG)
            oracle[:, 2 * j : 2 * j + 2] += wg[q] * sp[j, q] * tensor
    assert np.abs(mat - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_velocity_potential_linearity():
    space = build_space(build_mesh(BoundaryCurve.circle(1.0), 8), "P0")
    mat = potential_velocity_matrix(
        space, [1.0 + 0j], CFG, np.array([[2.0, 1.0]])
    )[0]
    rng = np.random.default_rng(8)
    lam1 = rng.standard_normal(space.dof_count)
    lam2 = rng.standard_normal(space.dof_count)
    left = mat @ (2.0 * lam1 - 3.0 * lam2)
    right = 2.0 * (mat @ lam1) - 3.0 * (mat @ lam2)
    scale = np.abs(right).max()
    np.testing.assert_allclose(left, right, rtol=0, atol=1e-14 * scale)


def test_velocity_potential_rejects_boundary_point():
    space = build_space(build_mesh(BoundaryCurve.circle(1.0), 8), "P0")
    on_gamma = space.mesh.midpoints[0]
    with pytest.raises(ValueError):
        potential_velocity_matrix(
            space, [1.0 + 0j], CFG, on_gamma[None, :]
        )


def test_potentials_reject_point_on_curve_between_samples():
    """A point on the arc between element samples is on the boundary."""
    space = build_space(build_mesh(BoundaryCurve.circle(1.0), 8), "P0")
    on_arc = np.array([[0.0, 0.0], [np.cos(0.1), np.sin(0.1)]])
    with pytest.raises(ValueError, match="observation point 1 lies on the boundary"):
        potential_pressure_matrix(space, on_arc)
    with pytest.raises(ValueError, match="observation point 1 lies on the boundary"):
        potential_velocity_matrix(space, [1.0 + 0j], CFG, on_arc)
    outside = 1.05 * on_arc
    assert np.isfinite(potential_pressure_matrix(space, outside)).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_potentials_reject_non_finite_points(bad):
    """A non-finite point falls in no distance class; it is refused, not
    given a zero row."""
    space = build_space(build_mesh(BoundaryCurve.circle(1.0), 8), "P0")
    points = np.array([[0.3, 0.2], [bad, 0.0]])
    message = rf"observation point 1 = \[{bad}, 0.0\] is not finite"
    with pytest.raises(ValueError, match=message):
        potential_pressure_matrix(space, points)
    with pytest.raises(ValueError, match=message):
        potential_velocity_matrix(space, [1.0 + 0j], CFG,
                                  points)


@pytest.mark.parametrize("points, shape", [
    (np.zeros((0, 2)), r"\(0, 2\)"),
    (np.ones((2, 3)), r"\(2, 3\)"),
], ids=["empty", "three-columns"])
def test_potentials_reject_points_of_wrong_shape(points, shape):
    space = build_space(build_mesh(BoundaryCurve.circle(1.0), 8), "P0")
    message = rf"shape \(K, 2\) with K >= 1, got shape {shape}"
    with pytest.raises(ValueError, match=message):
        potential_pressure_matrix(space, points)
    with pytest.raises(ValueError, match=message):
        potential_velocity_matrix(space, [1.0 + 0j], CFG,
                                  points)


def test_potentials_check_each_point_set_once(monkeypatch):
    """The observation-point rule runs when the point set changes, not at
    every frequency."""
    space = build_space(build_mesh(BoundaryCurve.circle(1.0), 8), "P0")
    checked = []
    check = bem_space.check_observation_points
    monkeypatch.setattr(bem_space, "check_observation_points",
                        lambda mesh, pts: checked.append(1) or check(mesh, pts))
    monkeypatch.setattr(bem_space, "_POINT_SLOT", [None, None])
    points = np.array([[0.3, 0.2], [2.0, 1.0]])
    for s in (1.0 + 0j, 3.0 - 2.0j, 40.0 + 7.0j):
        potential_velocity_matrix(space, [s], CFG, points)
        potential_pressure_matrix(space, points)
    assert len(checked) == 1
    potential_pressure_matrix(space, points[:1])
    assert len(checked) == 2


def test_pressure_potential_far_point_oracle():
    from stokesbem._quadrature import gauss_legendre_01
    from stokesbem.bem_space import _element_points

    space = build_space(build_mesh(BoundaryCurve.circle(1.0), 8), "P0")
    point = np.array([-11.0, 7.0])
    mat = potential_pressure_matrix(space, point[None, :])
    xg, wg = gauss_legendre_01(32)
    oracle = np.zeros(space.dof_count)
    elems = np.arange(8)[:, None]
    pos, sp = _element_points(space.mesh, elems, xg[None, :])
    for j in range(8):
        for q in range(32):
            vec = pressure_kernel(point - pos[j, q], 2)
            oracle[2 * j : 2 * j + 2] += wg[q] * sp[j, q] * vec
    assert np.abs(mat[0] - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_pressure_potential_reflection_antisymmetry():
    """The odd kernel flips sign under simultaneous point/density reflection."""
    space = build_space(build_mesh(BoundaryCurve.circle(1.0), 8), "P0")
    point = np.array([[1.7, 0.9]])
    mat_plus = potential_pressure_matrix(space, point)
    mat_minus = potential_pressure_matrix(space, -point)
    # reflecting the density: element j maps to the antipodal element with
    # components kept; on the symmetric N=8 mesh that is a roll by 4
    lam = np.random.default_rng(5).standard_normal(space.dof_count)
    reflected = np.roll(lam.reshape(8, 2), 4, axis=0).ravel()
    assert float((mat_minus @ reflected)[0]) == pytest.approx(
        -float((mat_plus @ lam)[0]), rel=1e-12
    )


def test_pressure_potential_has_no_frequency_argument():
    import inspect

    params = inspect.signature(potential_pressure_matrix).parameters
    assert "freq" not in params and "s" not in params


def test_pressure_potential_real():
    space = build_space(build_mesh(BoundaryCurve.circle(1.0), 8), "P0")
    mat = potential_pressure_matrix(space, np.array([[2.0, 0.3]]))
    assert not np.iscomplexobj(mat)


# ---------------------------------------------------------------------------
# solves


def test_factor_round_trip():
    space, mat = galerkin(BoundaryCurve.circle(1.0), 8, "P0", 2.0 + 1.0j)
    rng = np.random.default_rng(12)
    x = rng.standard_normal(space.dof_count) + 1j * rng.standard_normal(space.dof_count)
    solve = factor(mat)
    back = solve(mat @ x)
    assert np.abs(back - x).max() <= 1e-10 * np.abs(x).max()
    with pytest.raises(ValueError, match="exceeds the system size"):
        solve(np.ones(space.dof_count + 1))


@pytest.mark.parametrize("dtype", [float, complex])
def test_factor_matches_numpy_across_panels(dtype):
    """A random system of 165 rows solves as ``numpy.linalg.solve``
    does, in the system's own type: a complex system (the
    verification's) stays complex, a real one real."""
    rng = np.random.default_rng(14)
    size = 165
    system = rng.standard_normal((size, size)).astype(dtype)
    load = rng.standard_normal(size).astype(dtype)
    if dtype is complex:
        system += 1j * rng.standard_normal((size, size))
        load += 1j * rng.standard_normal(size)
    lam = factor(system)(load)
    assert lam.dtype == np.dtype(dtype)
    want = np.linalg.solve(system, load)
    assert np.abs(lam - want).max() <= 1e-12 * np.abs(want).max()


def test_factor_keeps_a_real_system_real():
    """A real system and load (the march's constrained ``W_0``) give a
    real density, the zero load of the border appended."""
    space = build_space(build_mesh(BoundaryCurve.circle(1.0), 8), "P0")
    v = whole_matrix(assemble_galerkin_V, space, 2.0 + 0j).real
    system = constrain(v, space, ConstraintMode.multiplier_m)
    rhs = np.random.default_rng(13).standard_normal(space.dof_count)
    lam = factor(system)(rhs)
    assert lam.dtype == np.float64 and lam.shape == (space.dof_count,)
    full = np.linalg.solve(system, np.append(rhs, 0.0))
    assert np.abs(lam - full[:-1]).max() <= 1e-12 * np.abs(full).max()


def test_discrete_positivity_spot():
    """Re(sqrt(s) x^H V x) >= 0 up to rounding.

    The energy identity behind the bound tests the weak form of the
    Brinkman problem with the conjugate velocity field, which attaches
    sqrt(s) (not its conjugate) to the quadratic form; the conjugated
    variant is indefinite off the positive real axis.
    """
    space, mat = galerkin(BoundaryCurve.circle(1.0), 8, "P0", 3.0 + 2.0j)
    freq = ComplexFrequency(3.0 + 2.0j)
    rng = np.random.default_rng(4)
    norm_v = np.linalg.norm(mat)
    for _ in range(10):
        x = rng.standard_normal(space.dof_count) + 1j * rng.standard_normal(
            space.dof_count
        )
        quad = freq.sqrt_s * np.vdot(x, mat @ x)
        assert quad.real >= -1e-10 * norm_v * np.linalg.norm(x) ** 2


def test_discrete_positivity_random_frequencies():
    """Re(sqrt(s) x^H V x) >= -tol at 20 random s, including rays
    Arg s = +-3pi/4 outside the right half-plane."""
    rng = np.random.default_rng(9)
    space = build_space(build_mesh(BoundaryCurve.circle(1.0), 6), "P0")
    mods = 10.0 ** rng.uniform(-1, 2, 14)
    args = rng.uniform(-np.pi / 2, np.pi / 2, 14)
    freqs = list(mods * np.exp(1j * args))
    freqs += [m * np.exp(sign * 3j * np.pi / 4) for m in (0.5, 20.0) for sign in (1, -1)]
    freqs += [1e-2, 1e3]
    for s in freqs:
        freq = ComplexFrequency(complex(s))
        v = whole_matrix(assemble_galerkin_V, space, s)
        norm_v = np.linalg.norm(v)
        x = rng.standard_normal(space.dof_count) + 1j * rng.standard_normal(
            space.dof_count
        )
        quad = freq.sqrt_s * np.vdot(x, v @ x)
        assert quad.real >= -1e-10 * norm_v * np.linalg.norm(x) ** 2, s


def test_multiplier_solution_satisfies_constraint():
    space, mat = galerkin(
        BoundaryCurve.circle(1.0), 8, "P0", 1.0 + 0j, ConstraintMode.multiplier_m
    )
    rhs = data_functional(space, lambda pos: np.stack(
        [np.ones(pos.shape[:-1]), pos[..., 0]], axis=-1))
    lam = factor(mat)(rhs)
    assert lam.shape == (space.dof_count,)
    b = moment_row(space)
    assert abs(b @ lam) <= 1e-10 * max(np.abs(lam).max(), 1.0)


def test_factor_names_its_rcond():
    """The refusal states the exact reciprocal 1-norm condition number,
    the threshold it failed and the constraints that remove the gauge
    kernel; a system above the threshold is solved."""
    message = (r"numerically singular: rcond_1 = 2\.500e-14 is not above "
               r"1e-12; constraint multiplier_m or augmented_Vtilde")
    with pytest.raises(np.linalg.LinAlgError, match=message):
        factor(np.diag([4.0, 1e-13]))
    solve = factor(np.diag([4.0, 1e-11]))
    np.testing.assert_allclose(solve(np.array([4.0, 1e-11])), [1.0, 1.0])


def test_factor_rejects_singular_system():
    _, mat = galerkin(BoundaryCurve.circle(1.0), 6, "P0", 1.0 + 0j)
    with pytest.raises(np.linalg.LinAlgError, match="numerically singular"):
        factor(np.zeros_like(mat))


def test_factor_refuses_a_non_finite_system():
    system = np.eye(3)
    system[1, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="not finite"):
        factor(system)


# -- the mesh's reflections in SectorAction ------------------------------------

REFLECTION_SPACES = [(BoundaryCurve.circle(1.0), 12, "P0"),
                     (BoundaryCurve.square(1.0), 8, "P1_discontinuous"),
                     (BoundaryCurve.star(), 12, "P0"),
                     (BoundaryCurve.star(), 25, "P1_discontinuous")]


@pytest.mark.parametrize("curve, n, kind", REFLECTION_SPACES,
                         ids=["circle", "square-p1", "star", "star-25-p1"])
def test_reflections_map_the_mesh_onto_itself_reversed(curve, n, kind):
    """Group element ``m + k``, ``Q_k tau``, maps the endpoints of
    element ``j`` onto those of element ``(N - 1 - j + k N / m) mod N``
    swapped; ``tau`` is ``(x, y) -> (y, x)`` on the square and ``(x, y)
    -> (x, -y)`` on the circle and the star, also for ``m = 1``."""
    mesh = build_mesh(curve, n)
    action = bem_space.sector_action(build_space(mesh, kind))
    m = action.order
    ends = mesh.endpoints
    tau = [[0.0, 1.0], [1.0, 0.0]] if curve.kind == "square" else \
        [[1.0, 0.0], [0.0, -1.0]]
    assert np.array_equal(action.group[:, :, m], tau)
    for k in range(m):
        src = (n - 1 - np.arange(n) + k * (n // m)) % n
        np.testing.assert_allclose(action.turn(ends, m + k),
                                   ends[src][:, ::-1], rtol=0, atol=1e-14)


@pytest.mark.parametrize("curve, n, kind", REFLECTION_SPACES,
                         ids=["circle", "square-p1", "star", "star-25-p1"])
def test_reflected_copies_reverse_the_density(curve, n, kind):
    """``copies(lam, turns)`` of a reflection ``g = Q_k tau`` is ``g^T``
    of the density taken over the elements in reverse order, rolled by
    ``k`` sectors, with the two P1 basis functions of each element
    swapped; a rotation among the turns keeps its column of the march's
    copies, bit for bit."""
    space = build_space(build_mesh(curve, n), kind)
    action = bem_space.sector_action(space)
    m, nb = action.order, space.n_basis
    history = np.random.default_rng(6).standard_normal((3, space.dof_count))
    turns = np.array([m, 2 * m - 1, 0, m - 1, m + m // 2])
    got = action.copies(history, turns)
    assert got.shape == (3, space.dof_count, turns.size)
    for lam, one in zip(history, got):
        v = lam.reshape(n, nb, 2)
        for j, k in enumerate(turns):
            if k < m:
                assert one[:, j].tobytes() == action.copies(lam)[:, k].tobytes()
                continue
            g = action.group[:, :, k]
            src = (n - 1 - np.arange(n) + (k - m) * (n // m)) % n
            want = (v[src, ::-1] @ g).reshape(-1)
            np.testing.assert_allclose(one[:, j], want, rtol=0,
                                       atol=1e-15 * np.abs(lam).max())


@pytest.mark.parametrize("curve, n, kind", REFLECTION_SPACES,
                         ids=["circle", "square-p1", "star", "star-25-p1"])
def test_every_reflection_is_its_own_inverse(curve, n, kind):
    """``turn(turn(v, k), k)`` is ``v`` for each reflection ``k = m ..
    2 m - 1``, and a rotation is undone by ``m - k``."""
    action = bem_space.sector_action(build_space(build_mesh(curve, n), kind))
    m = action.order
    v = np.random.default_rng(7).standard_normal((9, 2))
    for k in range(m, 2 * m):
        np.testing.assert_allclose(action.turn(action.turn(v, k), k), v,
                                   rtol=0, atol=1e-14)
    for k in range(1, m):
        np.testing.assert_allclose(action.turn(action.turn(v, k), m - k), v,
                                   rtol=0, atol=1e-14)


def _orbits_by_element(action, points):
    """Reference: :meth:`SectorAction.orbits` one group element at a time,
    the least candidate index kept and, of equal ones, the first element
    that reaches it."""
    n, m = points.shape[0], action.order
    index = np.arange(n)
    best = np.full(n, n)
    turn = np.zeros(n, dtype=int)
    scale = float(np.abs(points).max())

    def key(p):
        q = (np.round(p / (bem_space.ORBIT_CELL * scale)).astype(np.int64)
             + (1 << 26))
        return q[..., 0] << 32 | q[..., 1]

    own = key(points)
    order = np.argsort(own, kind="stable")
    for k in range(1, 2 * m):
        image = action.turn(points, k)
        at = np.searchsorted(own, key(image), sorter=order)
        j = order[np.minimum(at, n - 1)]
        gap = np.linalg.norm(points[j] - image, axis=-1)
        better = (gap <= bem_space.ORBIT_TOL * scale) & (j < best)
        best[better], turn[better] = j[better], m - k if k < m else k
    derived = best < index
    derived[derived] = best[best[derived]] >= best[derived]
    return np.where(derived, best, index), np.where(derived, turn, 0)


def _grid(size):
    """A ``size`` x ``size`` grid on [-2, 2]^2, row major."""
    axis = np.linspace(-2.0, 2.0, size)
    return np.stack(np.meshgrid(axis, axis), -1).reshape(-1, 2)


@pytest.mark.parametrize(
    "curve, n, points, chunks",
    [(BoundaryCurve.star(1.0, 0.3, 6), 48, _grid(21), 1),
     (BoundaryCurve.circle(1.0), 80,
      np.array([[0.0, 0.0], [0.5, 0.5], [-0.6, 0.1]]), 1),
     (BoundaryCurve.square(1.0), 16, _grid(17), 1),
     (BoundaryCurve.star(1.0, 0.3, 6), 48, _grid(21), 4)],
    ids=["star-21", "circle-80", "square-17", "star-21-chunked"],
)
def test_orbits_match_the_element_loop(monkeypatch, curve, n, points,
                                       chunks):
    """The group elements tried together give each point the
    representative and turn of the loop over one element at a time: the
    benchmark star's 21 x 21 grid, the circle N = 80 with its three
    table points, a square grid, and the star again with the elements
    cut into chunks of at most three by a smaller byte bound."""
    action = bem_space.sector_action(build_space(build_mesh(curve, n), "P0"))
    if chunks > 1:
        monkeypatch.setattr(bem_space, "_BLOCK_BYTES",
                            3 * 16 * points.shape[0])
    rep, turn = action.orbits(points)
    want_rep, want_turn = _orbits_by_element(action, points)
    np.testing.assert_array_equal(rep, want_rep)
    np.testing.assert_array_equal(turn, want_turn)
    assert (rep != np.arange(points.shape[0])).any() or n == 80
