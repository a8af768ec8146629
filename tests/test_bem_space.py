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
)
from stokesbem.boundary_geometry import BoundaryCurve, BoundaryMesh, build_mesh
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


def galerkin(curve, n, kind, s, mode=ConstraintMode.none):
    """The space and its Galerkin system at ``s`` for the gauge ``mode``."""
    space = build_space(build_mesh(curve, n), kind)
    v = assemble_galerkin_V(space, ComplexFrequency(s), CFG)
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


def test_galerkin_rejects_three_dimensional_config():
    space = build_space(build_mesh(BoundaryCurve.circle(1.0), 8), "P0")
    with pytest.raises(NotImplementedError):
        assemble_galerkin_V(space, ComplexFrequency(1.0 + 0j), ProblemConfig(dimension=3))


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
    freq = ComplexFrequency(2.0 + 1.0j)
    plain = assemble_galerkin_V(space, freq, CFG)
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
        assemble(space, ComplexFrequency(1.0 + 0j), CFG)


def test_nystrom_block_rotational_equivariance():
    """Rotational symmetry of the circle in Cartesian components.

    The 2x2 blocks obey block(i, i+k) = Q_i block(0, k) Q_i^T with Q_i
    the rotation taking element 0 onto element i; the blocks themselves
    are not equal (they conjugate by the rotation).
    """
    n = 8
    space = reduced_circle(n)
    v = assemble_nystrom_V(space, ComplexFrequency(2.0 + 3.0j), CFG)
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
    ],
    ids=["circle-80-reduced", "square-p1-32-galerkin", "star-48-reduced",
         "star-48-galerkin"],
)
def test_sector_assembly_matches_whole_mesh_assembly(monkeypatch, curve, n,
                                                     m, final_time, kind,
                                                     assemble):
    """Assembling one rotational sector and filling the rest by rotation
    agrees with assembling every block (symmetry order 1), at the
    contour's smallest and largest frequency."""
    space = rule_space(assemble, curve, n, kind)
    assert space.mesh.symmetry_order > 1
    freqs = [ComplexFrequency(complex(s)) for s in _contour_ends(m, final_time)]
    monkeypatch.setattr(bem_space, "_GEOMETRY_CACHE", {})
    sector = [assemble(space, f, CFG) for f in freqs]
    monkeypatch.setattr(bem_space, "_GEOMETRY_CACHE", {})
    monkeypatch.setattr(BoundaryMesh, "symmetry_order", property(lambda _: 1))
    for f, got in zip(freqs, sector):
        want = assemble(space, f, CFG)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n, order", [(25, 1), (48, 6), (20, 2)])
def test_sector_pairs_cover_every_pair_once(n, order):
    """The separated pairs of the Galerkin sector are one per orbit of
    unordered pairs (the pairs ``i < j`` for order 1); those of the
    reduced sector are every non-touching pair of the sector's rows."""
    mesh = build_mesh(BoundaryCurve.star(1.0, 0.3, 6), n)
    assert mesh.symmetry_order == order
    sector = n // order
    i, j, _ = bem_space._separated_pairs(mesh, ordered=True)
    assert sorted(zip(i, j)) == [(a, b) for a in range(sector)
                                 for b in range(n)
                                 if (b - a) % n not in (0, 1, n - 1)]
    i, j, _ = bem_space._separated_pairs(mesh, ordered=False)
    orbits = [{frozenset(((a + k * sector) % n, (b + k * sector) % n))
               for k in range(order)} for a, b in zip(i, j)]
    covered = [pair for orbit in orbits for pair in orbit]
    assert len(covered) == len(set(covered))
    assert len(set(covered)) == n * (n - 3) // 2
    if order == 1:
        assert np.all(i < j)


def test_nystrom_block_01_against_adaptive_oracle():
    space = reduced_circle(8)
    v = assemble_nystrom_V(space, ComplexFrequency(1.0 + 0j), CFG)
    expected = (np.pi / 4.0) * NYSTROM_CIRCLE8_BLOCK01
    assert np.abs(v[0:2, 2:4] - expected).max() <= 1e-10 * np.abs(expected).max()


def test_nystrom_containment_decays_at_consistency_rate():
    """Reduced integration maps the discrete normal to a small residual.

    The P0 interpolation of the circle normal is only O(h^2) accurate,
    so the scaled residual cannot reach the Galerkin square's 1e-8; it
    decays at the interpolation rate instead.  Calibrated values:
    1.1e-4 at N=64 and rate ~2.2 between N=32 and N=128.
    """
    freq = ComplexFrequency(2.0 + 3.0j)
    resid = {}
    for n in (32, 64, 128):
        space = reduced_circle(n)
        v = assemble_nystrom_V(space, freq, CFG)
        c_n = space.mesh.normals.ravel()
        resid[n] = np.abs(v @ c_n).max() / np.abs(v).max()
    assert resid[64] <= 2e-4
    rate = np.log2(resid[32] / resid[128]) / 2.0
    assert rate >= 1.9


@pytest.mark.parametrize("constraints", [ConstraintMode.multiplier_m])
def test_nystrom_constraint_border_uses_reduced_moments(constraints):
    space = reduced_circle(8)
    v = assemble_nystrom_V(space, ComplexFrequency(1.0 + 0j), CFG)
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
    v = assemble_nystrom_V(space, ComplexFrequency(1.0 + 0j), CFG)
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


def _direct_profiles(channel, basis, sqrt_s):
    """Reference: the channel's profiles evaluated directly at
    ``sqrt_s * channel.r``, ``(P, -R)`` for a companion channel, each as
    its real and imaginary part."""
    z = sqrt_s * channel.r
    if channel.companion:
        p, r = _pr2(z)
        f, g = p, -r
    else:
        f, g = _ab2(z)
    return np.stack([f.real, f.imag]), np.stack([g.real, g.imag])


def _cloud_errors(monkeypatch, assemble, space, frequencies):
    """Per-cloud matrix error of interpolated against direct profiles.

    Each cloud's contribution is assembled alone both ways; the error is
    relative to the largest entry of the direct contribution.  Returns
    the worst error per cloud position in the assembly order.
    """
    accumulate = bem_space._accumulate_blocks
    interpolated = bem_space._cloud_profiles
    errors = []

    def checked(V, cloud, bases, sqrt_s, pref, n_basis):
        parts = []
        for profiles in (interpolated, _direct_profiles):
            monkeypatch.setattr(bem_space, "_cloud_profiles", profiles)
            part = np.zeros_like(V)
            accumulate(part, cloud, bases, sqrt_s, pref, n_basis)
            parts.append(part)
        monkeypatch.setattr(bem_space, "_cloud_profiles", interpolated)
        errors[-1].append(np.abs(parts[0] - parts[1]).max()
                          / np.abs(parts[1]).max())
        V += parts[0]

    monkeypatch.setattr(bem_space, "_accumulate_blocks", checked)
    for s in frequencies:
        errors.append([])
        assemble(space, ComplexFrequency(complex(s)), CFG)
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
        (BoundaryCurve.star(), 32, "P0", assemble_nystrom_V, 7),
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
    """Every cloud kind (self, vertex, separated classes; diag, both
    neighbours, row classes; the potential's point classes) at the probe
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


@pytest.mark.parametrize("scale", [0.25, 1.0, 32.0])
def test_ray_basis_is_exact_for_cubics_and_at_its_nodes(scale):
    """Distances on the panels' own nodes (some hit them exactly) and a
    cubic profile are reproduced to rounding."""
    panels = bem_space._ray_basis(np.array([0.003, 0.05, 0.3, 1.7]), scale)
    r = panels.nodes.ravel()
    basis = bem_space._ray_basis(r, scale)
    f, _, g, _ = bem_space._interpolate(basis, lambda z: (z, z**3), 1.0)
    np.testing.assert_allclose(f, r, rtol=0, atol=1e-15 * r.max())
    np.testing.assert_allclose(g, r**3, rtol=0, atol=1e-15 * r.max() ** 3)


def test_ray_basis_of_far_panels_raises_no_overflow_warning():
    """Uniform panel ids past 1024 (r S on a radius-10 circle at s = 1067)
    take no power of two, so assembly warns of nothing."""
    space = build_space(build_mesh(BoundaryCurve.circle(10.0), 16), "P0",
                        "reduced")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        V = assemble_nystrom_V(space, ComplexFrequency(1067.0), CFG)
    assert np.isfinite(V).all()


def test_interpolation_bases_leave_no_stale_state(monkeypatch):
    """Interleaving the boundary operators and both potentials at two
    point sets, across two panel scales, reproduces bit for bit the
    matrices assembled with no bases or clouds held; the potentials put
    nothing into the geometry cache."""
    mesh = build_mesh(BoundaryCurve.circle(1.0), 16)
    space, reduced = build_space(mesh, "P0"), build_space(mesh, "P0",
                                                          "reduced")
    s1, s2 = ComplexFrequency(10.0 + 3.0j), ComplexFrequency(900.0 - 40.0j)
    assert bem_space._ray_scale(s1.sqrt_s) != bem_space._ray_scale(s2.sqrt_s)
    near, far = np.array([[0.3, 0.2], [1.1, 0.1]]), np.array([[2.0, -1.5]])
    operators = {
        "reduced": lambda s: assemble_nystrom_V(reduced, s, CFG),
        "galerkin": lambda s: assemble_galerkin_V(space, s, CFG),
        "near-pressure": lambda s: potential_pressure_matrix(space, near),
        "near": lambda s: potential_velocity_matrix(space, s, CFG, near),
        "far": lambda s: potential_velocity_matrix(space, s, CFG, far),
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
    freq = ComplexFrequency(10.0 + 3.0j)
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
    and their ray bases hold."""
    space = build_space(build_mesh(curve, n), kind)
    reported = bem_space.potential_node_bytes(space, points)
    clouds = bem_space._potential_clouds(space, points)
    nodes = np.zeros(points.shape[0], dtype=np.int64)
    held = 0
    for cloud, bases in zip(clouds, bem_space._ray_bases(clouds, 3.0 + 1.0j)):
        (channel,), (basis,) = cloud, bases
        np.add.at(nodes, channel.pairs[:, 0], channel.r.shape[1])
        held += (channel.r.nbytes + channel.rhat.nbytes + channel.wab.nbytes
                 + basis.rows.nbytes + basis.inverse.nbytes)
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
    mat = potential_velocity_matrix(space, ComplexFrequency(2.0 + 1.0j), CFG, points)
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
    mat = potential_velocity_matrix(space, freq, CFG, point[None, :])
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
        space, ComplexFrequency(1.0 + 0j), CFG, np.array([[2.0, 1.0]])
    )
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
            space, ComplexFrequency(1.0 + 0j), CFG, on_gamma[None, :]
        )


def test_potentials_reject_point_on_curve_between_samples():
    """A point on the arc between element samples is on the boundary."""
    space = build_space(build_mesh(BoundaryCurve.circle(1.0), 8), "P0")
    on_arc = np.array([[0.0, 0.0], [np.cos(0.1), np.sin(0.1)]])
    with pytest.raises(ValueError, match="observation point 1 lies on the boundary"):
        potential_pressure_matrix(space, on_arc)
    with pytest.raises(ValueError, match="observation point 1 lies on the boundary"):
        potential_velocity_matrix(space, ComplexFrequency(1.0 + 0j), CFG, on_arc)
    outside = 1.05 * on_arc
    assert np.isfinite(potential_pressure_matrix(space, outside)).all()


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


def test_factor_keeps_a_real_system_real():
    """A real system and load (the march's constrained ``W_0``) give a
    real density, the zero load of the border appended."""
    space = build_space(build_mesh(BoundaryCurve.circle(1.0), 8), "P0")
    v = assemble_galerkin_V(space, ComplexFrequency(2.0 + 0j), CFG).real
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
        v = assemble_galerkin_V(space, freq, CFG)
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


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_factor_rejects_singular_system():
    _, mat = galerkin(BoundaryCurve.circle(1.0), 6, "P0", 1.0 + 0j)
    with pytest.raises(np.linalg.LinAlgError, match="numerically singular"):
        factor(np.zeros_like(mat))
