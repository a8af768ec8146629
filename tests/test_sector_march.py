"""The march over one rotational sector of the boundary weights.

Every mesh is mapped onto itself by a rotation of order m, so the
convolution weights of ``V`` are fixed by their first sector's rows.
``run_simulation`` keeps those rows only, unfolds ``W_0`` for the
factored leading system and marches with the rotated copies of each
solution (``bem_space.SectorAction``).  These tests hold that path to
the whole-matrix weights and to a test-side copy of the march over
them, one sum per step, that the package ran before.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import stokesbem
from stokesbem import stokes_solver
from stokesbem.bem_space import (
    ConstraintMode,
    assemble_galerkin_V,
    assemble_nystrom_V,
    constrain,
    factor,
    sector_action,
    unfold,
)
from stokesbem.boundary_geometry import BoundaryCurve
from stokesbem.cq_engine import CONTOUR_EPSILON, CQScheme, cq_weights
from stokesbem.laplace_kernels import ProblemConfig
from stokesbem.stokes_solver import manufactured_dirichlet_data, run_simulation

CFG = ProblemConfig()

#: (curve, N, kind, assembly, constraint, M, final time, symmetry order)
CASES = {
    "circle-p0-reduced": (BoundaryCurve.circle(1.0), 32, "P0", "reduced",
                          ConstraintMode.none, 24, 1.0, 32),
    "square-p1-multiplier": (BoundaryCurve.square(1.0), 16,
                             "P1_discontinuous", "galerkin",
                             ConstraintMode.multiplier_m, 20, 1.0, 4),
    "star-48-p0": (BoundaryCurve.star(), 48, "P0", "reduced",
                   ConstraintMode.none, 16, 3.0, 6),
    "star-25-p0": (BoundaryCurve.star(), 25, "P0", "galerkin",
                   ConstraintMode.augmented_Vtilde, 16, 3.0, 1),
}


def captured_run(monkeypatch, name):
    """Run a case; return its result and the sector weights, data
    samples and group action that reached the march."""
    curve, n, kind, assembly, mode, m, final_time, order = CASES[name]
    march = stokes_solver.cq_march
    seen = {}

    def capture(seq, rhs, solve, action):
        seen.update(sector=seq.weights.copy(), rhs=rhs.copy(), action=action)
        return march(seq, rhs, solve, action)

    monkeypatch.setattr(stokes_solver, "cq_march", capture)
    res = run_simulation(curve, n, kind, mode,
                         CQScheme(order=3, kappa=final_time / m, n_steps=m),
                         manufactured_dirichlet_data(), [(0.1, 0.2)], CFG,
                         assembly=assembly)
    assert res.space.mesh.symmetry_order == order
    return res, seen


def full_weights(res):
    """The weights of the whole matrix ``V(s)``, as the package sampled
    them before the march kept one sector: each sample the assembler's
    sector rows, unfolded."""
    assemble = (assemble_nystrom_V if res.space.reduced
                else assemble_galerkin_V)
    return cq_weights(
        lambda s: np.array([unfold(rows, res.space)
                            for rows in assemble(res.space, s, CFG)]),
        res.scheme).weights


@pytest.mark.parametrize("name", CASES)
def test_sector_weights_are_the_first_rows_of_the_full_weights(monkeypatch,
                                                               name):
    """The weights the march gets are the first ``2 nb N / m`` rows of
    the whole matrix's weights, bit for bit: the transform treats every
    entry on its own."""
    res, seen = captured_run(monkeypatch, name)
    rows = res.space.dof_count // res.space.mesh.symmetry_order
    assert seen["action"].rows == rows
    assert seen["sector"].shape == (res.scheme.n_steps + 1, rows,
                                    res.space.dof_count)
    np.testing.assert_array_equal(seen["sector"], full_weights(res)[:, :rows])


@pytest.mark.parametrize("name", CASES)
def test_unfold_matches_the_full_weights(monkeypatch, name):
    """Unfolding the sector rows by rotation rebuilds the whole weights:
    ``W_0`` to 1e-15 of its largest entry, and every weight bit for bit
    where the mesh has no rotation (m = 1).

    The later weights agree under the contour floor only, here checked
    against ``sqrt(CONTOUR_EPSILON)`` times the largest weight (below the
    floor, which counts the largest sample).  The whole matrix's weights
    transform samples that were rotated first, and the transform's
    ``R^{-n}`` amplifies that rounding: up to 8.8e-10 of the largest
    weight on these cases, against about 1e-16 for ``W_0``."""
    res, seen = captured_run(monkeypatch, name)
    full = full_weights(res)
    unfolded = np.array([unfold(sector, res.space) for sector in seen["sector"]])
    if res.space.mesh.symmetry_order == 1:
        np.testing.assert_array_equal(unfolded, full)
    assert np.abs(unfolded[0] - full[0]).max() <= 1e-15 * np.abs(full[0]).max()
    peak = np.abs(full).max()
    assert np.abs(unfolded - full).max() <= np.sqrt(CONTOUR_EPSILON) * peak


@pytest.mark.parametrize("name", CASES)
def test_sector_march_matches_the_full_weight_march(monkeypatch, name):
    """The history agrees to 1e-12 of its largest entry with the march
    the package ran over whole matrices: the leading system factored
    from the whole ``W_0``, then per step one sum over every earlier
    step.  The whole weights are the unfolded sector rows, so the two
    marches differ in their arithmetic alone; at m = 1 they are the
    whole matrix's own weights (see the test above).  Fed the whole
    matrix's weights at m > 1, the histories move by up to 1.1e-11 of
    their largest entry on the star, from the weights' differences under
    the contour floor."""
    res, seen = captured_run(monkeypatch, name)
    whole = np.array([unfold(sector, res.space) for sector in seen["sector"]])
    solve = factor(constrain(whole[0], res.space, CASES[name][4]))
    rhs = seen["rhs"]
    lam = np.empty(rhs.shape)
    for n in range(rhs.shape[0]):
        tail = (np.einsum("mij,mj->i", whole[1:n + 1], lam[n - 1::-1])
                if n else 0.0)
        lam[n] = solve(rhs[n] - tail)
    assert np.abs(res.history - lam).max() <= 1e-12 * np.abs(lam).max()


def test_sector_action_applies_the_unfolded_matrix():
    """``place(S @ copies(lam))`` is the unfolded matrix times ``lam``,
    for a random sector on the square P1 (m = 4) and the star (m = 6)."""
    rng = np.random.default_rng(3)
    for curve, n, kind in [(BoundaryCurve.square(1.0), 8, "P1_discontinuous"),
                           (BoundaryCurve.star(), 12, "P0")]:
        space = stokesbem.build_space(stokesbem.build_mesh(curve, n), kind)
        action = sector_action(space)
        sector = rng.standard_normal((action.rows, space.dof_count))
        lam = rng.standard_normal(space.dof_count)
        want = unfold(sector, space) @ lam
        got = action.place(sector @ action.copies(lam))
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_copies_of_chosen_turns_are_columns_of_all_copies():
    """``copies(lam, turns)`` is ``copies(lam)[:, turns]`` bit for bit,
    for one density and for each density of a history, whatever the
    order of the turns, on the square P1 (m = 4) and the star (m = 6).
    The identity turn alone is a view of the densities."""
    rng = np.random.default_rng(4)
    for curve, n, kind, picks in [
            (BoundaryCurve.square(1.0), 8, "P1_discontinuous",
             ([0], [2], [3, 1], [0, 1, 2, 3])),
            (BoundaryCurve.star(), 12, "P0", ([0], [5], [0, 3], [4, 1, 2]))]:
        space = stokesbem.build_space(stokesbem.build_mesh(curve, n), kind)
        action = sector_action(space)
        history = rng.standard_normal((5, space.dof_count))
        for turns in picks:
            turns = np.array(turns)
            one = action.copies(history[0], turns)
            assert one.tobytes() == action.copies(history[0])[:, turns].tobytes()
            want = np.stack([action.copies(lam)[:, turns] for lam in history])
            got = action.copies(history, turns)
            assert got.shape == (5, space.dof_count, turns.size)
            assert got.tobytes() == want.tobytes()
            # the march's product takes its bits from a C-ordered operand
            assert one.flags.c_contiguous and got.flags.c_contiguous
            assert np.shares_memory(got, history) == (turns.tolist() == [0])


def test_turn_is_the_rotation_matrix():
    """``turn(v, k)`` is the product of ``Q_k = [[c, -s], [s, c]]``, ``c,
    s`` of ``2 pi k / m``, with each vector, bit for bit, for one turn
    and for an array of turns against a stack of point sets."""
    space = stokesbem.build_space(
        stokesbem.build_mesh(BoundaryCurve.star(), 12), "P0")
    action = sector_action(space)
    m = action.order
    points = np.random.default_rng(5).standard_normal((3, 7, 2))
    k = np.arange(m)[:, None, None]
    angle = 2.0 * np.pi * k / m
    q = np.array([[np.cos(angle), -np.sin(angle)],
                  [np.sin(angle), np.cos(angle)]])
    x, y = points[..., 0], points[..., 1]
    want = np.stack([q[0, 0] * x + q[0, 1] * y,
                     q[1, 0] * x + q[1, 1] * y], axis=-1)
    assert want.shape == (m, 3, 7, 2)
    assert action.turn(points, k).tobytes() == want.tobytes()
    assert action.turn(points, 2).tobytes() == want[2].tobytes()


def test_circle_run_peak_memory_holds_no_full_weights():
    """A circle run at N = M = 160 keeps the weights of one element's
    rows: the peak resident set of a fresh process rises by less than
    half of the ``(M + 1) dof^2`` float buffer (132 MB) that the whole
    weights took.  A small run first brings in the libraries, so the
    rise counts the run alone; ``VmHWM`` is the process's own high-water
    mark, as in the weight buffer's test."""
    script = (
        "from stokesbem import *\n"
        "def peak():\n"
        "    with open('/proc/self/status') as status:\n"
        "        return next(int(line.split()[1]) for line in status\n"
        "                    if line.startswith('VmHWM:'))\n"
        "def run(n):\n"
        "    run_simulation(BoundaryCurve.circle(1.0), n, 'P0', 'none',\n"
        "                   CQScheme(3, 1.0 / n, n),\n"
        "                   manufactured_dirichlet_data(), [(0.1, 0.2)],\n"
        "                   ProblemConfig(), assembly='reduced')\n"
        "run(8)\n"
        "before = peak()\n"
        "run(160)\n"
        "print(1024 * (peak() - before))\n"
    )
    src = os.path.dirname(os.path.dirname(stokesbem.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True, timeout=300)
    old_buffer = 161 * 320 * 320 * 8
    assert int(done.stdout) < old_buffer / 2
