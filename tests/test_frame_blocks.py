"""Seeded sweep of the block-diagonal frame operator against independent oracles.

Bounds are compared with ``eigvalsh`` of the dense frame matrix, the dual
window with reconstruction of random signals and with the Wexler-Raz residual
over the adjoint lattice, and that residual on separable systems with a
direct scan over the adjoint lattice.  Each system is run with a Gaussian
window and with a seeded random complex window.
"""

import numpy as np
import pytest

from gaborgrid.errors import NonAlignedLattice
from gaborgrid.gabor import (
    GaborSystem,
    _adjoint_lattices,
    _dense_frame_matrix,
    _frame_blocks,
    _tables,
    analyze,
    dual_window,
    frame_apply,
    frame_bounds,
    reconstruction_error,
    wexler_raz_residual,
)
from gaborgrid.grid import GridLattice, GridSignal, PeriodicGrid, sample_gaussian
from gaborgrid.lattice import Lattice
from gaborgrid.stft import stft

from conftest import random_signal, record_fft_shapes

# name: (dim, period, L, time step, freq step); non-power-of-two L/P ratios.
SEPARABLE = {
    "1d-L48-r0.5": (1, 12.0, 48, 2.0, 1.0),
    "1d-L48-r12": (1, 12.0, 48, 0.5, 1 / 6),
    "1d-L90-r0.5": (1, 15.0, 90, 5 / 3, 1.2),
    "1d-L90-r1.5": (1, 15.0, 90, 1.0, 2 / 3),
    "1d-L240-r4": (1, 20.0, 240, 5 / 12, 0.6),
    "2d-L12-r4": (2, 6.0, 12, 1.0, 0.5),
}
# name: (period, L, time generator, freq generator); 2-d, columns generate.
SHEARED = {
    "2d-sheared-time-r4": (6.0, 12, [[1.0, 0.5], [0.0, 1.0]], [[0.5, 0.0], [0.0, 0.5]]),
    "2d-sheared-freq-r2": (6.0, 12, [[1.0, 0.0], [0.0, 2.0]], [[0.5, 1 / 6], [0.0, 0.5]]),
}
WINDOWS = ("gaussian", "random")


def _window(grid, name, kind):
    if kind == "gaussian":
        return sample_gaussian(grid)
    return random_signal(grid, np.random.default_rng(ALL.index(name)))


def make_system(name, kind):
    if name in SEPARABLE:
        dim, period, L, a, b = SEPARABLE[name]
        grid = PeriodicGrid(dim, period, L)
        return GaborSystem.separable(_window(grid, name, kind), a, b)
    period, L, tgen, fgen = SHEARED[name]
    grid = PeriodicGrid(2, period, L)
    return GaborSystem(
        _window(grid, name, kind),
        GridLattice(Lattice(np.array(tgen)), grid),
        GridLattice(Lattice(np.array(fgen)), grid.reciprocal()),
    )


ALL = sorted(SEPARABLE) + sorted(SHEARED)
FRAMES = [name for name in ALL if make_system(name, "gaussian").redundancy >= 1.0]
# The continuum dual of this frequency lattice is off the grid.
OFF_GRID_ADJOINT = "2d-sheared-freq-r2"
ALIGNED = [name for name in FRAMES if name != OFF_GRID_ADJOINT]


def _wexler_raz_scan(psi, gamma, a, b):
    """Separable Wexler-Raz residual by a direct scan, independent of analyze.

    Rolls psi over the adjoint time lattice (1/b) Z^n and takes its inner
    products with gamma against the modulations of the adjoint frequency
    lattice (1/a) Z^n; the largest deviation from (ab)^n at the origin and
    0 elsewhere.
    """
    grid = psi.grid
    adj_time = GridLattice.cubic(grid, 1.0 / b)
    adj_freq = GridLattice.cubic(grid.reciprocal(), 1.0 / a)
    L = grid.points_per_axis
    prod = (grid.index_vectors() @ adj_freq.index_points.T) % L
    phases = np.exp(2j * np.pi * prod / L)
    cell = grid.spacing ** grid.dim
    gbar = np.conj(gamma.values)
    axes = tuple(range(grid.dim))
    worst = 0.0
    for i, idx in enumerate(adj_time.index_points):
        shifted = np.roll(psi.reshaped(), shift=tuple(idx), axis=axes).ravel()
        inner = cell * (phases.T @ (shifted * gbar))
        if i == 0:
            inner[0] -= (a * b) ** grid.dim
        worst = max(worst, float(np.max(np.abs(inner))))
    return worst


@pytest.mark.parametrize("kind", WINDOWS)
@pytest.mark.parametrize("name", ALL)
def test_bounds_match_dense_oracle(name, kind):
    system = make_system(name, kind)
    eigs = np.linalg.eigvalsh(_dense_frame_matrix(system))
    cert = frame_bounds(system)
    assert cert.method == "block-eigen"
    assert cert.blocks == system.freq_lattice.count
    assert cert.blocks * cert.block_size == system.grid.size
    assert abs(cert.upper - eigs[-1]) <= 1e-10 * eigs[-1]
    if system.redundancy < 1.0:
        assert cert.lower == 0.0
        assert eigs[0] <= 1e-10 * eigs[-1]
    else:
        assert abs(cert.lower - eigs[0]) <= 1e-10 * eigs[-1]


@pytest.mark.parametrize("kind", WINDOWS)
@pytest.mark.parametrize("name", FRAMES)
def test_dual_reconstructs(name, kind):
    system = make_system(name, kind)
    gamma = dual_window(system, tol=1e-12)
    rng = np.random.default_rng(7)
    for _ in range(3):
        assert reconstruction_error(system, gamma, random_signal(system.grid, rng)) <= 1e-10


@pytest.mark.parametrize("kind", WINDOWS)
@pytest.mark.parametrize("name", ALIGNED)
def test_wexler_raz_of_block_dual(name, kind):
    system = make_system(name, kind)
    gamma = dual_window(system, tol=1e-12)
    assert wexler_raz_residual(system, gamma) <= 1e-10


@pytest.mark.parametrize("kind", WINDOWS)
def test_wexler_raz_off_grid_adjoint(kind):
    system = make_system(OFF_GRID_ADJOINT, kind)
    gamma = dual_window(system, tol=1e-12)
    with pytest.raises(NonAlignedLattice):
        wexler_raz_residual(system, gamma)


@pytest.mark.parametrize("name", ALIGNED)
def test_adjoint_time_lattice_is_annihilator(name):
    # The adjoint time lattice is F^perp, the zero coset of the frame blocks.
    system = make_system(name, "gaussian")
    cosets, _ = _frame_blocks(system)
    adj_time, _ = _adjoint_lattices(system)
    flat = np.ravel_multi_index(adj_time.index_points.T, system.grid.shape)
    np.testing.assert_array_equal(np.sort(flat), np.sort(cosets[0]))


@pytest.mark.parametrize("kind", WINDOWS)
@pytest.mark.parametrize("name", [n for n in FRAMES if n in SEPARABLE])
def test_wexler_raz_matches_scan_oracle(name, kind):
    _, _, _, a, b = SEPARABLE[name]
    system = make_system(name, kind)
    gamma = dual_window(system, tol=1e-12)
    perturbed = GridSignal(system.grid, 1.01 * gamma.values + 1e-3 * system.window.values)
    for dual in (gamma, perturbed):
        expected = _wexler_raz_scan(system.window, dual, a, b)
        assert wexler_raz_residual(system, dual) == pytest.approx(expected, rel=1e-12,
                                                                  abs=1e-14)


# name: the (n_1, ..., n_d) shape that analysis and synthesis fold to, L / gcd
# of L and the bin coordinates of F per axis.
FOLDS = {
    "1d-L90-r1.5": (9,),
    "2d-L12-r4": (4, 4),
    "2d-sheared-time-r4": (4, 4),
    # F's bins (3, 0) and (1, 3) leave no fold along axis 0.
    "2d-sheared-freq-r2": (12, 4),
}


@pytest.mark.parametrize("kind", WINDOWS)
@pytest.mark.parametrize("name", sorted(FOLDS))
def test_folded_analysis_matches_stft(name, kind, monkeypatch):
    system = make_system(name, kind)
    grid = system.grid
    f = random_signal(grid, np.random.default_rng(7))
    # The full STFT sampled at the time nodes and bins of the lattice.
    rows = system.time_lattice._flat_points
    bins = system.freq_lattice._flat_points
    expected = stft(f, system.window).values[np.ix_(rows, bins)]
    assert _tables(system)[1] == FOLDS[name]
    shapes = record_fft_shapes(monkeypatch)
    got = analyze(system, f).values
    assert shapes == [("fftn", (1, system.time_lattice.count) + FOLDS[name])]
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))


@pytest.mark.parametrize("kind", WINDOWS)
@pytest.mark.parametrize("name", sorted(FOLDS))
def test_folded_synthesis_matches_dense_frame_matrix(name, kind, monkeypatch):
    system = make_system(name, kind)
    f = random_signal(system.grid, np.random.default_rng(8))
    expected = _dense_frame_matrix(system) @ f.values
    shapes = record_fft_shapes(monkeypatch)
    got = frame_apply(system, f).values
    folded = (1, system.time_lattice.count) + FOLDS[name]
    assert shapes == [("fftn", folded), ("ifftn", folded)]
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))
