"""Seeded sweep of the block-diagonal frame operator against independent oracles.

Bounds are compared with ``eigvalsh`` of the dense frame matrix, the dual
window with reconstruction of random signals, and separable systems with the
Wexler-Raz scan over the adjoint lattice.  Each system is run with a Gaussian
window and with a seeded random complex window.
"""

import numpy as np
import pytest

from gaborgrid.gabor import (
    GaborSystem,
    _dense_frame_matrix,
    dual_window,
    frame_bounds,
    reconstruction_error,
    wexler_raz_residual,
)
from gaborgrid.grid import GridLattice, PeriodicGrid, sample_gaussian
from gaborgrid.lattice import Lattice

from conftest import random_signal

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
@pytest.mark.parametrize("name", [n for n in FRAMES if n in SEPARABLE])
def test_wexler_raz_of_block_dual(name, kind):
    _, _, _, a, b = SEPARABLE[name]
    system = make_system(name, kind)
    gamma = dual_window(system, tol=1e-12)
    assert wexler_raz_residual(system.window, gamma, a, b) <= 1e-10
