import numpy as np
import pytest

from gaborgrid.errors import GridMismatch, ResourceLimit
from gaborgrid.gabor import GaborSystem, analyze
from gaborgrid.grid import (
    GridLattice,
    GridSignal,
    PeriodicGrid,
    sample_gaussian,
    translate,
)
from gaborgrid.lattice import Lattice
from gaborgrid.stft import derivative_identity_defect, stft

from conftest import random_signal


def direct_stft_entry(f, psi, k_idx, m_int):
    """O(L^n) quadrature sum for one (time node, frequency) pair; the node
    and label are ints in 1-d or index vectors."""
    grid = f.grid
    axes = tuple(range(grid.dim))
    shifted = np.roll(psi.reshaped(), np.atleast_1d(k_idx), axis=axes).ravel()
    phase = np.exp(-2j * np.pi * (grid.index_vectors() @ np.atleast_1d(m_int))
                   / grid.points_per_axis)
    return grid.spacing ** grid.dim * np.sum(f.values * np.conj(shifted) * phase)


@pytest.fixture
def grid16():
    return PeriodicGrid(1, 4.0, 16)


def test_stft_zero(grid16):
    z = GridSignal(grid16, np.zeros(16))
    psi = sample_gaussian(grid16, width=0.5)
    assert np.all(stft(z, psi).values == 0)


def test_stft_origin_is_squared_norm(ref_grid):
    psi = sample_gaussian(ref_grid)
    V = stft(psi, psi)
    assert V.values[0, 0] == pytest.approx(psi.l2_norm() ** 2, rel=1e-12)


def test_stft_single_entry_oracle(grid16, rng):
    f = random_signal(grid16, rng)
    psi = random_signal(grid16, rng)
    V = stft(f, psi)
    k, m = 3, 5
    expected = direct_stft_entry(f, psi, k, m)
    assert abs(V.values[k, m] - expected) < 1e-12


def test_stft_grid_mismatch(grid16, ref_grid, rng):
    with pytest.raises(GridMismatch):
        stft(random_signal(grid16, rng), random_signal(ref_grid, rng))


def test_stft_resource_limit():
    grid = PeriodicGrid(1, 16.0, 16384)
    f = GridSignal(grid, np.zeros(grid.size))
    with pytest.raises(ResourceLimit):
        stft(f, f)


def test_full_lattice_restriction_equals_stft(grid16, rng):
    f = random_signal(grid16, rng)
    psi = random_signal(grid16, rng)
    time_lat = GridLattice.cubic(grid16, grid16.spacing)
    freq_lat = GridLattice.cubic(grid16.reciprocal(), 1.0 / grid16.period)
    coeffs = analyze(GaborSystem(psi, time_lat, freq_lat), f)
    np.testing.assert_allclose(coeffs.values, stft(f, psi).values, atol=1e-12)


def test_time_decimated_restriction_is_row_slice(grid16, rng):
    f = random_signal(grid16, rng)
    psi = random_signal(grid16, rng)
    time_lat = GridLattice.cubic(grid16, 2.0)  # every 8th node
    freq_lat = GridLattice.cubic(grid16.reciprocal(), 1.0 / grid16.period)
    coeffs = analyze(GaborSystem(psi, time_lat, freq_lat), f)
    np.testing.assert_allclose(coeffs.values, stft(f, psi).values[::8], atol=1e-12)


def test_lattice_entries_match_direct_quadrature(rng):
    grid = PeriodicGrid(1, 8.0, 32)
    f = random_signal(grid, rng)
    psi = random_signal(grid, rng)
    time_lat = GridLattice.cubic(grid, 1.0)      # 4-sample hop
    freq_lat = GridLattice.cubic(grid.reciprocal(), 0.5)  # 4-bin hop
    coeffs = analyze(GaborSystem(psi, time_lat, freq_lat), f)
    for i, t_idx in enumerate(time_lat.index_points[:, 0]):
        for j, m_idx in enumerate(freq_lat.index_points[:, 0]):
            expected = direct_stft_entry(f, psi, int(t_idx), int(m_idx))
            assert abs(coeffs.values[i, j] - expected) < 1e-12


def test_sheared_lattice_entries_match_direct_quadrature(rng):
    grid = PeriodicGrid(2, 2.0, 8)
    f = random_signal(grid, rng)
    psi = random_signal(grid, rng)
    # Sheared generators in both planes: node steps (2, 0), (1, 2) and bin
    # steps (2, 0), (1, 2).
    time_lat = GridLattice(Lattice(np.array([[0.5, 0.25], [0.0, 0.5]])), grid)
    freq_lat = GridLattice(Lattice(np.array([[1.0, 0.5], [0.0, 1.0]])), grid.reciprocal())
    coeffs = analyze(GaborSystem(psi, time_lat, freq_lat), f)
    assert coeffs.values.shape == (time_lat.count, freq_lat.count) == (16, 16)
    for i, k in enumerate(time_lat.index_points):
        for j, m in enumerate(freq_lat.index_points):
            expected = direct_stft_entry(f, psi, k, m)
            assert abs(coeffs.values[i, j] - expected) < 1e-12


def test_covariance_under_translation(grid16, rng):
    f = random_signal(grid16, rng)
    psi = sample_gaussian(grid16, width=0.5)
    shift_nodes = 4
    u = shift_nodes * grid16.spacing
    V = stft(f, psi).values
    Vt = stft(translate(f, u), psi).values
    xi = grid16.freq_nodes()[:, 0]
    expected = np.exp(-2j * np.pi * xi * u)[None, :] * np.roll(V, shift_nodes, axis=0)
    np.testing.assert_allclose(Vt, expected, atol=1e-12)


def test_linearity_and_antilinearity(grid16, rng):
    f = random_signal(grid16, rng)
    g = random_signal(grid16, rng)
    psi = random_signal(grid16, rng)
    a = 1.3 - 0.7j
    lhs = stft(GridSignal(grid16, f.values + a * g.values), psi).values
    rhs = stft(f, psi).values + a * stft(g, psi).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    lhs = stft(f, GridSignal(grid16, a * psi.values)).values
    rhs = np.conj(a) * stft(f, psi).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_moyal_energy(grid16, rng):
    f = random_signal(grid16, rng)
    psi = random_signal(grid16, rng)
    V = stft(f, psi).values
    cell = grid16.spacing * (1.0 / grid16.period)
    total = cell * np.sum(np.abs(V) ** 2)
    assert total == pytest.approx((f.l2_norm() * psi.l2_norm()) ** 2, rel=1e-10)


def test_derivative_identity_trivial_order(grid16, rng):
    f = random_signal(grid16, rng)
    psi = random_signal(grid16, rng)
    assert derivative_identity_defect(f, psi, 0) == 0.0


def test_derivative_identity_gaussians(ref_grid):
    f = sample_gaussian(ref_grid)
    psi = sample_gaussian(ref_grid)
    assert derivative_identity_defect(f, psi, 1) <= 1e-8
    assert derivative_identity_defect(f, psi, 2) <= 1e-6


def test_stft_two_dimensional_entry_oracle():
    grid = PeriodicGrid(2, 2.0, 8)
    rng = np.random.default_rng(12)
    f = random_signal(grid, rng)
    psi = random_signal(grid, rng)
    V = stft(f, psi).values
    k = (3, 1)
    m = (2, -3)
    idx = grid.index_vectors()
    shifted = np.roll(psi.reshaped(), shift=k, axis=(0, 1)).ravel()
    phase = np.exp(-2j * np.pi * (idx @ np.array(m)) / grid.points_per_axis)
    expected = grid.spacing ** 2 * np.sum(f.values * np.conj(shifted) * phase)
    flat_time = k[0] * 8 + k[1]
    flat_bin = (m[0] % 8) * 8 + (m[1] % 8)
    assert abs(V[flat_time, flat_bin] - expected) < 1e-12


def test_derivative_identity_two_dimensional():
    # Spacing 1/8 keeps the Gaussian's spectral aliasing below the mark;
    # coarser 2-d grids leave O(1e-2) defects.
    grid = PeriodicGrid(2, 8.0, 64)
    f = sample_gaussian(grid)
    psi = sample_gaussian(grid)
    assert derivative_identity_defect(f, psi, (1, 1)) <= 1e-8
