"""Seeded sweep of the Zak-fiber frame operator against independent oracles.

Bounds are compared with ``eigvalsh`` of the dense frame matrix and with the
eigenvalues of the coset blocks of S (``_block_oracle``), the dual window
with the per-block solve, with reconstruction of random signals and with
the Wexler-Raz residual over the adjoint lattice F^perp x A^perp, and that
residual with a direct scan of inner products over the adjoint.  Both
annihilators are read off FFTs of lattice indicators (``_fft_annihilator``).
Each system is run with a Gaussian window and with a seeded random complex
window.
"""

import numpy as np
import pytest

from gaborgrid.gabor import (
    GaborSystem,
    _dense_frame_matrix,
    _reconstruction_enclosure,
    analyze,
    dual_window,
    frame_bounds,
    reconstruction_error,
    wexler_raz_residual,
)
from gaborgrid.grid import (
    GridLattice,
    GridSignal,
    PeriodicGrid,
    _flat_index,
    _tiled_windows,
    _translates,
    sample_gaussian,
)
from gaborgrid.lattice import Lattice
from gaborgrid.stft import stft

from conftest import frame_apply, random_signal, record_fft_shapes

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
    # |F| = 18 in a (6, 6) fold: the cosets of F^perp fill half of it.
    "2d-sheared-zero-fill-r4.5": (6.0, 12, [[1.0, 0.0], [0.0, 1.0]],
                                  [[1 / 3, 0.0], [1 / 3, 2 / 3]]),
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


def _fft_annihilator(lattice):
    """(count, dim) sorted index vectors of the annihilator of the grid
    lattice on the paired grid, read off one FFT of the lattice's indicator:
    the character sum over the lattice equals its count exactly on the
    annihilator and vanishes elsewhere."""
    indicator = np.zeros(lattice.grid.shape)
    indicator.flat[lattice._flat_points] = 1.0
    char_sum = np.fft.fftn(indicator).ravel()
    return lattice.grid.index_vectors()[np.abs(char_sum - lattice.count) < 0.5]


def _block_oracle(system):
    """(cosets, blocks) of the frame operator over the cosets of F^perp.

    ``cosets`` is the (|F|, |F^perp|) array of flat grid points, one row per
    coset of the annihilator F^perp; ``blocks[b]`` is S restricted to row b,
    h |F| W_B W_B^H.
    """
    grid = system.grid
    [table] = _translates(_tiled_windows(system.window.reshaped()),
                           system.time_lattice.index_points)
    annihilator = _fft_annihilator(system.freq_lattice)
    members = _flat_index(grid, grid.index_vectors()[:, None, :] + annihilator[None, :, :])
    # Label each point by the smallest point of its coset; the cosets all
    # have |F^perp| points, so sorting by label gives whole rows.
    order = np.argsort(members.min(axis=1), kind="stable")
    cosets = order.reshape(-1, annihilator.shape[0])
    WB = table.T[cosets]
    scale = grid.spacing ** grid.dim * system.freq_lattice.count
    return cosets, scale * (WB @ WB.conj().transpose(0, 2, 1))


def _wexler_raz_scan(system, gamma):
    """Wexler-Raz residual by a direct scan, independent of analyze and of
    the package's adjoint lattices.

    Rolls the window over F^perp and takes its inner products with gamma
    against the modulations of A^perp, both from ``_fft_annihilator``; the
    largest deviation from |F^perp| |A^perp| / size (1/redundancy) at the
    origin and 0 elsewhere.
    """
    grid = system.grid
    adj_time = _fft_annihilator(system.freq_lattice)
    adj_freq = _fft_annihilator(system.time_lattice)
    L = grid.points_per_axis
    prod = (grid.index_vectors() @ adj_freq.T) % L
    phases = np.exp(2j * np.pi * prod / L)
    cell = grid.spacing ** grid.dim
    gbar = np.conj(gamma.values)
    axes = tuple(range(grid.dim))
    worst = 0.0
    for i, idx in enumerate(adj_time):
        shifted = np.roll(system.window.reshaped(), shift=tuple(idx), axis=axes).ravel()
        inner = cell * (phases.T @ (shifted * gbar))
        if i == 0:
            inner[0] -= len(adj_time) * len(adj_freq) / grid.size
        worst = max(worst, float(np.max(np.abs(inner))))
    return worst


def _assert_wexler_raz_matches_scan(system, gamma):
    """The residual of gamma and of a 1e-3 perturbation of it against the scan."""
    perturbed = GridSignal(system.grid, 1.01 * gamma.values + 1e-3 * system.window.values)
    for dual in (gamma, perturbed):
        expected = _wexler_raz_scan(system, dual)
        assert wexler_raz_residual(system, dual) == pytest.approx(expected, rel=1e-12,
                                                                  abs=1e-14)


@pytest.mark.parametrize("kind", WINDOWS)
@pytest.mark.parametrize("name", ALL)
def test_bounds_match_dense_oracle(name, kind):
    system = make_system(name, kind)
    eigs = np.linalg.eigvalsh(_dense_frame_matrix(system))
    block_eigs = np.sort(np.linalg.eigvalsh(_block_oracle(system)[1]).ravel())
    cert = frame_bounds(system)
    assert cert.method == "zak-fiber"
    # |F| |H| fibers of p x q: their rows tile the grid, q / p is the redundancy.
    count, p, q = cert.fiber_shape
    assert count * p == system.grid.size
    assert q / p == pytest.approx(system.redundancy, rel=1e-15)
    for oracle in (eigs, block_eigs):
        assert abs(cert.upper - oracle[-1]) <= 1e-12 * oracle[-1]
        if system.redundancy < 1.0:
            assert cert.lower == 0.0
            assert oracle[0] <= 1e-12 * oracle[-1]
        else:
            assert abs(cert.lower - oracle[0]) <= 1e-12 * oracle[-1]


@pytest.mark.parametrize("kind", WINDOWS)
@pytest.mark.parametrize("name", FRAMES)
def test_dual_reconstructs(name, kind):
    system = make_system(name, kind)
    gamma = dual_window(system)
    rng = np.random.default_rng(7)
    for _ in range(3):
        assert reconstruction_error(system, gamma, random_signal(system.grid, rng)) <= 1e-10


@pytest.mark.parametrize("kind", WINDOWS)
@pytest.mark.parametrize("name", FRAMES)
def test_fiber_dual_matches_block_solve(name, kind):
    system = make_system(name, kind)
    cosets, blocks = _block_oracle(system)
    expected = np.empty(system.grid.size, dtype=complex)
    expected[cosets] = np.linalg.solve(blocks, system.window.values[cosets][..., None])[..., 0]
    got = dual_window(system).values
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def _dense_reconstruction(system, gamma):
    """D_gamma C_psi as a dense matrix, h (W_gamma W_psi^H) o (E E^H), the
    product factorization of ``_dense_frame_matrix`` with gamma on the left."""
    grid = system.grid
    points = system.time_lattice.index_points
    [psi] = _translates(_tiled_windows(system.window.reshaped()), points)
    [dual] = _translates(_tiled_windows(gamma.reshaped()), points)
    L = grid.points_per_axis
    phases = np.exp(2j * np.pi * (grid.index_vectors() @ system.freq_lattice.index_points.T % L) / L)
    return grid.spacing ** grid.dim * (dual.T @ psi.conj()) * (phases @ phases.conj().T)


@pytest.mark.parametrize("kind", WINDOWS)
@pytest.mark.parametrize("name", FRAMES)
def test_reconstruction_enclosure_contains_dense_norm(name, kind):
    system = make_system(name, kind)
    grid = system.grid
    gamma = dual_window(system)
    rng = np.random.default_rng(ALL.index(name))
    noise = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    perturbed = GridSignal(grid, gamma.values + 1e-3 * np.max(np.abs(gamma.values)) * noise)
    phi = system._fibers[0]
    p = phi.shape[2]
    scale = grid.spacing ** grid.dim * system.freq_lattice.count
    for dual in (gamma, perturbed):
        dense = np.linalg.norm(np.eye(grid.size) - _dense_reconstruction(system, dual), 2)
        lower, upper = _reconstruction_enclosure(system, dual)
        assert lower <= dense <= upper
        if dual is gamma:
            assert upper <= 1e-12
            continue
        # The largest spectral norm over the fibers is the dense norm; with
        # one row per fiber it is the Frobenius norm the enclosure is built on.
        m = scale * (GaborSystem(dual, system.time_lattice, system.freq_lattice)._fibers[0]
                     @ phi.conj().swapaxes(-1, -2)) - np.eye(p)
        fibers = np.max(np.linalg.norm(m, 2, axis=(-2, -1)))
        assert fibers == pytest.approx(dense, rel=1e-12)
        if p == 1:
            assert lower == pytest.approx(dense, rel=1e-12)
            assert upper == pytest.approx(dense, rel=1e-12)


# name: (period, L, time step, freq step, (p, q)); the window factorization
# shapes of Soendergaard (2012), p = a / c and q = M / c with c = gcd(a, M),
# a the time step in samples and M the number of frequency bins.
FIBER_SHAPES = {
    "L90-a6-M9": (15.0, 90, 1.0, 2 / 3, (2, 3)),
    "L240-a3-M10": (20.0, 240, 0.25, 1.2, (3, 10)),
}


@pytest.mark.parametrize("name", sorted(FIBER_SHAPES))
def test_fiber_shapes(name):
    period, L, a, b, (p, q) = FIBER_SHAPES[name]
    system = GaborSystem.separable(sample_gaussian(PeriodicGrid(1, period, L)), a, b)
    cert = frame_bounds(system)
    assert cert.fiber_shape == (L // p, p, q)
    eigs = np.linalg.eigvalsh(_dense_frame_matrix(system))
    assert abs(cert.lower - eigs[0]) <= 1e-12 * eigs[-1]
    assert abs(cert.upper - eigs[-1]) <= 1e-12 * eigs[-1]
    gamma = dual_window(system)
    f = random_signal(system.grid, np.random.default_rng(3))
    assert reconstruction_error(system, gamma, f) <= 1e-12
    assert wexler_raz_residual(system, gamma) <= 1e-12


def _random_lattice(rng, grid, L):
    """A grid lattice with a seeded nonsingular integer generator whose
    entries are a divisor of L times -3..3: sheared, negative and
    beyond-the-period steps, coarse and fine subgroups."""
    divisors = [d for d in range(1, L + 1) if L % d == 0]
    while True:
        steps = rng.choice(divisors, size=(grid.dim, grid.dim)) * rng.integers(
            -3, 4, size=(grid.dim, grid.dim))
        if round(abs(np.linalg.det(steps))) > 0:
            return GridLattice(Lattice(steps * grid.spacing), grid)


@pytest.mark.parametrize("seed", range(16))
def test_fibers_match_dense_on_random_lattices(seed):
    rng = np.random.default_rng(seed)
    dim = 1 + seed % 2
    L = int(rng.choice([6, 9, 10, 12]) if dim == 2 else rng.choice([18, 27, 30, 45, 48]))
    grid = PeriodicGrid(dim, L / 3, L)
    system = GaborSystem(random_signal(grid, rng), _random_lattice(rng, grid, L),
                         _random_lattice(rng, grid.reciprocal(), L))
    cert = frame_bounds(system)
    count, p, q = cert.fiber_shape
    assert count * p == grid.size and q / p == pytest.approx(system.redundancy, rel=1e-15)
    dense = _dense_frame_matrix(system)
    # Analysis and synthesis on the fibers, undersampled systems included.
    f = random_signal(grid, rng)
    expected = dense @ f.values
    np.testing.assert_allclose(frame_apply(system, f).values, expected,
                               rtol=0, atol=1e-12 * np.max(np.abs(expected)))
    eigs = np.linalg.eigvalsh(dense)
    assert abs(cert.upper - eigs[-1]) <= 1e-12 * eigs[-1]
    if system.redundancy < 1.0:
        assert cert.lower == 0.0
    else:
        assert abs(cert.lower - eigs[0]) <= 1e-12 * eigs[-1]
    if cert.lower > 1e-6 * cert.upper:
        gamma = dual_window(system)
        residual = frame_apply(system, gamma).values - system.window.values
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(system.window.values)
        # Most frames drawn here have a continuum adjoint off the grid.
        assert wexler_raz_residual(system, gamma) <= 1e-10
        _assert_wexler_raz_matches_scan(system, gamma)


@pytest.mark.parametrize("kind", WINDOWS)
@pytest.mark.parametrize("name", FRAMES)
def test_wexler_raz_of_block_dual(name, kind):
    system = make_system(name, kind)
    gamma = dual_window(system)
    assert wexler_raz_residual(system, gamma) <= 1e-10


@pytest.mark.parametrize("name", FRAMES)
def test_adjoint_time_lattice_is_annihilator(name):
    # The adjoint time lattice is F^perp, the zero coset of the frame blocks.
    system = make_system(name, "gaussian")
    cosets, _ = _block_oracle(system)
    adj_time, _ = system._adjoint
    flat = np.ravel_multi_index(adj_time.index_points.T, system.grid.shape)
    np.testing.assert_array_equal(np.sort(flat), np.sort(cosets[0]))


@pytest.mark.parametrize("name", FRAMES)
def test_adjoint_freq_lattice_is_annihilator(name):
    # The adjoint frequency lattice is A^perp, the bins where the character
    # sum over the time lattice A equals |A|.
    system = make_system(name, "gaussian")
    _, adj_freq = system._adjoint
    np.testing.assert_array_equal(adj_freq.index_points, _fft_annihilator(system.time_lattice))


@pytest.mark.parametrize("kind", WINDOWS)
@pytest.mark.parametrize("name", FRAMES)
def test_wexler_raz_matches_scan_oracle(name, kind):
    system = make_system(name, kind)
    _assert_wexler_raz_matches_scan(system, dual_window(system))


# name: the (n_1, ..., n_d) shape that analysis and synthesis fold to, L / gcd
# of L and the bin coordinates of F per axis.
FOLDS = {
    "1d-L90-r1.5": (9,),
    "2d-L12-r4": (4, 4),
    "2d-sheared-time-r4": (4, 4),
    # F's bins (3, 0) and (1, 3) leave no fold along axis 0.
    "2d-sheared-freq-r2": (12, 4),
    # F's bins (2, 2) and (0, 4) fold both axes to 6, and the fold has twice
    # as many points as F.
    "2d-sheared-zero-fill-r4.5": (6, 6),
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
    assert system._fibers[1].shape == FOLDS[name]
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
