import math

import numpy as np
import pytest

from gaborgrid import smoothness as smoothness_module
from gaborgrid.errors import GridMismatch
from gaborgrid.gabor import GaborSystem, analyze, synthesize
from gaborgrid.grid import (
    CoeffArray,
    GridLattice,
    GridSignal,
    PeriodicGrid,
    _superpose,
    sample_bump,
    sample_gaussian,
)
from gaborgrid.lattice import PowerWeight
from gaborgrid.smoothness import (
    MAX_DERIVATIVE_ORDER,
    _schwartz_rows,
    decay_profile,
)
from gaborgrid.spaces import SpaceSpec, continuous_norm

from conftest import (
    conjugate_reflection,
    convolve_samples,
    count_fft_calls,
    lattice_superposition,
    modulate,
    multi_indices,
    random_signal,
    schwartz_rows,
    schwartz_seminorm,
    smooth_random_signal,
    spectral_derivative,
)


@pytest.fixture(scope="module")
def ref_system():
    grid = PeriodicGrid(1, 16.0, 256)
    return GaborSystem.separable(sample_gaussian(grid), 1.0, 0.5)


def test_multi_indices():
    assert multi_indices(1, 2) == [(0,), (1,), (2,)]
    assert set(multi_indices(2, 1)) == {(0, 0), (0, 1), (1, 0)}


def test_seminorm_order_zero_is_space_norm(ref_grid, rng):
    # At order 0 the Schwartz seminorm is the sup norm.
    f = random_signal(ref_grid, rng)
    assert schwartz_seminorm(f, 0) == pytest.approx(
        continuous_norm(f, SpaceSpec("Lp_w", math.inf)), rel=1e-13
    )


def test_seminorm_constant_signal(ref_grid):
    # Every derivative of a constant vanishes, so the seminorm is |f| times
    # the largest weight, (1 + P/2)^order at the box corner.
    f = GridSignal(ref_grid, np.full(ref_grid.size, -3.0 + 0j))
    for order in (0, 2, 4):
        assert schwartz_seminorm(f, order) == pytest.approx(
            3.0 * (1 + ref_grid.period / 2) ** order, rel=1e-12)


def test_seminorm_gaussian_vs_finite_difference(ref_grid):
    f = sample_gaussian(ref_grid)
    got = schwartz_seminorm(f, 1)
    w = 1.0 + np.abs(ref_grid.centered_nodes()[:, 0])
    fd = (np.roll(f.values, -1) - np.roll(f.values, 1)) / (2 * ref_grid.spacing)
    oracle = max(np.max(np.abs(f.values) * w), np.max(np.abs(fd) * w))
    # Centered differences carry an O(spacing^2) bias near 8e-3 here.
    assert got == pytest.approx(oracle, abs=2e-2)
    assert got > np.max(np.abs(f.values) * w)


def test_seminorm_rejects_large_order(ref_grid, rng):
    with pytest.raises(ValueError):
        schwartz_seminorm(random_signal(ref_grid, rng), 7)


def test_schwartz_seminorm_monotone_in_order(ref_grid):
    f = sample_gaussian(ref_grid)
    vals = [schwartz_seminorm(f, n) for n in range(4)]
    assert all(a <= b * (1 + 1e-12) for a, b in zip(vals, vals[1:]))
    assert vals[0] == pytest.approx(1.0, abs=1e-12)  # peak of the Gaussian


def _seminorm_rows(grid, rng):
    """Two smooth rows and one noise row, with their forward DFTs."""
    rows = np.stack([smooth_random_signal(grid, rng).values,
                     smooth_random_signal(grid, rng).values,
                     random_signal(grid, rng).values])
    spectra = np.fft.fftn(rows.reshape((3,) + grid.shape),
                          axes=tuple(range(1, grid.dim + 1)))
    return rows, spectra


@pytest.mark.parametrize("grid", [
    PeriodicGrid(1, 16.0, 256), PeriodicGrid(1, 8.0, 33),
    PeriodicGrid(2, 4.0, 16), PeriodicGrid(2, 8.0, 32), PeriodicGrid(2, 8.0, 33),
], ids=["1d-256", "1d-33", "2d-16", "2d-32", "2d-33"])
def test_schwartz_rows_match_per_multi_index_oracle(grid):
    # The per-axis derivative stack against one full inverse DFT per
    # multi-index: the same arithmetic in 1-D, the row-column order of the
    # same transforms in 2-D.
    rows, spectra = _seminorm_rows(grid, np.random.default_rng(7))
    before = spectra.copy()
    for order in range(MAX_DERIVATIVE_ORDER + 1):
        got = _schwartz_rows(grid, rows, spectra, order)
        expected = schwartz_rows(grid, rows, spectra, order)
        if grid.dim == 1:
            assert np.array_equal(got, expected), order
        else:
            np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)
    assert np.array_equal(spectra, before)


def test_schwartz_rows_transform_one_axis_at_a_time(monkeypatch):
    # Order 4 on a 2-D block: 5 transforms along the last axis (one per
    # order b) and 14 along the first (one per alpha other than 0), no
    # full 2-D transform.
    grid = PeriodicGrid(2, 8.0, 32)
    rows, spectra = _seminorm_rows(grid, np.random.default_rng(7))
    counts = count_fft_calls(monkeypatch)
    _schwartz_rows(grid, rows, spectra, 4)
    assert counts == {"ifft": 19}


def test_superposition_delta_gives_translate(ref_grid):
    lat = GridLattice.cubic(ref_grid, 2.0)
    phi = sample_gaussian(ref_grid)
    vals = np.zeros(lat.count, dtype=complex)
    vals[3] = 1.0
    out = _superpose(lat, vals[None], np.fft.fftn(phi.reshaped()))[0]
    expected = np.roll(phi.values, int(lat.index_points[3, 0]))
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_superposition_disjoint_bumps_read_back(ref_grid, rng):
    lat = GridLattice.cubic(ref_grid, 1.0)
    chi = sample_bump(ref_grid, radius=0.45)
    c = rng.standard_normal(lat.count) + 1j * rng.standard_normal(lat.count)
    out = _superpose(lat, c[None], np.fft.fftn(chi.reshaped()))[0]
    # At each lattice site the superposition is exactly c_lambda * chi(. - lambda).
    for j, idx in enumerate(lat.index_points[:, 0]):
        assert out[idx] == pytest.approx(c[j] * chi.values[0], rel=1e-12)


def test_superposition_matches_double_loop(rng):
    grid = PeriodicGrid(1, 8.0, 64)
    lat = GridLattice.cubic(grid, 1.0)
    phi = sample_gaussian(grid, width=0.8)
    c = rng.standard_normal(lat.count) + 1j * rng.standard_normal(lat.count)
    out = _superpose(lat, c[None], np.fft.fftn(phi.reshaped()))[0]
    expected = np.zeros(grid.size, dtype=complex)
    for j in range(lat.count):
        s = int(lat.index_points[j, 0])
        for k in range(grid.size):
            expected[k] += c[j] * phi.values[(k - s) % grid.size]
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_convolution_identity_element(ref_grid):
    phi = sample_gaussian(ref_grid)
    lat = GridLattice.cubic(ref_grid, 1.0)
    delta = np.zeros(ref_grid.size)
    delta[0] = 1.0 / ref_grid.spacing
    out = convolve_samples(GridSignal(ref_grid, delta), phi, lat)
    expected = phi.values[lat.index_points[:, 0]]
    np.testing.assert_allclose(out.values, expected, atol=1e-10)


def test_convolution_even_symmetry(ref_grid):
    e = sample_gaussian(ref_grid, width=2.0)
    phi = sample_bump(ref_grid, radius=1.0)
    lat = GridLattice.cubic(ref_grid, 1.0)
    out = convolve_samples(e, phi, lat).values
    idx = lat.index_points[:, 0]
    lookup = dict(zip((idx % 256).tolist(), out))
    for k, v in lookup.items():
        assert v == pytest.approx(lookup[(-k) % 256], rel=1e-10, abs=1e-12)


def test_convolution_matches_quadrature_loop(rng):
    grid = PeriodicGrid(1, 8.0, 64)
    e = random_signal(grid, rng)
    phi = random_signal(grid, rng)
    lat = GridLattice.cubic(grid, 2.0)
    out = convolve_samples(e, phi, lat)
    for j, idx in enumerate(lat.index_points[:, 0]):
        s = sum(
            e.values[t] * phi.values[(idx - t) % grid.size] for t in range(grid.size)
        )
        assert abs(out.values[j] - grid.spacing * s) < 1e-12


def test_convolution_grid_mismatch(ref_grid, rng):
    other = PeriodicGrid(1, 8.0, 64)
    with pytest.raises(GridMismatch):
        convolve_samples(
            random_signal(ref_grid, rng),
            random_signal(other, np.random.default_rng(0)),
            GridLattice.cubic(other, 1.0),
        )


def test_analysis_slice_is_convolution(ref_system, rng):
    # Row lambda1 of the coefficient table equals the sampled convolution of
    # the demodulated signal against the conjugate reflection of the window.
    f = random_signal(ref_system.grid, rng)
    coeffs = analyze(ref_system, f).values
    kernel = conjugate_reflection(ref_system.window)
    for j in (0, 5, 17):
        lam1 = ref_system.freq_lattice.points[j, 0]
        demod = modulate(f, -lam1)
        expected = convolve_samples(demod, kernel, ref_system.time_lattice).values
        np.testing.assert_allclose(coeffs[:, j], expected, atol=1e-12)


def test_synthesis_modulation_decomposition(ref_system, rng):
    shape = (ref_system.time_lattice.count, ref_system.freq_lattice.count)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs = CoeffArray.over_product(ref_system.time_lattice, ref_system.freq_lattice, c)
    direct = synthesize(ref_system, coeffs)
    acc = np.zeros(ref_system.grid.size, dtype=complex)
    for j in range(shape[1]):
        col = CoeffArray.over_lattice(ref_system.time_lattice, c[:, j])
        branch = lattice_superposition(col, ref_system.window)
        lam1 = ref_system.freq_lattice.points[j, 0]
        acc += modulate(branch, lam1).values
    np.testing.assert_allclose(direct.values, acc, atol=1e-12 * np.max(np.abs(acc)))


@pytest.mark.parametrize("order", [1, 2])
def test_derivative_of_synthesis_binomial(ref_system, rng, order):
    # Exact in the continuum; on the grid it holds to discretization level
    # provided the coefficients decay before the frequency rim, where
    # modulation aliases across the Nyquist boundary.
    shape = (ref_system.time_lattice.count, ref_system.freq_lattice.count)
    lam1 = ref_system.freq_lattice.centered_points[:, 0]
    envelope = np.exp(-np.pi * lam1 ** 2 / 4.0)
    c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * envelope
    coeffs = CoeffArray.over_product(ref_system.time_lattice, ref_system.freq_lattice, c)
    lhs = spectral_derivative(synthesize(ref_system, coeffs), order).values

    rhs = np.zeros_like(lhs)
    for beta in range(order + 1):
        dpsi = (
            spectral_derivative(ref_system.window, order - beta)
            if order > beta
            else ref_system.window
        )
        for j in range(shape[1]):
            col = CoeffArray.over_lattice(ref_system.time_lattice, c[:, j])
            branch = lattice_superposition(col, dpsi)
            term = modulate(branch, ref_system.freq_lattice.points[j, 0]).values
            rhs += math.comb(order, beta) * (2j * np.pi * lam1[j]) ** beta * term
    scale = np.max(np.abs(lhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-8 * max(scale, 1.0)


# Profiles -------------------------------------------------------------------

L1_TAU3 = SpaceSpec("Lp_w", 1.0, weight=PowerWeight(3.0))


def test_profile_zero_signal(ref_system):
    z = GridSignal(ref_system.grid, np.zeros(ref_system.grid.size))
    prof = decay_profile(ref_system, z, L1_TAU3)
    assert np.all(prof.slice_norms == 0)
    assert prof.passes_decay()
    assert prof.bounded_order == 0
    assert prof.growth_sups[0] == 0.0


def test_profile_gaussian_rapid_decay(ref_system):
    f = sample_gaussian(ref_system.grid, width=math.sqrt(2.0), normalize=True)
    prof = decay_profile(ref_system, f, L1_TAU3)
    assert np.all(np.isfinite(prof.decay_sups))
    assert prof.passes_decay()
    assert prof.fitted_order < -2.0
    assert decay_profile(ref_system, f, L1_TAU3).bounded_order == 0


def test_profile_fitted_order_ignores_rounding_noise(ref_system, monkeypatch):
    # Noise of 1e-16 of the largest slice norm, the size of rounding, added
    # to the Gaussian's slice norms.  With a fit floor of 1e-15 * max it moved
    # fitted_order by 1.5e-4 to 4.4e-4 relative over these seeds; above the
    # 1e-10 * max floor it moves by at most 4.1e-10.
    f = sample_gaussian(ref_system.grid, width=math.sqrt(2.0), normalize=True)
    base = decay_profile(ref_system, f, L1_TAU3).fitted_order
    exact = smoothness_module.solid_discrete_norm
    for seed in range(5):
        rng = np.random.default_rng(seed)

        def noisy(coeffs, spec):
            norms = exact(coeffs, spec)
            return norms + 1e-16 * norms.max() * rng.random(norms.shape)

        monkeypatch.setattr(smoothness_module, "solid_discrete_norm", noisy)
        moved = decay_profile(ref_system, f, L1_TAU3).fitted_order
        assert moved == pytest.approx(base, rel=1e-7, abs=0)


def test_profile_oscillation_growth_only(ref_system):
    grid = ref_system.grid
    x = grid.axis_nodes()
    osc = GridSignal(grid, np.exp(2j * np.pi * 4.0 * x))
    osc = osc * (1.0 / osc.l2_norm())
    prof = decay_profile(ref_system, osc, L1_TAU3)
    assert not prof.passes_decay()
    assert prof.bounded_order == 0  # peak is interior, growth side is tame
    peak = prof.freq_points[np.argmax(prof.slice_norms), 0]
    assert peak == pytest.approx(4.0)


def test_profile_top_band_bounded_at_positive_order(ref_system):
    grid = ref_system.grid
    f = modulate(sample_gaussian(grid, normalize=True), 6.0)
    prof = decay_profile(ref_system, f, L1_TAU3)
    assert prof.bounded_order is not None
    assert 0 < prof.bounded_order <= 6


# Continuity scans ------------------------------------------------------------

def continuity_constant(op_norms, input_bounds):
    ratios = [n / b for n, b in zip(op_norms, input_bounds) if b > 0]
    return max(ratios)


def test_superposition_continuity_bound(ref_grid, rng):
    lat = GridLattice.cubic(ref_grid, 1.0)
    chi = sample_bump(ref_grid, radius=0.45)
    spec = SpaceSpec("Lp_w", 2.0)
    from gaborgrid.spaces import discrete_norm

    def sample(n):
        norms, bounds = [], []
        for _ in range(n):
            c = CoeffArray.over_lattice(
                lat, rng.standard_normal(lat.count) + 1j * rng.standard_normal(lat.count)
            )
            phi = smooth_random_signal(ref_grid, rng)
            out = GridSignal(ref_grid, _superpose(
                lat, c.values[None], np.fft.fftn(phi.reshaped()))[0])
            norms.append(continuous_norm(out, spec))
            bounds.append(
                discrete_norm(c, spec, chi)
                * schwartz_seminorm(phi, 4)
            )
        return continuity_constant(norms, bounds)

    c100 = sample(100)
    c200 = sample(100)  # fresh draw, same generator stream
    assert np.isfinite(c100) and c100 > 0
    assert max(c100, c200) / min(c100, c200) < 2.0


def test_convolution_continuity_bound(ref_grid, rng):
    lat = GridLattice.cubic(ref_grid, 1.0)
    chi = sample_bump(ref_grid, radius=0.45)
    spec = SpaceSpec("Lp_w", 2.0)
    from gaborgrid.spaces import discrete_norm

    constants = []
    for trial in range(2):
        norms, bounds = [], []
        for _ in range(100):
            e = random_signal(ref_grid, rng)
            phi = smooth_random_signal(ref_grid, rng)
            out = convolve_samples(e, phi, lat)
            norms.append(
                discrete_norm(out, spec, chi)
            )
            bounds.append(continuous_norm(e, spec) * schwartz_seminorm(phi, 4))
        constants.append(continuity_constant(norms, bounds))
    assert all(np.isfinite(c) and c > 0 for c in constants)
    assert max(constants) / min(constants) < 2.0
