import math
import tracemalloc

import numpy as np
import pytest

from gaborgrid.errors import (
    IndexMismatch,
    NotAFrame,
    ZeroSignal,
)
from gaborgrid import grid as grid_module
from gaborgrid.gabor import (
    GaborSystem,
    _dense_frame_matrix,
    analyze,
    dual_window,
    frame_bounds,
    reconstruction_error,
    synthesize,
    wexler_raz_residual,
)
from gaborgrid.grid import (
    CoeffArray,
    GridLattice,
    GridSignal,
    PeriodicGrid,
    sample_gaussian,
    sample_rectangle,
)

from conftest import count_fft_calls, frame_apply, modulate, random_signal


@pytest.fixture(scope="module")
def ref_system():
    grid = PeriodicGrid(1, 16.0, 256)
    return GaborSystem.separable(sample_gaussian(grid), 1.0, 0.5)


@pytest.fixture(scope="module")
def ref_dense_eigs(ref_system):
    return np.linalg.eigvalsh(_dense_frame_matrix(ref_system))


@pytest.fixture
def small_system():
    grid = PeriodicGrid(1, 8.0, 32)
    return GaborSystem.separable(sample_gaussian(grid, width=0.75), 1.0, 0.5)


def dense_operator_matrices(system):
    """Dense analysis/synthesis matrices built through the public operators."""
    grid = system.grid
    K = system.coefficient_count
    A = np.empty((K, grid.size), dtype=complex)
    B = np.empty((grid.size, K), dtype=complex)
    for t in range(grid.size):
        e = np.zeros(grid.size, dtype=complex)
        e[t] = 1.0
        A[:, t] = analyze(system, GridSignal(grid, e)).values.ravel()
    for k in range(K):
        c = np.zeros(K, dtype=complex)
        c[k] = 1.0
        coeffs = CoeffArray.over_product(
            system.time_lattice,
            system.freq_lattice,
            c.reshape(system.time_lattice.count, system.freq_lattice.count),
        )
        B[:, k] = synthesize(system, coeffs).values
    return A, B


def test_redundancy(ref_system):
    assert ref_system.time_lattice.count == 16
    assert ref_system.freq_lattice.count == 32
    assert ref_system.redundancy == pytest.approx(2.0)


def test_analyze_equals_lattice_stft(small_system, rng):
    from gaborgrid.stft import stft

    f = random_signal(small_system.grid, rng)
    # Rows of the full STFT at the time lattice, bins at the frequency lattice.
    rows = small_system.time_lattice.index_points[:, 0]
    bins = small_system.freq_lattice.index_points[:, 0]
    direct = stft(f, small_system.window).values[np.ix_(rows, bins)]
    np.testing.assert_allclose(
        analyze(small_system, f).values, direct, atol=1e-13
    )


def test_analyze_zero(ref_system):
    z = GridSignal(ref_system.grid, np.zeros(ref_system.grid.size))
    assert np.all(analyze(ref_system, z).values == 0)


def test_analyze_matches_dense_matrix_oracle(small_system, rng):
    grid = small_system.grid
    f = random_signal(grid, rng)
    # Explicit row construction: conj(modulate(translate(psi))) * spacing.
    psi = small_system.window
    got = analyze(small_system, f).values
    for i, lam0 in enumerate(small_system.time_lattice.points[:, 0]):
        for j, m in enumerate(small_system.freq_lattice.index_points[:, 0]):
            shifted = np.roll(psi.values, int(round(lam0 / grid.spacing)))
            phase = np.exp(2j * np.pi * m * np.arange(grid.size) / grid.size)
            row = grid.spacing * np.conj(phase * shifted)
            assert abs(got[i, j] - row @ f.values) < 1e-12


def test_analyze_of_lattice_atom(ref_system):
    psi = ref_system.window
    i, j = 3, 5
    lam0 = ref_system.time_lattice.points[i, 0]
    m = ref_system.freq_lattice.index_points[j, 0]
    atom_vals = np.roll(psi.values, int(round(lam0 / ref_system.grid.spacing)))
    atom_vals = atom_vals * np.exp(
        2j * np.pi * m * np.arange(ref_system.grid.size) / ref_system.grid.size
    )
    coeffs = analyze(ref_system, GridSignal(ref_system.grid, atom_vals))
    value = coeffs.values[i, j]
    assert abs(value) == pytest.approx(psi.l2_norm() ** 2, rel=1e-10)


def test_synthesize_delta_coefficients(ref_system):
    shape = (ref_system.time_lattice.count, ref_system.freq_lattice.count)
    c = np.zeros(shape, dtype=complex)
    c[0, 0] = 1.0
    coeffs = CoeffArray.over_product(ref_system.time_lattice, ref_system.freq_lattice, c)
    out = synthesize(ref_system, coeffs)
    np.testing.assert_allclose(out.values, ref_system.window.values, atol=1e-14)

    c = np.zeros(shape, dtype=complex)
    c[2, 3] = 1.0
    coeffs = CoeffArray.over_product(ref_system.time_lattice, ref_system.freq_lattice, c)
    out = synthesize(ref_system, coeffs)
    lam0 = ref_system.time_lattice.points[2, 0]
    m = ref_system.freq_lattice.index_points[3, 0]
    expected = np.roll(ref_system.window.values, int(round(lam0 / ref_system.grid.spacing)))
    expected = expected * np.exp(
        2j * np.pi * m * np.arange(ref_system.grid.size) / ref_system.grid.size
    )
    np.testing.assert_allclose(out.values, expected, atol=1e-12)


def test_synthesize_index_mismatch(ref_system, small_system):
    shape = (small_system.time_lattice.count, small_system.freq_lattice.count)
    coeffs = CoeffArray.over_product(
        small_system.time_lattice, small_system.freq_lattice, np.zeros(shape)
    )
    with pytest.raises(IndexMismatch):
        synthesize(ref_system, coeffs)


def test_adjoint_relation_dense(small_system):
    A, B = dense_operator_matrices(small_system)
    cell = small_system.grid.spacing
    np.testing.assert_allclose(B, A.conj().T / cell, atol=1e-12)


def test_frame_apply_positivity(ref_system, rng):
    f = random_signal(ref_system.grid, rng)
    sf = frame_apply(ref_system, f)
    quad = np.vdot(f.values, sf.values)
    assert abs(quad.imag) < 1e-10 * abs(quad.real)
    assert quad.real > 0


def test_frame_apply_commutes_with_lattice_shifts(ref_system, rng):
    from gaborgrid.grid import translate

    f = random_signal(ref_system.grid, rng)
    lam0 = 3.0   # time lattice point
    lam1 = 1.5   # frequency lattice point
    shifted = modulate(translate(f, lam0), lam1)
    lhs = frame_apply(ref_system, shifted).values
    rhs = modulate(translate(frame_apply(ref_system, f), lam0), lam1).values
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) < 1e-11 * scale


def test_frame_bounds_reference(ref_system, ref_dense_eigs):
    cert = frame_bounds(ref_system)
    assert cert.lower == pytest.approx(ref_dense_eigs[0], rel=1e-6)
    assert cert.upper == pytest.approx(ref_dense_eigs[-1], rel=1e-6)
    assert cert.lower > 0.5
    assert cert.upper / cert.lower < 10.0
    # Walnut-style bracket for the Gaussian at these steps.
    assert cert.lower == pytest.approx(0.8284, rel=1e-3)
    assert cert.upper == pytest.approx(2.0150, rel=1e-3)


def test_frame_bounds_dense_matches_block():
    grid = PeriodicGrid(1, 12.0, 48)
    system = GaborSystem.separable(sample_gaussian(grid), 1.0, 0.5)
    dense = np.linalg.eigvalsh(_dense_frame_matrix(system))
    block = frame_bounds(system)
    assert block.method == "zak-fiber"
    assert block.lower == pytest.approx(dense[0], rel=1e-6)
    assert block.upper == pytest.approx(dense[-1], rel=1e-6)


def test_frame_bounds_undersampled(ref_grid):
    system = GaborSystem.separable(sample_gaussian(ref_grid), 2.0, 1.0)
    assert system.redundancy == pytest.approx(0.5)
    cert = frame_bounds(system)
    assert cert.lower <= 1e-10
    assert np.linalg.eigvalsh(_dense_frame_matrix(system))[0] <= 1e-10
    small = PeriodicGrid(1, 8.0, 32)
    small_system = GaborSystem.separable(sample_gaussian(small), 2.0, 1.0)
    assert frame_bounds(small_system).lower <= 1e-10
    assert np.linalg.eigvalsh(_dense_frame_matrix(small_system))[0] <= 1e-10


def test_painless_tight_frame(ref_grid):
    # Rectangle of exactly one hop width with every modulation: the frame
    # operator is the constant spacing * M * sum of squared shifts.
    window = sample_rectangle(ref_grid, width=1.0)
    system = GaborSystem.separable(window, 1.0, 1.0 / ref_grid.period)
    assert system.freq_lattice.count == ref_grid.points_per_axis
    cert = frame_bounds(system)
    expected = ref_grid.spacing * ref_grid.points_per_axis  # = period / hop count
    dense = np.linalg.eigvalsh(_dense_frame_matrix(system))
    assert cert.upper == pytest.approx(dense[-1], rel=1e-10)
    assert abs(cert.lower - cert.upper) / cert.upper <= 1e-12
    assert cert.upper == pytest.approx(expected, rel=1e-10)

    rng = np.random.default_rng(1)
    f = random_signal(ref_grid, rng)
    sf = frame_apply(system, f)
    diag = ref_grid.spacing * system.freq_lattice.count * np.sum(
        np.stack([np.roll(np.abs(window.values) ** 2, 16 * j) for j in range(16)]),
        axis=0,
    )
    np.testing.assert_allclose(sf.values, diag * f.values, atol=1e-12 * np.max(np.abs(sf.values)))

    gamma = dual_window(system)
    np.testing.assert_allclose(
        gamma.values, window.values / cert.upper, atol=1e-10
    )


def test_dual_window_reconstructs(ref_system, rng):
    gamma = dual_window(ref_system)
    for _ in range(5):
        f = random_signal(ref_system.grid, rng)
        assert reconstruction_error(ref_system, gamma, f) <= 1e-8


def test_dual_window_not_a_frame(ref_grid):
    system = GaborSystem.separable(sample_gaussian(ref_grid), 2.0, 1.0)
    with pytest.raises(NotAFrame):
        dual_window(system)


def test_dual_window_block_residual(ref_system):
    gamma = dual_window(ref_system)
    psi = ref_system.window.values
    residual = frame_apply(ref_system, gamma).values - psi
    assert np.linalg.norm(residual) / np.linalg.norm(psi) <= 1e-12


def test_wexler_raz_for_canonical_dual(ref_system):
    gamma = dual_window(ref_system)
    assert wexler_raz_residual(ref_system, gamma) <= 1e-8


def test_wexler_raz_orthonormal_basis(ref_grid):
    window = sample_rectangle(ref_grid, width=1.0, normalize=True)
    assert wexler_raz_residual(GaborSystem.separable(window, 1.0, 1.0), window) <= 1e-12


def test_wexler_raz_detects_orthogonal_pair(ref_grid):
    # gamma supported where psi vanishes: every inner product is zero, so
    # the origin target (ab)^n is missed by exactly that amount.
    psi = sample_rectangle(ref_grid, width=0.5)
    gamma_vals = np.roll(sample_rectangle(ref_grid, width=0.5).values, 128)
    gamma = GridSignal(ref_grid, gamma_vals)
    res = wexler_raz_residual(GaborSystem.separable(psi, 1.0, 1.0), gamma)
    assert res >= (1.0 * 1.0) ** 1 - 1e-12


def test_wexler_raz_adjoint_identity(ref_system, rng):
    # On the adjoint lattice, analysis after synthesis is (ab)^n times the
    # identity on coefficient space when the windows form a dual pair.
    gamma = dual_window(ref_system)
    adj_time, adj_freq = ref_system._adjoint  # time 1/b, freq 1/a
    adj = GaborSystem(ref_system.window, adj_time, adj_freq)
    adj_gamma = GaborSystem(gamma, adj_time, adj_freq)
    shape = (adj_time.count, adj_freq.count)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs = CoeffArray.over_product(adj_time, adj_freq, c)
    back = analyze(adj, synthesize(adj_gamma, coeffs)).values / (1.0 * 0.5)
    assert np.max(np.abs(back - c)) <= 1e-8 * np.max(np.abs(c))


def test_duality_equivalence_families(ref_system, rng):
    gamma = dual_window(ref_system)
    residual = wexler_raz_residual(ref_system, gamma)
    assert residual <= 1e-10
    errors = [
        reconstruction_error(ref_system, gamma, random_signal(ref_system.grid, rng))
        for _ in range(50)
    ]
    assert max(errors) <= 1e-8

    # Perturbed and plainly wrong duals must be flagged by both measures.
    for bad in (
        GridSignal(ref_system.grid, gamma.values * 1.05),
        GridSignal(ref_system.grid, gamma.values + 0.05 * ref_system.window.values),
        ref_system.window,
    ):
        err = reconstruction_error(ref_system, bad, random_signal(ref_system.grid, rng))
        if err >= 1e-3:
            assert wexler_raz_residual(ref_system, bad) >= 1e-6


def test_reconstruction_error_scaled_dual(ref_system, rng):
    gamma = dual_window(ref_system)
    doubled = GridSignal(ref_system.grid, 2.0 * gamma.values)
    f = random_signal(ref_system.grid, rng)
    assert reconstruction_error(ref_system, doubled, f) == pytest.approx(1.0, abs=1e-7)


def test_reconstruction_error_zero_signal(ref_system):
    z = GridSignal(ref_system.grid, np.zeros(ref_system.grid.size))
    with pytest.raises(ZeroSignal):
        reconstruction_error(ref_system, ref_system.window, z)


def test_non_frame_reconstruction_fails(ref_grid, rng):
    system = GaborSystem.separable(sample_gaussian(ref_grid), 2.0, 1.0)
    f = random_signal(ref_grid, rng)
    assert reconstruction_error(system, system.window, f) > 0.1


def test_certificate_export(ref_system, ref_dense_eigs):
    cert = frame_bounds(ref_system)
    data = cert.to_dict()
    assert set(data) == {"A", "B", "method", "residual", "redundancy", "fiber_shape"}
    assert data["A"] > 0 and data["redundancy"] == pytest.approx(2.0)
    # |F| |H| fibers of p x q; their rows tile the grid and q / p is the
    # redundancy.
    count, p, q = data["fiber_shape"]
    assert data["fiber_shape"] == list(cert.fiber_shape) == [256, 1, 2]
    assert count * p == ref_system.grid.size
    assert q / p == data["redundancy"]
    assert data["A"] == pytest.approx(ref_dense_eigs[0], rel=1e-4)
    assert data["B"] == pytest.approx(ref_dense_eigs[-1], rel=1e-4)


def test_two_dimensional_system_reconstructs():
    grid = PeriodicGrid(2, 4.0, 8)
    window = sample_gaussian(grid, width=0.75)
    system = GaborSystem.separable(window, 1.0, 0.5)
    assert system.redundancy == pytest.approx(4.0)
    gamma = dual_window(system)
    rng = np.random.default_rng(8)
    f = random_signal(grid, rng)
    assert reconstruction_error(system, gamma, f) <= 1e-8
    assert wexler_raz_residual(system, gamma) <= 1e-8


def test_reconstruction_and_wexler_raz_keep_no_translate_table():
    # A table of the window's translates over A (128 time points) or over
    # F^perp (64) would hold 128 or 64 signals' bytes; the fibers, the folded
    # coefficients and blocks of translates keep each call under 32.
    grid = PeriodicGrid(1, 128.0, 16384)
    system = GaborSystem.separable(sample_gaussian(grid), 1.0, 0.5)
    gamma = dual_window(system)
    f = random_signal(grid, np.random.default_rng(4))
    for measure in (lambda: reconstruction_error(system, gamma, f),
                    lambda: wexler_raz_residual(system, gamma)):
        tracemalloc.start()
        try:
            value = measure()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value <= 1e-10
        assert peak < 32 * f.values.nbytes


def test_fiber_maps_are_shared_per_lattice_pair(ref_system):
    gamma = dual_window(ref_system)
    other = GaborSystem(gamma, ref_system.time_lattice, ref_system.freq_lattice)
    assert other._fibers[1] is ref_system._fibers[1]
    assert other._fibers[0] is not ref_system._fibers[0]
    # The same time lattice with another frequency lattice gets its own maps.
    grid = ref_system.grid
    finer = GaborSystem(ref_system.window, ref_system.time_lattice,
                        GridLattice.cubic(grid.reciprocal(), 0.25))
    f = random_signal(grid, np.random.default_rng(2))
    expected = analyze(GaborSystem.separable(ref_system.window, 1.0, 0.25), f).values
    np.testing.assert_allclose(analyze(finer, f).values, expected, rtol=0, atol=1e-13)


@pytest.mark.parametrize("signals_per_block", [None, 1, 3], ids=["default", "1", "3"])
def test_reconstruction_fft_count(ref_system, rng, monkeypatch, signals_per_block):
    # One forward transform for the analysis, one inverse for the synthesis,
    # whatever the block budget.
    per_signal = ref_system.time_lattice.count * math.prod(ref_system._fibers[1].shape)
    if signals_per_block:
        monkeypatch.setattr(grid_module, "_BATCH_BYTES", signals_per_block * 16 * per_signal)
    gamma = dual_window(ref_system)
    f = random_signal(ref_system.grid, rng)
    counts = count_fft_calls(monkeypatch)
    reconstruction_error(ref_system, gamma, f)
    assert counts == {"fftn": 1, "ifftn": 1}
