import importlib
import tracemalloc
from math import comb, prod

import numpy as np
import pytest

from gaborgrid.errors import GridMismatch, ResourceLimit
from gaborgrid.gabor import GaborSystem, analyze, dual_window, wexler_raz_residual
from gaborgrid.grid import (
    GridLattice,
    GridSignal,
    PeriodicGrid,
    sample_gaussian,
    translate,
)
from gaborgrid.lattice import Lattice
from gaborgrid.stft import derivative_identity_defect, stft
from gaborgrid.suites import SuiteConfig, run_derivative_identity

from conftest import random_signal, record_fft_shapes, spectral_derivative

# The package re-exports the function stft, which hides the module attribute.
stft_module = importlib.import_module("gaborgrid.stft")
gabor_module = importlib.import_module("gaborgrid.gabor")


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


def test_stft_resource_limit(monkeypatch):
    grid = PeriodicGrid(1, 16.0, 16384)
    f = GridSignal(grid, np.zeros(grid.size))
    with pytest.raises(ResourceLimit):
        stft(f, f)
    # The refusal guards the full table only; the defect holds none.
    small = PeriodicGrid(1, 8.0, 64)
    monkeypatch.setattr(stft_module, "_FULL_STFT_LIMIT", small.size ** 2 - 1)
    g = sample_gaussian(small)
    with pytest.raises(ResourceLimit):
        stft(g, g)
    assert derivative_identity_defect(g, g, 1)[1] <= 1e-8


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


@pytest.mark.parametrize("rows", [None, 3], ids=["budget", "3-row-blocks"])
@pytest.mark.parametrize("grid, time_gen, freq_gen", [
    (PeriodicGrid(1, 8.0, 32), [[1.0]], [[0.5]]),
    # Bin step 3 is coprime to L: every bin, in a trivial fold.
    (PeriodicGrid(1, 8.0, 32), [[0.5]], [[0.375]]),
    (PeriodicGrid(2, 4.0, 16), [[1.0, 0.5], [0.0, 1.0]], [[0.5, 0.0], [0.25, 1.0]]),
], ids=["1d", "1d-coprime", "2d-sheared"])
def test_lattice_stft_is_the_restricted_full_table(grid, time_gen, freq_gen, rows,
                                                    monkeypatch):
    if rows is not None:
        monkeypatch.setattr(stft_module, "_BATCH_BYTES", 16 * grid.size * rows)
    rng = np.random.default_rng(8)
    f = random_signal(grid, rng)
    psi = random_signal(grid, rng)
    time_lat = GridLattice(Lattice(np.array(time_gen)), grid)
    freq_lat = GridLattice(Lattice(np.array(freq_gen)), grid.reciprocal())
    got = stft_module._lattice_stft(f.values, psi, time_lat.index_points,
                                    freq_lat.index_points)
    table = stft(f, psi).values
    expected = table[np.ix_(time_lat._flat_points, freq_lat._flat_points)]
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_stft_and_wexler_raz_share_one_kernel(monkeypatch):
    grid = PeriodicGrid(1, 16.0, 256)
    system = GaborSystem.separable(sample_gaussian(grid), 1.0, 0.5)
    gamma = dual_window(system)
    kernel = stft_module._lattice_stft
    assert gabor_module._lattice_stft is kernel
    calls = []

    def counted(values, psi, time_points, freq_points):
        calls.append((len(time_points), len(freq_points)))
        return kernel(values, psi, time_points, freq_points)

    monkeypatch.setattr(stft_module, "_lattice_stft", counted)
    monkeypatch.setattr(gabor_module, "_lattice_stft", counted)
    stft(gamma, system.window)
    wexler_raz_residual(system, gamma)
    # The full table, then the adjoint lattice: 8 time shifts by 16 bins.
    assert calls == [(256, 256), (8, 16)]


def test_stft_holds_one_table():
    # The full table is the FFT output itself: no second (size, size) copy.
    grid = PeriodicGrid(1, 16.0, 512)
    f = sample_gaussian(grid, width=2.0)
    tracemalloc.start()
    try:
        stft(f, sample_gaussian(grid))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 16 * grid.size ** 2


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
    xi = grid16.freq_integers()[:, 0] / grid16.period
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
    assert derivative_identity_defect(f, psi, 0) == (0.0, 0.0)


def test_derivative_identity_gaussians(ref_grid):
    f = sample_gaussian(ref_grid)
    psi = sample_gaussian(ref_grid)
    for order, threshold in [(1, 1e-8), (2, 1e-6)]:
        lower, upper = derivative_identity_defect(f, psi, order)
        assert 0.0 < lower <= upper <= threshold


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
    tracemalloc.start()
    try:
        _, upper = derivative_identity_defect(f, psi, (1, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert upper <= 1e-8
    # numpy reports its buffers to tracemalloc: the defect never holds a
    # full (size, size) complex table (268 MB here).
    assert peak < 16 * grid.size ** 2


def test_derivative_identity_one_dimensional_memory():
    # In 1-D size is L, so a float table over all bin pairs takes 8 size^2
    # bytes (134 MB here); the aliasing symbol is built for one bin only, so
    # the peak stays below size^2 bytes.
    grid = PeriodicGrid(1, 64.0, 4096)
    f = sample_gaussian(grid)
    psi = sample_gaussian(grid)
    tracemalloc.start()
    try:
        _, upper = derivative_identity_defect(f, psi, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert upper <= 1e-12
    assert peak < grid.size ** 2


def table_defect(f, psi, order):
    """|factor * V_psi f - sum_beta C(alpha, beta) V_{psi^(alpha-beta)} f^(beta)|
    over every (time node, bin) pair, from full STFT tables (one per term)."""
    grid = f.grid
    order = tuple(np.atleast_1d(order))
    xi = grid.freq_integers() / grid.period
    factor = np.prod([(2j * np.pi * xi[:, axis]) ** o for axis, o in enumerate(order)],
                     axis=0)
    diff = factor * stft(f, psi).values
    for beta in np.ndindex(*(o + 1 for o in order)):
        coeff = prod(comb(o, b) for o, b in zip(order, beta))
        rem = tuple(o - b for o, b in zip(order, beta))
        term = stft(spectral_derivative(f, beta), spectral_derivative(psi, rem))
        diff = diff - coeff * term.values
    return np.abs(diff)


def _bin_rows(f, psi, order):
    """Yield (slice of bins, F(m + eta) conj Psi(eta), sigma(m, eta)) for
    blocks of 256 bins m, straight from the definition: sigma is prod_a
    lab(m_a)^alpha_a - prod_a (lab(m_a + eta_a) - lab(eta_a))^alpha_a on the
    integer bin labels.  Blocks keep the 64^2 grid from holding a size^2
    table."""
    grid = f.grid
    order = np.atleast_1d(order)
    bins = grid.index_vectors()
    labels = grid.freq_integers()
    spectrum = np.fft.fftn(f.reshaped()).ravel()
    window = np.conj(np.fft.fftn(psi.reshaped()).ravel())
    for lo in range(0, grid.size, 256):
        m = bins[lo:lo + 256]
        # shift[m, eta] is the flat bin m + eta.
        shift = np.ravel_multi_index(tuple(np.moveaxis(m[:, None] + bins[None], -1, 0)),
                                     grid.shape, mode="wrap")
        sigma = (np.prod(labels[lo:lo + 256, None] ** order, axis=-1)
                 - np.prod((labels[shift] - labels[None]) ** order, axis=-1))
        yield slice(lo, lo + 256), spectrum[shift] * window, sigma


def _scale(grid, order):
    return grid.spacing ** grid.dim * (2 * np.pi / grid.period) ** int(np.sum(order))


def bin_bounds(f, psi, order):
    """The triangle-inequality bound on the defect of each bin, straight from
    the definition: spacing^n (2 pi / P)^|alpha| / size times
    sum_eta |F(m + eta)| |Psi(eta)| |sigma(m, eta)|."""
    total = np.empty(f.grid.size)
    for block, product, sigma in _bin_rows(f, psi, order):
        total[block] = np.sum(np.abs(product) * np.abs(sigma), axis=1) / f.grid.size
    return _scale(f.grid, order) * total


def row_defect(f, psi, order):
    """The defect with every bin row transformed: spacing^n (2 pi / P)^|alpha|
    times the largest |ifft_eta[F(m + eta) conj Psi(eta) sigma(m, eta)]|.
    Its rounding is relative to each row's own size, so it resolves defects
    far below the rounding of the full tables."""
    grid = f.grid
    axes = tuple(range(1, grid.dim + 1))
    worst = 0.0
    for _, product, sigma in _bin_rows(f, psi, order):
        rows = (product * sigma).reshape((-1,) + grid.shape)
        worst = max(worst, float(np.max(np.abs(np.fft.ifftn(rows, axes=axes)))))
    return _scale(grid, order) * worst


def _same_under_budget(f, psi, order, rows, monkeypatch):
    """The enclosure, after checking that a ``stft._BATCH_BYTES`` budget of
    ``rows`` grid-sized rows gives it bit for bit."""
    enclosure = derivative_identity_defect(f, psi, order)
    if rows is not None:
        monkeypatch.setattr(stft_module, "_BATCH_BYTES", 16 * f.grid.size * rows)
        assert derivative_identity_defect(f, psi, order) == enclosure
    return enclosure


@pytest.mark.parametrize("rows", [None, 5, 1], ids=["budget", "remainder", "single-row"])
@pytest.mark.parametrize("grid, order", [
    *[(PeriodicGrid(1, 4.0, 16), o) for o in [1, 2, 4]],
    *[(PeriodicGrid(2, 2.0, 8), o) for o in [(1, 0), (1, 1), (2, 0), (0, 2)]],
    # L = 12 is not a power of two.
    *[(PeriodicGrid(2, 3.0, 12), o) for o in [(1, 0), (1, 1), (2, 0), (0, 2), (3, 0), (2, 2)]],
    # Odd L has no Nyquist bin.
    *[(PeriodicGrid(1, 5.0, 21), o) for o in [1, 3, 4]],
    *[(PeriodicGrid(2, 3.0, 9), o) for o in [(1, 1), (3, 0), (2, 2)]],
], ids=lambda v: str(v.points_per_axis) if isinstance(v, PeriodicGrid) else str(v))
def test_blocked_defect_matches_table_oracle(grid, order, rows, monkeypatch):
    rng = np.random.default_rng(23)
    # Random complex signals make the defect O(1), so the table's own
    # rounding (about 1e-13 of it) cannot blur the comparison.
    f = random_signal(grid, rng)
    psi = random_signal(grid, rng)
    expected = np.max(table_defect(f, psi, order))
    assert expected > 1.0
    lower, upper = _same_under_budget(f, psi, order, rows, monkeypatch)
    assert 0.0 < lower <= expected * (1 + 1e-12)
    assert expected <= upper * (1 + 1e-12)


@pytest.mark.parametrize("rows", [None, 5, 1], ids=["budget", "remainder", "single-row"])
@pytest.mark.parametrize("grid, order", [
    (PeriodicGrid(1, 4.0, 21), 2),
    (PeriodicGrid(2, 3.0, 12), (1, 1)),
], ids=lambda v: str(v.points_per_axis) if isinstance(v, PeriodicGrid) else str(v))
def test_defect_fft_count(grid, order, rows, monkeypatch):
    rng = np.random.default_rng(4)
    f = random_signal(grid, rng)
    psi = random_signal(grid, rng)
    shapes = record_fft_shapes(monkeypatch)
    _same_under_budget(f, psi, order, rows, monkeypatch)
    # One forward FFT each of f and psi and no inverse FFT of any bin row.  A
    # 2-d grid adds one real FFT pair: the correlation of |F| and |Psi| (both
    # in one rfftn), padded to 32 >= 2L - 1 points per axis.  A 1-d grid sums
    # it directly.
    expected = [("fftn", grid.shape)] * 2
    if grid.dim == 2:
        expected += [("rfftn", (2,) + grid.shape), ("irfftn", (32, 17))]
    assert shapes == expected * (1 if rows is None else 2)


def _bench_suite(points, monkeypatch=None):
    """The derivative-identity entries of the 2-d config (P = 8) at points^2,
    and with ``monkeypatch`` the FFTs that the suite itself calls."""
    cfg = SuiteConfig.from_dict({"grid": {"dim": 2, "period": 8.0,
                                          "points_per_axis": points}})
    system = cfg.make_system()
    shapes = record_fft_shapes(monkeypatch) if monkeypatch else None
    entries = run_derivative_identity(cfg, system)
    return entries, shapes


def test_derivative_identity_entries_carry_the_enclosure(monkeypatch):
    # The verify-2d config (32^2): both entries fail, and the lower end of
    # the enclosure proves it.
    entries, shapes = _bench_suite(32, monkeypatch)
    assert [entry["name"] for entry in entries] == ["order1_defect", "order2_defect"]
    assert "ifftn" not in [name for name, _ in shapes]
    for entry in entries:
        details = entry["details"]
        assert details == {"method": "enclosure", "lower": details["lower"],
                           "upper": entry["value"]}
        assert not entry["passed"]
        assert entry["threshold"] < details["lower"] <= details["upper"]


@pytest.mark.parametrize("points", [64, 128, 256])
def test_derivative_identity_passes_on_resolved_2d_grids(points):
    # Resolved grids pass both orders from the upper end alone.  At 256^2
    # the order (1, 1) bound is 5.4e-9 against 1e-8, so a looser FFT
    # rounding allowance would leave it undecided.
    for entry in _bench_suite(points)[0]:
        details = entry["details"]
        assert entry["passed"]
        assert details["lower"] <= details["upper"] == entry["value"] <= entry["threshold"]


def _delta(grid):
    values = np.zeros(grid.size)
    values[0] = 1.0
    return GridSignal(grid, values)


def _pruning_case(name):
    """(f, psi, order) of a named case where the top bin by bound need not
    hold the maximum."""
    if name.startswith("noise"):
        grid, order, seed = {
            # The maximising bin is second in the bound ranking.
            "noise-16": (PeriodicGrid(1, 4.0, 16), 2, 0),
            # The maximum is sixth in the ranking.
            "noise-8x8": (PeriodicGrid(2, 2.0, 8), (1, 1), 4),
            # Odd L: the maximum is ninth and seventeenth in the ranking.
            "noise-21": (PeriodicGrid(1, 5.0, 21), 3, 2),
            "noise-9x9": (PeriodicGrid(2, 3.0, 9), (2, 2), 5),
        }[name]
        rng = np.random.default_rng(seed)
        return random_signal(grid, rng), random_signal(grid, rng), order
    if name == "gaussian-16x16":
        grid = PeriodicGrid(2, 4.0, 16)
        return sample_gaussian(grid), sample_gaussian(grid, width=0.7), (1, 1)
    # Two deltas: every row is a boxcar of sigma whose maximum, at time
    # node 0, equals its bound exactly, and the bins +-7 tie at the top.
    grid = PeriodicGrid(1, 5.0, 15)
    return _delta(grid), _delta(grid), 1


def _bench_pair(dim, period, points):
    """A Gaussian f against the window of the default system on the grid,
    the pair the derivative-identity suite checks."""
    cfg = SuiteConfig.from_dict({"grid": {"dim": dim, "period": period,
                                          "points_per_axis": points}})
    system = cfg.make_system()
    return sample_gaussian(system.grid), system.window


def _bound_case(name):
    """(f, psi, order) of a pruning case or of a bench pair."""
    if name == "resolved-256":
        # The verify-1d pair: the defect is at rounding level.
        return (*_bench_pair(1, 16.0, 256), 1)
    if name == "bench-32x32":
        return (*_bench_pair(2, 8.0, 32), (1, 1))
    if name.startswith("resolved-64x64"):
        # The resolved 2-d config (P = 8): the allowance carries nearly every
        # bound, and the FFT has the most passes of any case here.
        return (*_bench_pair(2, 8.0, 64), (1, 1) if name.endswith("11") else (2, 0))
    if name == "resolved-24x24":
        # Spacing 1/6: most bounds lie far below the FFT's rounding, so the
        # allowance carries them.
        grid = PeriodicGrid(2, 4.0, 24)
        return sample_gaussian(grid), sample_gaussian(grid), (2, 0)
    return _pruning_case(name)


def _correlation_bounds(f, psi, order):
    """``stft._correlation_bound`` with the defect's scale, as ``bin_bounds``."""
    grid = f.grid
    order = tuple(int(o) for o in np.atleast_1d(order))
    spectrum = np.abs(np.fft.fftn(f.reshaped()))
    window = np.abs(np.fft.fftn(psi.reshaped()))
    return _scale(grid, order) * stft_module._correlation_bound(grid, spectrum, window, order)


@pytest.mark.parametrize("name", ["noise-16", "noise-8x8", "noise-21", "noise-9x9",
                                  "gaussian-16x16", "tied-deltas-15", "resolved-256",
                                  "bench-32x32", "resolved-24x24", "resolved-64x64-11",
                                  "resolved-64x64-20"])
def test_correlation_bound_is_an_upper_bound(name):
    f, psi, order = _bound_case(name)
    expected = bin_bounds(f, psi, order)
    bounds = _correlation_bounds(f, psi, order)
    # Every bin's bound covers the one from the definition, up to the
    # relative rounding of both sums (below 1e-12 here).
    assert np.all(bounds * (1 + 1e-12) >= expected)
    if f.grid.dim == 1:
        # Summed directly: the same bound up to the rounding of the sums.
        np.testing.assert_allclose(bounds, expected, rtol=1e-12, atol=0)
    # The enclosure's upper end is the largest bound, widened by its rounding.
    _, upper = derivative_identity_defect(f, psi, order)
    assert np.max(bounds) <= upper <= np.max(bounds) * (1 + 1e-12)


def test_defect_settles_the_2d_bench_pair_by_correlation(monkeypatch):
    # The verify-2d pair (P = 8, 32^2, 1024 bins): per order, one
    # correlation settles the verdict.  Its bound is within 1e-4 of the
    # maximum that a transform of every row finds, and the top row's
    # Parseval bound proves the failure.
    f, psi = _bench_pair(2, 8.0, 32)
    for order in [(1, 1), (2, 0)]:
        exact = row_defect(f, psi, order)
        shapes = record_fft_shapes(monkeypatch)
        lower, upper = derivative_identity_defect(f, psi, order)
        assert [name for name, _ in shapes] == ["fftn", "fftn", "rfftn", "irfftn"]
        monkeypatch.undo()
        assert 1e-6 < lower <= exact <= upper
        assert upper == pytest.approx(exact, rel=1e-4)


@pytest.mark.parametrize("rows", [None, 1], ids=["budget", "single-row"])
@pytest.mark.parametrize("name", ["noise-16", "noise-8x8", "noise-21", "noise-9x9",
                                  "gaussian-16x16", "tied-deltas-15"])
def test_pruned_defect_matches_table_oracle(name, rows, monkeypatch):
    f, psi, order = _pruning_case(name)
    table = table_defect(f, psi, order)
    expected = table.max()
    bins_max = table.max(axis=0)
    bounds = bin_bounds(f, psi, order)
    # The bound holds for every bin (the table carries rounding of ~1e-13).
    assert np.all(bounds >= bins_max - 1e-12 * expected)
    if name.startswith("noise"):
        # The top bin by bound, whose row gives the lower end, is not the
        # one that holds the maximum.
        assert np.argmax(bins_max) != np.argmax(bounds)
    lower, upper = _same_under_budget(f, psi, order, rows, monkeypatch)
    assert 0.0 < lower <= expected * (1 + 1e-12)
    assert expected <= upper * (1 + 1e-12)


@pytest.mark.parametrize("resolved", ["resolved-256", "resolved-24x24", "resolved-64x64-11",
                                      "resolved-64x64-20"])
def test_enclosure_contains_the_every_row_defect(resolved):
    # Defects at rounding level, where the tables' own rounding (5.7e-15 at
    # the verify-1d pair) exceeds the defect (2.70e-15): the transform of
    # every row resolves them.  The row rounding is far below 1e-9 of the
    # Parseval bound and of U.
    f, psi, order = _bound_case(resolved)
    exact = row_defect(f, psi, order)
    lower, upper = derivative_identity_defect(f, psi, order)
    assert lower <= exact * (1 + 1e-9)
    assert exact <= upper * (1 + 1e-9)


@pytest.mark.parametrize("grid, order", [
    (PeriodicGrid(1, 4.0, 16), 2),
    (PeriodicGrid(1, 3.0, 9), 1),
    (PeriodicGrid(1, 2.0, 4), 1),
    (PeriodicGrid(2, 2.0, 4), (1, 1)),
], ids=["const-16", "const-9", "band-4", "band-4x4"])
def test_zero_defect_transforms_no_row(grid, order, monkeypatch):
    # Spectra exact to the bit: a constant f has F = L^n delta_0, and sigma
    # vanishes at eta = -m for an even order or odd L.  On L = 4, f has
    # F = 4 delta_1 and psi the spectrum (4, 4, 0, 0) along each axis, so no
    # product of the two reaches a wrapped label.  Every bound is 0.
    if grid.points_per_axis == 4:
        line_f = np.array([1, 1j, -1, -1j])
        line_psi = np.array([2, 1 + 1j, 0, 1 - 1j])
        f_values = psi_values = np.ones(1)
        for _ in range(grid.dim):
            f_values = np.multiply.outer(f_values, line_f)
            psi_values = np.multiply.outer(psi_values, line_psi)
        f = GridSignal(grid, f_values.ravel())
        psi = GridSignal(grid, psi_values.ravel())
    else:
        f = GridSignal(grid, np.full(grid.size, 0.7 + 0.2j))
        psi = sample_gaussian(grid)
    assert np.all(bin_bounds(f, psi, order) == 0.0)
    shapes = record_fft_shapes(monkeypatch)
    lower, upper = derivative_identity_defect(f, psi, order)
    # No inverse FFT; a 2-d grid adds only the correlation's real FFT pair,
    # whose rounding allowance is all that is left of the upper end: about
    # 1e-14 of ||F||_2 ||Psi||_2 = 512, times sigma and the scale (3.4e-11).
    correlation = ["rfftn", "irfftn"] if grid.dim == 2 else []
    assert [name for name, _ in shapes] == ["fftn", "fftn", *correlation]
    assert lower == 0.0
    assert upper == 0.0 if grid.dim == 1 else 0.0 < upper < 1e-10
    assert np.max(table_defect(f, psi, order)) < 1e-12
