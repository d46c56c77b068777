import numpy as np
import pytest

from gaborgrid.errors import (
    DimensionMismatch,
    GridMismatch,
    IndexMismatch,
    NonAlignedLattice,
    NonAlignedShift,
)
from gaborgrid.grid import (
    CoeffArray,
    GridLattice,
    GridSignal,
    PeriodicGrid,
    _enumerate_quotient,
    _superpose,
    _tiled_windows,
    _translates,
    dft,
    sample_bump,
    sample_gaussian,
    sample_rectangle,
    translate,
)
from gaborgrid.lattice import Lattice

from conftest import (
    conjugate_reflection,
    gaussian_images,
    lattice_superposition,
    modulate,
    random_signal,
    spectral_derivative,
)


@pytest.fixture
def small_grid():
    return PeriodicGrid(1, 4.0, 16)


def test_grid_geometry(small_grid):
    assert small_grid.spacing == pytest.approx(0.25)
    assert small_grid.size == 16
    np.testing.assert_allclose(small_grid.axis_nodes()[:3], [0.0, 0.25, 0.5])
    m = small_grid.freq_integers_axis()
    assert m[0] == 0 and m[7] == 7 and m[8] == -8 and m[-1] == -1


@pytest.mark.parametrize("dim, L", [(1, 16), (1, 9), (2, 6), (2, 5)])
def test_index_tables_are_cached_read_only_meshgrids(dim, L):
    grid = PeriodicGrid(dim, 3.0, L)
    axis = grid.freq_integers_axis()
    for table, values in ((grid.index_vectors(), np.arange(L)), (grid.freq_integers(), axis)):
        expected = np.stack([g.ravel() for g in np.meshgrid(*[values] * dim, indexing="ij")],
                            axis=-1)
        assert np.array_equal(table, expected)
        assert not table.flags.writeable
    # One table per (dim, L), whatever the period.
    other = PeriodicGrid(dim, 7.0, L)
    assert other.index_vectors() is grid.index_vectors()
    assert other.freq_integers() is grid.freq_integers()


def test_reciprocal_grid(ref_grid):
    rec = ref_grid.reciprocal()
    assert rec.spacing == pytest.approx(1.0 / ref_grid.period)
    assert rec.period == pytest.approx(ref_grid.points_per_axis / ref_grid.period)
    rec2 = rec.reciprocal()
    assert rec2.period == pytest.approx(ref_grid.period)


def test_translate_delta(small_grid):
    vals = np.zeros(16)
    vals[0] = 1.0
    f = GridSignal(small_grid, vals)
    g = translate(f, 0.25)
    assert g.values[1] == pytest.approx(1.0)
    assert np.sum(np.abs(g.values)) == pytest.approx(1.0)


def test_translate_group_law(small_grid, rng):
    f = random_signal(small_grid, rng)
    g = translate(translate(f, 0.75), -0.75)
    np.testing.assert_allclose(g.values, f.values, atol=1e-15)


def test_translate_matches_index_oracle(small_grid, rng):
    f = random_signal(small_grid, rng)
    s = 5
    g = translate(f, s * small_grid.spacing)
    expected = np.array([f.values[(k - s) % 16] for k in range(16)])
    np.testing.assert_allclose(g.values, expected)


def test_translate_rejects_non_aligned(small_grid, rng):
    with pytest.raises(NonAlignedShift):
        translate(random_signal(small_grid, rng), 0.1)


def test_modulate_zero_identity(small_grid, rng):
    f = random_signal(small_grid, rng)
    np.testing.assert_allclose(modulate(f, 0.0).values, f.values)


def test_modulate_unimodular(small_grid, rng):
    f = random_signal(small_grid, rng)
    g = modulate(f, 3.0 / small_grid.period)
    np.testing.assert_allclose(np.abs(g.values), np.abs(f.values), rtol=1e-13)


def test_modulate_dft_shift_theorem():
    grid = PeriodicGrid(1, 2.0, 8)
    rng = np.random.default_rng(5)
    f = random_signal(grid, rng)
    m = 3
    g = modulate(f, m / grid.period)
    np.testing.assert_allclose(dft(g), np.roll(dft(f), m), atol=1e-12)


def test_modulate_rejects_non_grid_frequency(small_grid, rng):
    with pytest.raises(ValueError, match="not a multiple of 1/period"):
        modulate(random_signal(small_grid, rng), 0.3)


def test_commutation_relation(small_grid, rng):
    f = random_signal(small_grid, rng)
    x = 3 * small_grid.spacing
    xi = 2.0 / small_grid.period
    lhs = modulate(translate(f, x), xi)
    rhs = translate(modulate(f, xi), x) * np.exp(2j * np.pi * xi * x)
    np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-12)


def test_dft_round_trip(ref_grid, rng):
    f = random_signal(ref_grid, rng)
    back = np.fft.ifftn(dft(f).reshape(ref_grid.shape)).ravel()
    err = np.linalg.norm(back - f.values) / np.linalg.norm(f.values)
    assert err < 1e-12


def test_parseval(ref_grid, rng):
    f = random_signal(ref_grid, rng)
    d = ref_grid.spacing
    lhs = d * np.sum(np.abs(f.values) ** 2)
    rhs = (1.0 / ref_grid.period) * np.sum(np.abs(d * dft(f)) ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_spectral_derivative_constant(ref_grid):
    f = GridSignal(ref_grid, np.full(ref_grid.size, 2.5))
    assert np.max(np.abs(spectral_derivative(f, 1).values)) < 1e-12


def test_spectral_derivative_eigenfunction(ref_grid):
    x = ref_grid.axis_nodes()
    f = GridSignal(ref_grid, np.exp(2j * np.pi * x / ref_grid.period))
    expected = (2j * np.pi / ref_grid.period) * f.values
    np.testing.assert_allclose(spectral_derivative(f, 1).values, expected, atol=1e-10)


def test_spectral_derivative_vs_finite_difference(ref_grid):
    # Centered differences are second order; for the width-1 Gaussian the
    # Delta^2 * f'''/6 floor at L=256, P=16 sits near 1.4e-2, and halving
    # the spacing must shrink it by about 4.
    f = sample_gaussian(ref_grid)
    d = spectral_derivative(f, 1).values
    fd = (np.roll(f.values, -1) - np.roll(f.values, 1)) / (2 * ref_grid.spacing)
    err_coarse = np.max(np.abs(d - fd))
    assert err_coarse < 2e-2

    fine = PeriodicGrid(1, 16.0, 512)
    g = sample_gaussian(fine)
    dg = spectral_derivative(g, 1).values
    fdg = (np.roll(g.values, -1) - np.roll(g.values, 1)) / (2 * fine.spacing)
    err_fine = np.max(np.abs(dg - fdg))
    assert 3.0 < err_coarse / err_fine < 5.0


def test_spectral_derivative_linear_and_translation_covariant(small_grid, rng):
    f = random_signal(small_grid, rng)
    g = random_signal(small_grid, rng)
    lhs = spectral_derivative(f + 2.0 * g, 1)
    rhs = spectral_derivative(f, 1) + 2.0 * spectral_derivative(g, 1)
    np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-12)
    x = 4 * small_grid.spacing
    lhs = spectral_derivative(translate(f, x), 1)
    rhs = translate(spectral_derivative(f, 1), x)
    np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-12)


def test_gaussian_center_value_and_symmetry(ref_grid):
    g = sample_gaussian(ref_grid)
    assert g.values[0].real == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(
        g.values[1:], g.values[1:][::-1], atol=1e-15
    )


def test_gaussian_quadrature_norm(ref_grid):
    g = sample_gaussian(ref_grid)
    norm_sq = ref_grid.spacing * np.sum(np.abs(g.values) ** 2)
    fine = PeriodicGrid(1, 16.0, 4096)
    gf = sample_gaussian(fine)
    oracle = fine.spacing * np.sum(np.abs(gf.values) ** 2)
    assert norm_sq == pytest.approx(oracle, abs=1e-12)
    assert norm_sq == pytest.approx(2.0 ** -0.5, abs=1e-12)


def test_gaussian_normalized(ref_grid):
    g = sample_gaussian(ref_grid, normalize=True)
    assert g.l2_norm() == pytest.approx(1.0, rel=1e-13)


def test_gaussian_2d_center():
    grid = PeriodicGrid(2, 12.0, 24)
    g = sample_gaussian(grid, center=(1.0, 2.0))
    k = (2, 4)  # node (1.0, 2.0) with spacing 0.5
    flat = k[0] * 24 + k[1]
    assert g.values[flat].real == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("grid", [
    PeriodicGrid(1, 16.0, 256), PeriodicGrid(1, 8.0, 33),
    PeriodicGrid(2, 8.0, 32), PeriodicGrid(2, 12.0, 24), PeriodicGrid(2, 8.0, 33),
], ids=["1d-256", "1d-33", "2d-32", "2d-24", "2d-33"])
@pytest.mark.parametrize("center, width, normalize", [
    (0.0, 1.0, False), (1.3, 2.0 ** 0.5, False), (-2.75, 2.0 ** 0.5, True),
], ids=["origin", "off-origin", "off-origin-normalized"])
def test_gaussian_outer_product_matches_image_sum(grid, center, width, normalize):
    # The per-axis image sums, multiplied out, against the 3^dim images at
    # every node: the same arithmetic in 1-D, a product of the same factors
    # in 2-D.
    got = sample_gaussian(grid, center, width, normalize).values
    expected = gaussian_images(grid, center, width, normalize).values
    if grid.dim == 1:
        assert np.array_equal(got, expected)
    else:
        assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))


def test_gaussian_2d_separate_centers_match_image_sum():
    grid = PeriodicGrid(2, 8.0, 32)
    got = sample_gaussian(grid, (1.25, -3.0), 2.0 ** 0.5).values
    expected = gaussian_images(grid, (1.25, -3.0), 2.0 ** 0.5).values
    assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))


@pytest.mark.parametrize("width", [0.0, -1.0, float("inf"), float("nan")])
def test_gaussian_rejects_a_width_not_positive_and_finite(ref_grid, width):
    with pytest.raises(ValueError, match="width must be positive and finite"):
        sample_gaussian(ref_grid, width=width)


def test_bump_support_and_center(ref_grid):
    chi = sample_bump(ref_grid, center=0.0, radius=0.5)
    x = ref_grid.centered_nodes()[:, 0]
    outside = np.abs(x) >= 0.5
    assert np.all(chi.values[outside] == 0)
    assert chi.values[0].real == pytest.approx(np.exp(-1.0))


def test_bump_integral_adaptive_refinement():
    # Doubling refinement until successive quadratures agree to 1e-9 gives
    # the oracle value; the L=1024 sum must sit within 1e-6 of it.
    P = 16.0
    def integral(L):
        grid = PeriodicGrid(1, P, L)
        chi = sample_bump(grid, center=0.0, radius=0.5)
        return grid.spacing * np.sum(chi.values.real)

    L, prev = 512, integral(512)
    while True:
        L *= 2
        cur = integral(L)
        if abs(cur - prev) < 1e-9 or L >= 2 ** 15:
            break
        prev = cur
    assert abs(integral(1024) - cur) < 1e-6


def test_rectangle_indicator(ref_grid):
    r = sample_rectangle(ref_grid, width=1.0)
    assert np.sum(r.values.real) == pytest.approx(16)  # 1.0 / spacing nodes
    assert r.values[0] == 1.0
    n = sample_rectangle(ref_grid, width=1.0, normalize=True)
    assert n.l2_norm() == pytest.approx(1.0, rel=1e-13)


def test_grid_signal_length_checked(small_grid):
    with pytest.raises(DimensionMismatch):
        GridSignal(small_grid, np.zeros(7))


def test_signal_grid_mismatch(small_grid, ref_grid):
    with pytest.raises(GridMismatch):
        GridSignal(small_grid, np.zeros(16)) + GridSignal(ref_grid, np.zeros(256))


def test_conjugate_reflection(small_grid, rng):
    # The test-side reflection, and the DFT's map of it to the conjugate spectrum.
    f = random_signal(small_grid, rng)
    g = conjugate_reflection(f)
    expected = np.array([np.conj(f.values[(-k) % 16]) for k in range(16)])
    np.testing.assert_array_equal(g.values, expected)
    np.testing.assert_allclose(dft(g), np.conj(dft(f)), atol=1e-12)


def test_grid_lattice_enumeration(ref_grid):
    lat = GridLattice.cubic(ref_grid, 1.0)
    assert lat.count == 16
    np.testing.assert_allclose(lat.points[:, 0], np.arange(16.0))
    centered = lat.centered_points[:, 0]
    assert centered.min() == pytest.approx(-8.0)
    assert centered.max() == pytest.approx(7.0)


def test_grid_lattice_shear_enumeration():
    grid = PeriodicGrid(2, 4.0, 4)
    lat = GridLattice(Lattice(np.array([[1.0, 1.0], [0.0, 1.0]])), grid)
    assert lat.count == 16  # the shear generates all of (Z/4)^2


def _bfs_quotient(steps, L):
    """Breadth-first closure of {0} under adding the generator columns mod L."""
    gens = [tuple(int(v) % L for v in col) for col in np.asarray(steps).T]
    seen = {(0,) * len(gens)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple((a + b) % L for a, b in zip(p, g))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return np.array(sorted(seen), dtype=np.int64)


@pytest.mark.parametrize("steps, L", [
    ([[16]], 256),
    ([[6]], 81),          # odd L, step sharing the factor 3
    ([[7]], 81),          # coprime step: every point
    ([[-5]], 90),         # negative step
    ([[2, 0], [0, 3]], 12),
    ([[2, 1], [0, 2]], 12),       # sheared time lattice
    ([[3, 1], [0, 3]], 12),       # sheared frequency lattice
    ([[3, 6], [6, 3]], 9),        # odd L, generators that overlap
    ([[4, 2], [0, 4]], 32),
    ([[300, -1], [-13, 2]], 45),  # entries beyond L and below 0
], ids=lambda v: str(v).replace(" ", ""))
def test_enumerate_quotient_matches_bfs(steps, L):
    steps = np.array(steps, dtype=np.int64)
    got = _enumerate_quotient(steps.tobytes(), steps.shape[0], L)
    np.testing.assert_array_equal(got, _bfs_quotient(steps, L))
    assert not got.flags.writeable


def test_grid_lattice_flat_points_cached():
    grid = PeriodicGrid(2, 4.0, 8)
    lat = GridLattice(Lattice(np.array([[1.0, 0.5], [0.0, 1.0]])), grid)
    flat = lat._flat_points
    idx = lat.index_points
    np.testing.assert_array_equal(flat, idx[:, 0] * grid.points_per_axis + idx[:, 1])
    assert lat._flat_points is flat and not flat.flags.writeable


def test_grid_lattice_alignment_error(ref_grid):
    with pytest.raises(NonAlignedLattice):
        GridLattice.cubic(ref_grid, 0.1)


def test_coeff_array_validation(ref_grid):
    lat = GridLattice.cubic(ref_grid, 1.0)
    with pytest.raises(IndexMismatch):
        CoeffArray.over_lattice(lat, np.zeros(5))
    c = CoeffArray.over_lattice(lat, np.zeros(16))
    assert c.lattice.count == 16


def _superposition_matches_loop(grid, generator, rng):
    lat = GridLattice(Lattice(np.array(generator)), grid)
    c = CoeffArray.over_lattice(lat, rng.standard_normal(lat.count) * (1 + 1j))
    # A complex window without symmetry, so a correlation cannot pass for
    # the convolution.
    phi = random_signal(grid, rng)
    out = _superpose(lat, c.values[None], np.fft.fftn(phi.reshaped()))[0]
    np.testing.assert_allclose(out, lattice_superposition(c, phi).values, atol=1e-12)


def test_lattice_superposition_matches_loop(ref_grid, rng):
    _superposition_matches_loop(ref_grid, [[2.0]], rng)


@pytest.mark.parametrize(
    "generator",
    [[[1.0, 0.0], [0.0, 0.5]], [[1.0, 0.5], [0.0, 1.0]]],
    ids=["separable", "sheared"],
)
def test_lattice_superposition_matches_loop_2d(generator, rng):
    _superposition_matches_loop(PeriodicGrid(2, 4.0, 16), generator, rng)


@pytest.mark.parametrize("grid", [PeriodicGrid(1, 4.0, 16), PeriodicGrid(2, 2.0, 8)],
                         ids=["1d", "2d"])
def test_translates_match_translate(grid, rng):
    f = random_signal(grid, rng)
    # Every node, shifted so that half of the index vectors are negative.
    points = grid.index_vectors() - grid.points_per_axis // 2
    [rows] = _translates(_tiled_windows(f.reshaped()), points)
    assert rows.shape == (grid.size, grid.size)
    for row, idx in zip(rows, points):
        np.testing.assert_array_equal(row, translate(f, idx * grid.spacing).values)
