from itertools import product

import numpy as np
import pytest

from gaborgrid.errors import DimensionMismatch, GridMismatch
from gaborgrid.gabor import _analysis, _synthesis
from gaborgrid.grid import (
    CoeffArray,
    PeriodicGrid,
    GridSignal,
    _ALIGN_TOL,
    _center_vector,
    _order_tuple,
    _tiled_windows,
    _translates,
    grids_compatible,
    require_same_grid,
    sample_gaussian,
)
from gaborgrid.lattice import PowerWeight
from gaborgrid.smoothness import MAX_DERIVATIVE_ORDER, _convolution_rows, _schwartz_rows


@pytest.fixture(scope="session")
def ref_grid():
    """Reference configuration grid: 1-d, period 16, 256 points."""
    return PeriodicGrid(1, 16.0, 256)


@pytest.fixture(scope="session")
def ref_window(ref_grid):
    return sample_gaussian(ref_grid)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def random_signal(grid, rng):
    vals = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    return GridSignal(grid, vals)


def smooth_random_signal(grid, rng, bandwidth=8):
    """Random band-concentrated signal; a grid stand-in for a Schwartz function.
    Its spectrum is complex normal noise under a Gaussian envelope."""
    radius = np.linalg.norm(grid.freq_integers(), axis=-1)
    envelope = np.exp(-((radius / bandwidth) ** 2))
    spectrum = envelope * (rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size))
    return GridSignal(grid, np.fft.ifftn((spectrum * grid.size).reshape(grid.shape)).ravel())


def lattice_superposition(coeffs, window):
    """sum_k c_k T_{x_k}(window) over the lattice of ``coeffs``, by a plain loop
    of ``np.roll`` translates: the reference for the FFT superposition."""
    out = np.zeros(window.grid.shape, dtype=complex)
    axes = tuple(range(window.grid.dim))
    for c, idx in zip(coeffs.values, coeffs.lattice.index_points):
        out += c * np.roll(window.reshaped(), tuple(idx), axis=axes)
    return GridSignal(window.grid, out.ravel())


def conjugate_reflection(f):
    """The signal t -> conj(f(-t)), read at the negated node indices."""
    flat = np.ravel_multi_index(tuple((-f.grid.index_vectors()).T), f.grid.shape, mode="wrap")
    return GridSignal(f.grid, np.conj(f.values[flat]))


def freq_integer(grid, xi):
    """The integer label m = xi P of a grid frequency xi; ValueError unless
    xi is a multiple of 1/P."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (grid.dim,):
        raise DimensionMismatch(f"frequency must have {grid.dim} components")
    m = xi * grid.period
    rounded = np.rint(m)
    if np.max(np.abs(m - rounded)) > _ALIGN_TOL:
        raise ValueError(f"{xi} is not a multiple of 1/period")
    return rounded.astype(int)


def modulation_phases(grid, m):
    """exp(2 pi i xi . x_k) over all nodes for integer frequency labels m."""
    L = grid.points_per_axis
    phase = (grid.index_vectors() @ np.atleast_1d(m)) % L
    return np.exp(2j * np.pi * phase / L)


def modulate(signal, xi):
    """Pointwise modulation (M_xi f)(t) = exp(2 pi i xi . t) f(t)."""
    m = freq_integer(signal.grid, xi)
    return GridSignal(signal.grid, signal.values * modulation_phases(signal.grid, m))


def frame_apply(system, f):
    """The frame operator S = synthesize . analyze, both with the window: the
    one-signal case of the fiber kernels."""
    require_same_grid(f, system.window)
    rows = _synthesis(system, _analysis(system, f.values[None]))
    return GridSignal(system.grid, rows[0])


def dense_frame_matrix(system):
    """Full frame-operator matrix, an oracle independent of the fiber path."""
    grid = system.grid
    [table] = _translates(_tiled_windows(system.window.reshaped()),
                           system.time_lattice.index_points)
    W = table.T
    L = grid.points_per_axis
    prod = (grid.index_vectors() @ system.freq_lattice.index_points.T) % L
    phases = np.exp(2j * np.pi * prod / L)
    cell = grid.spacing ** grid.dim
    # S factors over the product lattice: S = cell * (W W^H) hadamard (Phi Phi^H).
    return cell * (W @ W.conj().T) * (phases @ phases.conj().T)


def schwartz_seminorm(f, order):
    """sup over |alpha| <= order and nodes of |f^(alpha)(x)| (1+|x|)^order:
    the one-row case of ``smoothness._schwartz_rows``."""
    order = int(order)
    if not 0 <= order <= MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order must lie in 0..{MAX_DERIVATIVE_ORDER}")
    spectra = np.fft.fftn(f.reshaped())[None]
    return float(_schwartz_rows(f.grid, f.values.reshape(1, -1), spectra, order)[0])


def convolve_samples(e, phi, lat):
    """Quadrature-weighted periodic convolution e * phi sampled on a lattice:
    the one-row case of ``smoothness._convolution_rows``."""
    if not grids_compatible(e.grid, phi.grid):
        raise GridMismatch("signals live on different grids")
    if not grids_compatible(lat.grid, e.grid):
        raise GridMismatch("lattice lives on a different grid")
    rows = _convolution_rows(lat, np.fft.fftn(e.reshaped())[None],
                             np.fft.fftn(phi.reshaped())[None])
    return CoeffArray.over_lattice(lat, rows[0])


def multi_indices(dim, max_order):
    """All derivative multi-indices with total order at most max_order."""
    return [
        alpha
        for alpha in product(range(max_order + 1), repeat=dim)
        if sum(alpha) <= max_order
    ]


def derivative_rows(grid, spectra, order):
    """(S, size) rows: the inverse DFT of each of the (S,) + grid.shape forward
    DFTs ``spectra`` times prod_j (2 pi i xi_j)^order_j, by one full
    ``ifftn`` per multi-index: the reference for the per-axis derivative
    stack of ``smoothness._schwartz_rows``."""
    m = grid.freq_integers_axis() / grid.period
    spec = spectra
    for axis, o in enumerate(order):
        if o == 0:
            continue
        shape = [1] * grid.dim
        shape[axis] = grid.points_per_axis
        spec = spec * (2j * np.pi * m.reshape(shape)) ** o
    out = np.fft.ifftn(spec, axes=tuple(range(1, grid.dim + 1)))
    return out.reshape(-1, grid.size)


def schwartz_rows(grid, rows, spectra, order):
    """Schwartz seminorms of the (S, size) rows, one ``derivative_rows`` per
    multi-index: the reference for ``smoothness._schwartz_rows``."""
    w = PowerWeight(float(order))(grid.centered_nodes())
    best = np.zeros(rows.shape[0])
    for alpha in multi_indices(grid.dim, order):
        g = derivative_rows(grid, spectra, alpha) if any(alpha) else rows
        np.maximum(best, np.max(np.abs(g) * w, axis=1), out=best)
    return best


def spectral_derivative(f, order):
    """The derivative of one signal by the Fourier multiplier
    prod_j (2 pi i xi_j)^order_j: the one-row case of ``derivative_rows``."""
    spectra = np.fft.fftn(f.reshaped())[None]
    return GridSignal(f.grid, derivative_rows(f.grid, spectra, _order_tuple(f.grid, order))[0])


def gaussian_images(grid, center=0.0, width=1.0, normalize=False):
    """exp(-pi |x - c|^2 / width^2) summed over the 3^dim wrap images at every
    node: the reference for the per-axis outer product of
    ``grid.sample_gaussian``."""
    c = _center_vector(grid, center)
    d = grid.nodes() - c
    d = np.mod(d + grid.period / 2, grid.period) - grid.period / 2
    vals = np.zeros(grid.size)
    shifts = (-grid.period, 0.0, grid.period)
    for image in np.ndindex(*(3,) * grid.dim):
        offset = np.array([shifts[i] for i in image])
        vals += np.exp(-np.pi * np.sum((d + offset) ** 2, axis=-1) / width ** 2)
    sig = GridSignal(grid, vals)
    if normalize:
        sig = sig * (1.0 / sig.l2_norm())
    return sig


def covolume(lat):
    """|det A| of the lattice generator: the volume of a fundamental domain."""
    return abs(float(np.linalg.det(lat.generator)))


def count_fft_calls(monkeypatch):
    """Count calls of every numpy.fft transform by name; returns the live dict."""
    counts = {}
    for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                 "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft"):
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return counts


def record_fft_shapes(monkeypatch):
    """Record (name, input shape) of every numpy fftn, ifftn, rfftn and
    irfftn call; returns the live list."""
    shapes = []
    for name in ("fftn", "ifftn", "rfftn", "irfftn"):
        def recorded(a, *args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            shapes.append((_name, np.shape(a)))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, recorded)
    return shapes
