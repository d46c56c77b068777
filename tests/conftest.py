import numpy as np
import pytest

from gaborgrid.grid import (
    PeriodicGrid,
    GridSignal,
    _derivative_rows,
    _order_tuple,
    sample_gaussian,
)


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


def spectral_derivative(f, order):
    """The derivative of one signal by the Fourier multiplier
    prod_j (2 pi i xi_j)^order_j: the one-row case of ``grid._derivative_rows``,
    the kernel of the Schwartz seminorm."""
    spectra = np.fft.fftn(f.reshaped())[None]
    return GridSignal(f.grid, _derivative_rows(f.grid, spectra, _order_tuple(f.grid, order))[0])


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
