import numpy as np
import pytest

from gaborgrid.grid import PeriodicGrid, GridSignal, sample_gaussian


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
    """Record (name, input shape) of every numpy fftn and ifftn call; returns
    the live list."""
    shapes = []
    for name in ("fftn", "ifftn"):
        def recorded(a, *args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            shapes.append((_name, np.shape(a)))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, recorded)
    return shapes
