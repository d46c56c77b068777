"""Smoothness seminorms and coefficient decay/growth profiling.

The test-function side of the space family is probed numerically: the
Schwartz seminorm takes the largest weighted sup over spectral derivatives
up to a given order, and the profiles summarize how the per-frequency
discrete norms of the analysis coefficients behave against polynomial
weights.  Rapidly decreasing profiles (every positive weight order stays
bounded) signal smooth-class inputs; profiles that are only tamed by
negative weight orders signal distributional-class inputs.

The Schwartz seminorm and the sampled convolution each have one batched
kernel, ``_schwartz_rows`` and ``_convolution_rows``, over a stack of S
signals given as (S, size) rows and their (S,) + grid.shape forward DFTs,
as ``spaces._row_norms`` is for the space norms.  ``schwartz_seminorm``
and ``convolve_samples`` are their one-row cases; the verification suites
call the kernels on blocks of samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import GridMismatch
from .gabor import GaborSystem, analyze
from .grid import (
    CoeffArray,
    GridLattice,
    GridSignal,
    PeriodicGrid,
    _derivative_rows,
    grids_compatible,
)
from .lattice import PowerWeight
from .spaces import (
    SpaceSpec,
    discrete_norm,
    solid_discrete_norm,
)

# Spectral differentiation stays trustworthy to roughly this order at the
# grid sizes this package targets.
MAX_DERIVATIVE_ORDER = 6


def multi_indices(dim: int, max_order: int) -> list[tuple[int, ...]]:
    """All derivative multi-indices with total order at most max_order."""
    return [
        alpha
        for alpha in product(range(max_order + 1), repeat=dim)
        if sum(alpha) <= max_order
    ]


def _check_order(order: int) -> int:
    order = int(order)
    if not 0 <= order <= MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order must lie in 0..{MAX_DERIVATIVE_ORDER}")
    return order


def _schwartz_rows(grid: PeriodicGrid, rows: np.ndarray, spectra: np.ndarray,
                   order: int) -> np.ndarray:
    """Schwartz seminorms of the (S, size) rows of grid samples, one per row,
    given their (S,) + grid.shape forward DFTs ``spectra``."""
    w = PowerWeight(float(order))(grid.centered_nodes())
    best = np.zeros(rows.shape[0])
    for alpha in multi_indices(grid.dim, order):
        g = _derivative_rows(grid, spectra, alpha) if any(alpha) else rows
        np.maximum(best, np.max(np.abs(g) * w, axis=1), out=best)
    return best


def schwartz_seminorm(f: GridSignal, order: int) -> float:
    """sup over |alpha| <= order and nodes of |f^(alpha)(x)| (1+|x|)^order."""
    order = _check_order(order)
    rows = f.values.reshape(1, -1)
    spectra = np.fft.fftn(f.reshaped())[None]
    return float(_schwartz_rows(f.grid, rows, spectra, order)[0])


def _convolution_rows(lat: GridLattice, e_spectra: np.ndarray,
                      phi_spectra: np.ndarray) -> np.ndarray:
    """(S, count) rows: the quadrature-weighted periodic convolutions e * phi
    sampled on the lattice, for the (S,) + grid.shape forward DFTs of the
    e and phi rows.  ``e_spectra`` is overwritten."""
    grid = lat.grid
    e_spectra *= phi_spectra
    np.fft.ifftn(e_spectra, axes=tuple(range(1, grid.dim + 1)), out=e_spectra)
    conv = e_spectra.reshape(-1, grid.size)[:, lat._flat_points]
    return grid.spacing ** grid.dim * conv


def convolve_samples(e: GridSignal, phi: GridSignal, lat: GridLattice) -> CoeffArray:
    """Quadrature-weighted periodic convolution e * phi sampled on a lattice."""
    if not grids_compatible(e.grid, phi.grid):
        raise GridMismatch("signals live on different grids")
    if not grids_compatible(lat.grid, e.grid):
        raise GridMismatch("lattice lives on a different grid")
    rows = _convolution_rows(lat, np.fft.fftn(e.reshaped())[None],
                             np.fft.fftn(phi.reshaped())[None])
    return CoeffArray.over_lattice(lat, rows[0])


@dataclass(frozen=True, eq=False)
class DecayProfile:
    """Per-frequency discrete norms of analysis coefficients with weighted sups.

    ``decay_sups[N]`` is sup over lambda1 of slice_norm * (1+|lambda1|)^N and
    ``growth_sups[N]`` uses the weight (1+|lambda1|)^-N, for N = 0..order.
    ``fitted_order`` is the least-squares slope of log slice_norm against
    log(1+|lambda1|) over the slice norms above 1e-10 of the largest, well
    clear of rounding, so it is a property of the window and not of the
    summation order; ``bounded_order`` is the smallest N whose growth-side
    weighted profile is dominated by the inner half of the frequency range
    (None when even the largest N fails).
    """

    freq_points: np.ndarray
    slice_norms: np.ndarray
    decay_sups: np.ndarray
    growth_sups: np.ndarray
    fitted_order: float
    bounded_order: int | None

    @property
    def order(self) -> int:
        return len(self.decay_sups) - 1

    def passes_decay(self, ratio_limit: float = 10.0) -> bool:
        """Rapid-decay signature: every weighted sup finite and the top
        weight order within ratio_limit of the unweighted sup."""
        if not np.all(np.isfinite(self.decay_sups)):
            return False
        if self.decay_sups[0] == 0.0:
            return True
        return bool(self.decay_sups[-1] <= ratio_limit * self.decay_sups[0])


def _bounded_order(radii: np.ndarray, norms: np.ndarray, max_order: int,
                   margin: float = 10.0) -> int | None:
    """Smallest N with the (1+r)^-N weighted sup within margin of the inner
    half's unweighted peak; an all-zero profile is bounded at order zero."""
    peak = float(np.max(norms))
    if peak == 0.0:
        return 0
    inner = norms[radii <= radii.max() / 2 + 1e-12]
    inner_peak = float(np.max(inner)) if inner.size else 0.0
    if inner_peak == 0.0:
        return None
    for order in range(max_order + 1):
        weighted = norms * (1.0 + radii) ** (-order)
        if float(np.max(weighted)) <= margin * inner_peak:
            return order
    return None


def decay_profile(system: GaborSystem, f: GridSignal, spec: SpaceSpec,
                  window: GridSignal | None = None,
                  max_order: int = MAX_DERIVATIVE_ORDER) -> DecayProfile:
    """Decay and growth profile of the analysis coefficients; see DecayProfile.

    Slice norms use the solid sequence shortcut when the space is solid and
    no window is supplied, otherwise the discrete norm with the window.
    Rapid-decay tests read ``decay_sups``; slowly increasing inputs read the
    growth-side fields ``growth_sups`` and ``bounded_order``.
    """
    max_order = _check_order(max_order)
    coeffs = analyze(system, f)
    slices = CoeffArray.over_lattice(system.time_lattice, coeffs.values)  # a column per frequency
    if window is None:
        norms = solid_discrete_norm(slices, spec)
    else:
        norms = discrete_norm(slices, spec, window)
    pts = system.freq_lattice.centered_points
    radii = np.linalg.norm(pts, axis=-1)
    orders = np.arange(max_order + 1)
    decay = np.array([np.max(norms * (1.0 + radii) ** n) for n in orders])
    growth = np.array([np.max(norms * (1.0 + radii) ** (-n)) for n in orders])

    floor = float(np.max(norms)) * 1e-10
    mask = norms > max(floor, 0.0)
    if np.count_nonzero(mask) >= 2 and np.ptp(np.log1p(radii[mask])) > 0:
        slope = np.polyfit(np.log1p(radii[mask]), np.log(norms[mask]), 1)[0]
    else:
        slope = 0.0
    return DecayProfile(
        freq_points=pts,
        slice_norms=norms,
        decay_sups=decay,
        growth_sups=growth,
        fitted_order=float(slope),
        bounded_order=_bounded_order(radii, norms, max_order),
    )
