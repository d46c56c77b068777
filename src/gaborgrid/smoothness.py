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
as ``spaces._row_norms`` is for the space norms.  The embedding-chain
suite calls the seminorm kernel once, on its four Gaussian witnesses, and
the convolution kernel once, on the witness of its closed-form
convolution constant.

The derivative multiplier prod_j (2 pi i xi_j)^alpha_j and the inverse DFT
are tensor products over the axes, so the Schwartz kernel takes the
derivative stack one axis at a time (``_derivative_blocks``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gabor import GaborSystem, analyze
from .grid import (
    CoeffArray,
    GridLattice,
    GridSignal,
    PeriodicGrid,
)
from .spaces import (
    SpaceSpec,
    _weight_table,
    solid_discrete_norm,
)

# Spectral differentiation stays trustworthy to roughly this order at the
# grid sizes this package targets.
MAX_DERIVATIVE_ORDER = 6

# The (1 + |x|)^3-weighted slice norms carry rounding of about 3e-15 of the
# largest.  Fitting only the norms above this share of it, that rounding
# moves the fitted slope by under 1e-10 relative on the default 1-D and 2-D
# Gaussian systems (1.2e-8 at a 1e-10 floor).
_FIT_FLOOR = 1e-6


def _derivative_blocks(grid: PeriodicGrid, spectra: np.ndarray, order: int):
    """Yield, for every multi-index alpha with 0 < |alpha| <= order, the
    (S,) + grid.shape inverse DFTs of the forward DFTs ``spectra`` times
    prod_j (2 pi i xi_j)^alpha_j, in one of two block buffers reused from
    one alpha to the next; ``spectra`` is left untouched.

    The stack is built one axis at a time: for each order b of the last
    axis, one inverse FFT along it of spectra (2 pi i xi)^b; on a 2-D grid,
    then, for each a <= order - b, that block times (2 pi i xi)^a along the
    first axis and one inverse FFT along it.  At order 4 that is 19
    single-axis transforms where full 2-D transforms per alpha take 28.
    """
    xi = 2j * np.pi * (grid.freq_integers_axis() / grid.period)
    last = np.empty_like(spectra)
    block = np.empty_like(spectra)
    for b in range(order + 1):
        if grid.dim == 1 and b == 0:
            continue
        source = np.multiply(spectra, xi ** b, out=last) if b else spectra
        np.fft.ifft(source, axis=-1, out=last)
        if grid.dim == 1:
            yield last
            continue
        for a in range(order - b + 1):
            if a == b == 0:
                continue
            source = np.multiply(last, (xi ** a)[:, None], out=block) if a else last
            np.fft.ifft(source, axis=1, out=block)
            yield block


def _schwartz_rows(grid: PeriodicGrid, rows: np.ndarray, spectra: np.ndarray,
                   order: int) -> np.ndarray:
    """Schwartz seminorms of the (S, size) rows of grid samples, one per row,
    given their (S,) + grid.shape forward DFTs ``spectra`` (left untouched):
    the running maximum of the weighted sups, with the weight
    (1 + |x|)^order of ``spaces._weight_table``, of the rows and of their
    ``_derivative_blocks``."""
    w = _weight_table(grid, float(order))
    best = np.max(np.abs(rows) * w, axis=1)
    weighted = np.empty(rows.shape)
    for block in _derivative_blocks(grid, spectra, order):
        np.abs(block.reshape(rows.shape), out=weighted)
        weighted *= w
        np.maximum(best, np.max(weighted, axis=1), out=best)
    return best


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


@dataclass(frozen=True, eq=False)
class DecayProfile:
    """Per-frequency discrete norms of analysis coefficients with weighted sups.

    ``decay_sups[N]`` is sup over lambda1 of slice_norm * (1+|lambda1|)^N and
    ``growth_sups[N]`` uses the weight (1+|lambda1|)^-N, for N = 0..order.
    ``fitted_order`` is the least-squares slope of log slice_norm against
    log(1+|lambda1|) over the slice norms above ``_FIT_FLOOR`` of the
    largest, so it is a property of the window and not of the summation
    order; ``bounded_order`` is the smallest N whose growth-side
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

    def passes_decay(self) -> bool:
        """Rapid-decay signature: every weighted sup finite and the top
        weight order within a factor 10 of the unweighted sup."""
        if not np.all(np.isfinite(self.decay_sups)):
            return False
        if self.decay_sups[0] == 0.0:
            return True
        return bool(self.decay_sups[-1] <= 10.0 * self.decay_sups[0])


def _bounded_order(radii: np.ndarray, norms: np.ndarray, growth: np.ndarray) -> int | None:
    """Smallest N <= MAX_DERIVATIVE_ORDER with the (1+r)^-N weighted sup
    ``growth[N]`` within a factor 10 of the inner half's unweighted peak; an
    all-zero profile is bounded at order zero."""
    inner = norms[radii <= radii.max() / 2 + 1e-12]
    inner_peak = float(np.max(inner)) if inner.size else 0.0
    if inner_peak == 0.0:
        return 0 if growth[0] == 0.0 else None
    bounded = np.flatnonzero(growth <= 10.0 * inner_peak)
    return int(bounded[0]) if bounded.size else None


def decay_profile(system: GaborSystem, f: GridSignal, spec: SpaceSpec) -> DecayProfile:
    """Decay and growth profile of the analysis coefficients; see DecayProfile.

    Slice norms are the solid sequence norms of the solid space ``spec``.
    Rapid-decay tests read ``decay_sups``; slowly increasing inputs read the
    growth-side fields ``growth_sups`` and ``bounded_order``.
    """
    coeffs = analyze(system, f)
    slices = CoeffArray.over_lattice(system.time_lattice, coeffs.values)  # a column per frequency
    norms = solid_discrete_norm(slices, spec)
    pts = system.freq_lattice.centered_points
    radii = np.linalg.norm(pts, axis=-1)
    orders = np.arange(MAX_DERIVATIVE_ORDER + 1)
    decay = np.array([np.max(norms * (1.0 + radii) ** n) for n in orders])
    growth = np.array([np.max(norms * (1.0 + radii) ** (-n)) for n in orders])

    floor = float(np.max(norms)) * _FIT_FLOOR
    mask = norms > max(floor, 0.0)
    x = np.log1p(radii[mask])
    slope = 0.0
    if x.size >= 2 and np.ptp(x) > 0:
        x -= x.mean()  # the least-squares slope in closed form
        slope = x @ np.log(norms[mask]) / (x @ x)
    return DecayProfile(
        freq_points=pts,
        slice_norms=norms,
        decay_sups=decay,
        growth_sups=growth,
        fitted_order=float(slope),
        bounded_order=_bounded_order(radii, norms, growth),
    )
