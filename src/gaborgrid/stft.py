"""Short-time Fourier transform on grid signals.

The transform is the classical windowed integral

    V[k, m] = spacing^n * sum_t f(t) conj(psi(t - x_k)) exp(-2 pi i xi_m . t),

evaluated on the translate gather of ``grid``: one batch of FFTs over t, a
row per time node.  Time nodes run over the whole grid for the full
transform; frequency bins are kept in DFT order so that bin j of row k is
the frequency node labelled by ``grid.freq_integers()[j]``.

The STFT derivative identity is checked from the frequency side without a
full table: the difference of its two sides is one inverse FFT per bin of
the spectrum of f, shifted by the bin, times the window's conjugate spectrum
and an aliasing symbol, and only the running maximum is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ResourceLimit
from .grid import (
    GridSignal,
    PeriodicGrid,
    _block_rows,
    _order_tuple,
    _translates,
    require_same_grid,
)

# Refuse full transforms whose output would exceed 2^26 complex entries.
_FULL_STFT_LIMIT = 2 ** 26


@dataclass(frozen=True, eq=False)
class TFArray:
    """Full time-frequency table: rows are time nodes, columns DFT bins."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=complex)
        if v.shape != (self.grid.size, self.grid.size):
            raise DimensionMismatch(
                f"expected shape {(self.grid.size,) * 2}, got {v.shape}"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def stft(f: GridSignal, psi: GridSignal) -> TFArray:
    """Full STFT over every (time node, frequency bin) pair."""
    require_same_grid(f, psi)
    grid = f.grid
    if grid.size ** 2 > _FULL_STFT_LIMIT:
        raise ResourceLimit(
            f"full STFT needs {grid.size ** 2} entries, over the 2^26 budget"
        )
    [rows] = _translates(psi, grid.index_vectors())
    np.conjugate(rows, out=rows)
    rows *= f.values
    shaped = rows.reshape((-1,) + grid.shape)
    np.fft.fftn(shaped, axes=tuple(range(1, grid.dim + 1)), out=shaped)
    rows *= grid.spacing ** grid.dim
    return TFArray(grid, rows)


def derivative_identity_defect(f: GridSignal, psi: GridSignal, order) -> float:
    """Discretization defect of the STFT derivative identity.

    In the continuum (2 pi i xi)^alpha V_psi f equals the binomial sum of
    STFTs of the derivatives of f against the derivatives of psi,

        sum_{beta <= alpha} C(alpha, beta) V_{psi^(alpha-beta)} f^(beta),

    exactly.  On the grid, with the derivatives taken spectrally, the STFT at
    time node k and bin m is spacing^n ifft_eta[F(m + eta) conj Psi(eta)](k)
    for the DFTs F and Psi of f and psi, and the binomial theorem collapses
    the right side's multipliers to prod_a (2 pi i (lab(m_a + eta_a) -
    lab(eta_a)) / P)^alpha_a, where lab is the label of
    ``grid.freq_integers_axis``.  So the difference of the two sides is the
    same inverse FFT of F(m + eta) conj Psi(eta) times (2 pi i / P)^|alpha|
    and the aliasing symbol

        sigma(m, eta) = prod_a lab(m_a)^alpha_a
                        - prod_a (lab(m_a + eta_a) - lab(eta_a))^alpha_a,

    which is exactly 0 wherever no label wraps.  The maximum absolute entry
    is returned.  Bins run in blocks under the shared ``grid._BATCH_BYTES``
    budget; each block is one gather of F, sigma from the block's own bin
    labels, one product and one inverse FFT in place, and only the running
    maximum is kept.
    """
    require_same_grid(f, psi)
    grid = f.grid
    order = _order_tuple(grid, order)
    if any(o > 4 for o in order):
        raise DimensionMismatch("order components must lie in 0..4")
    if all(o == 0 for o in order):
        return 0.0

    L = grid.points_per_axis
    lab = grid.freq_integers_axis().astype(float)
    # Row m of ``shifted`` is lab(m + eta) over eta: a view, no table.
    shifted = np.lib.stride_tricks.sliding_window_view(np.tile(lab, 2)[:-1], L)
    bins = grid.index_vectors()
    spectrum = GridSignal(grid.reciprocal(), np.fft.fftn(f.reshaped()).ravel())
    window = np.conj(np.fft.fftn(psi.reshaped()))
    axes = tuple(range(1, grid.dim + 1))
    block = _block_rows(grid.size)
    worst = 0.0
    for lo, rows in zip(range(0, grid.size, block), _translates(spectrum, -bins, block)):
        m = bins[lo:lo + block]
        # sigma from the block's own bins.  As lab(0) = 0, column eta = 0 of
        # each factor is lab(m_a)^alpha_a, and the unwrapped entries equal it
        # exactly, so sigma is an exact 0 there.
        lhs = rhs = 1.0
        for axis, o in enumerate(order):
            if o:
                factor = (shifted[m[:, axis]] - lab) ** o
                shape = [-1] + [1] * grid.dim
                shape[axis + 1] = L
                lhs = lhs * factor[:, 0]
                rhs = rhs * factor.reshape(shape)
        shaped = rows.reshape((-1,) + grid.shape)
        shaped *= window
        shaped *= lhs.reshape((-1,) + (1,) * grid.dim) - rhs
        np.fft.ifftn(shaped, axes=axes, out=shaped)
        worst = max(worst, float(np.max(np.abs(rows))))
    return grid.spacing ** grid.dim * (2 * np.pi / grid.period) ** sum(order) * worst
