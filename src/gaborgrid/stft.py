"""Short-time Fourier transform on grid signals.

The transform is the classical windowed integral

    V[k, m] = spacing^n * sum_t f(t) conj(psi(t - x_k)) exp(-2 pi i xi_m . t),

evaluated on the translate gather of ``grid``: one batch of FFTs over t, a
row per time node.  Time nodes run over the whole grid for the full
transform; frequency bins are kept in DFT order so that bin j of row k is
the frequency node labelled by ``grid.freq_integers()[j]``.

The STFT derivative identity is checked from the frequency side without a
full table.  The difference of its two sides has one row per bin: the
inverse FFT of the spectrum of f, shifted by the bin, times the window's
conjugate spectrum and an aliasing symbol.  Only its maximum is reported,
so the rows are pruned exactly: one real pass, with no FFT, bounds every
row's maximum by the sum of its magnitudes, and the rows are transformed
in order of that bound until no bound left can reach the running maximum.
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

# Relative slack on the row bounds of the derivative-identity defect: far
# above the rounding of the bounds and of the transformed rows, so a row
# is skipped only when its computed maximum cannot reach the running one.
_BOUND_SLACK = 1e-9


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
    [rows] = _translates(psi.reshaped(), grid.index_vectors())
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
    same inverse FFT of G_m(eta) = F(m + eta) conj Psi(eta) sigma(m, eta)
    times (2 pi i / P)^|alpha|, with the aliasing symbol

        sigma(m, eta) = prod_a lab(m_a)^alpha_a
                        - prod_a (lab(m_a + eta_a) - lab(eta_a))^alpha_a,

    which is exactly 0 wherever no label wraps.  The maximum absolute entry
    is returned.  By the triangle inequality, row m's maximum is at most
    U(m) = sum_eta |G_m(eta)| / size.  One real pass takes U for every bin,
    with no FFT; the rows are then transformed exactly in order of
    decreasing U, and the pass stops once no bound left, widened by a slack
    far above rounding, exceeds the running maximum.  A row with U = 0 is
    an exact zero and is never transformed.  Both passes run in blocks of
    bins under the shared ``grid._BATCH_BYTES`` budget (twice the rows for
    the real bounds); each block builds sigma from its own bin labels, so no
    table over all bin pairs is held.
    """
    return _pruned_defect(f, psi, order)[0]


def _pruned_defect(f: GridSignal, psi: GridSignal, order) -> tuple[float, int]:
    """(defect, rows): ``derivative_identity_defect`` and the number of bin
    rows it transformed to find it."""
    require_same_grid(f, psi)
    grid = f.grid
    order = _order_tuple(grid, order)
    if any(o > 4 for o in order):
        raise DimensionMismatch("order components must lie in 0..4")
    if all(o == 0 for o in order):
        return 0.0, 0

    L = grid.points_per_axis
    lab = grid.freq_integers_axis().astype(float)
    # Row m of ``shifted`` is lab(m + eta) over eta: a view, no table.
    shifted = np.lib.stride_tricks.sliding_window_view(np.tile(lab, 2)[:-1], L)
    bins = grid.index_vectors()
    axes = tuple(range(1, grid.dim + 1))

    def symbol(m):
        # sigma for the bins m, broadcastable to (len(m),) + grid.shape.  As
        # lab(0) = 0, column eta = 0 of each factor is lab(m_a)^alpha_a, and
        # the unwrapped entries equal it exactly, so sigma is an exact 0 there.
        lhs = rhs = 1.0
        for axis, o in enumerate(order):
            if o:
                factor = (shifted[m[:, axis]] - lab) ** o
                shape = [-1] + [1] * grid.dim
                shape[axis + 1] = L
                lhs = lhs * factor[:, 0]
                rhs = rhs * factor.reshape(shape)
        return lhs.reshape((-1,) + (1,) * grid.dim) - rhs

    spectrum = np.fft.fftn(f.reshaped())
    window = np.conj(np.fft.fftn(psi.reshaped()))

    # Pass 1: the bound U of every row; real rows take half the bytes.
    magnitude = np.abs(window) / grid.size
    bound = np.empty(grid.size)
    block = 2 * _block_rows(grid.size)
    for lo, rows in zip(range(0, grid.size, block),
                        _translates(np.abs(spectrum), -bins, block)):
        shaped = rows.reshape((-1,) + grid.shape)
        shaped *= magnitude
        shaped *= np.abs(symbol(bins[lo:lo + block]))
        bound[lo:lo + block] = rows.sum(axis=1)

    # Pass 2: exact rows by decreasing bound.  Only a prefix of each block
    # can still exceed the running maximum; once none can, stop.  The strict
    # comparison never transforms a row with U = 0.
    ranked = np.argsort(-bound, kind="stable")
    reach = bound[ranked] * (1.0 + _BOUND_SLACK)
    block = _block_rows(grid.size)
    worst = 0.0
    evaluated = 0
    for lo, rows in zip(range(0, grid.size, block),
                        _translates(spectrum, -bins[ranked], block)):
        live = int(np.count_nonzero(reach[lo:lo + block] > worst))
        if not live:
            break
        rows = rows[:live]
        shaped = rows.reshape((-1,) + grid.shape)
        shaped *= window
        shaped *= symbol(bins[ranked[lo:lo + live]])
        np.fft.ifftn(shaped, axes=axes, out=shaped)
        worst = max(worst, float(np.max(np.abs(rows))))
        evaluated += live
    scale = grid.spacing ** grid.dim * (2 * np.pi / grid.period) ** sum(order)
    return scale * worst, evaluated
