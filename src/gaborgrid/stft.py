"""Short-time Fourier transform on grid signals.

The transform is the classical windowed integral

    V[k, m] = spacing^n * sum_t f(t) conj(psi(t - x_k)) exp(-2 pi i xi_m . t),

evaluated by the windowed-DFT kernel of ``grid``: one batch of FFTs over t,
a row per time node.  Time nodes run over the whole grid for the full
transform; frequency bins are kept in DFT order so that bin j of row k is
the frequency node labelled by ``grid.freq_integers()[j]``.

The STFT derivative identity is checked on the same kernel without a full
table: each block of time nodes takes one FFT per row for each side, and
only the running maximum of the difference is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import DimensionMismatch, ResourceLimit
from .grid import (
    GridSignal,
    PeriodicGrid,
    _block_rows,
    _order_tuple,
    _windowed_dft,
    require_same_grid,
    spectral_derivative,
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
    [rows] = _windowed_dft([(f, psi)], grid.index_vectors())
    rows *= grid.spacing ** grid.dim
    return TFArray(grid, rows)


def derivative_identity_defect(f: GridSignal, psi: GridSignal, order) -> float:
    """Discretization defect of the STFT derivative identity.

    In the continuum (2 pi i xi)^alpha V_psi f equals the binomial sum of
    STFTs of the derivatives of f against the derivatives of psi,

        sum_{beta <= alpha} C(alpha, beta) V_{psi^(alpha-beta)} f^(beta),

    exactly.  Both sides are computed independently on the grid and the
    maximum absolute entry difference is returned.  The left side is the
    STFT times the frequency multiplier; the right side sums the weighted
    products C f^(beta) conj(psi^(alpha-beta)(t - x)) in time before one
    FFT, with the derivatives taken spectrally.  So every row takes two
    FFTs.  Rows are formed in blocks of time nodes under the shared
    ``grid._BATCH_BYTES`` budget and only the running maximum is kept, so no
    full (size, size) table is held.
    """
    require_same_grid(f, psi)
    grid = f.grid
    order = _order_tuple(grid, order)
    if any(o > 4 for o in order):
        raise DimensionMismatch("order components must lie in 0..4")
    if all(o == 0 for o in order):
        return 0.0

    xi = grid.freq_nodes()
    factor = np.ones(grid.size, dtype=complex)
    for axis, o in enumerate(order):
        if o:
            factor = factor * (2j * np.pi * xi[:, axis]) ** o

    terms = []
    for beta in _multi_range(order):
        coeff = 1
        for o, b in zip(order, beta):
            coeff *= comb(o, b)
        df = spectral_derivative(f, beta) if any(beta) else f
        rem = tuple(o - b for o, b in zip(order, beta))
        dpsi = spectral_derivative(psi, rem) if any(rem) else psi
        terms.append((coeff * df, dpsi))

    points = grid.index_vectors()
    block = _block_rows(grid.size)
    worst = 0.0
    for lhs, rhs in zip(_windowed_dft([(f, psi)], points, block),
                        _windowed_dft(terms, points, block)):
        lhs *= factor
        lhs -= rhs
        worst = max(worst, float(np.max(np.abs(lhs))))
    return grid.spacing ** grid.dim * worst


def _multi_range(order: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All multi-indices beta with beta <= order componentwise."""
    out = [()]
    for o in order:
        out = [b + (k,) for b in out for k in range(o + 1)]
    return out
