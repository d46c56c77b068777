"""Short-time Fourier transform on grid signals.

The transform is the classical windowed integral

    V[k, m] = spacing^n * sum_t f(t) conj(psi(t - x_k)) exp(-2 pi i xi_m . t),

taken by one translate-gather kernel, ``_lattice_stft``, on any time nodes
x_k and frequency nodes xi_m.  The full transform is its case of every node
and every bin, bins in DFT order (bin j is labelled by
``grid.freq_integers()[j]``); the Wexler-Raz residual of ``gabor`` is its
case of the adjoint lattice.

The STFT derivative identity is checked from the frequency side without a
full table and without an inverse FFT.  The difference of its two sides
has one row per bin: the inverse FFT of the spectrum of f, shifted by the
bin, times the window's conjugate spectrum and an aliasing symbol.  The
check needs a verdict against a threshold, so the maximum over all rows is
enclosed, not found.  Each row's maximum is at most the sum of its
magnitudes, and that bound is, for every bin at once, a correlation of the
two magnitude spectra weighted by the symbol: one FFT (direct sums in 1-D),
widened by a bound on its rounding.  The top bin's row is at least its
2-norm over the grid size (Parseval).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ResourceLimit
from .grid import (
    GridSignal,
    PeriodicGrid,
    _lattice_fold,
    _order_tuple,
    _tiled_windows,
    _translates,
    require_same_grid,
)

# Refuse full transforms whose output would exceed 2^26 complex entries.
_FULL_STFT_LIMIT = 2 ** 26

# Gather at most this many bytes of window translates at a time: a table of
# all of them holds a signal per time node, 1 GB for a full transform at
# _FULL_STFT_LIMIT.
_BATCH_BYTES = 2 ** 17

_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u): (1 + delta_1) ... (1 + delta_k),
    every |delta_i| <= u, lies within 1 +- gamma_k."""
    return k * _UNIT_ROUNDOFF / (1 - k * _UNIT_ROUNDOFF)


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


def _lattice_stft(values: np.ndarray, psi: GridSignal, time_points: np.ndarray,
                  freq_points: np.ndarray) -> np.ndarray:
    """(K, M) STFT samples of the (size,) signal ``values`` with window psi
    at the (K, dim) time index points and the (M, dim) distinct, sorted bin
    index points (as ``GridLattice.index_points``): conjugated translates of
    psi, in blocks under ``_BATCH_BYTES``, times f, folded onto the period
    of the bins, then one FFT of the fold.  For every bin the fold is
    the grid and the table is filled in place, with no gather.
    """
    grid = psi.grid
    shape, split, bins = _lattice_fold(freq_points, grid.points_per_axis)
    periods = tuple(range(1, 2 * grid.dim, 2))
    count = len(time_points)
    folded = np.empty((count,) + shape, dtype=complex)
    block = max(1, _BATCH_BYTES // (16 * grid.size))
    translates = _translates(_tiled_windows(psi.reshaped()), time_points, block)
    for lo, rows in zip(range(0, count, block), translates):
        part = folded[lo:lo + block]
        np.conjugate(rows, out=rows)
        rows *= values
        np.sum(rows.reshape((len(rows),) + split), axis=periods, out=part)
    np.fft.fftn(folded, axes=tuple(range(1, grid.dim + 1)), out=folded)
    inner = folded.reshape(count, -1)
    if len(bins) < inner.shape[1]:
        inner = inner[:, bins]
    inner *= grid.spacing ** grid.dim
    return inner


def _correlation_bound(grid: PeriodicGrid, spectrum: np.ndarray, window: np.ndarray,
                       order: tuple[int, ...]) -> np.ndarray:
    """The row bound U of every bin, widened by its rounding, from one
    correlation of the grid-shaped magnitudes ``spectrum`` = |F| and
    ``window`` = |Psi| (DFT order); flattened in bin order, without the
    factor spacing^n (2 pi / P)^|alpha| of the defect.

    On each axis the label of bin m + eta is lab(m) + lab(eta) + w with a
    wrap w in {-L, 0, L}, and w = -L sign(lab(m)) is the only wrap other
    than 0 that bin m admits.  So sigma(m, eta) = prod_a lab(m_a)^alpha_a -
    prod_a (lab(m_a) + w_a)^alpha_a depends on m and the wrap pattern alone,
    and is 0 for the pattern without a wrap.  The sum of |F(m + eta)|
    |Psi(eta)| over the eta of one pattern is C(lab(m) + w), the linear
    correlation of |F| and |Psi| in label order, so

        U(m) = (1/size) sum_{w != 0} |sigma(m, w)| C(lab(m) + w).

    Each pattern is a gather of C.  In 1-D, ``np.correlate`` sums C
    directly: L^2 multiply-adds in one call, with relative rounding only.
    Direct sums cost size^2 in every dimension, too many on 2-D grids, so
    there C is one real FFT correlation, zero-padded to a power of two per
    axis (at least 2L - 1 points, so nothing wraps), and each gathered C is
    widened by a bound on the FFT's absolute rounding.  Either way the
    result is at least U up to the relative rounding of the sums.
    """
    L = grid.points_per_axis
    axes = tuple(range(1, grid.dim + 1))
    # Label order: fftshift puts label -(L // 2) first on every axis.
    pair = np.fft.fftshift(np.stack([spectrum, window]), axes=axes)
    if grid.dim == 1:
        # 2L - 1 lags of at most L terms, summed directly.
        pad = 2 * L - 1
        corr = np.roll(np.correlate(pair[0], pair[1], "full"), 1 - L)
        allowance = 0.0
    else:
        pad = 1 << (2 * L - 2).bit_length()
        s = (pad,) * grid.dim
        transforms = np.fft.rfftn(pair, s=s, axes=axes)
        corr = np.fft.irfftn(transforms[0] * np.conj(transforms[1]), s=s,
                             axes=tuple(range(grid.dim)))
        # Rounding allowance for every entry of corr.  Higham, Accuracy and
        # Stability of Numerical Algorithms (2nd ed.), Thm 24.2: an FFT of
        # N = 2^t points whose twiddle factors carry errors <= mu has
        # ||fl(Fx) - Fx||_2 <= kappa ||Fx||_2, kappa = t eta / (1 - t eta),
        # eta = mu + gamma_4 (sqrt(2) + mu).  mu = u: numpy's pocketfft
        # takes its twiddles to within an ulp.  A radix-4 pass counts as two
        # radix-2 passes, and the real transforms are taken to obey the
        # bound of the complex ones.
        #
        # For x = |F|, y = |Psi| (padded to N points) let X = Fx, Y = Fy, so
        # ||X||_2 = sqrt(N) ||x||_2, and the exact correlation is
        # c = F^-1(X conj Y).  The computed X~, Y~ are within kappa ||X||_2
        # and kappa ||Y||_2; each computed product Z~ is within
        # sqrt(2) gamma_2 |X~| |Y~| of X~ conj Y~ (Lemma 3.5), and
        # sqrt(2) gamma_2 < eta <= kappa.  By Cauchy-Schwarz every entry of
        # F^-1(a b) is at most ||a||_2 ||b||_2 / N, so the entries of
        # F^-1(Z~ - X conj Y), split as (X~ - X) conj Y~ + X conj(Y~ - Y)
        # plus the product rounding, are within
        # (kappa (1 + kappa) + kappa + kappa (1 + kappa)^2) ||x||_2 ||y||_2,
        # which is at most 4 kappa ||x||_2 ||y||_2.  The inverse transform
        # (its 1/N is exact) adds at most kappa ||F^-1 Z~||_2 <= kappa
        # ||corr||_2 / (1 - kappa) <= 2 kappa ||corr||_2, read from its own
        # output.  The slack in both constants covers the rounding of the
        # norms and of the allowance itself.
        t = grid.dim * (pad.bit_length() - 1)
        eta = _UNIT_ROUNDOFF + _gamma(4) * (np.sqrt(2) + _UNIT_ROUNDOFF)
        kappa = t * eta / (1 - t * eta)
        norms = np.sqrt(np.sum(pair ** 2, axis=axes))
        allowance = kappa * (4 * norms[0] * norms[1] + 2 * np.sqrt(np.sum(corr ** 2)))

    # Per axis, the lag of bin m without a wrap and with its one wrap, and
    # the bins that admit the wrap (all but label 0).
    lab = grid.freq_integers_axis()
    lags = (lab, lab - L * np.sign(lab))
    admits = (np.ones(L), (lab != 0).astype(float))
    powers = [[lag.astype(float) ** o for lag in lags] for o in order]
    outer = functools.partial(functools.reduce, np.multiply.outer)
    lhs = outer([p[0] for p in powers])
    bound = np.zeros(grid.shape)
    for pattern in list(itertools.product((0, 1), repeat=grid.dim))[1:]:
        sigma = np.abs(lhs - outer([p[w] for p, w in zip(powers, pattern)]))
        sigma *= outer([admits[w] for w in pattern])
        gathered = corr[np.ix_(*(lags[w] % pad for w in pattern))]
        bound += sigma * (gathered + allowance)
    return bound.ravel() / grid.size


def stft(f: GridSignal, psi: GridSignal) -> TFArray:
    """Full STFT over every (time node, frequency bin) pair."""
    require_same_grid(f, psi)
    grid = f.grid
    if grid.size ** 2 > _FULL_STFT_LIMIT:
        raise ResourceLimit(
            f"full STFT needs {grid.size ** 2} entries, over the 2^26 budget"
        )
    nodes = grid.index_vectors()
    return TFArray(grid, _lattice_stft(f.values, psi, nodes, nodes))


def derivative_identity_defect(f: GridSignal, psi: GridSignal,
                               order) -> tuple[float, float]:
    """(lower, upper): an enclosure of the discretization defect of the STFT
    derivative identity, taken from the computed spectra of f and psi.

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

    which is exactly 0 wherever no label wraps.  The defect D is the maximum
    absolute entry over every (time node, bin) pair, times the scale
    s = spacing^n (2 pi / P)^|alpha|.  No row is transformed:

    - upper: row m's maximum is at most U(m) = sum_eta |G_m(eta)| / size
      (triangle inequality), and ``_correlation_bound`` bounds U for every
      bin at once.  upper is s times the largest bound.
    - lower: the inverse FFT r of G_m has ||r||_2 = ||G_m||_2 / sqrt(size)
      (Parseval), so max_k |r(k)| >= ||G_m||_2 / size.  lower is s times
      that at the bin of the largest bound.

    Both are moved outward by their own rounding, so lower <= D <= upper
    for the exact inverse transforms of the computed spectra.  A check
    passes when upper is at most its threshold and fails otherwise; the
    failure is proven when lower is above it too.  sigma is exact while
    L^|alpha| < 2^53 (every integer product is then a float).
    """
    require_same_grid(f, psi)
    grid = f.grid
    order = _order_tuple(grid, order)
    if any(o > 4 for o in order):
        raise DimensionMismatch("order components must lie in 0..4")
    if all(o == 0 for o in order):
        return 0.0, 0.0

    L = grid.points_per_axis
    spectrum = np.abs(np.fft.fftn(f.reshaped()))
    window = np.abs(np.fft.fftn(psi.reshaped()))
    bound = _correlation_bound(grid, spectrum, window, order)
    top = grid.index_vectors()[int(np.argmax(bound))]
    # |G_m| at the top bin m.  Per axis lab(m_a + eta_a) - lab(eta_a) is
    # lab(m_a) plus its wrap.
    lab = grid.freq_integers_axis()
    factors = [(lab[(m + np.arange(L)) % L] - lab).astype(float) ** o
               for m, o in zip(top, order)]
    sigma = (np.prod([float(lab[m]) ** o for m, o in zip(top, order)])
             - functools.reduce(np.multiply.outer, factors))
    row = np.roll(spectrum, tuple(-top), axis=tuple(range(grid.dim))) * window
    row *= np.abs(sigma)
    # Every step here and in ``_correlation_bound`` acts on nonnegative
    # numbers, so each computed end is its exact value times at most K
    # factors 1 + delta, |delta| <= u, and gamma_K moves it outward.  K
    # counts |F| and |Psi| (hypot, within an ulp: 2 each) and, for upper,
    # their product and the L - 1 additions of the 1-D correlation (in 2-D
    # and up the allowance covers the FFT correlation and adding it is 1),
    # the product with |sigma|, the 2^n - 1 additions over wrap patterns and
    # the division by size; for lower, the two products, the square, the
    # size - 1 additions, the square root and the division by size; for
    # both, the product with s and the 2 of forming and applying 1 -+ gamma.
    widen = _gamma(grid.size + L + 2 ** grid.dim + 8)
    scale = grid.spacing ** grid.dim * (2 * np.pi / grid.period) ** sum(order)
    lower = scale * np.sqrt(np.sum(row ** 2)) / grid.size * (1 - widen)
    upper = scale * float(np.max(bound)) * (1 + widen)
    return float(lower), float(upper)
