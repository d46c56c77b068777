"""Short-time Fourier transform on grid signals.

The transform is the classical windowed integral

    V[k, m] = spacing^n * sum_t f(t) conj(psi(t - x_k)) exp(-2 pi i xi_m . t),

taken by one translate-gather kernel, ``_lattice_stft``, on any time nodes
x_k and frequency nodes xi_m.  The full transform is its case of every node
and every bin, bins in DFT order (bin j is labelled by
``grid.freq_integers()[j]``); the Wexler-Raz residual of ``gabor`` is its
case of the adjoint lattice.

The STFT derivative identity is checked from the frequency side without a
full table.  The difference of its two sides has one row per bin: the
inverse FFT of the spectrum of f, shifted by the bin, times the window's
conjugate spectrum and an aliasing symbol.  Only its maximum is reported,
so the rows are pruned exactly.  Each row's maximum is at most the sum of
its magnitudes, and that bound is, for every bin at once, a correlation of
the two magnitude spectra weighted by the symbol: one FFT (direct sums in
1-D), widened by a bound on its rounding.  Only the bins whose widened
bound can reach the running maximum take the direct sum of their own row,
and the rows are transformed in order of it until none left can.
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
    _block_rows,
    _lattice_fold,
    _order_tuple,
    _tiled_windows,
    _translates,
    require_same_grid,
)

# Refuse full transforms whose output would exceed 2^26 complex entries.
_FULL_STFT_LIMIT = 2 ** 26

# Relative slack on the row bounds of the derivative-identity defect: far
# above the relative rounding of the bounds (the direct sums, and the
# correlation once widened by its absolute rounding allowance) and of the
# transformed rows, so a row is skipped only when its computed maximum
# cannot reach the running one.
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


def _lattice_stft(values: np.ndarray, psi: GridSignal, time_points: np.ndarray,
                  freq_points: np.ndarray) -> np.ndarray:
    """(K, M) STFT samples of the (size,) signal ``values`` with window psi
    at the (K, dim) time index points and the (M, dim) distinct, sorted bin
    index points (as ``GridLattice.index_points``): conjugated translates of
    psi, in blocks under ``grid._BATCH_BYTES``, times f, folded onto the
    period of the bins, then one FFT of the fold.  For every bin the fold is
    the grid and the table is filled in place, with no gather.
    """
    grid = psi.grid
    shape, split, bins = _lattice_fold(freq_points, grid.points_per_axis)
    periods = tuple(range(1, 2 * grid.dim, 2))
    count = len(time_points)
    folded = np.empty((count,) + shape, dtype=complex)
    block = _block_rows(grid.size)
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
        # eta = mu + gamma_4 (sqrt(2) + mu), gamma_k = k u / (1 - k u).
        # For x = |F| and y = |Psi|, with ||Fx||_2 = sqrt(N) ||x||_2 and
        # |Fx| <= ||x||_1 entrywise, the two forward transforms, the complex
        # products (error sqrt(2) gamma_2, Lemma 3.5) and the inverse
        # transform (its 1/N is exact) leave every entry of the correlation
        # within (3 kappa + sqrt(2) gamma_2) max(||x||_1 ||y||_2, ||x||_2
        # ||y||_1) of its exact value, to first order;
        # 5 kappa covers that and the second-order terms.  mu = u: numpy's
        # pocketfft takes its twiddles to within an ulp.  A radix-4 pass
        # counts as two radix-2 passes, and the real transforms are taken to
        # obey the bound of the complex ones.
        u = np.finfo(float).eps / 2
        t = grid.dim * (pad.bit_length() - 1)
        eta = u + 4 * u / (1 - 4 * u) * (np.sqrt(2) + u)
        one = pair.sum(axis=axes)
        two = np.sqrt(np.sum(pair ** 2, axis=axes))
        allowance = 5 * t * eta / (1 - t * eta) * max(one[0] * two[1], two[0] * one[1])

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


def derivative_identity_defect(f: GridSignal, psi: GridSignal, order) -> tuple[float, int]:
    """(defect, rows_evaluated): the discretization defect of the STFT
    derivative identity and the number of bin rows transformed to find it.

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

    which is exactly 0 wherever no label wraps.  The defect is the maximum
    absolute entry.  By the triangle inequality, row m's maximum is at most
    U(m) = sum_eta |G_m(eta)| / size.  The pruning has two stages:

    - ``_correlation_bound`` gives every bin a bound at least U from one
      correlation of |F| and |Psi|, widened by its rounding allowance.  The
      top bin by it is evaluated first and seeds the running maximum; every
      other bin whose widened bound, times 1 + ``_BOUND_SLACK``, still
      exceeds that maximum is unsettled.
    - An unsettled bin takes the direct U: a real gather of |F| along its
      row, times |Psi| / size and |sigma|, summed.  The unsettled rows are
      then transformed exactly in order of decreasing U, and the pass stops
      once no U left, times 1 + ``_BOUND_SLACK``, exceeds the running
      maximum.

    The value is the one a transform of every row gives, bit for bit.  A
    row with U = 0 is an exact zero and is never transformed.
    ``rows_evaluated`` counts the rows transformed by an inverse FFT, not
    the rows given the direct U.  Gathers and transforms run in blocks of
    bins under the shared ``grid._BATCH_BYTES`` budget (twice the rows for
    the real direct bounds); each block builds sigma from its own bin
    labels, so no table over all bin pairs is held.
    """
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
    magnitude = np.abs(spectrum)
    weight = np.abs(window) / grid.size
    block = _block_rows(grid.size)
    # Both prune passes gather bin rows of |F| and of F from these views.
    magnitude_windows = _tiled_windows(magnitude)
    spectrum_windows = _tiled_windows(spectrum)

    def prune(which, worst, evaluated):
        # The direct U of the bins ``which``: a real gather of |F| in blocks
        # of twice the rows (real rows take half the bytes), times |Psi| /
        # size and |sigma|, row sums.
        bound = np.empty(len(which))
        step = 2 * block
        for lo, rows in zip(range(0, len(which), step),
                            _translates(magnitude_windows, -bins[which], step)):
            shaped = rows.reshape((-1,) + grid.shape)
            shaped *= weight
            shaped *= np.abs(symbol(bins[which[lo:lo + step]]))
            bound[lo:lo + step] = rows.sum(axis=1)
        # Exact rows by decreasing U.  Only a prefix of each block can still
        # exceed the running maximum; once none can, stop.  The strict
        # comparison never transforms a row with U = 0.
        rank = np.argsort(-bound, kind="stable")
        ranked = which[rank]
        reach = bound[rank] * (1.0 + _BOUND_SLACK)
        for lo, rows in zip(range(0, len(ranked), block),
                            _translates(spectrum_windows, -bins[ranked], block)):
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
        return worst, evaluated

    reach = _correlation_bound(grid, magnitude, np.abs(window), order)
    reach *= 1.0 + _BOUND_SLACK
    top = int(np.argmax(reach))
    worst, evaluated = prune(np.array([top]), 0.0, 0)
    unsettled = reach > worst
    unsettled[top] = False
    worst, evaluated = prune(np.flatnonzero(unsettled), worst, evaluated)
    scale = grid.spacing ** grid.dim * (2 * np.pi / grid.period) ** sum(order)
    return scale * worst, evaluated
