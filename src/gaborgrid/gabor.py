"""Gabor systems on periodic grids: frame operator, bounds, dual windows.

Analysis maps a signal to its STFT samples on a time x frequency lattice
(with spacing^n quadrature weight); synthesis is the plain superposition of
time-frequency shifted windows, so the two dense matrices are conjugate
transposes up to the scalar spacing^n and the frame operator

    S = synthesize . analyze

is Hermitian positive semidefinite.  Frame bounds are reported as extreme
eigenvalues of S, i.e. as the squares of the coefficient-map norm bounds.
Analysis and synthesis each have one batched kernel over a stack of
signals, ``_analysis`` and ``_synthesis``, on the system's cached table of
window translates, one FFT in place per stack; ``analyze``, ``synthesize``,
``frame_apply`` and ``reconstruction_error`` are their one-signal cases.
The FFTs are folded to the frequency lattice F: when every bin of F is a
multiple of g_a along axis a, its characters are L / g_a periodic there, so
analysis sums each product over the periods before a transform of that
size, and synthesis repeats its small inverse transform over them.

The modulations of the frequency lattice F sum to |F| on its annihilator
F^perp = {u : m . u = 0 mod L for every m in F} and to 0 off it.  With W the
table of lattice translates of the window and h = spacing^n this gives

    S[t, t'] = h |F| sum_k W[t, k] conj(W[t', k])  if t - t' in F^perp,

and 0 otherwise (the finite Walnut / Zibulski-Zeevi representation).  So S
is block diagonal over the |F| cosets of F^perp for any pair of grid
lattices, separable or not.  The frame bounds are the extreme eigenvalues
of the blocks and the canonical dual window is one solve per block; both
are exact up to rounding.

Wexler-Raz biorthogonality is evaluated independently of that solve.  The
adjoint of the product lattice A x F takes the dual lattice of F as time
shifts and the dual lattice of A as frequencies; when both are grid-aligned
the pair (psi, gamma) is dual exactly when the STFT of gamma with window
psi over the adjoint vanishes except for the mass 1/redundancy at the
origin ((ab)^n on a separable lattice with steps (a, b)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexMismatch, NonAlignedLattice, NotAFrame, ZeroSignal
from .grid import (
    CoeffArray,
    GridLattice,
    GridSignal,
    _block_rows,
    _flat_index,
    _lattice_fold,
    _translates,
    grids_compatible,
    require_same_grid,
)
from .lattice import dual_lattice


@dataclass(frozen=True, eq=False)
class GaborSystem:
    """Window plus time and frequency lattices (product lattice in phase space)."""

    window: GridSignal
    time_lattice: GridLattice
    freq_lattice: GridLattice

    def __post_init__(self):
        grid = self.window.grid
        if not grids_compatible(self.time_lattice.grid, grid):
            raise NonAlignedLattice("time lattice must live on the window grid")
        if not grids_compatible(self.freq_lattice.grid, grid.reciprocal()):
            raise NonAlignedLattice("frequency lattice must live on the reciprocal grid")

    @property
    def grid(self):
        return self.window.grid

    @property
    def coefficient_count(self) -> int:
        return self.time_lattice.count * self.freq_lattice.count

    @property
    def redundancy(self) -> float:
        return self.coefficient_count / self.grid.size

    @classmethod
    def separable(cls, window: GridSignal, time_step: float, freq_step: float) -> "GaborSystem":
        grid = window.grid
        return cls(
            window,
            GridLattice.cubic(grid, time_step),
            GridLattice.cubic(grid.reciprocal(), freq_step),
        )


def _lattices_match(a: GridLattice, b: GridLattice) -> bool:
    return (
        grids_compatible(a.grid, b.grid)
        and a.count == b.count
        and np.array_equal(a.index_points, b.index_points)
    )


def _shift_table(window: GridSignal, time_lattice: GridLattice) -> np.ndarray:
    """(N0, grid.size) table whose row k is the window translated by lattice point k."""
    [table] = _translates(window.reshaped(), time_lattice.index_points)
    return table


def _tables(system: GaborSystem) -> tuple[np.ndarray, tuple[int, ...], tuple[int, ...],
                                          np.ndarray]:
    """Cached (shift table, shape, split, bins) of the system's analysis and
    synthesis: the window's translate table and the fold of the bins of F
    (``grid._lattice_fold``).  Every character of F is periodic with the
    fold ``shape``, so the analysis and synthesis transforms need only that
    size; ``bins`` are the flat bins of F in it.
    """
    cached = getattr(system, "_op_tables", None)
    if cached is None:
        fold = _lattice_fold(system.freq_lattice.index_points, system.grid.points_per_axis)
        cached = (_shift_table(system.window, system.time_lattice),) + fold
        object.__setattr__(system, "_op_tables", cached)
    return cached


def _frame_blocks(system: GaborSystem) -> tuple[np.ndarray, np.ndarray]:
    """Cached (cosets, blocks) of the block-diagonal frame operator.

    ``cosets`` is the (|F|, |F^perp|) array of flat grid points, one row per
    coset of the annihilator F^perp; ``blocks[b]`` is S restricted to row b,
    h |F| W_B W_B^H.  F^perp is read off one FFT of the indicator of F: the
    character sum over F equals |F| exactly on F^perp and vanishes elsewhere.
    """
    cached = getattr(system, "_op_blocks", None)
    if cached is None:
        grid = system.grid
        table = _tables(system)[0]
        flat_bins = system.freq_lattice._flat_points
        indicator = np.zeros(grid.shape)
        indicator.flat[flat_bins] = 1.0
        char_sum = np.fft.fftn(indicator).ravel()
        nodes = grid.index_vectors()
        annihilator = nodes[np.abs(char_sum - flat_bins.size) < 0.5]
        members = _flat_index(grid, nodes[:, None, :] + annihilator[None, :, :])
        # Label each point by the smallest point of its coset; the cosets
        # all have |F^perp| points, so sorting by label gives whole rows.
        order = np.argsort(members.min(axis=1), kind="stable")
        cosets = order.reshape(-1, annihilator.shape[0])
        WB = table.T[cosets]
        scale = grid.spacing ** grid.dim * flat_bins.size
        blocks = scale * (WB @ WB.conj().transpose(0, 2, 1))
        cached = (cosets, blocks)
        object.__setattr__(system, "_op_blocks", cached)
    return cached


def _analysis(system: GaborSystem, rows: np.ndarray) -> np.ndarray:
    """(S, N0, |F|) STFT samples on the system lattice of the (S, size)
    signal rows: each signal times every conjugated window translate of the
    cached shift table, summed over the periods of the fold (see
    ``_tables``), then one batched FFT in place of the folded shape, read at
    the bins of F."""
    table, _, split, bins = _tables(system)
    grid = system.grid
    products = np.empty((rows.shape[0],) + table.shape, dtype=complex)
    np.multiply(table, np.conj(rows)[:, None, :], out=products)
    periods = tuple(range(2, 2 * grid.dim + 2, 2))
    folded = products.reshape(products.shape[:2] + split).sum(axis=periods)
    np.conjugate(folded, out=folded)
    np.fft.fftn(folded, axes=tuple(range(2, grid.dim + 2)), out=folded)
    return grid.spacing ** grid.dim * folded.reshape(folded.shape[:2] + (-1,))[:, :, bins]


def _synthesis(system: GaborSystem, table: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """(S, size) rows: sum over k and j of coeffs[s, k, j] times the window
    translate ``table[k]`` modulated by the j-th frequency of the system.

    Each time node's coefficients are scattered into their bins of the fold
    (see ``_tables``); one batched unnormalized inverse FFT in place of the
    folded shape modulates them, repeated over the periods, and the table
    does the rest.
    """
    grid = system.grid
    _, shape, split, bins = _tables(system)
    spectra = np.zeros(coeffs.shape[:2] + (math.prod(shape),), dtype=complex)
    spectra[:, :, bins] = coeffs
    small = spectra.reshape(coeffs.shape[:2] + shape)
    np.fft.ifftn(small, axes=tuple(range(2, grid.dim + 2)), norm="forward", out=small)
    periodic = np.expand_dims(small, tuple(range(2, 2 * grid.dim + 2, 2)))
    atoms = table.reshape(table.shape[:1] + split) * periodic
    return atoms.sum(axis=1).reshape(-1, grid.size)


def _synthesis_table(system: GaborSystem, dual: GridSignal | None) -> np.ndarray:
    """Shift table of the synthesis window: the cached one of the system
    window, or one built for ``dual``."""
    if dual is None or dual is system.window:
        return _tables(system)[0]
    require_same_grid(dual, system.window)
    return _shift_table(dual, system.time_lattice)


def analyze(system: GaborSystem, f: GridSignal) -> CoeffArray:
    """Coefficient map: STFT samples of f on the system lattice.

    The one-row case of the batched analysis kernel.
    """
    require_same_grid(f, system.window)
    values = _analysis(system, f.values[None])[0]
    return CoeffArray.over_product(system.time_lattice, system.freq_lattice, values)


def synthesize(system: GaborSystem, coeffs: CoeffArray) -> GridSignal:
    """Superposition sum over the lattice of c * (modulate . translate)(window)."""
    if len(coeffs.lattices) != 2 or not (
        _lattices_match(coeffs.time_lattice, system.time_lattice)
        and _lattices_match(coeffs.freq_lattice, system.freq_lattice)
    ):
        raise IndexMismatch("coefficients are not indexed by the system lattice")
    rows = _synthesis(system, _tables(system)[0], coeffs.values[None])
    return GridSignal(system.grid, rows[0])


def frame_apply(system: GaborSystem, f: GridSignal,
                dual: GridSignal | None = None) -> GridSignal:
    """The operator synthesize(dual) . analyze(window); dual defaults to window."""
    require_same_grid(f, system.window)
    table = _synthesis_table(system, dual)
    rows = _synthesis(system, table, _analysis(system, f.values[None]))
    return GridSignal(system.grid, rows[0])


@dataclass(frozen=True)
class FrameCertificate:
    """Extreme eigenvalues of the frame operator plus bookkeeping.

    lower/upper are eigenvalues of S, i.e. squared bounds for the
    coefficient map; the ratio upper/lower is the frame condition number.
    ``blocks`` and ``block_size`` give the block-diagonal shape they came from.
    """

    lower: float
    upper: float
    method: str
    redundancy: float
    blocks: int
    block_size: int

    def to_dict(self) -> dict:
        return {
            "A": self.lower,
            "B": self.upper,
            "method": self.method,
            "residual": None,
            "redundancy": self.redundancy,
            "blocks": self.blocks,
            "block_size": self.block_size,
        }


def _dense_frame_matrix(system: GaborSystem) -> np.ndarray:
    """Full frame-operator matrix, an oracle independent of the block path."""
    grid = system.grid
    W = _shift_table(system.window, system.time_lattice).T
    L = grid.points_per_axis
    prod = (grid.index_vectors() @ system.freq_lattice.index_points.T) % L
    phases = np.exp(2j * np.pi * prod / L)
    cell = grid.spacing ** grid.dim
    # S factors over the product lattice: S = cell * (W W^H) hadamard (Phi Phi^H).
    return cell * (W @ W.conj().T) * (phases @ phases.conj().T)


def frame_bounds(system: GaborSystem) -> FrameCertificate:
    """Extreme eigenvalues of the frame operator, over all of its blocks.

    One batched ``eigvalsh`` of the blocks gives the whole spectrum.  An
    undersampled system (redundancy < 1) has a rank-deficient frame
    operator, so its lower bound is reported as an exact zero.  Never
    raises for non-frames; a zero lower bound is data.  The certificate is
    cached on the system, so the frame gate of :func:`dual_window` reuses it.
    """
    cached = getattr(system, "_certificate", None)
    if cached is None:
        _, blocks = _frame_blocks(system)
        eigs = np.linalg.eigvalsh(blocks)
        lower = 0.0 if system.redundancy < 1.0 else max(float(eigs.min()), 0.0)
        cached = FrameCertificate(lower, float(eigs.max()), "block-eigen",
                                  system.redundancy, blocks=blocks.shape[0],
                                  block_size=blocks.shape[1])
        object.__setattr__(system, "_certificate", cached)
    return cached


def dual_window(system: GaborSystem, tol: float = 1e-12) -> GridSignal:
    """Canonical dual window S^-1 window, by one solve per frame-operator block.

    Raises NotAFrame when the lower frame bound does not exceed ``tol``.
    """
    cert = frame_bounds(system)
    if cert.lower <= tol:
        raise NotAFrame(f"lower frame bound {cert.lower} <= tol {tol}")
    cosets, blocks = _frame_blocks(system)
    gamma = np.empty(system.grid.size, dtype=complex)
    rhs = system.window.values[cosets][..., None]
    gamma[cosets] = np.linalg.solve(blocks, rhs)[..., 0]
    return GridSignal(system.grid, gamma)


def _adjoint_lattices(system: GaborSystem) -> tuple[GridLattice, GridLattice]:
    """(time, frequency) lattices of the adjoint: the dual lattice of the
    frequency lattice as time shifts, that of the time lattice as frequencies.

    Raises NonAlignedLattice when either dual lattice misses its grid.
    """
    grid = system.grid
    return (
        GridLattice(dual_lattice(system.freq_lattice.lattice), grid),
        GridLattice(dual_lattice(system.time_lattice.lattice), grid.reciprocal()),
    )


def wexler_raz_residual(system: GaborSystem, gamma: GridSignal) -> float:
    """Biorthogonality defect of (system.window, gamma) over the adjoint lattice.

    The largest deviation of the STFT of gamma with the system window, over
    the adjoint lattice, from 1/redundancy at the origin and 0 elsewhere.
    Lattice covariance of the Gram entries makes this origin-anchored
    analysis equivalent to the full double scan.  Raises NonAlignedLattice
    when the adjoint lattice is not grid-aligned.
    """
    inner = analyze(GaborSystem(system.window, *_adjoint_lattices(system)), gamma).values
    target = np.zeros(inner.shape)
    target[0, 0] = 1.0 / system.redundancy
    return float(np.max(np.abs(inner - target)))


def _reconstruction_errors(system: GaborSystem, gamma: GridSignal,
                           rows: np.ndarray) -> np.ndarray:
    """Relative L2 errors of synthesize(gamma) . analyze(window) against the
    (S, size) signal rows, one per row.

    The dual's shift table is built once; the signals run in blocks under
    ``grid._BATCH_BYTES``, each one batched analysis and one batched synthesis.
    """
    denoms = np.linalg.norm(rows, axis=1)
    if not np.all(denoms):
        raise ZeroSignal("reconstruction error undefined for the zero signal")
    table = _synthesis_table(system, gamma)
    block = _block_rows(table.size)
    errors = np.empty(rows.shape[0])
    for lo in range(0, rows.shape[0], block):
        signals = rows[lo:lo + block]
        rec = _synthesis(system, table, _analysis(system, signals))
        rec -= signals
        errors[lo:lo + block] = np.linalg.norm(rec, axis=1)
    return errors / denoms


def reconstruction_error(system: GaborSystem, gamma: GridSignal,
                         f: GridSignal) -> float:
    """Relative L2 error of synthesize(gamma) . analyze(window) against identity."""
    require_same_grid(f, system.window)
    return float(_reconstruction_errors(system, gamma, f.values[None])[0])
