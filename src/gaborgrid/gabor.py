"""Gabor systems on periodic grids: frame operator, bounds, dual windows.

Analysis maps a signal to its STFT samples on a time x frequency lattice
(with spacing^n quadrature weight); synthesis is the plain superposition of
time-frequency shifted windows, so the two dense matrices are conjugate
transposes up to the scalar spacing^n and the frame operator

    S = synthesize . analyze

is Hermitian positive semidefinite.  Frame bounds are reported as extreme
eigenvalues of S, i.e. as the squares of the coefficient-map norm bounds.

The modulations of the frequency lattice F sum to |F| on its annihilator
F^perp = {u : m . u = 0 mod L for every m in F} and to 0 off it.  With W the
table of lattice translates of the window and h = spacing^n this gives

    S[t, t'] = h |F| sum_k W[t, k] conj(W[t', k])  if t - t' in F^perp,

and 0 otherwise (the finite Walnut / Zibulski-Zeevi representation).  So S
is block diagonal over the |F| cosets of F^perp for any pair of grid
lattices, separable or not.  The frame bounds are the extreme eigenvalues
of the blocks and the canonical dual window is one solve per block; both
are exact up to rounding.

Wexler-Raz biorthogonality is evaluated independently of that solve: for a
separable lattice with steps (a, b) the pair (psi, gamma) is dual exactly
when the inner products of gamma against time-frequency shifts of psi over
the adjoint lattice (time step 1/b, frequency step 1/a) vanish except for
the (ab)^n mass at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexMismatch,
    NonAlignedAdjointLattice,
    NonAlignedLattice,
    NotAFrame,
    ZeroSignal,
)
from .grid import (
    CoeffArray,
    GridLattice,
    GridSignal,
    _flat_index,
    _translates,
    _windowed_dft,
    grids_compatible,
    require_same_grid,
)


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
    """(grid.size, N0) table of lattice translates of the window."""
    return _translates(window, time_lattice.index_points).T


def _phase_table(grid, freq_lattice: GridLattice) -> np.ndarray:
    """(grid.size, N1) table of modulation phases for the frequency lattice."""
    L = grid.points_per_axis
    prod = (grid.index_vectors() @ freq_lattice.index_points.T) % L
    return np.exp(2j * np.pi * prod / L)


def _tables(system: GaborSystem) -> tuple[np.ndarray, np.ndarray]:
    """Cached (shift table, flat frequency bins) for the system."""
    cached = getattr(system, "_op_tables", None)
    if cached is None:
        W = _shift_table(system.window, system.time_lattice)
        cached = (W, _flat_index(system.grid, system.freq_lattice.index_points))
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
        W, flat_bins = _tables(system)
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
        WB = W[cosets]
        scale = grid.spacing ** grid.dim * flat_bins.size
        blocks = scale * (WB @ WB.conj().transpose(0, 2, 1))
        cached = (cosets, blocks)
        object.__setattr__(system, "_op_blocks", cached)
    return cached


def _batched_ifft(rows: np.ndarray, grid) -> np.ndarray:
    """Unnormalized inverse DFT of each row: plain sums of exp(+2 pi i m . t / L)."""
    shaped = rows.reshape((rows.shape[0],) + grid.shape)
    out = np.fft.ifftn(shaped, axes=tuple(range(1, grid.dim + 1)), norm="forward")
    return out.reshape(rows.shape[0], grid.size)


def analyze(system: GaborSystem, f: GridSignal) -> CoeffArray:
    """Coefficient map: STFT samples of f on the system lattice.

    The windowed-DFT kernel over the time lattice, read at the bins of the
    frequency lattice.
    """
    require_same_grid(f, system.window)
    grid = system.grid
    rows = _windowed_dft(f, system.window, system.time_lattice.index_points)
    bins = _flat_index(grid, system.freq_lattice.index_points)
    values = grid.spacing ** grid.dim * rows[:, bins]
    return CoeffArray.over_product(system.time_lattice, system.freq_lattice, values)


def _synthesize_with(window: GridSignal, coeffs: CoeffArray,
                     system: GaborSystem) -> GridSignal:
    W, flat_bins = _tables(system)
    if window is not system.window:
        W = _shift_table(window, coeffs.time_lattice)
    # Scatter each time node's coefficients into its frequency bins; one
    # inverse FFT per node gives the modulated sum, the shift table the rest.
    grid = system.grid
    spectra = np.zeros((W.shape[1], grid.size), dtype=complex)
    spectra[:, flat_bins] = coeffs.values
    modulated = _batched_ifft(spectra, grid)
    return GridSignal(window.grid, np.einsum("tk,kt->t", W, modulated))


def synthesize(system: GaborSystem, coeffs: CoeffArray) -> GridSignal:
    """Superposition sum over the lattice of c * (modulate . translate)(window)."""
    if len(coeffs.lattices) != 2 or not (
        _lattices_match(coeffs.time_lattice, system.time_lattice)
        and _lattices_match(coeffs.freq_lattice, system.freq_lattice)
    ):
        raise IndexMismatch("coefficients are not indexed by the system lattice")
    return _synthesize_with(system.window, coeffs, system)


def frame_apply(system: GaborSystem, f: GridSignal,
                dual: GridSignal | None = None) -> GridSignal:
    """The operator synthesize(dual) . analyze(window); dual defaults to window."""
    coeffs = analyze(system, f)
    window = system.window if dual is None else dual
    if dual is not None:
        require_same_grid(dual, system.window)
    return _synthesize_with(window, coeffs, system)


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
    wexler_raz_residual: float | None = None

    def to_dict(self) -> dict:
        return {
            "A": self.lower,
            "B": self.upper,
            "method": self.method,
            "residual": self.wexler_raz_residual,
            "redundancy": self.redundancy,
        }


def _dense_frame_matrix(system: GaborSystem) -> np.ndarray:
    """Full frame-operator matrix, an oracle independent of the block path."""
    grid = system.grid
    W = _shift_table(system.window, system.time_lattice)
    phases = _phase_table(grid, system.freq_lattice)
    cell = grid.spacing ** grid.dim
    # S factors over the product lattice: S = cell * (W W^H) hadamard (Phi Phi^H).
    return cell * (W @ W.conj().T) * (phases @ phases.conj().T)


def frame_bounds(system: GaborSystem) -> FrameCertificate:
    """Extreme eigenvalues of the frame operator, over all of its blocks.

    One batched ``eigvalsh`` of the blocks gives the whole spectrum.  An
    undersampled system (redundancy < 1) has a rank-deficient frame
    operator, so its lower bound is reported as an exact zero.  Never
    raises for non-frames; a zero lower bound is data.
    """
    _, blocks = _frame_blocks(system)
    eigs = np.linalg.eigvalsh(blocks)
    lower = 0.0 if system.redundancy < 1.0 else max(float(eigs.min()), 0.0)
    return FrameCertificate(lower, float(eigs.max()), "block-eigen", system.redundancy,
                            blocks=blocks.shape[0], block_size=blocks.shape[1])


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


def wexler_raz_residual(psi: GridSignal, gamma: GridSignal,
                        time_step: float, freq_step: float) -> float:
    """Biorthogonality defect over the adjoint lattice.

    Scans mu = (time shift in (1/freq_step) Z, frequency shift in
    (1/time_step) Z) modulo the grid period and returns the largest
    deviation of (pi(mu) psi, gamma)_L2 from (time_step*freq_step)^n at the
    origin and 0 elsewhere.  Lattice covariance of the Gram entries makes
    this origin-anchored scan equivalent to the full double scan.
    """
    require_same_grid(psi, gamma)
    grid = psi.grid
    try:
        adj_time = GridLattice.cubic(grid, 1.0 / freq_step)
        adj_freq = GridLattice.cubic(grid.reciprocal(), 1.0 / time_step)
    except NonAlignedLattice as exc:
        raise NonAlignedAdjointLattice(str(exc)) from None
    cell = grid.spacing ** grid.dim
    const = (time_step * freq_step) ** grid.dim
    phases = _phase_table(grid, adj_freq)
    gbar = np.conj(gamma.values)
    resh = psi.reshaped()
    axes = tuple(range(grid.dim))
    worst = 0.0
    for i, idx in enumerate(adj_time.index_points):
        shifted = np.roll(resh, shift=tuple(idx), axis=axes).ravel()
        inner = cell * (phases.T @ (shifted * gbar))
        target = np.zeros(adj_freq.count, dtype=complex)
        if i == 0:
            target[0] = const
        worst = max(worst, float(np.max(np.abs(inner - target))))
    return worst


def reconstruction_error(system: GaborSystem, gamma: GridSignal,
                         f: GridSignal) -> float:
    """Relative L2 error of synthesize(gamma) . analyze(window) against identity."""
    denom = float(np.linalg.norm(f.values))
    if denom == 0.0:
        raise ZeroSignal("reconstruction error undefined for the zero signal")
    rec = frame_apply(system, f, dual=gamma)
    return float(np.linalg.norm(rec.values - f.values)) / denom
