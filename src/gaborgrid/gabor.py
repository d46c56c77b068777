"""Gabor systems on periodic grids: frame operator, bounds, dual windows.

Analysis maps a signal to its STFT samples on a time x frequency lattice
A x F (with spacing^n quadrature weight); synthesis is the plain
superposition of time-frequency shifted windows, so the two dense matrices
are conjugate transposes up to the scalar spacing^n and the frame operator

    S = synthesize . analyze

is Hermitian positive semidefinite.  Frame bounds are reported as extreme
eigenvalues of S, i.e. as the squares of the coefficient-map norm bounds.
Analysis and synthesis each have one batched kernel over a stack of
signals, ``_analysis`` and ``_synthesis``, one FFT in place per stack;
``analyze``, ``synthesize``, ``frame_apply`` and ``reconstruction_error``
are their one-signal cases.  The FFTs are folded to F: when every bin of F
is a multiple of g_a along axis a, its characters are L / g_a periodic
there.  The window translates are cached in polyphase layout
W[r, k, p] = psi(r + p - x_k), r over the residues of the fold and p over
its periods, so analysis sums over the periods by one batched matmul over
the residues before a transform of the fold shape, and synthesis follows
its small inverse transform by the transposed matmul.

The modulations of F sum to |F| on its annihilator
F^perp = {u : m . u = 0 mod L for every m in F} and to 0 off it, so with
h = spacing^n

    S[t, t'] = h |F| sum_k psi(t - x_k) conj(psi(t' - x_k))  if t - t' in F^perp,

and 0 otherwise: S is block diagonal over the cosets c of F^perp.  It also
commutes with the translations by H = A n F^perp, which keep every coset,
so the characters chi of H split each block into fibers.  On the vectors
c + f_i + u -> chi(u) y_i (u in H, f_i over F^perp / H) S acts as the
p x p matrix h |F| Phi Phi^H, where

    Phi_{c,chi}[i, l] = sum_{u in H} psi(c + f_i - a_l - u) chi(u)

and a_l runs over A / H: the finite Zak transform of the window, i.e. the
finite Zibulski-Zeevi representation.  There are |F| |H| fibers with
p = |F^perp| / |H| rows and q = |A| / |H| columns, and the redundancy is
q / p.  This holds for any pair of grid lattices, separable or not.  The
frame bounds are the extreme eigenvalues of the fibers, and the canonical
dual window is one fiber solve and one inverse character transform; both
are exact up to rounding.

Wexler-Raz biorthogonality is evaluated independently of the fibers.  The
adjoint of the product lattice A x F is F^perp x A^perp: the time nodes
that F annihilates as time shifts and the bins that A annihilates as
frequencies (``_annihilator``).  Both are finite subgroups of their grids,
so the adjoint exists for every pair of grid lattices, and the pair
(psi, gamma) is dual exactly when the STFT of gamma with window psi over
the adjoint vanishes except for the mass 1/redundancy at the origin
((ab)^n on a separable lattice with steps (a, b)).
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
    PeriodicGrid,
    _block_rows,
    _flat_index,
    _lattice_fold,
    _translates,
    grids_compatible,
    require_same_grid,
)
from .lattice import Lattice


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


def _fold_order(dim: int) -> tuple[int, ...]:
    """The axis order that takes (S,) + split, split as in ``_tables``, to
    (residues, S, periods)."""
    return tuple(range(2, 2 * dim + 1, 2)) + (0,) + tuple(range(1, 2 * dim, 2))


def _polyphase(rows: np.ndarray, split: tuple[int, ...]) -> np.ndarray:
    """(R, S, P) polyphase layout of the (S, size) grid ``rows``: entry
    [r, s, p] is row s at the node with residue r and period p of the fold
    ``split`` (see ``_tables``)."""
    shaped = rows.reshape((len(rows),) + split).transpose(_fold_order(len(split) // 2))
    return np.ascontiguousarray(shaped).reshape(math.prod(split[1::2]), len(rows), -1)


def _from_polyphase(table: np.ndarray, split: tuple[int, ...]) -> np.ndarray:
    """The (S, size) grid rows of the (R, S, P) polyphase ``table``; the
    inverse of ``_polyphase``."""
    shaped = table.reshape(split[1::2] + table.shape[1:2] + split[::2])
    order = np.argsort(_fold_order(len(split) // 2))
    return shaped.transpose(order).reshape(table.shape[1], -1)


def _shift_table(window: GridSignal, time_lattice: GridLattice,
                 split: tuple[int, ...]) -> np.ndarray:
    """(R, N0, P) polyphase table of the window translates: entry [r, k, p]
    is psi(r + p - x_k) at the node with residue r and period p of the fold
    ``split``.  The translates are built and laid out in blocks of time
    points under ``grid._BATCH_BYTES``, so the table is the only large array.
    """
    table = np.empty((math.prod(split[1::2]), time_lattice.count, math.prod(split[::2])),
                     dtype=complex)
    block = _block_rows(window.grid.size)
    translates = _translates(window.reshaped(), time_lattice.index_points, block)
    for lo, rows in zip(range(0, time_lattice.count, block), translates):
        table[:, lo:lo + block] = _polyphase(rows, split)
    return table


def _tables(system: GaborSystem) -> tuple[np.ndarray, tuple[int, ...], tuple[int, ...],
                                          np.ndarray]:
    """Cached (shift table, shape, split, bins) of the system's analysis and
    synthesis: the window's translate table in polyphase layout
    (``_shift_table``) and the fold of the bins of F (``grid._lattice_fold``).
    Every character of F is periodic with the fold ``shape``, so the
    analysis and synthesis transforms need only that size; ``bins`` are the
    flat bins of F in it.
    """
    cached = getattr(system, "_op_tables", None)
    if cached is None:
        shape, split, bins = _lattice_fold(system.freq_lattice.index_points,
                                           system.grid.points_per_axis)
        table = _shift_table(system.window, system.time_lattice, split)
        cached = (table, shape, split, bins)
        object.__setattr__(system, "_op_tables", cached)
    return cached


def _hermite_basis(points: np.ndarray, L: int) -> np.ndarray:
    """(dim, dim) lower-triangular basis B of the subgroup of (Z/L)^dim whose
    elements are the (count, dim) ``points``.

    Column j is an element whose first j coordinates vanish and whose j-th
    is g_j, the gcd of L and the j-th coordinates of all such elements; it
    is zero but for B[j, j] = L when they all vanish.  Every element is
    sum_j s_j B[:, j] mod L for exactly one s in prod_j [0, L / g_j), and
    the box prod_j [0, g_j) holds exactly one point of every coset.
    """
    dim = points.shape[1]
    basis = np.zeros((dim, dim), dtype=np.int64)
    for j in range(dim):
        g = int(np.gcd.reduce(points[:, j], initial=L))
        if g < L:
            basis[:, j] = points[points[:, j] == g][0]
        basis[j, j] = g
        points = points[points[:, j] == 0]
    return basis


def _annihilator(lattice: GridLattice, target_grid: PeriodicGrid) -> GridLattice:
    """The finite annihilator of ``lattice`` on ``target_grid`` (the time
    grid for a frequency lattice, the reciprocal grid for a time lattice):
    the nodes u with u . m = 0 mod L for every point m of ``lattice``,
    generated by their ``_hermite_basis``.
    """
    L = target_grid.points_per_axis
    nodes = target_grid.index_vectors()
    points = nodes[np.all(nodes @ lattice.steps % L == 0, axis=1)]
    return GridLattice(Lattice(_hermite_basis(points, L) * target_grid.spacing), target_grid)


def _coset_points(points: np.ndarray, basis: np.ndarray, L: int) -> np.ndarray:
    """The sorted points of the box of ``basis`` (``_hermite_basis``) in the
    cosets that the (count, dim) ``points`` meet, one per coset; the zero
    coset comes first."""
    reduced = points % L
    for j in range(basis.shape[0]):
        reduced = (reduced - (reduced[:, j] // basis[j, j])[:, None] * basis[:, j]) % L
    hit = np.zeros(tuple(np.diag(basis)), dtype=bool)
    hit[tuple(reduced.T)] = True
    return np.argwhere(hit)


def _box(sizes) -> np.ndarray:
    """(prod(sizes), dim) integer points of prod_j [0, sizes[j]) in C order."""
    return np.indices(tuple(sizes)).reshape(len(sizes), -1).T


def _zak_fibers(system: GaborSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cached (phi, chars, nodes) of the frame operator's Zak fibers.

    ``phi[chi, c]`` is the p x q matrix Phi_{c,chi} of the module docstring,
    a (|H|, |F|, p, q) stack; ``chars[u, chi]`` is the character chi of H at
    its element u; ``nodes[u, c, i]`` is the flat grid node c + f_i + u.
    F^perp is ``_annihilator`` of F and H the points of the time lattice
    in it.  Their lower-triangular bases give the elements and characters
    of H, one point per coset of F^perp in the grid, and the points f_i and
    a_l of F^perp / H and A / H.  The window gathered at c + f_i - a_l - u
    is the largest table, size * q entries, and one matmul with the
    character table contracts it over u.
    """
    cached = getattr(system, "_op_fibers", None)
    if cached is None:
        grid = system.grid
        L = grid.points_per_axis
        steps = system.freq_lattice.steps
        perp = _annihilator(system.freq_lattice, grid)
        time = system.time_lattice.index_points
        basis = _hermite_basis(time[np.all(time @ steps % L == 0, axis=1)], L)
        # The box of the orders L / g_j indexes the elements of H (by their
        # coefficients in the basis) and its characters (by frequencies).
        orders = _box(L // np.diag(basis))
        elements = orders @ basis.T % L
        chars = np.exp(2j * np.pi * (elements @ orders.T % L) / L)
        c = _box(np.diag(perp.steps))[:, None, :]
        f = _coset_points(perp.index_points, basis, L)
        a = _coset_points(time, basis, L)
        # c + f_i - (a_l + u) with both parts reduced mod L lies in (-L, L)^n,
        # so one period on it is a linear index into the 2^n-tiled window.
        tiled = np.tile(system.window.reshaped(), (2,) * grid.dim).ravel()
        strides = (2 * L) ** np.arange(grid.dim)[::-1]
        ends = (c + f) % L @ strides + L * strides.sum()
        starts = (elements[:, None] + a) % L @ strides
        shifted = ends[..., None] - starts[:, None, None, :]
        phi = (chars.T @ tiled[shifted].reshape(len(chars), -1)).reshape(shifted.shape)
        cached = (phi, chars, _flat_index(grid, elements[:, None, None] + c + f))
        object.__setattr__(system, "_op_fibers", cached)
    return cached


def _analysis(system: GaborSystem, rows: np.ndarray) -> np.ndarray:
    """(S, N0, |F|) STFT samples on the system lattice of the (S, size)
    signal rows.

    The conjugated signals in polyphase layout (R, S, P) times the cached
    table, transposed to (R, P, N0), is one batched matmul over the
    residues of the fold (see ``_tables``).  Its conjugate is the fold of
    every signal times every conjugated window translate, and one batched
    FFT in place of the folded shape, read at the bins of F, finishes the
    analysis.
    """
    table, shape, split, bins = _tables(system)
    grid = system.grid
    folded = np.matmul(_polyphase(np.conj(rows), split), table.swapaxes(1, 2))
    np.conjugate(folded, out=folded)
    spectra = np.moveaxis(folded, 0, -1).reshape(folded.shape[1:] + shape)
    np.fft.fftn(spectra, axes=tuple(range(2, grid.dim + 2)), out=spectra)
    return grid.spacing ** grid.dim * spectra.reshape(spectra.shape[:2] + (-1,))[:, :, bins]


def _synthesis(system: GaborSystem, table: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """(S, size) rows: sum over k and j of coeffs[s, k, j] times the window
    translate of the polyphase ``table`` at time point k modulated by the
    j-th frequency of the system.

    Each time point's coefficients are scattered into their bins of the
    fold (see ``_tables``); one batched unnormalized inverse FFT in place of
    the folded shape modulates them, and one batched matmul over the
    residues, (R, S, N0) times the (R, N0, P) table, sums the modulated
    translates.
    """
    grid = system.grid
    _, shape, split, bins = _tables(system)
    spectra = np.zeros(coeffs.shape[:2] + (math.prod(shape),), dtype=complex)
    spectra[:, :, bins] = coeffs
    small = spectra.reshape(coeffs.shape[:2] + shape)
    np.fft.ifftn(small, axes=tuple(range(2, grid.dim + 2)), norm="forward", out=small)
    return _from_polyphase(np.matmul(np.moveaxis(spectra, -1, 0).copy(), table), split)


def _synthesis_table(system: GaborSystem, dual: GridSignal | None) -> np.ndarray:
    """Polyphase shift table of the synthesis window: the cached one of the
    system window, or one built for ``dual``."""
    if dual is None or dual is system.window:
        return _tables(system)[0]
    require_same_grid(dual, system.window)
    return _shift_table(dual, system.time_lattice, _tables(system)[2])


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
    ``fiber_shape`` is (count, p, q): the Zak fibers they came from are
    count p x q matrices.
    """

    lower: float
    upper: float
    method: str
    redundancy: float
    fiber_shape: tuple[int, int, int]

    def to_dict(self) -> dict:
        return {
            "A": self.lower,
            "B": self.upper,
            "method": self.method,
            "residual": None,
            "redundancy": self.redundancy,
            "fiber_shape": list(self.fiber_shape),
        }


def _dense_frame_matrix(system: GaborSystem) -> np.ndarray:
    """Full frame-operator matrix, an oracle independent of the fiber path."""
    grid = system.grid
    [table] = _translates(system.window.reshaped(), system.time_lattice.index_points)
    W = table.T
    L = grid.points_per_axis
    prod = (grid.index_vectors() @ system.freq_lattice.index_points.T) % L
    phases = np.exp(2j * np.pi * prod / L)
    cell = grid.spacing ** grid.dim
    # S factors over the product lattice: S = cell * (W W^H) hadamard (Phi Phi^H).
    return cell * (W @ W.conj().T) * (phases @ phases.conj().T)


def frame_bounds(system: GaborSystem) -> FrameCertificate:
    """Extreme eigenvalues of the frame operator, over all of its Zak fibers.

    One batched ``eigvalsh`` of the p x p fibers h |F| Phi Phi^H gives the
    whole spectrum; for p = 1 they are the row sums of |Phi|^2.  An
    undersampled system (redundancy < 1) has a rank-deficient frame
    operator, so its lower bound is reported as an exact zero.  Never
    raises for non-frames; a zero lower bound is data.  The certificate is
    cached on the system, so the frame gate of :func:`dual_window` reuses it.
    """
    cached = getattr(system, "_certificate", None)
    if cached is None:
        phi = _zak_fibers(system)[0]
        if phi.shape[2] == 1:
            parts = phi.view(float)
            eigs = np.einsum("...ij,...ij->...i", parts, parts)
        else:
            eigs = np.linalg.eigvalsh(phi @ phi.conj().swapaxes(-1, -2))
        eigs *= system.grid.spacing ** system.grid.dim * system.freq_lattice.count
        lower = 0.0 if system.redundancy < 1.0 else max(float(eigs.min()), 0.0)
        shape = (phi.shape[0] * phi.shape[1],) + phi.shape[2:]
        cached = FrameCertificate(lower, float(eigs.max()), "zak-fiber",
                                  system.redundancy, fiber_shape=shape)
        object.__setattr__(system, "_certificate", cached)
    return cached


def dual_window(system: GaborSystem, tol: float = 1e-12) -> GridSignal:
    """Canonical dual window S^-1 window, by one solve per Zak fiber.

    The window's own character components on the coset c are the column
    Phi_{c,chi}[:, 0] of a_0 = 0, so each fiber solves h |F| Phi Phi^H y =
    Phi[:, 0], and the inverse character transform over H, (1/|H|)
    sum_chi chi(u) y_chi[i], places the dual at the nodes c + f_i + u.
    Raises NotAFrame when the lower frame bound does not exceed ``tol``.
    """
    cert = frame_bounds(system)
    if cert.lower <= tol:
        raise NotAFrame(f"lower frame bound {cert.lower} <= tol {tol}")
    phi, chars, nodes = _zak_fibers(system)
    scale = system.grid.spacing ** system.grid.dim * system.freq_lattice.count
    fibers = np.linalg.solve(scale * (phi @ phi.conj().swapaxes(-1, -2)), phi[..., :1])
    gamma = np.empty(system.grid.size, dtype=complex)
    inverse = chars @ fibers.reshape(len(chars), -1) / len(chars)
    gamma[nodes] = inverse.reshape(nodes.shape)
    return GridSignal(system.grid, gamma)


def _adjoint_lattices(system: GaborSystem) -> tuple[GridLattice, GridLattice]:
    """(time, frequency) lattices of the adjoint, F^perp x A^perp: the
    annihilator of the frequency lattice as time shifts, that of the time
    lattice as frequencies."""
    grid = system.grid
    return (_annihilator(system.freq_lattice, grid),
            _annihilator(system.time_lattice, grid.reciprocal()))


def wexler_raz_residual(system: GaborSystem, gamma: GridSignal) -> float:
    """Biorthogonality defect of (system.window, gamma) over the adjoint
    lattice F^perp x A^perp.

    The largest deviation of the STFT of gamma with the system window, over
    the adjoint lattice, from 1/redundancy at the origin and 0 elsewhere.
    Lattice covariance of the Gram entries makes this origin-anchored
    analysis equivalent to the full double scan.
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
    ``grid._BATCH_BYTES``, each one batched analysis and one batched
    synthesis.  A signal's largest temporary is its folded coefficients,
    N0 times the fold size, or the signal itself when that is larger.
    """
    denoms = np.linalg.norm(rows, axis=1)
    if not np.all(denoms):
        raise ZeroSignal("reconstruction error undefined for the zero signal")
    table = _synthesis_table(system, gamma)
    block = _block_rows(max(table.shape[0] * table.shape[1], system.grid.size))
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
