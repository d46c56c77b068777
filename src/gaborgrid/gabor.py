"""Gabor systems on periodic grids: frame operator, bounds, dual windows.

Analysis maps a signal to its STFT samples on a time x frequency lattice
A x F (with spacing^n quadrature weight); synthesis is the plain
superposition of time-frequency shifted windows, so the two dense matrices
are conjugate transposes up to the scalar spacing^n and the frame operator

    S = synthesize . analyze

is Hermitian positive semidefinite.  Frame bounds are reported as extreme
eigenvalues of S, i.e. as the squares of the coefficient-map norm bounds.

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

Analysis and synthesis run on the same fibers (Strohmer 1998; LTFAT's
``dgt_fac``, Prusa et al. 2014), one batched kernel each, ``_analysis`` and
``_synthesis``.  Analysis gathers the signals at c + f_i + u, transforms
them over the characters of H, contracts with conj Phi over i and
transforms back, which gives per time point and coset c the coset's share
of the inner product.  The characters of F are constant on the cosets and
L / g_a periodic along axis a when every bin of F is a multiple of g_a
there, so one FFT of that fold shape finishes.  Synthesis is its exact
transpose on the fibers of the synthesis window, so synthesis with gamma
after analysis with psi acts on each fiber as h |F| Phi_gamma Phi_psi^H,
and its worst relative error over all signals is the largest fiber norm of
that matrix minus I (``_reconstruction_enclosure``).  No translate table is
kept: the largest arrays are Phi, size * q entries, and the coefficients.

Wexler-Raz biorthogonality is evaluated independently of the fibers.  The
adjoint of the product lattice A x F is F^perp x A^perp: the time nodes
that F annihilates as time shifts and the bins that A annihilates as
frequencies (``_annihilator``).  Both are finite subgroups of their grids,
so the adjoint exists for every pair of grid lattices, and the pair
(psi, gamma) is dual exactly when the STFT of gamma with window psi over
the adjoint vanishes except for the mass 1/redundancy at the origin
((ab)^n on a separable lattice with steps (a, b)).  That STFT is taken by
the translate-gather kernel of ``stft``, not from the fibers of the
adjoint system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import IndexMismatch, NonAlignedLattice, NotAFrame, ZeroSignal
from .grid import (
    CoeffArray,
    GridLattice,
    GridSignal,
    PeriodicGrid,
    _flat_index,
    _lattice_fold,
    _tiled_windows,
    _translates,
    grids_compatible,
    require_same_grid,
)
from .lattice import Lattice
from .stft import _gamma, _lattice_stft

# A system whose lower frame bound is at most this is not a frame (fixed).
FRAME_THRESHOLD = 1e-10


@dataclass(frozen=True, eq=False)
class GaborSystem:
    """Window plus time and frequency lattices (product lattice in phase
    space).  The cached properties hold what the module functions derive
    from one system, each built on first use."""

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

    @cached_property
    def _fibers(self) -> tuple[np.ndarray, _FiberMaps]:
        """(phi, maps): ``phi[chi, c]`` is the p x q fiber Phi_{c,chi} of the module
        docstring, the characters times the window gathered at the ``_fiber_maps`` shifts."""
        maps = _fiber_maps(self.time_lattice, self.freq_lattice)
        tiled = np.tile(self.window.reshaped(), (2,) * self.grid.dim).ravel()
        shifted = tiled[maps.shifts].reshape(len(maps.chars), -1)
        return (maps.chars.T @ shifted).reshape(maps.shifts.shape), maps

    @cached_property
    def _certificate(self) -> FrameCertificate:
        phi = self._fibers[0]
        if phi.shape[2] == 1:
            parts = phi.view(float)
            eigs = np.einsum("...ij,...ij->...i", parts, parts)
        else:
            eigs = np.linalg.eigvalsh(phi @ phi.conj().swapaxes(-1, -2))
        eigs *= self.grid.spacing ** self.grid.dim * self.freq_lattice.count
        lower = 0.0 if self.redundancy < 1.0 else max(float(eigs.min()), 0.0)
        shape = (phi.shape[0] * phi.shape[1],) + phi.shape[2:]
        return FrameCertificate(lower, float(eigs.max()), "zak-fiber",
                                self.redundancy, fiber_shape=shape)

    @cached_property
    def _dual(self) -> GridSignal:
        phi, (chars, nodes, *_) = self._fibers
        scale = self.grid.spacing ** self.grid.dim * self.freq_lattice.count
        fibers = np.linalg.solve(scale * (phi @ phi.conj().swapaxes(-1, -2)), phi[..., :1])
        gamma = np.empty(self.grid.size, dtype=complex)
        gamma[nodes] = (chars @ fibers.reshape(len(chars), -1)).ravel() / len(chars)
        return GridSignal(self.grid, gamma)

    @cached_property
    def _adjoint(self) -> tuple[GridLattice, GridLattice]:
        """(time, frequency) lattices of the adjoint, F^perp x A^perp: the annihilators
        of the frequency lattice as time shifts and of the time lattice as frequencies."""
        return (_annihilator(self.freq_lattice, self.grid),
                _annihilator(self.time_lattice, self.grid.reciprocal()))


def _reconstruction_enclosure(system: GaborSystem, gamma: GridSignal) -> tuple[float, float]:
    """(lower, upper) around the largest relative L2 error of synthesis with
    gamma after analysis with the system window, over every signal: the
    norm of D_gamma C_psi - I for the window and gamma as given.

    D_gamma C_psi acts on the fiber (c, chi) as h |F| Phi_gamma Phi_psi^H, so
    that norm is the largest spectral norm of M = h |F| Phi_gamma Phi_psi^H
    - I_p over the fibers, which lies between ||M||_F / sqrt(p) and ||M||_F.
    Both ends are moved outward by a bound on the rounding of the computed
    fibers and of M; the rounding of ``_analysis`` and ``_synthesis`` is not
    in it.
    """
    require_same_grid(gamma, system.window)
    phi, maps = system._fibers
    grid = system.grid
    scale = grid.spacing ** grid.dim * system.freq_lattice.count
    m = scale * (_synthesis_system(system, gamma)._fibers[0] @ phi.conj().swapaxes(-1, -2))
    p, q = phi.shape[2:]
    m -= np.eye(p)
    norms = np.linalg.norm(m, axis=(-2, -1))

    def magnitudes(window):
        """sum_u |window(c + f_i - a_l - u)|, the (cosets, p, q) bound on |Phi|."""
        tiled = np.tile(np.abs(window.reshaped()), (2,) * grid.dim).ravel()
        return tiled[maps.shifts].sum(axis=0)

    bound = np.linalg.norm(magnitudes(gamma) @ magnitudes(system.window).swapaxes(-1, -2),
                           axis=(-2, -1))
    # A computed character errs by at most 28u: its phase 2 pi k / L rounds
    # four times (pi, the product with k, 1 / L, the quotient), at most 8 pi u,
    # and cos and sin by an ulp each.  The |H|-term complex sums add
    # gamma_{2|H|+4}, so an entry of Phi errs by at most gamma_{2|H|+32}
    # times its magnitude sum.  Two such factors, the q-term product
    # (gamma_{2q+4}) and the roundings of scale and of scale times it keep
    # |M~ - M| within gamma_{4|H|+2q+70} scale (|Phi_gamma| |Phi_psi|^T).
    # The count adds the rounding of that bound, made of nonnegative numbers
    # only: the moduli (hypot), the |H| - 1 sums of each factor, the q-term
    # products, the p^2 squares and sums, the square root and three products.
    # The norms of M~ take the subtraction of I, p^2 squares and sums, the
    # square root and the two steps of each end.
    eps = _gamma(6 * len(maps.chars) + 4 * q + p * p + 80) * scale * bound
    widen = _gamma(p * p + 6)
    upper = float(np.max(norms * (1 + widen) + eps))
    lower = float(np.max(norms * (1 - widen) / math.sqrt(p) - eps))
    return max(lower, 0.0), upper


def _synthesis_system(system: GaborSystem, gamma: GridSignal) -> GaborSystem:
    """The system of gamma on the lattices of ``system``, or ``system`` itself
    when gamma is its window; it shares the fiber maps."""
    if gamma is system.window:
        return system
    return GaborSystem(gamma, system.time_lattice, system.freq_lattice)


def _lattices_match(a: GridLattice, b: GridLattice) -> bool:
    return grids_compatible(a.grid, b.grid) and np.array_equal(a.index_points, b.index_points)


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


class _FiberMaps(NamedTuple):
    """The index maps of the Zak fibers of a lattice pair (``_fiber_maps``)."""

    chars: np.ndarray
    nodes: np.ndarray
    shifts: np.ndarray
    shape: tuple[int, ...]
    places: np.ndarray
    bins: np.ndarray


def _fiber_maps(time_lattice: GridLattice, freq_lattice: GridLattice) -> _FiberMaps:
    """The window-free index maps of the Zak fibers of A x F, cached on the
    time lattice per frequency lattice (``GridLattice._fiber_maps``), so
    every window on one lattice pair shares them.

    ``chars[u, chi]`` is the character chi of H at u; ``nodes`` are the
    flat nodes c + f_i + u in (u, c, i) order; ``shifts[chi, c, i, l]``
    indexes c + f_i - a_l - u (u of index chi) in the 2^n-tiled window.
    ``shape`` and ``bins`` are the fold of F (``grid._lattice_fold``); the
    box of c lies in it, as n_a e_a is in F^perp for the fold length n_a
    of every axis a.
    ``places``, in (u, c, l) order, are the flat positions of coset c and
    time point a_l + u in (fold, N0) spectra, the time points in lattice
    order.
    """
    cache = time_lattice._fiber_maps
    if freq_lattice._key not in cache:
        grid = time_lattice.grid
        L = grid.points_per_axis
        perp = _annihilator(freq_lattice, grid)
        time = time_lattice.index_points
        basis = _hermite_basis(time[np.all(time @ freq_lattice.steps % L == 0, axis=1)], L)
        # The box of the orders L / g_j indexes the elements of H (by their
        # coefficients in the basis) and its characters (by frequencies).
        orders = _box(L // np.diag(basis))
        elements = orders @ basis.T % L
        chars = np.exp(2j * np.pi * (elements @ orders.T % L) / L)
        c = _box(np.diag(perp.steps))
        f = _coset_points(perp.index_points, basis, L)
        a = _coset_points(time, basis, L)
        # c + f_i - (a_l + u) with both parts reduced mod L lies in (-L, L)^n,
        # so one period on it is a linear index into the 2^n-tiled window.
        strides = (2 * L) ** np.arange(grid.dim)[::-1]
        ends = (c[:, None] + f) % L @ strides + L * strides.sum()
        starts = (elements[:, None] + a) % L @ strides
        shape, _, bins = _lattice_fold(freq_lattice.index_points, L)
        folds = np.ravel_multi_index(tuple(c.T), shape)
        times = np.searchsorted(time_lattice._flat_points,
                                _flat_index(grid, elements[:, None] + a))
        nodes = _flat_index(grid, elements[:, None, None] + c[:, None] + f)
        places = folds[:, None] * len(time) + times[:, None]
        cache[freq_lattice._key] = _FiberMaps(
            chars, nodes.ravel(), ends[..., None] - starts[:, None, None, :],
            shape, places.ravel(), bins)
    return cache[freq_lattice._key]


def _analysis(system: GaborSystem, rows: np.ndarray) -> np.ndarray:
    """(S, N0, |F|) STFT samples on the system lattice of the (S, size)
    signal rows: the fiber steps of the module docstring, then the cosets
    scattered into (S, fold, N0) spectra and one batched FFT in place over
    the fold axes, read at the bins.  Every matmul takes the signals as a
    batch axis, so a row's samples do not depend on the rows beside it."""
    phi, (chars, nodes, _, shape, places, bins) = system._fibers
    grid, count, times = system.grid, len(rows), system.time_lattice.count
    signals = rows[:, nodes].reshape(count, len(chars), -1)
    # The quadrature weight and the 1 / |H| of the inverse character transform.
    signals *= grid.spacing ** grid.dim / len(chars)
    fibers = (chars.conj().T @ signals).reshape((count,) + phi.shape[:3] + (1,))
    fibers = np.conj(phi).swapaxes(2, 3) @ fibers
    spectra = np.zeros((count,) + shape + (times,), dtype=complex)
    spectra.reshape(count, -1)[:, places] = (
        chars @ fibers.reshape(count, len(chars), -1)).reshape(count, -1)
    folded = np.moveaxis(spectra, -1, 1)
    np.fft.fftn(folded, axes=tuple(range(2, grid.dim + 2)), out=folded)
    return spectra.reshape(count, -1, times)[:, bins].swapaxes(1, 2)


def _synthesis(system: GaborSystem, coeffs: np.ndarray) -> np.ndarray:
    """(S, size) rows: sum over k and j of coeffs[s, k, j] times the window
    translate at time point k modulated by the j-th frequency of the
    system.  The exact transpose of ``_analysis``, batched over the signals
    in the same way."""
    phi, (chars, nodes, _, shape, places, bins) = system._fibers
    count, times = coeffs.shape[:2]
    spectra = np.zeros((count,) + shape + (times,), dtype=complex)
    spectra.reshape(count, -1, times)[:, bins] = coeffs.swapaxes(1, 2)
    folded = np.moveaxis(spectra, -1, 1)
    np.fft.ifftn(folded, axes=tuple(range(2, system.grid.dim + 2)), norm="forward", out=folded)
    sums = spectra.reshape(count, -1)[:, places].reshape(count, len(chars), -1)
    sums *= 1.0 / len(chars)
    fibers = (chars.conj().T @ sums).reshape((count,) + phi.shape[:2] + (-1, 1))
    fibers = phi @ fibers
    rows = np.empty((count, system.grid.size), dtype=complex)
    rows[:, nodes] = (chars @ fibers.reshape(count, len(chars), -1)).reshape(count, -1)
    return rows


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
    return GridSignal(system.grid, _synthesis(system, coeffs.values[None])[0])


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

    @property
    def is_frame(self) -> bool:
        """The package's one frame gate: the lower bound exceeds FRAME_THRESHOLD."""
        return self.lower > FRAME_THRESHOLD

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
    [table] = _translates(_tiled_windows(system.window.reshaped()),
                           system.time_lattice.index_points)
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
    built once per system (``GaborSystem._certificate``), so the frame gate
    of :func:`dual_window` reuses it.
    """
    return system._certificate


def dual_window(system: GaborSystem) -> GridSignal:
    """Canonical dual window S^-1 window, by one solve per Zak fiber.

    The window's own character components on the coset c are the column
    Phi_{c,chi}[:, 0] of a_0 = 0, so each fiber solves h |F| Phi Phi^H y =
    Phi[:, 0], and the inverse character transform over H, (1/|H|)
    sum_chi chi(u) y_chi[i], places the dual at the nodes c + f_i + u.
    Raises NotAFrame when the certificate is not a frame
    (``FrameCertificate.is_frame``).  The dual is built once per system
    (``GaborSystem._dual``), next to the certificate; the gate runs on every
    call.
    """
    cert = frame_bounds(system)
    if not cert.is_frame:
        raise NotAFrame(f"lower frame bound {cert.lower} <= {FRAME_THRESHOLD}")
    return system._dual


def wexler_raz_residual(system: GaborSystem, gamma: GridSignal) -> float:
    """Biorthogonality defect of (system.window, gamma) over the adjoint
    lattice F^perp x A^perp.

    The largest deviation of the STFT of gamma with the system window, over
    the adjoint lattice, from 1/redundancy at the origin and 0 elsewhere.
    Lattice covariance of the Gram entries makes this origin-anchored
    analysis equivalent to the full double scan.  The STFT is the
    translate-gather kernel ``stft._lattice_stft``, apart from the fibers.
    """
    require_same_grid(gamma, system.window)
    adj_time, adj_freq = system._adjoint
    inner = _lattice_stft(gamma.values, system.window, adj_time.index_points,
                          adj_freq.index_points)
    inner[0, 0] -= 1.0 / system.redundancy
    return float(np.max(np.abs(inner)))


def reconstruction_error(system: GaborSystem, gamma: GridSignal,
                         f: GridSignal) -> float:
    """Relative L2 error of synthesize(gamma) . analyze(window) against
    identity: one round trip of f through ``_analysis`` and ``_synthesis``."""
    require_same_grid(f, system.window)
    require_same_grid(gamma, system.window)
    denom = np.linalg.norm(f.values)
    if not denom:
        raise ZeroSignal("reconstruction error undefined for the zero signal")
    rec = _synthesis(_synthesis_system(system, gamma), _analysis(system, f.values[None]))[0]
    return float(np.linalg.norm(rec - f.values) / denom)
