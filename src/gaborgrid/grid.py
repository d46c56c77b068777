"""Finite periodic grids: the computational stand-in for R^n.

Conventions, fixed once for the whole package:

* Nodes are x_k = k * spacing, k in {0, ..., L-1}^n, flattened in C order
  (lexicographic in k).  The grid is periodic with period P per axis.
* Frequency bins carry the integer labels of ``numpy.fft.fftfreq``: bin j
  represents the frequency m_j / P with m_j in the symmetric range
  {-floor(L/2), ..., ceil(L/2)-1}; for even L the Nyquist bin is the
  negative frequency.
* The forward DFT has no prefactor.  Quadrature weights spacing^n convert
  grid sums to integral approximations, so ``spacing**n * dft(f)`` is the
  Riemann-sum Fourier transform sampled at the frequency nodes.
* Positions entering weights and decay estimates are measured at the
  symmetric representative in [-P/2, P/2)^n, i.e. the grid models a box
  centered at the origin.

Dimensions 1 and 2 are supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .errors import (
    DimensionMismatch,
    GridMismatch,
    IndexMismatch,
    NonAlignedLattice,
    NonAlignedShift,
)
from .lattice import Lattice

_ALIGN_TOL = 1e-9


@dataclass(frozen=True)
class PeriodicGrid:
    """Periodic sampling grid [0, P)^dim with L points per axis."""

    dim: int
    period: float
    points_per_axis: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise DimensionMismatch(f"dim must be 1 or 2, got {self.dim}")
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.points_per_axis < 2:
            raise ValueError("points_per_axis must be at least 2")

    @property
    def spacing(self) -> float:
        return self.period / self.points_per_axis

    @property
    def size(self) -> int:
        return self.points_per_axis ** self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    def axis_nodes(self) -> np.ndarray:
        return np.arange(self.points_per_axis) * self.spacing

    def index_vectors(self) -> np.ndarray:
        """(size, dim) read-only integer index vectors in lexicographic order."""
        return _index_table(self.dim, self.points_per_axis, False)

    def nodes(self) -> np.ndarray:
        """(size, dim) node coordinates in [0, P)^dim."""
        return self.index_vectors() * self.spacing

    def centered_nodes(self) -> np.ndarray:
        """Node coordinates mapped to the symmetric box [-P/2, P/2)^dim."""
        x = self.nodes()
        return np.mod(x + self.period / 2, self.period) - self.period / 2

    def freq_integers_axis(self) -> np.ndarray:
        """Per-axis read-only integer frequency labels in DFT bin order."""
        return _index_table(1, self.points_per_axis, True)[:, 0]

    def freq_integers(self) -> np.ndarray:
        """(size, dim) read-only integer frequency labels, bins flattened in
        C order."""
        return _index_table(self.dim, self.points_per_axis, True)

    def reciprocal(self) -> "PeriodicGrid":
        """The frequency-side grid: spacing 1/P, period L/P, same L."""
        return PeriodicGrid(self.dim, self.points_per_axis / self.period, self.points_per_axis)


@lru_cache(maxsize=None)
def _index_table(dim: int, L: int, frequencies: bool) -> np.ndarray:
    """(L^dim, dim) read-only integer vectors in lexicographic order, cached
    per (dim, L): the node indices, or with ``frequencies`` the integer
    labels of the DFT bins."""
    axis = np.arange(L)
    if frequencies:
        axis = np.where(axis < (L + 1) // 2, axis, axis - L)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    table = np.stack([g.ravel() for g in grids], axis=-1)
    table.setflags(write=False)
    return table


def grids_compatible(a: PeriodicGrid, b: PeriodicGrid) -> bool:
    return (
        a.dim == b.dim
        and a.points_per_axis == b.points_per_axis
        and math.isclose(a.period, b.period, rel_tol=1e-9)
    )


@dataclass(frozen=True, eq=False)
class GridSignal:
    """Complex samples on a periodic grid, flattened in node order."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=complex)
        if v.shape != (self.grid.size,):
            raise DimensionMismatch(
                f"expected {self.grid.size} values, got shape {v.shape}"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def reshaped(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)

    @cached_property
    def _window_tables(self) -> dict:
        """The support, profile and Fourier-series tables of ``spaces`` with
        this signal as the window, keyed by a lattice's ``_key`` and by
        (that key, spec)."""
        return {}

    def l2_norm(self) -> float:
        """Quadrature L^2 norm sqrt(spacing^n * sum |f|^2)."""
        w = self.grid.spacing ** self.grid.dim
        return float(np.sqrt(w * np.sum(np.abs(self.values) ** 2)))

    def __add__(self, other: "GridSignal") -> "GridSignal":
        require_same_grid(self, other)
        return GridSignal(self.grid, self.values + other.values)

    def __sub__(self, other: "GridSignal") -> "GridSignal":
        require_same_grid(self, other)
        return GridSignal(self.grid, self.values - other.values)

    def __mul__(self, scalar) -> "GridSignal":
        return GridSignal(self.grid, self.values * complex(scalar))

    __rmul__ = __mul__


def require_same_grid(a: GridSignal, b: GridSignal) -> None:
    if not grids_compatible(a.grid, b.grid):
        raise GridMismatch(f"incompatible grids: {a.grid} vs {b.grid}")


def dft(signal: GridSignal) -> np.ndarray:
    """Forward DFT (plain sum, no prefactor), flattened in bin order."""
    return np.fft.fftn(signal.reshaped()).ravel()


def _shift_steps(grid: PeriodicGrid, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (grid.dim,):
        raise DimensionMismatch(f"shift must have {grid.dim} components")
    steps = x / grid.spacing
    rounded = np.rint(steps)
    if np.max(np.abs(steps - rounded)) > _ALIGN_TOL:
        raise NonAlignedShift(f"shift {x} is not a multiple of spacing {grid.spacing}")
    return rounded.astype(int)


def translate(signal: GridSignal, x) -> GridSignal:
    """Circular translation (T_x f)(t) = f(t - x) for grid-aligned x."""
    steps = _shift_steps(signal.grid, x)
    rolled = np.roll(signal.reshaped(), shift=tuple(steps), axis=tuple(range(signal.grid.dim)))
    return GridSignal(signal.grid, rolled.ravel())


def _order_tuple(grid: PeriodicGrid, order) -> tuple[int, ...]:
    if np.isscalar(order):
        if grid.dim != 1:
            raise DimensionMismatch("scalar derivative order needs a 1-d grid")
        order = (int(order),)
    order = tuple(int(o) for o in np.atleast_1d(order))
    if len(order) != grid.dim or any(o < 0 for o in order):
        raise DimensionMismatch(f"derivative order must be {grid.dim} non-negative ints")
    return order


def _center_vector(grid: PeriodicGrid, center) -> np.ndarray:
    c = np.atleast_1d(np.asarray(center, dtype=float))
    if c.shape == (1,) and grid.dim == 2:
        c = np.repeat(c, 2)
    if c.shape != (grid.dim,):
        raise DimensionMismatch(f"center must have {grid.dim} components")
    return c


def sample_gaussian(grid: PeriodicGrid, center=0.0, width: float = 1.0,
                    normalize: bool = False) -> GridSignal:
    """Samples of exp(-pi |x - c|^2 / width^2), periodized over +-1 images.

    Truncating the periodization at one wrap image keeps the error below
    1e-15 once period >= 10 * width.  The Gaussian and its image sum are
    products over the axes, so each axis sums its three images once (3 L
    exponentials per axis) and the grid values are the outer product of
    the axis sums.  With ``normalize`` the quadrature L^2 norm is scaled
    to one.
    """
    if not 0 < width < math.inf:
        raise ValueError(f"width must be positive and finite, got {width!r}")
    shifts = (-grid.period, 0.0, grid.period)
    factors = []
    for c in _center_vector(grid, center):
        d = grid.axis_nodes() - c
        d = np.mod(d + grid.period / 2, grid.period) - grid.period / 2
        vals = np.zeros(grid.points_per_axis)
        for shift in shifts:
            vals += np.exp(-np.pi * (d + shift) ** 2 / width ** 2)
        factors.append(vals)
    sig = GridSignal(grid, reduce(np.multiply.outer, factors).ravel())
    if normalize:
        sig = sig * (1.0 / sig.l2_norm())
    return sig


def sample_bump(grid: PeriodicGrid, center=0.0, radius: float = 0.5) -> GridSignal:
    """The standard bump exp(-1 / (1 - |x-c|^2/r^2)) inside the ball, 0 outside."""
    if not 0 < radius < grid.period / 2:
        raise ValueError("radius must lie in (0, period/2)")
    c = _center_vector(grid, center)
    d = grid.nodes() - c
    d = np.mod(d + grid.period / 2, grid.period) - grid.period / 2
    u = np.sum(d ** 2, axis=-1) / radius ** 2
    vals = np.zeros(grid.size)
    inside = u < 1.0
    vals[inside] = np.exp(-1.0 / (1.0 - u[inside]))
    return GridSignal(grid, vals)


def sample_rectangle(grid: PeriodicGrid, width: float, start=0.0,
                     normalize: bool = False) -> GridSignal:
    """Indicator of the box [start, start+width)^dim on the periodic grid."""
    if not 0 < width <= grid.period:
        raise ValueError("width must lie in (0, period]")
    s = _center_vector(grid, start)
    y = np.mod(grid.nodes() - s, grid.period)
    vals = np.all(y < width - _ALIGN_TOL, axis=-1).astype(float)
    sig = GridSignal(grid, vals)
    if normalize:
        sig = sig * (1.0 / sig.l2_norm())
    return sig


def sample_oscillation(grid: PeriodicGrid, frequency: float) -> GridSignal:
    """The plane wave exp(2 pi i frequency (x_1 + ... + x_n)), scaled to unit L^2 norm."""
    phase = np.exp(2j * np.pi * (grid.nodes() @ np.full(grid.dim, frequency)))
    sig = GridSignal(grid, phase)
    return sig * (1.0 / sig.l2_norm())


@lru_cache(maxsize=64)
def _enumerate_quotient(steps: tuple[tuple[int, ...], ...], L: int) -> np.ndarray:
    """(count, dim) read-only index vectors of the subgroup of (Z/L)^dim
    generated by the columns of the step matrix, in lexicographic order.

    Column j has order L / gcd(L, its entries), so the combinations of
    multiples below the orders, at most L^dim of them, reach every point;
    they are marked on a grid-shaped mask, read back in C order.
    """
    dim = len(steps)
    steps = np.array(steps, dtype=np.int64) % L
    orders = [L // math.gcd(L, *(int(v) for v in steps[:, j])) for j in range(dim)]
    hit = np.zeros((L,) * dim, dtype=bool)
    hit[tuple(steps @ np.indices(orders).reshape(dim, -1) % L)] = True
    points = np.argwhere(hit)
    points.setflags(write=False)
    return points


@dataclass(frozen=True, eq=False)
class GridLattice:
    """A lattice aligned with a periodic grid, enumerated modulo the period.

    Every generator column must be an integer multiple of the grid spacing;
    the point set is the (finite) image of the lattice in the torus
    [0, P)^dim.  Frequency lattices use the same machinery against
    ``grid.reciprocal()``.
    """

    lattice: Lattice
    grid: PeriodicGrid

    def __post_init__(self):
        if self.lattice.dim != self.grid.dim:
            raise DimensionMismatch("lattice and grid dimensions differ")
        steps = self.lattice.generator / self.grid.spacing
        rounded = np.rint(steps)
        if np.max(np.abs(steps - rounded)) > _ALIGN_TOL:
            raise NonAlignedLattice(
                f"generator columns are not multiples of spacing {self.grid.spacing}"
            )

    @cached_property
    def steps(self) -> np.ndarray:
        """Integer generator matrix in units of the grid spacing."""
        steps = np.rint(self.lattice.generator / self.grid.spacing).astype(np.int64)
        steps.setflags(write=False)
        return steps

    @cached_property
    def _key(self) -> tuple[tuple[int, ...], ...]:
        """``steps`` as nested tuples: the key of the lattice in every cache,
        as it fixes the points on a given grid."""
        return tuple(map(tuple, self.steps.tolist()))

    @cached_property
    def index_points(self) -> np.ndarray:
        """(count, dim) sorted integer index vectors of the points mod P."""
        return _enumerate_quotient(self._key, self.grid.points_per_axis)

    @cached_property
    def _flat_points(self) -> np.ndarray:
        """(count,) flat node numbers of the points; on the reciprocal grid
        they are the flat DFT bins."""
        flat = _flat_index(self.grid, self.index_points)
        flat.setflags(write=False)
        return flat

    @cached_property
    def _fiber_maps(self) -> dict:
        """``gabor._fiber_maps`` with this time lattice, by frequency ``_key``."""
        return {}

    @cached_property
    def _fourier_tables(self) -> dict:
        """``spaces._fourier_side_series`` of this lattice, by spec."""
        return {}

    @property
    def count(self) -> int:
        return self.index_points.shape[0]

    @property
    def points(self) -> np.ndarray:
        """Point coordinates in [0, P)^dim."""
        return self.index_points * self.grid.spacing

    @property
    def centered_points(self) -> np.ndarray:
        """Point coordinates at symmetric representatives in [-P/2, P/2)^dim."""
        L = self.grid.points_per_axis
        idx = np.mod(self.index_points + L // 2, L) - L // 2
        return idx * self.grid.spacing

    @classmethod
    def cubic(cls, grid: PeriodicGrid, step: float) -> "GridLattice":
        return cls(Lattice.cubic(grid.dim, step), grid)


@dataclass(frozen=True, eq=False)
class CoeffArray:
    """Complex coefficients indexed by one lattice or a time x frequency pair."""

    lattices: tuple[GridLattice, ...]
    values: np.ndarray

    def __post_init__(self):
        if len(self.lattices) not in (1, 2):
            raise IndexMismatch("CoeffArray takes one or two lattices")
        v = np.ascontiguousarray(self.values, dtype=complex)
        expected = tuple(lat.count for lat in self.lattices)
        if v.shape[: len(expected)] != expected:
            raise IndexMismatch(f"values shape {v.shape} does not match lattice sizes {expected}")
        if len(self.lattices) == 2 and v.ndim != 2:
            raise IndexMismatch("product-lattice coefficients must be 2-d")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def over_lattice(cls, lat: GridLattice, values: np.ndarray) -> "CoeffArray":
        return cls((lat,), values)

    @classmethod
    def over_product(cls, time_lat: GridLattice, freq_lat: GridLattice,
                     values: np.ndarray) -> "CoeffArray":
        return cls((time_lat, freq_lat), values)

    @property
    def lattice(self) -> GridLattice:
        if len(self.lattices) != 1:
            raise IndexMismatch("coefficients are indexed by a lattice pair")
        return self.lattices[0]

    @property
    def time_lattice(self) -> GridLattice:
        return self.lattices[0]

    @property
    def freq_lattice(self) -> GridLattice:
        if len(self.lattices) != 2:
            raise IndexMismatch("coefficients are indexed by a single lattice")
        return self.lattices[1]


# Work on at most this many bytes of complex rows at a time, so a batch of any
# size adds a bounded working set.
_BATCH_BYTES = 2 ** 17


def _block_rows(row_size: int) -> int:
    """Rows of ``row_size`` complex entries per block under ``_BATCH_BYTES``."""
    return max(1, _BATCH_BYTES // (16 * row_size))


def _flat_index(grid: PeriodicGrid, index: np.ndarray) -> np.ndarray:
    """Flat node (or bin) numbers of integer index vectors, wrapped modulo L."""
    return np.ravel_multi_index(tuple(np.moveaxis(index, -1, 0)), grid.shape, mode="wrap")


def _lattice_fold(points: np.ndarray, L: int
                  ) -> tuple[tuple[int, ...], tuple[int, ...], np.ndarray]:
    """(shape, split, bins): the fold of the (count, dim) integer points
    modulo L.

    With g_a the gcd of L and every a-th coordinate of the points, each
    character t -> exp(2 pi i x . t / L) of a point x, and so every sum of
    them, is n_a = L / g_a periodic along axis a.  ``shape`` is
    (n_1, ..., n_d); ``split`` is the grid shape with axis a split into
    (g_a, n_a), periods then residues, so a grid array reshaped to it is
    folded by a reduction over its even axes; ``bins`` are the flat indices
    of x / g in ``shape``, wrapped modulo it.  Points distinct modulo L
    stay distinct modulo n.
    """
    g = np.gcd.reduce(points, axis=0, initial=L)
    shape = tuple(int(n) for n in L // g)
    split = tuple(x for n in shape for x in (L // n, n))
    bins = np.ravel_multi_index(tuple((points // g).T), shape, mode="wrap")
    return shape, split, bins


def _tiled_windows(values: np.ndarray) -> np.ndarray:
    """The L^dim sliding windows of a 2^dim-tiled copy of the grid-shaped
    ``values`` (``GridSignal.reshaped()``, or a real array): window s is
    t -> values(t + s), so window -x mod L is the translate by x.  Built
    once per array, gathered from by ``_translates``."""
    tiled = np.tile(values, (2,) * values.ndim)
    return np.lib.stride_tricks.sliding_window_view(tiled, values.shape)


def _translates(windows: np.ndarray, index_points: np.ndarray, block: int | None = None):
    """Yield (K, size) tables whose row k is t -> values(t - x_k), flattened in
    node order, for consecutive blocks of ``block`` index points (one block
    of all of them by default), from the ``_tiled_windows(values)``.

    Row k is the window that starts at -x_k mod L; each block is one fancy
    index.
    """
    shape = windows.shape[windows.ndim // 2:]
    starts = np.moveaxis(-index_points % shape[0], -1, 0)
    step = block or index_points.shape[0]
    for lo in range(0, index_points.shape[0], step):
        yield windows[tuple(starts[:, lo:lo + step])].reshape(-1, math.prod(shape))


def _superpose(lat: GridLattice, coeffs: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """(S, size) rows: row s is sum_k coeffs[s, k] T_{x_k}(window), for the
    (S, count) coefficient rows and the window's forward DFT ``spectrum``,
    of grid shape, or (S,) + grid shape for a window per row.

    Each row is a comb carrying one sequence at the lattice nodes (distinct
    modulo L), convolved with the window by one batched FFT pair in place.
    """
    grid = lat.grid
    rows = np.zeros((coeffs.shape[0], grid.size), dtype=complex)
    rows[:, lat._flat_points] = coeffs
    shaped = rows.reshape((-1,) + grid.shape)
    axes = tuple(range(1, grid.dim + 1))
    np.fft.fftn(shaped, axes=axes, out=shaped)
    shaped *= spectrum
    np.fft.ifftn(shaped, axes=axes, out=shaped)
    return rows

