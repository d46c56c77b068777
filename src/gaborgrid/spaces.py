"""Concrete translation/modulation-invariant norms and their discrete spaces.

Four space kinds are implemented on grid signals:

* ``Lp_w``       weighted Lebesgue norm (spacing^n quadrature),
* ``C0_w``       sup norm with a vanishing-at-infinity flag; on a compact
                 grid it coincides with the weighted sup norm,
* ``MixedLp``    mixed norm, inner exponent over the second axis, outer
                 over the first (2-d grids only),
* ``FourierLp_w`` the Lp_w norm of the inverse Fourier transform, taken on
                 the reciprocal grid with continuum frequency scaling.

Weights are power weights (1+|x|)^tau evaluated at symmetric
representatives, so the grid behaves like a box centered at the origin.

The discrete space attached to a lattice norms a sequence c by the norm of
the superposition sum_lambda c_lambda T_lambda(chi) for a compactly
supported window chi with pairwise disjoint translates, checked by exact
hit counts once per window and lattice point set.  Every discrete norm is
taken at lattice size, never on the grid:

* a solid kind is a weighted sequence space: |c_k| times the window's
  exact local profile, the weighted norm of chi's translate to x_k (per
  first-axis row for MixedLp), built from the support once per window,
  lattice point set and space;
* for FourierLp_w the inverse transform of the superposition is
  P^n ifft(chi) times a series in c that is periodic with the fold of the
  lattice (``grid._lattice_fold``), so one inverse DFT of the fold shape
  per sequence is normed against |P^n ifft(chi)| w folded onto it.

``solid_discrete_norm`` is the weighted sequence norm itself, and
``fourier_side_norm`` the periodic Fourier-series realization over a
fundamental domain of the dual lattice, folded the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    IndexMismatch,
    NonAlignedLattice,
    NotSolid,
    OverlappingSupports,
)
from .grid import (
    CoeffArray,
    GridLattice,
    GridSignal,
    PeriodicGrid,
    _block_rows,
    _flat_index,
    _lattice_fold,
    grids_compatible,
)
from .lattice import PowerWeight, dual_lattice

# The keys of each kind's config object beside "kind".
_KIND_KEYS = {
    "Lp_w": ("p", "tau"),
    "C0_w": ("tau",),
    "MixedLp": ("p", "p2", "tau"),
    "FourierLp_w": ("p", "tau"),
}


@dataclass(frozen=True)
class SpaceSpec:
    """Descriptor of a concrete space norm."""

    kind: str
    p: float = 2.0
    p2: float | None = None
    weight: PowerWeight = field(default_factory=PowerWeight)

    def __post_init__(self):
        if self.kind not in _KIND_KEYS:
            raise ValueError(f"unknown space kind {self.kind!r}")
        exps = [self.p] + ([self.p2] if self.kind == "MixedLp" else [])
        if self.kind == "MixedLp" and self.p2 is None:
            raise ValueError("MixedLp needs both exponents")
        for q in exps:
            if not (q is not None and 1.0 <= q):
                raise ValueError(f"exponent must lie in [1, inf], got {q}")

    @property
    def is_solid(self) -> bool:
        return self.kind in ("Lp_w", "C0_w", "MixedLp")

    @property
    def tau(self) -> float:
        return self.weight.exponent

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "tau": self.tau}
        if self.kind != "C0_w":
            out["p"] = "inf" if math.isinf(self.p) else float(self.p)
        if self.kind == "MixedLp":
            out["p2"] = "inf" if math.isinf(self.p2) else float(self.p2)
        return out

    @classmethod
    def from_dict(cls, data: dict, name: str = "space") -> "SpaceSpec":
        """The spec of the config object ``name`` with only its kind's keys
        (``_KIND_KEYS``): each exponent a number, "inf" or null (infinity),
        tau a finite number.  Any other key or value is a ConfigError naming
        ``name.<key>``; an unknown kind or an exponent below 1 is a ValueError."""
        if not isinstance(data, dict):
            raise ConfigError(f"{name}: must be an object, got {type(data).__name__}")
        kind = data.get("kind")
        if not (isinstance(kind, str) and kind in _KIND_KEYS):
            raise ValueError(f"unknown space kind {kind!r}")
        values = {"p": 2.0, "p2": None, "tau": 0.0}
        for key, value in data.items():
            if key == "kind":
                continue
            if key not in _KIND_KEYS[kind]:
                raise ConfigError(f"{name}.{key}: unknown key")
            if key != "tau" and value in ("inf", None):
                value = math.inf
            elif not (type(value) in (int, float) and (key != "tau" or math.isfinite(value))):
                expected = "a finite number" if key == "tau" else 'a number, "inf" or null'
                raise ConfigError(f"{name}.{key}: must be {expected}, got {value!r}")
            values[key] = float(value)
        return cls(kind, values["p"], values["p2"], PowerWeight(values["tau"]))


def _p_norm(values: np.ndarray, p: float, cell: float, axis=None) -> np.ndarray | float:
    if math.isinf(p):
        return np.max(values, axis=axis)
    if p == 4:
        # Two squarings; the generic power is several times slower.
        powered = values * values
        powered *= powered
    else:
        powered = values if p == 1 else values ** p
    return (cell * np.sum(powered, axis=axis)) ** (1.0 / p)


def _norms(weighted: np.ndarray, spec: SpaceSpec, spacing: float, dim: int) -> np.ndarray:
    """The norm kernel of every kind: norms of the (S, ...) weighted
    magnitudes with quadrature cell spacing^dim.  MixedLp takes (S, R, n),
    the inner exponent over n, then the outer one over R, each with cell
    ``spacing``; the other kinds norm each row as a whole."""
    if spec.kind == "MixedLp":
        inner = _p_norm(weighted, spec.p2, spacing, axis=2)
        return _p_norm(inner, spec.p, spacing, axis=1)
    p = math.inf if spec.kind == "C0_w" else spec.p
    return _p_norm(weighted.reshape(len(weighted), -1), p, spacing ** dim, axis=1)


def _norm_weight(grid: PeriodicGrid, spec: SpaceSpec) -> np.ndarray:
    """The weight at the nodes the norm sums over: the reciprocal grid's
    nodes for FourierLp_w, the grid's own nodes otherwise.  Read-only."""
    if spec.kind == "FourierLp_w":
        grid = grid.reciprocal()
    return _weight_table(grid, spec.weight.exponent)


@lru_cache(maxsize=32)
def _weight_table(grid: PeriodicGrid, exponent: float) -> np.ndarray:
    """The power weight (1 + |x|)^exponent at the grid's centered nodes,
    cached per (grid, exponent) as a read-only array."""
    table = PowerWeight(exponent)(grid.centered_nodes())
    table.setflags(write=False)
    return table


def _check_mixed(grid: PeriodicGrid, spec: SpaceSpec) -> None:
    if spec.kind == "MixedLp" and grid.dim != 2:
        raise DimensionMismatch("MixedLp requires a 2-d grid")


def _row_norms(rows: np.ndarray, grid: PeriodicGrid, spec: SpaceSpec,
               weight: np.ndarray) -> np.ndarray:
    """Norms of the (S, size) rows of grid samples, one per row.

    ``weight`` is ``_norm_weight(grid, spec)``.  FourierLp_w rows are
    transformed in place.
    """
    _check_mixed(grid, spec)
    if spec.kind == "FourierLp_w":
        shaped = rows.reshape((-1,) + grid.shape)
        np.fft.ifftn(shaped, axes=tuple(range(1, grid.dim + 1)), out=shaped)
        rows *= grid.period ** grid.dim
        grid = grid.reciprocal()
    weighted = np.abs(rows)
    weighted *= weight
    return _norms(weighted.reshape((-1,) + grid.shape), spec, grid.spacing, grid.dim)


def continuous_norm(f: GridSignal, spec: SpaceSpec) -> float:
    """Quadrature norm of a grid signal in the requested space."""
    rows = f.values.reshape(1, -1).copy()
    return float(_row_norms(rows, f.grid, spec, _norm_weight(f.grid, spec))[0])


def _disjoint_translates(window: GridSignal, lat: GridLattice
                         ) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, support): the (count, |supp chi|) flat grid nodes of the
    window support shifted by each lattice point, and the sorted flat nodes
    of the support itself.

    The table has count * |supp chi| entries, never a (count, size) one.
    Raises OverlappingSupports unless every node is hit at most once.  A
    table that passes is cached on the window per lattice point set, keyed
    by ``GridLattice._key`` (``GridSignal._window_tables``); a refusal is not
    cached.
    """
    if not grids_compatible(window.grid, lat.grid):
        raise DimensionMismatch("window and lattice live on different grids")
    tables = window._window_tables
    if lat._key not in tables:
        tables[lat._key] = _checked_translates(window, lat)
    return tables[lat._key]


def _checked_translates(window: GridSignal, lat: GridLattice
                        ) -> tuple[np.ndarray, np.ndarray]:
    grid = window.grid
    support = np.flatnonzero(window.values)
    if support.size == 0:
        raise OverlappingSupports("window is identically zero")
    # More hits than nodes: some node is hit twice (pigeonhole).
    if support.size * lat.count > grid.size:
        raise OverlappingSupports(
            "lattice translates of the window support overlap on the grid"
        )
    offsets = np.stack(np.unravel_index(support, grid.shape), axis=-1)
    nodes = _flat_index(grid, lat.index_points[:, None, :] + offsets)
    if np.bincount(nodes.ravel(), minlength=grid.size).max() > 1:
        raise OverlappingSupports(
            "lattice translates of the window support overlap on the grid"
        )
    nodes.setflags(write=False)
    support.setflags(write=False)
    return nodes, support


def _sequence_norms(coeffs: CoeffArray, row_norms, row_size: int | None = None
                    ) -> float | np.ndarray:
    """The calling convention of every sequence norm in this module.

    ``coeffs`` holds one sequence, values of shape (count,), for which the
    norm is returned as a float, or S sequences as the columns of a
    (count, S) array, for which the S column norms are returned.
    ``row_norms`` maps an (s, count) array whose rows are sequences to their
    s norms; it is handed blocks of at most ``grid._BATCH_BYTES`` of complex
    rows of ``row_size`` entries (default: count).
    """
    values = coeffs.values
    if values.ndim > 2:
        raise IndexMismatch("coefficients must have shape (count,) or (count, S)")
    columns = values.reshape(coeffs.lattice.count, -1)
    block = _block_rows(row_size or columns.shape[0])
    norms = np.empty(columns.shape[1])
    for start in range(0, columns.shape[1], block):
        # Contiguous rows keep every row sum pairwise, as for one sequence.
        rows = np.ascontiguousarray(columns[:, start:start + block].T)
        norms[start:start + block] = row_norms(rows)
    return float(norms[0]) if values.ndim == 1 else norms


def _solid_profile(window: GridSignal, lat: GridLattice, spec: SpaceSpec
                   ) -> tuple[np.ndarray, np.ndarray | None]:
    """(profile, rows): the window's exact local profile for a solid kind.

    ``profile[k, s]`` is the q-norm, without the cell, of w |chi(t - x_k)|
    over the nodes t of translate k in its s-th first-axis row, the max
    when q = inf, and ``rows[k, s]`` is that row of the grid.  MixedLp has a
    column per first-axis row of the window support and q = p2; Lp_w and
    C0_w have one column, the whole translate, q = p and no ``rows``.
    Both are cached on the window per (lattice point set, spec), beside the
    support table they are built from.
    """
    _check_mixed(window.grid, spec)
    nodes, support = _disjoint_translates(window, lat)
    tables = window._window_tables
    key = lat._key, spec
    if key not in tables:
        tables[key] = _local_profile(window, lat, spec, nodes, support)
    return tables[key]


def _local_profile(window: GridSignal, lat: GridLattice, spec: SpaceSpec,
                   nodes: np.ndarray, support: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray | None]:
    grid = window.grid
    magnitudes = _norm_weight(grid, spec)[nodes] * np.abs(window.values[support])
    if spec.kind == "MixedLp":
        q = spec.p2
        first = support // grid.points_per_axis  # sorted: rows are runs
        starts = np.flatnonzero(np.diff(first, prepend=-1))
        rows = (lat.index_points[:, :1] + first[starts]) % grid.points_per_axis
    else:
        q = math.inf if spec.kind == "C0_w" else spec.p
        starts, rows = [0], None
    if math.isinf(q):
        profile = np.maximum.reduceat(magnitudes, starts, axis=1)
    else:
        profile = np.add.reduceat(magnitudes ** q, starts, axis=1) ** (1.0 / q)
    for table in (profile, rows):
        if table is not None:
            table.setflags(write=False)
    return profile, rows


def _fold_profile(table: np.ndarray, split: tuple[int, ...], p: float) -> np.ndarray:
    """The nonnegative grid ``table`` folded onto the fold shape of
    ``split`` (see ``grid._lattice_fold``), flattened: entry r is the
    p-norm, without the cell, of the table over the nodes congruent to r;
    the max when p = inf."""
    shaped = table.reshape(split)
    periods = tuple(range(0, len(split), 2))
    if math.isinf(p):
        return shaped.max(axis=periods).ravel()
    return (shaped ** p).sum(axis=periods).ravel() ** (1.0 / p)


def _series_norms(coeffs: CoeffArray, spec: SpaceSpec, shape: tuple[int, ...],
                  bins: np.ndarray, profile: np.ndarray, spacing: float
                  ) -> float | np.ndarray:
    """Norms of the periodic series of each sequence against a folded profile.

    Each sequence is placed at its ``bins`` of ``shape`` (coinciding bins
    sum, so only colliding labels need a scatter-add) and taken by one
    unnormalized inverse DFT of that shape: the series at the residues, each
    weighted by its ``profile`` entry and normed with cell spacing^dim.
    """
    axes = tuple(range(1, len(shape) + 1))
    distinct = np.bincount(bins).max() == 1

    def row_norms(rows):
        series = np.zeros((rows.shape[0], profile.size), dtype=complex)
        if distinct:
            series[:, bins] = rows
        else:
            np.add.at(series, (slice(None), bins), rows)
        shaped = series.reshape((-1,) + shape)
        np.fft.ifftn(shaped, axes=axes, norm="forward", out=shaped)
        weighted = np.abs(series)
        weighted *= profile
        return _norms(weighted, spec, spacing, len(shape))

    return _sequence_norms(coeffs, row_norms, profile.size)


def discrete_norm(coeffs: CoeffArray, spec: SpaceSpec, window: GridSignal
                  ) -> float | np.ndarray:
    """Norm of sum_lambda c_lambda T_lambda(window) in the space ``spec``.

    The translates are disjoint (``_disjoint_translates``), and the norm is
    taken at lattice size.  A solid kind weights |c_k| by the window's
    profile (``_solid_profile``), so a sequence costs O(count), times the
    rows of the window support for MixedLp, whose pairs of a translate and
    a row add into their grid rows.  For FourierLp_w the inverse transform
    of the superposition is P^n ifft(chi) times the series
    sum_k c_k exp(2 pi i x_k . xi), which is periodic with the fold of the
    lattice (``grid._lattice_fold``): one inverse DFT of the fold shape per
    sequence against the folded |P^n ifft(chi)| w.
    """
    lat = coeffs.lattice
    grid = window.grid
    if spec.kind == "MixedLp":
        profile, rows = _solid_profile(window, lat, spec)
        combine = np.maximum if math.isinf(spec.p2) else np.add

        def row_norms(seqs):
            # Each pair (k, s) adds |c_k|^p2 profile[k, s]^p2 to its grid row.
            weighted = np.abs(seqs)[:, :, None] * profile
            powered = weighted if math.isinf(spec.p2) else weighted ** spec.p2
            inner = np.zeros((len(seqs), grid.points_per_axis))
            combine.at(inner, (slice(None), rows), powered)
            if not math.isinf(spec.p2):
                inner = (grid.spacing * inner) ** (1.0 / spec.p2)
            return _p_norm(inner, spec.p, grid.spacing, axis=1)

        return _sequence_norms(coeffs, row_norms, profile.size)
    if spec.is_solid:
        profile = _solid_profile(window, lat, spec)[0][:, 0]

        def row_norms(seqs):
            weighted = np.abs(seqs)
            weighted *= profile
            return _norms(weighted, spec, grid.spacing, grid.dim)

        return _sequence_norms(coeffs, row_norms)
    _disjoint_translates(window, lat)
    shape, split, bins = _lattice_fold(lat.index_points, grid.points_per_axis)
    transform = np.fft.ifftn(window.reshaped()).ravel()
    table = np.abs(transform) * (grid.period ** grid.dim) * _norm_weight(grid, spec)
    profile = _fold_profile(table, split, spec.p)
    return _series_norms(coeffs, spec, shape, bins, profile, 1.0 / grid.period)


def _separable_counts(lat: GridLattice) -> tuple[int, int]:
    steps = lat.steps
    if lat.grid.dim != 2 or steps[0, 1] != 0 or steps[1, 0] != 0:
        raise NotSolid("mixed sequence norms need a separable 2-d lattice")
    L = lat.grid.points_per_axis
    n0 = L // math.gcd(int(abs(steps[0, 0])), L)
    n1 = L // math.gcd(int(abs(steps[1, 1])), L)
    return n0, n1


def solid_discrete_norm(coeffs: CoeffArray, spec: SpaceSpec) -> float | np.ndarray:
    """Weighted sequence norm realizing the discrete space of a solid kind."""
    if not spec.is_solid:
        raise NotSolid(f"{spec.kind} has no solid sequence shortcut")
    lat = coeffs.lattice
    weight = spec.weight(lat.centered_points)
    shape = (-1,) + _separable_counts(lat) if spec.kind == "MixedLp" else (-1, lat.count)

    def row_norms(rows):
        weighted = np.abs(rows)
        weighted *= weight
        return _norms(weighted.reshape(shape), spec, 1.0, lat.grid.dim)

    return _sequence_norms(coeffs, row_norms)


def fourier_side_norm(coeffs: CoeffArray, spec: SpaceSpec) -> float | np.ndarray:
    """Norm of the periodic series sum_lambda c_lambda e^{2 pi i lambda.x}
    restricted to a fundamental domain of the dual lattice.

    Realizes the Fourier-coefficient description of the discrete space of a
    Fourier kind.  The index lattice must consist of grid frequencies and
    its dual lattice must be grid-aligned.  The series is periodic with the
    fold of its labels (``grid._lattice_fold``), so it is taken by one
    inverse DFT of the fold shape per sequence, against the Lp_w weight on
    the domain folded onto that shape.
    """
    if spec.kind != "FourierLp_w":
        raise ValueError("fourier_side_norm needs a FourierLp_w space")
    lat = coeffs.lattice
    grid = lat.grid
    freqs = lat.points * grid.period
    if np.max(np.abs(freqs - np.rint(freqs))) > 1e-9:
        raise NonAlignedLattice("lattice points are not grid frequencies")
    labels = np.rint(freqs).astype(np.int64)
    dual = GridLattice(dual_lattice(lat.lattice), grid)  # raises if misaligned

    # The Lp_w weight, zero off the fundamental domain A_dual [0,1)^n (half open).
    y = np.linalg.solve(dual.lattice.generator, grid.nodes().T).T
    inside = np.all((y > -1e-9) & (y < 1.0 - 1e-9), axis=-1)
    table = np.where(inside, _weight_table(grid, spec.weight.exponent), 0.0)
    shape, split, bins = _lattice_fold(labels, grid.points_per_axis)
    profile = _fold_profile(table, split, spec.p)
    return _series_norms(coeffs, spec, shape, bins, profile, grid.spacing)


def decay_weighted_sup(coeffs: CoeffArray, order: int) -> float | np.ndarray:
    """sup over lambda of |c_lambda| (1+|lambda|)^order, the rapidly
    decreasing scale."""
    weight = PowerWeight(float(order))(coeffs.lattice.centered_points)
    return _sequence_norms(coeffs, lambda rows: np.max(np.abs(rows) * weight, axis=1))


def growth_weighted_sup(coeffs: CoeffArray, order: int) -> float | np.ndarray:
    """sup over lambda of |c_lambda| (1+|lambda|)^(-order), the slowly
    increasing scale."""
    return decay_weighted_sup(coeffs, -int(order))
