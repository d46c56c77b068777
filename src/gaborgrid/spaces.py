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
supported window chi with pairwise disjoint translates.  Solid kinds admit
the direct weighted sequence norm; Fourier kinds admit the periodic
Fourier-series realization over a fundamental domain of the dual lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
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
    _flat_index,
    _superpose,
    grids_compatible,
    lattice_superposition,
)
from .lattice import PowerWeight, dual_lattice

_KINDS = ("Lp_w", "C0_w", "MixedLp", "FourierLp_w")


@dataclass(frozen=True)
class SpaceSpec:
    """Descriptor of a concrete space norm."""

    kind: str
    p: float = 2.0
    p2: float | None = None
    weight: PowerWeight = field(default_factory=PowerWeight)

    def __post_init__(self):
        if self.kind not in _KINDS:
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
    def from_dict(cls, data: dict) -> "SpaceSpec":
        def exponent(v):
            return math.inf if v in ("inf", None) else float(v)

        kind = data.get("kind")
        if kind not in _KINDS:
            raise ValueError(f"unknown space kind {kind!r}")
        p = exponent(data.get("p", data.get("p1", 2.0)))
        p2 = exponent(data["p2"]) if "p2" in data else None
        return cls(kind, p, p2, PowerWeight(float(data.get("tau", 0.0))))


def _p_norm(values: np.ndarray, p: float, cell: float, axis=None) -> np.ndarray | float:
    if math.isinf(p):
        return np.max(values, axis=axis)
    return (cell * np.sum(values ** p, axis=axis)) ** (1.0 / p)


def _norm_weight(grid: PeriodicGrid, spec: SpaceSpec) -> np.ndarray:
    """The weight at the nodes the norm sums over: the reciprocal grid's
    nodes for FourierLp_w, the grid's own nodes otherwise."""
    if spec.kind == "FourierLp_w":
        grid = grid.reciprocal()
    return spec.weight(grid.centered_nodes())


def _row_norms(rows: np.ndarray, grid: PeriodicGrid, spec: SpaceSpec,
               weight: np.ndarray) -> np.ndarray:
    """Norms of the (S, size) rows of grid samples, one per row.

    ``weight`` is ``_norm_weight(grid, spec)``.  FourierLp_w rows are
    transformed in place.
    """
    if spec.kind == "MixedLp" and grid.dim != 2:
        raise DimensionMismatch("MixedLp requires a 2-d grid")
    if spec.kind == "FourierLp_w":
        shaped = rows.reshape((-1,) + grid.shape)
        np.fft.ifftn(shaped, axes=tuple(range(1, grid.dim + 1)), out=shaped)
        rows *= grid.period ** grid.dim
        grid = grid.reciprocal()
    weighted = np.abs(rows)
    weighted *= weight
    if spec.kind == "MixedLp":
        table = weighted.reshape((-1,) + grid.shape)
        inner = _p_norm(table, spec.p2, grid.spacing, axis=2)
        return _p_norm(inner, spec.p, grid.spacing, axis=1)
    p = math.inf if spec.kind == "C0_w" else spec.p
    return _p_norm(weighted, p, grid.spacing ** grid.dim, axis=1)


def continuous_norm(f: GridSignal, spec: SpaceSpec) -> float:
    """Quadrature norm of a grid signal in the requested space."""
    rows = f.values.reshape(1, -1).copy()
    return float(_row_norms(rows, f.grid, spec, _norm_weight(f.grid, spec))[0])


def check_disjoint_supports(window: GridSignal, lat: GridLattice) -> None:
    """Raise unless the lattice translates of the window support are disjoint."""
    if not grids_compatible(window.grid, lat.grid):
        raise DimensionMismatch("window and lattice live on different grids")
    support = (np.abs(window.values) > 0).astype(float)
    if not support.any():
        raise OverlappingSupports("window is identically zero")
    ones = CoeffArray.over_lattice(lat, np.ones(lat.count))
    coverage = lattice_superposition(ones, window.with_values(support)).values.real
    # Coverage counts are integers up to FFT rounding.
    if coverage.max() > 1.5:
        raise OverlappingSupports(
            "lattice translates of the window support overlap on the grid"
        )


# Superpose and norm at most this many bytes of complex rows at a time, so a
# batch of any size adds a bounded working set.
_BATCH_BYTES = 2 ** 17


def _sequence_norms(coeffs: CoeffArray, row_norms, row_size: int | None = None
                    ) -> float | np.ndarray:
    """The calling convention of every sequence norm in this module.

    ``coeffs`` holds one sequence, values of shape (count,), for which the
    norm is returned as a float, or S sequences as the columns of a
    (count, S) array, for which the S column norms are returned.
    ``row_norms`` maps an (s, count) array whose rows are sequences to their
    s norms; it is handed blocks of at most ``_BATCH_BYTES`` of complex rows
    of ``row_size`` entries (default: count).
    """
    values = coeffs.values
    if values.ndim > 2:
        raise IndexMismatch("coefficients must have shape (count,) or (count, S)")
    columns = values.reshape(coeffs.lattice.count, -1)
    block = max(1, _BATCH_BYTES // (16 * (row_size or columns.shape[0])))
    norms = np.empty(columns.shape[1])
    for start in range(0, columns.shape[1], block):
        # Contiguous rows keep every row sum pairwise, as for one sequence.
        rows = np.ascontiguousarray(columns[:, start:start + block].T)
        norms[start:start + block] = row_norms(rows)
    return float(norms[0]) if values.ndim == 1 else norms


def discrete_norm(coeffs: CoeffArray, spec: SpaceSpec, window: GridSignal
                  ) -> float | np.ndarray:
    """Norm of sum_lambda c_lambda T_lambda(window) in the space ``spec``.

    The support check runs once per call; the sequences are superposed and
    normed in blocks.
    """
    lat = coeffs.lattice
    check_disjoint_supports(window, lat)
    grid = window.grid
    spectrum = np.fft.fftn(window.reshaped())
    weight = _norm_weight(grid, spec)
    return _sequence_norms(
        coeffs,
        lambda rows: _row_norms(_superpose(lat, rows, spectrum), grid, spec, weight),
        grid.size,
    )


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
    mixed = (-1,) + _separable_counts(lat) if spec.kind == "MixedLp" else None

    def row_norms(rows):
        weighted = np.abs(rows)
        weighted *= weight
        if mixed:
            inner = _p_norm(weighted.reshape(mixed), spec.p2, 1.0, axis=2)
            return _p_norm(inner, spec.p, 1.0, axis=1)
        p = math.inf if spec.kind == "C0_w" else spec.p
        return _p_norm(weighted, p, 1.0, axis=1)

    return _sequence_norms(coeffs, row_norms)


def fourier_side_norm(coeffs: CoeffArray, spec: SpaceSpec) -> float | np.ndarray:
    """Norm of the periodic series sum_lambda c_lambda e^{2 pi i lambda.x}
    restricted to a fundamental domain of the dual lattice.

    Realizes the Fourier-coefficient description of the discrete space of a
    Fourier kind.  The index lattice must consist of grid frequencies and
    its dual lattice must be grid-aligned.
    """
    if spec.kind != "FourierLp_w":
        raise ValueError("fourier_side_norm needs a FourierLp_w space")
    lat = coeffs.lattice
    grid = lat.grid
    freqs = lat.points * grid.period
    if np.max(np.abs(freqs - np.rint(freqs))) > 1e-9:
        raise NonAlignedLattice("lattice points are not grid frequencies")
    labels = _flat_index(grid, np.rint(freqs).astype(np.int64))
    dual = GridLattice(dual_lattice(lat.lattice), grid)  # raises if misaligned

    # The Lp_w weight, zero off the fundamental domain A_dual [0,1)^n (half open).
    y = np.linalg.solve(dual.lattice.generator, grid.nodes().T).T
    inside = np.all((y > -1e-9) & (y < 1.0 - 1e-9), axis=-1)
    inner = SpaceSpec("Lp_w", spec.p, weight=spec.weight)
    weight = np.where(inside, _norm_weight(grid, inner), 0.0)
    axes = tuple(range(1, grid.dim + 1))

    def row_norms(rows):
        # Unnormalized inverse DFT of each sequence placed at its labels;
        # labels that coincide modulo L sum.
        series = np.zeros((rows.shape[0], grid.size), dtype=complex)
        np.add.at(series, (slice(None), labels), rows)
        shaped = series.reshape((-1,) + grid.shape)
        np.fft.ifftn(shaped, axes=axes, norm="forward", out=shaped)
        return _row_norms(series, grid, inner, weight)

    return _sequence_norms(coeffs, row_norms, grid.size)


def decay_weighted_sup(coeffs: CoeffArray, order: int) -> float | np.ndarray:
    """sup over lambda of |c_lambda| (1+|lambda|)^order, the rapidly
    decreasing scale."""
    weight = PowerWeight(float(order))(coeffs.lattice.centered_points)
    return _sequence_norms(coeffs, lambda rows: np.max(np.abs(rows) * weight, axis=1))


def growth_weighted_sup(coeffs: CoeffArray, order: int) -> float | np.ndarray:
    """sup over lambda of |c_lambda| (1+|lambda|)^(-order), the slowly
    increasing scale."""
    return decay_weighted_sup(coeffs, -int(order))
