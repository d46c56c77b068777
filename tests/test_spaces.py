import math
import re
import tracemalloc

import numpy as np
import pytest

from gaborgrid.errors import (
    ConfigError,
    DimensionMismatch,
    IndexMismatch,
    NonAlignedLattice,
    NotSolid,
    OverlappingSupports,
    Unresolved,
)
from gaborgrid import spaces as spaces_module
from gaborgrid.grid import (
    CoeffArray,
    GridLattice,
    GridSignal,
    PeriodicGrid,
    sample_bump,
    sample_gaussian,
    sample_rectangle,
    translate,
)
from gaborgrid.lattice import Lattice, PowerWeight, dual_lattice
from gaborgrid.spaces import (
    SpaceSpec,
    continuous_norm,
    decay_weighted_sup,
    discrete_norm,
    fourier_side_norm,
    growth_weighted_sup,
    solid_discrete_norm,
)

from conftest import (
    count_fft_calls,
    lattice_superposition,
    modulate,
    modulation_phases,
    random_signal,
    record_fft_shapes,
)


def lp(p):
    return SpaceSpec("Lp_w", p)


def lp_w(p, tau):
    return SpaceSpec("Lp_w", p, weight=PowerWeight(tau))


def test_zero_signal_norm(ref_grid):
    z = GridSignal(ref_grid, np.zeros(ref_grid.size))
    for spec in (lp(1), lp(2), SpaceSpec("C0_w"), SpaceSpec("FourierLp_w", 2)):
        assert continuous_norm(z, spec) == 0.0


def test_l1_delta_column(ref_grid):
    vals = np.zeros(ref_grid.size)
    vals[37] = 4.0
    f = GridSignal(ref_grid, vals)
    assert continuous_norm(f, lp(1)) == pytest.approx(4.0 * ref_grid.spacing)


def test_l2_matches_direct_and_parseval(ref_grid, rng):
    f = random_signal(ref_grid, rng)
    direct = np.sqrt(ref_grid.spacing * np.sum(np.abs(f.values) ** 2))
    assert continuous_norm(f, lp(2)) == pytest.approx(direct, rel=1e-12)
    assert continuous_norm(f, SpaceSpec("FourierLp_w", 2)) == pytest.approx(
        direct, rel=1e-10
    )


def test_linf_and_c0(ref_grid, rng):
    f = random_signal(ref_grid, rng)
    assert continuous_norm(f, lp(math.inf)) == pytest.approx(np.max(np.abs(f.values)))
    assert continuous_norm(f, SpaceSpec("C0_w")) == pytest.approx(
        np.max(np.abs(f.values))
    )


def test_weighted_norm_uses_centered_nodes(ref_grid):
    vals = np.zeros(ref_grid.size)
    vals[-1] = 1.0  # node at period - spacing, centered representative -spacing
    f = GridSignal(ref_grid, vals)
    expected = (1.0 + ref_grid.spacing) ** 2
    assert continuous_norm(f, lp_w(math.inf, 2.0)) == pytest.approx(expected)


def test_mixed_norm_oracle():
    grid = PeriodicGrid(2, 4.0, 8)
    rng = np.random.default_rng(9)
    f = random_signal(grid, rng)
    spec = SpaceSpec("MixedLp", 1.0, 3.0)
    table = np.abs(f.values).reshape(8, 8)
    inner = (grid.spacing * np.sum(table ** 3.0, axis=1)) ** (1 / 3.0)
    expected = grid.spacing * np.sum(inner)
    assert continuous_norm(f, spec) == pytest.approx(expected, rel=1e-12)


def test_mixed_norm_needs_2d(ref_grid, rng):
    with pytest.raises(DimensionMismatch):
        continuous_norm(random_signal(ref_grid, rng), SpaceSpec("MixedLp", 1.0, 2.0))


def test_modulation_isometry_solid(ref_grid, rng):
    f = random_signal(ref_grid, rng)
    for spec in (lp(1), lp_w(2, 1.5), lp(4), SpaceSpec("C0_w")):
        before = continuous_norm(f, spec)
        after = continuous_norm(modulate(f, 3.0 / ref_grid.period), spec)
        assert after == pytest.approx(before, rel=1e-12)


@pytest.mark.parametrize("tau", [0.0, 1.5, -2.0])
def test_translation_bound(ref_grid, rng, tau):
    f = random_signal(ref_grid, rng)
    spec = lp_w(2, tau)
    base = continuous_norm(f, spec)
    for steps in (1, 37, 128, 255):
        x = steps * ref_grid.spacing
        circ = min(x % ref_grid.period, ref_grid.period - x % ref_grid.period)
        bound = (1.0 + circ) ** abs(tau) * base * (1 + 1e-12)
        assert continuous_norm(translate(f, x), spec) <= bound


def test_solidity_monotone(ref_grid, rng):
    lat = GridLattice.cubic(ref_grid, 1.0)
    small = rng.standard_normal(lat.count)
    big = small * rng.uniform(1.0, 3.0, lat.count)
    cs = CoeffArray.over_lattice(lat, small)
    cb = CoeffArray.over_lattice(lat, big)
    for spec in (lp(1), lp_w(2, 2.0), lp(math.inf)):
        assert solid_discrete_norm(cs, spec) <= solid_discrete_norm(cb, spec) * (1 + 1e-12)


@pytest.fixture
def bump_setup(ref_grid):
    lat = GridLattice.cubic(ref_grid, 1.0)
    chi = sample_bump(ref_grid, center=0.0, radius=0.45)
    return lat, chi


def test_discrete_norm_zero(bump_setup):
    lat, chi = bump_setup
    c = CoeffArray.over_lattice(lat, np.zeros(lat.count))
    assert discrete_norm(c, lp(2), chi) == 0.0


def test_discrete_norm_delta_is_window_norm(bump_setup):
    lat, chi = bump_setup
    vals = np.zeros(lat.count, dtype=complex)
    vals[5] = 1.0
    c = CoeffArray.over_lattice(lat, vals)
    for p in (1.0, 2.0, math.inf):
        got = discrete_norm(c, lp(p), chi)
        assert got == pytest.approx(continuous_norm(chi, lp(p)), rel=1e-12)


def test_discrete_norm_disjoint_decomposition_oracle(bump_setup, rng):
    lat, chi = bump_setup
    c = CoeffArray.over_lattice(
        lat, rng.standard_normal(lat.count) + 1j * rng.standard_normal(lat.count)
    )
    spec = lp_w(3.0, 1.0)
    got = discrete_norm(c, spec, chi)
    # By disjoint supports the norm decomposes into per-site weighted window norms.
    total = 0.0
    for coeff, lam in zip(c.values, lat.points):
        shifted = translate(chi, lam[0])
        total += abs(coeff) ** 3 * continuous_norm(shifted, spec) ** 3
    assert got == pytest.approx(total ** (1 / 3.0), rel=1e-12)


def test_discrete_norm_rejects_overlap(ref_grid, rng):
    lat = GridLattice.cubic(ref_grid, 1.0)
    wide = sample_bump(ref_grid, center=0.0, radius=0.9)
    c = CoeffArray.over_lattice(lat, rng.standard_normal(lat.count))
    with pytest.raises(OverlappingSupports):
        discrete_norm(c, lp(2), wide)
    gauss = sample_gaussian(ref_grid)
    with pytest.raises(OverlappingSupports):
        discrete_norm(c, lp(2), gauss)


# Batched sequence norms ------------------------------------------------------

# Grid and lattice generator per setup.  On "1d" and "2d-sheared" L != P^2,
# so the reciprocal grid that weights FourierLp_w differs from the grid
# itself; the Fourier-side setups are those of the direct-series test below.
_BATCH_LATTICES = {
    "1d": (PeriodicGrid(1, 16.0, 128), np.eye(1)),
    # sheared: nearest points at distance 1 and sqrt(5)/2
    "2d-sheared": (PeriodicGrid(2, 4.0, 32), np.array([[1.0, 0.5], [0.0, 1.0]])),
    "2d-separable": (PeriodicGrid(2, 4.0, 32), np.diag([1.0, 0.5])),  # 4 x 8 points
    "1d-step1": (PeriodicGrid(1, 16.0, 256), np.eye(1)),
    "1d-step2": (PeriodicGrid(1, 16.0, 256), 2.0 * np.eye(1)),
    "2d": (PeriodicGrid(2, 4.0, 16), np.eye(2)),
}

_DISCRETE_SPECS = (
    [lp_w(p, tau) for p in (1.0, 2.0, 4.0) for tau in (0.0, 2.0)]
    + [SpaceSpec("C0_w", weight=PowerWeight(1.0)), SpaceSpec("MixedLp", 1.0, 3.0),
       SpaceSpec("FourierLp_w", 2.0), SpaceSpec("FourierLp_w", 4.0, weight=PowerWeight(2.0))]
)
_SOLID_SPECS = (lp_w(1.0, 0.0), lp_w(4.0, 2.0), SpaceSpec("C0_w", weight=PowerWeight(1.0)),
                SpaceSpec("MixedLp", 1.0, 3.0), SpaceSpec("MixedLp", 2.0, 1.0, PowerWeight(1.5)))
_BATCH_CASES = (
    [("discrete", setup, spec)
     for setup in ("1d", "2d-sheared")
     for spec in _DISCRETE_SPECS
     if not (setup == "1d" and spec.kind == "MixedLp")]
    + [("solid", "2d-separable", spec) for spec in _SOLID_SPECS]
    + [("fourier", setup, SpaceSpec("FourierLp_w", p, weight=PowerWeight(1.5)))
       for setup in ("1d-step1", "1d-step2", "2d") for p in (1.0, 2.0)]
    + [(sup, setup, None) for sup in ("decay", "growth") for setup in ("1d", "2d-sheared")]
)


def _batch_case_id(norm, setup, spec):
    label = setup if spec is None else f"{setup}-{spec.kind}-p{spec.p:g}-tau{spec.tau:g}"
    return label if norm == "discrete" else f"{norm}-{label}"


@pytest.mark.parametrize(
    "norm,setup,spec", _BATCH_CASES, ids=[_batch_case_id(*case) for case in _BATCH_CASES],
)
def test_batched_discrete_norm_matches_per_column_oracle(norm, setup, spec):
    grid, generator = _BATCH_LATTICES[setup]
    lat = GridLattice(Lattice(generator), grid)
    chi = sample_bump(grid, radius=0.45)
    # (norm of a CoeffArray, per-column oracle); a missing oracle means
    # single-column calls of the norm itself.
    batch_norm, oracle = {
        "discrete": (lambda c: discrete_norm(c, spec, chi),
                     lambda c: continuous_norm(lattice_superposition(c, chi), spec)),
        "solid": (lambda c: solid_discrete_norm(c, spec), None),
        "fourier": (lambda c: fourier_side_norm(c, spec),
                    lambda c: _direct_fourier_side_norm(c, spec)),
        "decay": (lambda c: decay_weighted_sup(c, 3), None),
        "growth": (lambda c: growth_weighted_sup(c, 3), None),
    }[norm]
    oracle = oracle or batch_norm
    rng = np.random.default_rng(17)
    for samples in (1, 5):
        cols = (rng.standard_normal((lat.count, samples))
                + 1j * rng.standard_normal((lat.count, samples)))
        got = batch_norm(CoeffArray.over_lattice(lat, cols))
        assert got.shape == (samples,)
        expected = [oracle(CoeffArray.over_lattice(lat, col)) for col in cols.T]
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
    # A single sequence of shape (count,) gives a float.
    single = batch_norm(CoeffArray.over_lattice(lat, cols[:, -1]))
    assert isinstance(single, float)
    assert single == pytest.approx(expected[-1], rel=1e-12)
    with pytest.raises(IndexMismatch):
        batch_norm(CoeffArray.over_lattice(lat, cols[:, :, None]))


# Every sequence norm, as (setup, norm of a CoeffArray given the window): each
# kind of discrete_norm, then solid_discrete_norm, fourier_side_norm and both
# weighted sups.
_STACK_NORMS = {
    "discrete-Lp_w": ("1d", lambda c, chi: discrete_norm(c, lp_w(4.0, 2.0), chi)),
    "discrete-C0_w": ("1d", lambda c, chi: discrete_norm(
        c, SpaceSpec("C0_w", weight=PowerWeight(1.0)), chi)),
    "discrete-MixedLp": ("2d-sheared", lambda c, chi: discrete_norm(
        c, SpaceSpec("MixedLp", 1.0, 3.0), chi)),
    "discrete-MixedLp-p2inf": ("2d-sheared", lambda c, chi: discrete_norm(
        c, SpaceSpec("MixedLp", 2.0, math.inf, PowerWeight(1.0)), chi)),
    "discrete-FourierLp_w-1d": ("1d", lambda c, chi: discrete_norm(
        c, SpaceSpec("FourierLp_w", 2.0, weight=PowerWeight(1.5)), chi)),
    "discrete-FourierLp_w-2d": ("2d-sheared", lambda c, chi: discrete_norm(
        c, SpaceSpec("FourierLp_w", 4.0, weight=PowerWeight(2.0)), chi)),
    "solid-Lp_w": ("2d-separable", lambda c, chi: solid_discrete_norm(c, lp_w(1.0, 2.0))),
    "solid-C0_w": ("2d-separable", lambda c, chi: solid_discrete_norm(
        c, SpaceSpec("C0_w", weight=PowerWeight(1.0)))),
    "solid-MixedLp": ("2d-separable", lambda c, chi: solid_discrete_norm(
        c, SpaceSpec("MixedLp", 2.0, 1.0, PowerWeight(1.5)))),
    "fourier-side-1d": ("1d-step2", lambda c, chi: fourier_side_norm(
        c, SpaceSpec("FourierLp_w", 1.0, weight=PowerWeight(1.5)))),
    "fourier-side-2d": ("2d", lambda c, chi: fourier_side_norm(
        c, SpaceSpec("FourierLp_w", 2.0, weight=PowerWeight(1.5)))),
    "decay": ("2d-sheared", lambda c, chi: decay_weighted_sup(c, 3)),
    "growth": ("1d", lambda c, chi: growth_weighted_sup(c, 3)),
}


@pytest.mark.parametrize("case", list(_STACK_NORMS))
def test_stacked_norms_equal_one_column_norms(case):
    # 1100 columns: more than a 128 KiB block holds of complex rows of 8
    # entries, the shortest sequences here, so a norm that cut its stack into
    # such blocks would be checked across a block boundary in every case.
    setup, norm = _STACK_NORMS[case]
    grid, generator = _BATCH_LATTICES[setup]
    lat = GridLattice(Lattice(generator), grid)
    chi = sample_bump(grid, radius=0.45)
    rng = np.random.default_rng(5)
    cols = rng.standard_normal((lat.count, 1100)) + 1j * rng.standard_normal((lat.count, 1100))
    stacked = norm(CoeffArray.over_lattice(lat, cols), chi)
    assert stacked.shape == (1100,)
    assert np.array_equal(stacked, [norm(CoeffArray.over_lattice(lat, col), chi)
                                    for col in cols.T])


def test_decay_weighted_sup_is_the_c0_solid_norm():
    grid, generator = _BATCH_LATTICES["2d-sheared"]
    lat = GridLattice(Lattice(generator), grid)
    rng = np.random.default_rng(6)
    cols = rng.standard_normal((lat.count, 7)) + 1j * rng.standard_normal((lat.count, 7))
    for order in (3, 0, -2):
        weight = PowerWeight(float(order))
        spec = SpaceSpec("C0_w", weight=weight)
        for values in (cols, cols[:, 0]):
            c = CoeffArray.over_lattice(lat, values)
            assert np.array_equal(decay_weighted_sup(c, order), solid_discrete_norm(c, spec))
        # The C0_w norm is the max of |c| w.
        assert np.array_equal(decay_weighted_sup(CoeffArray.over_lattice(lat, cols), order),
                              np.max(np.abs(cols.T) * weight(lat.centered_points), axis=1))


def test_batched_discrete_norm_refuses_bad_input(ref_grid, rng):
    lat = GridLattice.cubic(ref_grid, 1.0)
    cols = rng.standard_normal((lat.count, 40))
    batch = CoeffArray.over_lattice(lat, cols)
    wide = sample_bump(ref_grid, radius=0.9)
    with pytest.raises(OverlappingSupports):
        discrete_norm(batch, lp(2), wide)
    chi = sample_bump(ref_grid, radius=0.45)
    with pytest.raises(IndexMismatch):
        CoeffArray.over_lattice(lat, cols[:-1])
    with pytest.raises(IndexMismatch):
        discrete_norm(CoeffArray.over_lattice(lat, cols[:, :, None]), lp(2), chi)
    with pytest.raises(DimensionMismatch):
        discrete_norm(batch, SpaceSpec("MixedLp", 1.0, 2.0), chi)


# On these grids an FFT of the unit-box tiling reads its coverage as
# 1 + 2e-16 or 1 + 4e-16 at its largest; the exact hit count must accept it.
@pytest.mark.parametrize("grid", [PeriodicGrid(1, 15.0, 120), PeriodicGrid(2, 3.0, 24)],
                         ids=["1d", "2d"])
def test_disjoint_supports_rounding_edge(grid):
    lat = GridLattice.cubic(grid, 1.0)
    c = CoeffArray.over_lattice(lat, np.ones(lat.count))
    # Unit boxes tile the torus: every node is covered exactly once.
    assert discrete_norm(c, lp(1), sample_rectangle(grid, width=1.0)) == pytest.approx(
        grid.period ** grid.dim, rel=1e-14)
    # One node wider per axis: neighbouring translates share a node.
    wider = sample_rectangle(grid, width=1.0 + grid.spacing)
    with pytest.raises(OverlappingSupports):
        discrete_norm(c, lp(1), wider)


# Direct superposition of disjoint translates ---------------------------------

# Setup: (grid, lattice generator, bump radius below half the nearest
# distance).  The lattice fold (grid._lattice_fold) is (16,) on "1d", (4, 8)
# on "2d-separable" and (8, 4) on "2d-sheared", below L = 32 on every axis;
# "1d-trivial-fold" has a point at every node, so g = 1, n = L and the
# window is one node.
_DIRECT_SETUPS = {
    "1d": (PeriodicGrid(1, 16.0, 128), np.eye(1), 0.45),
    "2d-separable": (PeriodicGrid(2, 4.0, 32), np.diag([1.0, 0.5]), 0.24),
    "2d-sheared": (PeriodicGrid(2, 4.0, 32), np.array([[1.0, 0.5], [0.0, 1.0]]), 0.45),
    "1d-trivial-fold": (PeriodicGrid(1, 16.0, 48), np.eye(1) / 3.0, 0.15),
}
_DIRECT_FOLDS = {"1d": (16,), "2d-separable": (4, 8), "2d-sheared": (8, 4),
                 "1d-trivial-fold": (48,)}
_DIRECT_SPECS = (
    [lp_w(p, tau) for p in (1.0, 2.0, 4.0) for tau in (0.0, 2.0)]
    + [SpaceSpec("C0_w", weight=PowerWeight(1.0)), SpaceSpec("MixedLp", 1.0, 3.0),
       SpaceSpec("FourierLp_w", 2.0, weight=PowerWeight(1.5)),
       SpaceSpec("MixedLp", math.inf, 2.0),
       SpaceSpec("MixedLp", 1.0, math.inf, PowerWeight(1.0)),
       SpaceSpec("FourierLp_w", math.inf, weight=PowerWeight(1.0))]
)
_DIRECT_CASES = [
    (setup, spec, cols)
    for setup in _DIRECT_SETUPS
    for spec in _DIRECT_SPECS
    if not (_DIRECT_SETUPS[setup][0].dim == 1 and spec.kind == "MixedLp")
    for cols in (None, 3)
]


@pytest.mark.parametrize(
    "setup,spec,columns", _DIRECT_CASES,
    ids=[f"{setup}-{spec.kind}-p{spec.p:g}-tau{spec.tau:g}-{'default' if cols is None else cols}"
         for setup, spec, cols in _DIRECT_CASES],
)
def test_discrete_norm_matches_fft_superposition(setup, spec, columns):
    # The oracle superposes each column by FFT convolution and norms it.
    # "default" is one sequence of shape (count,), the CoeffArray default,
    # and 3 a stack of three columns.
    grid, generator, radius = _DIRECT_SETUPS[setup]
    lat = GridLattice(Lattice(generator), grid)
    rng = np.random.default_rng(31)
    # A complex window, so that the Fourier kind sees the window's phase.
    chi = sample_bump(grid, radius=radius)
    chi = GridSignal(grid, chi.values * np.exp(2j * np.pi * rng.random(grid.size)))
    cols = (rng.standard_normal((lat.count, columns or 1))
            + 1j * rng.standard_normal((lat.count, columns or 1)))
    if columns is None:
        cols = cols[:, 0]
    got = discrete_norm(CoeffArray.over_lattice(lat, cols), spec, chi)
    expected = [continuous_norm(lattice_superposition(CoeffArray.over_lattice(lat, col), chi),
                                spec)
                for col in cols.reshape(lat.count, -1).T]
    if columns is None:
        assert isinstance(got, float)
    np.testing.assert_allclose(got, expected if columns else expected[0], rtol=1e-12, atol=0)


def _index_box(grid, widths):
    """Indicator of the node box [0, w_0) x ... in integer node indices."""
    idx = grid.index_vectors()
    return GridSignal(grid, np.all(idx < np.array(widths), axis=-1).astype(float))


@pytest.mark.parametrize("setup", ["1d", "2d-sheared"])
def test_disjoint_supports_exact_node_counts(setup):
    grid, generator, _ = _DIRECT_SETUPS[setup]
    lat = GridLattice(Lattice(generator), grid)
    step = int(lat.steps[0, 0])  # 8 nodes along the first axis
    # Boxes of `step` nodes along the first axis tile it (bricks on the
    # sheared lattice), so adjacent supports pass and the norm sees every node.
    tile = _index_box(grid, (step,) * grid.dim)
    c = CoeffArray.over_lattice(lat, np.arange(1.0, lat.count + 1))
    cell = grid.spacing ** grid.dim
    assert discrete_norm(c, lp(1), tile) == pytest.approx(
        step ** grid.dim * cell * np.sum(c.values.real), rel=1e-14)
    # One node more along the first axis: neighbouring translates share a node.
    touching = _index_box(grid, (step + 1,) + (step,) * (grid.dim - 1))
    for spec in (lp(2), SpaceSpec("FourierLp_w", 2.0)):
        with pytest.raises(OverlappingSupports):
            discrete_norm(c, spec, touching)
    # A shared node is found however small the window is there, and however
    # few nodes the support has: here 2 per translate, far fewer than the grid.
    # The node at the first generator is where the next translate starts.
    neighbour = np.ravel_multi_index(tuple(lat.steps[:, 0]), grid.shape)
    faint = tile.values.copy()
    faint[neighbour] = 1e-300
    with pytest.raises(OverlappingSupports):
        discrete_norm(c, lp(2), GridSignal(grid, faint))
    pair = np.zeros(grid.size)
    pair[[0, neighbour]] = 1.0
    with pytest.raises(OverlappingSupports):
        discrete_norm(c, SpaceSpec("C0_w"), GridSignal(grid, pair))
    zero = GridSignal(grid, np.zeros(grid.size))
    for spec in (lp(2), SpaceSpec("FourierLp_w", 2.0)):
        with pytest.raises(OverlappingSupports, match="identically zero"):
            discrete_norm(c, spec, zero)


def test_cached_translates_still_refuse_overlap(ref_grid, monkeypatch):
    # The disjointness check runs once per (window, lattice point set); the
    # cached table of one lattice does not let an overlapping one through.
    checks = []
    checked = spaces_module._checked_translates
    monkeypatch.setattr(spaces_module, "_checked_translates",
                        lambda window, lat: checks.append(lat.count) or checked(window, lat))
    chi = sample_bump(ref_grid, radius=0.45)
    sparse = GridLattice.cubic(ref_grid, 1.0)
    dense = GridLattice.cubic(ref_grid, 0.5)
    c = CoeffArray.over_lattice(sparse, np.arange(1.0, sparse.count + 1))
    first = discrete_norm(c, lp(2), chi)
    again = CoeffArray.over_lattice(GridLattice.cubic(ref_grid, 1.0), c.values)
    assert discrete_norm(again, SpaceSpec("C0_w"), chi) == pytest.approx(
        float(np.max(c.values.real)) * continuous_norm(chi, SpaceSpec("C0_w")), rel=1e-14)
    assert checks == [sparse.count]
    for _ in range(2):
        with pytest.raises(OverlappingSupports):
            discrete_norm(CoeffArray.over_lattice(dense, np.ones(dense.count)), lp(2), chi)
    assert checks == [sparse.count, dense.count, dense.count]
    assert discrete_norm(c, lp(2), chi) == first


def test_cached_profile_gives_the_same_norms(monkeypatch):
    # The solid profile is built once per (window, lattice point set, spec);
    # the cached one gives the norms of a fresh build bit for bit, and a
    # refused overlap builds and caches nothing.
    builds = []
    local = spaces_module._local_profile
    monkeypatch.setattr(spaces_module, "_local_profile",
                        lambda window, lat, spec, *tables:
                        builds.append(spec) or local(window, lat, spec, *tables))
    grid, generator, radius = _DIRECT_SETUPS["2d-separable"]
    lat = GridLattice(Lattice(generator), grid)
    chi = sample_bump(grid, radius=radius)
    c = CoeffArray.over_lattice(lat, np.random.default_rng(5).standard_normal((lat.count, 6)))
    specs = [lp_w(2.0, 1.0), lp_w(4.0, 0.0), SpaceSpec("C0_w", weight=PowerWeight(1.0)),
             SpaceSpec("MixedLp", 1.0, 3.0), SpaceSpec("MixedLp", math.inf, 2.0)]
    first = [discrete_norm(c, spec, chi) for spec in specs]
    same_points = CoeffArray.over_lattice(GridLattice(Lattice(generator), grid), c.values)
    for spec, norms in zip(specs, first):
        np.testing.assert_array_equal(discrete_norm(same_points, spec, chi), norms)
    assert builds == specs
    fresh = GridSignal(grid, chi.values)
    for spec, norms in zip(specs, first):
        np.testing.assert_array_equal(discrete_norm(c, spec, fresh), norms)
    assert builds == 2 * specs
    dense = GridLattice(Lattice(generator / 2), grid)
    for _ in range(2):
        with pytest.raises(OverlappingSupports):
            discrete_norm(CoeffArray.over_lattice(dense, np.ones(dense.count)), specs[0], chi)
    assert builds == 2 * specs


def test_full_support_overlap_needs_no_table():
    # More support hits than nodes is refused before the (count, |supp|)
    # table, which would hold 1024 x 2048 node numbers here (16 MiB).
    grid = PeriodicGrid(1, 64.0, 2048)
    lat = GridLattice.cubic(grid, 2 * grid.spacing)
    gauss = sample_gaussian(grid)
    c = CoeffArray.over_lattice(lat, np.ones(lat.count))
    tracemalloc.start()
    try:
        with pytest.raises(OverlappingSupports):
            discrete_norm(c, lp(2), gauss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("setup", ["1d", "2d-separable", "2d-sheared"])
def test_discrete_norm_solid_makes_no_fft(setup, monkeypatch):
    grid, generator, radius = _DIRECT_SETUPS[setup]
    lat = GridLattice(Lattice(generator), grid)
    chi = sample_bump(grid, radius=radius)
    c = CoeffArray.over_lattice(lat, np.random.default_rng(3).standard_normal((lat.count, 40)))
    specs = [lp_w(1.0, 0.0), lp_w(4.0, 2.0), SpaceSpec("C0_w", weight=PowerWeight(1.0))]
    if grid.dim == 2:
        specs.append(SpaceSpec("MixedLp", 1.0, 3.0))
    counts = count_fft_calls(monkeypatch)
    for spec in specs:
        discrete_norm(c, spec, chi)
    assert counts == {}


@pytest.mark.parametrize("setup", ["1d", "2d-separable", "2d-sheared"])
def test_discrete_norm_solid_memory_is_lattice_size(setup):
    # The superposition of S sequences on the grid alone takes S * size * 16
    # bytes; S fits one block of it.
    grid, generator, radius = _DIRECT_SETUPS[setup]
    lat = GridLattice(Lattice(generator), grid)
    chi = sample_bump(grid, radius=radius)
    S = 8
    c = CoeffArray.over_lattice(lat, np.random.default_rng(3).standard_normal((lat.count, S)))
    specs = [lp_w(1.0, 0.0), lp_w(4.0, 2.0), SpaceSpec("C0_w", weight=PowerWeight(1.0))]
    if grid.dim == 2:
        specs += [SpaceSpec("MixedLp", 1.0, 3.0), SpaceSpec("MixedLp", math.inf, 2.0)]
    for spec in specs:
        discrete_norm(c, spec, chi)  # the weight table is cached from here on
        tracemalloc.start()
        try:
            discrete_norm(c, spec, chi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < S * grid.size * 16, spec


@pytest.mark.parametrize("setup", sorted(_DIRECT_FOLDS))
def test_fourier_discrete_norm_transforms_the_fold(setup, monkeypatch):
    # One inverse transform of the window on the grid, then one of the fold
    # shape per block of sequences.
    grid, generator, radius = _DIRECT_SETUPS[setup]
    lat = GridLattice(Lattice(generator), grid)
    chi = sample_bump(grid, radius=radius)
    S = 5
    c = CoeffArray.over_lattice(lat, np.random.default_rng(4).standard_normal((lat.count, S)))
    shapes = record_fft_shapes(monkeypatch)
    discrete_norm(c, SpaceSpec("FourierLp_w", 2.0), chi)
    assert shapes == [("ifftn", grid.shape), ("ifftn", (S,) + _DIRECT_FOLDS[setup])]


def test_solid_shortcut_exact_factor_unweighted(bump_setup, rng):
    lat, chi = bump_setup
    c = CoeffArray.over_lattice(
        lat, rng.standard_normal(lat.count) + 1j * rng.standard_normal(lat.count)
    )
    for p in (1.0, 2.0, 4.0, math.inf):
        spec = lp(p)
        direct = discrete_norm(c, spec, chi)
        factor = continuous_norm(chi, spec)
        assert direct == pytest.approx(factor * solid_discrete_norm(c, spec), rel=1e-12)


def test_solid_norm_examples(ref_grid, rng):
    lat = GridLattice.cubic(ref_grid, 1.0)
    vals = np.zeros(lat.count, dtype=complex)
    vals[3] = 1.0  # lattice point at 3.0
    c = CoeffArray.over_lattice(lat, vals)
    spec = lp_w(math.inf, 2.0)
    assert solid_discrete_norm(c, spec) == pytest.approx((1.0 + 3.0) ** 2)
    c16 = CoeffArray.over_lattice(lat, rng.standard_normal(lat.count))
    assert solid_discrete_norm(c16, lp(2)) == pytest.approx(
        np.linalg.norm(c16.values), rel=1e-13
    )


def test_solid_norm_rejects_fourier(ref_grid, rng):
    lat = GridLattice.cubic(ref_grid, 1.0)
    c = CoeffArray.over_lattice(lat, rng.standard_normal(lat.count))
    with pytest.raises(NotSolid):
        solid_discrete_norm(c, SpaceSpec("FourierLp_w", 2))


def test_solid_mixed_norm_oracle():
    grid = PeriodicGrid(2, 4.0, 8)
    rng = np.random.default_rng(3)
    lat = GridLattice.cubic(grid, 1.0)
    c = CoeffArray.over_lattice(lat, rng.standard_normal(lat.count))
    spec = SpaceSpec("MixedLp", 1.0, 2.0)
    table = np.abs(c.values).reshape(4, 4)
    expected = np.sum(np.sqrt(np.sum(table ** 2, axis=1)))
    assert solid_discrete_norm(c, spec) == pytest.approx(expected, rel=1e-12)


def test_window_independence_ratio_band(ref_grid, rng):
    lat = GridLattice.cubic(ref_grid, 1.0)
    chi1 = sample_bump(ref_grid, radius=0.3)
    chi2 = sample_bump(ref_grid, radius=0.45)
    spec = lp_w(2.0, 2.0)
    ratios = []
    for _ in range(50):
        c = CoeffArray.over_lattice(
            lat, rng.standard_normal(lat.count) + 1j * rng.standard_normal(lat.count)
        )
        n1 = discrete_norm(c, spec, chi1)
        n2 = discrete_norm(c, spec, chi2)
        ratios.append(n1 / n2)
    K = max(max(ratios), 1.0 / min(ratios))
    assert np.isfinite(K) and K >= 1.0


# Fourier-side norms -------------------------------------------------------

def test_fourier_side_constant_series(ref_grid):
    lat = GridLattice.cubic(ref_grid, 1.0)  # dual lattice is Z as well
    vals = np.zeros(lat.count, dtype=complex)
    vals[0] = 1.0
    c = CoeffArray.over_lattice(lat, vals)
    got = fourier_side_norm(c, SpaceSpec("FourierLp_w", 1.0))
    assert got == pytest.approx(1.0, rel=1e-12)  # vol(dual) = 1


def test_fourier_side_hermitian_pair_real(ref_grid):
    lat = GridLattice.cubic(ref_grid, 1.0)
    vals = np.zeros(lat.count, dtype=complex)
    vals[1] = 0.5 - 0.25j   # frequency +1
    vals[-1] = 0.5 + 0.25j  # frequency -1 (centered representative)
    c = CoeffArray.over_lattice(lat, vals)
    # Rebuild the series directly and check it is real on the nodes.
    x = ref_grid.axis_nodes()
    series = vals[1] * np.exp(2j * np.pi * x) + vals[-1] * np.exp(-2j * np.pi * x)
    assert np.max(np.abs(series.imag)) < 1e-12
    assert fourier_side_norm(c, SpaceSpec("FourierLp_w", 2.0)) > 0


@pytest.mark.parametrize("step", [1.0, 2.0])
def test_fourier_side_parseval(ref_grid, rng, step):
    lat = GridLattice.cubic(ref_grid, step)
    c = CoeffArray.over_lattice(
        lat, rng.standard_normal(lat.count) + 1j * rng.standard_normal(lat.count)
    )
    got = fourier_side_norm(c, SpaceSpec("FourierLp_w", 2.0))
    vol_dual = 1.0 / step
    assert got == pytest.approx(
        np.sqrt(vol_dual) * np.linalg.norm(c.values), rel=1e-10
    )


def _direct_fourier_side_norm(c, spec):
    """The series summed term by term with modulation_phases, then normed
    over the fundamental domain [0, 1)^n of the dual lattice."""
    lat = c.lattice
    grid = lat.grid
    labels = np.rint(lat.points * grid.period).astype(int)
    series = sum(coeff * modulation_phases(grid, m) for coeff, m in zip(c.values, labels))
    y = np.linalg.solve(dual_lattice(lat.lattice).generator, grid.nodes().T).T
    inside = np.all((y > -1e-9) & (y < 1.0 - 1e-9), axis=-1)
    inner = SpaceSpec("Lp_w", spec.p, weight=spec.weight)
    return continuous_norm(GridSignal(grid, np.where(inside, series, 0.0)), inner)


@pytest.mark.parametrize("grid, step", [
    (PeriodicGrid(1, 16.0, 256), 1.0),
    (PeriodicGrid(1, 16.0, 256), 2.0),
    (PeriodicGrid(2, 4.0, 16), 1.0),
], ids=["1d-step1", "1d-step2", "2d"])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_fourier_side_matches_direct_series(grid, step, p, rng):
    lat = GridLattice.cubic(grid, step)
    c = CoeffArray.over_lattice(
        lat, rng.standard_normal(lat.count) + 1j * rng.standard_normal(lat.count)
    )
    spec = SpaceSpec("FourierLp_w", p, weight=PowerWeight(1.5))
    assert fourier_side_norm(c, spec) == pytest.approx(
        _direct_fourier_side_norm(c, spec), rel=1e-12
    )


@pytest.mark.parametrize("grid, step, fold", [
    (PeriodicGrid(1, 16.0, 256), 1.0, (16,)),
    (PeriodicGrid(2, 4.0, 16), 1.0, (4, 4)),
], ids=["1d-step1", "2d"])
def test_fourier_side_norm_transforms_the_fold(grid, step, fold, monkeypatch):
    lat = GridLattice.cubic(grid, step)
    c = CoeffArray.over_lattice(lat, np.random.default_rng(6).standard_normal((lat.count, 3)))
    shapes = record_fft_shapes(monkeypatch)
    fourier_side_norm(c, SpaceSpec("FourierLp_w", 2.0))
    assert shapes == [("ifftn", (3,) + fold)]


@pytest.mark.parametrize("grid, points", [
    (PeriodicGrid(1, 16.0, 64), "[0.0] and [4.0]"),  # labels 16 k modulo 64: four each
    (PeriodicGrid(2, 8.0, 32), "[0.0, 0.0] and [0.0, 4.0]"),
], ids=["1d-wrapped", "2d-wrapped"])
def test_fourier_side_refuses_colliding_labels(grid, points, monkeypatch):
    # L < P^2: the series would be only a seminorm, so no norm is taken.
    lat = GridLattice.cubic(grid, 1.0)
    c = CoeffArray.over_lattice(lat, np.ones(lat.count))
    shapes = record_fft_shapes(monkeypatch)
    with pytest.raises(Unresolved, match=re.escape(f"{points} coincide modulo L = "
                                                   f"{grid.points_per_axis}")):
        fourier_side_norm(c, SpaceSpec("FourierLp_w", 2.0))
    assert shapes == []


def test_fourier_side_rejects_non_frequency_lattice():
    grid = PeriodicGrid(1, 10.0, 100)  # spacing 0.1, 1/P = 0.1, but pts*P not int
    lat = GridLattice.cubic(grid, 0.3)
    c = CoeffArray.over_lattice(lat, np.zeros(lat.count))
    with pytest.raises(NonAlignedLattice):
        fourier_side_norm(c, SpaceSpec("FourierLp_w", 2.0))


# Weighted sup scales ------------------------------------------------------

def test_weighted_sup_delta_at_origin(ref_grid):
    lat = GridLattice.cubic(ref_grid, 1.0)
    vals = np.zeros(lat.count, dtype=complex)
    vals[0] = 1.0
    c = CoeffArray.over_lattice(lat, vals)
    for order in range(5):
        assert decay_weighted_sup(c, order) == pytest.approx(1.0)
        assert growth_weighted_sup(c, order) == pytest.approx(1.0)


def test_weighted_sup_matched_decay(ref_grid):
    lat = GridLattice.cubic(ref_grid, 1.0)
    r = np.linalg.norm(lat.centered_points, axis=-1)
    c = CoeffArray.over_lattice(lat, (1.0 + r) ** -3.0)
    assert decay_weighted_sup(c, 3) == pytest.approx(1.0, rel=1e-12)


def test_weighted_sup_nested_composition(ref_grid, rng):
    time_lat = GridLattice.cubic(ref_grid, 1.0)
    freq_lat = GridLattice.cubic(ref_grid.reciprocal(), 0.5)
    nested = rng.standard_normal((freq_lat.count, time_lat.count)) + 1j * rng.standard_normal(
        (freq_lat.count, time_lat.count)
    )
    spec = lp_w(2.0, 1.0)
    inner = solid_discrete_norm(CoeffArray.over_lattice(time_lat, nested.T), spec)
    got = decay_weighted_sup(CoeffArray.over_lattice(freq_lat, inner), 2)
    w = (1.0 + np.linalg.norm(freq_lat.centered_points, axis=-1)) ** 2
    expected = max(
        w[j] * solid_discrete_norm(CoeffArray.over_lattice(time_lat, nested[j]), spec)
        for j in range(freq_lat.count)
    )
    assert got == pytest.approx(expected, rel=1e-12)


def test_embedding_chain_two_sided(ref_grid, rng):
    lat = GridLattice.cubic(ref_grid, 1.0)
    spec = lp(2)
    k1, k2 = np.inf, np.inf
    for _ in range(50):
        c = CoeffArray.over_lattice(
            lat, rng.standard_normal(lat.count) + 1j * rng.standard_normal(lat.count)
        )
        d = solid_discrete_norm(c, spec)
        k1 = min(k1, decay_weighted_sup(c, 3) / d)
        k2 = min(k2, d / growth_weighted_sup(c, 3))
    assert k1 > 0 and k2 > 0


def test_space_spec_round_trip():
    spec = SpaceSpec("MixedLp", 1.0, 2.0, PowerWeight(1.5))
    again = SpaceSpec.from_dict(spec.to_dict())
    assert again == spec
    inf_spec = SpaceSpec.from_dict({"kind": "Lp_w", "p": "inf", "tau": 0.0})
    assert math.isinf(inf_spec.p)
    with pytest.raises(ValueError):
        SpaceSpec.from_dict({"kind": "nope"})
    assert SpaceSpec.from_dict({"kind": "C0_w", "tau": 1}) == SpaceSpec("C0_w", 2.0, None,
                                                                       PowerWeight(1.0))


@pytest.mark.parametrize("data, message", [
    ({"kind": "Lp_w", "p": True}, "space.p: must be a number"),
    ({"kind": "Lp_w", "tau": False}, "space.tau: must be a finite number"),
    ({"kind": "Lp_w", "tau": math.inf}, "space.tau: must be a finite number"),
    ({"kind": "Lp_w", "p": [2.0]}, "space.p: must be a number"),
    ({"kind": "C0_w", "p": 3}, "space.p: unknown key"),
    ({"kind": "Lp_w", "p2": 7}, "space.p2: unknown key"),
    ({"kind": "FourierLp_w", "p2": 2.0}, "space.p2: unknown key"),
    (["Lp_w"], "space: must be an object"),
])
def test_space_spec_from_dict_refuses_by_key(data, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        SpaceSpec.from_dict(data)
    with pytest.raises(ValueError):
        SpaceSpec("Lp_w", 0.5)


def test_fourier_side_norm_two_dimensional():
    grid = PeriodicGrid(2, 4.0, 16)  # self-reciprocal: spacing = 1/period
    lat = GridLattice.cubic(grid, 1.0)
    rng = np.random.default_rng(5)
    c = CoeffArray.over_lattice(
        lat, rng.standard_normal(lat.count) + 1j * rng.standard_normal(lat.count)
    )
    got = fourier_side_norm(c, SpaceSpec("FourierLp_w", 2.0))
    assert got == pytest.approx(np.linalg.norm(c.values), rel=1e-10)
