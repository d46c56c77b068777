"""Batched Monte-Carlo kernels of the verification suites against the
per-sample loops they replace, and the shared system of a verify run.

The batched paths keep the arithmetic of the one-sample code, so every
comparison here is exact (``np.array_equal``), not a tolerance.
"""

import tracemalloc

import numpy as np
import pytest

import gaborgrid.gabor as gabor_module
import gaborgrid.grid as grid_module
from gaborgrid.grid import (
    GridLattice,
    GridSignal,
    PeriodicGrid,
    _superpose,
)
from gaborgrid.lattice import Lattice
from gaborgrid.smoothness import (
    _convolution_rows,
    _schwartz_rows,
    convolve_samples,
    schwartz_seminorm,
)
from gaborgrid.spaces import SpaceSpec, continuous_norm
from gaborgrid.suites import (
    SuiteConfig,
    _continuity_samples,
    _random_sequences,
    _smooth_rows,
    random_signal,
    run_embedding_chain,
    run_frame_bounds,
    run_suites,
    suite_rng,
)

from conftest import smooth_random_signal

GRIDS = {
    "1d": PeriodicGrid(1, 16.0, 256),
    "2d": PeriodicGrid(2, 8.0, 32),
}


def _continuity_oracle(rng, lattice, spec, samples, order):
    """The per-sample continuity loop through the public one-row functions and
    the one-row case of the superposition kernel."""
    grid = lattice.grid
    cs = np.empty((lattice.count, samples), dtype=complex)
    convs = np.empty((lattice.count, samples), dtype=complex)
    seminorms = np.empty(samples)
    out_norms = np.empty(samples)
    e_norms = np.empty(samples)
    for s in range(samples):
        cs[:, s] = rng.standard_normal(lattice.count) + 1j * rng.standard_normal(lattice.count)
        phi = smooth_random_signal(grid, rng)
        e = random_signal(grid, rng)
        seminorms[s] = schwartz_seminorm(phi, order)
        superposed = _superpose(lattice, cs[None, :, s], np.fft.fftn(phi.reshaped()))[0]
        out_norms[s] = continuous_norm(GridSignal(grid, superposed), spec)
        convs[:, s] = convolve_samples(e, phi, lattice).values
        e_norms[s] = continuous_norm(e, spec)
    return cs, convs, seminorms, out_norms, e_norms


@pytest.mark.parametrize("rows", [None, 3], ids=["default-budget", "3-row-blocks"])
@pytest.mark.parametrize("name, samples", [("1d", 40), ("2d", 20)])
def test_continuity_samples_match_per_sample_loop(name, samples, rows, monkeypatch):
    grid = GRIDS[name]
    if rows is not None:
        monkeypatch.setattr(grid_module, "_BATCH_BYTES", 16 * grid.size * rows)
    # Both budgets leave a partial last block.
    assert samples % grid_module._block_rows(grid.size) != 0
    lattice = GridLattice.cubic(grid, 1.0)
    spec = SpaceSpec("Lp_w", 2.0)
    rng = np.random.default_rng(5)
    got = _continuity_samples(rng, lattice, spec, samples, 4)
    ref_rng = np.random.default_rng(5)
    expected = _continuity_oracle(ref_rng, lattice, spec, samples, 4)
    for label, a, b in zip(("c", "convolutions", "seminorms", "superposition norms",
                            "e norms"), got, expected):
        assert np.array_equal(a, b), label
    assert rng.standard_normal() == ref_rng.standard_normal()


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_smooth_and_schwartz_rows_match_one_row_functions(name):
    grid = GRIDS[name]
    rows = _smooth_rows(grid, np.random.default_rng(2).standard_normal((3, 2, grid.size)))
    one_rng = np.random.default_rng(2)
    signals = [smooth_random_signal(grid, one_rng) for _ in range(3)]
    assert np.array_equal(rows, np.stack([f.values for f in signals]))
    spectra = np.fft.fftn(rows.reshape((3,) + grid.shape), axes=tuple(range(1, grid.dim + 1)))
    for order in (0, 2, 4):
        got = _schwartz_rows(grid, rows, spectra, order)
        assert np.array_equal(got, [schwartz_seminorm(f, order) for f in signals])


@pytest.mark.parametrize("name, generator", [
    ("1d", [[2.0]]),
    ("2d", [[1.0, 0.0], [0.0, 1.0]]),
    ("2d", [[1.0, 0.5], [0.0, 1.0]]),
], ids=["1d", "2d-separable", "2d-sheared"])
def test_convolution_rows_match_one_row_function(name, generator):
    grid = GRIDS[name]
    lattice = GridLattice(Lattice(np.array(generator)), grid)
    rng = np.random.default_rng(9)
    es = [random_signal(grid, rng) for _ in range(3)]
    phis = [random_signal(grid, rng) for _ in range(3)]
    axes = tuple(range(1, grid.dim + 1))

    def spectra(signals):
        return np.fft.fftn(np.stack([f.reshaped() for f in signals]), axes=axes)

    got = _convolution_rows(lattice, spectra(es), spectra(phis))
    expected = [convolve_samples(e, phi, lattice).values for e, phi in zip(es, phis)]
    assert np.array_equal(got, np.stack(expected))


def test_random_sequences_match_column_draws():
    lattice = GridLattice.cubic(GRIDS["1d"], 1.0)
    rng = np.random.default_rng(13)
    got = _random_sequences(rng, lattice, 7).values
    ref_rng = np.random.default_rng(13)
    expected = np.empty((lattice.count, 7), dtype=complex)
    for s in range(7):
        expected[:, s] = (ref_rng.standard_normal(lattice.count)
                          + 1j * ref_rng.standard_normal(lattice.count))
    assert np.array_equal(got, expected)
    assert np.array_equal(rng.standard_normal(4), ref_rng.standard_normal(4))


def test_embedding_chain_memory_is_bounded():
    # The continuity family of the resolved 2-D grid (4096 nodes, 100
    # samples) runs in blocks; one unblocked 100-row complex table alone
    # would take 6.5 MB.
    cfg = SuiteConfig.from_dict({"grid": {"dim": 2, "period": 8.0, "points_per_axis": 64}})
    system = cfg.make_system()
    tracemalloc.start()
    try:
        entries = run_embedding_chain(cfg, system, suite_rng(cfg.seed, "embedding-chain"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(e["passed"] for e in entries)
    assert peak < 4 * 2 ** 20


def test_one_system_per_verify_run(monkeypatch):
    # The frame-bounds, reconstruction and wexler-raz suites share one
    # system, so its Zak fibers are built once.  The other seven builds are
    # the undersampled, small dense-oracle and painless systems of
    # frame-bounds, the synthesis systems of the dual and of the doubled dual
    # in reconstruction, and the adjoint-lattice systems ``adj`` and
    # ``adj_dual`` of wexler-raz.  Only the undersampled fibers (4 x 1) and
    # the dense oracle need eigvalsh; the others have one row or no bounds.
    eigvalsh = np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: calls.append(a.shape) or eigvalsh(a))
    zak_fibers = gabor_module._zak_fibers
    builds = []

    def counted(system):
        if getattr(system, "_op_fibers", None) is None:
            builds.append(system)
        return zak_fibers(system)

    monkeypatch.setattr(gabor_module, "_zak_fibers", counted)
    cfg = SuiteConfig.from_dict({
        "seed": 11,
        "grid": {"dim": 2, "period": 8.0, "points_per_axis": 32},
        "samples": {"ratio_scan": 50, "reconstruction": 12, "continuity": 25},
    })
    run_suites(cfg)
    assert len(builds) == len({id(s) for s in builds}) == 8
    assert calls == [(16, 16, 4, 4), (144, 144)]


def test_one_dual_solve_per_verify_run(monkeypatch):
    # The reconstruction and wexler-raz suites take the dual cached on the
    # shared system, so its Zak fibers are solved once.  Other solves (the
    # painless system of frame-bounds, lattice coordinates in the Fourier-side
    # norms) are not on these fibers.
    systems = []
    make_system = SuiteConfig.make_system
    monkeypatch.setattr(SuiteConfig, "make_system",
                        lambda cfg: systems.append(make_system(cfg)) or systems[-1])
    solve = np.linalg.solve
    rhs = []
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: rhs.append(b) or solve(a, b))
    cfg = SuiteConfig.from_dict({
        "seed": 11,
        "grid": {"dim": 2, "period": 8.0, "points_per_axis": 32},
        "samples": {"ratio_scan": 50, "reconstruction": 12, "continuity": 25},
    })
    run_suites(cfg)
    [system] = systems
    phi = gabor_module._zak_fibers(system)[0]
    assert sum(np.shares_memory(b, phi) for b in rhs) == 1


@pytest.mark.parametrize("freq_step, redundancy", [(0.5, 0.5), (0.1875, 0.25)])
def test_undersampled_check_scales_to_redundancy_below_one(freq_step, redundancy):
    # Bin step 3 is coprime to L = 256, so F covers every bin: the system has
    # redundancy 16, and doubling both steps leaves a frame of redundancy 4.
    cfg = SuiteConfig.from_dict({"system": {"freq_step": freq_step}})
    system = cfg.make_system()
    entries = run_frame_bounds(cfg, system, suite_rng(cfg.seed, "frame-bounds"))
    (entry,) = [e for e in entries if e["name"] == "undersampled_lower_bound"]
    assert entry["passed"]
    assert entry["value"] == 0.0
    assert entry["details"] == {"redundancy": redundancy}


@pytest.mark.parametrize("grid, system", [
    # Odd L: no doubling changes a lattice count, redundancy 9 stays.
    ({"period": 9.0, "points_per_axis": 81}, {"time_step": 1.0, "freq_step": 1 / 9}),
    # L = 90 holds one factor 2, which step indices 6 and 10 already hold:
    # redundancy 1.5 stays.
    ({"period": 15.0, "points_per_axis": 90}, {"time_step": 1.0, "freq_step": 2 / 3}),
], ids=["L81", "L90"])
def test_undersampled_search_stops_when_doubling_keeps_a_frame(grid, system):
    # Then both steps become the full period: one time-frequency shift.
    cfg = SuiteConfig.from_dict({"grid": grid, "system": system})
    cfg.validate()
    entries = run_frame_bounds(cfg, cfg.make_system(),
                               suite_rng(cfg.seed, "frame-bounds"))
    (entry,) = [e for e in entries if e["name"] == "undersampled_lower_bound"]
    assert entry["passed"]
    assert entry["value"] == 0.0
    assert entry["details"] == {"redundancy": 1 / grid["points_per_axis"]}


def test_non_frame_reports_no_condition_number():
    # Redundancy 1/2: the lower frame bound is 0, so the condition number
    # would be B / 1e-300.  The not-a-frame entry stands in its place.
    cfg = SuiteConfig.from_dict({"system": {"time_step": 2.0, "freq_step": 1.0}})
    entries = run_frame_bounds(cfg, cfg.make_system(), suite_rng(cfg.seed, "frame-bounds"))
    by_name = {entry["name"]: entry for entry in entries}
    assert "condition_number" not in by_name
    assert not by_name["lower_bound_positive"]["passed"]
    frame = by_name["frame"]
    assert not frame["passed"]
    assert frame["value"] == by_name["lower_bound_positive"]["value"]
    assert frame["details"]["redundancy"] == 0.5
    assert all(abs(entry["value"]) < 1e3 for entry in entries)


def test_frame_reports_its_condition_number():
    cfg = SuiteConfig.from_dict({})
    entries = run_frame_bounds(cfg, cfg.make_system(), suite_rng(cfg.seed, "frame-bounds"))
    (entry,) = [e for e in entries if e["name"] == "condition_number"]
    assert entry["passed"] and 1.0 <= entry["value"] < 10.0
    assert "frame" not in {e["name"] for e in entries}
