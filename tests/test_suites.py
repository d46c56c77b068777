"""The verification suites: batched kernels against the per-sample loops
they replace, the closed-form constants and enclosures of the
embedding-chain and window-independence suites against Monte-Carlo scans
and dense SVDs, and the shared system of a verify run.  The tests draw
with ``numpy.random``; the package draws nothing.

The batched paths keep the arithmetic of the one-sample code, so those
comparisons are exact (``np.array_equal``), not a tolerance.
"""

import dataclasses
import functools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gaborgrid.grid as grid_module
import gaborgrid.smoothness as smoothness_module
import gaborgrid.suites as suites_module
from gaborgrid.formats import dump_json
from gaborgrid.gabor import GaborSystem, _analysis, _synthesis, analyze, dual_window
from gaborgrid.grid import (
    CoeffArray,
    GridLattice,
    GridSignal,
    PeriodicGrid,
    _flat_index,
    _lattice_fold,
    _superpose,
    sample_bump,
    sample_gaussian,
    sample_oscillation,
)
from gaborgrid.lattice import Lattice, PowerWeight
from gaborgrid.smoothness import (
    MAX_DERIVATIVE_ORDER,
    DecayProfile,
    _convolution_rows,
    _decay_profiles,
    _schwartz_rows,
    decay_profile,
)
from gaborgrid.spaces import (
    SpaceSpec,
    continuous_norm,
    decay_weighted_sup,
    discrete_norm,
    growth_weighted_sup,
    solid_discrete_norm,
)
from gaborgrid.suites import (
    _PHI_WIDTHS,
    SuiteConfig,
    _continuity_bound,
    _superposition_norms,
    run_embedding_chain,
    run_frame_bounds,
    run_growth,
    run_suites,
    run_window_independence,
)

from conftest import (
    convolve_samples,
    count_fft_calls,
    random_signal,
    schwartz_seminorm,
    smooth_random_signal,
)

GRIDS = {
    "1d": PeriodicGrid(1, 16.0, 256),
    "2d": PeriodicGrid(2, 8.0, 32),
}


def _random_sequences(rng, lattice, samples):
    """``samples`` random complex sequences over the lattice, one per column."""
    shape = (lattice.count, samples)
    return CoeffArray.over_lattice(lattice, rng.standard_normal(shape)
                                   + 1j * rng.standard_normal(shape))


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_smooth_and_schwartz_rows_match_one_row_functions(name):
    grid = GRIDS[name]
    rng = np.random.default_rng(2)
    signals = [smooth_random_signal(grid, rng) for _ in range(3)]
    rows = np.stack([f.values for f in signals])
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


def test_verify_does_not_import_numpy_random(tmp_path):
    # A fresh interpreter: this one has loaded numpy.random already.  The
    # tiny 2-D config of the benchmark, every suite.
    cfg = tmp_path / "config.json"
    cfg.write_text(dump_json({
        "seed": 3, "grid": {"dim": 2, "period": 4.0, "points_per_axis": 16},
        "samples": {"ratio_scan": 4, "reconstruction": 3, "continuity": 4}}))
    script = ("import sys; from gaborgrid.cli import main; "
              f"code = main(['verify', '--config', {str(cfg)!r}, "
              f"'--output', {str(tmp_path / 'report.json')!r}]); "
              "print(code, 'numpy.random' in sys.modules)")
    src = str(Path(suites_module.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_embedding_chain_memory_is_bounded():
    # The four Gaussian witnesses of the resolved 2-D grid (4096 nodes) and
    # their derivative blocks; a 100-row complex table would take 6.5 MB.
    cfg = SuiteConfig.from_dict({"grid": {"dim": 2, "period": 8.0, "points_per_axis": 64}})
    system = cfg.make_system()
    tracemalloc.start()
    try:
        entries = run_embedding_chain(cfg, system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(e["passed"] for e in entries)
    assert peak < 4 * 2 ** 20


def test_one_system_per_verify_run(monkeypatch):
    # The frame-bounds, reconstruction and wexler-raz suites share one
    # system, so its Zak fibers are built once.  The other two builds are
    # the synthesis systems of the dual and of the doubled dual in
    # reconstruction; frame-bounds and wexler-raz build none.  No entry
    # needs eigvalsh: the fibers have one row.
    eigvalsh = np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: calls.append(a.shape) or eigvalsh(a))
    fibers = GaborSystem._fibers.func
    builds = []

    def counted(system):
        builds.append(system)
        return fibers(system)

    counting = functools.cached_property(counted)
    counting.__set_name__(GaborSystem, "_fibers")
    monkeypatch.setattr(GaborSystem, "_fibers", counting)
    cfg = SuiteConfig.from_dict(BENCH_CONFIGS["2d"])
    run_suites(cfg)
    assert len(builds) == len({id(s) for s in builds}) == 3
    assert calls == []


def test_one_dual_solve_per_verify_run(monkeypatch):
    # The reconstruction and wexler-raz suites take the dual cached on the
    # shared system, so its Zak fibers are solved once.  Other solves
    # (lattice coordinates in the Fourier-side norms) are not on these
    # fibers.
    systems = []
    make_system = SuiteConfig.make_system
    monkeypatch.setattr(SuiteConfig, "make_system",
                        lambda cfg: systems.append(make_system(cfg)) or systems[-1])
    solve = np.linalg.solve
    rhs = []
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: rhs.append(b) or solve(a, b))
    cfg = SuiteConfig.from_dict(BENCH_CONFIGS["2d"])
    run_suites(cfg)
    [system] = systems
    phi = system._fibers[0]
    assert sum(np.shares_memory(b, phi) for b in rhs) == 1


# The grids of the 1-D and 2-D bench configs, with the default system.
BENCH_CONFIGS = {
    "1d": {},
    "2d": {"grid": {"dim": 2, "period": 8.0, "points_per_axis": 32}},
}


def _forbidden(*args):
    """Stands in for a function the code under test must not call."""
    raise AssertionError("called a forbidden function")


def _entry(entries, name):
    [entry] = [e for e in entries if e["name"] == name]
    return entry


@pytest.mark.parametrize("config", sorted(BENCH_CONFIGS))
@pytest.mark.parametrize("suite", ["reconstruction", "wexler-raz"])
def test_exact_suites_draw_nothing(suite, config, monkeypatch):
    cfg = SuiteConfig.from_dict(BENCH_CONFIGS[config])
    system = cfg.make_system()
    counts = count_fft_calls(monkeypatch)
    entries = suites_module.SUITES[suite](cfg, system)
    assert all(e["passed"] for e in entries)
    if suite == "reconstruction":
        # The window's round trip through the doubled dual, and nothing else.
        assert counts == {"fftn": 1, "ifftn": 1}
        assert _entry(entries, "max_relative_error")["details"]["method"] == "fiber-enclosure"
    else:
        # One adjoint-lattice STFT serves both entries.
        assert counts == {"fftn": 1}
        assert _entry(entries, "adjoint_identity_defect")["details"] == {"method": "unit-sequence"}


def _grid_norm(lattice, c, spectrum, spec):
    """One witness alone: the superposition of the one row c and its norm,
    as the suites evaluated each witness before they stacked them."""
    f = GridSignal(lattice.grid, _superpose(lattice, c[None], spectrum)[0])
    return continuous_norm(f, spec)


def _counted_superpose(monkeypatch):
    """Record the coefficient shape of every suite ``_superpose`` call."""
    shapes = []
    superpose = suites_module._superpose
    monkeypatch.setattr(suites_module, "_superpose",
                        lambda lat, c, s: shapes.append(c.shape) or superpose(lat, c, s))
    return shapes


@pytest.mark.parametrize("config", sorted(BENCH_CONFIGS))
def test_stacked_witness_norms_match_one_row_norms(config):
    # Random stacks on the bench lattices, under one window spectrum and
    # under one per row, in every Lp_w space the suites norm witnesses in.
    system = SuiteConfig.from_dict(BENCH_CONFIGS[config]).make_system()
    grid, lattice = system.grid, system.time_lattice
    rng = np.random.default_rng(4)
    coeffs = rng.standard_normal((4, lattice.count)) + 1j * rng.standard_normal((4, lattice.count))
    spectra = np.fft.fftn(np.stack([random_signal(grid, rng).reshaped() for _ in range(4)]),
                          axes=tuple(range(1, grid.dim + 1)))
    for p in (1.0, 2.0, 4.0):
        for tau in (0.0, 2.0):
            spec = SpaceSpec("Lp_w", p, weight=PowerWeight(tau))
            shared = suites_module._grid_norms(_superpose(lattice, coeffs, spectra[0]), grid, spec)
            assert np.array_equal(shared, [_grid_norm(lattice, c, spectra[0], spec)
                                           for c in coeffs])
            own = suites_module._grid_norms(_superpose(lattice, coeffs, spectra), grid, spec)
            assert np.array_equal(own, [_grid_norm(lattice, c, spectrum, spec)
                                        for c, spectrum in zip(coeffs, spectra)])


@pytest.mark.parametrize("config", sorted(BENCH_CONFIGS))
def test_k_witnesses_attain_their_one_row_norms(config):
    cfg = SuiteConfig.from_dict(BENCH_CONFIGS[config])
    system = cfg.make_system()
    grid, lattice = system.grid, system.time_lattice
    hat1, hat2 = (np.fft.fftn(sample_bump(grid, radius=r * cfg.lattice_step).reshaped())
                  for r in (0.3, 0.45))
    entries = [e for e in run_window_independence(cfg, system)
               if e["name"].startswith("K_attained")]
    assert len(entries) == 6
    for entry in entries:
        p, tau = re.fullmatch(r"K_attained_L(.+)_tau(.+)", entry["name"]).groups()
        spec = SpaceSpec("Lp_w", float(p), weight=PowerWeight(float(tau)))
        e = (np.arange(lattice.count) == entry["details"]["witness_k"]).astype(float)
        r = _grid_norm(lattice, e, hat1, spec) / _grid_norm(lattice, e, hat2, spec)
        assert entry["details"]["attained"] == max(r, 1.0 / r)


@pytest.mark.parametrize("config", sorted(BENCH_CONFIGS))
def test_embedding_chain_witnesses_attain_their_one_row_norms(config):
    cfg = SuiteConfig.from_dict(BENCH_CONFIGS[config])
    system = cfg.make_system()
    grid, lattice = system.grid, system.time_lattice
    axes = tuple(range(1, grid.dim + 1))
    spec = SpaceSpec("Lp_w", 2.0)
    entries = {e["name"]: e for e in run_embedding_chain(cfg, system)}
    chi_hat = np.fft.fftn(sample_bump(grid, radius=0.45 * cfg.lattice_step).reshaped())
    c1 = 1.0 / PowerWeight(3.0)(lattice.centered_points)
    c2 = (np.arange(lattice.count) == entries["kappa2_positive"]["details"]["witness_k"]
          ).astype(float)
    assert entries["kappa1_attained"]["details"]["attained"] == (
        decay_weighted_sup(CoeffArray.over_lattice(lattice, c1), 3)
        / _grid_norm(lattice, c1, chi_hat, spec))
    assert entries["kappa2_attained"]["details"]["attained"] == (
        _grid_norm(lattice, c2, chi_hat, spec)
        / growth_weighted_sup(CoeffArray.over_lattice(lattice, c2), 3))
    details = entries["superposition_attained"]["details"]
    phi = np.stack([sample_gaussian(grid, width=width).values for width in _PHI_WIDTHS])
    phi_hat = np.fft.fftn(phi.reshape((-1,) + grid.shape), axes=axes)[
        _PHI_WIDTHS.index(details["witness_width"])]
    L = grid.points_per_axis
    c = np.exp(2j * np.pi * (lattice.index_points @ np.array(details["residue"]) % L) / L)
    assert details["attained"] == (_grid_norm(lattice, c, phi_hat, spec)
                                   / _grid_norm(lattice, c, chi_hat, spec))
    e = _superpose(lattice, c[None], np.conj(phi_hat))
    conv = _convolution_rows(lattice, np.fft.fftn(e.reshape((1,) + grid.shape), axes=axes),
                             phi_hat[None])[0]
    assert entries["convolution_attained"]["details"]["attained"] == (
        _grid_norm(lattice, conv, chi_hat, spec) / continuous_norm(GridSignal(grid, e[0]), spec))


@pytest.mark.parametrize("config", sorted(BENCH_CONFIGS))
def test_batched_decay_profiles_match_one_row_profiles(config):
    system = SuiteConfig.from_dict(BENCH_CONFIGS[config]).make_system()
    grid = system.grid
    rows = np.stack([sample_gaussian(grid, width=math.sqrt(2.0), normalize=True).values,
                     sample_oscillation(grid, 4.0).values,
                     random_signal(grid, np.random.default_rng(6)).values])
    specs = [SpaceSpec("Lp_w", 1.0, weight=PowerWeight(3.0)), SpaceSpec("C0_w")]
    if grid.dim == 2:
        specs.append(SpaceSpec("MixedLp", 2.0, 1.0))
    for spec in specs:
        profiles = _decay_profiles(system, rows, spec)
        assert len(profiles) == len(rows)
        for row, profile in zip(rows, profiles):
            f = GridSignal(grid, row)
            one = decay_profile(system, f, spec)
            for field in dataclasses.fields(DecayProfile):
                assert np.array_equal(getattr(profile, field.name), getattr(one, field.name))
            # The analysis of the row alone, normed one frequency column at a time.
            alone = CoeffArray.over_lattice(system.time_lattice, analyze(system, f).values)
            assert np.array_equal(profile.slice_norms, solid_discrete_norm(alone, spec))


# FFT calls per suite on a fresh bench system, pinned where stacking the
# witnesses lowered them; the counts before are those of one kernel call per
# witness or signal.
@pytest.mark.parametrize("config, ffts", [("1d", 18), ("2d", 6)])
def test_window_independence_superposes_one_stack_per_window(config, ffts, monkeypatch):
    # Was 38 (1-D) and 26 (2-D): an FFT pair per witness and window.  The
    # 1-D count holds the 12 of the Fourier-side entries.
    cfg = SuiteConfig.from_dict(BENCH_CONFIGS[config])
    system = cfg.make_system()
    shapes = _counted_superpose(monkeypatch)
    counts = count_fft_calls(monkeypatch)
    run_window_independence(cfg, system)
    assert shapes == [(6, system.time_lattice.count)] * 2
    assert sum(counts.values()) == ffts


@pytest.mark.parametrize("config, ffts", [("1d", 12), ("2d", 27)])
def test_embedding_chain_superposes_one_stack_per_window(config, ffts, monkeypatch):
    # Was 20 (1-D) and 35 (2-D): an FFT pair per witness.
    cfg = SuiteConfig.from_dict(BENCH_CONFIGS[config])
    system = cfg.make_system()
    shapes = _counted_superpose(monkeypatch)
    counts = count_fft_calls(monkeypatch)
    run_embedding_chain(cfg, system)
    count = system.time_lattice.count
    assert shapes == [(2, count), (4, count)]
    assert sum(counts.values()) == ffts


@pytest.mark.parametrize("config", sorted(BENCH_CONFIGS))
def test_growth_profiles_its_signals_in_one_analysis(config, monkeypatch):
    # Was three analyses, one per signal.
    cfg = SuiteConfig.from_dict(BENCH_CONFIGS[config])
    system = cfg.make_system()
    analysis = smoothness_module._analysis
    calls = []
    monkeypatch.setattr(smoothness_module, "_analysis",
                        lambda system, rows: calls.append(rows.shape) or analysis(system, rows))
    counts = count_fft_calls(monkeypatch)
    run_growth(cfg, system)
    assert calls == [(3, system.grid.size)]
    assert counts == {"fftn": 1}


def test_a_verify_run_makes_at_most_45_ffts(monkeypatch):
    # Was 69 on the 1-D bench config.
    counts = count_fft_calls(monkeypatch)
    run_suites(SuiteConfig.from_dict(BENCH_CONFIGS["1d"]))
    assert sum(counts.values()) <= 45


@pytest.mark.parametrize("config", sorted(BENCH_CONFIGS))
def test_a_scaled_dual_fails_the_exact_entries(config, monkeypatch):
    dual_window = suites_module.dual_window
    monkeypatch.setattr(suites_module, "dual_window",
                        lambda system: dual_window(system) * (1 + 1e-6))
    cfg = SuiteConfig.from_dict(BENCH_CONFIGS[config])
    system = cfg.make_system()
    reconstruction = suites_module.run_reconstruction(cfg, system)
    wexler_raz = suites_module.run_wexler_raz(cfg, system)
    entry = _entry(reconstruction, "max_relative_error")
    assert not entry["passed"]
    # The exact error is 1e-6 on every fiber, inside the enclosure.
    assert entry["details"]["lower"] <= 1e-6 <= entry["details"]["upper"]
    # Both Wexler-Raz entries read one defect array, and each fails.
    assert not _entry(wexler_raz, "adjoint_identity_defect")["passed"]
    assert not _entry(wexler_raz, "residual")["passed"]


@pytest.mark.parametrize("perturbed", [False, True], ids=["canonical", "perturbed"])
def test_adjoint_identity_defect_is_the_dense_max_row_sum(perturbed, monkeypatch):
    # M = redundancy C_adj D_adj - I from all unit sequences, on the 1-D
    # bench system; its max row sum is the sup over c of ||M c||_inf / ||c||_inf.
    cfg = SuiteConfig.from_dict(BENCH_CONFIGS["1d"])
    system = cfg.make_system()
    grid = system.grid
    gamma = dual_window(system)
    if perturbed:
        rng = np.random.default_rng(5)
        noise = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        gamma = GridSignal(grid, gamma.values + 1e-3 * np.max(np.abs(gamma.values)) * noise)
        monkeypatch.setattr(suites_module, "dual_window", lambda system: gamma)
    adj_time, adj_freq = system._adjoint
    n = adj_time.count * adj_freq.count
    units = np.eye(n, dtype=complex).reshape(n, adj_time.count, adj_freq.count)
    columns = _analysis(GaborSystem(system.window, adj_time, adj_freq),
                        _synthesis(GaborSystem(gamma, adj_time, adj_freq), units))
    m = columns.reshape(n, n) * system.redundancy - np.eye(n)
    dense = float(np.max(np.sum(np.abs(m), axis=0)))
    value = _entry(suites_module.run_wexler_raz(cfg, system),
                   "adjoint_identity_defect")["value"]
    if perturbed:
        assert value == pytest.approx(dense, rel=1e-10)
    else:
        # Rounding alone: the rows differ at rounding, so only their size agrees.
        assert dense <= 1e-13 and dense / 2 <= value <= 2 * dense


@pytest.mark.parametrize("window", ["gaussian", "rectangle"])
@pytest.mark.parametrize("step, same", [(3.0, 1.0), (0.75, 0.25)])
def test_a_time_step_is_read_as_the_lattice_it_generates(step, same, window):
    # 3Z on a 16-periodic grid of 256 points is Z: index step 48, whose gcd
    # with 256 is 16; 0.75 generates 0.25Z the same way.  Every suite, and a
    # rectangle's default width, reads the step of that lattice.
    reports = [run_suites(SuiteConfig.from_dict(
        {"system": {"time_step": s, "window": {"kind": window}}})) for s in (step, same)]
    assert dump_json(reports[0]) == dump_json(reports[1])


def test_non_frame_reports_no_condition_number():
    # Redundancy 1/2: the lower frame bound is 0, so the condition number
    # would be B / 1e-300.  The not-a-frame entry stands in its place.
    cfg = SuiteConfig.from_dict({"system": {"time_step": 2.0, "freq_step": 1.0}})
    entries = run_frame_bounds(cfg, cfg.make_system())
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
    entries = run_frame_bounds(cfg, cfg.make_system())
    (entry,) = [e for e in entries if e["name"] == "condition_number"]
    assert entry["passed"] and 1.0 <= entry["value"] < 10.0
    assert "frame" not in {e["name"] for e in entries}


def test_frame_bounds_builds_no_system_of_its_own(monkeypatch):
    # Every entry is about the configured system: no other system is built,
    # no dense eigenproblem is solved and no dual window is computed.
    cfg = SuiteConfig.from_dict(BENCH_CONFIGS["2d"])
    system = cfg.make_system()
    built = []
    init = GaborSystem.__init__
    monkeypatch.setattr(GaborSystem, "__init__",
                        lambda self, *args, **kwargs: built.append(args)
                        or init(self, *args, **kwargs))
    eigvalsh = np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    monkeypatch.setattr(suites_module, "dual_window", _forbidden)
    entries = run_frame_bounds(cfg, system)
    assert built == [] and calls == []
    assert [e["name"] for e in entries] == ["lower_bound_positive", "condition_number"]
    assert all(e["passed"] for e in entries)


def test_frame_bounds_measures_the_configured_system_alone_on_a_large_grid():
    # At 128^2 only the configured system's fibers take memory (a 4.4 MB peak).
    cfg = SuiteConfig.from_dict({"grid": {"dim": 2, "period": 8.0, "points_per_axis": 128}})
    system = cfg.make_system()
    tracemalloc.start()
    try:
        entries = run_frame_bounds(cfg, system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(e["passed"] for e in entries)
    assert peak < 16 * 2 ** 20


def test_an_off_grid_dual_lattice_is_a_diagnostic_not_a_gap():
    # Time step 8 on a 16-periodic grid of 64 points: the dual lattice
    # (1/8)Z is finer than the grid spacing 1/4, so the three Fourier
    # entries cannot be computed, and one report entry says why.
    cfg = SuiteConfig.from_dict({"grid": {"period": 16.0, "points_per_axis": 64},
                                 "system": {"time_step": 8.0}})
    cfg.validate()
    entries = run_window_independence(cfg, cfg.make_system())
    assert len(entries) == 11
    fourier = [e for e in entries if e["name"].startswith("fourier")]
    assert fourier == [suites_module.check(
        "window-independence", "fourier_entries_skipped", 3, None, "report",
        details={"reason": "NonAlignedLattice: generator columns are not multiples "
                           "of spacing 0.25"})]


# Closed-form constants of embedding-chain and window-independence ----------

# The verify configs of the benchmark: the 1-D default and the 2-D 32^2 grid.
CONFIGS = {
    "1d": {},
    "2d": {"grid": {"dim": 2, "period": 8.0, "points_per_axis": 32}},
}


def _by_name(entries):
    return {entry["name"]: entry for entry in entries}


def _constant_entries(cfg):
    system = cfg.make_system()
    return _by_name(
        run_embedding_chain(cfg, system) + run_window_independence(cfg, system))


def _l2(rows, grid):
    return np.sqrt(grid.spacing ** grid.dim * np.sum(np.abs(rows) ** 2, axis=-1))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_closed_forms_bound_monte_carlo_scans(name):
    # An exact infimum is at most every sampled ratio, an exact supremum at
    # least every one.
    cfg = SuiteConfig.from_dict(CONFIGS[name])
    entries = _constant_entries(cfg)
    grid = cfg.make_grid()
    lattice = GridLattice.cubic(grid, cfg.time_step)
    chi1 = sample_bump(grid, radius=0.3)
    chi2 = sample_bump(grid, radius=0.45)
    c = _random_sequences(np.random.default_rng(3), lattice, 400)
    spec = SpaceSpec("Lp_w", 2.0)
    d = discrete_norm(c, spec, chi2)
    assert np.all(decay_weighted_sup(c, 3) / d >= entries["kappa1_positive"]["value"])
    assert np.all(d / growth_weighted_sup(c, 3) >= entries["kappa2_positive"]["value"])
    for p in (1.0, 2.0, 4.0):
        for tau in (0.0, 2.0):
            spec_k = SpaceSpec("Lp_w", p, weight=PowerWeight(tau))
            r = discrete_norm(c, spec_k, chi1) / discrete_norm(c, spec_k, chi2)
            band = entries[f"K_attained_L{p:g}_tau{tau:g}"]["details"]["K"]
            # At tau = 0 every sequence attains K, up to rounding.
            assert np.all(np.maximum(r, 1.0 / r) <= band * (1 + 1e-12))
    spec_w = SpaceSpec("Lp_w", 2.0, weight=PowerWeight(2.0))
    weighted = entries["solid_shortcut_weighted_band"]["details"]
    ratios = discrete_norm(c, spec_w, chi2) / solid_discrete_norm(c, spec_w)
    assert np.all((weighted["low"] <= ratios) & (ratios <= weighted["high"]))

    # Per phi, the sampled superposition and convolution ratios against the
    # closed forms ||S_phi|| / p and h^n p ||S_phi||.
    rng = np.random.default_rng(4)
    p = continuous_norm(chi2, spec) / grid.spacing ** (grid.dim / 2)
    axes = tuple(range(1, grid.dim + 1))
    for _ in range(3):
        phi = smooth_random_signal(grid, rng)
        phi_hat = np.fft.fftn(phi.reshaped())
        norm = _superposition_norms(lattice, phi_hat[None])[0][0]
        out = grid_module._superpose(lattice, c.values.T, phi_hat)
        assert np.all(_l2(out, grid) / d <= norm / p * (1 + 1e-12))
        e = np.stack([random_signal(grid, rng).values for _ in range(50)])
        conv = _convolution_rows(lattice, np.fft.fftn(e.reshape((50,) + grid.shape), axes=axes),
                                 phi_hat[None])
        conv_norms = discrete_norm(CoeffArray.over_lattice(lattice, conv.T), spec, chi2)
        assert np.all(conv_norms / _l2(e, grid) <= grid.spacing ** grid.dim * p * norm
                      * (1 + 1e-12))


@pytest.mark.parametrize("grid", [
    PeriodicGrid(1, 16.0, 256), PeriodicGrid(2, 4.0, 16), PeriodicGrid(2, 8.0, 32),
], ids=["1d-256", "2d-16", "2d-32"])
def test_fold_constants_match_dense_svd(grid):
    lattice = GridLattice.cubic(grid, 1.0)
    phi = smooth_random_signal(grid, np.random.default_rng(6))
    norm = _superposition_norms(lattice, np.fft.fftn(phi.reshaped())[None])[0][0]
    # Entry (t, k) of the superposition is phi(t - x_k); entry (k, t) of the
    # sampled convolution is h^n phi(x_k - t).
    nodes = grid.index_vectors()
    points = lattice.index_points
    superposition = phi.values[_flat_index(grid, nodes[:, None, :] - points[None, :, :])]
    convolution = (grid.spacing ** grid.dim
                   * phi.values[_flat_index(grid, points[:, None, :] - nodes[None, :, :])])
    assert norm == pytest.approx(np.linalg.norm(superposition, 2), rel=1e-12)
    assert grid.spacing ** grid.dim * norm == pytest.approx(np.linalg.norm(convolution, 2),
                                                            rel=1e-12)
    # In the suite's norms, the convolution's sup over e is the
    # superposition's sup over c times the window constant ||chi||^2.
    chi = sample_bump(grid, radius=0.45)
    spec = SpaceSpec("Lp_w", 2.0)
    p = continuous_norm(chi, spec) / grid.spacing ** (grid.dim / 2)
    conv_sup = p * np.linalg.norm(convolution, 2)
    sup = np.linalg.norm(superposition, 2) / p
    assert conv_sup == pytest.approx(sup * continuous_norm(chi, spec) ** 2, rel=1e-12)


# kappa1, kappa2 and K at p = 1, tau = 2, from a separate prototype of the
# closed forms.
CLOSED_FORMS = {"1d": (4.0175, 0.24470, 1.6496), "2d": (6.1975, 0.15381, 3.9296)}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_reported_constants_are_consistent(name):
    cfg = SuiteConfig.from_dict(CONFIGS[name])
    entries = _constant_entries(cfg)
    got = (entries["kappa1_positive"]["value"], entries["kappa2_positive"]["value"],
           entries["K_attained_L1_tau2"]["details"]["K"])
    assert got == pytest.approx(CLOSED_FORMS[name], rel=1e-4)
    grid = cfg.make_grid()
    chi = sample_bump(grid, radius=0.45)
    conv, sup = entries["convolution_attained"], entries["superposition_attained"]
    for end in ("lower", "upper"):
        assert (conv["details"][end] / sup["details"][end]
                == pytest.approx(continuous_norm(chi, SpaceSpec("Lp_w", 2.0)) ** 2, rel=1e-13))
    assert sup["details"]["lower"] < sup["details"]["upper"]
    assert sup["details"]["method"] == "enclosure"
    for entry in entries.values():
        if "attained" in entry["name"]:
            assert entry["passed"] and 0.0 <= entry["value"] <= 1e-12, entry["name"]
    assert entries["kappa1_positive"]["details"]["method"] == "closed-form"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_a_wrong_profile_fails_every_attained_check(name, monkeypatch):
    profile = suites_module._solid_profile
    monkeypatch.setattr(suites_module, "_solid_profile",
                        lambda window, lat, spec: (profile(window, lat, spec)[0] ** 1.01, None))
    entries = _constant_entries(SuiteConfig.from_dict(CONFIGS[name]))
    attained = [e for e in entries.values() if "attained" in e["name"]]
    assert len(attained) == 10
    assert not any(e["passed"] for e in attained)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_a_wrong_fold_fails_the_continuity_checks(name, monkeypatch):
    # Folding onto the residues of the doubled lattice adds bins that the
    # lattice's own plane waves do not reach.
    monkeypatch.setattr(suites_module, "_lattice_fold",
                        lambda points, L: _lattice_fold(2 * points, L))
    entries = _constant_entries(SuiteConfig.from_dict(CONFIGS[name]))
    failing = {e["name"] for e in entries.values() if not e["passed"]}
    assert failing >= {"superposition_attained", "convolution_attained"}
    assert not failing & {"kappa1_attained", "kappa2_attained"}


@pytest.mark.parametrize("name", [*sorted(CONFIGS), "2d-64"])
def test_constant_entries_do_not_depend_on_the_block_size(name, monkeypatch):
    # The whole report, every suite.  2d-64 is the resolved 2-d grid (P = 8).
    config = CONFIGS.get(name) or {**CONFIGS["2d"], "grid": {**CONFIGS["2d"]["grid"],
                                                             "points_per_axis": 64}}
    cfg = SuiteConfig.from_dict(config)
    grid = cfg.make_grid()
    expected = dump_json(run_suites(cfg))
    monkeypatch.setattr(grid_module, "_BATCH_BYTES", 16 * grid.size * 3)
    assert dump_json(run_suites(cfg)) == expected


def test_unbounded_order_fails_its_check():
    # At L / P = 8 the oscillation sits at the Nyquist bin, so the inner half
    # of its profile is empty and no order bounds it.
    cfg = SuiteConfig.from_dict({"seed": 5, "grid": {"period": 8.0, "points_per_axis": 64}})
    entries = _by_name(run_growth(cfg, cfg.make_system()))
    entry = entries["oscillation_bounded_order"]
    assert not entry["passed"]
    assert entry["value"] == MAX_DERIVATIVE_ORDER + 1
    assert str(MAX_DERIVATIVE_ORDER) in entry["details"]["unbounded"]
    assert entries["gaussian_bounded_order"]["details"] == {}


# The Fourier-side enclosures of window-independence ---------------------------

# Resolved configs (L = P^2, so A is square) and their exact bands at p = 1
# and p = 4, from a separate prototype of the closed form.
RESOLVED = {
    "1d-P16-L256": ({}, (1.02519, 1.01694)),
    "2d-P8-64": ({"grid": {"dim": 2, "period": 8.0, "points_per_axis": 64}}, (1.0313, 1.01342)),
}


def _window_entries(config):
    cfg = SuiteConfig.from_dict(config)
    return _by_name(run_window_independence(cfg, cfg.make_system()))


@pytest.mark.parametrize("name", sorted(RESOLVED))
def test_fourier_bands_are_exact_on_resolved_grids(name):
    config, bands = RESOLVED[name]
    entries = _window_entries(config)
    for p, band in zip((1, 4), bands):
        entry = entries[f"fourier_vs_bump_band_L{p}"]
        details = entry["details"]
        assert entry["passed"] and details["method"] == "enclosure"
        assert entry["value"] == details["upper"] == pytest.approx(band, abs=1e-5)
        # The witness attains the upper end.
        assert 0 <= (details["upper"] - details["lower"]) / details["upper"] <= 1e-12
    assert entries["fourier_parseval_deviation"]["value"] <= 1e-14


def test_fourier_band_encloses_random_sequences():
    # L = 4 P^2: A is 64 x 16, and the band is enclosed, not attained.
    cfg = SuiteConfig.from_dict({"grid": {"points_per_axis": 1024}})
    system = cfg.make_system()
    entries = _by_name(run_window_independence(cfg, system))
    c = _random_sequences(np.random.default_rng(8), system.time_lattice, 200)
    chi = sample_bump(system.grid, radius=0.45)
    for p in (1.0, 4.0):
        spec = SpaceSpec("FourierLp_w", p)
        ratios = suites_module.fourier_side_norm(c, spec) / discrete_norm(c, spec, chi)
        details = entries[f"fourier_vs_bump_band_L{p:g}"]["details"]
        assert details["lower"] < details["upper"]
        assert np.max(ratios) / np.min(ratios) <= details["upper"]


def test_a_label_dropping_fourier_side_norm_fails_parseval(monkeypatch):
    # A realization that loses the label of lattice point 0 is still a norm
    # on the other 15 points; the singular vectors expose it.
    fourier_side_norm = suites_module.fourier_side_norm

    def dropped(coeffs, spec):
        values = coeffs.values.copy()
        values[0] = 0.0
        return fourier_side_norm(CoeffArray.over_lattice(coeffs.lattice, values), spec)

    monkeypatch.setattr(suites_module, "fourier_side_norm", dropped)
    entry = _window_entries({})["fourier_parseval_deviation"]
    assert not entry["passed"] and entry["value"] > 1e-3


@pytest.mark.parametrize("config, needed", [
    ({"grid": {"dim": 2, "period": 8.0, "points_per_axis": 32}}, 64),
    ({"grid": {"points_per_axis": 128}}, 256),
], ids=["2d-P8-32", "1d-P16-L128"])
def test_colliding_labels_give_one_failing_diagnostic(config, needed):
    entries = _window_entries(config)
    fourier = [e for e in entries.values() if e["name"].startswith("fourier")]
    assert [e["name"] for e in fourier] == ["fourier_labels_resolved"]
    [entry] = fourier
    assert not entry["passed"]
    # L / gcd(a P, L) labels per axis against the P / a lattice points.
    assert entry["value"] < entry["threshold"] == needed ** 0.5
    assert entry["details"]["resolved_at_points_per_axis"] == needed
    assert entry["details"]["reason"].startswith("Unresolved: ")
    assert f"modulo L = {config['grid']['points_per_axis']}" in entry["details"]["reason"]


# The continuity bound of embedding-chain ------------------------------------

CONTINUITY_GRIDS = {
    "1d-256": PeriodicGrid(1, 16.0, 256),
    "1d-1024": PeriodicGrid(1, 16.0, 1024),
    "2d-32": PeriodicGrid(2, 8.0, 32),
    "2d-64": PeriodicGrid(2, 8.0, 64),
}


@pytest.mark.parametrize("name", sorted(CONTINUITY_GRIDS))
def test_continuity_bound_dominates_witnesses_and_random_phi(name):
    grid = CONTINUITY_GRIDS[name]
    lattice = GridLattice.cubic(grid, 1.0)
    bound = _continuity_bound(lattice, 4)
    # The Gaussian witnesses, one at a time through the one-row functions.
    for width in _PHI_WIDTHS:
        phi = suites_module.sample_gaussian(grid, width=width)
        norm = _superposition_norms(lattice, np.fft.fftn(phi.reshaped())[None])[0][0]
        assert norm / schwartz_seminorm(phi, 4) <= bound
    # 200 band-limited phi, which the witnesses do not cover.
    rng = np.random.default_rng(12)
    rows = np.stack([smooth_random_signal(grid, rng).values for _ in range(200)])
    spectra = np.fft.fftn(rows.reshape((200,) + grid.shape), axes=tuple(range(1, grid.dim + 1)))
    ratios = _superposition_norms(lattice, spectra)[0] / _schwartz_rows(grid, rows, spectra, 4)
    assert np.max(ratios) <= bound


@pytest.mark.parametrize("name", ["1d-256", "1d-1024", "2d-32", "2d-64"])
def test_continuity_enclosure_is_reported_at_the_best_witness(name):
    grid = CONTINUITY_GRIDS[name]
    cfg = SuiteConfig.from_dict({"grid": {"dim": grid.dim, "period": grid.period,
                                          "points_per_axis": grid.points_per_axis}})
    entries = _by_name(run_embedding_chain(cfg, cfg.make_system()))
    for label in ("superposition_attained", "convolution_attained"):
        entry = entries[label]
        assert entry["passed"] and entry["value"] <= 1e-15
        details = entry["details"]
        assert details["method"] == "enclosure"
        assert details["witness_width"] in _PHI_WIDTHS
        assert 0 < details["lower"] < details["upper"] < 100 * details["lower"]


def test_no_module_has_a_random_source():
    package = Path(suites_module.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        for word in ("numpy.random", "np.random", "default_rng", "Stream", "splitmix"):
            assert word not in text, f"{path.name}: {word}"
