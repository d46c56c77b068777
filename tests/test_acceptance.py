"""Acceptance suite.

Reference configuration throughout (unless a criterion states otherwise):
1-d grid, period 16, 256 points, window exp(-pi x^2), time step 1 (16
samples), frequency step 1/2 (redundancy 2), seed 42.  Each test prints a
single PASS/FAIL line; run with ``pytest -s tests/test_acceptance.py`` to
see them.
"""

import math
import time

import numpy as np
import pytest

from gaborgrid.formats import dump_json
from gaborgrid.gabor import (
    GaborSystem,
    dual_window,
    frame_bounds,
    reconstruction_error,
    wexler_raz_residual,
)
from gaborgrid.grid import (
    CoeffArray,
    GridLattice,
    GridSignal,
    PeriodicGrid,
    _superpose,
    sample_bump,
    sample_gaussian,
    sample_rectangle,
)
from gaborgrid.lattice import PowerWeight
from gaborgrid.smoothness import decay_profile
from gaborgrid.spaces import (
    SpaceSpec,
    continuous_norm,
    decay_weighted_sup,
    discrete_norm,
    fourier_side_norm,
    growth_weighted_sup,
    solid_discrete_norm,
)
from gaborgrid.stft import derivative_identity_defect
from gaborgrid.suites import (
    SuiteConfig,
    _superposition_norms,
    run_embedding_chain,
    run_suites,
)

from conftest import (
    convolve_samples,
    dense_frame_matrix,
    random_signal,
    schwartz_seminorm,
    smooth_random_signal,
)

SEED = 42
_MODULE_T0 = time.perf_counter()
_ELAPSED_AT_12 = {}


@pytest.fixture(scope="module")
def ref():
    grid = PeriodicGrid(1, 16.0, 256)
    window = sample_gaussian(grid)
    system = GaborSystem.separable(window, 1.0, 0.5)
    return {"grid": grid, "window": window, "system": system}


def report(number, passed, text):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number:2d}: {text}")
    assert passed, f"criterion {number}: {text}"


def test_criterion_01_reconstruction(ref):
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    gamma = dual_window(ref["system"])
    errors = [
        reconstruction_error(ref["system"], gamma, random_signal(ref["grid"], rng))
        for _ in range(50)
    ]
    elapsed = time.perf_counter() - t0
    ref["gamma"] = gamma
    ok = max(errors) <= 1e-8 and elapsed < 2.0
    report(1, ok,
           f"dual-window reconstruction: max error {max(errors):.2e} <= 1e-8 "
           f"on 50 signals in {elapsed:.2f}s (< 2s)")


def test_criterion_02_wexler_raz(ref):
    gamma = ref.get("gamma") or dual_window(ref["system"])
    t0 = time.perf_counter()
    residual = wexler_raz_residual(ref["system"], gamma)
    elapsed = time.perf_counter() - t0
    ok = residual <= 1e-8 and elapsed < 1.0
    report(2, ok,
           f"Wexler-Raz residual {residual:.2e} <= 1e-8 over the full adjoint "
           f"scan in {elapsed:.2f}s (< 1s), computed independently of the fiber solve")


def test_criterion_03_frame_criterion(ref):
    cert = frame_bounds(ref["system"])
    cond_ok = cert.lower > 0 and cert.upper / cert.lower < 10.0

    under = GaborSystem.separable(ref["window"], 2.0, 1.0)  # ab = 2, redundancy 1/2
    under_cert = frame_bounds(under)
    under_ok = under_cert.lower <= 1e-10

    small_grid = PeriodicGrid(1, 12.0, 48)
    small = GaborSystem.separable(sample_gaussian(small_grid), 1.0, 0.5)
    dense = np.linalg.eigvalsh(dense_frame_matrix(small))
    block = frame_bounds(small)
    agree = max(
        abs(dense[0] - block.lower) / dense[0],
        abs(dense[-1] - block.upper) / dense[-1],
    )
    ok = cond_ok and under_ok and agree <= 1e-6
    report(3, ok,
           f"frame bounds A={cert.lower:.4f}, B/A={cert.upper / cert.lower:.2f} < 10; "
           f"undersampled A={under_cert.lower:.1e} <= 1e-10; dense/fiber "
           f"disagreement {agree:.1e} <= 1e-6 at L=48")


def test_criterion_04_painless(ref):
    grid = ref["grid"]
    window = sample_rectangle(grid, width=1.0)  # one hop of 16 samples
    system = GaborSystem.separable(window, 1.0, 1.0 / grid.period)  # M = L
    cert = frame_bounds(system)
    tight = abs(cert.lower - cert.upper) / cert.upper
    gamma = dual_window(system)
    defect = float(np.max(np.abs(gamma.values - window.values / cert.upper)))
    ok = tight <= 1e-12 and defect <= 1e-10
    report(4, ok,
           f"painless tight frame: |A-B|/B = {tight:.1e} <= 1e-12 and "
           f"dual = window/A within {defect:.1e} (<= 1e-10)")


def test_criterion_05_derivative_identity(ref):
    f = sample_gaussian(ref["grid"])
    # The upper ends of the enclosures: a pass must hold for the defect.
    d1 = derivative_identity_defect(f, ref["window"], 1)[1]
    d2 = derivative_identity_defect(f, ref["window"], 2)[1]
    ok = d1 <= 1e-8 and d2 <= 1e-6
    report(5, ok,
           f"STFT derivative identity defects: order 1 {d1:.1e} <= 1e-8, "
           f"order 2 {d2:.1e} <= 1e-6")


def _ratio_band(lattice, chi1, chi2, spec, rng, count):
    worst = 1.0
    for _ in range(count):
        c = CoeffArray.over_lattice(
            lattice,
            rng.standard_normal(lattice.count) + 1j * rng.standard_normal(lattice.count),
        )
        r = discrete_norm(c, spec, chi1) / discrete_norm(c, spec, chi2)
        worst = max(worst, r, 1.0 / r)
    return worst


def test_criterion_06_window_independence(ref):
    grid = ref["grid"]
    lattice = GridLattice.cubic(grid, 1.0)
    chi1 = sample_bump(grid, radius=0.3)
    chi2 = sample_bump(grid, radius=0.45)
    rng = np.random.default_rng(SEED)
    ok = True
    worst_drift = 0.0
    bands = {}
    for p in (1.0, 2.0, 4.0):
        for tau in (0.0, 2.0):
            spec = SpaceSpec("Lp_w", p, weight=PowerWeight(tau))
            k_200 = _ratio_band(lattice, chi1, chi2, spec, rng, 200)
            k_400 = max(k_200, _ratio_band(lattice, chi1, chi2, spec, rng, 200))
            drift = abs(k_400 - k_200) / k_200
            worst_drift = max(worst_drift, drift)
            bands[f"L{p:g},tau{tau:g}"] = k_200
            ok = ok and np.isfinite(k_200) and drift <= 0.2
    report(6, ok,
           f"window independence: K bands {bands} stable within 20% under "
           f"sample doubling (worst drift {worst_drift:.1%})")


def test_criterion_07_solid_shortcut(ref):
    grid = ref["grid"]
    lattice = GridLattice.cubic(grid, 1.0)
    chi = sample_bump(grid, radius=0.45)
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for p in (1.0, 2.0, 4.0):
        spec = SpaceSpec("Lp_w", p)
        factor = continuous_norm(chi, spec)
        for _ in range(50):
            c = CoeffArray.over_lattice(
                lattice,
                rng.standard_normal(lattice.count)
                + 1j * rng.standard_normal(lattice.count),
            )
            direct = discrete_norm(c, spec, chi)
            worst = max(worst, abs(direct / (factor * solid_discrete_norm(c, spec)) - 1))
    spec_w = SpaceSpec("Lp_w", 2.0, weight=PowerWeight(2.0))
    ratios = []
    for _ in range(200):
        c = CoeffArray.over_lattice(
            lattice,
            rng.standard_normal(lattice.count) + 1j * rng.standard_normal(lattice.count),
        )
        ratios.append(
            discrete_norm(c, spec_w, chi)
            / solid_discrete_norm(c, spec_w)
        )
    weighted_ok = np.isfinite(max(ratios)) and min(ratios) > 0
    ok = worst <= 1e-12 and weighted_ok
    report(7, ok,
           f"solid shortcut: unweighted Lp factorization exact to {worst:.1e} "
           f"(<= 1e-12); weighted ratios bounded in "
           f"[{min(ratios):.4f}, {max(ratios):.4f}]")


def test_criterion_08_fourier_side(ref):
    grid = ref["grid"]
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for step in (1.0, 2.0):
        lattice = GridLattice.cubic(grid, step)
        vol_dual = 1.0 / step
        for _ in range(100):
            c = CoeffArray.over_lattice(
                lattice,
                rng.standard_normal(lattice.count)
                + 1j * rng.standard_normal(lattice.count),
            )
            got = fourier_side_norm(c, SpaceSpec("FourierLp_w", 2.0))
            expected = math.sqrt(vol_dual) * float(np.linalg.norm(c.values))
            worst = max(worst, abs(got / expected - 1.0))
    lattice = GridLattice.cubic(grid, 1.0)
    chi = sample_bump(grid, radius=0.45)
    bands = {}
    for p in (1.0, 4.0):
        spec = SpaceSpec("FourierLp_w", p)
        ratios = []
        for _ in range(200):
            c = CoeffArray.over_lattice(
                lattice,
                rng.standard_normal(lattice.count)
                + 1j * rng.standard_normal(lattice.count),
            )
            ratios.append(
                fourier_side_norm(c, spec)
                / discrete_norm(c, spec, chi)
            )
        bands[f"p={p:g}"] = (min(ratios), max(ratios))
    bounded = all(np.isfinite(hi) and lo > 0 for lo, hi in bands.values())
    ok = worst <= 1e-10 and bounded
    report(8, ok,
           f"Fourier-side norm: p=2 Parseval identity within {worst:.1e} "
           f"(<= 1e-10); two-sided bands {bands}")


def test_criterion_09_embedding_chain(ref):
    grid = ref["grid"]
    lattice = GridLattice.cubic(grid, 1.0)
    chi = sample_bump(grid, radius=0.45)
    spec = SpaceSpec("Lp_w", 2.0)
    rng = np.random.default_rng(SEED)

    def kappas(count):
        k1 = k2 = math.inf
        for _ in range(count):
            c = CoeffArray.over_lattice(
                lattice,
                rng.standard_normal(lattice.count)
                + 1j * rng.standard_normal(lattice.count),
            )
            d = discrete_norm(c, spec, chi)
            k1 = min(k1, decay_weighted_sup(c, 3) / d)
            k2 = min(k2, d / growth_weighted_sup(c, 3))
        return k1, k2

    k1, k2 = kappas(200)
    k1d, k2d = kappas(200)
    k1_both, k2_both = min(k1, k1d), min(k2, k2d)
    stable = (k1 - k1_both) / k1 <= 0.5 and (k2 - k2_both) / k2 <= 0.5
    # The exact infima bound every scan from below.
    cfg = SuiteConfig.from_dict({"seed": SEED})
    exact = {e["name"]: e["value"] for e in run_embedding_chain(cfg, ref["system"])}
    bounded = exact["kappa1_positive"] <= k1_both and exact["kappa2_positive"] <= k2_both
    ok = k1 > 0 and k2 > 0 and stable and bounded
    report(9, ok,
           f"embedding chain: kappa1 = {k1:.3f} > 0, kappa2 = {k2:.3f} > 0, "
           f"stable under doubling (drifts {(k1 - k1_both) / k1:.1%}, "
           f"{(k2 - k2_both) / k2:.1%}); at least the exact "
           f"{exact['kappa1_positive']:.3f}, {exact['kappa2_positive']:.4f}")


def test_criterion_10_decay_growth_dichotomy(ref):
    system = ref["system"]
    grid = ref["grid"]
    space = SpaceSpec("Lp_w", 1.0, weight=PowerWeight(3.0))

    gauss = sample_gaussian(grid, width=math.sqrt(2.0), normalize=True)
    gauss_prof = decay_profile(system, gauss, space)
    decay_ok = (
        bool(np.all(np.isfinite(gauss_prof.decay_sups)))
        and gauss_prof.decay_sups[6] <= 10.0 * gauss_prof.decay_sups[0]
    )

    x = grid.axis_nodes()
    osc = GridSignal(grid, np.exp(2j * np.pi * 4.0 * x))
    osc = osc * (1.0 / osc.l2_norm())
    osc_prof = decay_profile(system, osc, space)
    osc_fails_decay = osc_prof.decay_sups[6] > 10.0 * osc_prof.decay_sups[0]
    osc_growth_ok = osc_prof.bounded_order is not None and osc_prof.bounded_order <= 6
    w2_ratio = osc_prof.decay_sups[2] / gauss_prof.decay_sups[2]
    ok = decay_ok and osc_fails_decay and osc_growth_ok and w2_ratio >= 1e3
    report(10, ok,
           f"dichotomy: Gaussian decay ratio {gauss_prof.decay_sups[6] / gauss_prof.decay_sups[0]:.2f}"
           f" <= 10; oscillation passes only the growth side (bounded at "
           f"N={osc_prof.bounded_order}); weight-2 sup ratio {w2_ratio:.0f} >= 1e3")


def test_criterion_11_operator_continuity(ref):
    grid = ref["grid"]
    lattice = GridLattice.cubic(grid, 1.0)
    chi = sample_bump(grid, radius=0.45)
    spec = SpaceSpec("Lp_w", 2.0)
    order = 4
    rng = np.random.default_rng(SEED)
    sup_ratios, conv_ratios = [], []
    sup_exact, conv_exact = [], []
    # ||chi||_{E_d} norms every sequence with one profile value p.
    p = continuous_norm(chi, spec) / math.sqrt(grid.spacing)
    for _ in range(100):
        c = CoeffArray.over_lattice(
            lattice,
            rng.standard_normal(lattice.count) + 1j * rng.standard_normal(lattice.count),
        )
        phi = smooth_random_signal(grid, rng)
        e = random_signal(grid, rng)
        seminorm = schwartz_seminorm(phi, order)
        sup_ratios.append(
            continuous_norm(GridSignal(grid, _superpose(
                lattice, c.values[None], np.fft.fftn(phi.reshaped()))[0]), spec)
            / (discrete_norm(c, spec, chi) * seminorm)
        )
        conv = convolve_samples(e, phi, lattice)
        conv_ratios.append(
            discrete_norm(conv, spec, chi)
            / (continuous_norm(e, spec) * seminorm)
        )
        norm = _superposition_norms(lattice, np.fft.fftn(phi.reshaped())[None])[0][0]
        sup_exact.append(norm / p / seminorm)
        conv_exact.append(grid.spacing * p * norm / seminorm)
    c_sup, c_conv = max(sup_ratios), max(conv_ratios)
    violation = max(
        max(r / c_sup for r in sup_ratios), max(r / c_conv for r in conv_ratios)
    ) - 1.0
    # The closed-form sup over c (and over e) of each phi bounds its sample.
    bounded = all(r <= x * (1 + 1e-12) for r, x in zip(sup_ratios + conv_ratios,
                                                       sup_exact + conv_exact))
    ok = violation <= 0.01 and order <= 4 and bounded
    report(11, ok,
           f"operator continuity: fitted constants C_sup={c_sup:.4f}, "
           f"C_conv={c_conv:.4f} at Schwartz order {order} <= 4; worst "
           f"violation of the fitted bound {violation:.2%} <= 1%; the exact "
           f"constants over the same phi are {max(sup_exact):.3e}, {max(conv_exact):.3e}")


def test_criterion_12_determinism_and_runtime(tmp_path):
    _ELAPSED_AT_12["elapsed"] = time.perf_counter() - _MODULE_T0
    cfg = SuiteConfig.from_dict({"seed": SEED})
    text1 = dump_json(run_suites(cfg))
    text2 = dump_json(run_suites(cfg))
    elapsed = _ELAPSED_AT_12["elapsed"]
    ok = text1 == text2 and elapsed < 60.0
    report(12, ok,
           f"determinism: full-suite report bytes identical across reruns "
           f"({len(text1)} bytes); criteria 1-11 ran in {elapsed:.1f}s (< 60s)")
