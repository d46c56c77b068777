"""Named verification suites behind the batch driver.

Each suite takes a validated configuration, the configured Gabor system
and a dedicated random generator, and returns report entries: plain dicts
with a measured value, a threshold, a comparator, and the resulting pass
flag.  Informational measurements use the comparator ``report`` and always
pass.  One system serves every suite of a run, so its frame-operator
fibers, certificate and dual window are built once.

Suites draw their randomness from a generator seeded by the config seed
and the suite name, so results do not depend on which other suites run or
on the execution order.  Monte-Carlo families are drawn with one
``standard_normal`` call per batch and evaluated by the batched kernels;
batches of grid signals run in blocks of ``grid._block_rows(size)``
samples, so a family of any size adds a bounded working set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonAlignedLattice, NotAFrame
from .gabor import (
    GaborSystem,
    _adjoint_lattices,
    _dense_frame_matrix,
    _reconstruction_errors,
    analyze,
    dual_window,
    frame_bounds,
    reconstruction_error,
    synthesize,
    wexler_raz_residual,
)
from .grid import (
    CoeffArray,
    GridLattice,
    GridSignal,
    PeriodicGrid,
    _block_rows,
    _superpose,
    sample_bump,
    sample_gaussian,
    sample_oscillation,
    sample_rectangle,
)
from .lattice import PowerWeight
from .smoothness import _convolution_rows, _schwartz_rows, decay_profile
from .spaces import (
    SpaceSpec,
    _norm_weight,
    _row_norms,
    continuous_norm,
    decay_weighted_sup,
    discrete_norm,
    fourier_side_norm,
    growth_weighted_sup,
    solid_discrete_norm,
)
from .stft import derivative_identity_defect

SUITE_NAMES = (
    "decay",
    "derivative-identity",
    "embedding-chain",
    "frame-bounds",
    "growth",
    "reconstruction",
    "wexler-raz",
    "window-independence",
)

_DEFAULT_TOLERANCES = {
    "reconstruction": 1e-8,
    "wexler_raz": 1e-8,
    "frame": 1e-10,
}

_DEFAULT_SAMPLES = {
    "ratio_scan": 200,
    "reconstruction": 50,
    "continuity": 100,
}


def _section(data: dict, key: str) -> dict:
    """The config object at ``key`` (empty when absent); anything else is a
    ConfigError naming the key."""
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: must be an object, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class SuiteConfig:
    """Validated batch configuration; see README for the JSON schema."""

    seed: int = 42
    dim: int = 1
    period: float = 16.0
    points_per_axis: int = 256
    window: dict = field(
        default_factory=lambda: {"kind": "gaussian", "center": 0.0, "width": 1.0,
                                 "normalize": False}
    )
    time_step: float = 1.0
    freq_step: float = 0.5
    spaces: tuple = (SpaceSpec("Lp_w", 2.0),)
    suites: tuple = SUITE_NAMES
    tolerances: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, _DEFAULT_TOLERANCES[name]))

    def sample_count(self, name: str) -> int:
        return int(self.samples.get(name, _DEFAULT_SAMPLES[name]))

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be an object")
        if data.get("schema", 1) != 1:
            raise ConfigError(f"schema: unsupported version {data.get('schema')!r}")
        grid, system, tolerances, samples = (
            _section(data, key) for key in ("grid", "system", "tolerances", "samples"))
        try:
            spaces = tuple(
                SpaceSpec.from_dict(s) for s in data.get("spaces", [{"kind": "Lp_w", "p": 2.0}])
            )
        except ValueError as exc:
            raise ConfigError(f"spaces: {exc}") from None
        return cls(
            seed=data.get("seed", 42),
            dim=grid.get("dim", 1),
            period=grid.get("period", 16.0),
            points_per_axis=grid.get("points_per_axis", 256),
            window=system.get("window", {"kind": "gaussian"}),
            time_step=system.get("time_step", 1.0),
            freq_step=system.get("freq_step", 0.5),
            spaces=spaces,
            suites=tuple(data.get("suites", SUITE_NAMES)),
            tolerances=dict(tolerances),
            samples=dict(samples),
        )

    def validate(self) -> None:
        if not isinstance(self.seed, int):
            raise ConfigError("seed: must be an integer")
        if self.dim not in (1, 2):
            raise ConfigError(f"grid.dim: must be 1 or 2, got {self.dim!r}")
        if not (isinstance(self.period, (int, float)) and self.period > 0):
            raise ConfigError(f"grid.period: must be positive, got {self.period!r}")
        if not (isinstance(self.points_per_axis, int) and self.points_per_axis >= 2):
            raise ConfigError("grid.points_per_axis: must be an integer >= 2")
        spacing = self.period / self.points_per_axis
        steps = self.time_step / spacing
        if abs(steps - round(steps)) > 1e-9 or self.time_step <= 0:
            raise ConfigError(f"system.time_step: {self.time_step!r} is not a positive "
                              f"multiple of the grid spacing {spacing}")
        bins = self.freq_step * self.period
        if abs(bins - round(bins)) > 1e-9 or self.freq_step <= 0:
            raise ConfigError(f"system.freq_step: {self.freq_step!r} is not a "
                              f"positive multiple of 1/period")
        if not isinstance(self.window, dict):
            raise ConfigError("system.window: must be an object")
        kind = self.window.get("kind")
        if kind not in ("gaussian", "bump", "rectangle"):
            raise ConfigError(f"system.window.kind: unknown kind {kind!r}")
        if kind == "bump":
            radius = self.window.get("radius", 0.45)
            if not 0 < radius < self.period / 2:
                raise ConfigError("system.window.radius: must lie in (0, period/2)")
        unknown = set(self.suites) - set(SUITE_NAMES)
        if unknown:
            raise ConfigError(f"suites: unknown names {sorted(unknown)}")
        for key in self.tolerances:
            if key not in _DEFAULT_TOLERANCES:
                raise ConfigError(f"tolerances.{key}: unknown tolerance")
        for key, value in self.samples.items():
            if key not in _DEFAULT_SAMPLES:
                raise ConfigError(f"samples.{key}: unknown sample size")
            if not (isinstance(value, int) and value > 0):
                raise ConfigError(f"samples.{key}: must be a positive integer")

    def make_grid(self) -> PeriodicGrid:
        return PeriodicGrid(self.dim, float(self.period), self.points_per_axis)

    def make_window(self, grid: PeriodicGrid) -> GridSignal:
        spec = self.window
        kind = spec.get("kind", "gaussian")
        if kind == "gaussian":
            return sample_gaussian(
                grid,
                center=spec.get("center", 0.0),
                width=spec.get("width", 1.0),
                normalize=spec.get("normalize", False),
            )
        if kind == "bump":
            return sample_bump(grid, center=spec.get("center", 0.0),
                               radius=spec.get("radius", 0.45))
        return sample_rectangle(grid, width=spec.get("width", self.time_step),
                                start=spec.get("start", 0.0),
                                normalize=spec.get("normalize", False))

    def make_system(self) -> GaborSystem:
        grid = self.make_grid()
        return GaborSystem.separable(self.make_window(grid), self.time_step, self.freq_step)


def suite_rng(seed: int, suite: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *suite.encode()]))


def _complex_rows(normals: np.ndarray) -> np.ndarray:
    """(S, n) complex rows from (S, 2, n) standard normals: the real parts,
    then the imaginary parts, as one standard_normal(n) call each would draw."""
    rows = np.empty(normals[:, 0].shape, dtype=complex)
    rows.real = normals[:, 0]
    rows.imag = normals[:, 1]
    return rows


def random_signal(grid: PeriodicGrid, rng: np.random.Generator) -> GridSignal:
    return GridSignal(grid, _complex_rows(rng.standard_normal((1, 2, grid.size)))[0])


def _smooth_rows(grid: PeriodicGrid, normals: np.ndarray) -> np.ndarray:
    """(S, size) band-concentrated random signals, grid stand-ins for Schwartz
    functions, whose spectra are the (S, 2, size) standard normals (as in
    ``_complex_rows``) under a Gaussian envelope 8 frequency bins wide."""
    radius = np.linalg.norm(grid.freq_integers(), axis=-1)
    envelope = np.exp(-((radius / 8.0) ** 2))
    rows = envelope * _complex_rows(normals) * grid.size
    shaped = rows.reshape((-1,) + grid.shape)
    np.fft.ifftn(shaped, axes=tuple(range(1, grid.dim + 1)), out=shaped)
    return rows


def check(suite: str, name: str, value: float, threshold: float,
          comparator: str, details: dict | None = None) -> dict:
    value = float(value)
    threshold = float(threshold)
    passed = {
        "<=": value <= threshold,
        "<": value < threshold,
        ">=": value >= threshold,
        ">": value > threshold,
    }[comparator]
    return {
        "suite": suite,
        "name": name,
        "passed": bool(passed),
        "value": value,
        "threshold": threshold,
        "comparator": comparator,
        "details": details or {},
    }


def report_entry(suite: str, name: str, value: float | None,
                 details: dict | None = None) -> dict:
    return {
        "suite": suite,
        "name": name,
        "passed": True,
        "value": None if value is None else float(value),
        "threshold": None,
        "comparator": "report",
        "details": details or {},
    }


def _not_a_frame_entries(suite: str, system: GaborSystem, tol: float) -> list[dict]:
    cert = frame_bounds(system)
    entry = check(suite, "frame", cert.lower, tol, ">",
                  details={"B": cert.upper, "redundancy": cert.redundancy})
    return [entry]


# Individual suites -----------------------------------------------------------

def run_reconstruction(cfg: SuiteConfig, system: GaborSystem,
                       rng: np.random.Generator) -> list[dict]:
    tol = cfg.tol("reconstruction")
    try:
        gamma = dual_window(system, tol=cfg.tol("frame"))
    except NotAFrame:
        return _not_a_frame_entries("reconstruction", system, cfg.tol("frame"))
    shape = (cfg.sample_count("reconstruction"), 2, system.grid.size)
    errors = _reconstruction_errors(system, gamma, _complex_rows(rng.standard_normal(shape)))
    doubled = GridSignal(system.grid, 2.0 * gamma.values)
    drift = abs(
        reconstruction_error(system, doubled, random_signal(system.grid, rng)) - 1.0
    )
    return [
        check("reconstruction", "max_relative_error", np.max(errors), tol, "<=",
              details={"signals": len(errors)}),
        check("reconstruction", "scaled_dual_error_is_one", drift, 1e-6, "<="),
    ]


def run_wexler_raz(cfg: SuiteConfig, system: GaborSystem,
                   rng: np.random.Generator) -> list[dict]:
    tol = cfg.tol("wexler_raz")
    try:
        gamma = dual_window(system, tol=cfg.tol("frame"))
    except NotAFrame:
        return _not_a_frame_entries("wexler-raz", system, cfg.tol("frame"))
    adj_time, adj_freq = _adjoint_lattices(system)
    residual = wexler_raz_residual(system, gamma)
    # Adjoint-lattice identity: analysis after synthesis over the adjoint
    # lattice is 1/redundancy times the identity on finitely supported sequences.
    adj = GaborSystem(system.window, adj_time, adj_freq)
    adj_dual = GaborSystem(gamma, adj_time, adj_freq)
    shape = (adj_time.count, adj_freq.count)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs = CoeffArray.over_product(adj_time, adj_freq, c)
    back = analyze(adj, synthesize(adj_dual, coeffs)).values * system.redundancy
    identity_defect = float(np.max(np.abs(back - c)) / np.max(np.abs(c)))
    return [
        check("wexler-raz", "adjoint_identity_defect", identity_defect, tol, "<="),
        check("wexler-raz", "residual", residual, tol, "<="),
    ]


def run_frame_bounds(cfg: SuiteConfig, system: GaborSystem,
                     rng: np.random.Generator) -> list[dict]:
    suite = "frame-bounds"
    tol = cfg.tol("frame")
    cert = frame_bounds(system)
    entries = [
        check(suite, "lower_bound_positive", cert.lower, tol, ">",
              details={"B": cert.upper, "method": cert.method,
                       "fiber_shape": list(cert.fiber_shape)}),
    ]
    if cert.lower > tol:
        entries.append(check(suite, "condition_number", cert.upper / cert.lower, 10.0, "<"))
    else:
        # A non-frame has no condition number to report.
        entries.extend(_not_a_frame_entries(suite, system, tol))

    # Scale both steps by the least power of two (at least 2) that
    # undersamples: one doubling leaves a frame when the redundancy is high
    # or a step is coprime to the number of grid points.  A doubling lowers
    # the redundancy only while it adds a factor 2 to the gcd of a step
    # index with L, and never again once one does not.  When no power of
    # two undersamples, both steps become the full period (time P,
    # frequency L / P): one time-frequency shift, redundancy 1 / L^n.
    under = None
    for k in itertools.count(1):
        doubled = GaborSystem.separable(system.window, 2 ** k * cfg.time_step,
                                        2 ** k * cfg.freq_step)
        if under is not None and doubled.redundancy >= under.redundancy:
            under = GaborSystem.separable(system.window, cfg.period,
                                          cfg.points_per_axis / cfg.period)
            break
        under = doubled
        if under.redundancy < 1.0:
            break
    under_cert = frame_bounds(under)
    entries.append(
        check(suite, "undersampled_lower_bound", under_cert.lower, tol, "<=",
              details={"redundancy": under_cert.redundancy})
    )

    # Fiber bounds against the dense-eigen oracle on a small grid.
    if cfg.dim == 1:
        small_grid = PeriodicGrid(1, 12.0, 48)
    else:
        small_grid = PeriodicGrid(2, 6.0, 12)
    small = GaborSystem.separable(sample_gaussian(small_grid), 1.0, 0.5)
    dense = np.linalg.eigvalsh(_dense_frame_matrix(small))
    fiber = frame_bounds(small)
    entries.append(
        check(suite, "dense_vs_fiber_lower",
              abs(dense[0] - fiber.lower) / dense[0], 1e-6, "<=")
    )
    entries.append(
        check(suite, "dense_vs_fiber_upper",
              abs(dense[-1] - fiber.upper) / dense[-1], 1e-6, "<=")
    )

    # Painless configuration: one-hop rectangle with every modulation.
    grid = system.grid
    rect = sample_rectangle(grid, width=cfg.time_step)
    painless = GaborSystem.separable(rect, cfg.time_step, 1.0 / cfg.period)
    pcert = frame_bounds(painless)
    entries.append(
        check(suite, "painless_tightness",
              abs(pcert.lower - pcert.upper) / pcert.upper, 1e-12, "<=")
    )
    pgamma = dual_window(painless, tol=1e-12)
    defect = float(np.max(np.abs(pgamma.values - rect.values / pcert.upper)))
    entries.append(check(suite, "painless_dual_is_scaled_window", defect, 1e-10, "<="))
    return entries


def _random_sequences(rng: np.random.Generator, lattice: GridLattice,
                      samples: int) -> CoeffArray:
    """``samples`` random complex sequences over the lattice, one per column,
    each drawn as standard_normal + 1j * standard_normal, in one draw."""
    rows = _complex_rows(rng.standard_normal((samples, 2, lattice.count)))
    return CoeffArray.over_lattice(lattice, rows.T)


def _ratio_bands(rng, lattice, chi1, chi2, spec, count) -> tuple[float, float]:
    """The window-ratio band K over each of two successive draws of
    ``count`` sequences, drawn as one and normed by one call per window."""
    c = _random_sequences(rng, lattice, 2 * count)
    r = (discrete_norm(c, spec, chi1) / discrete_norm(c, spec, chi2)).reshape(2, count)
    return tuple(float(k) for k in np.maximum(np.max(r, axis=1), np.max(1.0 / r, axis=1)))


def run_window_independence(cfg: SuiteConfig, system: GaborSystem,
                            rng: np.random.Generator) -> list[dict]:
    suite = "window-independence"
    grid = system.grid
    lattice = GridLattice.cubic(grid, cfg.time_step)
    chi1 = sample_bump(grid, radius=0.3 * cfg.time_step)
    chi2 = sample_bump(grid, radius=0.45 * cfg.time_step)
    count = cfg.sample_count("ratio_scan")
    entries = []
    for p in (1.0, 2.0, 4.0):
        for tau in (0.0, 2.0):
            spec = SpaceSpec("Lp_w", p, weight=PowerWeight(tau))
            label = f"L{p:g}_tau{tau:g}"
            k1, k2 = _ratio_bands(rng, lattice, chi1, chi2, spec, count)
            k_joint = max(k1, k2)
            entries.append(
                check(suite, f"K_stability_{label}", abs(k_joint - k1) / k1, 0.2, "<=",
                      details={"K": k1, "K_doubled": k_joint, "samples": count}),
            )

    # Solid shortcut: unweighted Lp discrete norms factor exactly through
    # the window Lp norm; weighted ones stay within an empirical band.
    chi = chi2
    for p in (1.0, 2.0, 4.0):
        spec = SpaceSpec("Lp_w", p)
        factor = continuous_norm(chi, spec)
        c = _random_sequences(rng, lattice, 50)
        direct = discrete_norm(c, spec, chi)
        worst = float(np.max(np.abs(direct / (factor * solid_discrete_norm(c, spec)) - 1.0)))
        entries.append(
            check(suite, f"solid_shortcut_exact_L{p:g}", worst, 1e-12, "<=")
        )
    spec_w = SpaceSpec("Lp_w", 2.0, weight=PowerWeight(2.0))
    c = _random_sequences(rng, lattice, 50)
    ratios = discrete_norm(c, spec_w, chi) / solid_discrete_norm(c, spec_w)
    low, high = float(np.min(ratios)), float(np.max(ratios))
    entries.append(
        report_entry(suite, "solid_shortcut_weighted_band", high / low,
                     details={"low": low, "high": high})
    )

    # Fourier-coefficient realization against the bump realization; needs
    # the lattice points to double as grid frequencies with aligned dual.
    try:
        _fourier_entries(cfg, rng, lattice, chi, count, entries, suite)
    except NonAlignedLattice:
        pass
    return entries


def _fourier_entries(cfg, rng, lattice, chi, count, entries, suite) -> None:
    if abs(cfg.time_step * cfg.period - round(cfg.time_step * cfg.period)) < 1e-9:
        f2 = SpaceSpec("FourierLp_w", 2.0)
        vol_dual = 1.0 / cfg.time_step ** cfg.dim
        c = _random_sequences(rng, lattice, 50)
        expected = math.sqrt(vol_dual) * solid_discrete_norm(c, SpaceSpec("Lp_w", 2.0))
        worst = float(np.max(np.abs(fourier_side_norm(c, f2) / expected - 1.0)))
        entries.append(check(suite, "fourier_parseval_deviation", worst, 1e-10, "<="))
        for p in (1.0, 4.0):
            fp = SpaceSpec("FourierLp_w", p)
            c = _random_sequences(rng, lattice, count)
            ratios = fourier_side_norm(c, fp) / discrete_norm(c, fp, chi)
            low, high = float(np.min(ratios)), float(np.max(ratios))
            entries.append(
                check(suite, f"fourier_vs_bump_band_L{p:g}", high / low, 1e6, "<",
                      details={"low": low, "high": high})
            )


def run_embedding_chain(cfg: SuiteConfig, system: GaborSystem,
                        rng: np.random.Generator) -> list[dict]:
    suite = "embedding-chain"
    grid = system.grid
    lattice = GridLattice.cubic(grid, cfg.time_step)
    chi = sample_bump(grid, radius=0.45 * cfg.time_step)
    spec = SpaceSpec("Lp_w", 2.0)
    count = cfg.sample_count("ratio_scan")

    # Two successive draws of `count` sequences, drawn and normed as one.
    c = _random_sequences(rng, lattice, 2 * count)
    d = discrete_norm(c, spec, chi)
    (k1, k1d), (k2, k2d) = (np.min(r.reshape(2, count), axis=1).tolist() for r in (
        decay_weighted_sup(c, 3) / d, d / growth_weighted_sup(c, 3)))
    entries = [
        check(suite, "kappa1_positive", k1, 0.0, ">",
              details={"doubled": min(k1, k1d)}),
        check(suite, "kappa2_positive", k2, 0.0, ">",
              details={"doubled": min(k2, k2d)}),
        check(suite, "kappa1_stability", abs(min(k1, k1d) - k1) / k1, 0.5, "<="),
        check(suite, "kappa2_stability", abs(min(k2, k2d) - k2) / k2, 0.5, "<="),
    ]

    # Operator continuity constants over a random family.
    order = 4
    n = cfg.sample_count("continuity")
    cs, convs, seminorms, out_norms, e_norms = _continuity_samples(
        rng, lattice, spec, n, order)
    in_norms = discrete_norm(CoeffArray.over_lattice(lattice, cs), spec, chi)
    conv_norms = discrete_norm(CoeffArray.over_lattice(lattice, convs), spec, chi)
    sup_ratios = out_norms / (in_norms * seminorms)
    conv_ratios = conv_norms / (e_norms * seminorms)

    for label, ratios in (("superposition", sup_ratios), ("convolution", conv_ratios)):
        fitted = float(np.max(ratios))
        violation = float(np.max(ratios / fitted - 1.0))
        entries.append(
            check(suite, f"{label}_bound_violation", violation, 0.01, "<=",
                  details={"constant": fitted, "order": order, "samples": n})
        )
    return entries


def _continuity_samples(rng: np.random.Generator, lattice: GridLattice,
                        spec: SpaceSpec, samples: int, order: int
                        ) -> tuple[np.ndarray, ...]:
    """The random family behind the operator-continuity constants.

    Sample s draws a sequence c over the lattice, then the spectrum of a
    smooth signal phi (``_smooth_rows``), then a signal e, each as
    standard_normal + 1j * standard_normal.  Samples run in blocks of
    ``grid._block_rows(size)``, one draw per block; phi's spectrum is taken
    once per block and serves the seminorms, the superpositions and the
    convolutions.  Returns the (count, samples) sequences c and convolution
    samples of e * phi, and per sample the Schwartz seminorm of phi of the
    given order and the ``spec`` norms of sum_k c_k T_{x_k}(phi) and of e.
    """
    grid = lattice.grid
    K, N = lattice.count, grid.size
    axes = tuple(range(1, grid.dim + 1))
    weight = _norm_weight(grid, spec)
    cs = np.empty((K, samples), dtype=complex)
    convs = np.empty((K, samples), dtype=complex)
    seminorms, out_norms, e_norms = np.empty((3, samples))
    block = _block_rows(N)
    for lo in range(0, samples, block):
        b = min(block, samples - lo)
        draw = rng.standard_normal((b, 2 * K + 4 * N))
        c = _complex_rows(draw[:, :2 * K].reshape(b, 2, K))
        phi = _smooth_rows(grid, draw[:, 2 * K:2 * K + 2 * N].reshape(b, 2, N))
        e = _complex_rows(draw[:, 2 * K + 2 * N:].reshape(b, 2, N))
        phi_spectra = np.fft.fftn(phi.reshape((b,) + grid.shape), axes=axes)
        e_spectra = np.fft.fftn(e.reshape((b,) + grid.shape), axes=axes)
        part = slice(lo, lo + b)
        cs[:, part] = c.T
        seminorms[part] = _schwartz_rows(grid, phi, phi_spectra, order)
        out_norms[part] = _row_norms(_superpose(lattice, c, phi_spectra), grid, spec, weight)
        e_norms[part] = _row_norms(e, grid, spec, weight)
        convs[:, part] = _convolution_rows(lattice, e_spectra, phi_spectra).T
    return cs, convs, seminorms, out_norms, e_norms


_PROFILE_SPACE = SpaceSpec("Lp_w", 1.0, weight=PowerWeight(3.0))


def run_decay(cfg: SuiteConfig, system: GaborSystem,
              rng: np.random.Generator) -> list[dict]:
    suite = "decay"
    f = sample_gaussian(system.grid, width=math.sqrt(2.0), normalize=True)
    prof = decay_profile(system, f, _PROFILE_SPACE)
    finite = float(np.all(np.isfinite(prof.decay_sups)))
    return [
        check(suite, "gaussian_sups_finite", finite, 1.0, ">="),
        check(suite, "gaussian_top_to_bottom_ratio",
              prof.decay_sups[-1] / prof.decay_sups[0], 10.0, "<=",
              details={"fitted_order": prof.fitted_order}),
    ]


def run_growth(cfg: SuiteConfig, system: GaborSystem,
               rng: np.random.Generator) -> list[dict]:
    suite = "growth"
    grid = system.grid
    gauss = sample_gaussian(grid, width=math.sqrt(2.0), normalize=True)
    gauss_prof = decay_profile(system, gauss, _PROFILE_SPACE)
    osc = sample_oscillation(grid, 4.0)
    osc_prof = decay_profile(system, osc, _PROFILE_SPACE)
    entries = [
        check(suite, "gaussian_bounded_order",
              -1.0 if gauss_prof.bounded_order is None else gauss_prof.bounded_order,
              0.0, "<="),
        check(suite, "oscillation_fails_decay",
              osc_prof.decay_sups[-1] / osc_prof.decay_sups[0], 10.0, ">"),
        check(suite, "oscillation_bounded_order",
              -1.0 if osc_prof.bounded_order is None else osc_prof.bounded_order,
              6.0, "<="),
        check(suite, "oscillation_to_gaussian_weight2",
              osc_prof.decay_sups[2] / gauss_prof.decay_sups[2], 1e3, ">=",
              details={"oscillation": osc_prof.decay_sups[2],
                       "gaussian": gauss_prof.decay_sups[2]}),
    ]
    top_band = GridSignal(grid, gauss.values * sample_oscillation(grid, 6.0).values)
    top_band = top_band * (1.0 / top_band.l2_norm())
    band_prof = decay_profile(system, top_band, _PROFILE_SPACE)
    entries.append(
        check(suite, "top_band_bounded_order",
              -1.0 if band_prof.bounded_order is None else band_prof.bounded_order,
              6.0, "<=")
    )
    return entries


def run_derivative_identity(cfg: SuiteConfig, system: GaborSystem,
                            rng: np.random.Generator) -> list[dict]:
    suite = "derivative-identity"
    grid = system.grid
    f = sample_gaussian(grid)
    psi = system.window
    entries = []
    for label, order, threshold in (("order1_defect", (1,) * cfg.dim, 1e-8),
                                    ("order2_defect", (2,) + (0,) * (cfg.dim - 1), 1e-6)):
        defect, rows = derivative_identity_defect(f, psi, order)
        entries.append(check(suite, label, defect, threshold, "<=",
                             details={"rows_evaluated": rows, "rows": grid.size}))
    return entries


SUITES = {
    "decay": run_decay,
    "derivative-identity": run_derivative_identity,
    "embedding-chain": run_embedding_chain,
    "frame-bounds": run_frame_bounds,
    "growth": run_growth,
    "reconstruction": run_reconstruction,
    "wexler-raz": run_wexler_raz,
    "window-independence": run_window_independence,
}


def run_suites(cfg: SuiteConfig) -> dict:
    """Execute the configured suites and assemble the (sorted) report."""
    names = sorted(set(cfg.suites))
    system = cfg.make_system()
    results: list[dict] = []
    for name in names:
        results.extend(SUITES[name](cfg, system, suite_rng(cfg.seed, name)))
    results.sort(key=lambda e: (e["suite"], e["name"]))
    return {
        "schema": 1,
        "seed": cfg.seed,
        "suites": names,
        "entries": results,
    }
