"""Named verification suites behind the batch driver.

Each suite takes a validated configuration and a dedicated random
generator and returns report entries: plain dicts with a measured value,
a threshold, a comparator, and the resulting pass flag.  Informational
measurements use the comparator ``report`` and always pass.

Suites draw their randomness from a generator seeded by the config seed
and the suite name, so results do not depend on which other suites run or
on the execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonAlignedAdjointLattice, NonAlignedLattice, NotAFrame
from .gabor import (
    GaborSystem,
    _dense_frame_matrix,
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
    idft,
    lattice_superposition,
    sample_bump,
    sample_gaussian,
    sample_oscillation,
    sample_rectangle,
)
from .lattice import PowerWeight
from .smoothness import (
    convolve_samples,
    decay_profile,
    schwartz_seminorm,
)
from .spaces import (
    DiscreteNormRequest,
    SpaceSpec,
    continuous_norm,
    decay_weighted_sup,
    discrete_norm,
    fourier_side_norm,
    growth_weighted_sup,
    solid_discrete_norm,
)

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
    "cg": 1e-12,
    "reconstruction": 1e-8,
    "wexler_raz": 1e-8,
    "frame": 1e-10,
}

_DEFAULT_SAMPLES = {
    "ratio_scan": 200,
    "reconstruction": 50,
    "continuity": 100,
}


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
    report_path: str | None = None
    csv_path: str | None = None

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
        grid = data.get("grid", {})
        system = data.get("system", {})
        out = data.get("output", {})
        try:
            spaces = tuple(
                SpaceSpec.from_dict(s) for s in data.get("spaces", [{"kind": "Lp_w", "p": 2.0}])
            )
        except ValueError as exc:
            raise ConfigError(f"spaces: {exc}") from None
        cfg = cls(
            seed=data.get("seed", 42),
            dim=grid.get("dim", 1),
            period=grid.get("period", 16.0),
            points_per_axis=grid.get("points_per_axis", 256),
            window=system.get("window", {"kind": "gaussian"}),
            time_step=system.get("time_step", 1.0),
            freq_step=system.get("freq_step", 0.5),
            spaces=spaces,
            suites=tuple(data.get("suites", SUITE_NAMES)),
            tolerances=dict(data.get("tolerances", {})),
            samples=dict(data.get("samples", {})),
            report_path=out.get("report"),
            csv_path=out.get("csv"),
        )
        cfg.validate()
        return cfg

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
        for name, value in (("system.time_step", self.time_step),):
            steps = value / spacing
            if abs(steps - round(steps)) > 1e-9 or value <= 0:
                raise ConfigError(f"{name}: {value!r} is not a positive multiple "
                                  f"of the grid spacing {spacing}")
        bins = self.freq_step * self.period
        if abs(bins - round(bins)) > 1e-9 or self.freq_step <= 0:
            raise ConfigError(f"system.freq_step: {self.freq_step!r} is not a "
                              f"positive multiple of 1/period")
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


def random_signal(grid: PeriodicGrid, rng: np.random.Generator) -> GridSignal:
    return GridSignal(
        grid, rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    )


def smooth_random_signal(grid: PeriodicGrid, rng: np.random.Generator,
                         bandwidth: float = 8.0) -> GridSignal:
    m = grid.freq_integers()
    radius = np.linalg.norm(m, axis=-1)
    envelope = np.exp(-((radius / bandwidth) ** 2))
    spectrum = envelope * (
        rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    )
    return idft(grid, spectrum * grid.size)


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

def run_reconstruction(cfg: SuiteConfig, rng: np.random.Generator) -> list[dict]:
    system = cfg.make_system()
    tol = cfg.tol("reconstruction")
    try:
        gamma = dual_window(system, tol=cfg.tol("cg"))
    except NotAFrame:
        return _not_a_frame_entries("reconstruction", system, cfg.tol("frame"))
    errors = [
        reconstruction_error(system, gamma, random_signal(system.grid, rng))
        for _ in range(cfg.sample_count("reconstruction"))
    ]
    doubled = GridSignal(system.grid, 2.0 * gamma.values)
    drift = abs(
        reconstruction_error(system, doubled, random_signal(system.grid, rng)) - 1.0
    )
    return [
        check("reconstruction", "max_relative_error", max(errors), tol, "<=",
              details={"signals": len(errors)}),
        check("reconstruction", "scaled_dual_error_is_one", drift, 1e-6, "<="),
    ]


def run_wexler_raz(cfg: SuiteConfig, rng: np.random.Generator) -> list[dict]:
    system = cfg.make_system()
    tol = cfg.tol("wexler_raz")
    try:
        gamma = dual_window(system, tol=cfg.tol("cg"))
    except NotAFrame:
        return _not_a_frame_entries("wexler-raz", system, cfg.tol("frame"))
    try:
        residual = wexler_raz_residual(system.window, gamma, cfg.time_step, cfg.freq_step)
    except NonAlignedAdjointLattice as exc:
        raise ConfigError(f"system: adjoint lattice not grid-aligned ({exc})") from None
    # Adjoint-lattice identity: analysis after synthesis over the adjoint
    # lattice is (ab)^n times the identity on finitely supported sequences.
    adj = GaborSystem.separable(system.window, 1.0 / cfg.freq_step, 1.0 / cfg.time_step)
    adj_dual = GaborSystem.separable(gamma, 1.0 / cfg.freq_step, 1.0 / cfg.time_step)
    shape = (adj.time_lattice.count, adj.freq_lattice.count)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs = CoeffArray.over_product(adj.time_lattice, adj.freq_lattice, c)
    const = (cfg.time_step * cfg.freq_step) ** cfg.dim
    back = analyze(adj, synthesize(adj_dual, coeffs)).values / const
    identity_defect = float(np.max(np.abs(back - c)) / np.max(np.abs(c)))
    return [
        check("wexler-raz", "adjoint_identity_defect", identity_defect, tol, "<="),
        check("wexler-raz", "residual", residual, tol, "<="),
    ]


def run_frame_bounds(cfg: SuiteConfig, rng: np.random.Generator) -> list[dict]:
    suite = "frame-bounds"
    system = cfg.make_system()
    tol = cfg.tol("frame")
    cert = frame_bounds(system)
    entries = [
        check(suite, "lower_bound_positive", cert.lower, tol, ">",
              details={"B": cert.upper, "method": cert.method,
                       "blocks": cert.blocks, "block_size": cert.block_size}),
        check(suite, "condition_number", cert.upper / max(cert.lower, 1e-300), 10.0,
              "<"),
    ]

    under = GaborSystem.separable(system.window, 2 * cfg.time_step, 2 * cfg.freq_step)
    under_cert = frame_bounds(under)
    entries.append(
        check(suite, "undersampled_lower_bound", under_cert.lower, tol, "<=",
              details={"redundancy": under_cert.redundancy})
    )

    # Block bounds against the dense-eigen oracle on a small grid.
    if cfg.dim == 1:
        small_grid = PeriodicGrid(1, 12.0, 48)
    else:
        small_grid = PeriodicGrid(2, 6.0, 12)
    small = GaborSystem.separable(sample_gaussian(small_grid), 1.0, 0.5)
    dense = np.linalg.eigvalsh(_dense_frame_matrix(small))
    block = frame_bounds(small)
    entries.append(
        check(suite, "dense_vs_block_lower",
              abs(dense[0] - block.lower) / dense[0], 1e-6, "<=")
    )
    entries.append(
        check(suite, "dense_vs_block_upper",
              abs(dense[-1] - block.upper) / dense[-1], 1e-6, "<=")
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


def _random_columns(rng: np.random.Generator, lattice: GridLattice,
                    samples: int) -> CoeffArray:
    """``samples`` random complex sequences over the lattice, one per column,
    each drawn as standard_normal + 1j * standard_normal."""
    columns = np.empty((lattice.count, samples), dtype=complex)
    for s in range(samples):
        columns[:, s] = (rng.standard_normal(lattice.count)
                         + 1j * rng.standard_normal(lattice.count))
    return CoeffArray.over_lattice(lattice, columns)


def _columns(coeffs: CoeffArray) -> list[CoeffArray]:
    return [CoeffArray.over_lattice(coeffs.lattice, col) for col in coeffs.values.T]


def _ratio_band(rng, lattice, chi1, chi2, spec, count) -> float:
    c = _random_columns(rng, lattice, count)
    r = (discrete_norm(DiscreteNormRequest(spec, lattice, chi1, c))
         / discrete_norm(DiscreteNormRequest(spec, lattice, chi2, c)))
    return float(max(np.max(r), np.max(1.0 / r)))


def run_window_independence(cfg: SuiteConfig, rng: np.random.Generator) -> list[dict]:
    suite = "window-independence"
    grid = cfg.make_grid()
    lattice = GridLattice.cubic(grid, cfg.time_step)
    chi1 = sample_bump(grid, radius=0.3 * cfg.time_step)
    chi2 = sample_bump(grid, radius=0.45 * cfg.time_step)
    count = cfg.sample_count("ratio_scan")
    entries = []
    for p in (1.0, 2.0, 4.0):
        for tau in (0.0, 2.0):
            spec = SpaceSpec("Lp_w", p, weight=PowerWeight(tau))
            label = f"L{p:g}_tau{tau:g}"
            k1 = _ratio_band(rng, lattice, chi1, chi2, spec, count)
            k2 = _ratio_band(rng, lattice, chi1, chi2, spec, count)
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
        c = _random_columns(rng, lattice, 50)
        direct = discrete_norm(DiscreteNormRequest(spec, lattice, chi, c))
        solid = np.array([solid_discrete_norm(col, spec) for col in _columns(c)])
        worst = float(np.max(np.abs(direct / (factor * solid) - 1.0)))
        entries.append(
            check(suite, f"solid_shortcut_exact_L{p:g}", worst, 1e-12, "<=")
        )
    spec_w = SpaceSpec("Lp_w", 2.0, weight=PowerWeight(2.0))
    c = _random_columns(rng, lattice, 50)
    direct = discrete_norm(DiscreteNormRequest(spec_w, lattice, chi, c))
    ratios = direct / np.array([solid_discrete_norm(col, spec_w) for col in _columns(c)])
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
        worst = 0.0
        vol_dual = 1.0 / cfg.time_step ** cfg.dim
        for c in _columns(_random_columns(rng, lattice, 50)):
            got = fourier_side_norm(c, f2)
            expected = math.sqrt(vol_dual) * float(np.linalg.norm(c.values))
            worst = max(worst, abs(got / expected - 1.0))
        entries.append(check(suite, "fourier_parseval_deviation", worst, 1e-10, "<="))
        for p in (1.0, 4.0):
            fp = SpaceSpec("FourierLp_w", p)
            c = _random_columns(rng, lattice, count)
            fourier = np.array([fourier_side_norm(col, fp) for col in _columns(c)])
            ratios = fourier / discrete_norm(DiscreteNormRequest(fp, lattice, chi, c))
            low, high = float(np.min(ratios)), float(np.max(ratios))
            entries.append(
                check(suite, f"fourier_vs_bump_band_L{p:g}", high / low, 1e6, "<",
                      details={"low": low, "high": high})
            )


def run_embedding_chain(cfg: SuiteConfig, rng: np.random.Generator) -> list[dict]:
    suite = "embedding-chain"
    grid = cfg.make_grid()
    lattice = GridLattice.cubic(grid, cfg.time_step)
    chi = sample_bump(grid, radius=0.45 * cfg.time_step)
    spec = SpaceSpec("Lp_w", 2.0)
    count = cfg.sample_count("ratio_scan")

    def kappas(n):
        c = _random_columns(rng, lattice, n)
        d = discrete_norm(DiscreteNormRequest(spec, lattice, chi, c))
        cols = _columns(c)
        decay = np.array([decay_weighted_sup(col, 3) for col in cols])
        growth = np.array([growth_weighted_sup(col, 3) for col in cols])
        return float(np.min(decay / d)), float(np.min(d / growth))

    k1, k2 = kappas(count)
    k1d, k2d = kappas(count)
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
    cs = np.empty((lattice.count, n), dtype=complex)
    convs = np.empty((lattice.count, n), dtype=complex)
    seminorms = np.empty(n)
    out_norms = np.empty(n)
    e_norms = np.empty(n)
    for s in range(n):
        cs[:, s] = rng.standard_normal(lattice.count) + 1j * rng.standard_normal(lattice.count)
        phi = smooth_random_signal(grid, rng)
        e = random_signal(grid, rng)
        seminorms[s] = schwartz_seminorm(phi, order)
        c = CoeffArray.over_lattice(lattice, cs[:, s])
        out_norms[s] = continuous_norm(lattice_superposition(c, phi), spec)
        convs[:, s] = convolve_samples(e, phi, lattice).values
        e_norms[s] = continuous_norm(e, spec)
    in_norms = discrete_norm(
        DiscreteNormRequest(spec, lattice, chi, CoeffArray.over_lattice(lattice, cs)))
    conv_norms = discrete_norm(
        DiscreteNormRequest(spec, lattice, chi, CoeffArray.over_lattice(lattice, convs)))
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


_PROFILE_SPACE = SpaceSpec("Lp_w", 1.0, weight=PowerWeight(3.0))


def run_decay(cfg: SuiteConfig, rng: np.random.Generator) -> list[dict]:
    suite = "decay"
    system = cfg.make_system()
    f = sample_gaussian(system.grid, width=math.sqrt(2.0), normalize=True)
    prof = decay_profile(system, f, _PROFILE_SPACE)
    finite = float(np.all(np.isfinite(prof.decay_sups)))
    return [
        check(suite, "gaussian_sups_finite", finite, 1.0, ">="),
        check(suite, "gaussian_top_to_bottom_ratio",
              prof.decay_sups[-1] / prof.decay_sups[0], 10.0, "<=",
              details={"fitted_order": prof.fitted_order}),
    ]


def run_growth(cfg: SuiteConfig, rng: np.random.Generator) -> list[dict]:
    suite = "growth"
    system = cfg.make_system()
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


def run_derivative_identity(cfg: SuiteConfig, rng: np.random.Generator) -> list[dict]:
    from .stft import derivative_identity_defect

    suite = "derivative-identity"
    grid = cfg.make_grid()
    f = sample_gaussian(grid)
    psi = cfg.make_window(grid)
    one = (1,) * cfg.dim
    two = (2,) + (0,) * (cfg.dim - 1)
    return [
        check(suite, "order1_defect", derivative_identity_defect(f, psi, one),
              1e-8, "<="),
        check(suite, "order2_defect", derivative_identity_defect(f, psi, two),
              1e-6, "<="),
    ]


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
    results: list[dict] = []
    for name in names:
        results.extend(SUITES[name](cfg, suite_rng(cfg.seed, name)))
    results.sort(key=lambda e: (e["suite"], e["name"]))
    return {
        "schema": 1,
        "seed": cfg.seed,
        "suites": names,
        "entries": results,
    }
