"""Named verification suites behind the batch driver.

Each suite takes a validated configuration and the configured Gabor
system, and returns report entries: plain dicts with a measured value, a
threshold, a comparator, and the resulting pass flag.  Informational
measurements use the comparator ``report`` and always pass.  One system
serves every suite of a run, so its frame-operator fibers, certificate and
dual window are built once.  Every entry is about that system: the
frame-bounds suite reports its lower bound and condition number, and
builds no system of its own.

No suite draws at random, so a report is a function of the config alone
(its ``seed`` and ``samples`` keys are accepted and read by nothing).  Every
constant is a closed form checked against a witness evaluated on the grid,
or an enclosure [lower, upper] whose lower end a witness attains:

* the extremal constants of embedding-chain and window-independence are
  closed forms in the window profile (``spaces._solid_profile``), and the
  solid shortcut is checked on two fixed witnesses;
* the Fourier-side entries come from the sampling matrices of the two
  norms of one periodic series (``_fourier_entries``): the Parseval
  deviation from their singular values, the Fourier-vs-bump bands from an
  operator-norm enclosure that a lattice plane wave attains when the
  matrix is square; colliding labels give one failing diagnostic;
* the operator-continuity constant lies between the best of four Gaussian
  witnesses and an a-priori bound (``_continuity_bound``);
* the worst reconstruction error is enclosed on the Zak fibers
  (``gabor._reconstruction_enclosure``), and both Wexler-Raz entries read
  the one adjoint-lattice defect array (``gabor._wexler_raz_defect``).

README, "Closed-form constants" and "Fourier-side enclosures", derives them.

Signals and witnesses are evaluated as stacks, one batched kernel call per
window or space (``grid._superpose``, ``_grid_norms``,
``smoothness._decay_profiles``); each kernel treats a row alone, so a stack
gives the bytes its rows give one at a time.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonAlignedLattice, Unresolved
from .gabor import (
    FRAME_THRESHOLD,
    FrameCertificate,
    GaborSystem,
    _reconstruction_enclosure,
    _wexler_raz_defect,
    dual_window,
    frame_bounds,
    reconstruction_error,
)
from .grid import (
    CoeffArray,
    GridLattice,
    GridSignal,
    PeriodicGrid,
    _lattice_fold,
    _superpose,
    sample_bump,
    sample_gaussian,
    sample_oscillation,
    sample_rectangle,
)
from .lattice import PowerWeight
from .smoothness import MAX_DERIVATIVE_ORDER, _convolution_rows, _decay_profiles, _schwartz_rows
from .spaces import (
    SpaceSpec,
    _bump_series,
    _fourier_side_series,
    _norm_weight,
    _p_norm,
    _row_norms,
    _series_matrix,
    _solid_profile,
    _weight_table,
    continuous_norm,
    decay_weighted_sup,
    discrete_norm,
    fourier_side_norm,
    growth_weighted_sup,
    solid_discrete_norm,
)
from .stft import _gamma, derivative_identity_defect

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

# The closed schema: the keys of each config object ("" is the root; each
# entry of "spaces" is closed per kind by ``SpaceSpec.from_dict``);
# ``output`` is read by the command line.  ``seed`` and ``samples`` are
# validated and read by nothing: no suite draws at random, and existing
# configs (the benchmark's among them) still set them.
_KEYS = {
    "": ("schema", "seed", "grid", "system", "spaces", "suites", "samples", "output"),
    "grid": ("dim", "period", "points_per_axis"),
    "system": ("window", "time_step", "freq_step"),
    "samples": ("ratio_scan", "continuity", "reconstruction"),
    "output": ("report", "csv"),
}

# Window kinds: the sampler and its parameters with their defaults; a
# rectangle's width of None is the time step (``SuiteConfig.lattice_step``).
_WINDOWS = {
    "gaussian": (sample_gaussian, {"center": 0.0, "width": 1.0, "normalize": False}),
    "bump": (sample_bump, {"center": 0.0, "radius": 0.45}),
    "rectangle": (sample_rectangle, {"width": None, "start": 0.0, "normalize": False}),
}


def _number(value) -> bool:
    """A finite int or float; JSON booleans are not numbers."""
    return type(value) is int or type(value) is float and math.isfinite(value)


def _object(data, name: str, keys) -> dict:
    """``data`` as the config object ``name`` ("" for the root) with no key
    outside ``keys``; anything else is a ConfigError naming the dotted key."""
    if not isinstance(data, dict):
        raise ConfigError(f"{name or 'config root'}: must be an object, got {type(data).__name__}")
    for key in data:
        if key not in keys:
            raise ConfigError(f"{name + '.' if name else ''}{key}: unknown key")
    return data


def _space(i: int, entry) -> SpaceSpec:
    try:
        return SpaceSpec.from_dict(entry, f"spaces[{i}]")
    except ValueError as exc:
        raise ConfigError(f"spaces[{i}]: {exc}") from None


@dataclass(frozen=True)
class SuiteConfig:
    """Validated batch configuration; see README for the JSON schema."""

    dim: int = 1
    period: float = 16.0
    points_per_axis: int = 256
    window: dict = field(default_factory=lambda: {"kind": "gaussian"})
    time_step: float = 1.0
    freq_step: float = 0.5
    spaces: tuple = (SpaceSpec("Lp_w", 2.0),)
    suites: tuple = SUITE_NAMES

    def __post_init__(self) -> None:
        self.validate()

    @property
    def lattice_step(self) -> float:
        """The step of the lattice ``time_step`` generates on the grid: 3.0
        on a 16-periodic grid of 256 points generates the same lattice as 1.0."""
        L = self.points_per_axis
        index = round(self.time_step * L / self.period)
        return self.period / (L // math.gcd(index, L))

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteConfig":
        _object(data, "", _KEYS[""])
        if data.get("schema", 1) != 1:
            raise ConfigError(f"schema: unsupported version {data.get('schema')!r}")
        grid, system, samples, output = (_object(data.get(key, {}), key, _KEYS[key])
                                         for key in ("grid", "system", "samples", "output"))
        for key, value in output.items():
            if not (value is None or isinstance(value, str)):
                raise ConfigError(f"output.{key}: must be a path or null, got {value!r}")
        seed = data.get("seed", 0)
        if not (type(seed) is int and seed >= 0):
            raise ConfigError("seed: must be a non-negative integer")
        for key, value in samples.items():
            if not (type(value) is int and value > 0):
                raise ConfigError(f"samples.{key}: must be a positive integer")
        fields = {**grid, **system}
        for key in ("spaces", "suites"):
            if not isinstance(data.get(key, []), list):
                raise ConfigError(f"{key}: must be a list")
        if "spaces" in data:
            fields["spaces"] = tuple(_space(i, entry) for i, entry in enumerate(data["spaces"]))
        if "suites" in data:
            fields["suites"] = tuple(data["suites"])
        return cls(**fields)

    def validate(self) -> None:
        if not (type(self.dim) is int and self.dim in (1, 2)):
            raise ConfigError(f"grid.dim: must be 1 or 2, got {self.dim!r}")
        if not (_number(self.period) and self.period > 0):
            raise ConfigError(f"grid.period: must be positive, got {self.period!r}")
        if not (type(self.points_per_axis) is int and self.points_per_axis >= 2):
            raise ConfigError("grid.points_per_axis: must be an integer >= 2")
        for key, unit in (("time_step", self.period / self.points_per_axis),
                          ("freq_step", 1.0 / self.period)):
            step = getattr(self, key)
            if not (_number(step) and round(step / unit) >= 1
                    and abs(step / unit - round(step / unit)) <= 1e-9):
                raise ConfigError(f"system.{key}: {step!r} is not a positive multiple of {unit}")
        for i, spec in enumerate(self.spaces):
            if spec.kind == "MixedLp" and self.dim != 2:
                raise ConfigError(f"spaces[{i}].kind: MixedLp needs grid.dim 2, got {self.dim}")
        self._window()
        if not self.suites:
            raise ConfigError("suites: must name at least one suite")
        unknown = [name for name in self.suites if name not in SUITE_NAMES]
        if unknown:
            raise ConfigError(f"suites: unknown names {unknown}")

    def _window(self) -> tuple:
        """The window's sampler and its arguments: the keys of its kind over
        the kind's defaults (``_WINDOWS``), each of an admissible type."""
        if not isinstance(self.window, dict):
            raise ConfigError("system.window: must be an object")
        kind = self.window.get("kind")
        if not (isinstance(kind, str) and kind in _WINDOWS):
            raise ConfigError(f"system.window.kind: unknown kind {kind!r}")
        sampler, defaults = _WINDOWS[kind]
        _object(self.window, "system.window", ("kind", *defaults))
        params = {key: self.window.get(key, default) for key, default in defaults.items()}
        if kind == "rectangle" and params["width"] is None:
            params["width"] = self.lattice_step
        for key, value in params.items():
            if key == "normalize":
                valid, expected = isinstance(value, bool), "true or false"
            elif key in ("center", "start"):
                coords = value if isinstance(value, list) and len(value) == self.dim else [value]
                valid, expected = all(map(_number, coords)), f"a number or {self.dim} numbers"
            elif key == "radius":
                valid, expected = _number(value) and 0 < value < self.period / 2, "in (0, period/2)"
            elif kind == "rectangle":
                valid, expected = _number(value) and 0 < value <= self.period, "in (0, period]"
            else:
                valid, expected = _number(value) and value > 0, "positive"
            if not valid:
                raise ConfigError(f"system.window.{key}: must be {expected}, got {value!r}")
        return sampler, params

    def make_grid(self) -> PeriodicGrid:
        return PeriodicGrid(self.dim, float(self.period), self.points_per_axis)

    def make_window(self, grid: PeriodicGrid) -> GridSignal:
        sampler, params = self._window()
        return sampler(grid, **params)

    def make_system(self) -> GaborSystem:
        grid = self.make_grid()
        return GaborSystem.separable(self.make_window(grid), self.lattice_step, self.freq_step)


_COMPARATORS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}


def check(suite: str, name: str, value: float, threshold: float | None,
          comparator: str, details: dict | None = None) -> dict:
    """A report entry; the comparator ``report`` takes no threshold and always passes."""
    value = float(value)
    threshold = None if threshold is None else float(threshold)
    passed = comparator == "report" or _COMPARATORS[comparator](value, threshold)
    return {
        "suite": suite,
        "name": name,
        "passed": bool(passed),
        "value": value,
        "threshold": threshold,
        "comparator": comparator,
        "details": details or {},
    }


def _not_a_frame_entry(suite: str, cert: FrameCertificate) -> dict:
    return check(suite, "frame", cert.lower, FRAME_THRESHOLD, ">",
                 details={"B": cert.upper, "redundancy": cert.redundancy})


# Individual suites -----------------------------------------------------------

def run_reconstruction(cfg: SuiteConfig, system: GaborSystem) -> list[dict]:
    cert = frame_bounds(system)
    if not cert.is_frame:
        return [_not_a_frame_entry("reconstruction", cert)]
    gamma = dual_window(system)
    lower, upper = _reconstruction_enclosure(system, gamma)
    # The doubled dual reconstructs 2f, an error of exactly 1 for every f;
    # the window is the one witness, a round trip through the kernels.
    doubled = GridSignal(system.grid, 2.0 * gamma.values)
    drift = abs(reconstruction_error(system, doubled, system.window) - 1.0)
    return [
        check("reconstruction", "max_relative_error", upper, 1e-8, "<=",
              details={"method": "fiber-enclosure", "lower": lower, "upper": upper,
                       "fiber_shape": list(cert.fiber_shape)}),
        check("reconstruction", "scaled_dual_error_is_one", drift, 1e-6, "<="),
    ]


def run_wexler_raz(cfg: SuiteConfig, system: GaborSystem) -> list[dict]:
    cert = frame_bounds(system)
    if not cert.is_frame:
        return [_not_a_frame_entry("wexler-raz", cert)]
    defect = np.abs(_wexler_raz_defect(system, dual_window(system)))
    # Adjoint-lattice identity: analysis after synthesis over the adjoint
    # lattice is 1/redundancy times the identity, so M = redundancy C D - I
    # vanishes.  pi(mu)* pi(lambda) is a phase times pi(lambda - mu), so
    # every row of M is its column 0 permuted, each entry times a phase, and
    # the sup over c of ||M c||_inf / ||c||_inf, a row's l1 norm, is ||M e_0||_1.
    # Synthesis over the adjoint dual maps e_0 to gamma, so M e_0 is
    # redundancy times the Wexler-Raz defect.
    return [
        check("wexler-raz", "adjoint_identity_defect", system.redundancy * np.sum(defect),
              1e-8, "<=", details={"method": "unit-sequence"}),
        check("wexler-raz", "residual", float(np.max(defect)), 1e-8, "<="),
    ]


def run_frame_bounds(cfg: SuiteConfig, system: GaborSystem) -> list[dict]:
    suite = "frame-bounds"
    cert = frame_bounds(system)
    lower = check(suite, "lower_bound_positive", cert.lower, FRAME_THRESHOLD, ">",
                  details={"B": cert.upper, "method": cert.method,
                           "fiber_shape": list(cert.fiber_shape)})
    if not cert.is_frame:
        # A non-frame has no condition number to report.
        return [lower, _not_a_frame_entry(suite, cert)]
    return [lower, check(suite, "condition_number", cert.upper / cert.lower, 10.0, "<")]


def _grid_norms(rows: np.ndarray, grid: PeriodicGrid, spec: SpaceSpec) -> np.ndarray:
    """The ``spec`` norms of the (S, size) witness rows ``grid._superpose``
    built, on the grid: how witnesses are evaluated, without the window
    profile the closed forms are built from.  Lp_w rows are left untouched."""
    return _row_norms(rows, grid, spec, _norm_weight(grid, spec))


def _attained(suite: str, name: str, constant: float, attained: float,
              details: dict) -> dict:
    """The relative gap between a closed form and the value its witness attains."""
    return check(suite, name, abs(attained - constant) / constant, 1e-12, "<=",
                 details={"attained": attained, **details})


def run_window_independence(cfg: SuiteConfig, system: GaborSystem) -> list[dict]:
    suite = "window-independence"
    grid = system.grid
    lattice = system.time_lattice
    chi1 = sample_bump(grid, radius=0.3 * cfg.lattice_step)
    chi2 = sample_bump(grid, radius=0.45 * cfg.lattice_step)
    hat1, hat2 = (np.fft.fftn(chi.reshaped()) for chi in (chi1, chi2))
    entries = []
    # Each discrete norm weights |c_k| by its window's profile, so their
    # ratio ranges over the profile ratios q_k: K = max_k max(q_k, 1/q_k),
    # attained at a unit sequence; the six are superposed as one stack per
    # window.
    specs = [SpaceSpec("Lp_w", p, weight=PowerWeight(tau)) for p in (1.0, 2.0, 4.0)
             for tau in (0.0, 2.0)]
    bands = []
    for spec in specs:
        q = (_solid_profile(chi1, lattice, spec)[0][:, 0]
             / _solid_profile(chi2, lattice, spec)[0][:, 0])
        bands.append(np.maximum(q, 1.0 / q))
    ks = [int(np.argmax(band)) for band in bands]
    units = np.eye(lattice.count)[ks]
    rows = np.stack([_superpose(lattice, units, hat) for hat in (hat1, hat2)], axis=1)
    for spec, band, k, pair in zip(specs, bands, ks, rows):
        n1, n2 = _grid_norms(pair, grid, spec)
        r = n1 / n2
        entries.append(_attained(suite, f"K_attained_L{spec.p:g}_tau{spec.tau:g}", band[k],
                                 max(r, 1.0 / r), {"K": float(band[k]), "witness_k": k,
                                                   "method": "closed-form"}))

    # Solid shortcut: unweighted Lp discrete norms factor exactly through
    # the window Lp norm, for every c, since every translate of chi carries
    # the same profile; e_0 and the all-ones sequence witness it.  Weighted
    # ones weight |c_k| by h^(n/2) p_k against the shortcut's (1+|x_k|)^2,
    # so their ratio ranges over the quotients.
    chi = chi2
    e0 = np.arange(lattice.count) == 0
    c = CoeffArray.over_lattice(lattice, np.stack([e0, np.ones(lattice.count)], axis=1))
    for p in (1.0, 2.0, 4.0):
        spec = SpaceSpec("Lp_w", p)
        factor = continuous_norm(chi, spec)
        direct = discrete_norm(c, spec, chi)
        worst = float(np.max(np.abs(direct / (factor * solid_discrete_norm(c, spec)) - 1.0)))
        entries.append(
            check(suite, f"solid_shortcut_exact_L{p:g}", worst, 1e-12, "<=",
                  details={"method": "fixed-witnesses"})
        )
    spec_w = SpaceSpec("Lp_w", 2.0, weight=PowerWeight(2.0))
    quotients = (grid.spacing ** (grid.dim / 2) * _solid_profile(chi, lattice, spec_w)[0][:, 0]
                 / spec_w.weight(lattice.centered_points))
    low, high = float(np.min(quotients)), float(np.max(quotients))
    entries.append(
        check(suite, "solid_shortcut_weighted_band", high / low, None, "report",
              details={"low": low, "high": high, "method": "closed-form"})
    )

    # Fourier-coefficient realization against the bump realization.  Without
    # grid-frequency lattice points and an aligned dual, fourier_side_norm
    # raises NonAlignedLattice, and one diagnostic whose value counts the
    # three entries it replaces says why; with labels that collide modulo L
    # it raises Unresolved, and one failing diagnostic names the L it needs.
    try:
        entries += _fourier_entries(cfg, lattice, chi, suite)
    except NonAlignedLattice as exc:
        entries.append(check(suite, "fourier_entries_skipped", 3, None, "report",
                             details={"reason": f"NonAlignedLattice: {exc}"}))
    except Unresolved as exc:
        entries.append(_unresolved_entry(cfg, suite, exc))
    return entries


def _unresolved_entry(cfg: SuiteConfig, suite: str, exc: Unresolved) -> dict:
    """The failing diagnostic of colliding Fourier-side labels: the labels
    a P j of a lattice of step a are distinct modulo L when L / gcd(a P, L)
    >= P / a, which is L >= P^2 when a P divides L."""
    step = round(cfg.lattice_step * cfg.period)  # a P: the labels are integers
    distinct = cfg.points_per_axis // math.gcd(step, cfg.points_per_axis)
    needed = round(cfg.period / cfg.lattice_step)
    return check(suite, "fourier_labels_resolved", distinct, needed, ">=",
                 details={"reason": f"Unresolved: {exc}",
                          "resolved_at_points_per_axis": needed * step})


def _fourier_entries(cfg, lattice, chi, suite) -> list[dict]:
    """The Parseval identity and the two Fourier-vs-bump bands, from the
    sampling matrices of the two norms (README, "Fourier-side enclosures")."""
    f2 = SpaceSpec("FourierLp_w", 2.0)
    vol_dual = 1.0 / cfg.lattice_step ** cfg.dim
    cell = lattice.grid.spacing ** cfg.dim
    # fourier_side_norm(c) = sqrt(vol) ||c||_2 for every c iff every singular
    # value of sqrt(cell / vol) A is 1, the square roots of the eigenvalues
    # of its Gram matrix; fourier_side_norm itself is read at the right
    # singular vectors, so it attains each singular value.
    normalized = _series_matrix(_fourier_side_series(lattice, f2)) * math.sqrt(cell / vol_dual)
    _, squares, vh = np.linalg.svd(normalized.conj().T @ normalized)
    sigma = np.sqrt(squares)
    unit = CoeffArray.over_lattice(lattice, vh.conj().T)
    attained = fourier_side_norm(unit, f2) / math.sqrt(vol_dual)
    deviation = max(abs(sigma[0] - 1.0), abs(sigma[-1] - 1.0), np.max(np.abs(attained - 1.0)))
    entries = [check(suite, "fourier_parseval_deviation", deviation, 1e-10, "<=",
                     details={"method": "singular-values", "sigma_min": float(sigma[-1]),
                              "sigma_max": float(sigma[0])})]
    for p in (1.0, 4.0):
        lower, upper, witness = _fourier_band(lattice, chi, SpaceSpec("FourierLp_w", p))
        entries.append(
            check(suite, f"fourier_vs_bump_band_L{p:g}", upper, 1e6, "<",
                  details={"method": "enclosure", "lower": lower, "upper": upper,
                           "witness": witness})
        )
    return entries


def _fourier_band(lattice: GridLattice, chi: GridSignal, spec: SpaceSpec
                  ) -> tuple[float, float, list[int]]:
    """(lower, upper, witness) around the band sup / inf over c of
    fourier_side_norm(c) / discrete_norm(c, chi).

    Both norms are weighted l^p norms of one periodic series, A c and B c,
    with B square and A injective once the labels are distinct, and their
    cells cancel in the band.  With M = A B^-1 and its left inverse
    N = B (A^H A)^-1 A^H (E = N M - I, the rounding of the inverses), the
    band is at most ||M||_p ||N||_p / (1 - ||E||_p), each norm widened by
    its rounding; when A is square, M is diagonal up to a permutation and
    the bound is attained.  The lower end is the band of the columns of
    B^-1, lattice plane waves, read through both norms; witness holds the
    two columns.
    """
    a = _series_matrix(_fourier_side_series(lattice, spec))
    b = _series_matrix(_bump_series(chi, lattice, spec))
    b_inv = np.linalg.inv(b)
    m = a @ b_inv
    n = np.linalg.solve((a.conj().T @ a).T, b.T).T @ a.conj().T
    e = n @ m - np.eye(lattice.count)
    # The inner products behind each entry and the sums behind each norm.
    widen = 1 + _gamma(4 * (a.shape[0] + lattice.count) + 16)
    norm_m, norm_n, norm_e = (_operator_bound(t, spec.p) * widen for t in (m, n, e))
    upper = norm_m * norm_n / (1.0 - norm_e)
    columns = CoeffArray.over_lattice(lattice, b_inv)
    ratios = fourier_side_norm(columns, spec) / discrete_norm(columns, spec, chi)
    hi, lo = int(np.argmax(ratios)), int(np.argmin(ratios))
    return float(ratios[hi] / ratios[lo]), float(upper), [hi, lo]


def _operator_bound(t: np.ndarray, p: float) -> float:
    """An upper bound on the l^p operator norm of the matrix t, p = 1 or
    p >= 2: at p = 1 the norm itself, the largest column sum; above 2 the
    Riesz-Thorin bound ||t||_2^(2/p) ||t||_inf^(1 - 2/p), the largest
    singular value (from the smaller Gram matrix) against the largest row
    sum."""
    if p == 1:
        return float(np.max(np.sum(np.abs(t), axis=0)))
    rows = np.max(np.sum(np.abs(t), axis=1))
    gram = t.conj().T @ t if t.shape[0] >= t.shape[1] else t @ t.conj().T
    return float(np.linalg.norm(gram, 2) ** (1 / p) * rows ** (1 - 2 / p))


def run_embedding_chain(cfg: SuiteConfig, system: GaborSystem) -> list[dict]:
    suite = "embedding-chain"
    grid = system.grid
    lattice = system.time_lattice
    chi = sample_bump(grid, radius=0.45 * cfg.lattice_step)
    chi_hat = np.fft.fftn(chi.reshaped())
    spec = SpaceSpec("Lp_w", 2.0)
    cell = grid.spacing ** grid.dim

    # ||c||_{E_d} is the l^p norm of h^(n/p) p_k |c_k|; w_k = (1+|x_k|)^3.
    # kappa1 = inf_c sup_k w_k |c_k| / ||c|| is attained at c = 1/w, kappa2 =
    # inf_c ||c|| / sup_k |c_k| / w_k at the unit sequence of least p_k w_k.
    profile = _solid_profile(chi, lattice, spec)[0][:, 0]
    w = PowerWeight(3.0)(lattice.centered_points)
    kappa1 = 1.0 / _p_norm(profile / w, spec.p, cell)
    k = int(np.argmin(profile * w))
    kappa2 = cell ** (1.0 / spec.p) * profile[k] * w[k]
    c1, c2 = 1.0 / w, (np.arange(lattice.count) == k).astype(float)

    # Operator continuity: the sup over c of ||sum_k c_k T_{x_k} phi|| /
    # ||c||_{E_d} is ||S_phi|| / p (``_superposition_norms``), unweighted, as
    # every p_k is one p.  The sampled convolution e -> (h^n (e * phi)(x_k))_k
    # is h^n times the adjoint of S_phi*, phi*(t) = conj(phi(-t)), whose
    # spectrum has phi's modulus: its sup over e is h^n p ||S_phi||, the
    # superposition's times ||chi||^2.  The sup over phi of ||S_phi|| over
    # the Schwartz seminorm lies between the best Gaussian witness and the
    # bound U (``_continuity_bound``).
    order = 4
    phi = np.stack([sample_gaussian(grid, width=width).values for width in _PHI_WIDTHS])
    spectra = np.fft.fftn(phi.reshape((-1,) + grid.shape), axes=tuple(range(1, grid.dim + 1)))
    norms, residues = _superposition_norms(lattice, spectra)
    ratios = norms / _schwartz_rows(grid, phi, spectra, order)
    best = int(np.argmax(ratios))
    bound = _continuity_bound(lattice, order)
    phi_hat = spectra[best]
    p = profile[0]
    # Witnesses at the best phi: the lattice plane wave at its worst
    # residue, and its image under the convolution's adjoint.
    shape = _lattice_fold(lattice.index_points, grid.points_per_axis)[0]
    r = np.unravel_index(residues[best], shape)
    L = grid.points_per_axis
    c = np.exp(2j * np.pi * (lattice.index_points @ np.array(r) % L) / L)
    # The phi side, S_phi c and e = S_phi* c, as one stack; then every chi
    # side witness as another.
    phi_side = _superpose(lattice, np.stack([c, c]), np.stack([phi_hat, np.conj(phi_hat)]))
    e_hat = np.fft.fftn(phi_side[1:].reshape((1,) + grid.shape),
                        axes=tuple(range(1, grid.dim + 1)))
    conv = _convolution_rows(lattice, e_hat, phi_hat[None])[0]
    norm_phi_c, norm_e = _grid_norms(phi_side, grid, spec)
    norm_c1, norm_c2, norm_c, norm_conv = _grid_norms(
        _superpose(lattice, np.stack([c1, c2, c, conv]), chi_hat), grid, spec)
    entries = [
        check(suite, "kappa1_positive", kappa1, 0.0, ">",
              details={"method": "closed-form", "witness": "c_k = (1+|x_k|)^-3"}),
        check(suite, "kappa2_positive", kappa2, 0.0, ">",
              details={"method": "closed-form", "witness_k": k}),
        _attained(suite, "kappa1_attained", kappa1, decay_weighted_sup(
            CoeffArray.over_lattice(lattice, c1), 3) / norm_c1, {}),
        _attained(suite, "kappa2_attained", kappa2,
                  norm_c2 / growth_weighted_sup(CoeffArray.over_lattice(lattice, c2), 3), {}),
    ]
    details = {"method": "enclosure", "order": order, "witness_width": _PHI_WIDTHS[best],
               "residue": [int(v) for v in r]}
    for label, scale, attained in (("superposition", 1.0 / p, norm_phi_c / norm_c),
                                   ("convolution", cell * p, norm_conv / norm_e)):
        entries.append(_attained(suite, f"{label}_attained", norms[best] * scale, attained,
                                 {"lower": float(ratios[best] * scale),
                                  "upper": float(bound * scale), **details}))
    return entries


def _superposition_norms(lattice: GridLattice, spectra: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """(norms, residues) for the (S,) + grid.shape forward DFTs of S signals
    phi: the l^2 norm of S_phi, c -> sum_k c_k T_{x_k}(phi), and the flat
    index in the fold shape of the residue that attains it.

    S_phi multiplies the comb of c's DFT, periodic with the lattice's fold
    (``grid._lattice_fold``), by phi's, so by Parseval ||S_phi||^2 is the
    largest entry of |phi^|^2 folded onto the residues, times count / size.
    """
    grid = lattice.grid
    split = _lattice_fold(lattice.index_points, grid.points_per_axis)[1]
    power = np.abs(spectra) ** 2
    folds = power.reshape((-1,) + split).sum(axis=tuple(range(1, 2 * grid.dim + 1, 2)))
    folds = folds.reshape(len(folds), -1)
    residues = np.argmax(folds, axis=1)
    norms = np.sqrt(folds[np.arange(len(folds)), residues] * (lattice.count / grid.size))
    return norms, residues


# The widths of the Gaussian witnesses of the operator-continuity constant.
_PHI_WIDTHS = (0.25, 0.5, 1.0, 2.0)


def _continuity_bound(lattice: GridLattice, order: int) -> float:
    """U >= ||S_phi|| / rho(phi) for every signal phi on the grid, rho the
    Schwartz seminorm of ``order`` (``smoothness._schwartz_rows``).

    The spectral derivatives satisfy DFT(d^alpha phi) = (2 pi i xi)^alpha
    phi^ exactly, and |d^alpha phi(x)| <= rho (1 + |x|)^-order for
    |alpha| <= order, so |phi^(eta)| <= rho W / m(eta), with W the sum over
    the nodes of (1 + |x|)^-order and m(eta) = max over |alpha| <= order of
    |(2 pi xi)^alpha| = max(1, (2 pi max_j |xi_j|)^order).  Folded as in
    ``_superposition_norms``, U^2 = (count / size) max_r sum_{eta = r}
    (W / m(eta))^2.  U is widened by its rounding: sums of at most size
    positive terms, each a handful of rounded operations.
    """
    grid = lattice.grid
    total = np.sum(1.0 / _weight_table(grid, float(order)))
    xi = 2 * np.pi * np.max(np.abs(grid.freq_integers()), axis=1) / grid.period
    majorant = total / np.maximum(1.0, xi ** order)
    bound = _superposition_norms(lattice, majorant.reshape((1,) + grid.shape))[0][0]
    return float(bound) * (1 + _gamma(3 * grid.size + 16))


_PROFILE_SPACE = SpaceSpec("Lp_w", 1.0, weight=PowerWeight(3.0))


def run_decay(cfg: SuiteConfig, system: GaborSystem) -> list[dict]:
    suite = "decay"
    f = sample_gaussian(system.grid, width=math.sqrt(2.0), normalize=True)
    [prof] = _decay_profiles(system, f.values[None], _PROFILE_SPACE)
    finite = float(np.all(np.isfinite(prof.decay_sups)))
    return [
        check(suite, "gaussian_sups_finite", finite, 1.0, ">="),
        check(suite, "gaussian_top_to_bottom_ratio",
              prof.decay_sups[-1] / prof.decay_sups[0], 10.0, "<=",
              details={"fitted_order": prof.fitted_order}),
    ]


def run_growth(cfg: SuiteConfig, system: GaborSystem) -> list[dict]:
    suite = "growth"
    grid = system.grid
    gauss = sample_gaussian(grid, width=math.sqrt(2.0), normalize=True)
    osc = sample_oscillation(grid, 4.0)
    top_band = GridSignal(grid, gauss.values * sample_oscillation(grid, 6.0).values)
    top_band = top_band * (1.0 / top_band.l2_norm())
    gauss_prof, osc_prof, band_prof = _decay_profiles(
        system, np.stack([gauss.values, osc.values, top_band.values]), _PROFILE_SPACE)
    return [
        _order_check(suite, "gaussian_bounded_order", gauss_prof.bounded_order, 0.0),
        check(suite, "oscillation_fails_decay",
              osc_prof.decay_sups[-1] / osc_prof.decay_sups[0], 10.0, ">"),
        _order_check(suite, "oscillation_bounded_order", osc_prof.bounded_order, 6.0),
        check(suite, "oscillation_to_gaussian_weight2",
              osc_prof.decay_sups[2] / gauss_prof.decay_sups[2], 1e3, ">=",
              details={"oscillation": osc_prof.decay_sups[2],
                       "gaussian": gauss_prof.decay_sups[2]}),
        _order_check(suite, "top_band_bounded_order", band_prof.bounded_order, 6.0),
    ]


def _order_check(suite: str, name: str, order: int | None, threshold: float) -> dict:
    """``order <= threshold``; when no order bounds the profile, the next
    order, finite for the report and above every threshold, so it fails."""
    if order is None:
        return check(suite, name, MAX_DERIVATIVE_ORDER + 1, threshold, "<=",
                     details={"unbounded": f"no order up to {MAX_DERIVATIVE_ORDER} "
                                           f"bounds the profile"})
    return check(suite, name, order, threshold, "<=")


def run_derivative_identity(cfg: SuiteConfig, system: GaborSystem) -> list[dict]:
    suite = "derivative-identity"
    grid = system.grid
    f = sample_gaussian(grid)
    psi = system.window
    entries = []
    for label, order, threshold in (("order1_defect", (1,) * cfg.dim, 1e-8),
                                    ("order2_defect", (2,) + (0,) * (cfg.dim - 1), 1e-6)):
        lower, upper = derivative_identity_defect(f, psi, order)
        entries.append(check(suite, label, upper, threshold, "<=",
                             details={"method": "enclosure", "lower": lower, "upper": upper}))
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
        results.extend(SUITES[name](cfg, system))
    results.sort(key=lambda e: (e["suite"], e["name"]))
    return {
        "schema": 1,
        "suites": names,
        "entries": results,
    }
