"""Named verification suites behind the batch driver.

Each suite takes a validated configuration and the configured Gabor
system, and returns report entries: plain dicts with a measured value, a
threshold, a comparator, and the resulting pass flag.  Informational
measurements use the comparator ``report`` and always pass.  One system
serves every suite of a run, so its frame-operator fibers, certificate and
dual window are built once.  Every entry is about that system: the
frame-bounds suite reports its lower bound and condition number, and
builds no system of its own.

The two suites that sample, window-independence (its Fourier entries) and
embedding-chain (the smooth phi family), each draw from a ``NormalStream``
keyed by the config seed and the suite name, so results do not depend on
which other suites run or on the execution order; the other suites take no
stream.  The stream is counter-based: its i-th value is a pure function of
the key and i, so it is split-invariant (a draw of a values and then b
values equals one draw of a + b) and a family drawn in blocks equals the
family drawn at once.  A given seed's sampled entries differ from those of
earlier versions, whose suites drew from NumPy's generators; the verdicts
do not.  Monte-Carlo families are drawn with one ``standard_normal`` call
per batch and evaluated by the batched kernels; batches of grid signals run
in blocks of ``grid._block_rows(size)`` samples, so a family of any size
adds a bounded working set.

The extremal constants of embedding-chain and window-independence are
closed forms in the window profile (``spaces._solid_profile``), each checked
against its witness evaluated on the grid (README, "Closed-form
constants").  The reconstruction and wexler-raz suites draw nothing: the
worst reconstruction error is enclosed on the Zak fibers
(``gabor._reconstruction_enclosure``), and both Wexler-Raz entries read
the one adjoint-lattice defect array (``gabor._wexler_raz_defect``).  The
solid shortcut is checked on two fixed witnesses.  What is sampled: the
Fourier-Parseval identity, on 50 random sequences, the sup over smooth
phi (``samples.continuity``) and the Fourier-vs-bump bands
(``samples.ratio_scan``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonAlignedLattice
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
    _block_rows,
    _lattice_fold,
    _superpose,
    sample_bump,
    sample_gaussian,
    sample_oscillation,
    sample_rectangle,
)
from .lattice import PowerWeight
from .smoothness import MAX_DERIVATIVE_ORDER, _convolution_rows, _schwartz_rows, decay_profile
from .spaces import (
    SpaceSpec,
    _p_norm,
    _solid_profile,
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

_DEFAULT_SAMPLES = {"ratio_scan": 200, "continuity": 100}

# The closed schema: the keys of each config object ("" is the root; each
# entry of "spaces" is closed per kind by ``SpaceSpec.from_dict``);
# ``output`` is read by the command line.  ``samples.reconstruction`` is
# validated and read by no suite: the reconstruction suite samples nothing,
# and existing configs (perfbench's verify-2d among them) still set it.
_KEYS = {
    "": ("schema", "seed", "grid", "system", "spaces", "suites", "samples", "output"),
    "grid": ("dim", "period", "points_per_axis"),
    "system": ("window", "time_step", "freq_step"),
    "samples": (*_DEFAULT_SAMPLES, "reconstruction"),
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

    seed: int = 42
    dim: int = 1
    period: float = 16.0
    points_per_axis: int = 256
    window: dict = field(default_factory=lambda: {"kind": "gaussian"})
    time_step: float = 1.0
    freq_step: float = 0.5
    spaces: tuple = (SpaceSpec("Lp_w", 2.0),)
    suites: tuple = SUITE_NAMES
    samples: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    @property
    def lattice_step(self) -> float:
        """The step of the lattice ``time_step`` generates on the grid: 3.0
        on a 16-periodic grid of 256 points generates the same lattice as 1.0."""
        L = self.points_per_axis
        index = round(self.time_step * L / self.period)
        return self.period / (L // math.gcd(index, L))

    def sample_count(self, name: str) -> int:
        return self.samples.get(name, _DEFAULT_SAMPLES[name])

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
        fields = {**grid, **system, "samples": samples}
        for key in ("spaces", "suites"):
            if not isinstance(data.get(key, []), list):
                raise ConfigError(f"{key}: must be a list")
        if "seed" in data:
            fields["seed"] = data["seed"]
        if "spaces" in data:
            fields["spaces"] = tuple(_space(i, entry) for i, entry in enumerate(data["spaces"]))
        if "suites" in data:
            fields["suites"] = tuple(data["suites"])
        return cls(**fields)

    def validate(self) -> None:
        if not (type(self.seed) is int and self.seed >= 0):
            raise ConfigError("seed: must be a non-negative integer")
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
        for key, value in _object(self.samples, "samples", _KEYS["samples"]).items():
            if not (type(value) is int and value > 0):
                raise ConfigError(f"samples.{key}: must be a positive integer")

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


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the golden-ratio increment.
_GAMMA = 0x9E3779B97F4A7C15
_MASK = 2 ** 64 - 1


def _splitmix(z):
    """SplitMix64's finalizer of a Python int below 2^64, returned, or of a
    uint64 array, in place.  Array arithmetic wraps modulo 2^64 silently,
    so the masks only act on ints."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z &= _MASK
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z &= _MASK
    z ^= z >> 31
    return z


class NormalStream:
    """Standard normals keyed by (seed, suite name), counter-based (Salmon
    et al., SC 2011): value i is the Box-Muller normal of the two 32-bit
    halves of SplitMix64(key + (i + 1) gamma), a pure function of the key
    and i.  Each ``standard_normal`` call returns the next values in C
    order, so a draw of a values and then b values equals one draw of a + b.
    The key absorbs every 64-bit limb of the seed and every byte of the name."""

    def __init__(self, seed: int, suite: str):
        limbs = [seed >> shift & _MASK for shift in range(0, max(seed.bit_length(), 1), 64)]
        self._key = 0
        for word in (len(limbs), *limbs, *suite.encode()):
            self._key = _splitmix(((self._key ^ word) + _GAMMA) & _MASK)
        self._drawn = 0

    def standard_normal(self, shape) -> np.ndarray:
        count = int(np.prod(shape))
        bits = np.arange(self._drawn + 1, self._drawn + count + 1, dtype=np.uint64)
        self._drawn += count
        bits *= _GAMMA
        bits += self._key
        _splitmix(bits)
        # u1 = (high + 1) / 2^32 in (0, 1], u2 = low / 2^32 in [0, 1).
        radius = np.sqrt(-2.0 * np.log(((bits >> 32) + 1) * 2.0 ** -32))
        return (radius * np.cos((bits & 0xFFFFFFFF) * (2.0 ** -32 * 2.0 * np.pi))).reshape(shape)


def _complex_rows(normals: np.ndarray) -> np.ndarray:
    """(S, n) complex rows from (S, 2, n) standard normals: the real parts,
    then the imaginary parts, as one standard_normal(n) call each would draw."""
    rows = np.empty(normals[:, 0].shape, dtype=complex)
    rows.real = normals[:, 0]
    rows.imag = normals[:, 1]
    return rows


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


def _random_sequences(rng: NormalStream, lattice: GridLattice,
                      samples: int) -> CoeffArray:
    """``samples`` random complex sequences over the lattice, one per column,
    each drawn as standard_normal + 1j * standard_normal, in one draw."""
    rows = _complex_rows(rng.standard_normal((samples, 2, lattice.count)))
    return CoeffArray.over_lattice(lattice, rows.T)


def _grid_norm(lattice: GridLattice, c: np.ndarray, spectrum: np.ndarray,
               spec: SpaceSpec) -> float:
    """The ``spec`` norm of sum_k c_k T_{x_k}(f), f of forward DFT
    ``spectrum``, on the grid: how a witness is evaluated, without the
    window profile the closed forms are built from."""
    f = GridSignal(lattice.grid, _superpose(lattice, c[None], spectrum)[0])
    return continuous_norm(f, spec)


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
    # attained at a unit sequence.
    for p in (1.0, 2.0, 4.0):
        for tau in (0.0, 2.0):
            spec = SpaceSpec("Lp_w", p, weight=PowerWeight(tau))
            q = (_solid_profile(chi1, lattice, spec)[0][:, 0]
                 / _solid_profile(chi2, lattice, spec)[0][:, 0])
            bands = np.maximum(q, 1.0 / q)
            k = int(np.argmax(bands))
            e = (np.arange(lattice.count) == k).astype(float)
            r = _grid_norm(lattice, e, hat1, spec) / _grid_norm(lattice, e, hat2, spec)
            entries.append(_attained(suite, f"K_attained_L{p:g}_tau{tau:g}", bands[k],
                                     max(r, 1.0 / r), {"K": float(bands[k]), "witness_k": k,
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

    # Fourier-coefficient realization against the bump realization; without grid-frequency
    # lattice points and an aligned dual, fourier_side_norm raises NonAlignedLattice first,
    # and one diagnostic whose value counts the three entries it replaces says why.
    try:
        entries += _fourier_entries(cfg, NormalStream(cfg.seed, suite), lattice, chi, suite)
    except NonAlignedLattice as exc:
        entries.append(check(suite, "fourier_entries_skipped", 3, None, "report",
                             details={"reason": f"NonAlignedLattice: {exc}"}))
    return entries


def _fourier_entries(cfg, rng, lattice, chi, suite) -> list[dict]:
    count = cfg.sample_count("ratio_scan")
    f2 = SpaceSpec("FourierLp_w", 2.0)
    vol_dual = 1.0 / cfg.lattice_step ** cfg.dim
    c = _random_sequences(rng, lattice, 50)
    expected = math.sqrt(vol_dual) * solid_discrete_norm(c, SpaceSpec("Lp_w", 2.0))
    worst = float(np.max(np.abs(fourier_side_norm(c, f2) / expected - 1.0)))
    entries = [check(suite, "fourier_parseval_deviation", worst, 1e-10, "<=")]
    for p in (1.0, 4.0):
        fp = SpaceSpec("FourierLp_w", p)
        c = _random_sequences(rng, lattice, count)
        ratios = fourier_side_norm(c, fp) / discrete_norm(c, fp, chi)
        low, high = float(np.min(ratios)), float(np.max(ratios))
        entries.append(
            check(suite, f"fourier_vs_bump_band_L{p:g}", high / low, 1e6, "<",
                  details={"low": low, "high": high, "method": "sampled",
                           "samples": count})
        )
    return entries


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
    entries = [
        check(suite, "kappa1_positive", kappa1, 0.0, ">",
              details={"method": "closed-form", "witness": "c_k = (1+|x_k|)^-3"}),
        check(suite, "kappa2_positive", kappa2, 0.0, ">",
              details={"method": "closed-form", "witness_k": k}),
        _attained(suite, "kappa1_attained", kappa1, decay_weighted_sup(
            CoeffArray.over_lattice(lattice, c1), 3) / _grid_norm(lattice, c1, chi_hat, spec), {}),
        _attained(suite, "kappa2_attained", kappa2, _grid_norm(lattice, c2, chi_hat, spec)
                  / growth_weighted_sup(CoeffArray.over_lattice(lattice, c2), 3), {}),
    ]

    # Operator continuity over sampled smooth phi.  Unweighted, every p_k is
    # one p, so the sup over c of ||sum_k c_k T_{x_k} phi|| / ||c||_{E_d} is
    # ||S_phi|| / p (``_superposition_norms``).  The sampled convolution
    # e -> (h^n (e * phi)(x_k))_k is h^n times the adjoint of S_phi*,
    # phi*(t) = conj(phi(-t)), whose spectrum has phi's modulus: its sup
    # over e is h^n p ||S_phi||, the superposition's times ||chi||^2.
    order = 4
    n = cfg.sample_count("continuity")
    ratio, op_norm, phi_hat, residue, sample = _phi_family(
        NormalStream(cfg.seed, suite), lattice, n, order)
    p = profile[0]
    # Witnesses at the worst phi: the lattice plane wave at its worst
    # residue, and its image under the convolution's adjoint.
    shape = _lattice_fold(lattice.index_points, grid.points_per_axis)[0]
    r = np.unravel_index(residue, shape)
    L = grid.points_per_axis
    c = np.exp(2j * np.pi * (lattice.index_points @ np.array(r) % L) / L)
    sup_attained = _grid_norm(lattice, c, phi_hat, spec) / _grid_norm(lattice, c, chi_hat, spec)
    e = _superpose(lattice, c[None], np.conj(phi_hat))
    e_hat = np.fft.fftn(e.reshape((1,) + grid.shape), axes=tuple(range(1, grid.dim + 1)))
    conv = _convolution_rows(lattice, e_hat, phi_hat[None])[0]
    conv_attained = (_grid_norm(lattice, conv, chi_hat, spec)
                     / continuous_norm(GridSignal(grid, e[0]), spec))
    details = {"order": order, "samples": n, "sample": sample,
               "residue": [int(v) for v in r],
               "method": "closed-form over c and e, sampled over phi"}
    for label, scale, attained in (("superposition", 1.0 / p, sup_attained),
                                   ("convolution", cell * p, conv_attained)):
        entries.append(_attained(suite, f"{label}_attained", op_norm * scale, attained,
                                 {"constant": float(ratio * scale), **details}))
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


def _phi_family(rng: NormalStream, lattice: GridLattice, samples: int,
                order: int) -> tuple:
    """The sampled sup over smooth phi (``_smooth_rows``) of ||S_phi|| over
    the Schwartz seminorm of the given order, in blocks of
    ``grid._block_rows(size)`` samples, one draw per block in stream order,
    so the result does not depend on the block size.  Returns, at the first
    phi with the largest ratio: the ratio, ||S_phi||, phi's forward DFT,
    its worst residue and the sample number."""
    grid = lattice.grid
    axes = tuple(range(1, grid.dim + 1))
    best = (-1.0,)
    block = _block_rows(grid.size)
    for lo in range(0, samples, block):
        b = min(block, samples - lo)
        phi = _smooth_rows(grid, rng.standard_normal((b, 2, grid.size)))
        spectra = np.fft.fftn(phi.reshape((b,) + grid.shape), axes=axes)
        norms, residues = _superposition_norms(lattice, spectra)
        ratios = norms / _schwartz_rows(grid, phi, spectra, order)
        s = int(np.argmax(ratios))
        if ratios[s] > best[0]:
            best = (float(ratios[s]), float(norms[s]), spectra[s].copy(),
                    int(residues[s]), lo + s)
    return best


_PROFILE_SPACE = SpaceSpec("Lp_w", 1.0, weight=PowerWeight(3.0))


def run_decay(cfg: SuiteConfig, system: GaborSystem) -> list[dict]:
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


def run_growth(cfg: SuiteConfig, system: GaborSystem) -> list[dict]:
    suite = "growth"
    grid = system.grid
    gauss = sample_gaussian(grid, width=math.sqrt(2.0), normalize=True)
    gauss_prof = decay_profile(system, gauss, _PROFILE_SPACE)
    osc = sample_oscillation(grid, 4.0)
    osc_prof = decay_profile(system, osc, _PROFILE_SPACE)
    entries = [
        _order_check(suite, "gaussian_bounded_order", gauss_prof.bounded_order, 0.0),
        check(suite, "oscillation_fails_decay",
              osc_prof.decay_sups[-1] / osc_prof.decay_sups[0], 10.0, ">"),
        _order_check(suite, "oscillation_bounded_order", osc_prof.bounded_order, 6.0),
        check(suite, "oscillation_to_gaussian_weight2",
              osc_prof.decay_sups[2] / gauss_prof.decay_sups[2], 1e3, ">=",
              details={"oscillation": osc_prof.decay_sups[2],
                       "gaussian": gauss_prof.decay_sups[2]}),
    ]
    top_band = GridSignal(grid, gauss.values * sample_oscillation(grid, 6.0).values)
    top_band = top_band * (1.0 / top_band.l2_norm())
    band_prof = decay_profile(system, top_band, _PROFILE_SPACE)
    entries.append(_order_check(suite, "top_band_bounded_order", band_prof.bounded_order, 6.0))
    return entries


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
        "seed": cfg.seed,
        "suites": names,
        "entries": results,
    }
