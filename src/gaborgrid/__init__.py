"""Gabor frames and translation/modulation-invariant norms on periodic grids."""

from .errors import (
    ConfigError,
    DimensionMismatch,
    GaborGridError,
    GridMismatch,
    IndexMismatch,
    InvalidLattice,
    NonAlignedLattice,
    NonAlignedShift,
    NotAFrame,
    NotSolid,
    OverlappingSupports,
    ResourceLimit,
    Unresolved,
    ZeroSignal,
)
from .gabor import (
    FrameCertificate,
    GaborSystem,
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
    dft,
    sample_bump,
    sample_gaussian,
    sample_oscillation,
    sample_rectangle,
    translate,
)
from .lattice import Lattice, PowerWeight, dual_lattice
from .smoothness import (
    DecayProfile,
    decay_profile,
)
from .spaces import (
    SpaceSpec,
    continuous_norm,
    decay_weighted_sup,
    discrete_norm,
    fourier_side_norm,
    growth_weighted_sup,
    solid_discrete_norm,
)
from .stft import TFArray, derivative_identity_defect, stft
from .suites import SuiteConfig, run_suites

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
