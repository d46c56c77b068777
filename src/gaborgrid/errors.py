"""Exception types raised across the package."""


class GaborGridError(Exception):
    """Base class for all errors raised by gaborgrid."""


class InvalidLattice(GaborGridError):
    """Lattice generator matrix is singular or otherwise unusable."""


class NonAlignedShift(GaborGridError):
    """Translation amount is not an integer multiple of the grid spacing."""


class NonAlignedLattice(GaborGridError):
    """Lattice is not representable on the grid it was paired with."""


class GridMismatch(GaborGridError):
    """Two signals (or a signal and a lattice) live on incompatible grids."""


class DimensionMismatch(GaborGridError):
    """Operation requires a different grid dimension than supplied."""


class IndexMismatch(GaborGridError):
    """Coefficient array is indexed by different lattices than expected."""


class ResourceLimit(GaborGridError):
    """Requested computation exceeds the configured memory budget."""


class NotAFrame(GaborGridError):
    """System's lower frame bound is at or below ``gabor.FRAME_THRESHOLD``."""


class ZeroSignal(GaborGridError):
    """Operation is undefined for an identically zero signal."""


class OverlappingSupports(GaborGridError):
    """Lattice translates of the window are not pairwise disjoint."""


class NotSolid(GaborGridError):
    """Space kind does not admit the solid sequence-norm shortcut."""


class ConfigError(GaborGridError):
    """Configuration file or flag set is invalid; message names the field."""


class Unresolved(GaborGridError):
    """Grid too coarse for the requested quantity; message names what it needs."""
