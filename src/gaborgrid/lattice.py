"""Full-rank lattices in R^n and polynomially bounded power weights.

A lattice is stored by its generator matrix A (columns generate), so the
point set is A Z^n.  Only dimensions 1 and 2 are used elsewhere in the
package, but nothing here depends on that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidLattice

_SINGULAR_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Lattice:
    """Discrete subgroup A Z^n of R^n with invertible generator A."""

    generator: np.ndarray

    def __post_init__(self):
        gen = np.asarray(self.generator, dtype=float)
        if gen.ndim == 0:
            gen = gen.reshape(1, 1)
        if gen.ndim != 2 or gen.shape[0] != gen.shape[1]:
            raise InvalidLattice(f"generator must be square, got shape {gen.shape}")
        if abs(np.linalg.det(gen)) <= _SINGULAR_TOL:
            raise InvalidLattice("generator matrix is singular")
        gen = gen.copy()
        gen.setflags(write=False)
        object.__setattr__(self, "generator", gen)

    @property
    def dim(self) -> int:
        return self.generator.shape[0]

    @classmethod
    def cubic(cls, dim: int, step: float) -> "Lattice":
        """The separable lattice step * Z^dim."""
        return cls(np.eye(dim) * step)


def dual_lattice(lat: Lattice) -> Lattice:
    """Dual lattice with generator (A^t)^{-1}; pairs integrally with lat."""
    return Lattice(np.linalg.inv(lat.generator.T))


@dataclass(frozen=True)
class PowerWeight:
    """The weight x -> (1 + |x|)^exponent with Euclidean |x|."""

    exponent: float = 0.0

    def __call__(self, x) -> np.ndarray | float:
        """Evaluate at a point (length-n vector or scalar) or an (N, n) batch."""
        x = np.asarray(x, dtype=float)
        if x.ndim <= 1:
            r = np.linalg.norm(np.atleast_1d(x))
            return float((1.0 + r) ** self.exponent)
        return (1.0 + np.linalg.norm(x, axis=-1)) ** self.exponent
