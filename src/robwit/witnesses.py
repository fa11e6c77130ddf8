"""Choi matrices of positive maps and their witness-level identities.

The Choi matrix of a map F on d x d matrices is taken with the 1/d factor
of the maximally entangled state, W = (1/d) sum_kl |k><l| (x) F(|k><l|), so
that Tr W = 1 for the trace-preserving families.  For the PhiU4N family
with unitary U the spectrum of W is known in closed form and carries a
single negative eigenvalue -1/(4N).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import maps
from .linalg import (
    CONSTRUCTION_TOL,
    hermiticity_defect,
    hermitian_eig,
    local_conjugate,
    realign,
)
from .report import CertReport, rule_report


@dataclass(frozen=True)
class Witness:
    """Choi matrix of a map plus its provenance; it acts on C^d (x) C^d."""

    matrix: np.ndarray
    source: maps.MapDescriptor

    def __post_init__(self):
        if self.matrix.shape != (self.d ** 2, self.d ** 2):
            raise ValueError(f"a witness of a map on {self.d}x{self.d} matrices is {self.d ** 2}x{self.d ** 2}, "
                             f"got {self.matrix.shape}")

    @property
    def d(self) -> int:
        return maps.input_dim(self.source)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of the matrix, computed on first use and kept (read-only)."""
        values = hermitian_eig(self.matrix, tol=CONSTRUCTION_TOL)
        values.flags.writeable = False  # one array is shared by every reader
        return values

    @property
    def base(self) -> Witness:
        """The PhiU4N witness underneath: this witness itself if it is plain.

        A conjugated witness builds its base's Choi matrix on first use and
        keeps it.  A plain witness is not cached as its own base, which would
        make a reference cycle that only the cyclic garbage collector frees.
        """
        return self if self.source.family == "PhiU4N" else self._base

    @cached_property
    def _base(self) -> Witness:
        return choi(maps.base_descriptor(self.source))  # raises for a family without a PhiU4N base


def max_entangled(d: int) -> np.ndarray:
    """Maximally entangled state (1/d) sum_kl |k><l| (x) |k><l| on C^d (x) C^d."""
    if d < 2:
        raise ValueError("d must be at least 2")
    kk = np.arange(d) * (d + 1)  # |kk> sits at k * d + k
    p = np.zeros((d * d, d * d), dtype=complex)
    p[np.ix_(kk, kk)] = 1.0 / d
    return p


def choi(m: maps.MapDescriptor) -> Witness:
    """Choi matrix of a map descriptor, W = (1 (x) F) P+_d."""
    d = maps.input_dim(m)
    units = np.eye(d * d, dtype=complex).reshape(d, d, d, d)  # units[k, l] = |k><l|
    images = maps.apply_map(m, units).reshape(d * d, d * d)  # row (k, l), column (i, j)
    return Witness(realign(images, d, d) / d, m)


def expected_spectrum(n: int) -> list[tuple[float, int]]:
    """Closed-form Choi spectrum of the PhiU4N family with unitary U.

    Multiset {-1/(4N) x1, 0 x(12N^2-2), 1/(4N^2) x4N^2, 1/(4N) x1};
    multiplicities total (4N)^2 and the weighted sum is 1.
    """
    if n < 1:
        raise ValueError("N must be a positive integer")
    return [
        (-1.0 / (4 * n), 1),
        (0.0, 12 * n * n - 2),
        (1.0 / (4 * n * n), 4 * n * n),
        (1.0 / (4 * n), 1),
    ]


def expected_spectrum_sorted(n: int) -> np.ndarray:
    values, mults = zip(*expected_spectrum(n))
    return np.sort(np.repeat(values, mults))


def verify_spectrum(w: Witness, tol: float = 1e-9) -> CertReport:
    """Match the computed Choi eigenvalues against the closed form.

    Sorted computed values are compared pairwise against the sorted expected
    multiset; the report carries the largest deviation.  A conjugated
    witness is unitarily equivalent to its base and shares the closed form.
    """
    n = maps.base_descriptor(w.source).size
    expected = expected_spectrum_sorted(n)
    deviation = float(np.max(np.abs(w.spectrum - expected)))
    return rule_report(
        "spectrum",
        deviation,
        tol,
        deviation <= tol,
        f"max per-eigenvalue deviation from the closed-form multiset at N={n}; pass iff <= tol",
    )


def gamma_unitary(m: maps.MapDescriptor) -> np.ndarray:
    """Unitary G = Abar (U (+) U) A^dagger with (W)^Gamma = (G (x) 1) W (G (x) 1)^dagger.

    Gamma is the partial transpose on the first factor and (A, B) the map's
    local rotation, so G = U (+) U for a plain map; for purely imaginary
    (Hermitian) U that coincides with U^dagger (+) U.
    """
    a, _ = maps.local_rotation(m)
    if not maps.is_antisymmetric_unitary(m.u):
        raise ValueError("U must be an antisymmetric unitary matrix")
    return a.conj() @ np.kron(np.eye(2, dtype=complex), m.u) @ a.conj().T


def self_duality_defect(w: Witness) -> float:
    """max |R - R^dagger| for R = realign(W) = S^T / d, with S the natural matrix of the map.

    For a Hermiticity-preserving map, Tr(X F(Y)) = Tr(F(X) Y) for all X, Y
    exactly when S is Hermitian, so this is exact self-duality, read off the
    witness without sampling.
    """
    return hermiticity_defect(realign(w.matrix, w.d, w.d))


def transform_witness(w: Witness, v1: np.ndarray, v2: np.ndarray) -> Witness:
    """Witness of the conjugated map: (A (x) B) W (A (x) B)^dagger for ``maps.local_rotation``'s (A, B)."""
    if w.source.family != "PhiU4N":
        raise ValueError("transform_witness expects a plain PhiU4N witness")
    desc = maps.conjugated_phi(w.source.size, w.source.u, v1, v2)
    return Witness(local_conjugate(w.matrix, *maps.local_rotation(desc)), desc)
