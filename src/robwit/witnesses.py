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

    @cached_property
    def rotation_residual(self) -> float:
        """||W - (A (x) B) W_base (A (x) B)^dagger||_F for the map's local rotation (A, B), measured once.

        Exactly 0 for a plain witness, whose rotation is (I, I).
        """
        moved = local_conjugate(self.base.matrix, *maps.local_rotation(self.source))
        return float(np.linalg.norm(self.matrix - moved))

    @property
    def unitarity_defect(self) -> float:
        """a + b + ab >= ||S^dagger S - I||_2 for S = A (x) B, with a = ||A^dagger A - I||_F and b likewise.

        Exactly 0 for the rotation (I, I).
        """
        a, b = (float(np.linalg.norm(x.conj().T @ x - np.eye(len(x)))) for x in maps.local_rotation(self.source))
        return a + b + a * b

    @cached_property
    def rotation_slack(self) -> float:
        """How far each sorted eigenvalue of W can lie from the base's: s = residual + defect * rho(W_base).

        W = S W_base S^dagger + E with S = A (x) B.  By Weyl's inequality E
        moves each eigenvalue by at most ||E||_2 <= ||E||_F, and by Ostrowski's
        theorem the congruence by S scales eigenvalue k of W_base by a factor
        within ||S^dagger S - I||_2 of 1 (Horn & Johnson, *Matrix Analysis*).
        Exactly 0 for a plain witness.
        """
        return self.rotation_residual + self.unitarity_defect * float(np.max(np.abs(self.base.spectrum)))

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
        return choi(maps.base_descriptor(self.source))


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
    """Match the Choi eigenvalues, read off the base witness, against the closed form.

    The base's sorted eigenvalues (its cached blocked spectrum) are compared
    pairwise against the sorted expected multiset; the report carries the
    largest deviation.  Each eigenvalue of W lies within ``w.rotation_slack``
    of the base's, so the check passes iff deviation + slack <= tol.  A plain
    witness is its own base, with slack exactly 0.
    """
    n = maps.base_descriptor(w.source).size
    expected = expected_spectrum_sorted(n)
    deviation = float(np.max(np.abs(w.base.spectrum - expected)))
    slack = w.rotation_slack
    return rule_report(
        "spectrum",
        deviation,
        tol,
        deviation + slack <= tol,
        f"max per-eigenvalue deviation of the base witness from the closed-form multiset at N={n}, "
        f"rotation slack {slack:.2e}; pass iff deviation + slack <= tol",
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
