"""Explicit states used by the certification suite.

The maximally entangled state and two families: the PPT entangled state
detected by the PhiU4N witness, and the isotropic line between the
maximally entangled and maximally mixed states whose entanglement threshold
the witness saturates.  A state is its density matrix, a plain d^2 x d^2
array.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # witnesses builds on this module
    from .witnesses import Choi


def normalization_factor(n: int) -> float:
    """Overall scale 1/(8N^2(1+4N)) making the PPT entangled state unit trace."""
    return 1.0 / (8 * n * n * (1 + 4 * n))


def ppt_entangled_state(w: Choi) -> np.ndarray:
    """PPT entangled state detected by the witness built from PhiU4N.

    Blocks on C^{4N} (x) C^{4N}, with scale NN = 1/(8N^2(1+4N)):

    * diagonal blocks diag(4N I, I) for the first 2N sites and diag(I, 4N I)
      for the rest;
    * rho_{i, i+2N} = -N(4N+1) W_{i, i+2N} in terms of the blocks of the
      trace-normalized witness.  This is the unique scale for which
      Tr(W rho) = -NN / (8 N^2); it keeps both rho and its partial
      transpose positive semidefinite;
    * rho_{ij} = |i><j| for i <= 2N < j, j != i + 2N;
    * everything else zero, lower blocks by Hermitian completion.

    Each kind of block is one slice assignment on the (d, d, d, d) view of rho,
    whose entry [i, a, j, b] is <a| rho_{ij} |b>.  Nothing here checks the
    witness or that rho is a PPT state: certify builds rho only from W(U0),
    in ``witnesses.Base.ppt_state``, which keeps its nonzeros and two smallest
    eigenvalues, and ``certify.verify_nondecomposability`` measures the rest
    on every request through the request's rotation.
    """
    n = w.source.size
    d = 4 * n
    half = 2 * n
    first = np.arange(half)
    second = first + half

    rho = np.zeros((d * d, d * d), dtype=complex)
    t = rho.reshape(d, d, d, d)
    t[first, :, first, :] = np.diag([4.0 * n] * half + [1.0] * half)
    t[second, :, second, :] = np.diag([1.0] * half + [4.0 * n] * half)
    blocks = -n * (4 * n + 1) * w.matrix.reshape(d, d, d, d)[first, :, second, :]
    t[first, :, second, :] = blocks
    t[second, :, first, :] = np.swapaxes(blocks, -1, -2).conj()
    i, j = np.nonzero(~np.eye(half, dtype=bool))  # every block (i, 2N + j) not holding a W block
    j += half
    t[i, i, j, j] = 1.0
    t[j, j, i, i] = 1.0
    rho *= normalization_factor(n)
    return rho


def max_entangled(d: int) -> np.ndarray:
    """Maximally entangled state (1/d) sum_kl |k><l| (x) |k><l| on C^d (x) C^d."""
    if d < 2:
        raise ValueError("d must be at least 2")
    kk = np.arange(d) * (d + 1)  # |kk> sits at k * d + k
    p = np.zeros((d * d, d * d), dtype=complex)
    p[np.ix_(kk, kk)] = 1.0 / d
    return p


def isotropic_state(d: int, lam: float) -> np.ndarray:
    """Isotropic state (lam/d^2) I (x) I + (1 - lam) P+_d for lam in [0, 1].

    A convex combination of two states, so it needs no eigensolve: its
    spectrum is lam/d^2 (d^2 - 1 times) and lam/d^2 + 1 - lam.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda={lam} outside [0, 1]")
    rho = (1.0 - lam) * max_entangled(d)
    rho.flat[:: d * d + 1] += lam / d ** 2  # the diagonal
    return rho


def isotropic_entanglement_threshold(n: int) -> float:
    """The isotropic state on C^{4N} (x) C^{4N} is entangled iff lam < 4N/(4N+1).

    The same number is the noise threshold of the structural physical
    approximation of the PhiU4N witness (``certify.spa_threshold_report``).
    """
    if n < 1:
        raise ValueError("N must be a positive integer")
    return 4.0 * n / (4.0 * n + 1.0)
