"""Dense complex linear algebra backbone.

All operators are plain ``numpy`` arrays of ``complex128`` in row-major
layout, all dense; Hermitian inputs are diagonalized by one checked solver,
``hermitian_eig``.  Composite-space indices follow the convention that
``|k> (x) |a>`` sits at row ``k * d + a`` (0-based).
"""

from __future__ import annotations

import numpy as np

# Tolerance ladder used throughout: exact construction identities at 1e-12,
# eigenvalue assertions at 1e-9, positivity of min eigenvalues at -1e-10.
CONSTRUCTION_TOL = 1e-12
EIGENVALUE_TOL = 1e-9
POSITIVITY_TOL = 1e-10


def as_complex(m) -> np.ndarray:
    return np.asarray(m, dtype=complex)


def matrix_unit(d: int, i: int, j: int) -> np.ndarray:
    """d x d matrix with a single 1 at (i, j), 0-based."""
    e = np.zeros((d, d), dtype=complex)
    e[i, j] = 1.0
    return e


def hermiticity_defect(m: np.ndarray) -> float:
    """max |M - M^dagger| entrywise, over every member of a stack."""
    m = as_complex(m)
    return float(np.max(np.abs(m - np.swapaxes(m, -1, -2).conj()))) if m.size else 0.0


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(as_complex(a), as_complex(b))


def partial_transpose(m: np.ndarray, d_a: int, d_b: int, subsystem: str = "A") -> np.ndarray:
    """Transpose one tensor factor of an operator on C^dA (x) C^dB.

    The operation is involutive, trace preserving and maps Hermitian
    operators to Hermitian operators.  ``subsystem`` selects which factor
    is transposed ("A" = first, "B" = second).
    """
    m = as_complex(m)
    n = d_a * d_b
    if m.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix for dims ({d_a},{d_b}), got {m.shape}")
    t = m.reshape(d_a, d_b, d_a, d_b)
    if subsystem == "A":
        t = t.transpose(2, 1, 0, 3)
    elif subsystem == "B":
        t = t.transpose(0, 3, 2, 1)
    else:
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return t.reshape(n, n)


def hermitian_eig(m: np.ndarray, tol: float = EIGENVALUE_TOL) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix or of a ``(..., n, n)`` stack.

    Returns the real eigenvalues sorted ascending, member by member.  Raises
    if any member fails the Hermiticity check ``max|M - M^dagger| <= tol``.
    """
    m = as_complex(m)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    defect = hermiticity_defect(m)
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian: max|M - M^dagger| = {defect:.3e} > {tol:.1e}")
    return np.linalg.eigvalsh((m + np.swapaxes(m, -1, -2).conj()) / 2)


def min_eigenvalue(m: np.ndarray, tol: float = EIGENVALUE_TOL) -> float:
    """Smallest eigenvalue of a Hermitian matrix, or the smallest over a stack."""
    return float(np.min(hermitian_eig(m, tol)[..., 0]))


def realign(m: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Realignment R(m)_{(i,j),(k,l)} = m_{(i,k),(j,l)} as a dA^2 x dB^2 matrix.

    The same reshuffle maps the natural (superoperator) matrix of a map to
    its Choi matrix and back.
    """
    m = as_complex(m)
    if m.shape != (d_a * d_b, d_a * d_b):
        raise ValueError(f"expected a {d_a * d_b}x{d_a * d_b} matrix, got {m.shape}")
    return m.reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3).reshape(d_a ** 2, d_b ** 2)


def numerical_rank(vectors, tol: float = EIGENVALUE_TOL) -> int:
    """Rank of the span of a family of vectors.

    Computed from the eigenvalues of the Gram matrix: singular values below
    ``tol`` times the largest singular value count as zero.
    """
    vecs = [np.asarray(v, dtype=complex).ravel() for v in vectors]
    if not vecs:
        raise ValueError("numerical_rank needs at least one vector")
    if len({v.size for v in vecs}) > 1:
        raise ValueError("all vectors must have the same dimension")
    a = np.array(vecs).T  # columns are the vectors
    gram = a.conj().T @ a
    eig = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    largest = float(eig[-1])
    if largest <= 0.0:
        return 0
    # Squared cutoff (tol * sigma_max)^2, floored at the eigensolver's own
    # resolution: Gram eigenvalues that should vanish come back at the scale
    # of machine epsilon times the largest one.
    cutoff = largest * max(tol * tol, 8 * len(vecs) * np.finfo(float).eps)
    return int(np.sum(eig > cutoff))
