"""Complex linear algebra backbone.

All operators are plain ``numpy`` arrays of ``complex128`` in row-major
layout.  Hermitian inputs are diagonalized by one checked solver,
``hermitian_eig``.  A single matrix whose exact-zero pattern splits into
disconnected components (a reducible matrix: a symmetric permutation makes
it block diagonal) is solved block by block, and so are the trace norm and
the numerical rank; a dense matrix takes the plain LAPACK path.  Local
unitaries act by contraction on the (dA, dB, dA, dB) view, never through a
D x D Kronecker product.  Composite-space indices follow the convention that
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


def hermiticity_defect(m: np.ndarray) -> float:
    """max |M - M^dagger| entrywise, over every member of a stack."""
    m = as_complex(m)
    return float(np.max(np.abs(m - np.swapaxes(m, -1, -2).conj()))) if m.size else 0.0


def partial_transpose(m: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Transpose the first tensor factor of an operator on C^dA (x) C^dB.

    The operation is involutive, trace preserving and maps Hermitian
    operators to Hermitian operators.  The second factor's transpose is
    this one's full transpose: PT_B(M) = PT_A(M)^T.
    """
    m = as_complex(m)
    n = d_a * d_b
    if m.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix for dims ({d_a},{d_b}), got {m.shape}")
    return m.reshape(d_a, d_b, d_a, d_b).transpose(2, 1, 0, 3).reshape(n, n)


def _components(pattern: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Row and column index groups of the connected components of a boolean R x C pattern.

    Rows and columns are the two vertex sets of a bipartite graph with one
    edge per True entry.  The components of equal shape (r, c) come as one
    pair of (k, r) and (k, c) index arrays, each component's indices
    ascending, so their blocks slice out as one stack.  Components without a
    row or without a column hold no entry and are left out.  A pattern with
    a full row is one component, found without labelling.
    """
    r, c = pattern.shape
    if c and pattern.all(axis=1).any():
        return [(np.flatnonzero(pattern.any(axis=1))[None], np.arange(c)[None])]
    rows, cols = np.nonzero(pattern)
    cols += r  # column vertices follow the row vertices
    # min-label propagation with pointer jumping; labels only decrease, and the
    # fixed point gives every component the smallest vertex it contains
    labels = np.arange(r + c)
    while True:
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        np.minimum.at(new, cols, labels[rows])
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    roots, comp = np.unique(labels, return_inverse=True)
    k = len(roots)
    row_comp, col_comp = comp[:r], comp[r:]
    shape = np.bincount(row_comp, minlength=k) * (c + 1) + np.bincount(col_comp, minlength=k)
    # vertices sorted by (component shape, component), so each shape is one contiguous slice
    row_order = np.lexsort((row_comp, shape[row_comp]))
    col_order = np.lexsort((col_comp, shape[col_comp]))
    groups = []
    row_start = col_start = 0
    for key, count in zip(*np.unique(shape, return_counts=True)):
        nr, nc = divmod(int(key), c + 1)
        group_rows = row_order[row_start : row_start + count * nr].reshape(count, nr)
        group_cols = col_order[col_start : col_start + count * nc].reshape(count, nc)
        row_start += count * nr
        col_start += count * nc
        if nr and nc:
            groups.append((group_rows, group_cols))
    return groups


def _blockwise(solve, pattern: np.ndarray, *mats: np.ndarray) -> np.ndarray:
    """``solve`` on the blocks that the components of ``pattern`` cut out of ``mats``, flattened.

    ``solve`` receives the same block of every matrix in ``mats``; blocks of
    one shape go to it as one (k, r, c) stack.  When the pattern is a single
    component covering every row and column, it receives the matrices
    themselves.
    """
    groups = _components(pattern)
    r, c = pattern.shape
    if len(groups) == 1 and (groups[0][0].shape, groups[0][1].shape) == ((1, r), (1, c)):
        return solve(*mats).ravel()
    values = [solve(*(x[rows[:, :, None], cols[:, None, :]] for x in mats)).ravel() for rows, cols in groups]
    return np.concatenate(values) if values else np.zeros(0)


def hermitian_eig(m: np.ndarray, tol: float = EIGENVALUE_TOL) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix or of a ``(..., n, n)`` stack.

    Returns the real eigenvalues sorted ascending, member by member.  Raises
    if any member fails the Hermiticity check ``max|M - M^dagger| <= tol``.
    The solve is of (M + M^dagger) / 2.  A single matrix is split by its
    exact zeros (no threshold) into independent blocks, and blocks of one
    size are solved as one stack; a stack is solved as it is.
    """
    m = as_complex(m)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    mh = np.conj(np.swapaxes(m, -1, -2), order="C")  # contiguous, so M - M^dagger reads both in row order
    defect = float(np.max(np.abs(m - mh))) if m.size else 0.0
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian: max|M - M^dagger| = {defect:.3e} > {tol:.1e}")
    if m.ndim > 2 or not m.size:
        return np.linalg.eigvalsh((m + mh) / 2)
    # Rows and columns of the pattern joined through the diagonal: outside its
    # components both M and M^dagger vanish, so (M + M^dagger) / 2 is block diagonal.
    pattern = m != 0
    np.fill_diagonal(pattern, True)
    return np.sort(_blockwise(lambda b, bh: np.linalg.eigvalsh((b + bh) / 2), pattern, m, mh))


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


def trace_norm(m: np.ndarray) -> float:
    """Sum of the singular values, block by block over the components of the nonzero pattern."""
    m = as_complex(m)
    return float(np.sum(_blockwise(lambda b: np.linalg.svd(b, compute_uv=False), m != 0, m)))


def local_conjugate(m: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(A (x) B) M (A (x) B)^dagger for M on C^dA (x) C^dB.

    Each factor is contracted on its own index of the (dA, dB, dA, dB) view,
    O(d^5) work where the D x D Kronecker product costs O(d^6).
    """
    a, b, m = as_complex(a), as_complex(b), as_complex(m)
    d_a, d_b = len(a), len(b)
    n = d_a * d_b
    if m.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix for factors of sizes ({d_a},{d_b}), got {m.shape}")
    t = (a @ m.reshape(d_a, d_b * n)).reshape(d_a, d_b, n)
    t = (b @ t).reshape(n, d_a, d_b)  # (A (x) B) M, columns split into (c, e)
    return (a.conj() @ (t @ b.conj().T)).reshape(n, n)


def _gram_eigenvalues(vectors: np.ndarray) -> np.ndarray:
    gram = vectors.conj() @ np.swapaxes(vectors, -1, -2)
    return np.linalg.eigvalsh((gram + np.swapaxes(gram, -1, -2).conj()) / 2)


def numerical_rank(vectors) -> int:
    """Rank of the span of the rows of a (k, dim) array.

    Exact elimination first: a vector with a single nonzero entry pins its
    coordinate, and subtracting it zeroes that coordinate in every other
    vector without arithmetic.  The remaining vectors split into blocks by
    their shared coordinates.  The squared norms of the pinned coordinates'
    vectors and the Gram eigenvalues of every block are the squared singular
    values; those below ``EIGENVALUE_TOL`` times the largest singular value count as zero.
    """
    a = as_complex(vectors)  # row k is vector k
    if not len(a):
        raise ValueError("numerical_rank needs at least one vector")
    nonzero = a != 0
    unit = np.count_nonzero(nonzero, axis=1) == 1
    pinned = np.argmax(nonzero[unit], axis=1)
    pinned_sq = np.zeros(a.shape[1])
    np.maximum.at(pinned_sq, pinned, np.abs(a[unit, pinned]) ** 2)
    rest = nonzero & ~unit[:, None]
    rest[:, pinned] = False
    eig = np.concatenate([pinned_sq[pinned_sq > 0], _blockwise(_gram_eigenvalues, rest, a)])
    largest = float(np.max(eig, initial=0.0))
    if largest <= 0.0:
        return 0
    # Squared cutoff (EIGENVALUE_TOL * sigma_max)^2, floored at the eigensolver's own
    # resolution: Gram eigenvalues that should vanish come back at the scale
    # of machine epsilon times the largest one.
    cutoff = largest * max(EIGENVALUE_TOL * EIGENVALUE_TOL, 8 * len(a) * np.finfo(float).eps)
    return int(np.sum(eig > cutoff))
