"""Complex linear algebra backbone.

All operators are plain ``numpy`` arrays of ``complex128`` in row-major
layout.  Hermitian inputs are diagonalized by one checked solver,
``hermitian_eig``.  A square matrix whose nonzeros, each an edge between its
row and its column index, fall into several connected components is
reducible: a symmetric permutation makes it block diagonal.  ``hermitian_eig``
and ``trace_norm`` solve it block by block, on the blocks that one split,
``_components``, cuts out of it; a dense matrix comes back whole and takes the
plain LAPACK path.  ``numerical_rank`` is a dense SVD rank with the cutoff of
``gram_rank``.  Local unitaries act by contraction
on the (dA, dB, dA, dB) view, never through a D x D Kronecker product.
Composite-space indices follow the convention that ``|k> (x) |a>`` sits at
row ``k * d + a`` (0-based).
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


def _components(m: np.ndarray) -> list[np.ndarray]:
    """The square diagonal blocks that the connected components of M's nonzeros cut out of M.

    The indices are the vertices of a graph with one edge per nonzero entry,
    followed in both directions, so an entry (i, j) joins i and j whatever
    (j, i) holds.  Blocks of one size come as one (k, size, size) stack, each
    component's indices ascending.  A matrix that forms one block, such as one
    with a full row or with no index, comes back itself, uncopied.
    """
    pattern = m != 0
    n = len(m)
    if not n or pattern.all(axis=1).any():
        return [m]
    rows, cols = np.nonzero(pattern)
    # min-label propagation with pointer jumping; labels only decrease, and the
    # fixed point gives every component the smallest index it contains
    labels = np.arange(n)
    while True:
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        np.minimum.at(new, cols, labels[rows])
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    if not labels.any():  # every index reaches 0
        return [m]
    sizes = np.bincount(labels, minlength=n)  # each component's size, at its smallest index
    order = np.lexsort((labels, sizes[labels]))  # by (component size, component): each size one contiguous slice
    size, count = np.unique(sizes[sizes > 0], return_counts=True)
    groups = [g.reshape(-1, k) for g, k in zip(np.split(order, np.cumsum(size * count)[:-1]), size)]
    return [m[g[:, :, None], g[:, None, :]] for g in groups]


def hermitian_eig(m: np.ndarray, tol: float = EIGENVALUE_TOL) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix or of a ``(..., n, n)`` stack.

    Returns the real eigenvalues sorted ascending, member by member.  Raises
    if any member fails the Hermiticity check ``max|M - M^dagger| <= tol``, as
    one with a NaN entry does.
    The solve is of H = (M + M^dagger) / 2, formed in place of M^dagger.  A
    single H is split by its exact zeros (no threshold) into its blocks
    (``_components``), and blocks of one size are solved as one stack; a
    stack is solved as it is.
    """
    m = as_complex(m)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    h = np.conj(np.swapaxes(m, -1, -2), order="C")  # M^dagger, contiguous, so M - M^dagger reads both in row order
    defect = float(np.max(np.abs(m - h))) if m.size else 0.0
    if not defect <= tol:  # a NaN defect fails too
        raise ValueError(f"matrix is not Hermitian: max|M - M^dagger| = {defect:.3e} > {tol:.1e}")
    h += m
    h /= 2
    if h.ndim > 2 or not h.size:
        return np.linalg.eigvalsh(h)
    return np.sort(np.concatenate([np.linalg.eigvalsh(b).ravel() for b in _components(h)]))


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
    """Sum of the singular values of a square matrix, block by block over the components of its nonzeros."""
    m = as_complex(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return float(np.sum(np.concatenate([np.linalg.svd(b, compute_uv=False).ravel() for b in _components(m)])))


def local_conjugate(m: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(A (x) B) M (A (x) B)^dagger for M on C^dA (x) C^dB.

    Each factor is contracted on its own index of the (dA, dB, dA, dB) view,
    O(d^5) work where the D x D Kronecker product costs O(d^6).  A acts on the
    rows in one product, which allocates the result; B, Abar and Bbar then act
    within each block of dB rows, in place, so no other D x D array is made.
    """
    a, b, m = as_complex(a), as_complex(b), as_complex(m)
    d_a, d_b = len(a), len(b)
    n = d_a * d_b
    if m.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix for factors of sizes ({d_a},{d_b}), got {m.shape}")
    t = (a @ m.reshape(d_a, d_b * n)).reshape(d_a, d_b, d_a, d_b)  # (A (x) 1) M
    for rows in t:  # rows [j, c, e] of one first-factor index
        rows[...] = a.conj() @ ((b @ rows.reshape(d_b, n)).reshape(d_b, d_a, d_b) @ b.conj().T)
    return t.reshape(n, n)


def gram_rank(squares: np.ndarray, count: int) -> int:
    """How many squared singular values of ``count`` vectors are above (EIGENVALUE_TOL * sigma_max)^2.

    The cutoff is floored at 8 count eps sigma_max^2, where Gram eigenvalues that should vanish come back.
    """
    largest = float(np.max(squares, initial=0.0))
    return int(np.sum(squares > largest * max(EIGENVALUE_TOL * EIGENVALUE_TOL, 8 * count * np.finfo(float).eps)))


def numerical_rank(vectors) -> int:
    """Rank of the span of the rows of a (k, dim) array, from a dense SVD and the cutoff of ``gram_rank``."""
    a = as_complex(vectors)  # row k is vector k
    if not len(a):
        raise ValueError("numerical_rank needs at least one vector")
    return gram_rank(np.linalg.svd(a, compute_uv=False) ** 2, len(a))
