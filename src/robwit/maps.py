"""The generalized Robertson map Phi_U on 4N x 4N matrices and its conjugation.

Every map here acts on square complex matrices and is described by an
immutable :class:`MapDescriptor`; :func:`apply_map` is the single
interpreter, for one matrix or a ``(..., d, d)`` stack alike.  Its one
caller in the package is positivity's projector sample: the Choi matrix is
filled from the formula below, entry by entry (``witnesses.plain_choi``).
The two families, with X split into half-size blocks ``[[X11, X12], [X21, X22]]``:

* ``PhiU4N`` (dim 4N):        X -> (1/2N) [[I Tr X22, -(X12 + U X21^T U^dagger)],
                              [-(X21 + U X12^T U^dagger), I Tr X11]] with an
                              antisymmetric 2N x 2N contraction U
* ``ConjugatedPhiU`` (dim 4N): V1^dagger PhiU(V2 X V2^dagger) V1

Both are unital; ``PhiU4N`` is additionally trace preserving and self-dual.
Pauli convention: sigma_y = [[0, -i], [i, 0]].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import CONSTRUCTION_TOL, as_complex

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


@dataclass(frozen=True)
class MapDescriptor:
    """A PhiU4N map, or with V1 and V2 a ConjugatedPhiU map, and its parameters.

    ``size`` is N.  Parameter matrices are validated by the constructor
    functions below and must not be mutated afterwards.
    """

    size: int
    u: np.ndarray
    v1: np.ndarray | None = None
    v2: np.ndarray | None = None

    @property
    def family(self) -> str:
        """The map's family, "PhiU4N" or "ConjugatedPhiU", read off whether it has V1."""
        return "PhiU4N" if self.v1 is None else "ConjugatedPhiU"

    @cached_property
    def unitary_u(self) -> bool:
        """Whether U is an antisymmetric unitary (``is_antisymmetric_unitary``), decided once per map."""
        return is_antisymmetric_unitary(self.u)


def antisymmetry_defect(u: np.ndarray) -> float:
    u = as_complex(u)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed U + U^T is an infinite defect, rejected
        return float(np.max(np.abs(u + u.T))) if u.size else 0.0


def is_antisymmetric_contraction(u: np.ndarray) -> bool:
    """U^T = -U and largest eigenvalue of U U^dagger at most 1, within CONSTRUCTION_TOL; U U^dagger must be finite."""
    u = as_complex(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    if antisymmetry_defect(u) > CONSTRUCTION_TOL:
        return False
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed U U^dagger is rejected below
        gram = u @ u.conj().T
    if not np.isfinite(gram).all():  # eigvalsh of a NaN Gram matrix can return finite values
        return False
    top = float(np.linalg.eigvalsh(gram)[-1]) if u.size else 0.0  # eigvalsh reads one triangle: no sum to overflow
    return top <= 1.0 + CONSTRUCTION_TOL


def is_antisymmetric_unitary(u: np.ndarray) -> bool:
    u = as_complex(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] % 2 != 0:
        return False
    if antisymmetry_defect(u) > CONSTRUCTION_TOL:
        return False
    return float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))) <= CONSTRUCTION_TOL


def _require_unitary(v: np.ndarray, name: str) -> np.ndarray:
    v = as_complex(v)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {v.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed V^dagger V is a defect of inf or NaN
        defect = float(np.max(np.abs(v.conj().T @ v - np.eye(v.shape[0]))))
    if not defect <= CONSTRUCTION_TOL:  # a NaN defect fails too
        raise ValueError(f"{name} is not unitary: max|V^dagger V - I| = {defect:.3e}")
    return v


# --- constructors -----------------------------------------------------------


def phi_u(n: int, u: np.ndarray) -> MapDescriptor:
    """Generalized Robertson map on 4N x 4N matrices.

    ``u`` must be a 2N x 2N antisymmetric contraction (U U^dagger <= I);
    the closed-form certificates elsewhere in the package additionally
    require U to be strictly unitary.
    """
    if n < 1:
        raise ValueError("N must be a positive integer")
    u = as_complex(u)
    if u.shape != (2 * n, 2 * n):
        raise ValueError(f"U must be {2 * n}x{2 * n} for N={n}, got {u.shape}")
    if not is_antisymmetric_contraction(u):
        raise ValueError("U must be antisymmetric with U U^dagger <= I")
    return MapDescriptor(n, u)


def conjugated_phi(n: int, u: np.ndarray, v1: np.ndarray, v2: np.ndarray) -> MapDescriptor:
    """Unitary conjugation X -> V1^dagger PhiU(V2 X V2^dagger) V1 of the core family."""
    base = phi_u(n, u)
    v1 = _require_unitary(v1, "V1")
    v2 = _require_unitary(v2, "V2")
    d = 4 * n
    for name, v in (("V1", v1), ("V2", v2)):
        if v.shape != (d, d):
            raise ValueError(f"{name} must be {d}x{d} for N={n}, got {v.shape}")
    return MapDescriptor(n, base.u, v1, v2)


def youla_factor(u: np.ndarray) -> np.ndarray:
    """Unitary V with V U0 V^T = U for an antisymmetric unitary U: Youla's normal form.

    J x = U xbar is antiunitary with J^2 = U Ubar = -U U^dagger = -1.  For a unit e,
    f = -i J e is a unit vector orthogonal to e (e^dagger U ebar = 0 as U^T = -U),
    span{e, f} is J-invariant and so is its orthogonal complement.  Symplectic
    Gram-Schmidt picks e in the complement of the pairs found so far, pairs it with
    f and repeats; the pairs are the columns (2j, 2j + 1) of V, and
    V U0 V^T = sum_j i (f_j e_j^T - e_j f_j^T) = U.  U0 itself gives V = I exactly.
    D. C. Youla, Canad. J. Math. 13 (1961) 694-704.
    """
    u = as_complex(u)
    dim = len(u)
    v = np.zeros((dim, 0), dtype=complex)
    for _ in range(dim // 2):
        rest = np.eye(dim) - v @ v.conj().T  # projector onto the complement of the pairs so far
        e = rest[:, np.argmax(np.linalg.norm(rest, axis=0))]
        e = e - v @ (v.conj().T @ e)  # orthogonalized twice, for stability
        e = e / np.linalg.norm(e)
        v = np.column_stack([v, e, -1j * (u @ e.conj())])
    return v


def local_rotation(m: MapDescriptor) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) with witness (A (x) B) W(U0) (A (x) B)^dagger, W(U0) the witness of Phi_{U0} of m's size.

    With U = V U0 V^T (``youla_factor``), Phi_U is Phi_{U0} conjugated by
    V1 = V2 = I_2 (x) V^dagger, so a plain map has (I_2 (x) Vbar, I_2 (x) V) and a
    conjugated one (V2^T (I_2 (x) Vbar), V1^dagger (I_2 (x) V)).  U must be an
    antisymmetric unitary, which ``witnesses.Request`` checks first: for any
    other U the factor is no unitary and (A, B) relates nothing.
    """
    v = youla_factor(m.u)
    a, b = np.kron(np.eye(2), v.conj()), np.kron(np.eye(2), v)
    if m.family == "PhiU4N":
        return a, b
    return m.v2.T @ a, m.v1.conj().T @ b


# --- parameter generators ---------------------------------------------------


def canonical_u0(n: int) -> np.ndarray:
    """Direct sum of N copies of sigma_y: the canonical antisymmetric unitary."""
    if n < 1:
        raise ValueError("N must be a positive integer")
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    for j in range(n):
        out[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = SIGMA_Y
    return out


def conjugate_u0(v: np.ndarray) -> np.ndarray:
    """V U0 V^T, antisymmetric and unitary for any unitary V (V^T Vbar = I)."""
    v = _require_unitary(v, "V")
    if v.shape[0] % 2 != 0:
        raise ValueError("V must have even dimension")
    return v @ canonical_u0(v.shape[0] // 2) @ v.T


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-style random unitary from a QR-orthogonalized complex Gaussian."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_antisymmetric_unitary(n: int, seed: int) -> np.ndarray:
    """Seeded random antisymmetric unitary 2N x 2N, as V U0 V^T for a real orthogonal V.

    Its entries are purely imaginary: U is Hermitian as well.
    """
    if n < 1:
        raise ValueError("N must be a positive integer")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2 * n, 2 * n))
    q, r = np.linalg.qr(g)
    return conjugate_u0(as_complex(q * np.sign(np.diagonal(r))))


# --- the interpreter --------------------------------------------------------


def input_dim(m: MapDescriptor) -> int:
    """Dimension of the matrices the descriptor acts on."""
    return 4 * m.size


def _trace_eye(x: np.ndarray) -> np.ndarray:
    """I Tr X for X and for each member of a stack."""
    return np.eye(x.shape[-1], dtype=complex) * np.trace(x, axis1=-2, axis2=-1)[..., None, None]


def apply_map(m: MapDescriptor, x: np.ndarray) -> np.ndarray:
    """Apply the described map to a d x d matrix or to each member of a (..., d, d) stack.

    Linear in X and Hermiticity preserving.
    """
    x = as_complex(x)
    d = input_dim(m)
    if x.ndim < 2 or x.shape[-2:] != (d, d):
        raise ValueError(
            f"{m.family} with size {m.size} acts on {d}x{d} matrices or (..., {d}, {d}) stacks, got {x.shape}"
        )

    if m.family == "ConjugatedPhiU":
        inner = apply_map(MapDescriptor(m.size, m.u), m.v2 @ x @ m.v2.conj().T)
        return m.v1.conj().T @ inner @ m.v1

    u = m.u
    k = d // 2
    x11, x12, x21, x22 = x[..., :k, :k], x[..., :k, k:], x[..., k:, :k], x[..., k:, k:]
    return np.block(
        [
            [_trace_eye(x22), -(x12 + u @ np.swapaxes(x21, -1, -2) @ u.conj().T)],
            [-(x21 + u @ np.swapaxes(x12, -1, -2) @ u.conj().T), _trace_eye(x11)],
        ]
    ) / k
