"""Reference formulas for the positive maps that Phi_U generalizes.

Each map is a plain numpy function on a d x d matrix or a ``(..., d, d)``
stack, written from its formula, with X split into half-size blocks
``[[X11, X12], [X21, X22]]``.  They exist to check the claim that Phi_U
generalizes the Robertson map: Phi_{sigma_y} at N=1 = Psi_4 = Robertson =
Breuer-Hall at U0, and MapII = Phi_0.  Nothing here imports the package.
"""

from types import SimpleNamespace

import numpy as np


def trace_eye(x):
    """I Tr X for X and for each member of a stack."""
    return np.eye(x.shape[-1], dtype=complex) * np.trace(x, axis1=-2, axis2=-1)[..., None, None]


def quarters(x):
    k = x.shape[-1] // 2
    return x[..., :k, :k], x[..., :k, k:], x[..., k:, :k], x[..., k:, k:]


def reduction(x):
    """Reduction map X -> I Tr X - X on K x K matrices."""
    return trace_eye(x) - x


def map_i(x):
    """First block generalization of the qubit reduction: (1/K) [[X22, -X12], [-X21, X11]]."""
    x11, x12, x21, x22 = quarters(x)
    return np.block([[x22, -x12], [-x21, x11]]) / x11.shape[-1]


def map_ii(x):
    """Second block generalization: (1/K) [[I Tr X22, -X12], [-X21, I Tr X11]]."""
    x11, x12, x21, x22 = quarters(x)
    return np.block([[trace_eye(x22), -x12], [-x21, trace_eye(x11)]]) / x11.shape[-1]


def qubit_reduction(y):
    """[[y22, -y12], [-y21, y11]] on (..., 2, 2) stacks, entry by entry."""
    top = np.stack([y[..., 1, 1], -y[..., 0, 1]], axis=-1)
    bottom = np.stack([-y[..., 1, 0], y[..., 0, 0]], axis=-1)
    return np.stack([top, bottom], axis=-2)


def robertson4(x):
    """Robertson's map on 4 x 4 matrices, with R the qubit reduction on the 2 x 2 blocks.

    (1/2) [[I Tr X22, -(X12 + R(X21))], [-(X21 + R(X12)), I Tr X11]].
    """
    x11, x12, x21, x22 = quarters(x)
    return np.block(
        [
            [trace_eye(x22), -(x12 + qubit_reduction(x21))],
            [-(x21 + qubit_reduction(x12)), trace_eye(x11)],
        ]
    ) / 2


def psi_2k(x):
    """Robertson's scheme on 2K x 2K matrices with the reduction map R_K on the K x K blocks."""
    x11, x12, x21, x22 = quarters(x)
    return np.block(
        [
            [trace_eye(x22), -(x12 + reduction(x21))],
            [-(x21 + reduction(x12)), trace_eye(x11)],
        ]
    ) / x11.shape[-1]


def breuer_hall(x, u):
    """Breuer-Hall map (I Tr X - X - U X^T U^dagger) / (2K - 2) for an antisymmetric unitary U of dimension 2K >= 4."""
    return (reduction(x) - u @ np.swapaxes(x, -1, -2) @ u.conj().T) / (x.shape[-1] - 2)


def reference_witness(f, d: int) -> SimpleNamespace:
    """W = (1/d) sum_kl |k><l| (x) f(|k><l|) for a map f on d x d matrices, with its d.

    Those two fields are all the self-duality defect of a witness is measured from.
    """
    units = np.eye(d * d, dtype=complex).reshape(d, d, d, d)  # units[k, l] = |k><l|
    images = f(units)  # images[k, l, i, j] = <i| f(|k><l|) |j>
    return SimpleNamespace(matrix=images.transpose(0, 2, 1, 3).reshape(d * d, d * d) / d, d=d)
