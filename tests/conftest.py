import contextlib
import warnings

import numpy as np
import pytest

import reference_maps
from robwit import linalg, maps, witnesses

CORE_FAMILIES = ("PhiU4N", "ConjugatedPhiU")
FAMILIES = CORE_FAMILIES + ("Reduction", "MapI", "MapII", "Robertson4", "Psi2K", "BreuerHall")  # references last
# the families whose formulas make them unital (Breuer-Hall through its 1/(2K - 2) factor)
UNITAL = ("PhiU4N", "ConjugatedPhiU", "MapII", "Robertson4", "Psi2K", "BreuerHall")

# Hypothesis's pytest plugin imports this module lazily to report a failing example.  It
# imports libcst, whose import warns that mypy_extensions.TypedDict is deprecated; under
# -W error that warning would end the run in INTERNALERROR instead of the falsifying
# example.  Importing it once here, with only that warning ignored, keeps the report.
with warnings.catch_warnings(), contextlib.suppress(ImportError):  # without libcst the plugin skips the patch
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


# How a test draws U = V U0 V^T: V real orthogonal, as ``maps.random_antisymmetric_unitary`` draws it
# (U purely imaginary and Hermitian), or V = ``maps.random_unitary(2N, seed)`` (U fully complex).
MODES = ("real-orthogonal", "complex-unitary")

# The one message with which every certificate rejects a U that is not an antisymmetric unitary.
NOT_UNITARY = "U must be an antisymmetric unitary: every certificate reads W(U0) through U = V U0 V^T"


def matrix_unit(d: int, i: int, j: int) -> np.ndarray:
    """d x d matrix with a single 1 at (i, j), 0-based."""
    e = np.zeros((d, d), dtype=complex)
    e[i, j] = 1.0
    return e


def random_u(n: int, seed: int, mode: str = "real-orthogonal") -> np.ndarray:
    """A seeded antisymmetric unitary 2N x 2N, its V drawn in ``mode`` (one of ``MODES``)."""
    if mode == "real-orthogonal":
        return maps.random_antisymmetric_unitary(n, seed)
    if mode == "complex-unitary":
        return maps.conjugate_u0(maps.random_unitary(2 * n, seed))
    raise ValueError(f"unknown mode {mode!r}")


def build_example_map(family: str, size: int, mode: str = "real-orthogonal",
                      seed: int = 0) -> maps.MapDescriptor:
    """A valid PhiU4N or ConjugatedPhiU descriptor of size N; U is drawn in ``mode``."""
    u = random_u(size, seed, mode)
    if family == "PhiU4N":
        return maps.phi_u(size, u)
    if family == "ConjugatedPhiU":
        d = 4 * size
        return maps.conjugated_phi(size, u, maps.random_unitary(d, seed + 1), maps.random_unitary(d, seed + 2))
    raise ValueError(f"unknown family {family!r}")


def build_example_action(family: str, size: int, mode: str = "real-orthogonal", seed: int = 0):
    """(F, d): an example map of any of ``FAMILIES`` as a function on (..., d, d) stacks.

    The core families go through ``maps.apply_map`` with size N.  The
    references of ``reference_maps`` take size K: dimension K for Reduction,
    2K for the block maps and Breuer-Hall (K raised to 2, with U drawn in
    ``mode``), and 4 for Robertson4.
    """
    if family in CORE_FAMILIES:
        m = build_example_map(family, size, mode, seed)
        return (lambda x: maps.apply_map(m, x)), maps.input_dim(m)
    if family == "Reduction":
        return reference_maps.reduction, size
    if family == "Robertson4":
        return reference_maps.robertson4, 4
    if family == "BreuerHall":
        k = max(size, 2)
        u = random_u(k, seed, mode)
        return (lambda x: reference_maps.breuer_hall(x, u)), 2 * k
    blocks = {"MapI": reference_maps.map_i, "MapII": reference_maps.map_ii, "Psi2K": reference_maps.psi_2k}
    return blocks[family], 2 * size


def self_dual_reference(f, d: int):
    """``reference_witness(f, d)`` carrying the self-duality defect that ``Base``'s own property measures.

    A reference map has no descriptor, and its d need not be a multiple of 4, so it is no ``Base``;
    the property reads only matrix and d.
    """
    ref = reference_maps.reference_witness(f, d)
    ref.self_duality_defect = witnesses.Base.self_duality_defect.func(ref)
    return ref


def with_facts(cls: type, source: maps.MapDescriptor, **facts):
    """A ``cls`` (``Choi``, ``Base`` or ``Request``) of ``source`` whose named facts are the given values.

    Each value is a class attribute of a one-off subclass, so it shadows the cached property
    of that name and every other fact is computed as usual.  ``plain`` is one such fact: a
    stand-in W_p in place of ``plain_choi(source)``.  A name that ``cls`` has no fact of
    raises, so a stand-in cannot set a fact that no check reads off its class.
    """
    unknown = [name for name in facts if not hasattr(cls, name)]
    if unknown:
        raise AttributeError(f"{cls.__name__} has no fact {unknown}")
    return type(f"StandIn{cls.__name__}", (cls,), facts)(source)


def dense_generators(n: int) -> np.ndarray:
    """Rows e_l, then e_m + e_n and e_m + i e_n for each m < n, from the double loop: the spanning family, densely."""
    d = 4 * n
    e = np.eye(d, dtype=complex)
    rows = list(e)
    for m in range(d):
        for k in range(m + 1, d):
            rows += [e[m] + e[k], e[m] + 1j * e[k]]
    return np.array(rows)


def densify(cells: np.ndarray, values: np.ndarray, d: int) -> np.ndarray:
    """Row k is values[k, 0] e_{cells[k, 0]} + values[k, 1] e_{cells[k, 1]} in C^d."""
    rows = np.zeros((len(cells), d), dtype=complex)
    np.add.at(rows, (np.arange(len(cells))[:, None], cells), values)
    return rows


def gamma_unitary(m: maps.MapDescriptor) -> np.ndarray:
    """G = Abar (I_2 (x) U0) A^dagger, (A, B) the map's local rotation: W^Gamma = (G (x) 1) W (G (x) 1)^dagger.

    Gamma is the partial transpose on the first factor; for a plain map G = U (+) U.
    """
    a, _ = maps.local_rotation(m)
    return a.conj() @ np.kron(np.eye(2), maps.canonical_u0(m.size)) @ a.conj().T


@pytest.fixture(scope="session")
def example_map():
    return build_example_map


@pytest.fixture(scope="session")
def example_action():
    return build_example_action


def perturb_witness(scale: float) -> witnesses.Request:
    """The request of W + scale H at N=1, H a seeded Hermitian: Hermitian and not positive, but not a Phi_U witness."""
    m = maps.phi_u(1, maps.canonical_u0(1))
    rng = np.random.default_rng(2024)
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    return with_facts(witnesses.Request, m, plain=witnesses.plain_choi(m) + scale * (g + g.conj().T) / 2)


def corrupted_witness(m: maps.MapDescriptor, i: int, j: int) -> witnesses.Request:
    """The request of m with 1e-6 added to entry [i, j] of its W_p: still Hermitian only if i == j.

    Its base, W(U0), stays exact, so the corruption shows only in the witness's
    rotation residual.  A conjugated map moves it by the unitary V2^T (x) V1^dagger,
    which keeps ||E||_F = 1e-6.
    """
    corrupted = witnesses.plain_choi(m)
    corrupted[i, j] += 1e-6
    return with_facts(witnesses.Request, m, plain=corrupted)


def corrupted_conjugated_witness(i: int, j: int) -> witnesses.Request:
    """``corrupted_witness`` of a conjugated N=1 map with U = U0."""
    m = maps.conjugated_phi(1, maps.canonical_u0(1), maps.random_unitary(4, seed=18), maps.random_unitary(4, seed=19))
    return corrupted_witness(m, i, j)


def corrupted_plain_witness(i: int, j: int) -> witnesses.Request:
    """``corrupted_witness`` of the plain N=1 map of a seeded U, whose rotation is a Youla factor."""
    return corrupted_witness(maps.phi_u(1, random_u(1, 3, "complex-unitary")), i, j)


@pytest.fixture(scope="session")
def perturbed_witness():
    return perturb_witness(1e-3)


def oracle_choi(m: maps.MapDescriptor) -> np.ndarray:
    """W = (1/d) sum_kl |k><l| (x) F(|k><l|) through ``maps.apply_map``: every matrix unit mapped, then realigned.

    The oracle for the closed form of ``witnesses.plain_choi`` and ``Choi.matrix``.
    """
    d = maps.input_dim(m)
    units = np.eye(d * d, dtype=complex).reshape(d, d, d, d)  # units[k, l] = |k><l|
    images = maps.apply_map(m, units).reshape(d * d, d * d)  # row (k, l), column (i, j)
    return linalg.realign(images, d, d) / d


def flip_one_block(plain: np.ndarray, n: int) -> np.ndarray:
    """W_p of size N with the sign of its block t[K:, :K, :K, K:] = -c U Ubar flipped: a wrong closed form."""
    d, k = 4 * n, 2 * n
    flipped = plain.copy()
    flipped.reshape(d, d, d, d)[k:, :k, :k, k:] *= -1
    return flipped


def reference_detection_sum(m: maps.MapDescriptor) -> float:
    """sum_kl <k| F(|k><l|) |l>, which equals d^2 Tr(W P+).

    For the core family with unitary U the value is -4N, the anchor behind
    the isotropic detection curve.
    """
    d = maps.input_dim(m)
    units = np.eye(d * d, dtype=complex).reshape(d, d, d, d)  # units[k, l] = |k><l|
    total = complex(np.einsum("klkl->", maps.apply_map(m, units)))
    assert abs(total.imag) <= 1e-12 * max(1.0, abs(total.real)), total
    return float(total.real)


@pytest.fixture(scope="session")
def detection_sum():
    return reference_detection_sum
