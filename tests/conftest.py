import contextlib
import warnings

import numpy as np
import pytest

import reference_maps
from robwit import maps, witnesses

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


def matrix_unit(d: int, i: int, j: int) -> np.ndarray:
    """d x d matrix with a single 1 at (i, j), 0-based."""
    e = np.zeros((d, d), dtype=complex)
    e[i, j] = 1.0
    return e


def build_example_map(family: str, size: int, mode: str = "real-orthogonal",
                      seed: int = 0) -> maps.MapDescriptor:
    """A valid PhiU4N or ConjugatedPhiU descriptor of size N; U is drawn in ``mode``."""
    u = maps.random_antisymmetric_unitary(size, seed, mode)
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
        u = maps.random_antisymmetric_unitary(k, seed, mode)
        return (lambda x: reference_maps.breuer_hall(x, u)), 2 * k
    blocks = {"MapI": reference_maps.map_i, "MapII": reference_maps.map_ii, "Psi2K": reference_maps.psi_2k}
    return blocks[family], 2 * size


def self_dual_reference(f, d: int):
    """``reference_witness(f, d)`` carrying the self-duality defect that ``Witness``'s own property measures.

    A reference map has no descriptor, so it is no ``Witness``; the property reads only matrix and d.
    """
    ref = reference_maps.reference_witness(f, d)
    ref.self_duality_defect = witnesses.Witness.self_duality_defect.func(ref)
    return ref


@pytest.fixture(scope="session")
def example_map():
    return build_example_map


@pytest.fixture(scope="session")
def example_action():
    return build_example_action


def perturb_witness(scale: float) -> witnesses.Witness:
    """W + scale H at N=1 for a seeded Hermitian H: Hermitian and not positive, but not a Phi_U witness."""
    w = witnesses.choi(maps.phi_u(1, maps.canonical_u0(1)))
    rng = np.random.default_rng(2024)
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    return witnesses.Witness(w.matrix + scale * (g + g.conj().T) / 2, w.source)


def corrupted_conjugated_witness(i: int, j: int) -> witnesses.Witness:
    """A conjugated N=1 witness with 1e-6 added to entry [i, j]: still Hermitian only if i == j.

    Its base, built from the source, stays exact, so the corruption shows only in
    the witness's rotation residual.
    """
    m = maps.conjugated_phi(1, maps.canonical_u0(1), maps.random_unitary(4, seed=18), maps.random_unitary(4, seed=19))
    corrupted = witnesses.choi(m).matrix.copy()
    corrupted[i, j] += 1e-6
    return witnesses.Witness(corrupted, m)


@pytest.fixture(scope="session")
def perturbed_witness():
    return perturb_witness(1e-3)


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
