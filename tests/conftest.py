import numpy as np
import pytest

from robwit import maps, witnesses


def matrix_unit(d: int, i: int, j: int) -> np.ndarray:
    """d x d matrix with a single 1 at (i, j), 0-based."""
    e = np.zeros((d, d), dtype=complex)
    e[i, j] = 1.0
    return e


def build_example_map(family: str, size: int, mode: str = "real-orthogonal",
                      seed: int = 0) -> maps.MapDescriptor:
    """A valid descriptor of ``family``; U (where the family has one) is drawn in ``mode``.

    ``size`` is K or N as in :class:`robwit.maps.MapDescriptor`, raised to the
    family's minimum where it has one (Breuer-Hall needs K >= 2).
    """
    if family == "Reduction":
        return maps.reduction_map(size)
    if family == "MapI":
        return maps.map_i(size)
    if family == "MapII":
        return maps.map_ii(size)
    if family == "Robertson4":
        return maps.robertson4()
    if family == "Psi2K":
        return maps.psi_2k(size)
    if family == "BreuerHall":
        return maps.breuer_hall(maps.random_antisymmetric_unitary(max(size, 2), seed, mode))
    u = maps.random_antisymmetric_unitary(size, seed, mode)
    if family == "PhiU4N":
        return maps.phi_u(size, u)
    if family == "ConjugatedPhiU":
        d = 4 * size
        return maps.conjugated_phi(size, u, maps.random_unitary(d, seed + 1), maps.random_unitary(d, seed + 2))
    raise ValueError(f"unknown family {family!r}")


@pytest.fixture(scope="session")
def example_map():
    return build_example_map


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
