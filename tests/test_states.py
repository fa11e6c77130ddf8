import re

import numpy as np
import pytest

from robwit import certify, maps, states, witnesses
from robwit.linalg import min_eigenvalue, partial_transpose

from conftest import NOT_UNITARY


@pytest.fixture(scope="module")
def canonical_witness():
    return witnesses.choi(maps.phi_u(1, maps.canonical_u0(1)))


class TestPptEntangledState:
    def test_normalization(self):
        assert states.normalization_factor(1) == pytest.approx(1 / 40)
        assert states.normalization_factor(2) == pytest.approx(1 / 288)

    def test_diagonal_blocks_at_n1(self, canonical_witness):
        rho = states.ppt_entangled_state(canonical_witness)
        upper = np.diag([4.0, 4.0, 1.0, 1.0]) / 40
        lower = np.diag([1.0, 1.0, 4.0, 4.0]) / 40
        for i in (0, 1):
            np.testing.assert_allclose(rho[4 * i : 4 * i + 4, 4 * i : 4 * i + 4], upper, atol=1e-15)
        for i in (2, 3):
            np.testing.assert_allclose(rho[4 * i : 4 * i + 4, 4 * i : 4 * i + 4], lower, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2])
    def test_density_operator_invariants(self, n):
        w = witnesses.choi(maps.phi_u(n, maps.canonical_u0(n)))
        rho = states.ppt_entangled_state(w)
        d = 4 * n
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
        assert complex(np.trace(rho)).real == pytest.approx(1.0, abs=1e-12)
        assert min_eigenvalue(rho) >= -1e-10
        assert min_eigenvalue(partial_transpose(rho, d, d).T) >= -1e-10

    def test_detected_value_at_n1(self, canonical_witness):
        state = states.ppt_entangled_state(canonical_witness)
        assert witnesses.detect(canonical_witness, state) == pytest.approx(-1 / 320, abs=1e-12)

    def test_random_u(self):
        u = maps.random_antisymmetric_unitary(1, seed=30)
        w = witnesses.choi(maps.phi_u(1, u))
        state = states.ppt_entangled_state(w)
        assert witnesses.detect(w, state) == pytest.approx(-1 / 320, abs=1e-12)

    def test_rejects_contraction_u(self, monkeypatch):
        # the state is built only from W(U0), for a Request, which refuses a contraction U when it is
        # built, with the one message, before any state is built
        built = []
        build = states.ppt_entangled_state
        monkeypatch.setattr(states, "ppt_entangled_state", lambda x: built.append(x) or build(x))
        witnesses.canonical_witness.cache_clear()
        with pytest.raises(ValueError, match=f"^{re.escape(NOT_UNITARY)}$"):
            certify.run_full_suite(maps.phi_u(1, 0.5 * maps.SIGMA_Y))
        assert built == []


class TestIsotropicState:
    def test_maximally_mixed_endpoint(self):
        np.testing.assert_allclose(states.isotropic_state(4, 1.0), np.eye(16) / 16, atol=1e-15)

    def test_maximally_entangled_endpoint(self):
        np.testing.assert_allclose(
            states.isotropic_state(4, 0.0), states.max_entangled(4), atol=1e-15
        )

    @pytest.mark.parametrize("d", [2, 4, 12])
    def test_matches_dense_sum(self, d):
        # oracle: the dense sum (lam/d^2) I + (1 - lam) P+ with P+ = |v><v| / d; same IEEE sums
        v = np.zeros(d * d, dtype=complex)
        v[:: d + 1] = 1.0
        plus = np.outer(v, v.conj()) / d
        for lam in (0.0, 0.3, 0.8, 1.0):
            reference = (lam / d ** 2) * np.eye(d * d, dtype=complex) + (1.0 - lam) * plus
            first, second = states.isotropic_state(d, lam), states.isotropic_state(d, lam)
            np.testing.assert_array_equal(first, reference, err_msg=f"lam={lam}")
            first[0, 0] = 7.0  # each call hands out its own writable array
            np.testing.assert_array_equal(second, reference, err_msg=f"lam={lam}")

    def test_halfway_eigenvalues(self):
        # oracle: P+ is a rank-1 projector, so eigenvalues are lam/d^2 with one shifted
        # by 1 - lam; isotropic_state relies on this instead of an eigensolve
        for d in (4, 12):
            for lam in (0.0, 0.3, 0.5, 1.0):
                eigs = np.linalg.eigvalsh(states.isotropic_state(d, lam))
                expected = np.sort([lam / d ** 2] * (d * d - 1) + [lam / d ** 2 + 1.0 - lam])
                np.testing.assert_allclose(eigs, expected, atol=1e-12, err_msg=f"d={d}, lam={lam}")

    def test_rejects_out_of_range(self):
        for lam in (-0.1, 1.1):
            with pytest.raises(ValueError, match="outside"):
                states.isotropic_state(4, lam)


class TestEntanglementThreshold:
    def test_values(self):
        assert states.isotropic_entanglement_threshold(1) == pytest.approx(0.8)
        assert states.isotropic_entanglement_threshold(2) == pytest.approx(8 / 9)

    def test_monotone_below_one(self):
        vals = [states.isotropic_entanglement_threshold(n) for n in range(1, 6)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(v < 1.0 for v in vals)

    def test_separable_side_not_detected(self, canonical_witness):
        for lam in (0.8, 0.9, 1.0):
            value = witnesses.detect(canonical_witness, states.isotropic_state(4, lam))
            assert value >= -1e-12
