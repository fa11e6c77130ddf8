import re

import numpy as np
import pytest

from robwit import maps, witnesses
from robwit.linalg import local_conjugate, min_eigenvalue, partial_transpose

from conftest import CORE_FAMILIES, FAMILIES, corrupted_conjugated_witness, matrix_unit, self_dual_reference


@pytest.fixture(scope="module")
def canonical_witness():
    return witnesses.choi(maps.phi_u(1, maps.canonical_u0(1)))


class TestMaxEntangled:
    def test_bell_matrix(self):
        expected = 0.5 * np.array(
            [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex
        )
        np.testing.assert_allclose(witnesses.max_entangled(2), expected, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 4, 12])
    def test_matches_dense_outer_product(self, d):
        v = np.zeros(d * d, dtype=complex)
        v[:: d + 1] = 1.0
        reference = np.outer(v, v.conj()) / d
        first, second = witnesses.max_entangled(d), witnesses.max_entangled(d)
        np.testing.assert_array_equal(first, reference)
        first[0, 0] = 7.0  # each call hands out its own writable array
        np.testing.assert_array_equal(second, reference)
        np.testing.assert_array_equal(witnesses.max_entangled(d), reference)

    def test_rank_one_projector(self):
        p = witnesses.max_entangled(4)
        assert complex(np.trace(p)).real == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(p @ p, p, atol=1e-12)

    @pytest.mark.parametrize("d", [4, 8])
    def test_twirl_invariance(self, d):
        p = witnesses.max_entangled(d)
        for seed in range(10):
            v = maps.random_unitary(d, seed=seed)
            big = np.kron(v, v.conj())
            np.testing.assert_allclose(big @ p @ big.conj().T, p, atol=1e-12)

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            witnesses.max_entangled(1)


class TestChoi:
    def test_matches_bruteforce_construction(self, canonical_witness, example_map):
        # oracle: assemble (1/d) sum_kl |k><l| (x) F(|k><l|) from scratch
        def bruteforce(m):
            d = maps.input_dim(m)
            expected = np.zeros((d * d, d * d), dtype=complex)
            for k in range(d):
                for l in range(d):
                    expected += np.kron(matrix_unit(d, k, l), maps.apply_map(m, matrix_unit(d, k, l)))
            return expected / d

        expected = bruteforce(maps.phi_u(1, maps.canonical_u0(1)))
        np.testing.assert_allclose(canonical_witness.matrix, expected, atol=1e-15)
        for family in CORE_FAMILIES:
            for mode in ("real-orthogonal", "complex-unitary"):
                m = example_map(family, 2, mode, seed=3)
                np.testing.assert_allclose(witnesses.choi(m).matrix, bruteforce(m), atol=1e-15,
                                           err_msg=f"{family} ({mode})")

    def test_known_entry(self, canonical_witness):
        # F(|1><1|) = diag(0, 0, 1, 1)/2, so W[(1,3), (1,3)] = 1/8 in 1-based labels
        assert canonical_witness.matrix[2, 2] == pytest.approx(1 / 8, abs=1e-15)

    def test_trace_one_and_hermitian(self, canonical_witness):
        w = canonical_witness.matrix
        assert complex(np.trace(w)).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(w - w.conj().T)) <= 1e-12

    def test_witness_has_negative_eigenvalue(self, canonical_witness):
        assert min_eigenvalue(canonical_witness.matrix) <= -1e-10

    def test_zero_contraction_choi_is_decomposable_side(self):
        # Phi_0 (the map MapII) is positive but not completely positive; its Choi
        # matrix has a positive partial transpose, which exhibits it as CP o transpose
        w = witnesses.choi(maps.phi_u(1, np.zeros((2, 2))))
        assert min_eigenvalue(w.matrix) < -1e-2
        assert min_eigenvalue(partial_transpose(w.matrix, 4, 4, "A")) >= -1e-10


class TestExpectedSpectrum:
    def test_n1_multiset(self):
        assert witnesses.expected_spectrum(1) == [(-0.25, 1), (0.0, 10), (0.25, 4), (0.25, 1)]

    def test_n2_multiset(self):
        assert witnesses.expected_spectrum(2) == [(-0.125, 1), (0.0, 46), (0.0625, 16), (0.125, 1)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_multiplicities_and_weighted_sum(self, n):
        spec = witnesses.expected_spectrum(n)
        assert sum(mult for _, mult in spec) == (4 * n) ** 2
        assert sum(val * mult for val, mult in spec) == pytest.approx(1.0, abs=1e-14)


class TestVerifySpectrum:
    def test_canonical(self, canonical_witness):
        report = witnesses.verify_spectrum(canonical_witness)
        assert report.passed and report.measured < 1e-9

    def test_spectrum_is_u_independent(self):
        u = maps.random_antisymmetric_unitary(1, seed=21, mode="complex-unitary")
        report = witnesses.verify_spectrum(witnesses.choi(maps.phi_u(1, u)))
        assert report.passed

    def test_n2(self):
        report = witnesses.verify_spectrum(witnesses.choi(maps.phi_u(2, maps.canonical_u0(2))))
        assert report.passed

    def test_fails_on_perturbed_witness(self, perturbed_witness):
        report = witnesses.verify_spectrum(perturbed_witness)
        assert not report.passed and report.measured > 1e-4

    def test_fails_on_a_corrupted_conjugated_witness(self):
        # the base spectrum matches the closed form; the 1e-6 rotation slack must fail it
        report = witnesses.verify_spectrum(corrupted_conjugated_witness(5, 5))
        assert report.measured <= 1e-14
        assert re.search(r"rotation slack 1\.00e-06;", report.details)
        assert not report.passed

    def test_fails_without_raising_on_a_non_hermitian_conjugated_witness(self):
        report = witnesses.verify_spectrum(corrupted_conjugated_witness(0, 5))
        assert report.measured <= 1e-14
        assert not report.passed


class TestCachedSpectrum:
    def test_matches_eigvalsh(self, example_map):
        for w in (witnesses.choi(maps.phi_u(2, maps.canonical_u0(2))),
                  witnesses.choi(example_map("ConjugatedPhiU", 1, "complex-unitary", seed=4))):
            np.testing.assert_allclose(w.spectrum, np.linalg.eigvalsh(w.matrix), atol=1e-12)

    def test_computed_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(witnesses, "hermitian_eig", lambda m, tol: calls.append(m) or np.zeros(16))
        w = witnesses.choi(maps.phi_u(1, maps.canonical_u0(1)))
        assert w.spectrum is w.spectrum
        assert len(calls) == 1
        with pytest.raises(ValueError, match="read-only"):
            w.spectrum[0] = 1.0

    def test_rejects_non_hermitian_matrix(self, canonical_witness):
        skewed = canonical_witness.matrix.copy()
        skewed[0, 1] += 1e-6
        with pytest.raises(ValueError, match="not Hermitian"):
            witnesses.Witness(skewed, canonical_witness.source).spectrum


class TestWitness:
    def test_rejects_a_matrix_of_the_wrong_size(self, canonical_witness):
        with pytest.raises(ValueError, match=r"is 16x16, got \(4, 4\)"):
            witnesses.Witness(np.eye(4, dtype=complex) / 4, canonical_witness.source)


class TestBase:
    def test_plain_witness_is_its_own_base_without_a_cycle(self, canonical_witness):
        assert canonical_witness.base is canonical_witness
        assert "_base" not in vars(canonical_witness)

    def test_conjugated_base_is_built_once(self, example_map):
        w = witnesses.choi(example_map("ConjugatedPhiU", 1, seed=5))
        assert w.base is w.base
        assert w.base.source.family == "PhiU4N"
        np.testing.assert_array_equal(w.base.matrix, witnesses.choi(maps.base_descriptor(w.source)).matrix)


class TestSelfDualityDefect:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("size", [1, 2])
    def test_exact_on_self_dual_families_only(self, example_map, example_action, family, size):
        if family in CORE_FAMILIES:
            w = witnesses.choi(example_map(family, size))
        else:
            w = self_dual_reference(*example_action(family, size))
        defect = w.self_duality_defect
        if family == "ConjugatedPhiU":  # independent V1 != V2 break self-duality
            assert defect >= 1e-3
        else:
            assert defect <= 1e-12


class TestGammaUnitary:
    def test_matches_stated_form_for_sigma_y(self):
        v = witnesses.gamma_unitary(maps.phi_u(1, maps.SIGMA_Y))
        sy = maps.SIGMA_Y
        expected = np.block([[sy.conj().T, np.zeros((2, 2))], [np.zeros((2, 2)), sy]])
        np.testing.assert_allclose(v, expected, atol=1e-15)

    def test_unitary(self):
        v = witnesses.gamma_unitary(maps.phi_u(2, maps.canonical_u0(2)))
        np.testing.assert_allclose(v @ v.conj().T, np.eye(8), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("seed", [None, 22])
    def test_conjugation_identity(self, n, seed):
        u = maps.canonical_u0(n) if seed is None else maps.random_antisymmetric_unitary(
            n, seed=seed, mode="complex-unitary"
        )
        w = witnesses.choi(maps.phi_u(n, u))
        g = witnesses.gamma_unitary(w.source)
        residual = partial_transpose(w.matrix, w.d, w.d, "A") - local_conjugate(w.matrix, g, np.eye(w.d))
        assert np.max(np.abs(residual)) <= 1e-12

    def test_partial_transpose_is_isospectral(self, canonical_witness):
        w = canonical_witness.matrix
        wg = partial_transpose(w, 4, 4, "A")
        np.testing.assert_allclose(np.linalg.eigvalsh(wg), np.linalg.eigvalsh(w), atol=1e-12)

    def test_rejects_invalid_u(self):
        # Phi_U accepts a contraction, but (W)^Gamma is a unitary conjugate of W only for unitary U
        with pytest.raises(ValueError, match="antisymmetric"):
            witnesses.gamma_unitary(maps.phi_u(1, 0.5 * maps.SIGMA_Y))


class TestTransformWitness:
    def test_identity_leaves_unchanged(self, canonical_witness):
        out = witnesses.transform_witness(canonical_witness, np.eye(4), np.eye(4))
        np.testing.assert_allclose(out.matrix, canonical_witness.matrix, atol=1e-14)

    def test_spectrum_unchanged(self, canonical_witness):
        out = witnesses.transform_witness(
            canonical_witness, maps.random_unitary(4, seed=23), maps.random_unitary(4, seed=24)
        )
        np.testing.assert_allclose(
            np.linalg.eigvalsh(out.matrix),
            np.linalg.eigvalsh(canonical_witness.matrix),
            atol=1e-12,
        )

    def test_agrees_with_conjugated_map_choi(self, canonical_witness):
        v1 = maps.random_unitary(4, seed=25)
        v2 = maps.random_unitary(4, seed=26)
        transformed = witnesses.transform_witness(canonical_witness, v1, v2)
        direct = witnesses.choi(maps.conjugated_phi(1, maps.canonical_u0(1), v1, v2))
        np.testing.assert_allclose(transformed.matrix, direct.matrix, atol=1e-12)

    def test_rejects_non_unitary(self, canonical_witness):
        with pytest.raises(ValueError, match="not unitary"):
            witnesses.transform_witness(canonical_witness, 2 * np.eye(4), np.eye(4))
