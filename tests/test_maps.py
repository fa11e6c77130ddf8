import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_maps as ref
from robwit import maps
from robwit.linalg import local_conjugate, min_eigenvalue, partial_transpose
from robwit.witnesses import canonical_witness, choi

from conftest import CORE_FAMILIES, FAMILIES, MODES, UNITAL, matrix_unit, random_u


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestReduction:
    def test_qubit_action(self):
        rng = np.random.default_rng(0)
        x = random_complex(rng, (2, 2))
        out = ref.reduction(x)
        expected = np.array([[x[1, 1], -x[0, 1]], [-x[1, 0], x[0, 0]]])
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_identity_scaling(self):
        out = ref.reduction(np.eye(3))
        np.testing.assert_allclose(out, 2 * np.eye(3), atol=1e-15)

    def test_rank_one_projector_complement(self):
        rng = np.random.default_rng(1)
        v = random_complex(rng, 2)
        v /= np.linalg.norm(v)
        out = ref.reduction(np.outer(v, v.conj()))
        eigs = np.linalg.eigvalsh(out)
        np.testing.assert_allclose(eigs, [0.0, 1.0], atol=1e-12)

    def test_trace_arithmetic(self):
        # oracle: Tr(I Tr X - X) = (K - 1) Tr X
        rng = np.random.default_rng(2)
        x = random_complex(rng, (5, 5))
        out = ref.reduction(x)
        assert complex(np.trace(out)) == pytest.approx(4 * complex(np.trace(x)), abs=1e-12)


class TestBlockGeneralizations:
    def test_both_reduce_to_qubit_form_at_k1(self):
        rng = np.random.default_rng(3)
        x = random_complex(rng, (2, 2))
        expected = np.array([[x[1, 1], -x[0, 1]], [-x[1, 0], x[0, 0]]])
        np.testing.assert_allclose(ref.map_i(x), expected, atol=1e-15)
        np.testing.assert_allclose(ref.map_ii(x), expected, atol=1e-15)

    def test_map_ii_unital(self):
        out = ref.map_ii(np.eye(4))
        np.testing.assert_allclose(out, np.eye(4), atol=1e-15)

    def test_map_ii_is_zero_contraction_case(self):
        rng = np.random.default_rng(4)
        for n in (1, 2):
            zero_u = maps.phi_u(n, np.zeros((2 * n, 2 * n)))
            for _ in range(10):
                x = random_complex(rng, (4 * n, 4 * n))
                np.testing.assert_allclose(ref.map_ii(x), maps.apply_map(zero_u, x), atol=1e-12)


class TestRobertsonFamilyCoincidences:
    def test_psi4_equals_phi_sigma_y(self):
        rng = np.random.default_rng(5)
        phi = maps.phi_u(1, maps.SIGMA_Y)
        for _ in range(10):
            x = random_complex(rng, (4, 4))
            np.testing.assert_allclose(ref.psi_2k(x), maps.apply_map(phi, x), atol=1e-12)

    def test_robertson_equals_psi4(self):
        # Robertson's entrywise qubit reduction against psi_2k's I Tr Y - Y on the 2 x 2 blocks
        rng = np.random.default_rng(6)
        x = random_complex(rng, (4, 4))
        np.testing.assert_allclose(ref.robertson4(x), ref.psi_2k(x), atol=1e-15)

    def test_robertson_equals_breuer_hall_at_u0(self):
        rng = np.random.default_rng(7)
        u0 = maps.canonical_u0(2)
        for _ in range(10):
            x = random_complex(rng, (4, 4))
            np.testing.assert_allclose(ref.robertson4(x), ref.breuer_hall(x, u0), atol=1e-12)

    def test_reduction_is_not_a_unitary_twist_above_dim_4(self):
        # Tr[R_{2K}(|1><1|)] = 2K - 1 can never equal Tr[U |1><1| U^dagger] = 1
        k2 = 8
        red = ref.reduction(matrix_unit(k2, 0, 0))
        assert complex(np.trace(red)).real == pytest.approx(k2 - 1)
        u = maps.random_antisymmetric_unitary(k2 // 2, seed=8)
        twisted = u @ matrix_unit(k2, 0, 0) @ u.conj().T
        assert complex(np.trace(twisted)).real == pytest.approx(1.0)


class TestBreuerHall:
    def test_unital(self):
        for k in (2, 3):
            out = ref.breuer_hall(np.eye(2 * k), maps.canonical_u0(k))
            np.testing.assert_allclose(out, np.eye(2 * k), atol=1e-12)


class TestParameterGenerators:
    def test_u0_at_n1_is_sigma_y(self):
        np.testing.assert_array_equal(maps.canonical_u0(1), maps.SIGMA_Y)

    def test_u0_structure(self):
        u0 = maps.canonical_u0(2)
        assert u0.shape == (4, 4)
        assert maps.is_antisymmetric_unitary(u0)
        np.testing.assert_array_equal(u0[:2, :2], maps.SIGMA_Y)
        np.testing.assert_array_equal(u0[2:, 2:], maps.SIGMA_Y)
        np.testing.assert_array_equal(u0[:2, 2:], np.zeros((2, 2)))

    def test_antisymmetry_kills_conjugate_overlap(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 3):
            u0 = maps.canonical_u0(n)
            psi = random_complex(rng, 2 * n)
            assert abs(psi.conj() @ u0 @ psi.conj()) < 1e-12

    def test_conjugate_u0_identity_case(self):
        np.testing.assert_allclose(maps.conjugate_u0(np.eye(4)), maps.canonical_u0(2), atol=1e-15)

    @pytest.mark.parametrize("mode", MODES)
    def test_random_u_invariants(self, mode):
        for n in (1, 2):
            u = random_u(n, 10, mode)
            assert maps.antisymmetry_defect(u) <= 1e-12
            assert np.max(np.abs(u @ u.conj().T - np.eye(2 * n))) <= 1e-12

    def test_random_u_seed_behaviour(self):
        a = maps.random_antisymmetric_unitary(2, seed=1)
        b = maps.random_antisymmetric_unitary(2, seed=1)
        c = maps.random_antisymmetric_unitary(2, seed=2)
        np.testing.assert_array_equal(a, b)
        assert np.max(np.abs(a - c)) > 1e-3

    def test_random_unitary(self):
        v = maps.random_unitary(5, seed=11)
        assert np.max(np.abs(v.conj().T @ v - np.eye(5))) <= 1e-12
        np.testing.assert_array_equal(v, maps.random_unitary(5, seed=11))


class TestDescriptorValidation:
    def test_phi_u_accepts_contraction(self):
        m = maps.phi_u(1, 0.5 * maps.SIGMA_Y)
        assert m.family == "PhiU4N"
        np.testing.assert_allclose(maps.apply_map(m, np.eye(4)), np.eye(4), atol=1e-12)  # unital for every U
        assert maps.phi_u(2, np.zeros((4, 4))).family == "PhiU4N"

    def test_family_is_read_off_v1(self):
        # the family is no field, so no tag can contradict V1 and V2
        u, v1, v2 = maps.canonical_u0(1), maps.random_unitary(4, seed=1), maps.random_unitary(4, seed=2)
        assert [f.name for f in dataclasses.fields(maps.MapDescriptor)] == ["size", "u", "v1", "v2"]
        assert maps.MapDescriptor(1, u).family == "PhiU4N"
        assert maps.MapDescriptor(1, u, v1, v2).family == "ConjugatedPhiU"
        assert maps.conjugated_phi(1, u, v1, v2).family == "ConjugatedPhiU"

    def test_phi_u_rejects_expansion(self):
        with pytest.raises(ValueError, match="U U"):
            maps.phi_u(1, 2.0 * maps.SIGMA_Y)

    @pytest.mark.parametrize("scale", [1e160, 1e300, np.nan], ids=["1e160", "1e300", "nan"])
    def test_phi_u_rejects_a_u_whose_gram_matrix_is_not_finite(self, scale):
        # U U^dagger overflows (or is NaN); eigvalsh of it returned [0, -0], which once admitted U as a contraction
        u = scale * maps.SIGMA_Y
        assert not maps.is_antisymmetric_contraction(u)
        with pytest.raises(ValueError, match="U U"):
            maps.phi_u(1, u)

    def test_phi_u_rejects_symmetric(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            maps.phi_u(1, np.eye(2))

    def test_phi_u_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="2x2"):
            maps.phi_u(1, maps.canonical_u0(2))

    def test_conjugated_phi_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="V1 is not unitary"):
            maps.conjugated_phi(1, maps.SIGMA_Y, 2 * np.eye(4), np.eye(4))
        nan_v = maps.random_unitary(4, seed=3)
        nan_v[1, 2] = np.nan  # every comparison with NaN is false, so a "defect > tol" test lets it through
        with pytest.raises(ValueError, match="V2 is not unitary"):
            maps.conjugated_phi(1, maps.SIGMA_Y, np.eye(4), nan_v)

    def test_sizes(self, example_map):
        assert maps.input_dim(maps.phi_u(2, maps.canonical_u0(2))) == 8
        assert maps.input_dim(example_map("ConjugatedPhiU", 3)) == 12


class TestApplyMap:
    def test_trace_preservation(self):
        rng = np.random.default_rng(14)
        m = maps.phi_u(2, maps.canonical_u0(2))
        x = random_complex(rng, (8, 8))
        assert complex(np.trace(maps.apply_map(m, x))) == pytest.approx(
            complex(np.trace(x)), abs=1e-12
        )

    def test_positivity_on_projectors(self):
        rng = np.random.default_rng(16)
        m = maps.phi_u(1, maps.random_antisymmetric_unitary(1, seed=17))
        for _ in range(100):
            v = random_complex(rng, 4)
            v /= np.linalg.norm(v)
            assert min_eigenvalue(maps.apply_map(m, np.outer(v, v.conj()))) >= -1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="acts on"):
            maps.apply_map(maps.phi_u(1, maps.SIGMA_Y), np.eye(6))

    def test_conjugated_identity_case(self):
        rng = np.random.default_rng(18)
        base = maps.phi_u(1, maps.SIGMA_Y)
        conj = maps.conjugated_phi(1, maps.SIGMA_Y, np.eye(4), np.eye(4))
        x = random_complex(rng, (4, 4))
        np.testing.assert_allclose(
            maps.apply_map(conj, x), maps.apply_map(base, x), atol=1e-14
        )

    def test_conjugated_unital(self):
        conj = maps.conjugated_phi(
            1, maps.SIGMA_Y, maps.random_unitary(4, seed=19), maps.random_unitary(4, seed=20)
        )
        np.testing.assert_allclose(maps.apply_map(conj, np.eye(4)), np.eye(4), atol=1e-12)


class TestStacks:
    @settings(max_examples=80, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        size=st.integers(1, 2),
        mode=st.sampled_from(MODES),
        seed=st.integers(0, 2 ** 16),
        lead=st.sampled_from([(1,), (3,), (5,), (2, 3)]),
    )
    def test_stack_equals_member_by_member(self, example_action, family, size, mode, seed, lead):
        f, d = example_action(family, size, mode, seed)
        x = random_complex(np.random.default_rng(seed), (*lead, d, d))
        out = f(x)
        assert out.shape == x.shape
        expected = np.stack([f(x[i]) for i in np.ndindex(*lead)]).reshape(x.shape)
        assert np.max(np.abs(out - expected)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(family=st.sampled_from(CORE_FAMILIES), size=st.integers(1, 2), seed=st.integers(0, 99))
    def test_wrong_trailing_shape_rejected(self, example_map, family, size, seed):
        m = example_map(family, size, seed=seed)
        d = maps.input_dim(m)
        for shape in [(3, d, d + 1), (3, d + 1, d + 1), (d + 1, d), (d * d,)]:
            with pytest.raises(ValueError, match="acts on"):
                maps.apply_map(m, np.zeros(shape, dtype=complex))

    def test_empty_stack(self):
        m = maps.phi_u(1, maps.SIGMA_Y)
        assert maps.apply_map(m, np.zeros((0, 4, 4))).shape == (0, 4, 4)


class TestAlgebraicProperties:
    """The maps' identities over the two core families and the six reference formulas, both U modes."""

    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(FAMILIES), size=st.integers(1, 2), mode=st.sampled_from(MODES),
           seed=st.integers(0, 2 ** 16))
    def test_linear_and_hermiticity_preserving(self, example_action, family, size, mode, seed):
        f, d = example_action(family, size, mode, seed)
        rng = np.random.default_rng(seed)
        x, y = random_complex(rng, (2, d, d))
        a, b = random_complex(rng, 2)
        np.testing.assert_allclose(f(a * x + b * y), a * f(x) + b * f(y), rtol=0, atol=1e-12)
        out = f((x + x.conj().T) / 2)
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(family=st.sampled_from(UNITAL), size=st.integers(1, 2), mode=st.sampled_from(MODES),
           seed=st.integers(0, 2 ** 16))
    def test_unital_where_claimed(self, example_action, family, size, mode, seed):
        f, d = example_action(family, size, mode, seed)
        np.testing.assert_allclose(f(np.eye(d)), np.eye(d), rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(family=st.sampled_from(CORE_FAMILIES), size=st.integers(1, 2), mode=st.sampled_from(MODES),
           seed=st.integers(0, 2 ** 16))
    def test_choi_partial_transpose_is_an_involution(self, example_map, family, size, mode, seed):
        w = choi(example_map(family, size, mode, seed))
        first = lambda m: partial_transpose(m, w.d, w.d)
        for side in (first, lambda m: first(m).T):  # the second factor's transpose is PT_A(M)^T
            np.testing.assert_array_equal(side(side(w.matrix)), w.matrix)

    @settings(max_examples=20, deadline=None)
    @given(family=st.sampled_from(CORE_FAMILIES), size=st.integers(1, 2), mode=st.sampled_from(MODES),
           seed=st.integers(0, 2 ** 16))
    def test_choi_covariance_under_the_local_rotation(self, example_map, family, size, mode, seed):
        # every core witness is the canonical W(U0) of its N moved by the map's local rotation
        m = example_map(family, size, mode, seed)
        moved = local_conjugate(canonical_witness(size).matrix, *maps.local_rotation(m))
        np.testing.assert_allclose(choi(m).matrix, moved, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("size", [1, 2])
    def test_the_plain_local_rotation_is_the_youla_factor(self, example_map, size):
        m = example_map("PhiU4N", size, "complex-unitary")
        v = maps.youla_factor(m.u)
        a, b = maps.local_rotation(m)
        np.testing.assert_array_equal(a, np.kron(np.eye(2), v.conj()))
        np.testing.assert_array_equal(b, np.kron(np.eye(2), v))
        a, b = maps.local_rotation(maps.phi_u(size, maps.canonical_u0(size)))  # U0 is its own normal form
        np.testing.assert_array_equal(a, np.eye(4 * size))
        np.testing.assert_array_equal(b, np.eye(4 * size))


class TestYoulaFactor:
    @settings(max_examples=40, deadline=None)
    @given(size=st.integers(1, 4), mode=st.sampled_from(MODES), seed=st.integers(0, 2 ** 16))
    def test_unitary_factor_onto_the_canonical_form(self, size, mode, seed):
        u = random_u(size, seed, mode)
        v = maps.youla_factor(u)
        assert np.max(np.abs(v @ maps.canonical_u0(size) @ v.T - u)) <= 1e-14
        assert np.max(np.abs(v.conj().T @ v - np.eye(2 * size))) <= 1e-14

    def test_a_contraction_has_no_unitary_factor(self):
        # (1/2) U0 = V U0 V^T would need V^dagger V = I / 2; Request.base rejects such a U before it is factorized
        u = 0.5 * maps.canonical_u0(2)
        v = maps.youla_factor(u)
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) > 0.1
