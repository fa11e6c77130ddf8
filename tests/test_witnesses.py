import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robwit import certify, maps, states, witnesses
from robwit.linalg import (CONSTRUCTION_TOL, hermitian_eig, local_conjugate, min_eigenvalue, partial_transpose, realign,
                           trace_norm)

from conftest import (CORE_FAMILIES, FAMILIES, MODES, choi_of, corrupted_conjugated_witness, flip_one_block,
                      gamma_unitary, matrix_unit, oracle_choi, random_u, request, self_dual_reference)


@pytest.fixture(scope="module")
def canonical_witness():
    return witnesses.choi(maps.phi_u(1, maps.canonical_u0(1)))


class TestMaxEntangled:
    def test_bell_matrix(self):
        expected = 0.5 * np.array(
            [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex
        )
        np.testing.assert_allclose(states.max_entangled(2), expected, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 4, 12])
    def test_matches_dense_outer_product(self, d):
        v = np.zeros(d * d, dtype=complex)
        v[:: d + 1] = 1.0
        reference = np.outer(v, v.conj()) / d
        first, second = states.max_entangled(d), states.max_entangled(d)
        np.testing.assert_array_equal(first, reference)
        first[0, 0] = 7.0  # each call hands out its own writable array
        np.testing.assert_array_equal(second, reference)
        np.testing.assert_array_equal(states.max_entangled(d), reference)

    def test_rank_one_projector(self):
        p = states.max_entangled(4)
        assert complex(np.trace(p)).real == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(p @ p, p, atol=1e-12)

    @pytest.mark.parametrize("d", [4, 8])
    def test_twirl_invariance(self, d):
        p = states.max_entangled(d)
        for seed in range(10):
            v = maps.random_unitary(d, seed=seed)
            big = np.kron(v, v.conj())
            np.testing.assert_allclose(big @ p @ big.conj().T, p, atol=1e-12)

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            states.max_entangled(1)


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
            for mode in MODES:
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
        assert min_eigenvalue(partial_transpose(w.matrix, 4, 4)) >= -1e-10


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
        report = witnesses.verify_spectrum(request(canonical_witness.source))
        assert report.passed and report.measured < 1e-9

    def test_spectrum_is_u_independent(self):
        u = random_u(1, 21, "complex-unitary")
        report = witnesses.verify_spectrum(request(maps.phi_u(1, u)))
        assert report.passed

    def test_n2(self):
        report = witnesses.verify_spectrum(request(maps.phi_u(2, maps.canonical_u0(2))))
        assert report.passed

    def test_fails_on_perturbed_witness(self, perturbed_witness):
        # the base W(U0) matches the closed form; the perturbation shows in the rotation slack
        report = witnesses.verify_spectrum(perturbed_witness)
        slack = float(re.search(r"rotation slack (\S+);", report.details).group(1))
        assert report.measured <= 1e-14 and slack > 1e-4
        assert not report.passed

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
            witnesses.Choi(plain=skewed, source=canonical_witness.source).spectrum


HOLDERS = (witnesses.Choi, witnesses.Request)  # each holds (plain, source) of one map


class TestFields:
    @pytest.mark.parametrize("cls", HOLDERS, ids=lambda cls: cls.__name__)
    def test_rejects_a_matrix_of_the_wrong_size(self, canonical_witness, cls):
        with pytest.raises(ValueError, match=r"is 16x16, got \(4, 4\)"):
            cls(plain=np.eye(4, dtype=complex) / 4, source=canonical_witness.source)

    @pytest.mark.parametrize("cls", HOLDERS, ids=lambda cls: cls.__name__)
    def test_takes_its_fields_by_keyword_only(self, canonical_witness, cls):
        # a positional call raises instead of reading a conjugated W as W_p
        with pytest.raises(TypeError, match="positional"):
            cls(canonical_witness.matrix, canonical_witness.source)

    @pytest.mark.parametrize("cls", HOLDERS, ids=lambda cls: cls.__name__)
    def test_has_only_its_choi_data_and_source_as_fields(self, cls):
        # what is read off W_p, W of a conjugated map included, is a cached property kept with it, not a field
        assert [f.name for f in dataclasses.fields(cls)] == ["plain", "source"]


BASE_FACTS = ("positivity_worst", "family_rank", "ppt_state", "gamma_conjugation_defect", "self_duality_defect",
              "spa_realignment_norm", "detection_boundary")
REQUEST_FACTS = ("rotation", "pulled_back", "unitarity_defect", "rotation_residual", "rotation_slack",
                 "self_duality_bound", "gamma_conjugation_bound", "spa_realignment_bound", "identity_image", "base")
CHOI_DATA = ("matrix", "spectrum", "detection_line")


def assert_has_none(w, facts):
    for fact in facts:
        with pytest.raises(AttributeError, match=fact):
            getattr(w, fact)


class TestBase:
    @pytest.mark.parametrize("family", CORE_FAMILIES)
    def test_a_request_has_no_base_fact(self, example_map, family):
        w = request(example_map(family, 1))
        assert type(w) is witnesses.Request
        assert_has_none(w, BASE_FACTS)

    @pytest.mark.parametrize("family", CORE_FAMILIES)
    def test_a_request_has_no_choi_data(self, example_map, family):
        # it reads W_p only through its pull-back and F(I): it holds no W, spectrum or detection line
        w = request(example_map(family, 1))
        assert not isinstance(w, witnesses.Choi)
        assert_has_none(w, CHOI_DATA)

    @pytest.mark.parametrize("family", CORE_FAMILIES)
    def test_a_choi_has_no_request_or_base_fact(self, example_map, family):
        w = witnesses.choi(example_map(family, 1))
        assert type(w) is witnesses.Choi
        assert_has_none(w, REQUEST_FACTS + BASE_FACTS)

    def test_a_base_has_no_request_fact(self):
        # W(U0) is no request: it has no rotation, pull-back or base of its own
        base = witnesses.canonical_witness(1)
        assert not isinstance(base, witnesses.Request)
        assert_has_none(base, REQUEST_FACTS)

    def test_the_canonical_base_computes_each_fact_on_first_read(self):
        witnesses.canonical_witness.cache_clear()
        base = witnesses.canonical_witness(1)
        assert isinstance(base, witnesses.Base) and isinstance(base, witnesses.Choi)
        for fact in BASE_FACTS:
            assert fact not in vars(base)
            value = getattr(base, fact)
            assert vars(base)[fact] is value and getattr(base, fact) is value

    @pytest.mark.parametrize("family", CORE_FAMILIES)
    def test_every_witness_of_one_n_shares_the_canonical_base(self, example_map, family):
        w = request(example_map(family, 2, "complex-unitary", seed=5))
        base = witnesses.canonical_witness(2)
        assert w.base is base and w.base is request(example_map(family, 2, seed=8)).base
        assert "base" not in vars(w) and "base" not in vars(base)  # nothing holds the memo's witness but the memo
        assert maps.is_antisymmetric_unitary(base.source.u)
        np.testing.assert_array_equal(base.source.u, maps.canonical_u0(2))
        np.testing.assert_array_equal(base.matrix, witnesses.choi(maps.phi_u(2, maps.canonical_u0(2))).matrix)

    def test_the_base_matrix_is_read_only(self):
        base = witnesses.canonical_witness(1)
        with pytest.raises(ValueError, match="read-only"):
            base.matrix[0, 0] = 1.0
        np.testing.assert_array_equal(base.matrix, witnesses.choi(maps.phi_u(1, maps.SIGMA_Y)).matrix)

    def test_one_entry_memo_follows_n(self):
        witnesses.canonical_witness.cache_clear()
        sizes = [request(maps.phi_u(n, maps.random_antisymmetric_unitary(n, seed=n))).base.source.size
                 for n in (2, 3, 2)]
        assert sizes == [2, 3, 2]
        assert witnesses.canonical_witness.cache_info().currsize == 1


def random_factor(rng, d):
    """A complex Gaussian d x d matrix: no unitarity, for identities that hold for any A and B."""
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def max_relative(x, y):
    """max |x - y| over the scale of y, at least 1."""
    return float(np.max(np.abs(x - y)) / max(1.0, np.max(np.abs(y))))


class TestPullBack:
    """W' = S^dagger W S, S = A (x) B the map's rotation, and what reads W's certificates off it and off W(U0)."""

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 3), mode=st.sampled_from(MODES), family=st.sampled_from(CORE_FAMILIES),
           seed=st.integers(0, 2 ** 16))
    def test_partial_transpose_of_the_pull_back(self, example_map, n, mode, family, seed):
        # Gamma(S^dagger W S) = (A^T (x) B^dagger) W^Gamma (Abar (x) B), for the rotation and for any A, B
        w = request(example_map(family, n, mode, seed))
        matrix = choi_of(w).matrix
        d = w.d
        a, b = w.rotation
        plain = local_conjugate(matrix, a.conj().T, b.conj().T)
        if family == "PhiU4N":  # W is W_p: the pull-back is the same contraction
            np.testing.assert_array_equal(w.pulled_back, plain)
        else:  # one contraction of W_p, not two of W: equal up to rounding
            assert max_relative(w.pulled_back, plain) <= 1e-14
        rng = np.random.default_rng(seed)
        wg = partial_transpose(matrix, d, d)
        for x, y in ((a, b), (random_factor(rng, d), random_factor(rng, d))):
            pulled = local_conjugate(matrix, x.conj().T, y.conj().T)
            assert max_relative(partial_transpose(pulled, d, d), local_conjugate(wg, x.T, y.conj().T)) <= 1e-13

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 3), mode=st.sampled_from(MODES), family=st.sampled_from(CORE_FAMILIES),
           seed=st.integers(0, 2 ** 16))
    def test_realignment_covariance(self, example_map, n, mode, family, seed):
        # realign(S M S^dagger) = (A (x) Abar) realign(M) (B (x) Bbar)^T, for the rotation and for any A, B
        w = request(example_map(family, n, mode, seed))
        d = w.d
        rng = np.random.default_rng(seed)
        for m in (w.base.matrix, choi_of(w).matrix):
            for x, y in (w.rotation, (random_factor(rng, d), random_factor(rng, d))):
                moved = realign(local_conjugate(m, x, y), d, d)
                covariant = np.kron(x, x.conj()) @ realign(m, d, d) @ np.kron(y, y.conj()).T
                assert max_relative(moved, covariant) <= 1e-13

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 3), mode=st.sampled_from(MODES), family=st.sampled_from(CORE_FAMILIES),
           seed=st.integers(0, 2 ** 16))
    def test_trace_through_the_pull_back(self, example_map, n, mode, family, seed):
        # Tr(W rho) on the rotated state rho = S rho_b S^dagger is the report's Tr(W' rho_b)
        w = request(example_map(family, n, mode, seed))
        rho = local_conjugate(states.ppt_entangled_state(w.base), *w.rotation)
        measured = certify.verify_nondecomposability(w).measured
        assert measured == pytest.approx(witnesses.detect(choi_of(w), rho), rel=1e-12, abs=1e-17)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 3), mode=st.sampled_from(MODES), family=st.sampled_from(CORE_FAMILIES),
           seed=st.integers(0, 2 ** 16))
    def test_nd_optimality_reads_the_direct_pull_back(self, example_map, n, mode, family, seed):
        # the family (G0 psi) (x) psi* on Gamma(W') is psi (x) psi* on (G0 (x) 1)^dagger Gamma(W') (G0 (x) 1);
        # that is W^Gamma pulled back by (G A, B), G = Abar G0 A^dagger, up to A's unitarity defect
        m = example_map(family, n, mode, seed)
        w = request(m)
        d = w.d
        a, b = w.rotation
        g0 = np.kron(np.eye(2), maps.canonical_u0(n))
        new = local_conjugate(partial_transpose(w.pulled_back, d, d), g0.conj().T, np.eye(d))
        wg = partial_transpose(witnesses.choi(m).matrix, d, d)
        old = local_conjugate(wg, (gamma_unitary(m) @ a).conj().T, b.conj().T)
        assert np.max(np.abs(new - old)) <= 1e-13

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 3), mode=st.sampled_from(MODES), family=st.sampled_from(CORE_FAMILIES),
           seed=st.integers(0, 2 ** 16), eps=st.sampled_from([0.0, 1e-9, 1e-6]))
    def test_carried_bounds_cover_what_they_bound(self, example_map, n, mode, family, seed, eps):
        # each bound read off W' and the base covers the quantity measured directly on W, up to
        # that measurement's own rounding, for W and for W + eps H
        m = example_map(family, n, mode, seed)
        plain = witnesses.plain_choi(m)  # W_p: a conjugated map moves W_p + eps H by a unitary
        rng = np.random.default_rng(seed)
        h = random_factor(rng, len(plain))
        w = witnesses.Request(plain=plain + eps * (h + h.conj().T) / 2, source=m)
        c = choi_of(w)
        d = w.d
        rounding = 1e-15
        residual = np.linalg.norm(c.matrix - local_conjugate(w.base.matrix, *w.rotation))
        assert residual <= w.rotation_residual + rounding
        assert w.rotation_residual <= residual + 1e-14  # and tracks it
        g = gamma_unitary(m)
        gamma = np.linalg.norm(partial_transpose(c.matrix, d, d) - local_conjugate(c.matrix, g, np.eye(d)))
        assert gamma <= w.gamma_conjugation_bound + rounding
        approx = witnesses.spa_witness(c, states.isotropic_entanglement_threshold(n))
        assert trace_norm(realign(approx, d, d)) <= w.spa_realignment_bound + rounding

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_base_facts(self, n):
        # the Gamma conjugation is an exact signed permutation identity on W(U0), and the
        # approximated base's realignment norm is 1/(2N), equal to the dense SVD's
        base = witnesses.canonical_witness(n)
        d = base.d
        assert base.gamma_conjugation_defect == 0.0
        g0 = np.kron(np.eye(2), maps.canonical_u0(n))
        np.testing.assert_array_equal(partial_transpose(base.matrix, d, d), local_conjugate(base.matrix, g0, np.eye(d)))
        assert base.spa_realignment_norm == pytest.approx(1 / (2 * n), rel=1e-13)
        approx = witnesses.spa_witness(base, states.isotropic_entanglement_threshold(n))
        dense = np.sum(np.linalg.svd(realign(approx, d, d), compute_uv=False))
        assert base.spa_realignment_norm == pytest.approx(dense, rel=1e-12)

    def test_the_base_keeps_only_the_ppt_states_nonzeros(self):
        base = witnesses.canonical_witness(4)
        (index, values), lows = base.ppt_state
        rho = states.ppt_entangled_state(base)
        assert len(index) == np.count_nonzero(rho) == 400
        np.testing.assert_array_equal(rho.ravel()[index], values)
        assert lows == (min_eigenvalue(rho), min_eigenvalue(partial_transpose(rho, 16, 16)))

        def leaves(value):
            return [x for v in value for x in leaves(v)] if isinstance(value, tuple) else [np.asarray(value)]

        kept = [x for key, value in vars(base).items() if key not in ("plain", "matrix") for x in leaves(value)]
        assert max(x.size for x in kept) == len(index)  # the nonzeros, then the spectrum; no W-sized array


class TestSelfDualityDefect:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("size", [1, 2])
    def test_exact_on_self_dual_families_only(self, example_map, example_action, family, size):
        if family in CORE_FAMILIES:
            m = example_map(family, size)
            w = witnesses.Base(plain=witnesses.plain_choi(m), source=m)  # the fact of a base, measured on its own W
        else:
            w = self_dual_reference(*example_action(family, size))
        defect = w.self_duality_defect
        if family == "ConjugatedPhiU":  # independent V1 != V2 break self-duality
            assert defect >= 1e-3
        else:
            assert defect <= 1e-12


class TestGammaUnitary:
    def test_matches_stated_form_for_sigma_y(self):
        v = gamma_unitary(maps.phi_u(1, maps.SIGMA_Y))
        sy = maps.SIGMA_Y
        expected = np.block([[sy.conj().T, np.zeros((2, 2))], [np.zeros((2, 2)), sy]])
        np.testing.assert_allclose(v, expected, atol=1e-15)

    def test_unitary(self):
        v = gamma_unitary(maps.phi_u(2, maps.canonical_u0(2)))
        np.testing.assert_allclose(v @ v.conj().T, np.eye(8), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("seed", [None, 22])
    def test_conjugation_identity(self, n, seed):
        u = maps.canonical_u0(n) if seed is None else random_u(n, seed, "complex-unitary")
        w = witnesses.choi(maps.phi_u(n, u))
        g = gamma_unitary(w.source)
        residual = partial_transpose(w.matrix, w.d, w.d) - local_conjugate(w.matrix, g, np.eye(w.d))
        assert np.max(np.abs(residual)) <= 1e-12

    def test_partial_transpose_is_isospectral(self, canonical_witness):
        w = canonical_witness.matrix
        wg = partial_transpose(w, 4, 4)
        np.testing.assert_allclose(np.linalg.eigvalsh(wg), np.linalg.eigvalsh(w), atol=1e-12)

    def test_rejects_invalid_u(self):
        # Phi_U accepts a contraction, but (W)^Gamma is a unitary conjugate of W only for unitary U
        with pytest.raises(ValueError, match="antisymmetric"):
            certify.verify_nd_optimality(request(maps.phi_u(1, 0.5 * maps.SIGMA_Y)))


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


def strict_contraction(n, seed, mode):
    """V ((+)_j s_j sigma_y) V^T, every s_j in [0.05, 0.95): antisymmetric, ||U||_2 < 1, no multiple of a unitary.

    V is a complex unitary or, as in the "real-orthogonal" mode, a real orthogonal matrix.
    """
    rng = np.random.default_rng(seed)
    scales = np.kron(np.diag(rng.uniform(0.05, 0.95, n)), np.eye(2))
    if mode == "complex-unitary":
        v = maps.random_unitary(2 * n, seed)
    else:
        v = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))[0]
    return v @ (scales @ maps.canonical_u0(n)) @ v.T


class TestClosedForm:
    """W_p filled from the map's formula against the oracle that maps every matrix unit through ``apply_map``."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6), mode=st.sampled_from(MODES), conjugated=st.booleans(), contraction=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_matches_the_apply_map_oracle(self, n, mode, conjugated, contraction, seed):
        u = strict_contraction(n, seed, mode) if contraction else random_u(n, seed, mode)
        m = maps.phi_u(n, u)
        if conjugated:
            m = maps.conjugated_phi(n, u, maps.random_unitary(4 * n, seed + 1), maps.random_unitary(4 * n, seed + 2))
        w = witnesses.choi(m)
        np.testing.assert_allclose(w.plain, oracle_choi(maps.phi_u(n, u)), rtol=0, atol=1e-15)
        np.testing.assert_allclose(w.matrix, oracle_choi(m), rtol=0, atol=1e-15)
        np.testing.assert_allclose(request(m).identity_image, maps.apply_map(m, np.eye(4 * n)), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("conjugated", [False, True])
    @pytest.mark.parametrize("n", [1, 2])
    def test_a_flipped_block_fails_the_oracle(self, n, conjugated):
        u = random_u(n, 6, "complex-unitary")
        m = maps.phi_u(n, u)
        if conjugated:
            m = maps.conjugated_phi(n, u, maps.random_unitary(4 * n, seed=7), maps.random_unitary(4 * n, seed=8))
        w = witnesses.Choi(plain=flip_one_block(witnesses.plain_choi(m), n), source=m)
        assert np.max(np.abs(w.plain - oracle_choi(maps.phi_u(n, u)))) > 1e-3 / n ** 2
        assert np.max(np.abs(w.matrix - oracle_choi(m))) > 1e-3 / n ** 2

    @pytest.mark.parametrize("contraction", [False, True], ids=["unitary", "contraction"])
    @pytest.mark.parametrize("equal", [False, True], ids=["v1-v2", "v1=v2"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_conjugated_w_is_exactly_hermitian(self, n, equal, contraction):
        # W is the Hermitian part of the local_conjugate result: no further from the oracle, same spectrum
        u = 0.5 * maps.canonical_u0(n) if contraction else random_u(n, 5)
        v1 = maps.random_unitary(4 * n, seed=7)
        v2 = v1 if equal else maps.random_unitary(4 * n, seed=8)
        m = maps.conjugated_phi(n, u, v1, v2)
        w = witnesses.choi(m)
        raw = local_conjugate(w.plain, v2.T, v1.conj().T)
        oracle = oracle_choi(m)
        assert np.array_equal(w.matrix, w.matrix.conj().T)
        np.testing.assert_allclose(w.matrix, oracle, rtol=0, atol=1e-16)
        assert np.linalg.norm(w.matrix - oracle) <= np.linalg.norm(raw - oracle)
        np.testing.assert_array_equal(w.spectrum, hermitian_eig(raw, tol=CONSTRUCTION_TOL))

    @pytest.mark.parametrize("i, j, hermitian", [(0, 1, False), (1, 1, True)])
    def test_only_an_exactly_hermitian_w_p_is_projected(self, i, j, hermitian):
        w = choi_of(corrupted_conjugated_witness(i, j))
        raw = local_conjugate(w.plain, w.source.v2.T, w.source.v1.conj().T)
        assert np.array_equal(w.matrix, w.matrix.conj().T) == hermitian
        if not hermitian:
            np.testing.assert_array_equal(w.matrix, raw)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 3), mode=st.sampled_from(MODES), family=st.sampled_from(CORE_FAMILIES),
           seed=st.integers(0, 2 ** 16), eps=st.sampled_from([0.0, 1e-6, 1e-2]))
    def test_identity_image_is_d_tr_a_of_w(self, example_map, n, mode, family, seed, eps):
        # F(I) read off W_p is d Tr_A W of the formed W, for a wrong W_p too: EB sees a wrong Choi matrix
        m = example_map(family, n, mode, seed)
        rng = np.random.default_rng(seed)
        h = random_factor(rng, (4 * n) ** 2)
        w = witnesses.Request(plain=witnesses.plain_choi(m) + eps * h, source=m)
        d = w.d
        direct = d * np.trace(choi_of(w).matrix.reshape(d, d, d, d), axis1=0, axis2=2)
        assert max_relative(w.identity_image, direct) <= 1e-14
