import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robwit import certify, linalg, maps, states, witnesses
from robwit.linalg import min_eigenvalue, numerical_rank, partial_transpose

from conftest import corrupted_conjugated_witness, perturb_witness, self_dual_reference
from reference_maps import breuer_hall


@pytest.fixture(scope="module")
def canonical_witness():
    return witnesses.choi(maps.phi_u(1, maps.canonical_u0(1)))


def reference_spa_bisect(w, tol=1e-10):
    """The bisection on a direct eigensolve of (p/D) I + (1 - p) W at every step."""
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if min_eigenvalue(certify.spa_witness(w, mid)) >= -tol:
            hi = mid
        else:
            lo = mid
    return hi


def loop_product_family(matrix, n, v1=None, v2=None, g=None):
    """(worst |<v|M|v>|, rank) one product vector at a time, from the generators' double loop.

    ``v1``/``v2`` rotate the pairs as for a conjugated witness, ``g`` transports phi
    as for the partially transposed one.
    """
    d = 4 * n
    e = np.eye(d, dtype=complex)
    gens = list(e)
    for a in range(d):
        for b in range(a + 1, d):
            gens += [e[a] + e[b], e[a] + 1j * e[b]]
    pairs = [(psi, psi.conj()) for psi in gens]
    if v1 is not None:
        pairs = [(v2.T @ phi, v1.conj().T @ chi) for phi, chi in pairs]
    if g is not None:
        pairs = [(g @ phi, chi) for phi, chi in pairs]
    vectors = [np.kron(phi, chi) for phi, chi in pairs]
    return max(abs(complex(v.conj() @ matrix @ v)) for v in vectors), numerical_rank(vectors)


def product_vectors(phi, chi):
    """Row k is phi_k (x) chi_k."""
    return np.einsum("ki,kj->kij", phi, chi).reshape(len(phi), -1)


def dense_gram_rank(vectors, tol=1e-9):
    """Rank from the eigenvalues of the whole Gram matrix, with numerical_rank's cutoff rule."""
    a = np.asarray(vectors)
    gram = a.conj() @ a.T
    eig = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    return int(np.sum(eig > eig[-1] * max(tol * tol, 8 * len(a) * np.finfo(float).eps)))


def drop_phase_vectors(monkeypatch):
    """Make spanning_family leave out its e_m + i e_n generators."""
    build = certify.spanning_family

    def reduced(n):
        d = 4 * n
        keep = np.r_[np.arange(d), d + 2 * np.arange(d * (d - 1) // 2)]  # e_l, then e_m + e_n per pair
        return build(n)[keep]

    monkeypatch.setattr(certify, "spanning_family", reduced)


def record_hermitian_eig(monkeypatch):
    """Record every matrix passed to hermitian_eig, under every name the package binds it to."""
    solved = []
    solve = linalg.hermitian_eig

    def record(m, *args, **kwargs):
        solved.append(np.asarray(m))
        return solve(m, *args, **kwargs)

    for module in (linalg, witnesses):
        monkeypatch.setattr(module, "hermitian_eig", record)
    return solved


def forbid_eigensolves(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("unexpected eigensolve")

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)


def count_eigensolves(monkeypatch):
    """Record the arguments of every call to numpy's Hermitian eigensolvers and its SVD."""
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        def record(*args, _solve=getattr(np.linalg, name), **kwargs):
            calls.append(args)
            return _solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, record)
    return calls


def perturbed_u(n, kind, eps, seed=0, mode="real-orthogonal"):
    """An antisymmetric unitary moved off a premise: U + eps S (S symmetric), (1 + eps) U, or 0.5 U0."""
    if kind == "contraction":
        return 0.5 * maps.canonical_u0(n)
    u = maps.random_antisymmetric_unitary(n, seed, mode)
    if kind == "scaled":
        return (1.0 + eps) * u
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
    return u + eps * (g + g.T) / np.linalg.norm(g + g.T, 2)


def splitting_defects(u, psi1, psi2):
    """(|Tr(Q Q^U)|, max|M M^dagger - Q - Q^U|, max(0, lambda_max(M M^dagger) - 1)) of one splitting.

    The proof's algebra written out: Q = |psi1><psi1|, Q^U = U Q^T U^dagger and
    M = |psi1><psi2| + U (|psi2><psi1|)^T U^dagger.
    """
    def transpose_u(x):
        return u @ x.T @ u.conj().T

    q = np.outer(psi1, psi1.conj())
    qu = transpose_u(q)
    mfac = np.outer(psi1, psi2.conj()) + transpose_u(np.outer(psi2, psi1.conj()))
    gram = mfac @ mfac.conj().T
    return (abs(np.trace(q @ qu)), float(np.max(np.abs(gram - q - qu))),
            max(0.0, float(np.linalg.eigvalsh(gram)[-1]) - 1.0))


class TestDetect:
    def test_ppt_state(self, canonical_witness):
        state = states.ppt_entangled_state(canonical_witness)
        assert certify.detect(canonical_witness, state) == pytest.approx(-1 / 320, abs=1e-12)

    def test_maximally_mixed(self, canonical_witness):
        mixed = np.eye(16, dtype=complex) / 16
        assert certify.detect(canonical_witness, mixed) == pytest.approx(1 / 16, abs=1e-12)

    def test_maximally_entangled(self, canonical_witness):
        plus = witnesses.max_entangled(4)
        assert certify.detect(canonical_witness, plus) == pytest.approx(-1 / 4, abs=1e-12)

    def test_dimension_mismatch(self, canonical_witness):
        small = np.eye(4, dtype=complex) / 4
        with pytest.raises(ValueError, match="mismatch"):
            certify.detect(canonical_witness, small)


class TestPositivity:
    def test_canonical(self):
        report = certify.verify_positivity(maps.phi_u(1, maps.canonical_u0(1)), seed=1)
        assert report.passed

    def test_random_u_n2(self):
        u = maps.random_antisymmetric_unitary(2, seed=2, mode="complex-unitary")
        report = certify.verify_positivity(maps.phi_u(2, u), seed=3)
        assert report.passed

    def test_conjugated(self):
        m = maps.conjugated_phi(
            1, maps.canonical_u0(1), maps.random_unitary(4, seed=4), maps.random_unitary(4, seed=5)
        )
        report = certify.verify_positivity(m, seed=6)
        assert report.passed

    def test_sampling_matches_loop_reference(self):
        # reference: one projector per apply_map call, drawn from the same stream;
        # the trials cross several POSITIVITY_BLOCK boundaries
        m = maps.phi_u(1, maps.random_antisymmetric_unitary(1, seed=4, mode="complex-unitary"))
        rng = np.random.default_rng(5)
        worst = np.inf
        for _ in range(certify.POSITIVITY_TRIALS):
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi /= np.linalg.norm(psi)
            worst = min(worst, min_eigenvalue(maps.apply_map(m, np.outer(psi, psi.conj()))))
        report = certify.verify_positivity(m, seed=5)
        assert report.measured == pytest.approx(worst, abs=1e-13)

    @pytest.mark.parametrize("n", [1, 2])
    def test_proof_identity_fails_for_a_contraction(self, n):
        # Phi_U is still positive for U = U0 / 2, so the sampling passes, but
        # M M^dagger = Q + Q^U needs a unitary U
        report = certify.verify_positivity(maps.phi_u(n, 0.5 * maps.canonical_u0(n)))
        defect = float(re.search(r"proof-identity defect (\S+),", report.details).group(1))
        assert report.measured >= -report.tolerance
        assert defect > 1e-2
        assert not report.passed

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 2), mode=st.sampled_from(("real-orthogonal", "complex-unitary")),
           kind=st.sampled_from(("symmetric", "scaled", "contraction")), log_eps=st.floats(-9.0, -0.5),
           seed=st.integers(0, 2 ** 16))
    def test_premise_bounds_hold_on_every_splitting(self, n, mode, kind, log_eps, seed):
        # oracle: the old sampled algebra on random unit psi1, psi2; the report's bounds must cover it,
        # up to the oracle's own rounding (the Schur bound is attained for (1 + eps) U)
        u = perturbed_u(n, kind, 10.0 ** log_eps, seed, mode)
        identity, schur = certify.premise_defects(u)
        report = certify.verify_positivity(maps.MapDescriptor("PhiU4N", n, u=u), seed=seed)
        assert f"proof-identity defect {identity:.2e}, Schur defect {schur:.2e}," in report.details
        rng = np.random.default_rng(seed)
        rounding = 64 * np.finfo(float).eps
        for _ in range(20):
            psi1, psi2 = rng.standard_normal((2, 2 * n, 2)) @ np.array([1.0, 1.0j])
            psi1, psi2 = psi1 / np.linalg.norm(psi1), psi2 / np.linalg.norm(psi2)
            tr, gram_defect, schur_defect = splitting_defects(u, psi1, psi2)
            assert tr <= identity + rounding
            assert gram_defect <= identity + rounding
            assert schur_defect <= schur + rounding

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("kind", ["symmetric", "scaled"])
    @pytest.mark.parametrize("eps", [1e-3, 1e-11])
    def test_premises_fail_off_the_antisymmetric_unitaries(self, n, kind, eps):
        # the descriptor is built around phi_u's validation, so only the report can reject U
        u = perturbed_u(n, kind, eps)
        report = certify.verify_positivity(maps.MapDescriptor("PhiU4N", n, u=u))
        if eps < 1e-9:
            assert report.measured >= -report.tolerance  # the sample alone does not notice
        assert not report.passed

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_split_endpoints_give_half_identity_blocks(self, a):
        # oracle: the image of a projector concentrated in one half-space
        rng = np.random.default_rng(7)
        n = 2
        m = maps.phi_u(n, maps.canonical_u0(n))
        half = 2 * n
        part = rng.standard_normal(half) + 1j * rng.standard_normal(half)
        part /= np.linalg.norm(part)
        psi = np.concatenate([np.sqrt(a) * part, np.sqrt(1 - a) * part])
        image = maps.apply_map(m, np.outer(psi, psi.conj()))
        expected = np.zeros((4 * n, 4 * n), dtype=complex)
        if a == 0.0:
            expected[:half, :half] = np.eye(half) / half
        else:
            expected[half:, half:] = np.eye(half) / half
        np.testing.assert_allclose(image, expected, atol=1e-12)


class TestNondecomposability:
    def test_n1_canonical(self, canonical_witness):
        report = certify.verify_nondecomposability(canonical_witness)
        assert report.passed
        assert report.measured == pytest.approx(-1 / 320, abs=1e-12)

    def test_n2_canonical(self):
        report = certify.verify_nondecomposability(witnesses.choi(maps.phi_u(2, maps.canonical_u0(2))))
        assert report.passed
        assert report.measured == pytest.approx(-1 / 9216, abs=1e-12)

    def test_n1_random(self):
        w = witnesses.choi(maps.phi_u(1, maps.random_antisymmetric_unitary(1, seed=8)))
        report = certify.verify_nondecomposability(w)
        assert report.passed

    def test_conjugated(self):
        m = maps.conjugated_phi(1, maps.canonical_u0(1), maps.random_unitary(4, seed=9),
                                maps.random_unitary(4, seed=10))
        report = certify.verify_nondecomposability(witnesses.choi(m))
        assert report.passed
        assert report.measured == pytest.approx(-1 / 320, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_fails_on_a_positive_matrix_in_place_of_w(self, n):
        # a PSD "witness" detects no state, so Tr(W rho) cannot reach the negative target
        d = 4 * n
        w = witnesses.Witness(np.eye(d * d, dtype=complex) / d ** 2, maps.phi_u(n, maps.canonical_u0(n)))
        report = certify.verify_nondecomposability(w)
        assert report.measured >= 0 > report.expected
        assert not report.passed

    def test_fails_without_raising_on_a_wrong_witness(self):
        # W + 0.1 H: the state built from it has a negative eigenvalue, which the check reports
        report = certify.verify_nondecomposability(perturb_witness(0.1))
        low = float(re.search(r"min eig\(rho\) = (\S+),", report.details).group(1))
        assert low < -1e-3
        assert not report.passed

    @pytest.mark.parametrize("conjugated", [False, True])
    def test_solves_the_ppt_state_once(self, monkeypatch, conjugated):
        # the base state and its partial transpose, one solve each, for a plain and a
        # conjugated map alike; the rotated S rho S^dagger it measures Tr(W rho) on is never solved
        n, u = 2, maps.canonical_u0(2)
        desc = maps.phi_u(n, u)
        if conjugated:
            desc = maps.conjugated_phi(n, u, maps.random_unitary(8, seed=26), maps.random_unitary(8, seed=27))
        rho = states.ppt_entangled_state(witnesses.choi(maps.phi_u(n, u)))
        rotated = linalg.local_conjugate(rho, *maps.local_rotation(desc))
        w = witnesses.choi(desc)
        solved = record_hermitian_eig(monkeypatch)
        assert certify.verify_nondecomposability(w).passed
        assert sum(m.shape == rho.shape and np.array_equal(m, rho) for m in solved) == 1
        assert sum(m.shape == rho.shape and np.array_equal(m, partial_transpose(rho, 8, 8)) for m in solved) == 1
        assert len(solved) == 2
        if conjugated:
            assert not any(np.allclose(m, rotated, rtol=0, atol=1e-15) for m in solved)


class TestSpanningFamily:
    @pytest.mark.parametrize("n,count", [(1, 16), (2, 64)])
    def test_counts(self, n, count):
        family = certify.spanning_family(n)
        assert family.shape == (count, 4 * n)

    def test_first_pair_sum_vector(self):
        family = certify.spanning_family(1)
        np.testing.assert_array_equal(family[4], np.array([1, 1, 0, 0], dtype=complex))

    def test_phase_vector_tensor_convention(self):
        # dim-2 analog of e_m + i e_n mapped to psi (x) psi*
        g = np.array([1.0, 1.0j])
        np.testing.assert_allclose(np.kron(g, g.conj()), [1.0, -1.0j, 1.0j, 1.0], atol=1e-15)

    def test_spans(self):
        gens = certify.spanning_family(2)
        assert numerical_rank([np.kron(g, g.conj()) for g in gens]) == 64


class TestOptimality:
    def test_canonical(self, canonical_witness):
        report = certify.verify_optimality(canonical_witness)
        assert report.passed and report.measured < 1e-12

    def test_n2(self):
        w = witnesses.choi(maps.phi_u(2, maps.canonical_u0(2)))
        assert certify.verify_optimality(w).passed

    def test_transformed(self, canonical_witness):
        out = witnesses.transform_witness(
            canonical_witness, maps.random_unitary(4, seed=11), maps.random_unitary(4, seed=12)
        )
        assert certify.verify_optimality(out).passed

    def test_fails_off_the_family(self, perturbed_witness):
        report = certify.verify_optimality(perturbed_witness)
        assert not report.passed
        assert report.measured > report.tolerance

    @pytest.mark.parametrize("conjugated", [False, True])
    def test_batched_family_matches_loop_reference(self, conjugated):
        n = 2
        u = maps.random_antisymmetric_unitary(n, seed=21, mode="complex-unitary")
        v1 = v2 = None
        if conjugated:
            v1, v2 = maps.random_unitary(8, seed=22), maps.random_unitary(8, seed=23)
        m = maps.conjugated_phi(n, u, v1, v2) if conjugated else maps.phi_u(n, u)
        w = witnesses.choi(m)
        wg = partial_transpose(w.matrix, 8, 8)
        g = witnesses.gamma_unitary(m)
        a, b = maps.local_rotation(m)
        for matrix, a_k, rotate in ((w.matrix, a, None), (wg, g @ a, g)):
            worst, rank, size, ok = certify._product_family_check(matrix, a_k, b, 1e-10)
            ref_worst, ref_rank = loop_product_family(matrix, n, v1, v2, rotate)
            assert worst == pytest.approx(ref_worst, abs=1e-13)
            assert rank == ref_rank == size == 64
            assert ok

    def test_batched_family_matches_loop_reference_off_the_family(self, perturbed_witness):
        a, b = maps.local_rotation(perturbed_witness.source)
        worst, rank, _, ok = certify._product_family_check(perturbed_witness.matrix, a, b, 1e-10)
        ref_worst, ref_rank = loop_product_family(perturbed_witness.matrix, 1)
        assert worst == pytest.approx(ref_worst, abs=1e-13)
        assert worst > 1e-4
        assert rank == ref_rank == 16
        assert not ok

    @pytest.mark.parametrize("entry", [(5, 5), (3, 7)])
    def test_conjugated_witness_off_the_family_fails_both_checks(self, entry):
        # the pull-back (A (x) B)^dagger W (A (x) B) must carry the corruption of a dense, rotated W
        w = corrupted_conjugated_witness(*entry)
        v1, v2 = w.source.v1, w.source.v2
        g = witnesses.gamma_unitary(w.source)
        for report, matrix, rotate in (
            (certify.verify_optimality(w), w.matrix, None),
            (certify.verify_nd_optimality(w), partial_transpose(w.matrix, 4, 4), g),
        ):
            ref_worst, _ = loop_product_family(matrix, 1, v1, v2, rotate)
            assert report.measured == pytest.approx(ref_worst, abs=1e-13)
            assert report.measured > report.tolerance
            assert not report.passed


class TestFamilyRank:
    @pytest.mark.parametrize("n", [1, 2])
    def test_structural_rank_equals_dense_rank_of_every_family(self, n):
        u = maps.random_antisymmetric_unitary(n, seed=40 + n, mode="complex-unitary")
        d = 4 * n
        conj = maps.conjugated_phi(n, u, maps.random_unitary(d, seed=42), maps.random_unitary(d, seed=43))
        gens = certify.spanning_family(n)
        families, ranks = [], []
        for m in (maps.phi_u(n, u), conj):
            a, b = maps.local_rotation(m)
            g = witnesses.gamma_unitary(m)
            w = witnesses.choi(m)
            for a_k, matrix in ((a, w.matrix), (g @ a, partial_transpose(w.matrix, d, d))):
                families.append(product_vectors(gens @ a_k.T, gens.conj() @ b.T))
                ranks.append(certify._product_family_check(matrix, a_k, b, 1e-10)[1])
        assert ranks == [d * d] * 4
        assert [dense_gram_rank(f) for f in families] == ranks

    @pytest.mark.parametrize("n", [1, 2])
    def test_rank_drops_without_phase_vectors(self, monkeypatch, n):
        drop_phase_vectors(monkeypatch)
        d = 4 * n
        gens = certify.spanning_family(n)
        dropped = d + d * (d - 1) // 2
        w = witnesses.choi(maps.phi_u(n, maps.canonical_u0(n)))
        eye = np.eye(d)
        _, rank, size, ok = certify._product_family_check(w.matrix, eye, eye, 1e-10)
        assert rank == dense_gram_rank(product_vectors(gens, gens.conj())) == size == dropped
        assert not ok
        for report in (certify.verify_optimality(w), certify.verify_nd_optimality(w)):
            assert report.measured <= report.tolerance  # the expectations alone would pass
            assert f"rank {dropped}" in report.details
            assert not report.passed


class TestNdOptimality:
    def test_canonical(self, canonical_witness):
        assert certify.verify_nd_optimality(canonical_witness).passed

    def test_random_u(self):
        u = maps.random_antisymmetric_unitary(1, seed=13, mode="complex-unitary")
        w = witnesses.choi(maps.phi_u(1, u))
        assert certify.verify_nd_optimality(w).passed

    def test_conjugated(self, canonical_witness):
        out = witnesses.transform_witness(
            canonical_witness, maps.random_unitary(4, seed=14), maps.random_unitary(4, seed=15)
        )
        assert certify.verify_nd_optimality(out).passed

    def test_fails_off_the_family(self, perturbed_witness):
        report = certify.verify_nd_optimality(perturbed_witness)
        assert not report.passed
        assert report.measured > report.tolerance


class TestSelfDuality:
    def test_identity_pairing(self):
        m = maps.phi_u(2, maps.canonical_u0(2))
        eye = np.eye(8, dtype=complex)
        lhs = complex(np.trace(eye @ maps.apply_map(m, eye)))
        assert lhs.real == pytest.approx(8.0, abs=1e-12)

    def test_canonical(self, canonical_witness):
        assert certify.verify_self_duality(canonical_witness).passed

    def test_breuer_hall_sanity(self):
        u0 = maps.canonical_u0(2)
        assert certify.verify_self_duality(self_dual_reference(lambda x: breuer_hall(x, u0), 4)).passed

    def test_fails_on_conjugated_map(self):
        # independent V1, V2 break self-duality; the suite measures the base witness instead
        w = witnesses.choi(maps.conjugated_phi(1, maps.canonical_u0(1), maps.random_unitary(4, seed=1),
                                               maps.random_unitary(4, seed=2)))
        report = certify.verify_self_duality(w)
        assert not report.passed
        assert report.measured > 1e-2
        assert certify.verify_self_duality(w.base).passed

    def test_fails_on_the_perturbed_witness(self, perturbed_witness):
        report = certify.verify_self_duality(perturbed_witness)
        assert not report.passed
        assert report.measured > 1e-3


class TestSpa:
    def test_endpoints(self, canonical_witness):
        np.testing.assert_allclose(
            certify.spa_witness(canonical_witness, 1.0), np.eye(16) / 16, atol=1e-15
        )
        np.testing.assert_allclose(
            certify.spa_witness(canonical_witness, 0.0), canonical_witness.matrix, atol=1e-15
        )

    def test_threshold_degeneracy(self, canonical_witness):
        assert abs(min_eigenvalue(certify.spa_witness(canonical_witness, 0.8))) <= 1e-10

    def test_rejects_out_of_range(self, canonical_witness):
        with pytest.raises(ValueError, match="outside"):
            certify.spa_witness(canonical_witness, 1.5)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_threshold_coincides_with_isotropic_boundary(self, n):
        # the exact coincidence the entanglement-breaking argument relies on, measured:
        # the isotropic state stops being PPT exactly at the SPA threshold
        d = 4 * n
        t = states.isotropic_entanglement_threshold(n)

        def pt_low(lam):
            return min_eigenvalue(partial_transpose(states.isotropic_state(d, lam), d, d))

        assert abs(pt_low(t)) <= 1e-12
        assert pt_low(t - 1e-6) < -1e-8

    def test_bisect_agrees(self, canonical_witness):
        assert certify.spa_threshold(canonical_witness) == pytest.approx(
            0.8, abs=1e-9
        )

    @pytest.mark.parametrize("n", [1, 2])
    def test_bisect_matches_direct_eigensolve_reference(self, n):
        w = witnesses.choi(maps.phi_u(n, maps.canonical_u0(n)))
        assert certify.spa_threshold(w) == pytest.approx(reference_spa_bisect(w), abs=1e-12)

    def test_bisect_matches_reference_off_the_family(self, perturbed_witness):
        measured = certify.spa_threshold(perturbed_witness)
        assert measured == pytest.approx(reference_spa_bisect(perturbed_witness), abs=1e-12)
        assert abs(measured - 0.8) > 1e-6

    def test_bisect_runs_on_the_cached_spectrum(self, monkeypatch):
        w = witnesses.choi(maps.phi_u(1, maps.canonical_u0(1)))
        w.spectrum
        forbid_eigensolves(monkeypatch)
        assert certify.spa_threshold(w) == pytest.approx(0.8, abs=1e-9)

    @pytest.mark.parametrize("conjugated", [False, True])
    def test_report_runs_on_the_cached_spectrum(self, monkeypatch, conjugated):
        u = maps.random_antisymmetric_unitary(2, seed=7)
        m = maps.phi_u(2, u)
        if conjugated:
            m = maps.conjugated_phi(2, u, maps.random_unitary(8, 1), maps.random_unitary(8, 2))
        w = witnesses.choi(m)
        w.base.spectrum
        calls = count_eigensolves(monkeypatch)
        report = certify.spa_threshold_report(w)
        assert (report.passed, len(calls)) == (True, 0)
        monkeypatch.undo()
        # the boundary it reports is the min eig of the approximated base witness, solved directly
        boundary = float(re.search(r"closed-form threshold = (\S+) ", report.details).group(1))
        direct = min_eigenvalue(certify.spa_witness(w.base, report.expected))
        assert abs(boundary - direct) <= 1e-15

    def test_report_fails_off_the_family(self, perturbed_witness):
        report = certify.spa_threshold_report(perturbed_witness)
        assert not report.passed
        assert abs(report.measured - report.expected) > report.tolerance

    def test_report_fails_on_a_corrupted_conjugated_witness(self):
        # the base's threshold is within tolerance; only the 1e-6 rotation slack can fail the report
        report = certify.spa_threshold_report(corrupted_conjugated_witness(5, 5))
        assert abs(report.measured - report.expected) <= report.tolerance
        assert re.search(r"rotation slack 1\.00e-06 ", report.details)
        assert not report.passed

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("c", [0.0, 0.5])
    def test_threshold_holds_for_a_contraction(self, n, c):
        # lambda_min(W) = -1/(4N) for every U = c U0, so 4N/(4N+1) is still the
        # true threshold: the report must pass, while the spectrum check fails
        w = witnesses.choi(maps.phi_u(n, c * maps.canonical_u0(n)))
        assert w.spectrum[0] == pytest.approx(-1 / (4 * n), abs=1e-14)
        assert certify.spa_threshold_report(w).passed
        assert not witnesses.verify_spectrum(w).passed

    def test_bisect_rejects_positive_input(self, canonical_witness):
        fake = witnesses.Witness(np.eye(16, dtype=complex) / 16, canonical_witness.source)
        with pytest.raises(ValueError, match="already positive"):
            certify.spa_threshold(fake)

    def test_min_eigenvalue_affine_in_noise(self, canonical_witness):
        # the smallest-eigenvalue branch is affine, so second differences vanish
        p0 = 0.8
        values = [
            min_eigenvalue(certify.spa_witness(canonical_witness, p))
            for p in (p0 - 0.05, p0, p0 + 0.05)
        ]
        assert abs(values[0] + values[2] - 2 * values[1]) <= 1e-9
        assert values[0] < -1e-9 < 1e-9 < values[2]


class TestIsotropicDetection:
    def test_closed_form_values(self):
        assert certify.isotropic_detection_value(1, 0.0) == pytest.approx(-0.25)
        assert certify.isotropic_detection_value(1, 0.8) == pytest.approx(0.0, abs=1e-15)
        assert certify.isotropic_detection_value(1, 1.0) == pytest.approx(1 / 16)

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_numeric_detect(self, n):
        w = witnesses.choi(maps.phi_u(n, maps.canonical_u0(n)))
        for lam in (0.0, 0.25, 0.5, 0.8, 1.0):
            numeric = certify.detect(w, states.isotropic_state(4 * n, lam))
            assert numeric == pytest.approx(certify.isotropic_detection_value(n, lam), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_detection_sum(self, n, detection_sum):
        m = maps.phi_u(n, maps.canonical_u0(n))
        assert detection_sum(m) == pytest.approx(-4 * n, abs=1e-12)

    def test_detection_sum_equals_entangled_overlap(self, detection_sum):
        # cross-check: sum_kl <k|F(|k><l|)|l> = d^2 Tr(W P+)
        u = maps.random_antisymmetric_unitary(1, seed=17)
        m = maps.phi_u(1, u)
        w = witnesses.choi(m)
        overlap = complex(np.einsum("ij,ji->", w.matrix, witnesses.max_entangled(4))).real
        assert detection_sum(m) == pytest.approx(16 * overlap, abs=1e-12)

    def test_detection_root(self, canonical_witness):
        assert certify.detection_root(canonical_witness) == pytest.approx(0.8, abs=1e-12)

    def test_isotropic_state_needs_no_eigensolve(self, monkeypatch):
        forbid_eigensolves(monkeypatch)
        assert complex(np.trace(states.isotropic_state(8, 0.3))).real == pytest.approx(1.0, abs=1e-12)


class TestEbCertificate:
    def test_canonical(self, canonical_witness):
        assert certify.verify_eb_certificate(canonical_witness).passed

    def test_conjugated(self):
        m = maps.conjugated_phi(
            1,
            maps.canonical_u0(1),
            maps.random_unitary(4, seed=18),
            maps.random_unitary(4, seed=19),
        )
        assert certify.verify_eb_certificate(witnesses.choi(m)).passed

    def test_rejects_contraction_u(self):
        with pytest.raises(ValueError, match="unitary"):
            certify.verify_eb_certificate(witnesses.choi(maps.phi_u(1, np.zeros((2, 2)))))

    def test_fails_on_a_corrupted_conjugated_witness(self):
        report = certify.verify_eb_certificate(corrupted_conjugated_witness(5, 5))
        covariance = float(re.search(r"covariance defect (\S+),", report.details).group(1))
        assert covariance == pytest.approx(1e-6, rel=1e-6)
        assert report.measured == pytest.approx(report.expected, abs=report.tolerance)
        assert not report.passed

    def test_partial_transpose_fails_through_the_slack(self):
        # the base's partial transpose is PPT at the threshold; a 1e-6 residual leaves
        # (1 - p) 1e-6 = 2e-7 of room below it, which the transported min eig must show
        report = certify.verify_eb_certificate(corrupted_conjugated_witness(5, 5))
        ppt_low = float(re.search(r"min eig of partial transpose (\S+) ", report.details).group(1))
        assert ppt_low == pytest.approx(-2e-7, rel=1e-3)
        assert not report.passed

    @pytest.mark.parametrize("n", [1, 2])
    def test_fails_on_a_witness_of_a_non_unital_map(self, n):
        # d * 1e-3 (|0><0| - |1><1|) added to F(I) through Tr_A; Tr W, Tr(W P+),
        # Hermiticity and self-duality are unchanged
        w = witnesses.choi(maps.phi_u(n, maps.canonical_u0(n)))
        d = w.d
        bumped = w.matrix.copy()
        bumped[0, 0] += 1e-3  # |00><00|
        bumped[d + 1, d + 1] -= 1e-3  # |11><11|
        report = certify.verify_eb_certificate(witnesses.Witness(bumped, w.source))
        unitality = float(re.search(r"unitality defect (\S+),", report.details).group(1))
        assert unitality == pytest.approx(d * 1e-3, rel=1e-2)
        assert report.measured == pytest.approx(report.expected, abs=report.tolerance)
        assert not report.passed

    def test_fails_on_the_perturbed_witness(self, perturbed_witness):
        report = certify.verify_eb_certificate(perturbed_witness)
        self_duality = float(re.search(r"self-duality defect (\S+) ", report.details).group(1))
        assert self_duality > 1e-6
        assert not report.passed


WITNESS_CHECKS = (witnesses.verify_spectrum, certify.verify_nondecomposability, certify.verify_optimality,
                  certify.verify_nd_optimality, certify.verify_self_duality, certify.spa_threshold_report,
                  certify.verify_eb_certificate)


class TestPositiveStandIn:
    """I/16 in place of the N=1 witness: positive, so no entanglement witness at all."""

    @pytest.fixture(scope="class")
    def stand_in(self):
        return witnesses.Witness(np.eye(16, dtype=complex) / 16, maps.phi_u(1, maps.canonical_u0(1)))

    @pytest.mark.parametrize("check", WITNESS_CHECKS, ids=lambda check: check.__name__)
    def test_every_check_reports_and_only_self_duality_passes(self, stand_in, check):
        # realign(I) is Hermitian, so the map behind I/16 is self-dual
        report = check(stand_in)
        assert report.passed == (report.name == "self-duality")
        json.dumps(report.to_dict(), allow_nan=False)  # a finite measured keeps certify's JSON strict

    def test_detection_root_still_raises(self, stand_in):
        # as spa_threshold does (TestSpa): only the reports turn "no root" into a failed verdict
        with pytest.raises(ValueError, match="does not change sign"):
            certify.detection_root(stand_in)


class TestRealignment:
    def test_trace_norm_flags_entanglement(self):
        # oracle: ||R(P+)||_1 = d, ||R(I/d^2)||_1 = 1/d
        d = 4
        assert linalg.trace_norm(linalg.realign(witnesses.max_entangled(d), d, d)) == pytest.approx(d)
        assert linalg.trace_norm(linalg.realign(np.eye(d * d) / d ** 2, d, d)) == pytest.approx(1 / d)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("conjugated", [False, True])
    def test_blocked_matches_dense_svd_on_the_spa_witness(self, n, conjugated):
        d = 4 * n
        u = maps.random_antisymmetric_unitary(n, seed=50 + n)
        m = maps.phi_u(n, u)
        if conjugated:
            m = maps.conjugated_phi(n, u, maps.random_unitary(d, seed=51), maps.random_unitary(d, seed=52))
        approx = certify.spa_witness(witnesses.choi(m), states.isotropic_entanglement_threshold(n))
        dense = np.sum(np.linalg.svd(linalg.realign(approx, d, d), compute_uv=False))
        assert linalg.trace_norm(linalg.realign(approx, d, d)) == pytest.approx(dense, rel=0, abs=1e-13)


class TestFullSuite:
    def test_names_and_verdicts(self):
        reports = certify.run_full_suite(maps.phi_u(1, maps.canonical_u0(1)))
        assert tuple(r.name for r in reports) == certify.SUITE_CHECKS
        assert all(r.passed for r in reports)

    def test_diagonalizes_the_witness_once(self, monkeypatch):
        # counted at hermitian_eig: a blocked solve hands LAPACK only W's blocks.  A
        # conjugated suite solves its base W once and none of the dense rotated matrices:
        # W, the rotated PPT state, or the partial transposes of that state and of the
        # approximated W.
        n, d = 2, 8
        plain = maps.phi_u(n, maps.random_antisymmetric_unitary(n, seed=3))
        conjugated = maps.conjugated_phi(n, plain.u, maps.random_unitary(d, seed=4), maps.random_unitary(d, seed=6))
        base = witnesses.choi(plain).matrix
        w = witnesses.choi(conjugated)
        rho = linalg.local_conjugate(states.ppt_entangled_state(witnesses.choi(plain)), *maps.local_rotation(conjugated))
        approx = certify.spa_witness(w, states.isotropic_entanglement_threshold(n))
        dense = [w.matrix, rho, partial_transpose(rho, d, d), partial_transpose(approx, d, d)]
        for m, never in ((plain, []), (conjugated, dense)):
            with monkeypatch.context() as patch:
                solved = record_hermitian_eig(patch)
                assert all(r.passed for r in certify.run_full_suite(m))
            assert sum(x.shape == base.shape and np.allclose(x, base, rtol=0, atol=1e-15) for x in solved) == 1
            for x in never:
                assert not any(s.shape == x.shape and np.allclose(s, x, rtol=0, atol=1e-12) for s in solved)

    @pytest.mark.parametrize("conjugated", [False, True])
    def test_builds_each_choi_matrix_once(self, monkeypatch, conjugated):
        built = []
        build = witnesses.choi

        def record(m):
            built.append(m.family)
            return build(m)

        monkeypatch.setattr(witnesses, "choi", record)
        m = maps.phi_u(1, maps.canonical_u0(1))
        if conjugated:
            m = maps.conjugated_phi(1, m.u, maps.random_unitary(4, seed=24), maps.random_unitary(4, seed=25))
        assert all(r.passed for r in certify.run_full_suite(m))
        assert built == (["ConjugatedPhiU", "PhiU4N"] if conjugated else ["PhiU4N"])

    def test_rejects_unknown_tolerance(self):
        with pytest.raises(ValueError, match="unknown check"):
            certify.run_full_suite(maps.phi_u(1, maps.canonical_u0(1)), tolerances={"bogus": 1.0})
