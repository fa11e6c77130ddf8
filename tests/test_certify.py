import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robwit import certify, linalg, maps, states, witnesses
from robwit.linalg import min_eigenvalue, numerical_rank, partial_transpose

from conftest import (MODES, NOT_UNITARY, corrupted_conjugated_witness, corrupted_plain_witness, dense_generators,
                      densify, flip_one_block, perturb_witness, random_u, with_facts)
from reference_maps import breuer_hall, reference_witness

REJECTED = f"^{re.escape(NOT_UNITARY)}$"  # pytest.raises matches a regular expression


@pytest.fixture(scope="module")
def canonical_witness():
    return witnesses.choi(maps.phi_u(1, maps.canonical_u0(1)))


@pytest.fixture(scope="module")
def canonical_request():
    return witnesses.Request(maps.phi_u(1, maps.canonical_u0(1)))


def reference_spa_bisect(w, tol=1e-10):
    """The bisection on a direct eigensolve of (p/D) I + (1 - p) W at every step."""
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if min_eigenvalue(witnesses.spa_witness(w, mid)) >= -tol:
            hi = mid
        else:
            lo = mid
    return hi


def loop_product_family(matrix, n, left=None, right=None):
    """(worst |<v|M|v>|, rank) one product vector at a time, from the generators' double loop.

    Each generator psi gives v = (L psi) (x) (R psi*); ``left`` and ``right`` default to I.
    """
    e = np.eye(4 * n, dtype=complex)
    left = e if left is None else left
    right = e if right is None else right
    vectors = [np.kron(left @ psi, right @ psi.conj()) for psi in dense_generators(n)]
    return max(abs(complex(v.conj() @ matrix @ v)) for v in vectors), numerical_rank(vectors)


def checked_families(w):
    """Per optimality check: (the matrix it certifies, its family's factors (L, R), its route (view, G)).

    Optimality certifies W on (A psi) (x) (B psi*), read off W' = S^dagger W S with G = I;
    nd-optimality certifies W^Gamma on (Abar G0 psi) (x) (B psi*), read off Gamma(W') with G = G0.
    The route's G is a phase permutation (cols, phase); the factor L takes G0 densely.
    """
    d = w.d
    a, b = maps.local_rotation(w.source)
    g0 = np.kron(np.eye(2), maps.canonical_u0(w.source.size))
    pulled = w.pulled_back.reshape(d, d, d, d)
    matrix = with_facts(witnesses.Choi, w.source, plain=w.plain).matrix
    return [(matrix, a, b, pulled, (np.arange(d), np.ones(d))),
            (partial_transpose(matrix, d, d), a.conj() @ g0, b, pulled.transpose(2, 1, 0, 3),
             witnesses.canonical_gamma(w.source.size))]


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
    build = witnesses.spanning_family

    def reduced(n):
        d = 4 * n
        keep = np.r_[np.arange(d), d + 2 * np.arange(d * (d - 1) // 2)]  # e_l, then e_m + e_n per pair
        cells, values = build(n)
        return cells[keep], values[keep]

    monkeypatch.setattr(witnesses, "spanning_family", reduced)


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


def record_pair_ranks(monkeypatch):
    """Record the length of every (k, 2, 2) Gram stack that ``Base.family_rank`` hands to hermitian_eig."""
    ranked = []
    solve = witnesses.hermitian_eig

    def record(m, *args, **kwargs):
        if np.ndim(m) == 3 and np.shape(m)[1:] == (2, 2):
            ranked.append(len(m))
        return solve(m, *args, **kwargs)

    monkeypatch.setattr(witnesses, "hermitian_eig", record)
    return ranked


def family_ranks(monkeypatch, n, cells, values):
    """(``Base.family_rank``, the dense ``numerical_rank``, both optimality reports) of W(U0) on (cells, values)."""
    monkeypatch.setattr(witnesses, "spanning_family", lambda size: (cells, values))
    witnesses.canonical_witness.cache_clear()
    gens = densify(cells, values, 4 * n)
    w = witnesses.Request(maps.phi_u(n, maps.canonical_u0(n)))
    reports = certify.verify_optimality(w), certify.verify_nd_optimality(w)
    return w.base.family_rank, numerical_rank(product_vectors(gens, gens.conj())), reports


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
    u = random_u(n, seed, mode)
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
        assert witnesses.detect(canonical_witness, state) == pytest.approx(-1 / 320, abs=1e-12)

    def test_maximally_mixed(self, canonical_witness):
        mixed = np.eye(16, dtype=complex) / 16
        assert witnesses.detect(canonical_witness, mixed) == pytest.approx(1 / 16, abs=1e-12)

    def test_maximally_entangled(self, canonical_witness):
        plus = states.max_entangled(4)
        assert witnesses.detect(canonical_witness, plus) == pytest.approx(-1 / 4, abs=1e-12)

    def test_dimension_mismatch(self, canonical_witness):
        small = np.eye(4, dtype=complex) / 4
        with pytest.raises(ValueError, match="mismatch"):
            witnesses.detect(canonical_witness, small)


def corrupt_apply_map(monkeypatch):
    """Make maps.apply_map subtract 1e-6 Tr(X) I from every image.

    The corrupted map is not positive: each projector's image has an eigenvalue near -1e-6.
    """
    apply = maps.apply_map

    def corrupted(m, x):
        return apply(m, x) - 1e-6 * np.trace(x, axis1=-2, axis2=-1)[..., None, None] * np.eye(x.shape[-1])

    monkeypatch.setattr(maps, "apply_map", corrupted)


def corrupt_closed_form_off_u0(monkeypatch):
    """Make witnesses.plain_choi subtract (1e-6 / d) I, the Choi matrix of X -> 1e-6 Tr(X) I, for every U != U0.

    The corrupted map is not positive: each projector's image has an eigenvalue near -1e-6.  A
    conjugated map moves W_p by a unitary, so its W is corrupted by the same (1e-6 / d) I.
    """
    fill = witnesses.plain_choi

    def corrupted(m):
        out = fill(m)
        if not np.array_equal(m.u, maps.canonical_u0(m.size)):
            out -= 1e-6 / maps.input_dim(m) * np.eye(len(out))
        return out

    monkeypatch.setattr(witnesses, "plain_choi", corrupted)


def record_plain_choi(monkeypatch):
    """Record the descriptor of every witnesses.plain_choi call: each is one Choi matrix filled."""
    built = []
    fill = witnesses.plain_choi
    monkeypatch.setattr(witnesses, "plain_choi", lambda m: built.append(m) or fill(m))
    return built


def record_apply_map(monkeypatch):
    """Record the (descriptor, input) of every maps.apply_map call."""
    calls = []
    apply = maps.apply_map

    def record(m, x):
        calls.append((m, x))
        return apply(m, x)

    monkeypatch.setattr(maps, "apply_map", record)
    return calls


@pytest.fixture
def fresh_base():
    """An empty canonical_witness memo before and after the test, so no sample outlives it."""
    witnesses.canonical_witness.cache_clear()
    yield
    witnesses.canonical_witness.cache_clear()


class TestPositivity:
    def test_canonical(self):
        report = certify.verify_positivity(witnesses.Request(maps.phi_u(1, maps.canonical_u0(1))))
        assert report.passed

    def test_random_u_n2(self):
        u = random_u(2, 2, "complex-unitary")
        report = certify.verify_positivity(witnesses.Request(maps.phi_u(2, u)))
        assert report.passed

    def test_conjugated(self):
        m = maps.conjugated_phi(
            1, maps.canonical_u0(1), maps.random_unitary(4, seed=4), maps.random_unitary(4, seed=5)
        )
        report = certify.verify_positivity(witnesses.Request(m))
        assert report.passed

    def test_sampling_matches_loop_reference(self, monkeypatch, fresh_base):
        # reference: one projector per apply_map call on Phi_{U0}, drawn from the same stream;
        # the trials cross several POSITIVITY_BLOCK boundaries.  The request's U is not U0.
        base = maps.phi_u(1, maps.canonical_u0(1))
        w = witnesses.Request(maps.phi_u(1, random_u(1, 4, "complex-unitary")))
        w.rotation_residual  # builds the base before apply_map is recorded
        rng = np.random.default_rng(witnesses.POSITIVITY_SEED)
        worst, projectors = np.inf, []
        for _ in range(witnesses.POSITIVITY_TRIALS):
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi /= np.linalg.norm(psi)
            projectors.append(np.outer(psi, psi.conj()))
            worst = min(worst, min_eigenvalue(maps.apply_map(base, projectors[-1])))
        mapped = record_apply_map(monkeypatch)
        report = certify.verify_positivity(w)
        assert [len(x) for _, x in mapped] == [256, 256, 256, 232]
        assert all(np.array_equal(m.u, base.u) for m, _ in mapped)
        np.testing.assert_allclose(np.concatenate([x for _, x in mapped]), projectors, rtol=0, atol=1e-15)
        assert report.measured == pytest.approx(worst, abs=1e-13)

    @pytest.mark.parametrize("conjugated", [False, True])
    def test_a_map_corrupted_off_u0_fails_through_the_residual(self, monkeypatch, fresh_base, conjugated):
        # the base Phi_{U0} stays exact and its sample passes; only d ||E||_F can fail the report
        corrupt_closed_form_off_u0(monkeypatch)
        u = random_u(2, 8, "complex-unitary")
        m = maps.phi_u(2, u)
        if conjugated:
            m = maps.conjugated_phi(2, u, maps.random_unitary(8, seed=9), maps.random_unitary(8, seed=10))
        w = witnesses.Request(m)
        report = certify.verify_positivity(w)
        assert report.measured >= -report.tolerance
        assert w.rotation_residual >= 1e-6
        assert not report.passed

    def test_a_corrupted_base_map_fails_the_sample(self, monkeypatch, fresh_base):
        # W and W(U0) are built on the exact map, so the residual is rounding; the sample fails
        w = witnesses.Request(maps.phi_u(2, maps.random_antisymmetric_unitary(2, seed=8)))
        assert w.rotation_residual <= 1e-14
        corrupt_apply_map(monkeypatch)
        report = certify.verify_positivity(w)
        assert report.measured < -report.tolerance
        assert not report.passed

    def test_samples_once_per_n(self, monkeypatch, fresh_base):
        def warm_request(n, seed, conjugated=False):
            u = maps.random_antisymmetric_unitary(n, seed)
            m = maps.phi_u(n, u)
            if conjugated:
                m = maps.conjugated_phi(n, u, maps.random_unitary(4 * n, seed), maps.random_unitary(4 * n, seed + 1))
            w = witnesses.Request(m)
            w.rotation_residual  # builds the base and measures the residual before any counting
            return w

        plain, conjugated = warm_request(2, 3), warm_request(2, 4, conjugated=True)
        calls = record_apply_map(monkeypatch)
        first = certify.verify_positivity(plain)
        assert len(calls) > 0 and all(np.array_equal(m.u, maps.canonical_u0(2)) for m, _ in calls)
        calls.clear()
        second = certify.verify_positivity(conjugated)
        assert calls == [] and second.measured == first.measured and second.passed
        other_n = warm_request(3, 5)
        calls.clear()
        assert certify.verify_positivity(other_n).passed and len(calls) > 0  # a new N re-samples
        back = warm_request(2, 3)  # the one-entry memo dropped N = 2 and its sample with it
        calls.clear()
        assert certify.verify_positivity(back).measured == first.measured and len(calls) > 0

    @pytest.mark.parametrize("n", [1, 2])
    def test_proof_identity_fails_for_a_contraction(self, n):
        # Phi_U is still positive for U = U0 / 2, but M M^dagger = Q + Q^U needs a unitary U;
        # its request is refused before the certificate samples anything
        u = 0.5 * maps.canonical_u0(n)
        with pytest.raises(ValueError, match=REJECTED):
            witnesses.Request(maps.phi_u(n, u))
        assert certify.premise_defects(u)[0] > 1e-2

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 2), mode=st.sampled_from(MODES),
           kind=st.sampled_from(("symmetric", "scaled", "contraction")), log_eps=st.floats(-9.0, -0.5),
           seed=st.integers(0, 2 ** 16))
    def test_premise_bounds_hold_on_every_splitting(self, n, mode, kind, log_eps, seed):
        # oracle: the old sampled algebra on random unit psi1, psi2; the report's bounds must cover it,
        # up to the oracle's own rounding (the Schur bound is attained for (1 + eps) U)
        u = perturbed_u(n, kind, 10.0 ** log_eps, seed, mode)
        identity, schur = certify.premise_defects(u)
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
        # the descriptor is built around phi_u's validation; its request and its suite reject U, whose
        # premise bounds are off too
        u = perturbed_u(n, kind, eps)
        m = maps.MapDescriptor(n, u)
        for build in (witnesses.Request, certify.run_full_suite):
            with pytest.raises(ValueError, match=REJECTED):
                build(m)
        assert min(certify.premise_defects(u)) > linalg.CONSTRUCTION_TOL

    @pytest.mark.parametrize("n", [1, 4])
    def test_premises_fail_at_the_margin_of_the_unitaries(self, n):
        # U0 + 4e-13 I passes the entrywise test (defects 8e-13) and reaches the base; the sample
        # passes on it, and only the premises, bounded in the 2-norm, fail the report
        u = maps.canonical_u0(n) + 4e-13 * np.eye(2 * n)
        w = witnesses.Request(maps.phi_u(n, u))
        assert w.source.unitary_u and w.base is witnesses.canonical_witness(n)
        report = certify.verify_positivity(w)
        assert report.measured >= -report.tolerance
        assert "proof-identity defect 1.60e-12, Schur defect 2.80e-12," in report.details
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
    def test_n1_canonical(self, canonical_request):
        report = certify.verify_nondecomposability(canonical_request)
        assert report.passed
        assert report.measured == pytest.approx(-1 / 320, abs=1e-12)

    def test_n2_canonical(self):
        report = certify.verify_nondecomposability(witnesses.Request(maps.phi_u(2, maps.canonical_u0(2))))
        assert report.passed
        assert report.measured == pytest.approx(-1 / 9216, abs=1e-12)

    def test_n1_random(self):
        w = witnesses.Request(maps.phi_u(1, maps.random_antisymmetric_unitary(1, seed=8)))
        report = certify.verify_nondecomposability(w)
        assert report.passed

    def test_conjugated(self):
        m = maps.conjugated_phi(1, maps.canonical_u0(1), maps.random_unitary(4, seed=9),
                                maps.random_unitary(4, seed=10))
        report = certify.verify_nondecomposability(witnesses.Request(m))
        assert report.passed
        assert report.measured == pytest.approx(-1 / 320, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_fails_on_a_positive_matrix_in_place_of_w(self, n):
        # a PSD "witness" detects no state, so Tr(W rho) cannot reach the negative target
        d = 4 * n
        w = with_facts(witnesses.Request, maps.phi_u(n, maps.canonical_u0(n)),
                       plain=np.eye(d * d, dtype=complex) / d ** 2)
        report = certify.verify_nondecomposability(w)
        assert report.measured >= 0 > report.expected
        assert not report.passed

    def test_fails_without_raising_on_a_wrong_witness(self):
        # W + 0.1 H: the PPT state comes from the exact base, so it stays PPT; W misses its target on it
        report = certify.verify_nondecomposability(perturb_witness(0.1))
        low = float(re.search(r"min eig\(rho\) = (\S+),", report.details).group(1))
        assert low >= 0
        assert abs(report.measured - report.expected) > 1e-3
        assert not report.passed

    @pytest.mark.parametrize("conjugated", [False, True])
    def test_solves_the_ppt_state_once(self, monkeypatch, conjugated):
        # the base state and its partial transpose, one solve each per N, for a plain and a
        # conjugated map alike; the rotated S rho S^dagger is never solved (Tr(W rho) = Tr(W' rho_b))
        n, u = 2, maps.random_antisymmetric_unitary(2, seed=25)
        desc = maps.phi_u(n, u)
        if conjugated:
            desc = maps.conjugated_phi(n, u, maps.random_unitary(8, seed=26), maps.random_unitary(8, seed=27))
        witnesses.canonical_witness.cache_clear()
        rho = states.ppt_entangled_state(witnesses.canonical_witness(n))
        rotated = linalg.local_conjugate(rho, *maps.local_rotation(desc))
        w = witnesses.Request(desc)
        again = witnesses.Request(maps.phi_u(n, maps.random_antisymmetric_unitary(n, seed=28)))
        solved = record_hermitian_eig(monkeypatch)
        assert certify.verify_nondecomposability(w).passed
        assert sum(m.shape == rho.shape and np.array_equal(m, rho) for m in solved) == 1
        assert sum(m.shape == rho.shape and np.array_equal(m, partial_transpose(rho, 8, 8)) for m in solved) == 1
        assert len(solved) == 2
        assert not any(np.allclose(m, rotated, rtol=0, atol=1e-15) for m in solved)
        assert certify.verify_nondecomposability(again).passed  # a second map of the same N solves nothing
        assert len(solved) == 2


class TestSpanningFamily:
    @pytest.mark.parametrize("n,count", [(1, 16), (2, 64)])
    def test_counts(self, n, count):
        cells, values = witnesses.spanning_family(n)
        assert cells.shape == values.shape == (count, 2)

    def test_first_pair_sum_vector(self):
        family = densify(*witnesses.spanning_family(1), 4)
        np.testing.assert_array_equal(family[4], np.array([1, 1, 0, 0], dtype=complex))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cells_equal_the_dense_generators(self, n):
        cells, values = witnesses.spanning_family(n)
        np.testing.assert_array_equal(densify(cells, values, 4 * n), dense_generators(n))
        assert np.all(cells[:, 0] <= cells[:, 1])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_canonical_gamma_is_the_dense_kronecker_product(self, n):
        cols, phase = witnesses.canonical_gamma(n)
        g0 = np.zeros((4 * n, 4 * n), dtype=complex)
        g0[np.arange(4 * n), cols] = phase
        np.testing.assert_array_equal(g0, np.kron(np.eye(2), maps.canonical_u0(n)))

    def test_phase_vector_tensor_convention(self):
        # dim-2 analog of e_m + i e_n mapped to psi (x) psi*
        g = np.array([1.0, 1.0j])
        np.testing.assert_allclose(np.kron(g, g.conj()), [1.0, -1.0j, 1.0j, 1.0], atol=1e-15)

    def test_spans(self):
        gens = densify(*witnesses.spanning_family(2), 8)
        assert numerical_rank([np.kron(g, g.conj()) for g in gens]) == 64


class TestOptimality:
    def test_canonical(self, canonical_request):
        report = certify.verify_optimality(canonical_request)
        assert report.passed and report.measured < 1e-12

    def test_n2(self):
        w = witnesses.Request(maps.phi_u(2, maps.canonical_u0(2)))
        assert certify.verify_optimality(w).passed

    def test_transformed(self, canonical_witness):
        out = witnesses.transform_witness(
            canonical_witness, maps.random_unitary(4, seed=11), maps.random_unitary(4, seed=12)
        )
        assert certify.verify_optimality(witnesses.Request(out.source)).passed

    def test_fails_off_the_family(self, perturbed_witness):
        report = certify.verify_optimality(perturbed_witness)
        assert not report.passed
        assert report.measured > report.tolerance

    @pytest.mark.parametrize("conjugated", [False, True])
    def test_batched_family_matches_loop_reference(self, conjugated):
        n = 2
        u = random_u(n, 21, "complex-unitary")
        m = maps.phi_u(n, u)
        if conjugated:
            m = maps.conjugated_phi(n, u, maps.random_unitary(8, seed=22), maps.random_unitary(8, seed=23))
        w = witnesses.Request(m)
        for matrix, left, right, view, g in checked_families(w):
            worst, size, ok = certify._product_family_check(view, g, w.base.family_rank, 1e-10)
            ref_worst, ref_rank = loop_product_family(matrix, n, left, right)
            assert worst == pytest.approx(ref_worst, abs=1e-13)
            assert w.base.family_rank == ref_rank == size == 64
            assert ok

    def test_batched_family_matches_loop_reference_off_the_family(self, perturbed_witness):
        # W + 1e-3 H: every expectation the loop takes on W and W^Gamma must come off the pull-back
        rank = perturbed_witness.base.family_rank
        for matrix, left, right, view, g in checked_families(perturbed_witness):
            worst, _, ok = certify._product_family_check(view, g, rank, 1e-10)
            ref_worst, ref_rank = loop_product_family(matrix, 1, left, right)
            assert worst == pytest.approx(ref_worst, abs=1e-13)
            assert worst > 1e-4
            assert rank == ref_rank == 16
            assert not ok

    @pytest.mark.parametrize("entry", [(5, 5), (1, 4)])
    def test_conjugated_witness_off_the_family_fails_both_checks(self, entry):
        # the pull-back W' = (A (x) B)^dagger W (A (x) B), read off W_p, must carry a corruption of W_p that
        # the family sees; the reference measures the dense, rotated W on the rotated family.  Entry
        # (k a, l b) = (0 1, 1 0) lies in the block of e_0 + e_1 and e_0 + i e_1, and is not Hermitian
        w = corrupted_conjugated_witness(*entry)
        reports = (certify.verify_optimality(w), certify.verify_nd_optimality(w))
        for report, (matrix, left, right, _, _) in zip(reports, checked_families(w)):
            ref_worst, _ = loop_product_family(matrix, 1, left, right)
            assert report.measured == pytest.approx(ref_worst, abs=1e-13)
            assert report.measured > report.tolerance
            assert not report.passed


class TestFamilyRank:
    @pytest.mark.parametrize("n", [1, 2])
    def test_structural_rank_equals_dense_rank_of_every_family(self, n):
        u = random_u(n, 40 + n, "complex-unitary")
        d = 4 * n
        conj = maps.conjugated_phi(n, u, maps.random_unitary(d, seed=42), maps.random_unitary(d, seed=43))
        gens = dense_generators(n)
        families, ranks = [], []
        for m in (maps.phi_u(n, u), conj):
            w = witnesses.Request(m)
            for _, left, right, _, _ in checked_families(w):
                families.append(product_vectors(gens @ left.T, gens.conj() @ right.T))
                ranks.append(w.base.family_rank)
        assert ranks == [d * d] * 4
        assert [dense_gram_rank(f) for f in families] == ranks

    def test_ranked_once_for_both_checks(self, monkeypatch, fresh_base):
        # both optimality checks of every suite of one N share one rank of the plain family, kept on
        # W(U0): one stack of the 28 per-pair Gram matrices at N = 2
        ranked = record_pair_ranks(monkeypatch)
        for seed in (1, 2):
            w = witnesses.Request(maps.phi_u(2, maps.random_antisymmetric_unitary(2, seed=seed)))
            assert certify.verify_optimality(w).passed and certify.verify_nd_optimality(w).passed
        assert ranked == [28]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_per_pair_rank_equals_the_dense_rank_in_any_generator_order(self, monkeypatch, fresh_base, n):
        # the generator rows permuted, and the two cells of some generators swapped with their values
        d = 4 * n
        rng = np.random.default_rng(60 + n)
        cells, values = witnesses.spanning_family(n)
        assert family_ranks(monkeypatch, n, cells, values)[:2] == (d * d, d * d)
        order = rng.permutation(len(cells))
        cells, values = cells[order], values[order]
        swap = rng.random(len(cells)) < 0.5
        cells[swap], values[swap] = cells[swap, ::-1], values[swap, ::-1]
        rank, dense, reports = family_ranks(monkeypatch, n, cells, values)
        assert rank == dense == d * d
        assert all(report.passed for report in reports)

    @pytest.mark.parametrize("n,rank", [(1, 10), (2, 36), (3, 78)])
    def test_rank_drops_with_a_second_sum_vector_in_place_of_each_phase_vector(self, monkeypatch, fresh_base, n, rank):
        d = 4 * n
        cells, values = witnesses.spanning_family(n)
        values[d + 1 :: 2] = 1.0  # e_m + i e_n becomes e_m + e_n again
        ranked, dense, reports = family_ranks(monkeypatch, n, cells, values)
        assert ranked == dense == rank == d + d * (d - 1) // 2
        for report in reports:
            assert report.measured <= report.tolerance and f"rank {rank}" in report.details
            assert not report.passed

    def test_a_family_without_e0_is_ranked_at_most_its_dense_rank(self, monkeypatch, fresh_base):
        # 15 generators span at most 15 dimensions; (0, 0) is pinned by none of them, so the per-pair
        # count is only a lower bound here, and it is still never above the dense rank
        cells, values = witnesses.spanning_family(1)
        rank, dense, reports = family_ranks(monkeypatch, 1, cells[1:], values[1:])
        assert rank == 15 and rank <= dense == 15
        for report in reports:
            assert report.measured <= report.tolerance and "rank 15" in report.details
            assert not report.passed

    @pytest.mark.parametrize("n", [1, 2])
    def test_rank_drops_without_phase_vectors(self, monkeypatch, fresh_base, n):
        drop_phase_vectors(monkeypatch)
        d = 4 * n
        gens = densify(*witnesses.spanning_family(n), d)
        dropped = d + d * (d - 1) // 2
        w = witnesses.Request(maps.phi_u(n, maps.canonical_u0(n)))
        rank = w.base.family_rank
        for _, _, _, view, g in checked_families(w):
            _, size, ok = certify._product_family_check(view, g, rank, 1e-10)
            assert rank == dense_gram_rank(product_vectors(gens, gens.conj())) == size == dropped
            assert not ok
        for report in (certify.verify_optimality(w), certify.verify_nd_optimality(w)):
            assert report.measured <= report.tolerance  # the expectations alone would pass
            assert f"rank {dropped}" in report.details
            assert not report.passed


class TestNdOptimality:
    def test_canonical(self, canonical_request):
        assert certify.verify_nd_optimality(canonical_request).passed

    def test_random_u(self):
        u = random_u(1, 13, "complex-unitary")
        w = witnesses.Request(maps.phi_u(1, u))
        assert certify.verify_nd_optimality(w).passed

    def test_conjugated(self, canonical_witness):
        out = witnesses.transform_witness(
            canonical_witness, maps.random_unitary(4, seed=14), maps.random_unitary(4, seed=15)
        )
        assert certify.verify_nd_optimality(witnesses.Request(out.source)).passed

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

    def test_canonical(self, canonical_request):
        assert certify.verify_self_duality(canonical_request).passed

    def test_breuer_hall_sanity(self):
        # the Breuer-Hall witness at U0, built by the reference formula, is the witness of Phi_{sigma_y}
        u0 = maps.canonical_u0(2)
        bh = reference_witness(lambda x: breuer_hall(x, u0), 4)
        w = with_facts(witnesses.Request, maps.phi_u(1, maps.SIGMA_Y), plain=bh.matrix)
        assert certify.verify_self_duality(w).passed

    def test_fails_on_conjugated_map(self):
        # independent V1, V2 break self-duality of W; the check certifies the PhiU4N map under the
        # conjugation, and the conjugated W passed off as that plain map's witness fails it
        m = maps.conjugated_phi(1, maps.canonical_u0(1), maps.random_unitary(4, seed=1), maps.random_unitary(4, seed=2))
        w = witnesses.Request(m)
        assert witnesses.Base(m).self_duality_defect > 1e-2  # measured on W itself
        assert certify.verify_self_duality(w).passed
        passed_off = with_facts(witnesses.Request, maps.phi_u(1, maps.canonical_u0(1)), plain=witnesses.choi(m).matrix)
        report = certify.verify_self_duality(passed_off)
        assert not report.passed

    def test_fails_on_the_perturbed_witness(self, perturbed_witness):
        # the base is exactly self-dual; the perturbation enters through the rotation residual
        report = certify.verify_self_duality(perturbed_witness)
        bound = float(re.search(r"defect by (\S+),", report.details).group(1))
        assert report.measured == 0.0 and bound > 1e-3
        assert not report.passed


class TestSpa:
    def test_endpoints(self, canonical_witness):
        np.testing.assert_allclose(
            witnesses.spa_witness(canonical_witness, 1.0), np.eye(16) / 16, atol=1e-15
        )
        np.testing.assert_allclose(
            witnesses.spa_witness(canonical_witness, 0.0), canonical_witness.matrix, atol=1e-15
        )

    def test_threshold_degeneracy(self, canonical_witness):
        assert abs(min_eigenvalue(witnesses.spa_witness(canonical_witness, 0.8))) <= 1e-10

    def test_rejects_out_of_range(self, canonical_witness):
        with pytest.raises(ValueError, match="outside"):
            witnesses.spa_witness(canonical_witness, 1.5)

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
        w = with_facts(witnesses.Choi, perturbed_witness.source, plain=perturbed_witness.plain)
        measured = certify.spa_threshold(w)
        assert measured == pytest.approx(reference_spa_bisect(w), abs=1e-12)
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
        w = witnesses.Request(m)
        w.base.spectrum
        calls = count_eigensolves(monkeypatch)
        report = certify.spa_threshold_report(w)
        assert (report.passed, len(calls)) == (True, 0)
        monkeypatch.undo()
        # the boundary it reports is the min eig of the approximated base witness, solved directly
        boundary = float(re.search(r"closed-form threshold = (\S+) ", report.details).group(1))
        direct = min_eigenvalue(witnesses.spa_witness(w.base, report.expected))
        assert abs(boundary - direct) <= 1e-15

    def test_report_fails_off_the_family(self, perturbed_witness):
        # the threshold read off the exact base is right; the perturbation fails it through the slack
        report = certify.spa_threshold_report(perturbed_witness)
        spread = float(re.search(r"widens the root by (\S+) ", report.details).group(1))
        assert abs(report.measured - report.expected) <= report.tolerance < spread
        assert not report.passed

    def test_report_fails_on_a_corrupted_conjugated_witness(self):
        # the base's threshold is within tolerance; only the 1e-6 rotation slack can fail the report
        report = certify.spa_threshold_report(corrupted_conjugated_witness(5, 5))
        assert abs(report.measured - report.expected) <= report.tolerance
        assert re.search(r"rotation slack 1\.00e-06 ", report.details)
        assert not report.passed

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("c", [0.0, 0.5])
    def test_threshold_holds_for_a_contraction(self, n, c):
        # lambda_min(W) = -1/(4N) for every U = c U0, so 4N/(4N+1) is still the true threshold of
        # the contraction's own witness, while its spectrum is off the closed form; both checks,
        # which read W(U0), reject the contraction
        w = witnesses.choi(maps.phi_u(n, c * maps.canonical_u0(n)))
        assert w.spectrum[0] == pytest.approx(-1 / (4 * n), abs=1e-14)
        assert certify.spa_threshold(w) == pytest.approx(states.isotropic_entanglement_threshold(n), abs=1e-8)
        assert np.max(np.abs(w.spectrum - witnesses.expected_spectrum_sorted(n))) > 1e-3
        with pytest.raises(ValueError, match=REJECTED):
            witnesses.Request(w.source)

    def test_bisect_rejects_positive_input(self, canonical_witness):
        fake = with_facts(witnesses.Choi, canonical_witness.source, plain=np.eye(16, dtype=complex) / 16)
        with pytest.raises(ValueError, match="already positive"):
            certify.spa_threshold(fake)

    def test_min_eigenvalue_affine_in_noise(self, canonical_witness):
        # the smallest-eigenvalue branch is affine, so second differences vanish
        p0 = 0.8
        values = [
            min_eigenvalue(witnesses.spa_witness(canonical_witness, p))
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
            numeric = witnesses.detect(w, states.isotropic_state(4 * n, lam))
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
        overlap = complex(np.einsum("ij,ji->", w.matrix, states.max_entangled(4))).real
        assert detection_sum(m) == pytest.approx(16 * overlap, abs=1e-12)

    def test_detection_root(self):
        root = witnesses.canonical_witness(1).detection_boundary
        assert 0.0 < root < 1.0  # the line crosses zero
        assert root == pytest.approx(0.8, abs=1e-12)

    def test_isotropic_state_needs_no_eigensolve(self, monkeypatch):
        forbid_eigensolves(monkeypatch)
        assert complex(np.trace(states.isotropic_state(8, 0.3))).real == pytest.approx(1.0, abs=1e-12)


class TestEbCertificate:
    def test_canonical(self, canonical_request):
        assert certify.verify_eb_certificate(canonical_request).passed

    def test_conjugated(self):
        m = maps.conjugated_phi(
            1,
            maps.canonical_u0(1),
            maps.random_unitary(4, seed=18),
            maps.random_unitary(4, seed=19),
        )
        assert certify.verify_eb_certificate(witnesses.Request(m)).passed

    def test_rejects_contraction_u(self):
        with pytest.raises(ValueError, match=REJECTED):
            witnesses.Request(maps.phi_u(1, np.zeros((2, 2))))

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
        report = certify.verify_eb_certificate(with_facts(witnesses.Request, w.source, plain=bumped))
        unitality = float(re.search(r"unitality defect (\S+),", report.details).group(1))
        assert unitality == pytest.approx(d * 1e-3, rel=1e-2)
        assert report.measured == pytest.approx(report.expected, abs=report.tolerance)
        assert not report.passed

    @pytest.mark.parametrize("n", [1, 2])
    def test_fails_on_a_conjugated_witness_of_a_non_unital_map(self, n):
        # the same bump on W_p of a conjugated map: EB reads F(I) off W_p and V1, V2, never off a formed W
        d = 4 * n
        m = maps.conjugated_phi(n, maps.canonical_u0(n), maps.random_unitary(d, seed=3), maps.random_unitary(d, seed=4))
        bumped = witnesses.plain_choi(m)
        bumped[0, 0] += 1e-3
        bumped[d + 1, d + 1] -= 1e-3
        w = with_facts(witnesses.Request, m, plain=bumped)
        report = certify.verify_eb_certificate(w)
        unitality = float(re.search(r"unitality defect (\S+),", report.details).group(1))
        formed = with_facts(witnesses.Choi, m, plain=bumped).matrix
        direct = d * np.trace(formed.reshape(d, d, d, d), axis1=0, axis2=2)  # F(I) of the formed W
        assert unitality == pytest.approx(float(np.max(np.abs(direct - np.eye(d)))), rel=1e-2)
        assert unitality > 1e-4
        assert not report.passed

    def test_fails_on_the_perturbed_witness(self, perturbed_witness):
        report = certify.verify_eb_certificate(perturbed_witness)
        self_duality = float(re.search(r"self-duality defect bound (\S+) ", report.details).group(1))
        assert self_duality > 1e-6
        assert not report.passed


WITNESS_CHECKS = (witnesses.verify_spectrum, certify.verify_nondecomposability, certify.verify_optimality,
                  certify.verify_nd_optimality, certify.verify_self_duality, certify.spa_threshold_report,
                  certify.verify_eb_certificate)


class TestPositiveStandIn:
    """I/16 in place of the N=1 witness: positive, so no entanglement witness at all."""

    @pytest.fixture(scope="class")
    def stand_in(self):
        return with_facts(witnesses.Request, maps.phi_u(1, maps.canonical_u0(1)), plain=np.eye(16, dtype=complex) / 16)

    @pytest.mark.parametrize("check", WITNESS_CHECKS, ids=lambda check: check.__name__)
    def test_every_check_reports_and_fails(self, stand_in, check):
        # realign(I) is Hermitian, but I/16 is far from the rotated W(U0) its source names,
        # so even self-duality, read off the base, fails through the residual
        report = check(stand_in)
        assert not report.passed
        json.dumps(report.to_dict(), allow_nan=False)  # a finite measured keeps certify's JSON strict

    def test_detection_boundary_does_not_cross(self, stand_in):
        # Tr(W rho_lam) >= 0 on all of [0, 1]: no isotropic state is detected, so no root
        assert with_facts(witnesses.Base, stand_in.source, plain=stand_in.plain).detection_boundary == 0.0


def off_unitary_maps(n):
    """Descriptors whose U is no antisymmetric unitary: 0.5 U0 and U0 + 1e-11 S (S symmetric), plain and conjugated.

    Built around phi_u's validation, which would reject the second U.
    """
    d = 4 * n
    v1, v2 = maps.random_unitary(d, seed=1), maps.random_unitary(d, seed=2)
    for u in (0.5 * maps.canonical_u0(n), maps.canonical_u0(n) + 1e-11 * np.ones((2 * n, 2 * n))):
        yield maps.MapDescriptor(n, u)
        yield maps.MapDescriptor(n, u, v1, v2)


class TestRejectsAnOffUnitaryU:
    """Every certificate rejects a U that is not an antisymmetric unitary, with one message and no work.

    Every check takes a ``Request``, and a request of such a U is refused when it is built, so a check
    is reached on the map only through its request.
    """

    @pytest.mark.parametrize("m", off_unitary_maps(2),
                             ids=["half-u0", "half-u0-conjugated", "symmetric", "symmetric-conjugated"])
    @pytest.mark.parametrize("check", (witnesses.Request, certify.run_full_suite, certify.verify_positivity,
                                       *WITNESS_CHECKS), ids=lambda check: check.__name__)
    def test_raises_before_any_factorization_sample_or_eigensolve(self, monkeypatch, m, check):
        factored = []
        factor = maps.youla_factor
        monkeypatch.setattr(maps, "youla_factor", lambda u: factored.append(u) or factor(u))
        filled = record_plain_choi(monkeypatch)
        mapped = record_apply_map(monkeypatch)
        solved = count_eigensolves(monkeypatch)
        with pytest.raises(ValueError, match=REJECTED):
            check(m) if check in (witnesses.Request, certify.run_full_suite) else check(witnesses.Request(m))
        # no Choi entry of W is filled and no W(U0) is built; nothing maps a projector
        assert factored == [] and solved == [] and filled == [] and mapped == []


class TestFormedWInPlaceOfItsPlainChoiMatrix:
    """A conjugated map's formed W given as ``plain`` is moved by V2^T (x) V1^dagger a second time."""

    def test_fails_every_check_through_the_rotation_residual(self):
        m = maps.conjugated_phi(1, maps.random_antisymmetric_unitary(1, seed=3), maps.random_unitary(4, seed=1),
                                maps.random_unitary(4, seed=2))
        w = with_facts(witnesses.Request, m, plain=witnesses.choi(m).matrix)
        assert w.rotation_residual > 0.1
        assert not any(check(w).passed for check in (certify.verify_positivity, *WITNESS_CHECKS))


class TestStandInBase:
    """W(U0) at N=1 replaced in the memo by a stand-in ``Base`` with one wrong fact, which fails its check."""

    def test_a_base_with_realignment_norm_above_one_fails_eb(self, monkeypatch):
        # 3 (P+ - I/D) added to the base: unit trace, unital and self-dual still, and W is the stand-in
        # itself, so ||E||_F = u = 0; with the true base's other facts only the realignment bound can fail
        true = witnesses.canonical_witness(1)
        mixed = true.matrix + 3.0 * (states.max_entangled(4) - np.eye(16) / 16)
        kept = ("detection_boundary", "spectrum", "gamma_conjugation_defect", "self_duality_defect")
        base = with_facts(witnesses.Base, true.source, plain=mixed, **{fact: getattr(true, fact) for fact in kept})
        monkeypatch.setattr(witnesses, "canonical_witness", lambda n: base)
        w = with_facts(witnesses.Request, true.source, plain=mixed)
        assert w.base is base and w.rotation_residual == 0.0 and w.unitarity_defect == 0.0
        report = certify.verify_eb_certificate(w)
        realigned = float(re.search(r"realignment trace norm at most (\S+) ", report.details).group(1))
        assert realigned == pytest.approx(base.spa_realignment_norm) and realigned > 1 + 1e-8
        assert report.measured == pytest.approx(report.expected, abs=report.tolerance)
        assert not report.passed

    def test_a_base_with_a_gamma_conjugation_defect_fails_nd_optimality(self, monkeypatch):
        true = witnesses.canonical_witness(1)
        base = with_facts(witnesses.Base, true.source, gamma_conjugation_defect=1e-9)
        monkeypatch.setattr(witnesses, "canonical_witness", lambda n: base)
        w = witnesses.Request(maps.phi_u(1, random_u(1, 3, "complex-unitary")))
        assert w.base is base
        report = certify.verify_nd_optimality(w)
        assert report.measured <= report.tolerance  # the family alone would pass
        assert "base defect 1.00e-09" in report.details
        assert not report.passed

    def test_a_base_with_a_gamma_conjugation_defect_fails_eb(self, monkeypatch):
        # W(U0)^Gamma is W(U0) moved by G0 (x) 1 only up to the base's defect, which EB's partial
        # transpose subtracts: (1 - p) 1e-9 = 2e-10 below the base's exact 0 at N = 1, past -1e-10
        true = witnesses.canonical_witness(1)
        base = with_facts(witnesses.Base, true.source, gamma_conjugation_defect=1e-9)
        monkeypatch.setattr(witnesses, "canonical_witness", lambda n: base)
        w = witnesses.Request(maps.phi_u(1, maps.canonical_u0(1)))
        assert w.base is base
        report = certify.verify_eb_certificate(w)
        ppt_low = float(re.search(r"min eig of partial transpose (\S+) ", report.details).group(1))
        assert ppt_low == pytest.approx(-2e-10, rel=1e-3)
        assert "base Gamma defect delta 1.00e-09" in report.details
        assert report.measured == pytest.approx(report.expected, abs=report.tolerance)
        assert not report.passed

    def test_a_base_whose_ppt_state_is_off_unit_trace_fails_nondecomposability(self, monkeypatch):
        true = witnesses.canonical_witness(1)
        (index, values), lows = true.ppt_state
        base = with_facts(witnesses.Base, true.source, ppt_state=((index, values * (1 + 1e-9)), lows))
        monkeypatch.setattr(witnesses, "canonical_witness", lambda n: base)
        report = certify.verify_nondecomposability(witnesses.Request(maps.phi_u(1, maps.canonical_u0(1))))
        trace_defect = float(re.search(r"trace defect (\S+)$", report.details).group(1))
        assert trace_defect == pytest.approx(1e-9, rel=1e-3)
        assert not report.passed


class TestCarriedTerms:
    """Stand-in requests with a seeded unitarity defect u, sized so that one carried term decides what is reported."""

    def test_positivity_carries_a_negative_worst_further_below_zero(self, monkeypatch):
        # worst - u |worst| = -0.8e-10 * 1.5 = -1.2e-10, past -1e-10; worst + u |worst| would pass
        true = witnesses.canonical_witness(1)
        base = with_facts(witnesses.Base, true.source, positivity_worst=-0.8e-10)
        monkeypatch.setattr(witnesses, "canonical_witness", lambda n: base)
        w = with_facts(witnesses.Request, true.source, unitarity_defect=0.5, rotation_residual=0.0)
        report = certify.verify_positivity(w)
        carried = float(re.search(r"= (\S+), pass iff >= -tol", report.details).group(1))
        assert carried == pytest.approx(-1.2e-10, rel=1e-3)
        assert not report.passed

    def test_nondecomposability_moves_each_base_eigenvalue_down_by_u_times_its_size(self, monkeypatch):
        # Ostrowski: each min eig lies within u |lambda| of the base state's, and the check takes the low end
        true = witnesses.canonical_witness(1)
        entries, _ = true.ppt_state
        base = with_facts(witnesses.Base, true.source, ppt_state=(entries, (-1e-3, 2e-3)))
        monkeypatch.setattr(witnesses, "canonical_witness", lambda n: base)
        w = with_facts(witnesses.Request, true.source, unitarity_defect=0.5)
        details = certify.verify_nondecomposability(w).details
        assert "min eig(rho) = -1.50e-03, min eig(rho^Gamma) = 1.00e-03 " in details

    def test_nondecomposability_widens_the_trace_defect_by_u(self):
        # Tr rho lies within u Tr rho_b of Tr rho_b: u = 2e-12 alone pushes the trace defect past 1e-12
        m = maps.phi_u(1, maps.canonical_u0(1))
        report = certify.verify_nondecomposability(with_facts(witnesses.Request, m, unitarity_defect=2e-12))
        trace_defect = float(re.search(r"trace defect (\S+)$", report.details).group(1))
        assert trace_defect == pytest.approx(2e-12, rel=1e-3)
        assert report.measured == pytest.approx(report.expected, abs=report.tolerance)
        assert not report.passed

    def test_self_duality_scales_the_base_defect_up_by_one_plus_u(self, monkeypatch):
        # (1 + u) D delta_b = 1.5 * 16 * 5.2e-12 = 1.25e-10, past 1e-10; (1 - u) D delta_b = 4.2e-11 would pass
        true = witnesses.canonical_witness(1)
        base = with_facts(witnesses.Base, true.source, self_duality_defect=5.2e-12)
        monkeypatch.setattr(witnesses, "canonical_witness", lambda n: base)
        w = with_facts(witnesses.Request, true.source, unitarity_defect=0.5, rotation_residual=0.0)
        report = certify.verify_self_duality(w)
        bound = float(re.search(r"defect by (\S+), pass iff", report.details).group(1))
        assert bound == pytest.approx(1.25e-10, rel=1e-2)
        assert report.measured <= report.tolerance and not report.passed

    def test_nd_optimality_adds_the_moved_base_to_the_gamma_defect(self):
        # (1 + u)(delta_b + (2u + u^2) ||W_base||_F) = 2e-12 * sqrt(6) / 4 = 1.22e-12 with delta_b = 0, past 1e-12;
        # subtracting the moved base would give a negative bound, which passes
        true = witnesses.canonical_witness(1)
        w = with_facts(witnesses.Request, true.source, unitarity_defect=1e-12, rotation_residual=0.0)
        report = certify.verify_nd_optimality(w)
        bound = float(re.search(r"conjugation residual bound (\S+) <=", report.details).group(1))
        assert bound == pytest.approx(2e-12 * np.sqrt(6) / 4, rel=1e-2)
        assert report.measured <= report.tolerance and not report.passed

    def test_spa_threshold_widens_the_boundary_eigenvalue_by_the_slack(self):
        # (1 - p) s = 1e-8 / 5 = 2e-9 alone is past |boundary| <= 1e-9; the root, 3.2e-10 off and widened by
        # 6.4e-9, stays within 1e-8
        true = witnesses.canonical_witness(1)
        w = with_facts(witnesses.Request, true.source, rotation_slack=1e-8)
        report = certify.spa_threshold_report(w)
        widened = float(re.search(r"widens the root by (\S+) ", report.details).group(1))
        assert abs(report.measured - report.expected) + widened <= report.tolerance
        assert not report.passed

    def test_spa_threshold_widens_the_root_by_its_move_when_lambda_min_rises_by_the_slack(self):
        # p = 1 - c / g with g = 1/D - lambda_min: lambda_min raised by s moves the root by c s / (g (g - s)),
        # further than the c s / (g (g + s)) of lowering it; s = 0.01 sets the two apart by 6%
        true = witnesses.canonical_witness(1)
        slack = 0.01
        w = with_facts(witnesses.Request, true.source, rotation_slack=slack)
        report = certify.spa_threshold_report(w)
        widened = float(re.search(r"widens the root by (\S+) ", report.details).group(1))
        raised = with_facts(witnesses.Base, true.source, spectrum=true.spectrum + slack)
        assert widened == pytest.approx(abs(certify.spa_threshold(raised) - certify.spa_threshold(true)), rel=1e-2)


class TestRealignment:
    def test_trace_norm_flags_entanglement(self):
        # oracle: ||R(P+)||_1 = d, ||R(I/d^2)||_1 = 1/d
        d = 4
        assert linalg.trace_norm(linalg.realign(states.max_entangled(d), d, d)) == pytest.approx(d)
        assert linalg.trace_norm(linalg.realign(np.eye(d * d) / d ** 2, d, d)) == pytest.approx(1 / d)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("conjugated", [False, True])
    def test_blocked_matches_dense_svd_on_the_spa_witness(self, n, conjugated):
        d = 4 * n
        u = maps.random_antisymmetric_unitary(n, seed=50 + n)
        m = maps.phi_u(n, u)
        if conjugated:
            m = maps.conjugated_phi(n, u, maps.random_unitary(d, seed=51), maps.random_unitary(d, seed=52))
        approx = witnesses.spa_witness(witnesses.choi(m), states.isotropic_entanglement_threshold(n))
        dense = np.sum(np.linalg.svd(linalg.realign(approx, d, d), compute_uv=False))
        assert linalg.trace_norm(linalg.realign(approx, d, d)) == pytest.approx(dense, rel=0, abs=1e-13)


class TestFullSuite:
    def test_names_and_verdicts(self):
        reports = certify.run_full_suite(maps.phi_u(1, maps.canonical_u0(1)))
        assert tuple(r.name for r in reports) == certify.SUITE_CHECKS
        assert all(r.passed for r in reports)

    def test_diagonalizes_the_witness_once(self, monkeypatch):
        # counted at hermitian_eig: a blocked solve hands LAPACK only W's blocks.  Every suite of
        # one N reads its spectrum off W(U0), solved once for all of them, and solves none of the
        # rotated matrices: W, the rotated PPT state, or the partial transposes of that state and
        # of the approximated W.
        n, d = 2, 8
        plain = maps.phi_u(n, maps.random_antisymmetric_unitary(n, seed=3))
        conjugated = maps.conjugated_phi(n, plain.u, maps.random_unitary(d, seed=4), maps.random_unitary(d, seed=6))
        witnesses.canonical_witness.cache_clear()
        base = witnesses.canonical_witness(n)
        never = []
        for m in (plain, conjugated):
            w = witnesses.choi(m)
            rho = linalg.local_conjugate(states.ppt_entangled_state(base), *maps.local_rotation(m))
            approx = witnesses.spa_witness(w, states.isotropic_entanglement_threshold(n))
            never += [w.matrix, rho, partial_transpose(rho, d, d), partial_transpose(approx, d, d)]
        solved = record_hermitian_eig(monkeypatch)
        for m in (plain, conjugated, plain):
            assert all(r.passed for r in certify.run_full_suite(m))
        assert sum(x.shape == base.matrix.shape and np.array_equal(x, base.matrix) for x in solved) == 1
        for x in never:
            assert not any(s.shape == x.shape and np.allclose(s, x, rtol=0, atol=1e-12) for s in solved)

    @pytest.mark.parametrize("conjugated", [False, True])
    def test_builds_each_choi_matrix_once(self, monkeypatch, conjugated):
        # each suite fills its W_p in closed form once; W(U0) is built once for every suite of its N.  No
        # suite maps a matrix unit or forms a conjugated W: its one W-sized contraction is the pull-back
        built = record_plain_choi(monkeypatch)
        mapped = record_apply_map(monkeypatch)
        contracted = []
        contract = witnesses.local_conjugate
        monkeypatch.setattr(witnesses, "local_conjugate", lambda *a: contracted.append(a[0].shape) or contract(*a))
        witnesses.canonical_witness.cache_clear()
        m = maps.phi_u(1, maps.random_antisymmetric_unitary(1, seed=5))
        if conjugated:
            m = maps.conjugated_phi(1, m.u, maps.random_unitary(4, seed=24), maps.random_unitary(4, seed=25))
        for _ in range(2):
            assert all(r.passed for r in certify.run_full_suite(m))
        assert [x.family for x in built] == [m.family, "PhiU4N", m.family]
        assert all(x.ndim == 3 for _, x in mapped)  # positivity's projector stacks, on W(U0) only
        assert contracted == [(16, 16)] * 2

    @pytest.mark.parametrize("conjugated", [False, True])
    def test_decides_the_kind_of_u_once_per_map(self, monkeypatch, conjugated):
        # a warm suite asks whether U is an antisymmetric unitary once, for its map, before it builds
        # anything; every check reads that answer, maps.local_rotation and the PPT state decide nothing,
        # and a second suite of the same map asks nothing
        n = 2
        m = maps.phi_u(n, maps.random_antisymmetric_unitary(n, seed=7))
        if conjugated:
            m = maps.conjugated_phi(n, m.u, maps.random_unitary(8, seed=8), maps.random_unitary(8, seed=9))
        assert all(r.passed for r in certify.run_full_suite(dataclasses.replace(m)))
        calls = []
        decide = maps.is_antisymmetric_unitary
        monkeypatch.setattr(maps, "is_antisymmetric_unitary", lambda u: calls.append(u) or decide(u))
        witnesses.canonical_witness.cache_clear()  # a cold base builds its PPT state too
        assert all(r.passed for r in certify.run_full_suite(m))
        assert len(calls) == 1
        assert all(r.passed for r in certify.run_full_suite(m))
        assert len(calls) == 1
        base = witnesses.canonical_witness(n)
        assert all(value is not base for value in vars(base).values())

    def test_one_cache_clear_samples_and_ranks_again(self, monkeypatch, fresh_base):
        # every per-N fact lives in the one memo of W(U0): after one cache_clear() the next suite of
        # that N maps positivity's projector stacks on Phi_{U0} and ranks the family, once each
        n = 2
        warm = maps.phi_u(n, maps.random_antisymmetric_unitary(n, seed=3))
        assert all(r.passed for r in certify.run_full_suite(warm))
        witnesses.canonical_witness.cache_clear()
        mapped = record_apply_map(monkeypatch)
        ranked = record_pair_ranks(monkeypatch)
        for seed, stacks, ranks in ((4, [256, 256, 256, 232], [28]), (5, [], [])):
            mapped.clear()
            ranked.clear()
            m = maps.phi_u(n, maps.random_antisymmetric_unitary(n, seed=seed))
            assert all(r.passed for r in certify.run_full_suite(m))
            projectors = [(desc, x) for desc, x in mapped if x.ndim == 3]  # choi maps a (d, d, d, d) stack
            assert [len(x) for _, x in projectors] == stacks
            assert all(np.array_equal(desc.u, maps.canonical_u0(n)) for desc, _ in projectors)
            assert ranked == ranks

    def test_suites_of_alternating_n_each_read_their_own_base(self):
        # the memo holds one N at a time; a suite after another N's gets its own N's base back
        witnesses.canonical_witness.cache_clear()
        for n in (2, 3, 2):
            m = maps.phi_u(n, maps.random_antisymmetric_unitary(n, seed=10 + n))
            assert all(r.passed for r in certify.run_full_suite(m))
            w = witnesses.Request(m)
            assert w.base.source.size == n and w.rotation_slack <= 1e-14


class TestFlippedClosedForm:
    """A suite whose closed form has one block's sign flipped for every U != U0; W(U0) stays exact."""

    @pytest.mark.parametrize("conjugated", [False, True])
    def test_fails_the_suite_through_the_rotation_residual(self, monkeypatch, fresh_base, conjugated):
        fill = witnesses.plain_choi
        u0 = maps.canonical_u0(2)
        monkeypatch.setattr(witnesses, "plain_choi",
                            lambda m: fill(m) if np.array_equal(m.u, u0) else flip_one_block(fill(m), 2))
        m = maps.phi_u(2, random_u(2, 12, "complex-unitary"))
        if conjugated:
            m = maps.conjugated_phi(2, m.u, maps.random_unitary(8, seed=13), maps.random_unitary(8, seed=14))
        reports = dict((r.name, r) for r in certify.run_full_suite(m))
        # what is read off the exact base passes; the residual, of the flipped block's norm, fails it
        positivity, eb = reports["positivity"], reports["eb-certificate"]
        assert positivity.measured >= -positivity.tolerance and not positivity.passed
        covariance = float(re.search(r"covariance defect (\S+),", eb.details).group(1))
        assert covariance >= 0.9 * np.linalg.norm(2 * fill(m).reshape(8, 8, 8, 8)[4:, :4, :4, 4:])
        # optimality alone passes: on psi (x) psi* the block meets only U's zero diagonal
        assert [name for name, r in reports.items() if r.passed] == ["optimality"]


class TestCorruptedPlainWitness:
    """A plain seed-U witness with 1e-6 on one entry; its base W(U0) stays exact."""

    @pytest.mark.parametrize("entry", [(5, 5), (0, 5)], ids=["hermitian", "non-hermitian"])
    @pytest.mark.parametrize("check", (witnesses.verify_spectrum, certify.spa_threshold_report,
                                       certify.verify_self_duality, certify.verify_eb_certificate),
                             ids=lambda check: check.__name__)
    def test_fails_through_the_slack(self, entry, check):
        w = corrupted_plain_witness(*entry)
        assert w.rotation_residual == pytest.approx(1e-6, rel=1e-6)
        report = check(w)
        # what is read off the base alone would pass; only the slack can fail the report
        if report.expected is None:
            assert abs(report.measured) <= report.tolerance
        else:
            assert abs(report.measured - report.expected) <= report.tolerance
        assert not report.passed

    @pytest.mark.parametrize("entry", [(5, 5), (0, 15)], ids=["hermitian", "non-hermitian"])
    def test_fails_through_the_pull_back(self, entry):
        # what a request measures on its own W is read off W' = S^dagger W S, and each bound
        # carried from the base grows with ||E||_F: all four checks see the 1e-6
        w = corrupted_plain_witness(*entry)
        reports = [check(w) for check in (certify.verify_nondecomposability, certify.verify_optimality,
                                          certify.verify_nd_optimality, certify.verify_eb_certificate)]
        nondecomposability, optimality, nd_optimality, eb = reports
        rho = linalg.local_conjugate(states.ppt_entangled_state(w.base), *w.rotation)
        choi = with_facts(witnesses.Choi, w.source, plain=w.plain)
        assert nondecomposability.measured == pytest.approx(witnesses.detect(choi, rho), rel=1e-12)
        assert abs(nondecomposability.measured - nondecomposability.expected) > 1e-9
        assert optimality.measured > 1e-7
        bound = float(re.search(r"conjugation residual bound (\S+) ", nd_optimality.details).group(1))
        assert bound == pytest.approx(2e-6, rel=1e-2)  # (1 + (1 + u)^2) ||E||_F
        growth = w.spa_realignment_bound - w.base.spa_realignment_norm
        assert growth == pytest.approx(w.d * (1 - states.isotropic_entanglement_threshold(1)) * 1e-6, rel=1e-6)
        assert eb.measured == pytest.approx(eb.expected, abs=eb.tolerance)
        assert not any(r.passed for r in reports)

    def test_rejects_unknown_tolerance(self):
        with pytest.raises(ValueError, match="unknown check"):
            certify.run_full_suite(maps.phi_u(1, maps.canonical_u0(1)), tolerances={"bogus": 1.0})
