import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robwit import linalg
from robwit.maps import SIGMA_Y, canonical_u0, phi_u
from robwit.witnesses import choi

from conftest import dense_generators


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestPartialTranspose:
    def test_identity_fixed_point(self):
        eye = np.eye(6, dtype=complex)
        np.testing.assert_array_equal(linalg.partial_transpose(eye, 2, 3), eye)

    def test_involution(self):
        rng = np.random.default_rng(3)
        m = random_complex(rng, (12, 12))
        np.testing.assert_array_equal(linalg.partial_transpose(linalg.partial_transpose(m, 3, 4), 3, 4), m)

    def test_transposes_the_first_factor_and_its_transpose_the_second(self):
        # oracle: the index rules <i a|PT_A(M)|j b> = <j a|M|i b> and <i a|PT_B(M)|j b> = <i b|M|j a>
        rng = np.random.default_rng(5)
        d_a, d_b = 2, 3
        m = random_complex(rng, (6, 6))
        pt = linalg.partial_transpose(m, d_a, d_b)
        for i, a, j, b in np.ndindex(d_a, d_b, d_a, d_b):
            assert pt[i * d_b + a, j * d_b + b] == m[j * d_b + a, i * d_b + b]
            assert pt.T[i * d_b + a, j * d_b + b] == m[i * d_b + b, j * d_b + a]

    def test_bell_state_gives_half_swap(self):
        # oracle: the 4x4 result written out by hand (the swap operator / 2)
        bell = np.zeros((4, 4), dtype=complex)
        for k in (0, 3):
            for l in (0, 3):
                bell[k, l] = 0.5
        swap = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                swap[i * 2 + j, j * 2 + i] = 1.0
        pt = linalg.partial_transpose(bell, 2, 2)
        np.testing.assert_allclose(pt, swap / 2, atol=1e-15)
        assert abs(linalg.min_eigenvalue(pt) + 0.5) < 1e-12

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(4)
        g = random_complex(rng, (6, 6))
        herm = (g + g.conj().T) / 2
        pt = linalg.partial_transpose(herm, 2, 3)
        assert complex(np.trace(pt)) == pytest.approx(complex(np.trace(herm)))
        assert linalg.hermiticity_defect(pt) <= linalg.CONSTRUCTION_TOL

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="expected"):
            linalg.partial_transpose(np.eye(5), 2, 3)


class TestHermitianEig:
    def test_identity(self):
        w = linalg.hermitian_eig(np.eye(4))
        np.testing.assert_allclose(w, np.ones(4), atol=1e-14)

    def test_pauli_spectrum(self):
        w = linalg.hermitian_eig(SIGMA_Y)
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_canonical_witness_spectrum(self):
        w = choi(phi_u(1, canonical_u0(1)))
        eigs = linalg.hermitian_eig(w.matrix)
        expected = np.array([-0.25] + [0.0] * 10 + [0.25] * 5)
        np.testing.assert_allclose(eigs, expected, atol=1e-9)

    @pytest.mark.parametrize("dim", [8, 48, 144])
    def test_reconstruction_residual(self, dim):
        # oracle: M = Q diag(lam) Q^dagger with a random unitary Q has spectrum lam
        rng = np.random.default_rng(dim)
        q, _ = np.linalg.qr(random_complex(rng, (dim, dim)))
        lam = np.sort(rng.uniform(-1.0, 1.0, dim))
        m = (q * lam) @ q.conj().T
        np.testing.assert_allclose(linalg.hermitian_eig(m), lam, atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            linalg.hermitian_eig(np.zeros((2, 3)))

    @pytest.mark.filterwarnings("error")
    def test_rejects_a_nan_matrix(self):
        # max|M - M^dagger| is NaN, which no tolerance admits: its eigenvalues would be NaN too.  An infinite
        # diagonal makes it NaN through inf - inf, formed without a RuntimeWarning
        for m in (np.full((2, 2), np.nan), np.diag([np.inf, 1.0])):
            with pytest.raises(ValueError, match=r"not Hermitian: .* = nan >"):
                linalg.hermitian_eig(m)
        stack = np.stack([np.eye(2, dtype=complex)] * 3)
        stack[1, 0, 0] = np.nan  # one entry of one member, on the diagonal
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.hermitian_eig(stack)


def record_eigvalsh(monkeypatch):
    """Patch np.linalg.eigvalsh to record the shape of every argument it is given."""
    shapes = []
    solve = np.linalg.eigvalsh

    def record(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return solve(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", record)
    return shapes


def permuted_block_diagonal(rng, sizes):
    """Hermitian matrix with random blocks of the given sizes, under a random symmetric permutation."""
    n = int(sum(sizes))
    m = np.zeros((n, n), dtype=complex)
    start = 0
    for size in sizes:
        g = random_complex(rng, (size, size))
        m[start : start + size, start : start + size] = g + g.conj().T
        start += size
    p = rng.permutation(n)
    return m[np.ix_(p, p)]


class TestBlockedEig:
    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(1, 7), min_size=1, max_size=9), seed=st.integers(0, 2 ** 32 - 1))
    def test_permuted_block_diagonal_matches_dense(self, sizes, seed):
        m = permuted_block_diagonal(np.random.default_rng(seed), sizes)
        np.testing.assert_allclose(linalg.hermitian_eig(m), np.linalg.eigvalsh(m), rtol=0, atol=1e-13)

    @settings(max_examples=200, deadline=None)
    @given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=5), repeats=st.integers(1, 3),
           empty=st.integers(2, 4), coupling=st.sampled_from(["none", "tiny", "one-sided", "anti-hermitian"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_split_matches_dense_under_any_symmetric_permutation(self, sizes, repeats, empty, coupling, seed):
        # blocks with one size repeated, then empty indices; "tiny" joins a block to the first empty
        # index at 1e-300 both ways, "one-sided" puts 1e-9 only at M[i, j] for the first two empty
        # indices: Hermitian within the default 1e-9, it must still join i and j (eigenvalues +-5e-10).
        # "anti-hermitian" puts 1e-10 at M[i, j] and -1e-10 at M[j, i]: the pair cancels in H, which
        # leaves i and j apart, while it joins them in M's SVD (singular values 1e-10 twice)
        rng = np.random.default_rng(seed)
        blocks = permuted_block_diagonal(rng, sizes + [sizes[0]] * (repeats - 1))
        k = len(blocks)
        m = np.zeros((k + empty, k + empty), dtype=complex)
        m[:k, :k] = blocks
        if coupling == "tiny":
            m[0, k] = m[k, 0] = 1e-300
        elif coupling == "one-sided":
            m[k, k + 1] = 1e-9
        elif coupling == "anti-hermitian":
            m[k, k + 1], m[k + 1, k] = 1e-10, -1e-10
        p = rng.permutation(len(m))
        m = m[np.ix_(p, p)]
        dense = np.linalg.eigvalsh((m + m.conj().T) / 2)
        np.testing.assert_allclose(linalg.hermitian_eig(m), dense, rtol=0, atol=1e-13)
        singular = np.sum(np.linalg.svd(m, compute_uv=False))
        assert linalg.trace_norm(m) == pytest.approx(singular, rel=0, abs=1e-13)

    def test_one_block_comes_back_uncopied(self):
        # a dense matrix (a full row) and a tridiagonal one (one component found by labelling)
        rng = np.random.default_rng(33)
        g = random_complex(rng, (6, 6))
        chain = np.diag(np.arange(1.0, 7.0)) + np.diag(np.ones(5), 1) + np.diag(np.ones(5), -1)
        for m in (g + g.conj().T, chain.astype(complex)):
            blocks = linalg._components(m)
            assert len(blocks) == 1 and blocks[0] is m
        assert linalg.trace_norm(m) == pytest.approx(np.sum(np.linalg.svd(m, compute_uv=False)), rel=0, abs=1e-13)

    def test_solves_blocks_of_one_size_as_one_stack(self, monkeypatch):
        m = permuted_block_diagonal(np.random.default_rng(30), [3, 2, 3, 1, 3])
        shapes = record_eigvalsh(monkeypatch)
        linalg.hermitian_eig(m)
        assert sorted(shapes) == [(1, 1, 1), (1, 2, 2), (3, 3, 3)]

    def test_tiny_coupling_merges_blocks(self, monkeypatch):
        m = np.zeros((5, 5), dtype=complex)
        m[:2, :2] = [[1.0, 2.0], [2.0, 3.0]]
        m[2:, 2:] = np.diag([4.0, 5.0, 6.0])
        m[1, 3] = m[3, 1] = 1e-300  # couples the 2 x 2 block with index 3
        shapes = record_eigvalsh(monkeypatch)
        values = linalg.hermitian_eig(m)
        assert sorted(shapes) == [(1, 3, 3), (2, 1, 1)]
        np.testing.assert_allclose(values, np.linalg.eigvalsh(m), rtol=0, atol=1e-14)

    def test_dense_matrix_takes_the_plain_solve(self, monkeypatch):
        rng = np.random.default_rng(31)
        g = random_complex(rng, (6, 6))
        m = g + g.conj().T
        shapes = record_eigvalsh(monkeypatch)
        np.testing.assert_array_equal(linalg.hermitian_eig(m), np.linalg.eigvalsh((m + m.conj().T) / 2))
        assert shapes[0] == (6, 6)

    def test_skew_matrix_raises_before_labelling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("labelled before the Hermiticity check")

        monkeypatch.setattr(linalg, "_components", refuse)
        skew = np.zeros((4, 4), dtype=complex)
        skew[0, 1], skew[1, 0] = 1.0, -1.0
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.hermitian_eig(skew)


class TestTraceNorm:
    def test_permuted_blocks_match_dense(self):
        rng = np.random.default_rng(32)
        m = np.zeros((11, 11), dtype=complex)
        m[:3, :3] = random_complex(rng, (3, 3))
        m[3:5, 3:5] = random_complex(rng, (2, 2))
        m[5:9, 5:9] = random_complex(rng, (4, 4))  # indices 9 and 10 stay empty
        p = rng.permutation(11)
        m = m[np.ix_(p, p)]
        dense = np.sum(np.linalg.svd(m, compute_uv=False))
        assert linalg.trace_norm(m) == pytest.approx(dense, rel=0, abs=1e-13)

    @pytest.mark.parametrize("n", [0, 4])
    def test_zero_matrix(self, n):
        assert linalg.trace_norm(np.zeros((n, n))) == 0.0

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (4,), (2, 2, 2)])
    def test_rejects_a_non_square_input(self, shape):
        with pytest.raises(ValueError, match="square"):
            linalg.trace_norm(np.ones(shape))


class TestLocalConjugate:
    @pytest.mark.parametrize("d_a,d_b", [(2, 2), (2, 3), (4, 3), (1, 5)])
    def test_matches_kron_reference(self, d_a, d_b):
        # unitary factors and a unit-scale M, as for the witnesses and states it rotates
        rng = np.random.default_rng(10 * d_a + d_b)
        a, _ = np.linalg.qr(random_complex(rng, (d_a, d_a)))
        b, _ = np.linalg.qr(random_complex(rng, (d_b, d_b)))
        m = random_complex(rng, (d_a * d_b, d_a * d_b)) / (d_a * d_b)
        big = np.kron(a, b)
        np.testing.assert_allclose(linalg.local_conjugate(m, a, b), big @ m @ big.conj().T, rtol=0, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="expected"):
            linalg.local_conjugate(np.eye(6), np.eye(2), np.eye(2))


class TestStacks:
    def test_hermitian_eig_matches_member_by_member(self):
        rng = np.random.default_rng(5)
        g = random_complex(rng, (4, 6, 6))
        stack = g + np.swapaxes(g, -1, -2).conj()
        w = linalg.hermitian_eig(stack)
        assert w.shape == (4, 6)
        for member, wm in zip(stack, w):
            np.testing.assert_allclose(wm, linalg.hermitian_eig(member), atol=1e-12)

    def test_rejects_stack_with_one_non_hermitian_member(self):
        stack = np.stack([np.eye(3, dtype=complex)] * 5)
        stack[3, 0, 2] = 1e-6
        assert linalg.hermiticity_defect(stack) == pytest.approx(1e-6)
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.hermitian_eig(stack)
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.min_eigenvalue(stack)

    def test_min_eigenvalue_is_minimum_over_members(self):
        # oracle: diagonal members, whose eigenvalues are their diagonals
        diagonals = np.array([[3.0, 1.0, 2.0], [0.5, 4.0, -0.25], [1.0, 1.0, 1.0]])
        stack = np.stack([np.diag(row) for row in diagonals]).astype(complex)
        assert linalg.min_eigenvalue(stack) == pytest.approx(-0.25, abs=1e-15)
        assert linalg.min_eigenvalue(stack[[0, 2]]) == pytest.approx(1.0, abs=1e-15)


class TestRealign:
    def test_shape_for_unequal_factors(self):
        rng = np.random.default_rng(20)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        assert linalg.realign(g, 2, 4).shape == (4, 16)

    def test_entry_convention(self):
        # oracle: R(m)_{(i,j),(k,l)} = m_{(i,k),(j,l)}, entry by entry
        rng = np.random.default_rng(21)
        d_a, d_b = 2, 3
        m = random_complex(rng, (d_a * d_b, d_a * d_b))
        r = linalg.realign(m, d_a, d_b)
        for i in range(d_a):
            for j in range(d_a):
                for k in range(d_b):
                    for l in range(d_b):
                        assert r[i * d_a + j, k * d_b + l] == m[i * d_b + k, j * d_b + l]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="expected"):
            linalg.realign(np.eye(5), 2, 3)


class TestNumericalRank:
    def test_dependent_triple(self):
        e1, e2 = np.eye(2)
        assert linalg.numerical_rank([e1, e2, e1 + e2]) == 2

    def test_parallel_pair(self):
        e1 = np.eye(2)[0]
        assert linalg.numerical_rank([e1, 2 * e1]) == 1

    def test_product_family_spans(self):
        gens = dense_generators(1)
        assert linalg.numerical_rank([np.kron(g, g.conj()) for g in gens]) == 16

    def test_cutoff_applies_to_pinned_coordinates(self):
        # a single-entry vector far below tol * sigma_max counts as zero, as in the dense Gram rule
        e1, e2, e3 = np.eye(3)
        assert linalg.numerical_rank([1e-12 * e1, e2 + e3, e2 - e3]) == 2
        assert linalg.numerical_rank([1e-6 * e1, e2 + e3, e2 - e3]) == 3

    def test_random_gaussian_vectors(self):
        rng = np.random.default_rng(6)
        vecs = [random_complex(rng, 12) for _ in range(7)]
        assert linalg.numerical_rank(vecs) == 7

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            linalg.numerical_rank([])
