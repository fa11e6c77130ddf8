"""Choi matrices of positive maps and their witness-level identities.

The Choi matrix of a map F on d x d matrices is taken with the 1/d factor
of the maximally entangled state, W = (1/d) sum_kl |k><l| (x) F(|k><l|), so
that Tr W = 1 for the trace-preserving families.  Phi_U is defined entry by
entry, so each entry of its Choi matrix W_p is known in closed form
(``plain_choi``); a conjugated map's W is W_p moved by one local unitary.
For the PhiU4N family with unitary U the spectrum of W is known in closed
form and carries a single negative eigenvalue -1/(4N).

Three classes hold the three kinds of fact.  A map's :class:`Choi` holds its
Choi data, what ``build``, ``spectrum`` and ``curve`` read off it.  :class:`Base` is
the ``Choi`` of W(U0) of one N, the witness of Phi_{U0} (``canonical_witness``),
with the facts every certificate reads off it: positivity's sample, the family
rank, the PPT state, the Gamma and self-duality defects, the realignment norm and
the detection root.  A :class:`Request` is what ``certify`` measures on one map
against that base: the rotation from W(U0), the residual and the carried bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import maps, states
from .linalg import (
    CONSTRUCTION_TOL,
    EIGENVALUE_TOL,
    gram_rank,
    hermiticity_defect,
    hermitian_eig,
    local_conjugate,
    min_eigenvalue,
    partial_transpose,
    realign,
    trace_norm,
)
from .report import CertReport, rule_report

# Positivity's sample: its size and the seed of its one fixed stream.  Its projectors are mapped
# POSITIVITY_BLOCK per batched call, which bounds the stack (and the peak memory) at 256 (4N)^2 matrices.
POSITIVITY_TRIALS = 1000
POSITIVITY_SEED = 42
POSITIVITY_BLOCK = 256


@dataclass(frozen=True, kw_only=True)
class Choi:
    """Choi data of a map plus its provenance; it acts on C^d (x) C^d.

    ``plain`` is the Choi matrix W_p of the PhiU4N map under the source: W itself for a
    plain map, and for a conjugated map X -> V1^dagger Phi_U(V2 X V2^dagger) V1 the
    matrix that ``matrix`` moves to W on first use.  Both fields are keyword-only, so no
    positional call can pass a conjugated W where W_p is meant.
    """

    plain: np.ndarray
    source: maps.MapDescriptor

    def __post_init__(self):
        if self.plain.shape != (self.d ** 2, self.d ** 2):
            raise ValueError(f"a witness of a map on {self.d}x{self.d} matrices is {self.d ** 2}x{self.d ** 2}, "
                             f"got {self.plain.shape}")

    @property
    def d(self) -> int:
        return maps.input_dim(self.source)

    @cached_property
    def matrix(self) -> np.ndarray:
        """W: ``plain`` for a plain map, T W_p T^dagger with T = V2^T (x) V1^dagger for a conjugated one.

        (1 (x) V2) P+ (1 (x) V2)^dagger = (V2^T (x) 1) P+ (V2^T (x) 1)^dagger moves V2 onto the first
        factor, and V1^dagger acts on the second.  Formed once, by ``local_conjugate``.

        ``local_conjugate`` rounds W[i, j] and W[j, i] apart, so when W_p is exactly Hermitian, as
        ``plain_choi`` is for any U, W is replaced by its Hermitian part (W + W^dagger) / 2.  That is
        the orthogonal projection onto the Hermitian matrices, where the exact W lies, so it never
        moves W further from it in the Frobenius norm.  ``hermitian_eig`` solves this same matrix,
        bit for bit, whether it is handed W or its Hermitian part.  A W_p that is not exactly
        Hermitian is conjugated as it is.
        """
        if self.source.family == "PhiU4N":
            return self.plain
        w = local_conjugate(self.plain, self.source.v2.T, self.source.v1.conj().T)
        if np.array_equal(self.plain, self.plain.conj().T):
            w += w.conj().T
            w /= 2
        return w

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of the matrix, computed on first use and kept (read-only)."""
        values = hermitian_eig(self.matrix, tol=CONSTRUCTION_TOL)
        values.flags.writeable = False  # one array is shared by every reader
        return values

    @cached_property
    def detection_line(self) -> tuple[float, float]:
        """(g0, g1) = Tr(W rho_lam) at lam = 0 and lam = 1.

        rho_lam is affine in lam, so Tr(W rho_lam) = (1 - lam) g0 + lam g1 on all of [0, 1].
        """
        return tuple(detect(self, states.isotropic_state(self.d, lam)) for lam in (0.0, 1.0))


@dataclass(frozen=True, kw_only=True)
class Request:
    """One map as ``certify`` reads it: W_p and the source, as its ``Choi`` holds them, measured against W(U0).

    It reads W_p only through ``pulled_back`` and ``identity_image``, and its base's facts
    through ``base``.
    """

    plain: np.ndarray
    source: maps.MapDescriptor

    __post_init__ = Choi.__post_init__  # the same shape check
    d = Choi.d

    @cached_property
    def identity_image(self) -> np.ndarray:
        """F(I) = d Tr_A W of the map, read off W_p: a conjugated W is never formed.

        For T = V2^T (x) V1^dagger, Tr_A(T W_p T^dagger) = V1^dagger Tr_A(((V2 V2^dagger)^T (x) 1) W_p) V1,
        so a conjugated map's F(I) is V1^dagger d Tr_A(((V2 V2^dagger)^T (x) 1) W_p) V1.
        """
        d = self.d
        t = self.plain.reshape(d, d, d, d)
        if self.source.family == "PhiU4N":
            return d * np.trace(t, axis1=0, axis2=2)
        v1, v2 = self.source.v1, self.source.v2
        moved = np.einsum("km,makb->ab", (v2 @ v2.conj().T).T, t)  # Tr_A((X (x) 1) W_p), no copy of W_p
        return v1.conj().T @ (d * moved) @ v1

    @cached_property
    def rotation(self) -> tuple[np.ndarray, np.ndarray]:
        """The map's local rotation (A, B) onto ``base`` from ``maps.local_rotation``, computed once."""
        self.base  # a U without a Youla factor is rejected before it is factorized
        return maps.local_rotation(self.source)

    @cached_property
    def pulled_back(self) -> np.ndarray:
        """W' = S^dagger W S for S = A (x) B of ``rotation``: the one W-sized contraction of a request.

        It is read off W_p, never off a conjugated W: with T = V2^T (x) V1^dagger,
        S^dagger T = (A^dagger V2^T) (x) (B^dagger V1^dagger), so W' = S^dagger T W_p T^dagger S.
        Every per-request quantity is read off W' or off facts kept with the base.
        It equals W_base up to the rotation residual, which is read off it too.
        """
        a, b = (x.conj().T for x in self.rotation)
        if self.source.family == "ConjugatedPhiU":
            a, b = a @ self.source.v2.T, b @ self.source.v1.conj().T
        return local_conjugate(self.plain, a, b)

    @cached_property
    def rotation_residual(self) -> float:
        """Bound on ||E||_F for E = W - S W_base S^dagger, read off the pull-back W' = S^dagger W S.

        S^dagger E S = W' - P W_base P with P = S^dagger S = I + Delta, ||Delta||_2 <= u (the
        unitarity defect), and P W_base P - W_base = Delta W_base + W_base Delta + Delta W_base Delta.
        As ||S^dagger E S||_F >= sigma_min(S)^2 ||E||_F >= (1 - u) ||E||_F,
        ||E||_F <= (||W' - W_base||_F + (2u + u^2) ||W_base||_F) / (1 - u), with
        ||W_base||_F the 2-norm of the base's cached spectrum.
        """
        u = self.unitarity_defect
        base = self.base
        rows = zip(self.pulled_back.reshape(self.d, -1), base.matrix.reshape(self.d, -1))
        moved = float(np.linalg.norm([np.linalg.norm(x - y) for x, y in rows]))  # no W-sized difference
        return (moved + (2.0 * u + u * u) * float(np.linalg.norm(base.spectrum))) / (1.0 - u)

    @cached_property
    def unitarity_defect(self) -> float:
        """a + b + ab >= ||S^dagger S - I||_2 for S = A (x) B, with a = ||A^dagger A - I||_F and b likewise."""
        a, b = (float(np.linalg.norm(x.conj().T @ x - np.eye(len(x)))) for x in self.rotation)
        return a + b + a * b

    @cached_property
    def rotation_slack(self) -> float:
        """How far each sorted eigenvalue of W can lie from the base's: s = residual + defect * rho(W_base).

        W = S W_base S^dagger + E with S = A (x) B.  By Weyl's inequality E
        moves each eigenvalue by at most ||E||_2 <= ||E||_F, and by Ostrowski's
        theorem the congruence by S scales eigenvalue k of W_base by a factor
        within ||S^dagger S - I||_2 of 1 (Horn & Johnson, *Matrix Analysis*).
        """
        return self.rotation_residual + self.unitarity_defect * float(np.max(np.abs(self.base.spectrum)))

    @cached_property
    def self_duality_bound(self) -> float:
        """Bound on the self-duality defect of the map underlying W, read off the base: (1 + u) D delta_b + 2 ||E||_F.

        For the rotation (A, Abar) of a plain map, realign(S W_base S^dagger) =
        T realign(W_base) T^dagger with T = A (x) Abar, so the defect of W is at most
        ||T||_2^2 ||R_b - R_b^dagger||_2 <= (1 + u) D delta_b, plus 2 max|E| for the
        residual E.  A conjugated W is the underlying plain witness moved by the
        unitary V2^T (x) V1^dagger, which keeps ||E||_F; its bound is that map's.
        """
        base = self.base
        return ((1.0 + self.unitarity_defect) * base.matrix.shape[0] * base.self_duality_defect
                + 2.0 * self.rotation_residual)

    @cached_property
    def gamma_conjugation_bound(self) -> float:
        """Bound on ||W^Gamma - (G (x) 1) W (G (x) 1)^dagger||_F for G = Abar G0 A^dagger, read off the base.

        W = S W_base S^dagger + E with S = A (x) B.  Transposing the first factor maps
        S W_base S^dagger to T' W_base^Gamma T'^dagger with T' = Abar (x) B, and keeps ||E||_F.
        With T = T' (G0 (x) 1) and K = (A^dagger A - I) (x) I, (G (x) 1) S = T (I + K), so the
        defect is T' Delta_b T'^dagger - T (K W_base + W_base K^dagger + K W_base K^dagger) T^dagger
        + Gamma(E) - (G (x) 1) E (G (x) 1)^dagger, Delta_b the base's defect
        (``gamma_conjugation_defect``).  As ||T'||_2^2 = ||T||_2^2 = ||S||_2^2 <= 1 + u,
        ||K||_2 <= u and ||G||_2^2 <= ||A||_2^4 <= (1 + u)^2, it is at most
        (1 + u) (delta_b + (2u + u^2) ||W_base||_F) + (1 + (1 + u)^2) ||E||_F.
        """
        u = self.unitarity_defect
        base = self.base
        moved = base.gamma_conjugation_defect + (2.0 * u + u * u) * float(np.linalg.norm(base.spectrum))
        return (1.0 + u) * moved + (1.0 + (1.0 + u) ** 2) * self.rotation_residual

    @cached_property
    def spa_realignment_bound(self) -> float:
        """Bound on ||realign(W_spa)||_1 at p = 4N/(4N+1), read off the base: (1 + u) r_b + p u + d (1 - p) ||E||_F.

        realign(S M S^dagger) = (A (x) Abar) realign(M) (B (x) Bbar)^T for S = A (x) B, and
        W_spa = (p/D) I + (1 - p) W = S W_base,spa S^dagger + (p/D)(I - S S^dagger) + (1 - p) E.
        ||A (x) Abar||_2 ||B (x) Bbar||_2 = ||S||_2^2 <= 1 + u scales the base's norm r_b
        (``spa_realignment_norm``), and ||realign(X)||_1 <= sqrt(D) ||X||_F = d ||X||_F for
        the rest, with ||I - S S^dagger||_F <= d u.  Chen & Wu, Quantum Inf. Comput. 3 (2003) 193.
        """
        u = self.unitarity_defect
        p = states.isotropic_entanglement_threshold(self.source.size)
        return (1.0 + u) * self.base.spa_realignment_norm + p * u + self.d * (1.0 - p) * self.rotation_residual

    @property
    def base(self) -> Base:
        """W(U0) of the map's N, ``canonical_witness``, which ``rotation`` moves to this map's W.

        Every request of that N shares it, and every certificate reads it, so a U that
        ``reject_off_unitary_u`` rejects is rejected here, before any check maps,
        factorizes or diagonalizes anything.
        """
        reject_off_unitary_u(self.source)
        return canonical_witness(self.source.size)


class Base(Choi):
    """W(U0) of one N, the witness of Phi_{U0}: every certificate reads its facts, each kept once computed.

    ``canonical_witness`` builds it once per N, and every request of that N is moved from it by
    its local rotation.
    """

    @cached_property
    def positivity_worst(self) -> float:
        """Worst image eigenvalue of the base's map, Phi_{U0}, over positivity's fixed projector sample.

        Sampled once per N: ``POSITIVITY_TRIALS`` complex Gaussian unit vectors, drawn from the stream
        ``POSITIVITY_SEED`` and mapped ``POSITIVITY_BLOCK`` projectors per call.
        """
        rng = np.random.default_rng(POSITIVITY_SEED)
        g = rng.standard_normal((POSITIVITY_TRIALS, 2, self.d))  # real, imaginary part
        psi = g[:, 0] + 1j * g[:, 1]
        psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
        blocks = (psi[i : i + POSITIVITY_BLOCK] for i in range(0, len(psi), POSITIVITY_BLOCK))
        return min(min_eigenvalue(maps.apply_map(self.source, p[:, :, None] * p[:, None, :].conj())) for p in blocks)

    @cached_property
    def family_rank(self) -> int:
        """Rank of the plain product family psi (x) psi*, psi over ``spanning_family``, read off its cells.

        psi = v0 e_m + v1 e_n puts |v0|^2 at (m, m), |v1|^2 at (n, n), v0 v1* at (m, n) and v1 v0* at
        (n, m).  A one-cell generator (m = n) pins its diagonal coordinate: the span holds that axis, so
        the rank is the pinned count plus that of the rest with the pinned coordinates dropped.  Dropping
        the whole diagonal cannot raise a rank and leaves each two-cell generator on (m, n) and (n, m),
        which no other pair shares: the rank is at least the pinned count plus the ranks of the per-pair
        2 x 2 Gram matrices, solved as one stack, and equal to it when every diagonal coordinate is
        pinned, as here.  Both count with ``gram_rank``'s cutoff.
        """
        cells, values = spanning_family(self.source.size)
        one = cells[:, 0] == cells[:, 1]
        pinned = np.zeros(self.d)
        np.maximum.at(pinned, cells[one, 0], np.abs(values[one].sum(axis=1)) ** 4)
        (m, n), (v0, v1) = cells[~one].T, values[~one].T
        x = np.where(m < n, v0 * v1.conj(), v1 * v0.conj())  # at (min, max); its conjugate at (max, min)
        vec = np.stack([x, x.conj()], axis=1)
        pairs, pair = np.unique(np.minimum(m, n) * self.d + np.maximum(m, n), return_inverse=True)
        gram = np.zeros((len(pairs), 2, 2), dtype=complex)
        np.add.at(gram, pair, vec.conj()[:, :, None] * vec[:, None, :])
        return gram_rank(np.concatenate([pinned[pinned > 0], hermitian_eig(gram).ravel()]), len(cells))

    @cached_property
    def ppt_state(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[float, float]]:
        """The PPT entangled state rho_b built from W(U0): its nonzeros and two smallest eigenvalues.

        Returns ((flat indices, values) of rho_b's nonzeros, (min eig of rho_b, min eig of rho_b^Gamma)).
        rho_b is built once and dropped: it is sparse, 400 nonzeros at N = 4 and 3504 at
        N = 12, so a base keeps those and no dense state.
        """
        rho = states.ppt_entangled_state(self)
        index = np.flatnonzero(rho)
        entries = index, rho.ravel()[index]  # kept: allocated before the solves' W-sized temporaries, not in their gaps
        low = min_eigenvalue(rho, CONSTRUCTION_TOL)  # raises unless rho is Hermitian within 1e-12
        return entries, (low, min_eigenvalue(partial_transpose(rho, self.d, self.d)))

    @cached_property
    def gamma_conjugation_defect(self) -> float:
        """||W^Gamma - (G0 (x) 1) W (G0 (x) 1)^dagger||_F for G0 = ``canonical_gamma`` of the map's N.

        G0 holds one phase per row, so the conjugation only permutes the first factor's
        indices and multiplies entries by phases.  On W(U0), whose entries are
        (1/8N^2) {0, +-1, +-i}, that is exact, and the defect is exactly 0.
        """
        d = self.d
        cols, phase = canonical_gamma(self.source.size)
        t = self.matrix.reshape(d, d, d, d)
        moved = phase[:, None, None, None] * t[cols][:, :, cols] * phase.conj()[None, None, :, None]
        return float(np.linalg.norm(t.transpose(2, 1, 0, 3) - moved))

    @cached_property
    def spa_realignment_norm(self) -> float:
        """||realign(W_spa)||_1 of the approximated witness at the threshold 4N/(4N+1), block by block.

        1/(2N) for W(U0) at N = 1, 2, 4, 8.
        """
        approx = spa_witness(self, states.isotropic_entanglement_threshold(self.source.size))
        return trace_norm(realign(approx, self.d, self.d))

    @cached_property
    def self_duality_defect(self) -> float:
        """max |R - R^dagger| for R = realign(W) = S^T / d, S the natural matrix of Phi_{U0}; measured once.

        For a Hermiticity-preserving map, Tr(X F(Y)) = Tr(F(X) Y) for all X, Y exactly
        when S is Hermitian: exact self-duality, read off W(U0) without sampling.
        """
        return hermiticity_defect(realign(self.matrix, self.d, self.d))

    @cached_property
    def detection_boundary(self) -> tuple[float, bool]:
        """(lam, crosses): where lam -> Tr(W rho_lam) stops being negative on [0, 1], and whether it changes sign.

        Its root is read off ``detection_line``, exact up to rounding.  Without a
        sign change lam is 0 (no isotropic state is detected) or 1 (every one is).
        """
        g0, g1 = self.detection_line
        if g0 >= 0:
            return 0.0, False
        if g1 <= 0:
            return 1.0, False
        return g0 / (g0 - g1), True


def reject_off_unitary_u(m: maps.MapDescriptor) -> None:
    """Raise the one ``ValueError`` of every certificate for a U that is not an antisymmetric unitary.

    Such a U (``MapDescriptor.unitary_u``, decided once per map) has no Youla factor onto U0,
    so no certificate can read W(U0) for it.
    """
    if not m.unitary_u:
        raise ValueError("U must be an antisymmetric unitary: every certificate reads W(U0) through U = V U0 V^T")


@lru_cache(maxsize=1)
def canonical_witness(n: int) -> Base:
    """W(U0) for U0 = (+)_N sigma_y, the base of every core witness of size N.

    Kept for the last N asked for, with its cached spectrum and facts, so a
    process certifying many maps of one N builds and diagonalizes it once.
    Its matrix is read-only: every request of that N reads it.
    """
    m = maps.phi_u(n, maps.canonical_u0(n))
    w = Base(plain=plain_choi(m), source=m)
    w.plain.flags.writeable = False
    return w


def canonical_gamma(n: int) -> tuple[np.ndarray, np.ndarray]:
    """G0 = I_2 (x) U0, with W(U0)^Gamma = (G0 (x) 1) W(U0) (G0 (x) 1)^dagger, as a phase permutation (cols, phase).

    Row r holds phase[r] in column cols[r] = r ^ 1: -i for even r, +i for odd r.  Gamma is the
    partial transpose on the first factor.  A witness moved from W(U0) by (A, B) has
    W^Gamma = (G (x) 1) W (G (x) 1)^dagger for G = Abar G0 A^dagger.
    """
    r = np.arange(4 * n)
    return r ^ 1, np.where(r % 2 == 1, 1j, -1j)


def spanning_family(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Generators e_l, then e_m + e_n and e_m + i e_n for each m < n, as (cells, values), each (D, 2).

    Generator k is values[k, 0] e_{cells[k, 0]} + values[k, 1] e_{cells[k, 1]}, e_l with cells (l, l)
    and values (1, 0).  Mapped to psi (x) psi*, the (4N)^2 generators span C^{4N} (x) C^{4N}.
    """
    if n < 1:
        raise ValueError("N must be a positive integer")
    d = 4 * n
    lo, hi = np.triu_indices(d, 1)  # every pair m < n, in row-major order
    cells = np.concatenate([np.arange(d)[:, None].repeat(2, axis=1), np.stack([lo, hi], axis=1).repeat(2, axis=0)])
    values = np.concatenate([np.tile([1.0, 0.0], (d, 1)), np.tile([[1.0, 1.0], [1.0, 1j]], (len(lo), 1))])
    return cells, values


def spa_witness(w: Choi, p: float) -> np.ndarray:
    """White-noise admixture (p/d^2) I (x) I + (1 - p) W; trace stays 1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing parameter p={p} outside [0, 1]")
    dsq = w.matrix.shape[0]
    return (p / dsq) * np.eye(dsq, dtype=complex) + (1.0 - p) * w.matrix


def detect(w: Choi, rho: np.ndarray) -> float:
    """Tr(W rho); strictly negative means the witness detects the state."""
    if w.matrix.shape != rho.shape:
        raise ValueError(f"dimension mismatch: witness {w.matrix.shape} vs state {rho.shape}")
    return real_trace(complex(np.einsum("ij,ji->", w.matrix, rho)))


def real_trace(value: complex) -> float:
    """Tr(W rho) as a real number; raises if its imaginary part is not negligible."""
    if abs(value.imag) > CONSTRUCTION_TOL * max(1.0, abs(value.real)):
        raise ValueError(f"Tr(W rho) has a non-negligible imaginary part: {value}")
    return float(value.real)


def plain_choi(m: maps.MapDescriptor) -> np.ndarray:
    """W_p, the Choi matrix of the PhiU4N map under m, filled from the map's formula; V1, V2 are ignored.

    On the (d, d, d, d) view t[k, a, l, b] = <k a|W_p|l b> = <a|Phi_U(|k><l|)|b> / d, with
    K = 2N and c = 1/(dK) = 1/(8N^2), the nonzeros are:

    * c at (k = l >= K, a = b < K) and at (k = l < K, a = b >= K), from I Tr X22 and I Tr X11;
    * -c at (k = a < K, l = b >= K) and at (k = a >= K, l = b < K), from -X12 and -X21;
    * -c U[a, l] Ubar[b, k] on the blocks t[K:, :K, :K, K:] and t[:K, K:, K:, :K] (indices within
      each half), from -U X21^T U^dagger and -U X12^T U^dagger.

    It holds for any U, a contraction included.  Choi, Linear Algebra Appl. 10 (1975) 285.
    """
    n = m.size
    d, k = 4 * n, 2 * n
    c = 1.0 / (8 * n * n)
    w = np.zeros((d * d, d * d), dtype=complex)
    t = w.reshape(d, d, d, d)
    low, high = np.arange(k)[:, None], np.arange(k, d)[None, :]
    t[high.T, low.T, high.T, low.T] = c
    t[low, high, low, high] = c
    t[low, low, high, high] = -c
    t[high.T, high.T, low.T, low.T] = -c
    t[k:, :k, :k, k:] = t[:k, k:, k:, :k] = -c * np.einsum("al,bk->kalb", m.u, m.u.conj())
    return w


def choi(m: maps.MapDescriptor) -> Choi:
    """Choi data of a plain or conjugated PhiU map: W_p from ``plain_choi``.

    A conjugated map's W = (1 (x) F) P+_d is formed by ``Choi.matrix`` when first read,
    as for ``transform_witness``.
    """
    return Choi(plain=plain_choi(m), source=m)


def expected_spectrum(n: int) -> list[tuple[float, int]]:
    """Closed-form Choi spectrum of the PhiU4N family with unitary U.

    Multiset {-1/(4N) x1, 0 x(12N^2-2), 1/(4N^2) x4N^2, 1/(4N) x1};
    multiplicities total (4N)^2 and the weighted sum is 1.
    """
    if n < 1:
        raise ValueError("N must be a positive integer")
    return [
        (-1.0 / (4 * n), 1),
        (0.0, 12 * n * n - 2),
        (1.0 / (4 * n * n), 4 * n * n),
        (1.0 / (4 * n), 1),
    ]


def expected_spectrum_sorted(n: int) -> np.ndarray:
    values, mults = zip(*expected_spectrum(n))
    return np.sort(np.repeat(values, mults))


def verify_spectrum(w: Request, tol: float = EIGENVALUE_TOL) -> CertReport:
    """Match the Choi eigenvalues, read off the base witness, against the closed form.

    The base's sorted eigenvalues (its cached blocked spectrum) are compared
    pairwise against the sorted expected multiset; the report carries the
    largest deviation.  Each eigenvalue of W lies within ``w.rotation_slack``
    of the base's, so the check passes iff deviation + slack <= tol.
    """
    n = w.source.size
    expected = expected_spectrum_sorted(n)
    deviation = float(np.max(np.abs(w.base.spectrum - expected)))
    slack = w.rotation_slack
    return rule_report(
        "spectrum",
        deviation,
        tol,
        deviation + slack <= tol,
        f"max per-eigenvalue deviation of the base witness from the closed-form multiset at N={n}, "
        f"rotation slack {slack:.2e}; pass iff deviation + slack <= tol",
    )


def transform_witness(w: Choi, v1: np.ndarray, v2: np.ndarray) -> Choi:
    """Choi data of the conjugated map, whose W is (V2^T (x) V1^dagger) W_w (V2^T (x) V1^dagger)^dagger.

    It keeps w's matrix as its ``plain``; ``Choi.matrix`` forms its W when first read, as for ``choi``.
    """
    if w.source.family != "PhiU4N":
        raise ValueError("transform_witness expects a plain PhiU4N witness")
    return Choi(plain=w.plain, source=maps.conjugated_phi(w.source.size, w.source.u, v1, v2))
