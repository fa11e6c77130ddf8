"""Executable certificates for the generalized Robertson witnesses.

Each ``verify_*`` function turns one proved property into a numerical
check returning a :class:`CertReport`: positivity of the map,
nondecomposability via an explicit PPT entangled state, optimality of the
witness and of its partial transpose via a spanning zero-expectation product
family, self-duality, the noise threshold of the structural physical
approximation, detection of all entangled isotropic states, and the
resulting entanglement-breaking certificate for the approximated map.

Positivity takes a map descriptor: it samples the map, and bounds the
defects of its proof over every splitting by the premises U^T = -U and
U^dagger U = I.  Every other check takes one :class:`Witness`, which carries
its map and, as ``Witness.base``, the PhiU4N witness it is moved from by the
local rotation (A, B) of ``maps.local_rotation``.  A plain map's rotation is
(I, I), so each check takes one path for plain and conjugated witnesses alike.

Every spectral quantity is read off the base: the spectrum, the SPA
threshold and its boundary, the PPT state and its partial transpose, and
the partial transpose of the approximated witness.  The base's matrices are
reducible and solve block by block, where a rotated one is dense.  Each such
check widens its verdict by ``Witness.rotation_slack``, one measured bound
on how far the eigenvalues of W lie from the base's (exactly 0 for a plain
witness), and reports it.  Measured directly on W stay: the product-family
expectations, read off <= 4 x 4 blocks of W pulled back once by the
family's rotation, Tr(W rho), unitality, the covariance residual, and the
realignment trace norm, whose independence from the spectrum is its point.
Self-duality and unitality are exact, read off the witness.
``run_full_suite`` builds the witness of one map and runs all eight,
seeding positivity.
"""

from __future__ import annotations

import numpy as np

from . import maps, states, witnesses
from .linalg import (
    CONSTRUCTION_TOL,
    POSITIVITY_TOL,
    local_conjugate,
    min_eigenvalue,
    numerical_rank,
    partial_transpose,
    realign,
    trace_norm,
)
from .report import CertReport, rule_report, value_report

# Positivity's sample size; its projectors are mapped POSITIVITY_BLOCK per batched
# call, which bounds the stack (and the peak memory) at 256 (4N)^2 matrices.
POSITIVITY_TRIALS = 1000
POSITIVITY_BLOCK = 256


def detect(w: witnesses.Witness, rho: np.ndarray) -> float:
    """Tr(W rho); strictly negative means the witness detects the state."""
    if w.matrix.shape != rho.shape:
        raise ValueError(f"dimension mismatch: witness {w.matrix.shape} vs state {rho.shape}")
    value = complex(np.einsum("ij,ji->", w.matrix, rho))
    if abs(value.imag) > CONSTRUCTION_TOL * max(1.0, abs(value.real)):
        raise ValueError(f"Tr(W rho) has a non-negligible imaginary part: {value}")
    return float(value.real)


# --- positivity -------------------------------------------------------------


def premise_defects(u: np.ndarray) -> tuple[float, float]:
    """Bounds on the proof-identity and Schur defects over every splitting, from U alone.

    With alpha = ||U + U^T||_2, beta = ||U^dagger U - I||_2, unit psi1, psi2,
    Q = |psi1><psi1| and Q^U = U Q^T U^dagger = |v><v| for v = U conj psi1:
    M M^dagger - Q - Q^U = z |psi1><v| + h.c. + (||U conj psi2||^2 - 1) Q^U,
    where z = x^T U x for x = conj psi2, so |z| <= alpha/2, and
    ||v||^2 <= 1 + beta.  The identity defect is then at most
    alpha sqrt(1 + beta) + beta (1 + beta), which also bounds
    |Tr(Q Q^U)| = |<psi1|v>|^2 <= alpha^2/4 as ||U||_2^2 <= 1 + beta.  As
    lambda_max(Q + Q^U) <= max(1, ||v||^2) + |<psi1|v>| <= 1 + beta + alpha/2,
    the Schur defect lambda_max(M M^dagger) - 1 is at most beta + alpha/2
    plus the identity bound.  Both vanish iff U is an antisymmetric unitary.
    """
    alpha = float(np.linalg.norm(u + u.T, 2))
    beta = float(np.linalg.norm(u.conj().T @ u - np.eye(len(u)), 2))
    identity = alpha * np.sqrt(1.0 + beta) + beta * (1.0 + beta)
    return identity, beta + alpha / 2 + identity


def verify_positivity(m: maps.MapDescriptor, seed: int = 7, tol: float = POSITIVITY_TOL) -> CertReport:
    """Positivity of the map, sampled and from the premises of its proof.

    The sample maps ``POSITIVITY_TRIALS`` random rank-1 projectors and records
    the worst output eigenvalue.  The proof splits psi = sqrt(a) psi1 (+)
    sqrt(1-a) psi2; the image is (1/2N) [[(1-a) I, -b M], [-b M^dagger, a I]]
    with b = sqrt(a(1-a)) and M = |psi1><psi2| + U |conj psi1><conj psi2| U^dagger,
    PSD iff M M^dagger <= I (Schur complement), which holds as M M^dagger = Q + Q^U,
    two orthogonal projectors, when U^T = -U and U is unitary.  ``premise_defects``
    bounds both defects over every splitting.  A conjugated map is positive iff
    its base is: a congruence keeps a matrix PSD.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((POSITIVITY_TRIALS, 2, 4 * m.size))  # per trial: real then imaginary part
    psi = g[:, 0] + 1j * g[:, 1]
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    worst = np.inf
    for start in range(0, POSITIVITY_TRIALS, POSITIVITY_BLOCK):
        p = psi[start : start + POSITIVITY_BLOCK]
        worst = min(worst, min_eigenvalue(maps.apply_map(m, p[:, :, None] * p[:, None, :].conj())))

    identity_defect, schur_defect = premise_defects(m.u)
    ok = worst >= -tol and identity_defect <= CONSTRUCTION_TOL and schur_defect <= CONSTRUCTION_TOL
    note = " (premises of the underlying map)" if m.family == "ConjugatedPhiU" else ""
    return rule_report(
        "positivity",
        worst,
        tol,
        ok,
        f"worst image eigenvalue over {POSITIVITY_TRIALS} projectors, pass iff >= -tol; "
        f"proof-identity defect {identity_defect:.2e}, Schur defect {schur_defect:.2e}, "
        f"both <= 1e-12, bounded over every splitting by ||U + U^T||_2 and ||U^dagger U - I||_2{note}",
    )


# --- nondecomposability -----------------------------------------------------


def verify_nondecomposability(w: witnesses.Witness, tol: float = 1e-12) -> CertReport:
    """Exhibit a PPT state on which the witness is strictly negative.

    The state rho_b is built from the PhiU4N base witness and rotated by the
    local rotation S = A (x) B that relates the two witnesses, (I, I) for a
    plain one: rho = S rho_b S^dagger.  Transposing the first factor maps S to
    Abar (x) B, so rho^Gamma is the same congruence of rho_b^Gamma.  By
    Ostrowski's theorem a congruence scales each eigenvalue by a factor within
    ||S^dagger S - I||_2 of 1, so the minimal eigenvalues of rho and rho^Gamma
    are read off the base state, less |lambda| times the measured unitarity
    defect.  Tr(W rho) and the unit trace are measured on the rotated state.
    """
    m = w.source
    base_rho = states.ppt_entangled_state(w.base)
    rho = local_conjugate(base_rho, *maps.local_rotation(m))
    n = m.size
    d = 4 * n

    defect = w.unitarity_defect
    low, low_pt = (x - defect * abs(x) for x in (
        min_eigenvalue(base_rho, CONSTRUCTION_TOL),  # raises unless rho_b is Hermitian within 1e-12
        min_eigenvalue(partial_transpose(base_rho, d, d, "A")),
    ))
    trace_defect = abs(complex(np.trace(rho)) - 1.0)
    measured = detect(w, rho)
    expected = -states.normalization_factor(n) / (8 * n * n)

    ok = low >= -POSITIVITY_TOL and low_pt >= -POSITIVITY_TOL and trace_defect <= 1e-12
    return value_report(
        "nondecomposability",
        measured,
        expected,
        tol,
        details=(
            f"Tr(W rho) on the explicit PPT state; min eig(rho) = {low:.2e}, "
            f"min eig(rho^Gamma) = {low_pt:.2e} (both >= -1e-10, from the base state with unitarity "
            f"defect {defect:.2e}), trace defect {trace_defect:.2e}"
        ),
        extra_ok=ok,
    )


# --- optimality -------------------------------------------------------------


def spanning_family(n: int) -> np.ndarray:
    """Rows e_l, then e_m + e_n and e_m + i e_n for each m < n, each mapped to psi (x) psi*.

    The family has (4N)^2 members and spans C^{4N} (x) C^{4N}.
    """
    if n < 1:
        raise ValueError("N must be a positive integer")
    d = 4 * n
    e = np.eye(d, dtype=complex)
    lo, hi = np.triu_indices(d, 1)  # every pair m < n, in row-major order
    sums = np.stack([e[lo] + e[hi], e[lo] + 1j * e[hi]], axis=1).reshape(-1, d)
    return np.concatenate([e, sums])


def _product_family_check(matrix: np.ndarray, a: np.ndarray, b: np.ndarray,
                          tol: float) -> tuple[float, int, int, bool]:
    """(worst, rank, size, ok) of the family (A psi) (x) (B psi*), psi over ``spanning_family``.

    Each expectation is <psi (x) psi*| M' |psi (x) psi*> on the pull-back M' = (A (x) B)^dagger
    M (A (x) B), formed once, and psi (x) psi* lives on the cells (i, j) with i, j among the
    generator's <= 2 nonzero coordinates: it is read off one <= 4 x 4 block of M'.  The rotations
    are unitary, validated where they are built, and keep rank, so the rank is the plain family's,
    by ``numerical_rank``'s exact elimination.  ok iff worst <= tol and the family spans C^D.
    """
    gens = spanning_family(len(a) // 4)
    d = gens.shape[1]
    if np.any(np.count_nonzero(gens, axis=1) > 2):
        raise ValueError("every generator of the family has at most two nonzero coordinates")
    support = np.argsort(gens == 0, axis=1, kind="stable")[:, :2]  # nonzero coordinates first
    c = np.take_along_axis(gens, support, axis=1)
    local = (c[:, :, None] * c.conj()[:, None, :]).reshape(-1, 4)  # psi (x) psi* at cells (i, j)
    cells = (support[:, :, None] * d + support[:, None, :]).reshape(-1, 4)
    pulled = local_conjugate(matrix, a.conj().T, b.conj().T)
    expectations = np.einsum("ki,kij,kj->k", local.conj(), pulled[cells[:, :, None], cells[:, None, :]], local)
    worst = float(np.max(np.abs(expectations)))
    rank = numerical_rank((gens[:, :, None] * gens.conj()[:, None, :]).reshape(len(gens), -1))
    return worst, rank, len(gens), worst <= tol and rank == d * d


def verify_optimality(w: witnesses.Witness, tol: float = 1e-10) -> CertReport:
    """Optimality: the zero-expectation product family spans the whole space.

    The family is (A psi) (x) (B psi*) for the map's local rotation (A, B),
    (I, I) for a plain map, evaluated on W itself.
    """
    worst, rank, size, ok = _product_family_check(w.matrix, *maps.local_rotation(w.source), tol)
    return rule_report(
        "optimality",
        worst,
        tol,
        ok,
        f"max |<psi (x) phi|W|psi (x) phi>| over {size} product vectors, pass iff <= tol "
        f"and family rank {rank} equals {w.d ** 2}",
    )


def verify_nd_optimality(w: witnesses.Witness, tol: float = 1e-10) -> CertReport:
    """Optimality of the partially transposed witness.

    Checks the conjugation identity (W)^Gamma = (G (x) 1) W (G (x) 1)^dagger
    for the witness's single-factor unitary G, then runs the product-family
    optimality check directly on (W)^Gamma with the transported family
    (G A psi) (x) (B psi*).
    """
    d = w.d
    g = witnesses.gamma_unitary(w.source)
    wg = partial_transpose(w.matrix, d, d, "A")
    conj_defect = float(np.max(np.abs(wg - local_conjugate(w.matrix, g, np.eye(d)))))
    a, b = maps.local_rotation(w.source)
    worst, rank, _, family_ok = _product_family_check(wg, g @ a, b, tol)
    ok = family_ok and conj_defect <= CONSTRUCTION_TOL
    return rule_report(
        "nd-optimality",
        worst,
        tol,
        ok,
        f"max product expectation of (W)^Gamma, pass iff <= tol with family rank {rank} = {d * d} "
        f"and conjugation residual {conj_defect:.2e} <= 1e-12",
    )


# --- self-duality -----------------------------------------------------------


def verify_self_duality(w: witnesses.Witness, tol: float = 1e-10) -> CertReport:
    """Tr(X F(Y)) = Tr(F(X) Y) for all X, Y, exactly: the natural matrix of F is Hermitian."""
    defect = w.self_duality_defect
    return rule_report(
        "self-duality",
        defect,
        tol,
        defect <= tol,
        f"max |R - R^dagger| for R = realign(W) = S^T / {w.d}, S the natural matrix of the map, pass iff <= tol",
    )


# --- structural physical approximation --------------------------------------


def spa_witness(w: witnesses.Witness, p: float) -> np.ndarray:
    """White-noise admixture (p/d^2) I (x) I + (1 - p) W; trace stays 1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing parameter p={p} outside [0, 1]")
    dsq = w.matrix.shape[0]
    return (p / dsq) * np.eye(dsq, dtype=complex) + (1.0 - p) * w.matrix


def spa_threshold(w: witnesses.Witness) -> float:
    """Smallest p with min eig of the approximation >= -POSITIVITY_TOL.

    I commutes with W, so that min eig is p/D + (1 - p) lambda_min(W), affine
    in p, and the threshold is its root.
    """
    low = w.spectrum[0]
    if low >= -POSITIVITY_TOL:
        raise ValueError("input is already positive at p=0; not an entanglement witness")
    return float((-POSITIVITY_TOL - low) / (1.0 / w.matrix.shape[0] - low))


def spa_threshold_report(w: witnesses.Witness, tol: float = 1e-8) -> CertReport:
    """Threshold from the base's smallest eigenvalue against the closed form, plus exact degeneracy at it.

    lambda_min(W) lies within the rotation slack s of the base's, and so each
    eigenvalue of (p/D) I + (1 - p) W lies within (1 - p) s of the base
    approximation's.  The root p = 1 - c / g, with c = 1/D + POSITIVITY_TOL
    and g = 1/D - lambda_min, then moves by at most c s / (g (g - s)); both
    verdicts are widened by these amounts.  A positive W measures p = 0 and fails.
    The boundary min eig at the closed form is affine in lambda_min too: no eigensolve.
    """
    base = w.base
    slack = w.rotation_slack
    measured = spa_threshold(base) if base.spectrum[0] < -POSITIVITY_TOL else 0.0
    expected = states.isotropic_entanglement_threshold(base.source.size)
    dsq = base.matrix.shape[0]
    boundary = expected / dsq + (1.0 - expected) * base.spectrum[0]  # min eig of spa_witness(base, expected)
    c, gap = 1.0 / dsq + POSITIVITY_TOL, 1.0 / dsq - base.spectrum[0]
    spread = float(c * slack / (gap * (gap - slack))) if slack < gap else np.inf
    return value_report(
        "spa-threshold",
        measured,
        expected,
        tol,
        details=(f"root of the affine minimal eigenvalue in the noise weight, read off the base witness; "
                 f"min eig at the closed-form threshold = {boundary:.2e} (|.| <= 1e-9); rotation slack "
                 f"{slack:.2e} widens the root by {spread:.2e} and the min eig by (1 - p) times the slack"),
        extra_ok=(abs(measured - expected) + spread <= tol
                  and abs(boundary) + (1.0 - expected) * slack <= 1e-9),
    )


# --- isotropic detection and entanglement breaking ---------------------------


def isotropic_detection_value(n: int, lam: float) -> float:
    """Closed form for Tr(W rho_lam): (1/4N)(lam/4N + lam - 1).

    Vanishes exactly at the isotropic entanglement threshold 4N/(4N+1).
    """
    return (lam / (4.0 * n) + lam - 1.0) / (4.0 * n)


def _detection_boundary(w: witnesses.Witness) -> tuple[float, bool]:
    """(lam, crosses): where lam -> Tr(W rho_lam) stops being negative on [0, 1], and whether it changes sign.

    The curve is affine in lam, so two evaluations give its root, exact up
    to eigensolver noise.  Without a sign change lam is 0 (no isotropic
    state is detected) or 1 (every one is).
    """
    g0 = detect(w, states.isotropic_state(w.d, 0.0))
    g1 = detect(w, states.isotropic_state(w.d, 1.0))
    if g0 >= 0:
        return 0.0, False
    if g1 <= 0:
        return 1.0, False
    return g0 / (g0 - g1), True


def detection_root(w: witnesses.Witness) -> float:
    """Numeric root of lam -> Tr(W rho_lam): the measurement-side counterpart of the closed form."""
    root, crosses = _detection_boundary(w)
    if not crosses:
        raise ValueError("detection curve does not change sign on [0, 1]")
    return root


def verify_eb_certificate(w: witnesses.Witness, tol: float = 1e-10) -> CertReport:
    """Entanglement-breaking certificate for the structurally approximated map.

    A positive unital map whose approximation threshold coincides with the
    isotropic entanglement threshold yields an entanglement breaking
    channel; self-duality reduces the detection condition to the witness.
    The certificate aggregates: unitality read off the witness, F(I) = d Tr_A W;
    exact self-duality of the underlying map (Hermiticity of its natural
    matrix, read off the base witness); the base witness's detection root
    against the threshold (0 for a W that detects no isotropic state, which
    fails); the covariance W = (A (x) B) W_base (A (x) B)^dagger
    under the local rotation, (I, I) for a plain map, as the witness's
    measured rotation residual; and two independent necessary conditions on
    the approximated Choi matrix at the threshold.  Its positive partial
    transpose is read off the base.  A partial transpose only permutes
    entries, so it keeps the residual's Frobenius norm; it maps the rotation
    A (x) B to Abar (x) B, with the same unitarity defect; and
    W_base^Gamma = (G (x) 1) W_base (G (x) 1)^dagger has W_base's spectral
    radius.  So each eigenvalue moves by at most (1 - p) times the rotation
    slack.  The realignment bound is measured on W itself.
    """
    m = w.source
    w_base = w.base
    n = m.size
    d = 4 * n
    if not maps.is_antisymmetric_unitary(m.u):
        raise ValueError("the entanglement-breaking certificate requires a strictly unitary U")

    unital = d * np.trace(w.matrix.reshape(d, d, d, d), axis1=0, axis2=2)
    unital_defect = float(np.max(np.abs(unital - np.eye(d))))
    self_dual_defect = w_base.self_duality_defect
    covariance_defect = w.rotation_residual
    slack = w.rotation_slack

    threshold = states.isotropic_entanglement_threshold(n)
    root, _ = _detection_boundary(w_base)

    base_low = min_eigenvalue(partial_transpose(spa_witness(w_base, threshold), d, d, "A"))
    ppt_low = base_low - (1.0 - threshold) * slack
    realigned = trace_norm(realign(spa_witness(w, threshold), d, d))  # at most 1 for a separable state

    ok = (
        unital_defect <= CONSTRUCTION_TOL
        and self_dual_defect <= CONSTRUCTION_TOL
        and abs(root - threshold) <= tol
        and covariance_defect <= CONSTRUCTION_TOL
        and ppt_low >= -POSITIVITY_TOL
        and realigned <= 1.0 + 1e-8
    )
    return value_report(
        "eb-certificate",
        root,
        threshold,
        tol,
        details=(
            f"detection root vs isotropic threshold; unitality defect {unital_defect:.2e}, "
            f"self-duality defect {self_dual_defect:.2e} <= 1e-12, covariance defect {covariance_defect:.2e}, "
            f"approximated Choi at threshold: min eig of partial transpose {ppt_low:.2e} >= -1e-10 "
            f"(the base's less (1 - p) times the rotation slack {slack:.2e}), "
            f"realignment trace norm {realigned:.6f} <= 1 + 1e-8"
        ),
        extra_ok=ok,
    )


# --- the full suite -----------------------------------------------------------


DEFAULT_TOLERANCES = {
    "positivity": POSITIVITY_TOL,
    "spectrum": 1e-9,
    "nondecomposability": 1e-12,
    "optimality": 1e-10,
    "nd-optimality": 1e-10,
    "self-duality": 1e-10,
    "spa-threshold": 1e-8,
    "eb-certificate": 1e-10,
}

SUITE_CHECKS = tuple(DEFAULT_TOLERANCES)  # the checks in the order run_full_suite reports them


def run_full_suite(m: maps.MapDescriptor, seed: int = 42,
                   tolerances: dict[str, float] | None = None) -> list[CertReport]:
    """Run all eight certification checks for one plain or conjugated PhiU map; ``seed`` seeds positivity."""
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ValueError(f"unknown check names in tolerance overrides: {sorted(unknown)}")
        tol.update(tolerances)

    w = witnesses.choi(m)
    return [
        verify_positivity(m, seed=seed, tol=tol["positivity"]),
        witnesses.verify_spectrum(w, tol=tol["spectrum"]),
        verify_nondecomposability(w, tol=tol["nondecomposability"]),
        verify_optimality(w, tol=tol["optimality"]),
        verify_nd_optimality(w, tol=tol["nd-optimality"]),
        verify_self_duality(w.base, tol=tol["self-duality"]),
        spa_threshold_report(w, tol=tol["spa-threshold"]),
        verify_eb_certificate(w, tol=tol["eb-certificate"]),
    ]
