"""Executable certificates for the generalized Robertson witnesses.

Each ``verify_*`` function turns one proved property into a numerical
check returning a :class:`CertReport`: positivity of the map,
nondecomposability via an explicit PPT entangled state, optimality of the
witness and of its partial transpose via a spanning zero-expectation product
family, self-duality, the noise threshold of the structural physical
approximation, detection of all entangled isotropic states, and the
resulting entanglement-breaking certificate for the approximated map.

Every check takes one :class:`witnesses.Request`, certify's object for one map,
which carries the map and, as ``Request.base``, W(U0) of the map's N, the
witness it is moved from by the local rotation (A, B) of ``maps.local_rotation``,
built once per N and shared (``witnesses.canonical_witness``).  A request is
refused when it is built, with one ``ValueError`` and before any work, if its U
is not an antisymmetric unitary.
W(U0) is a :class:`witnesses.Base`, the :class:`witnesses.Choi` of Phi_{U0}, and
the facts read off it are kept on it, beside what they are built from in
``witnesses``: positivity's fixed projector sample, the product family
(``spanning_family``, index cells), G0 (``canonical_gamma``, a phase
permutation), ``spa_witness`` and ``detect``.  This module builds on
``witnesses`` and ``states``, never the other way.  Each base-read check
widens its verdict by one reported bound on how far W lies from the rotated
base (``Request.rotation_slack`` and its kin).  What a request measures on
its own W is read off one pull-back, W' = S^dagger W S for S = A (x) B
(``Request.pulled_back``), taken straight from the closed-form Choi matrix
W_p of the plain map, so no conjugated W is formed: the rotation residual
||E||_F that every bound carries, Tr(W rho) = Tr(W' rho_b), and the
product-family expectations of W and W^Gamma, each a <= 4 x 4 block of W'
or of its partial transpose.
Positivity's sample corroborates the Schur-complement proof, whose premises
``premise_defects`` checks.  ``run_full_suite`` runs all eight checks.
"""

from __future__ import annotations

import numpy as np

from . import maps, states, witnesses
from .linalg import CONSTRUCTION_TOL, EIGENVALUE_TOL, POSITIVITY_TOL
from .report import CertReport, rule_report, value_report
from .witnesses import Choi, Request

DEFAULT_TOLERANCES = {
    "positivity": POSITIVITY_TOL,
    "spectrum": EIGENVALUE_TOL,
    "nondecomposability": 1e-12,
    "optimality": 1e-10,
    "nd-optimality": 1e-10,
    "self-duality": 1e-10,
    "spa-threshold": 1e-8,
    "eb-certificate": 1e-10,
}

SUITE_CHECKS = tuple(DEFAULT_TOLERANCES)  # the checks in the order run_full_suite reports them

# How far above 1 the realignment trace norm of a separable state may be measured.
REALIGNMENT_SLACK = 1e-8


def _text(threshold: float) -> str:
    """A threshold as the details state it: 1e-9, where the e format writes 1e-09."""
    return f"{threshold:.0e}".replace("e-0", "e-")


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


def verify_positivity(w: Request, tol: float = DEFAULT_TOLERANCES["positivity"]) -> CertReport:
    """Positivity of W's map: its base map's sample, carried to it, and the premises of its proof.

    ``measured`` is the worst image eigenvalue of ``witnesses.POSITIVITY_TRIALS`` random rank-1 projectors
    under the base's map Phi_{U0}, drawn once per N and kept with the base (``Base.positivity_worst``);
    a complex Gaussian sample is unitarily invariant, so it is distributed exactly as a sample of W's own
    map.  W = S W_b S^dagger + E with S = A (x) B gives Phi(X) = B Phi_b(A^T X Abar) B^dagger + Delta(X),
    Delta the map with Choi matrix E, and ||Delta(X)||_2 <= d ||E||_F for a unit-trace PSD X.  Both
    congruences keep a matrix PSD and scale its eigenvalues within the unitarity defect u of 1
    (Ostrowski), so the sample's verdict holds for W's map iff worst (1 + u) - d ||E||_F >= -tol
    (worst - u |worst| for either sign).
    The proof maps psi = sqrt(a) psi1 (+) sqrt(1-a) psi2 to (1/2N) [[(1-a) I, -b M], [-b M^dagger,
    a I]] with b = sqrt(a(1-a)) and M = |psi1><psi2| + U |conj psi1><conj psi2| U^dagger, PSD iff
    M M^dagger = Q + Q^U <= I (Schur complement): two orthogonal projectors when U^T = -U and U is
    unitary.  ``premise_defects`` of W's U bounds both defects over every splitting: in the 2-norm, they
    still fail a U that ``Request`` admits entrywise within CONSTRUCTION_TOL, such as U0 + 4e-13 I.
    """
    worst = w.base.positivity_worst
    carried = worst - w.unitarity_defect * abs(worst) - w.d * w.rotation_residual

    identity_defect, schur_defect = premise_defects(w.source.u)
    ok = carried >= -tol and identity_defect <= CONSTRUCTION_TOL and schur_defect <= CONSTRUCTION_TOL
    return rule_report(
        "positivity",
        worst,
        tol,
        ok,
        f"worst image eigenvalue of the base map over {witnesses.POSITIVITY_TRIALS} projectors, carried to this map as "
        f"worst (1 + u) - d ||E||_F = {carried:.2e}, pass iff >= -tol; proof-identity defect {identity_defect:.2e}, "
        f"Schur defect {schur_defect:.2e}, both <= {_text(CONSTRUCTION_TOL)}, "
        f"bounded over every splitting from the map's own U",
    )


# --- nondecomposability -----------------------------------------------------


def verify_nondecomposability(w: Request, tol: float = DEFAULT_TOLERANCES["nondecomposability"]) -> CertReport:
    """Exhibit a PPT state on which the witness is strictly negative.

    The state is rho = S rho_b S^dagger, with rho_b built from the PhiU4N base
    witness and S = A (x) B the local rotation that relates the two witnesses;
    it is never formed.  Transposing the first factor maps S to Abar (x) B, so
    rho^Gamma is the same congruence of rho_b^Gamma.  By Ostrowski's theorem a
    congruence scales each eigenvalue by a factor within u >= ||S^dagger S - I||_2
    of 1, so the minimal eigenvalues of rho and rho^Gamma are read off the base
    state (measured once per base), less |lambda| u.  By cyclicity of the trace
    Tr(W rho) = Tr(W' rho_b) exactly, for the pull-back W' = S^dagger W S, summed
    over rho_b's kept nonzeros.  Tr rho = Tr(S^dagger S rho_b) lies within
    u Tr rho_b of Tr rho_b, rho_b being PSD, so the trace defect is at most
    |Tr rho_b - 1| + u Tr rho_b.
    """
    n = w.source.size
    dsq = w.d ** 2
    (index, values), lows = w.base.ppt_state
    rows, cols = np.divmod(index, dsq)

    defect = w.unitarity_defect
    low, low_pt = (x - defect * abs(x) for x in lows)
    trace = float(np.sum(values[rows == cols].real))
    trace_defect = abs(trace - 1.0) + defect * trace
    measured = witnesses.real_trace(complex(np.sum(w.pulled_back[cols, rows] * values)))
    expected = -states.normalization_factor(n) / (8 * n * n)

    ok = low >= -POSITIVITY_TOL and low_pt >= -POSITIVITY_TOL and trace_defect <= CONSTRUCTION_TOL
    return value_report(
        "nondecomposability",
        measured,
        expected,
        tol,
        details=(
            f"Tr(W rho) = Tr(W' rho_b) on the explicit PPT state; min eig(rho) = {low:.2e}, "
            f"min eig(rho^Gamma) = {low_pt:.2e} (both >= -{_text(POSITIVITY_TOL)}, from the base state with unitarity "
            f"defect {defect:.2e}), trace defect {trace_defect:.2e}"
        ),
        extra_ok=ok,
    )


# --- optimality -------------------------------------------------------------


def _product_family_check(view: np.ndarray, gamma: tuple[np.ndarray, np.ndarray], rank: int,
                          tol: float) -> tuple[float, int, bool]:
    """(worst, size, ok) of the family (G psi) (x) psi*, psi over ``witnesses.spanning_family``, on a pulled-back M'.

    ``view`` is M' as a (d, d, d, d) array, entry [i, a, j, b] = <i a|M'|j b>, and G a phase
    permutation (cols, phase), phase[r] in column cols[r] of row r: I, or ``witnesses.canonical_gamma``.
    G moves each generator's two cells, so every expectation is read off one <= 4 x 4 block of M'.
    G (x) 1 is unitary and keeps rank, so ``rank`` is the plain family psi (x) psi*'s
    (``Base.family_rank``), as is that of the family moved by a local rotation.
    ok iff worst <= tol and the family spans C^D.
    """
    cols, phase = gamma
    d = len(cols)
    cells, values = witnesses.spanning_family(d // 4)
    first = np.argsort(cols)[cells]  # G e_c = phase[r] e_r for the row r with cols[r] = c
    local = ((phase[first] * values)[:, :, None] * values.conj()[:, None, :]).reshape(-1, 4)
    i, a = np.repeat(first, 2, axis=1), np.tile(cells, 2)  # (G psi) (x) psi* at the cells (i, a)
    blocks = view[i[:, :, None], a[:, :, None], i[:, None, :], a[:, None, :]]
    expectations = np.einsum("ki,kij,kj->k", local.conj(), blocks, local)
    worst = float(np.max(np.abs(expectations)))
    return worst, len(cells), worst <= tol and rank == d * d


def verify_optimality(w: Request, tol: float = DEFAULT_TOLERANCES["optimality"]) -> CertReport:
    """Optimality: the zero-expectation product family spans the whole space.

    The family is (A psi) (x) (B psi*) for the map's local rotation (A, B);
    <(A psi) (x) (B psi*)|W|(A psi) (x) (B psi*)> = <psi (x) psi*|W'|psi (x) psi*>
    on the pull-back W' = (A (x) B)^dagger W (A (x) B), so it is read off W'.
    """
    d = w.d
    rank = w.base.family_rank
    identity = np.arange(d), np.ones(d)
    worst, size, ok = _product_family_check(w.pulled_back.reshape(d, d, d, d), identity, rank, tol)
    return rule_report(
        "optimality",
        worst,
        tol,
        ok,
        f"max |<psi (x) phi|W|psi (x) phi>| over {size} product vectors, pass iff <= tol "
        f"and family rank {rank} equals {w.d ** 2}",
    )


def verify_nd_optimality(w: Request, tol: float = DEFAULT_TOLERANCES["nd-optimality"]) -> CertReport:
    """Optimality of the partially transposed witness.

    Transposing the first factor of W' = (A^dagger (x) B^dagger) W (A (x) B) gives
    Gamma(W') = (A^T (x) B^dagger) W^Gamma (Abar (x) B) exactly, for any A and B.  So the
    family (Abar G0 psi) (x) (B psi*), G0 = ``witnesses.canonical_gamma``, has on W^Gamma
    the expectations of (G0 psi) (x) psi* on Gamma(W'), read off W' with its first
    factor's indices swapped.  It is the family (G A psi) (x) (B psi*) transported by
    G = Abar G0 A^dagger, up to A's unitarity defect.  The conjugation identity
    W^Gamma = (G (x) 1) W (G (x) 1)^dagger is measured on the base, where G0 permutes,
    and carried to W by ``Request.gamma_conjugation_bound``.
    """
    d = w.d
    gamma = w.pulled_back.reshape(d, d, d, d).transpose(2, 1, 0, 3)  # Gamma(W'), a view
    rank = w.base.family_rank
    worst, _, family_ok = _product_family_check(gamma, witnesses.canonical_gamma(w.source.size), rank, tol)
    bound = w.gamma_conjugation_bound
    ok = family_ok and bound <= CONSTRUCTION_TOL
    return rule_report(
        "nd-optimality",
        worst,
        tol,
        ok,
        f"max product expectation of (W)^Gamma, pass iff <= tol with family rank {rank} = {d * d} "
        f"and conjugation residual bound {bound:.2e} <= {_text(CONSTRUCTION_TOL)} (base defect "
        f"{w.base.gamma_conjugation_defect:.2e})",
    )


# --- self-duality -----------------------------------------------------------


def verify_self_duality(w: Request, tol: float = DEFAULT_TOLERANCES["self-duality"]) -> CertReport:
    """Tr(X F(Y)) = Tr(F(X) Y) for all X, Y, exactly: the natural matrix of F is Hermitian.

    Measured on the base witness and carried to the map underlying W by
    ``Request.self_duality_bound``: for a conjugated W, the PhiU4N map under its
    conjugation.
    """
    defect = w.base.self_duality_defect
    bound = w.self_duality_bound
    return rule_report(
        "self-duality",
        defect,
        tol,
        bound <= tol,
        f"max |R - R^dagger| for R = realign(W_base) = S^T / {w.d}, S the natural matrix of the base map; "
        f"with the rotation residual it bounds the underlying map's defect by {bound:.2e}, pass iff <= tol",
    )


# --- structural physical approximation --------------------------------------


def spa_threshold(w: Choi) -> float:
    """Smallest p with min eig of the approximation >= -POSITIVITY_TOL.

    I commutes with W, so that min eig is p/D + (1 - p) lambda_min(W), affine
    in p, and the threshold is its root.
    """
    low = w.spectrum[0]
    if low >= -POSITIVITY_TOL:
        raise ValueError("input is already positive at p=0; not an entanglement witness")
    return float((-POSITIVITY_TOL - low) / (1.0 / w.matrix.shape[0] - low))


def spa_threshold_report(w: Request, tol: float = DEFAULT_TOLERANCES["spa-threshold"]) -> CertReport:
    """Threshold from the base's smallest eigenvalue against the closed form, plus exact degeneracy at it.

    lambda_min(W) lies within the rotation slack s of the base's, and so each
    eigenvalue of (p/D) I + (1 - p) W lies within (1 - p) s of the base
    approximation's.  The root p = 1 - c / g, with c = 1/D + POSITIVITY_TOL
    and g = 1/D - lambda_min, then moves by at most c s / (g (g - s)); both
    verdicts are widened by these amounts.
    The boundary min eig at the closed form is affine in lambda_min too: no eigensolve.
    """
    base = w.base
    slack = w.rotation_slack
    measured = spa_threshold(base)
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
                 f"min eig at the closed-form threshold = {boundary:.2e} (|.| <= {_text(EIGENVALUE_TOL)}); "
                 f"rotation slack {slack:.2e} widens the root by {spread:.2e} "
                 f"and the min eig by (1 - p) times the slack"),
        extra_ok=(abs(measured - expected) + spread <= tol
                  and abs(boundary) + (1.0 - expected) * slack <= EIGENVALUE_TOL),
    )


# --- isotropic detection and entanglement breaking ---------------------------


def isotropic_detection_value(n: int, lam: float | np.ndarray) -> float | np.ndarray:
    """Closed form for Tr(W rho_lam): (1/4N)(lam/4N + lam - 1), at one lam or elementwise over an array.

    Vanishes exactly at the isotropic entanglement threshold 4N/(4N+1).
    """
    return (lam / (4.0 * n) + lam - 1.0) / (4.0 * n)


def verify_eb_certificate(w: Request, tol: float = DEFAULT_TOLERANCES["eb-certificate"]) -> CertReport:
    """Entanglement-breaking certificate for the structurally approximated map.

    A positive unital map whose approximation threshold coincides with the
    isotropic entanglement threshold yields an entanglement breaking
    channel; self-duality reduces the detection condition to the witness.
    The certificate aggregates: unitality read off the witness's Choi data,
    F(I) = d Tr_A W (``Request.identity_image``);
    exact self-duality of the underlying map (Hermiticity of its natural
    matrix, read off the base witness and bounded through the residual by
    ``Request.self_duality_bound``); the base witness's detection root
    against the threshold (0 for a W that detects no isotropic state, which
    fails); the covariance W = (A (x) B) W_base (A (x) B)^dagger
    under the local rotation, as the witness's measured rotation residual;
    and two independent necessary conditions on the approximated Choi matrix
    at the threshold.  Its partial transpose's min eig is read off the base's
    spectrum: W_base^Gamma is W_base moved by the unitary G0 (x) 1 up to the
    base's Gamma defect delta, so by Weyl's inequality its eigenvalues lie
    within delta of W_base's.  A partial transpose keeps the residual's
    Frobenius norm and maps the rotation A (x) B to Abar (x) B, with the same
    unitarity defect u, so lambda_min(W^Gamma) >= lambda_min(W_base) -
    (1 + u) delta - s for the rotation slack s, and the approximation's
    partial transpose has min eig at least p/D + (1 - p) times that.  The
    realignment criterion, a separability test independent of PPT, is read
    off the same base and carried to W by ``Request.spa_realignment_bound``,
    whose error term is d (1 - p) ||E||_F.
    """
    w_base = w.base
    n = w.source.size
    d = 4 * n
    unital_defect = float(np.max(np.abs(w.identity_image - np.eye(d))))
    self_dual_defect = w.self_duality_bound
    covariance_defect = w.rotation_residual
    slack = w.rotation_slack

    threshold = states.isotropic_entanglement_threshold(n)
    root = w_base.detection_boundary
    gamma_defect = w_base.gamma_conjugation_defect
    low = w_base.spectrum[0] - (1.0 + w.unitarity_defect) * gamma_defect - slack  # bounds lambda_min(W^Gamma)
    ppt_low = threshold / (d * d) + (1.0 - threshold) * low
    realigned = w.spa_realignment_bound  # ||realign(W_spa)||_1 is at most 1 for a separable state

    ok = (
        unital_defect <= CONSTRUCTION_TOL
        and self_dual_defect <= CONSTRUCTION_TOL
        and abs(root - threshold) <= tol
        and covariance_defect <= CONSTRUCTION_TOL
        and ppt_low >= -POSITIVITY_TOL
        and realigned <= 1.0 + REALIGNMENT_SLACK
    )
    return value_report(
        "eb-certificate",
        root,
        threshold,
        tol,
        details=(
            f"detection root vs isotropic threshold; unitality defect {unital_defect:.2e}, "
            f"self-duality defect bound {self_dual_defect:.2e} <= {_text(CONSTRUCTION_TOL)}, "
            f"covariance defect {covariance_defect:.2e}, "
            f"approximated Choi at threshold: min eig of partial transpose {ppt_low:.2e} >= -{_text(POSITIVITY_TOL)} "
            f"(p/D + (1 - p)(lambda_min(W_base) - (1 + u) delta - s), base Gamma defect delta {gamma_defect:.2e}, "
            f"rotation slack s {slack:.2e}), "
            f"realignment trace norm at most {realigned:.6f} <= 1 + {_text(REALIGNMENT_SLACK)} (the base's "
            f"{w_base.spa_realignment_norm:.6f}, carried to W)"
        ),
        extra_ok=ok,
    )


# --- the full suite -----------------------------------------------------------


def run_full_suite(m: maps.MapDescriptor, tolerances: dict[str, float] | None = None) -> list[CertReport]:
    """Run all eight certification checks for one plain or conjugated PhiU map.

    Its ``witnesses.Request`` refuses a U that is no antisymmetric unitary before anything is
    built, W(U0) included, and then holds W_p from ``witnesses.plain_choi``; no check forms a
    conjugated W.
    """
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ValueError(f"unknown check names in tolerance overrides: {sorted(unknown)}; "
                             f"valid: {', '.join(SUITE_CHECKS)}")
        tol.update(tolerances)

    w = witnesses.Request(m)
    return [
        verify_positivity(w, tol=tol["positivity"]),
        witnesses.verify_spectrum(w, tol=tol["spectrum"]),
        verify_nondecomposability(w, tol=tol["nondecomposability"]),
        verify_optimality(w, tol=tol["optimality"]),
        verify_nd_optimality(w, tol=tol["nd-optimality"]),
        verify_self_duality(w, tol=tol["self-duality"]),
        spa_threshold_report(w, tol=tol["spa-threshold"]),
        verify_eb_certificate(w, tol=tol["eb-certificate"]),
    ]
