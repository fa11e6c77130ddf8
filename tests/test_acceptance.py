"""Acceptance suite: every criterion at its stated tolerance.

Each test covers one numbered criterion and prints a single pass/fail line
(visible with ``pytest -s`` and in failure output); ``pytest -v`` shows one
verdict per criterion either way.
"""

import re

import numpy as np

import reference_maps
from robwit import certify, maps, states, witnesses
from robwit.linalg import min_eigenvalue, partial_transpose, realign, trace_norm


def announce(number: int, label: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({label})" + (f": {detail}" if detail else ""))


def u_cases(n: int):
    return [
        ("canonical", maps.canonical_u0(n)),
        (f"seed:{100 + n}", maps.random_antisymmetric_unitary(n, seed=100 + n)),
    ]


def test_criterion_1_spectrum_reproduction():
    worst = 0.0
    for n in (1, 2, 3):
        expected = witnesses.expected_spectrum_sorted(n)
        for _, u in u_cases(n):
            eigs = np.linalg.eigvalsh(witnesses.choi(maps.phi_u(n, u)).matrix)
            worst = max(worst, float(np.max(np.abs(eigs - expected))))
    ok = worst <= 1e-9
    announce(1, "spectrum reproduction", ok, f"max eigenvalue deviation {worst:.2e}")
    assert ok


def test_criterion_2_nondecomposability():
    ok = True
    details = []
    for n in (1, 2):
        for label, u in u_cases(n):
            w = witnesses.choi(maps.phi_u(n, u))
            rho = states.ppt_entangled_state(w)
            d = 4 * n
            low = min_eigenvalue(rho)
            low_pt = min_eigenvalue(partial_transpose(rho, d, d).T)  # the second factor transposed
            trace_defect = abs(complex(np.trace(rho)) - 1.0)
            value = witnesses.detect(w, rho)
            target = -states.normalization_factor(n) / (8 * n * n)
            case_ok = (
                low >= -1e-10
                and low_pt >= -1e-10
                and trace_defect <= 1e-12
                and abs(value - target) <= 1e-12
            )
            ok = ok and case_ok
            details.append(f"N={n} {label}: Tr(W rho)={value:.9f}")
    announce(2, "nondecomposability", ok, "; ".join(details[:2]))
    assert ok


def test_criterion_3_optimality():
    ok = True
    for n in (1, 2):
        w = witnesses.Request(maps.phi_u(n, maps.canonical_u0(n)))
        ok = ok and certify.verify_optimality(w, tol=1e-10).passed
        ok = ok and certify.verify_nd_optimality(w, tol=1e-10).passed
        transformed = witnesses.transform_witness(
            witnesses.choi(w.source), maps.random_unitary(4 * n, seed=200 + n), maps.random_unitary(4 * n, seed=300 + n)
        )
        transformed = witnesses.Request(transformed.source)
        ok = ok and certify.verify_optimality(transformed, tol=1e-10).passed
    announce(3, "optimality incl. partial transpose and transformed witness", ok)
    assert ok


def test_criterion_4_map_positivity():
    ok = True
    details = []
    assert witnesses.POSITIVITY_TRIALS == 1000
    for n in (1, 2):
        report = certify.verify_positivity(witnesses.Request(maps.phi_u(n, maps.canonical_u0(n))))
        premises = re.search(r"proof-identity defect (\S+), Schur defect (\S+),", report.details)
        assert premises is not None, report.details
        defects = [float(x) for x in premises.groups()]
        ok = ok and report.passed and max(defects) <= 1e-12
        details.append(f"N={n} worst eigenvalue {report.measured:.2e}, premise defects {max(defects):.2e}")
    announce(4, "map positivity, 1000 projectors + the proof's premises for every splitting", ok, "; ".join(details))
    assert ok


def test_criterion_5_spa_threshold():
    ok = True
    details = []
    for n in (1, 2):
        w = witnesses.choi(maps.phi_u(n, maps.canonical_u0(n)))
        bisected = certify.spa_threshold(w)
        closed = states.isotropic_entanglement_threshold(n)
        boundary = min_eigenvalue(witnesses.spa_witness(w, closed))
        case_ok = abs(bisected - closed) <= 1e-8 and abs(boundary) <= 1e-9
        ok = ok and case_ok
        details.append(f"N={n}: bisected {bisected:.10f} vs {closed:.10f}")
    announce(5, "SPA threshold", ok, "; ".join(details))
    assert ok


def test_criterion_6_self_duality():
    ok = True
    worst = 0.0
    for n in (1, 2):
        for _, u in u_cases(n):
            report = certify.verify_self_duality(witnesses.Request(maps.phi_u(n, u)), tol=1e-10)
            ok = ok and report.passed
            worst = max(worst, report.measured)
    announce(6, "self-duality, exact (Hermitian natural matrix)", ok, f"max |R - R^dagger| {worst:.2e}")
    assert ok


def test_criterion_7_isotropic_detection(detection_sum):
    ok = True
    worst = 0.0
    for n in (1, 2):
        w = witnesses.canonical_witness(n)  # W(U0), a Base: the detection root is one of its facts
        for lam in np.linspace(0.0, 1.0, 11):
            numeric = witnesses.detect(w, states.isotropic_state(4 * n, float(lam)))
            closed = certify.isotropic_detection_value(n, float(lam))
            worst = max(worst, abs(numeric - closed))
        ok = ok and worst <= 1e-12
        root = w.detection_boundary  # strictly inside (0, 1): the line crosses zero
        ok = ok and abs(root - 4 * n / (4 * n + 1)) <= 1e-12
        total = detection_sum(maps.phi_u(n, maps.canonical_u0(n)))
        ok = ok and abs(total + 4 * n) <= 1e-12
    announce(7, "isotropic detection curve and sum identity", ok, f"max curve deviation {worst:.2e}")
    assert ok


def test_criterion_8_entanglement_breaking():
    ok = True
    for n in (1, 2):
        for _, u in u_cases(n):
            m = maps.phi_u(n, u)
            ok = ok and certify.verify_eb_certificate(witnesses.Request(m)).passed
            approx = witnesses.spa_witness(witnesses.choi(m), states.isotropic_entanglement_threshold(n))
            d = 4 * n
            ok = ok and min_eigenvalue(partial_transpose(approx, d, d)) >= -1e-10
            ok = ok and trace_norm(realign(approx, d, d)) <= 1.0 + 1e-8
    conj = maps.conjugated_phi(
        1, maps.canonical_u0(1), maps.random_unitary(4, seed=601), maps.random_unitary(4, seed=602)
    )
    ok = ok and certify.verify_eb_certificate(witnesses.Request(conj)).passed
    announce(8, "entanglement-breaking certificate incl. conjugated variant", ok)
    assert ok


def test_criterion_9_family_coincidences():
    # Phi_{sigma_y} at N=1 = Psi_4 = Robertson = Breuer-Hall at U0, and MapII = Phi_0,
    # against the reference formulas; Phi_{sigma_y} is not MapII, which the comparison must see
    rng = np.random.default_rng(700)
    worst = 0.0
    control = np.inf

    phi_sy = maps.phi_u(1, maps.SIGMA_Y)
    u0 = maps.canonical_u0(2)
    for _ in range(100):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        phi_x = maps.apply_map(phi_sy, x)
        worst = max(worst, float(np.max(np.abs(reference_maps.psi_2k(x) - phi_x))))
        worst = max(worst, float(np.max(np.abs(reference_maps.robertson4(x) - reference_maps.psi_2k(x)))))
        worst = max(worst, float(np.max(np.abs(reference_maps.robertson4(x) - reference_maps.breuer_hall(x, u0)))))
        control = min(control, float(np.max(np.abs(reference_maps.map_ii(x) - phi_x))))

    for n in (1, 2):
        zero = maps.phi_u(n, np.zeros((2 * n, 2 * n)))
        for _ in range(100):
            x = rng.standard_normal((4 * n, 4 * n)) + 1j * rng.standard_normal((4 * n, 4 * n))
            worst = max(worst, float(np.max(np.abs(reference_maps.map_ii(x) - maps.apply_map(zero, x)))))

    ok = worst <= 1e-12 and control > 1e-2
    announce(9, "family coincidences", ok,
             f"max entrywise deviation {worst:.2e}; Phi_sigma_y vs MapII at least {control:.2e}")
    assert ok


def test_criterion_10_full_suite_at_n6_and_conjugated_n8():
    # every check at N=6 (576 x 576 witnesses), where the blocked solves matter, and on a conjugated
    # map at N=8 (1024 x 1024, dense); U, V1, V2 as the CLI resolves seed:100+N, seed:1, seed:2
    ok = True
    details = []
    for n, conjugated in ((6, False), (6, True), (8, True)):
        m = maps.phi_u(n, maps.random_antisymmetric_unitary(n, 100 + n))
        if conjugated:
            m = maps.conjugated_phi(n, m.u, maps.random_unitary(4 * n, 1), maps.random_unitary(4 * n, 2))
        reports = certify.run_full_suite(m)
        passed = sum(r.passed for r in reports)
        ok = ok and len(reports) == len(certify.SUITE_CHECKS) == passed
        details.append(f"N={n} {'conjugated' if conjugated else 'plain'} {passed}/{len(reports)}")
    announce(10, "full suite at N=6, plain and conjugated, and at N=8, conjugated", ok, "; ".join(details))
    assert ok
