"""Workload request mixes and the per-request output gates.

An op is one round through a workload's request mix, so that every op does
the same kind of work and the op latency distribution has one mode.  Mixing
request classes of different cost (N=1 with N=2, plain with conjugated
export) one per op makes the latencies bimodal, and their median then falls
in the gap and jumps between runs.  Every parameter (U, V1, V2 seeds) comes
from the workload seed; the program sees only the generated argv.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("certify-small", "certify-large", "witness-export")

CERTIFY_CHECKS = 8
SPECTRUM_TOL = 1e-9
CURVE_TOL = 1e-12
BUILD_TOL = 1e-12
CURVE_POINTS = 101
EXPORT_N = 3
SEED_RANGE = 1_000_000


@dataclass(frozen=True)
class Request:
    """One CLI invocation: its argv and what its gate needs to know."""

    command: str
    n: int
    argv: tuple[str, ...]


@dataclass(frozen=True)
class GateResult:
    """Outcome of one output gate; certify gates also count the checks."""

    failure: str | None
    checks_run: int = 0
    checks_passed: int = 0


def _seed_spec(rng: random.Random) -> str:
    return f"seed:{rng.randrange(SEED_RANGE)}"


def _certify(rng: random.Random, n: int, conjugated: bool) -> Request:
    u = "canonical" if rng.random() < 0.25 else _seed_spec(rng)
    argv = ["certify", "--n", str(n), "--u", u, "--output", "json"]
    if conjugated:
        argv += ["--v1", _seed_spec(rng), "--v2", _seed_spec(rng)]
    return Request("certify", n, tuple(argv))


def _export(params: list[str]) -> list[Request]:
    n = str(EXPORT_N)
    return [
        Request("build", EXPORT_N, ("build", "--n", n, *params, "--output", "json")),
        Request("spectrum", EXPORT_N, ("spectrum", "--n", n, *params)),
        Request("curve", EXPORT_N, ("curve", "--n", n, *params, "--points", str(CURVE_POINTS))),
    ]


def warm_up_requests() -> list[Request]:
    """One pass through every code path at small N, plus a 256x256 eigensolve.

    Lazy numpy/LAPACK set-up happens here instead of in the first timed op;
    at small N it costs a fraction of one op of any workload.
    """
    rng = random.Random("warm-up")
    return ([_certify(rng, 1, False), _certify(rng, 1, True)]
            + _export(["--u", _seed_spec(rng)])[:2]
            + [Request("spectrum", 4, ("spectrum", "--n", "4"))])


def make_op(workload: str, rng: random.Random, index: int) -> list[Request]:
    """The requests of op number ``index``; parameters are drawn from ``rng``."""
    if workload == "certify-small":
        # Every other request is conjugated with independent V1, V2.
        return [_certify(rng, n, conj) for n in (1, 2) for conj in (False, True)]
    if workload == "certify-large":
        # One N=4 request per op; plain and conjugated differ by ~3%, so
        # alternating them one per op keeps a single latency mode.
        return [_certify(rng, 4, index % 2 == 1)]
    if workload == "witness-export":
        # curve's closed_form column holds only for plain U and V1 = V2
        # (independent V1 != V2 is a known defect), so only those are used.
        v = _seed_spec(rng)
        return (_export(["--u", _seed_spec(rng)])
                + _export(["--u", _seed_spec(rng), "--v1", v, "--v2", v]))
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# --- gates ---------------------------------------------------------------------


def _csv_column(text: str, column: str) -> list[float]:
    rows = list(csv.DictReader(io.StringIO(text)))
    return [float(row[column]) for row in rows]


def gate_certify(req: Request, text: str) -> GateResult:
    payload = json.loads(text)
    checks = payload["checks"]
    passed = sum(c["verdict"] == "pass" for c in checks)
    if len(checks) != CERTIFY_CHECKS:
        return GateResult(f"{len(checks)} checks reported, expected {CERTIFY_CHECKS}", len(checks), passed)
    if passed != len(checks):
        failed = [c["name"] for c in checks if c["verdict"] != "pass"]
        return GateResult(f"checks failed: {', '.join(failed)}", len(checks), passed)
    if payload["verdict"] != "pass":
        return GateResult(f"verdict {payload['verdict']!r}", len(checks), passed)
    return GateResult(None, len(checks), passed)


def gate_spectrum(req: Request, text: str) -> GateResult:
    diffs = _csv_column(text, "abs_difference")
    expected_rows = (4 * req.n) ** 2
    if len(diffs) != expected_rows:
        return GateResult(f"{len(diffs)} eigenvalues, expected {expected_rows}")
    worst = max(diffs)
    if not worst <= SPECTRUM_TOL:
        return GateResult(f"max abs_difference {worst:.3e} > {SPECTRUM_TOL:g}")
    return GateResult(None)


def gate_curve(req: Request, text: str) -> GateResult:
    diffs = _csv_column(text, "abs_difference")
    if len(diffs) != CURVE_POINTS:
        return GateResult(f"{len(diffs)} curve points, expected {CURVE_POINTS}")
    worst = max(diffs)
    if not worst <= CURVE_TOL:
        return GateResult(f"max abs_difference {worst:.3e} > {CURVE_TOL:g}")
    return GateResult(None)


def gate_build(req: Request, text: str) -> GateResult:
    payload = json.loads(text)
    d = (4 * req.n) ** 2
    if payload["d"] != d:
        return GateResult(f"payload d={payload['d']}, expected {d}")
    entries = np.array(payload["rows"], dtype=float)
    if entries.shape != (d, d, 2):
        return GateResult(f"rows have shape {entries.shape}, expected {(d, d, 2)}")
    w = entries[..., 0] + 1j * entries[..., 1]
    herm = float(np.max(np.abs(w - w.conj().T)))
    if not herm <= BUILD_TOL:
        return GateResult(f"W not Hermitian: max|W - W^dagger| = {herm:.3e}")
    trace_defect = abs(complex(np.trace(w)) - 1.0)
    if not trace_defect <= BUILD_TOL:
        return GateResult(f"|Tr W - 1| = {trace_defect:.3e} > {BUILD_TOL:g}")
    return GateResult(None)


GATES = {"certify": gate_certify, "spectrum": gate_spectrum, "curve": gate_curve, "build": gate_build}


def check_output(req: Request, exit_code, text: str) -> GateResult:
    """Gate one request's output; a nonzero exit or an unreadable output fails."""
    try:
        result = GATES[req.command](req, text)
    except (ValueError, KeyError, TypeError) as exc:
        result = GateResult(f"unreadable {req.command} output: {exc!r}")
    if exit_code != 0:
        reason = f"exit code {exit_code}" + (f"; {result.failure}" if result.failure else "")
        return GateResult(reason, result.checks_run, result.checks_passed)
    return result
