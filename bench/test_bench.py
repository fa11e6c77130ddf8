"""Tests of the benchmark itself: every output gate fails on a corrupted output,
the tracer records and restores correctly, and workloads follow their seed.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import robwit  # noqa: E402
import robwit.cli  # noqa: E402
from tracer import LAYERS, Tracer, nearest_layer_ancestor, summarize  # noqa: E402
from workloads import (  # noqa: E402
    CURVE_POINTS,
    WORKLOADS,
    Request,
    check_output,
    make_op,
    warm_up_requests,
)

N = 1
PLAIN = ("--u", "seed:3")
CONJUGATED = ("--u", "seed:3", "--v1", "seed:4", "--v2", "seed:5")


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = robwit.cli.main(list(argv))
    return code, out.getvalue()


def request(command: str, *extra: str) -> Request:
    argv = [command, "--n", str(N), *extra]
    if command == "certify":
        argv += ["--output", "json"]
    if command == "curve":
        argv += ["--points", str(CURVE_POINTS)]
    return Request(command, N, tuple(argv))


@pytest.fixture(scope="module")
def outputs() -> dict:
    found = {}
    for command in ("certify", "spectrum", "curve", "build"):
        req = request(command, *PLAIN)
        code, text = run_cli(req.argv)
        found[command] = (req, code, text)
    return found


def gate(outputs, command, text=None, code=None):
    req, good_code, good_text = outputs[command]
    return check_output(req, good_code if code is None else code, good_text if text is None else text)


def edit_csv(text: str, row: int, value: str) -> str:
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[-1] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command", ["certify", "spectrum", "curve", "build"])
def test_gate_passes_good_output(outputs, command):
    assert gate(outputs, command).failure is None


@pytest.mark.parametrize("command", ["certify", "spectrum", "curve", "build"])
def test_gate_fails_on_nonzero_exit_and_garbage(outputs, command):
    assert gate(outputs, command, code=1).failure.startswith("exit code 1")
    assert gate(outputs, command, text="not an output\n").failure is not None
    assert gate(outputs, command, text="").failure is not None


def test_certify_gate_fails_on_a_failed_check(outputs):
    payload = json.loads(outputs["certify"][2])
    bad = copy.deepcopy(payload)
    bad["checks"][6]["verdict"] = "fail"
    result = gate(outputs, "certify", json.dumps(bad))
    assert "spa-threshold" in result.failure
    assert (result.checks_run, result.checks_passed) == (8, 7)

    bad = copy.deepcopy(payload)
    bad["verdict"] = "fail"
    assert gate(outputs, "certify", json.dumps(bad)).failure is not None

    bad = copy.deepcopy(payload)
    del bad["checks"][0]
    assert "7 checks" in gate(outputs, "certify", json.dumps(bad)).failure


def test_spectrum_gate_fails_above_tolerance(outputs):
    text = outputs["spectrum"][2]
    assert gate(outputs, "spectrum", edit_csv(text, 5, "1e-9")).failure is None
    assert "abs_difference" in gate(outputs, "spectrum", edit_csv(text, 5, "2e-9")).failure
    truncated = "\n".join(text.splitlines()[:-1]) + "\n"
    assert "eigenvalues" in gate(outputs, "spectrum", truncated).failure


def test_curve_gate_fails_above_tolerance(outputs):
    text = outputs["curve"][2]
    assert gate(outputs, "curve", edit_csv(text, 50, "1e-12")).failure is None
    assert "abs_difference" in gate(outputs, "curve", edit_csv(text, 50, "2e-12")).failure
    truncated = "\n".join(text.splitlines()[:-1]) + "\n"
    assert "curve points" in gate(outputs, "curve", truncated).failure


def test_curve_gate_rejects_independent_v1_v2():
    """Known program defect: with V1 != V2, curve exits 0 but its closed_form
    column does not apply, so the gate must fail; witness-export therefore
    uses only plain U and V1 = V2.  When the program is fixed, this test fails
    and the workload can take independent V1, V2 too."""
    req = request("curve", *CONJUGATED)
    code, text = run_cli(req.argv)
    assert code == 0
    assert "abs_difference" in check_output(req, code, text).failure
    same = request("curve", "--u", "seed:3", "--v1", "seed:4", "--v2", "seed:4")
    assert check_output(same, *run_cli(same.argv)).failure is None


def test_build_gate_fails_on_non_hermitian_or_wrong_trace(outputs):
    payload = json.loads(outputs["build"][2])
    bad = copy.deepcopy(payload)
    bad["rows"][0][1][0] += 1e-9
    assert "Hermitian" in gate(outputs, "build", json.dumps(bad)).failure

    bad = copy.deepcopy(payload)
    bad["rows"][0][0][0] += 1e-9
    assert "Tr W" in gate(outputs, "build", json.dumps(bad)).failure

    bad = copy.deepcopy(payload)
    bad["d"] = 4
    assert gate(outputs, "build", json.dumps(bad)).failure is not None


# --- workloads ------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_requests_follow_the_seed(workload):
    def ops(seed):
        rng = random.Random(f"{workload}/{seed}")
        return [make_op(workload, rng, i) for i in range(4)]

    assert ops(1) == ops(1)
    assert ops(1) != ops(2)


def test_conjugated_requests_alternate():
    small = make_op("certify-small", random.Random(0), 0)
    assert [("--v1" in r.argv) for r in small] == [False, True, False, True]
    large = [make_op("certify-large", random.Random(0), i)[0] for i in range(4)]
    assert [("--v1" in r.argv) for r in large] == [False, True, False, True]


def test_export_uses_only_plain_u_or_equal_v():
    for req in make_op("witness-export", random.Random(7), 0):
        argv = list(req.argv)
        if "--v1" in argv:
            assert argv[argv.index("--v1") + 1] == argv[argv.index("--v2") + 1]


def test_warm_up_requests_pass_their_gates():
    for req in warm_up_requests():
        assert check_output(req, *run_cli(req.argv)).failure is None


# --- tracer ---------------------------------------------------------------------


def test_nearest_layer_ancestor_skips_non_layer_spans():
    parent = np.array([-1, 0, 1, 2, 0])
    is_layer = np.array([True, False, True, False, False])
    assert nearest_layer_ancestor(parent, is_layer).tolist() == [-1, 0, 0, 2, 0]


def test_tracer_rebinds_everywhere_and_restores():
    original = robwit.linalg.min_eigenvalue
    original_eig = robwit.linalg.hermitian_eig
    eigh = np.linalg.eigh
    tracer = Tracer(robwit)
    tracer.op_id = 0
    tracer.install()
    try:
        assert robwit.certify.min_eigenvalue is not original
        assert robwit.states.min_eigenvalue is robwit.certify.min_eigenvalue
        assert robwit.hermitian_eig is robwit.linalg.hermitian_eig is not original_eig
        code, _ = run_cli(request("certify", *CONJUGATED).argv)
    finally:
        tracer.uninstall()
    assert code == 0
    assert robwit.certify.min_eigenvalue is original
    assert robwit.states.min_eigenvalue is original
    assert robwit.hermitian_eig is original_eig
    assert np.linalg.eigh is eigh
    assert robwit.cli.json is json

    summary = summarize(tracer, 1)
    metrics, functions = summary["metrics"], summary["functions"]
    assert functions["cli.main"]["calls"] == 1
    assert functions["cli.parse_args"]["calls"] == 1
    assert functions["cli.json.dumps"]["calls"] == 1
    assert metrics["witnesses.choi.calls"] == 4
    assert metrics["certify.spa.eig_calls"] > 10
    assert metrics["linalg.eigensolve.calls"] >= metrics["certify.spa.eig_calls"]
    assert metrics["maps.apply_map.calls"] > 1000

    arrays = tracer.arrays()
    root = arrays["parent"] == -1
    op_time = float((arrays["end"][root] - arrays["start"][root]).sum()) / 1e9
    layer_total = sum(metrics[name] for name in LAYERS)
    assert all(metrics[name] >= 0 for name in LAYERS)
    assert 0.9 * op_time <= layer_total <= op_time
    assert metrics["certify.positivity.s"] > metrics["certify.optimality.s"]
