"""Measuring loop, metrics and reporting of the robwit benchmark (see run.py)."""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from tracer import LAYERS, Tracer, summarize
from workloads import WORKLOADS, check_output, make_op, warm_up_requests

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 9
SETUP_CODE = "import robwit, robwit.cli; robwit.cli.make_parser()"
TAIL_BEYOND = 10


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one robwit benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_robwit():
    """Import robwit from this checkout's src/, never from anywhere else."""
    if not (SRC / "robwit" / "__init__.py").is_file():
        fail(f"no robwit sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import robwit
    import robwit.cli

    if Path(robwit.__file__).resolve().parent != (SRC / "robwit").resolve():
        fail(f"imported robwit from {robwit.__file__}, not from {SRC}")
    return robwit


# --- environment ------------------------------------------------------------------


def _openblas():
    """The OpenBLAS library numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        with contextlib.suppress(OSError):
            return ctypes.CDLL(path)
    return None


def _openblas_call(lib, suffix: str, restype):
    for prefix in ("scipy_openblas_", "openblas_"):
        for tail in ("64_", ""):
            fn = getattr(lib, f"{prefix}{suffix}{tail}", None) if lib is not None else None
            if fn is not None:
                fn.restype = restype
                return fn()
    return None


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    lib = _openblas()
    runtime = _openblas_call(lib, "get_config", ctypes.c_char_p)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_runtime": runtime.decode() if runtime else "unknown",
        "blas_threads_set": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads": _openblas_call(lib, "get_num_threads", ctypes.c_int),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


# --- measuring --------------------------------------------------------------------


def measure_setup() -> float:
    """Wall time of a fresh interpreter importing robwit and building the parser.

    No timeout: with one, ``subprocess`` polls the child in steps of up to
    50 ms, which would quantize the measurement.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))  # keeps the BLAS thread settings
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def execute(cli, requests) -> list[tuple]:
    """Run one op's requests in order; return (request, exit code, stdout, stderr, seconds) each."""
    outputs = []
    for req in requests:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(list(req.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback fails the op, it does not stop the run
                code = f"exception {exc!r}"
            seconds = time.perf_counter() - t0
        outputs.append((req, code, out.getvalue(), err.getvalue(), seconds))
    return outputs


def gate_op(outputs) -> dict:
    """Gate every output of one op; the op's latency is the sum of its requests'."""
    record = {"failure": None, "bytes_out": 0, "checks_run": 0, "checks_passed": 0,
              "latency_s": sum(o[-1] for o in outputs),
              "requests": [[" ".join(o[0].argv), o[-1]] for o in outputs]}
    for req, code, text, err, _ in outputs:
        result = check_output(req, code, text)
        record["bytes_out"] += len(text.encode())
        record["checks_run"] += result.checks_run
        record["checks_passed"] += result.checks_passed
        if result.failure and record["failure"] is None:
            stderr = f" (stderr: {err.strip()[:200]})" if err.strip() else ""
            record["failure"] = f"{' '.join(req.argv)}: {result.failure}{stderr}"
    return record


def run_ops(workload: str, seed: int, seconds: float, cli, tracer=None,
            setup_repeats: int = 0) -> tuple[list[dict], list[float]]:
    """Warm up, then run ops in a closed loop for ``seconds``; return (ops, set-up times).

    The ``setup_repeats`` set-up measurements are spread evenly over the
    run, between ops, so that their median sees the same host load as the
    ops do; the time they take extends the run.
    """
    warm = gate_op(execute(cli, warm_up_requests()))

    rng = random.Random(f"{workload}/{seed}")
    ops = []
    if warm["failure"]:
        ops.append(dict(warm, traced=False, warm_up=True))
    # A traced run needs at least one traced and one untraced pair.
    min_ops = 4 if tracer is not None else 1
    setup: list[float] = []
    start = time.perf_counter()
    paused = 0.0
    index = 0
    while index < min_ops or time.perf_counter() < start + paused + seconds:
        due = start + paused + len(setup) * seconds / max(setup_repeats, 1)
        if len(setup) < setup_repeats and time.perf_counter() >= due:
            t0 = time.perf_counter()
            setup.append(measure_setup())
            paused += time.perf_counter() - t0
        requests = make_op(workload, rng, index)
        # Pairs of traced ops alternate with pairs of untraced ones, so that
        # both halves see each request class of certify-large.
        traced = tracer is not None and (index // 2) % 2 == 1
        if traced:
            tracer.op_id = index
            tracer.install()
        try:
            outputs = execute(cli, requests)
        finally:
            if traced:
                tracer.uninstall()
        ops.append(dict(gate_op(outputs), traced=traced, warm_up=False))
        index += 1
    setup += [measure_setup() for _ in range(setup_repeats - len(setup))]
    return ops, setup


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples beyond it: (value, percentile, beyond).

    With too few samples for that, the maximum (percentile 100, none beyond).
    """
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(ops: list[dict], setup: list[float]) -> tuple[dict, list[str]]:
    timed = [op["latency_s"] for op in ops if not op["warm_up"]]
    tail_value, tail_pct, beyond = tail(timed)
    failed = sum(op["failure"] is not None for op in ops)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(timed),
        "op_tail_s": tail_value,
        "ops_per_s": len(timed) / sum(timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"setup_s      {metrics['setup_s']:.4f} s      median of {len(setup)} fresh interpreters "
        f"(min {min(setup):.4f}, max {max(setup):.4f})",
        f"op_p50_s     {metrics['op_p50_s']:.4f} s      median over {len(timed)} ops",
        f"op_tail_s    {tail_value:.4f} s      p{tail_pct:.1f} over {len(timed)} ops, "
        f"{beyond} beyond it",
        f"ops_per_s    {metrics['ops_per_s']:.4f} 1/s    ops over time spent in ops",
        f"failed_ratio {failed / len(ops):.4f} ratio  {failed} of {len(ops)} ops failed a gate",
        f"peak_rss_mb  {metrics['peak_rss_mb']:.2f} MB    peak resident memory of this process",
    ]
    return metrics, notes


def per_layer(ops: list[dict], tracer) -> tuple[dict, list[str], dict]:
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"] and not op["warm_up"]]
    summary = summarize(tracer, len(traced))
    metrics = summary["metrics"]
    traced_p50 = statistics.median(op["latency_s"] for op in traced)
    untraced_p50 = statistics.median(op["latency_s"] for op in untraced)
    checks_run = sum(op["checks_run"] for op in traced)
    metrics["trace.overhead_s"] = traced_p50 - untraced_p50
    metrics["cli.bytes_out"] = sum(op["bytes_out"] for op in traced) / len(traced)
    metrics["certify.checks_run"] = checks_run / len(traced)
    # With no certify request in the workload nothing ran, and the ratio is 0.
    metrics["certify.checks_passed_ratio"] = (
        sum(op["checks_passed"] for op in traced) / checks_run if checks_run else 0.0)

    mean_op = sum(op["latency_s"] for op in traced) / len(traced)
    layered = sorted(((metrics[name], name) for name in LAYERS), reverse=True)
    notes = [f"traced ops {len(traced)}, untraced ops {len(untraced)}; "
             f"op p50 traced {traced_p50:.4f} s, untraced {untraced_p50:.4f} s, "
             f"overhead {metrics['trace.overhead_s']:+.4f} s; mean traced op {mean_op:.4f} s",
             "layer self time per op (share of the mean traced op):"]
    notes += [f"  {name:32s} {value:.4f} s  {100 * value / mean_op:5.1f}%" for value, name in layered]
    unattributed = mean_op - sum(value for value, _ in layered)
    notes.append(f"  {'(cli.main and glue, unattributed)':32s} {unattributed:.4f} s  "
                 f"{100 * unattributed / mean_op:5.1f}%")
    notes.append("kernels and counts per op:")
    notes += [f"  {name:32s} {value:.6g}" for name, value in metrics.items() if name not in LAYERS]
    return metrics, notes, summary["functions"]


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail(f"cannot read {SPEC.name}: {exc}")
    robwit = import_robwit()

    env = environment()
    tracer = Tracer(robwit) if args.trace else None
    ops, setup = run_ops(args.workload, args.seed, args.seconds, robwit.cli, tracer,
                         setup_repeats=0 if args.trace else SETUP_REPEATS)

    failures = [op["failure"] for op in ops if op["failure"]]
    functions = None
    if args.trace:
        metrics, notes, functions = per_layer(ops, tracer)
        listed = spec["per_layer"]
    else:
        metrics, notes = end_to_end(ops, setup)
        listed = spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        fail(f"metrics listed in {SPEC.name} but not measured: {', '.join(missing)}")
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  environment=env, setup_s=setup, failures=failures[:20],
                  ops=[{k: op[k] for k in ("latency_s", "traced", "bytes_out", "requests")} for op in ops],
                  all_metrics=metrics, functions=functions)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.npz")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for line in notes:
        print(line)
    for failure in failures[:5]:
        print(f"FAILED {failure}")
    print(f"record {OUT.relative_to(ROOT) / stem}.json")
    print(json.dumps(result))
    return 0
