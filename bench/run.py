"""Run one robwit benchmark workload and print its metrics.

From the repository root:

    python3 bench/run.py --workload certify-small --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload certify-large --seed 1 --seconds 30 --trace 1

Each op calls ``robwit.cli.main(argv)`` in this process with stdout captured:
a closed loop, one client.  Every request's output passes a correctness gate
(see ``workloads.py``).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` wraps robwit's public functions in spans, alternates traced and
untraced ops in pairs, and prints the per-layer metrics and the tracing
overhead.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record of the
run (environment, every op latency, failures) goes to ``.bench_out/``, and
in a traced run the spans too.  The benchmark imports robwit from ``src/``
of the checkout it sits in and exits with code 2 when that is missing.
"""

import os
import sys

# The plain single-threaded baseline; at most nproc on any machine.  Set
# before numpy loads, so it holds in this process and the ones it starts.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    os.environ.update({name: str(BLAS_THREADS) for name in BLAS_ENV})
    import harness

    return harness.main()


if __name__ == "__main__":
    sys.exit(main())
