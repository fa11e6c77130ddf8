"""Command-line front end: build witnesses, certify families, emit tables.

Subcommands: ``build`` (serialize a Choi witness), ``certify`` (run the
eight-check suite, exit 0 only if everything passes), ``curve`` (isotropic
detection curve as CSV) and ``spectrum`` (computed vs expected Choi
eigenvalues).  Exit codes: 0 all good, 1 a certification check failed,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from . import certify, maps, witnesses
from .linalg import CONSTRUCTION_TOL

# Peak memory of a command in W-sized (16 (4N)^4-byte) arrays: the tracemalloc peak of a fresh
# process over every subcommand at N = 3..5, plain and conjugated, is highest for `certify`, which
# also holds the shared base W(U0), its own W_p and its pull-back: 13.2 / 8.4 / 7.9 at N = 3 / 4 / 5.
# A conjugated `build --output json` peaks at 9.7 / 7.8 / 7.3 (a plain one at 5.2), `spectrum` at 7.4,
# and `curve` with V1 = V2 at 7.3 / 5.1 / 4.5.
PEAK_W_ARRAYS = 14

# Peak memory of `curve` per --points row (its columns as floats, the row lines and the CSV text): the
# tracemalloc peak of `curve --n 1` over the points is 334 / 335 B at 1e5 / 3e5 points.
PEAK_POINT_BYTES = 400


def matrix_to_payload(m: np.ndarray) -> dict:
    """JSON form of a dense complex matrix: {d, rows} with [re, im] entries."""
    m = np.asarray(m, dtype=complex)
    return {
        "d": int(m.shape[0]),
        "rows": np.stack([m.real, m.imag], -1).tolist(),
    }


def matrix_from_payload(obj: dict) -> np.ndarray:
    try:
        d = obj["d"]
        if type(d) is not int:  # a float such as 2.5 or 1e400 is no dimension, nor is a bool
            raise TypeError(f"d must be an integer, got {d!r}")
        m = np.array([[complex(re, im) for re, im in row] for row in obj["rows"]])
        if any(type(x) is bool for row in obj["rows"] for entry in row for x in entry):  # complex() takes true as 1
            raise TypeError("an entry [re, im] must hold numbers, got a bool")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # complex() of an int past float range overflows
        raise ValueError(f"malformed matrix payload, expected {{d, rows: [[[re, im], ...], ...]}}: {exc}") from None
    if m.shape != (d, d):
        raise ValueError(f"matrix payload claims d={d} but rows disagree")
    if not np.isfinite(m).all():
        raise ValueError("malformed matrix payload: every entry must be finite")
    return m


def load_matrix_file(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return matrix_from_payload(json.load(handle))
        except RecursionError:  # json's decoder recurses once per nested array or object
            raise ValueError("malformed matrix payload: nested too deeply to decode") from None


def read_seed(spec: str, option: str) -> int:
    """The seed of a ``seed:<int>`` spec as ``int()`` reads it; one that is no non-negative integer is a usage error."""
    with contextlib.suppress(ValueError):  # no integer, or one of more digits than int() reads from text
        if (seed := int(spec.split(":", 1)[1])) >= 0:
            return seed
    raise ValueError(f"{option} seed must be a non-negative integer")


def resolve_u(spec: str, n: int) -> np.ndarray:
    if spec == "canonical":
        return maps.canonical_u0(n)
    if spec.startswith("seed:"):
        return maps.random_antisymmetric_unitary(n, read_seed(spec, "--u"))
    if spec.startswith("file:"):
        return load_matrix_file(spec.split(":", 1)[1])  # maps.phi_u validates it
    raise ValueError(f"unrecognized U spec {spec!r}; use canonical, seed:<int> or file:<path>")


def resolve_v(spec: str, d: int, name: str) -> np.ndarray:
    if spec.startswith("seed:"):
        return maps.random_unitary(d, read_seed(spec, f"--{name.lower()}"))
    if spec.startswith("file:"):
        return load_matrix_file(spec.split(":", 1)[1])  # maps.conjugated_phi validates it
    raise ValueError(f"unrecognized {name} spec {spec!r}; use seed:<int> or file:<path>")


def parse_tolerances(entries: list[str] | None) -> dict[str, float]:
    overrides: dict[str, float] = {}
    for entry in entries or []:
        if "=" not in entry:
            raise ValueError(f"--tol expects <check>=<value>, got {entry!r}")
        name, raw = entry.split("=", 1)  # certify.run_full_suite checks the name
        try:
            value = float(raw)
        except ValueError:  # no number: rejected below, in the same one line
            value = math.nan
        if not (np.isfinite(value) and value >= 0):
            raise ValueError(f"--tol {name} must be a finite non-negative number, got {raw!r}")
        overrides[name] = value
    return overrides


def to_json(payload: dict) -> str:
    """Compact, key-sorted JSON, the one format of `build` and `certify --output json`.

    Floats keep their shortest round-trip repr, so `matrix_from_payload` recovers a
    matrix bit for bit.  `build` writes its matrix through `json_chunks` instead.
    """
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


# json writes a non-finite float under these names, and every finite one as float.__repr__ does
JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity"}

# Distinct doubles formatted per batch: strings for all of them at once would outweigh W several times
REPR_BATCH = 4096


def json_chunks(members: dict, matrix: np.ndarray) -> Iterator[str]:
    """``to_json({**members, **matrix_to_payload(matrix)})``, byte for byte, yielded row by row.

    No list of entries is built.  The interleaved (re, im) doubles are deduplicated by
    magnitude, and each distinct magnitude is formatted once, into a fixed-width byte
    string.  As repr(-x) is "-" + repr(x) for every double, -inf included, a second
    table holds each text with a "-" in front, and a double whose sign bit is set reads
    from it: so -0.0 and 0.0 stay apart, and a NaN, which json writes NaN whatever its
    sign, reads from the first.  An exactly Hermitian D x D matrix, as ``Choi.matrix``
    is, has at most D^2 + 1 distinct magnitudes.  Zero, most of a plain W_p, is no
    member of the sort: it is entry 0 of the tables.  A row's text is joined from the
    tables.  The other members are encoded by `json`.
    """
    doubles = np.ascontiguousarray(matrix, dtype=complex).view(np.float64)
    d = doubles.shape[0]
    members = {**members, "d": d}
    head = to_json({key: value for key, value in members.items() if key < "rows"})[1:-1]
    tail = to_json({key: value for key, value in members.items() if key > "rows"})[1:-1]
    yield "{" + head + ',"rows":['
    magnitudes = np.abs(doubles)
    negative = np.signbit(doubles) & ~np.isnan(doubles)
    del matrix, doubles  # a caller's temporary W is freed before the sort
    nonzero = magnitudes != 0  # a NaN is nonzero
    magnitudes = magnitudes[nonzero]  # only these are sorted: index 0 of the table is the magnitude 0.0
    values, found = np.unique(magnitudes, return_inverse=True)
    del magnitudes
    values = np.concatenate(([0.0], values))
    inverse = np.zeros(nonzero.shape, dtype=np.intp)
    found += 1
    inverse[nonzero] = found
    del found
    np.add(inverse, len(values), out=inverse, where=negative)
    texts = np.empty(2 * len(values), dtype="S24")  # a repr has at most 24 characters: -2.2250738585072014e-308
    plus = texts[:len(values)]  # the texts of the magnitudes; the rest, of their negatives
    for start in range(0, len(values), REPR_BATCH):
        plus[start:start + REPR_BATCH] = list(map(float.__repr__, values[start:start + REPR_BATCH].tolist()))
    for i in np.flatnonzero(~np.isfinite(values)):
        plus[i] = JSON_NONFINITE[float.__repr__(values[i])]
    minus = texts[len(values):].view(np.uint8).reshape(-1, 24)
    minus[:, 0] = ord("-")
    minus[:, 1:] = plus.view(np.uint8).reshape(-1, 24)[:, :-1]  # drops padding: a magnitude's text is <= 23 long
    frame = [b"],["] * (4 * d + 1)  # [[re,im],[re,im],...,[re,im]] with the doubles at 1::2
    frame[2::4] = [b","] * d
    frame[0], frame[-1] = b"[[", b"]]"
    for row in inverse:
        frame[1::2] = texts[row].tolist()  # tolist drops each string's padding
        yield b"".join(frame).decode()
        frame[0] = b",[["
    yield "]" + ("," if tail else "") + tail + "}"


def emit(text: str | Iterable[str], out_path: str | None) -> None:
    """Write the text, whole or in chunks, to the file ``out_path``, or without one to stdout ending in a newline.

    Any given path is a path: an empty one names no file and raises, as ``open`` does.  Chunks
    from a generator are made as they are written, so the whole text is never held.
    """
    chunks = (text,) if isinstance(text, str) else text
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        return
    last = ""
    for chunk in chunks:
        sys.stdout.write(chunk)
        last = chunk
    if not last.endswith("\n"):
        sys.stdout.write("\n")


def csv_table(header: list[str], rows: Iterable[tuple]) -> str:
    """The rows under ``header`` as CSV, each number written as ``{:.17g}`` (an integer as itself)."""
    line = ",".join(["{:.17g}"] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join(line.format(*row) for row in rows)


def emit_table(args, header: list[str], text_line: str, *columns: np.ndarray) -> int:
    """Write the columns, row by row, as ``csv_table`` or each row through the format ``text_line``."""
    rows = zip(*(column.tolist() for column in columns))
    if args.output == "csv":
        emit(csv_table(header, rows), args.out_path)
    else:
        emit("".join(text_line.format(*row) + "\n" for row in rows), args.out_path)
    return 0


def resolve_map(args) -> maps.MapDescriptor:
    """The plain or conjugated PhiU map named by --n, --u and the optional --v1/--v2 pair."""
    u = resolve_u(args.u, args.n)
    if (args.v1 is None) != (args.v2 is None):
        raise ValueError("--v1 and --v2 must be supplied together")
    if args.v1 is None:
        return maps.phi_u(args.n, u)
    d = 4 * args.n
    return maps.conjugated_phi(args.n, u, resolve_v(args.v1, d, "V1"), resolve_v(args.v2, d, "V2"))


def cmd_build(args, m: maps.MapDescriptor) -> int:
    if args.output == "json":
        payload = {"family": m.family, "n": args.n, "u": args.u}
        if args.v1 is not None:
            payload["v1"] = args.v1
            payload["v2"] = args.v2
        emit(json_chunks(payload, witnesses.choi(m).matrix), args.out_path)  # W_p is freed before encoding
    else:
        w = witnesses.choi(m)
        lines = [
            f"family: {w.source.family}",
            f"n: {args.n}",
            f"system: C^{w.d} (x) C^{w.d}, Choi matrix {w.d ** 2} x {w.d ** 2}",
            f"trace: {np.trace(w.matrix).real:.12g}",
            f"min eigenvalue: {w.spectrum[0]:.12g}",
        ]
        emit("\n".join(lines) + "\n", args.out_path)
    return 0


def cmd_certify(args, m: maps.MapDescriptor) -> int:
    reports = certify.run_full_suite(m, tolerances=parse_tolerances(args.tol))
    all_pass = all(r.passed for r in reports)
    verdict = "pass" if all_pass else "fail"

    if args.output == "json":
        payload = {
            "family": m.family,
            "n": args.n,
            "d": 4 * args.n,
            "checks": [r.to_dict() for r in reports],
            "verdict": verdict,
        }
        emit(to_json(payload), args.out_path)
    else:
        lines = [str(r) for r in reports]
        passed = sum(r.passed for r in reports)
        lines.append(f"verdict: {verdict} ({passed}/{len(reports)} checks passed)")
        emit("\n".join(lines) + "\n", args.out_path)
    return 0 if all_pass else 1


def cmd_curve(args, m: maps.MapDescriptor) -> int:
    # Tr(W rho_lam) is the closed form only when the conjugation V1^dagger (.) V1 after
    # V2 (.) V2^dagger leaves the isotropic states invariant, i.e. V1 = V2
    gap = float(np.max(np.abs(m.v1 - m.v2))) if m.family == "ConjugatedPhiU" else 0.0
    if gap > CONSTRUCTION_TOL:
        raise ValueError(f"curve needs V1 = V2 for its closed_form column to hold, got max|V1 - V2| = {gap:.3e}")
    g0, g1 = witnesses.choi(m).detection_line
    lam = np.linspace(0.0, 1.0, args.points)
    closed = certify.isotropic_detection_value(args.n, lam)
    numeric = (1.0 - lam) * g0 + lam * g1
    return emit_table(args, ["lambda", "closed_form", "numeric", "abs_difference"],
                      "lambda={:.4f} closed={:+.12f} numeric={:+.12f} diff={:.2e}",
                      lam, closed, numeric, np.abs(closed - numeric))


def cmd_spectrum(args, m: maps.MapDescriptor) -> int:
    computed = witnesses.choi(m).spectrum
    expected = witnesses.expected_spectrum_sorted(args.n)
    return emit_table(args, ["index", "computed", "expected", "abs_difference"],
                      "{:4d}  computed={:+.12f}  expected={:+.12f}  diff={:.2e}",
                      np.arange(len(computed)), computed, expected, np.abs(computed - expected))


def positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {raw}")
    return value


def peak_estimate(args) -> tuple[int, str]:
    """Estimated peak memory in bytes of the parsed request, and the request as a refusal names it.

    ``PEAK_W_ARRAYS`` W-sized arrays at N, plus ``PEAK_POINT_BYTES`` a point for ``curve``, which
    holds W and its table at once.
    """
    need, what = PEAK_W_ARRAYS * 16 * (4 * args.n) ** 4, f"N={args.n}"
    if args.command == "curve":
        return need + PEAK_POINT_BYTES * args.points, f"{what} with a curve of {args.points} points"
    return need, what


def require_memory(args) -> None:
    """Reject, as a usage error, a request whose estimated peak memory exceeds physical memory."""
    need, what = peak_estimate(args)
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:  # need / 1e9 overflows a float from N ~ 1e76 on; its logarithm does not
        exponent, mantissa = divmod(math.log10(need) - 9, 1)
        raise ValueError(f"{what} needs an estimated {10 ** mantissa:.3f}e{exponent:+.0f} GB, "
                         f"more than the {have / 1e9:.1f} GB of physical memory")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robwit",
        description="Generalized Robertson maps, their entanglement witnesses, and certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, outputs):
        p.add_argument("--n", type=positive_int, required=True, help="family size parameter N (dimension 4N)")
        p.add_argument("--u", type=str, default="canonical",
                       help="U spec: canonical, seed:<int> or file:<path>")
        p.add_argument("--v1", type=str, default=None, help="optional V1 spec: seed:<int> or file:<path>")
        p.add_argument("--v2", type=str, default=None, help="optional V2 spec: seed:<int> or file:<path>")
        p.add_argument("--output", choices=outputs, default=outputs[0],
                       help=f"output format (default {outputs[0]})")
        p.add_argument("--out-path", type=str, default=None, help="write output to this file instead of stdout")

    build_cmd = sub.add_parser("build", help="construct a witness and serialize it")
    common(build_cmd, ("json", "text"))
    build_cmd.set_defaults(func=cmd_build)

    certify_cmd = sub.add_parser("certify", help="run the full certification suite")
    common(certify_cmd, ("text", "json"))
    certify_cmd.add_argument("--tol", action="append", default=None, metavar="CHECK=VALUE",
                             help="override one check tolerance, repeatable")
    certify_cmd.set_defaults(func=cmd_certify)

    curve_cmd = sub.add_parser("curve", help="isotropic detection curve, closed form vs numeric")
    common(curve_cmd, ("csv", "text"))
    curve_cmd.add_argument("--points", type=positive_int, default=11, help="number of lambda grid points on [0, 1]")
    curve_cmd.set_defaults(func=cmd_curve)

    spectrum_cmd = sub.add_parser("spectrum", help="computed vs expected Choi eigenvalues")
    common(spectrum_cmd, ("csv", "text"))
    spectrum_cmd.set_defaults(func=cmd_spectrum)

    return parser


# The parser of ``main``, built on its first call and reused: ``parse_args`` leaves it unchanged
_parser = functools.cache(make_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        require_memory(args)  # before anything is built: a refused request allocates nothing
        return args.func(args, resolve_map(args))
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
