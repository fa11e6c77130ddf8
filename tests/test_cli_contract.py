"""The CLI's exit-code contract as a property of every request.

Each drawn request runs through ``cli.main`` in process, with warnings as errors and
stdout and stderr captured.  The oracle: no exception but argparse's ``SystemExit``
leaves ``main``; the code is 0, 1 or 2, and 1 only from ``certify``; on exit 2,
stdout is empty, stderr holds no "Traceback" and no message passed through from
Python or numpy, and its last line is its one ``error:`` line; on exit 0 or 1,
stderr is empty, and with ``--out-path`` stdout is empty and the file is not.  Only
argparse's own syntax errors carry its usage lines: every other exit 2, a memory
refusal included, is one ``error:`` line.
"""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robwit import certify, cli, maps

# Physical memory as the guard reads it here: N = 3 with a curve of 20 points fits, and no N above 3 does
MEMORY = cli.PEAK_W_ARRAYS * 16 * 12 ** 4 + cli.PEAK_POINT_BYTES * 20

BASES = {"sigma_y": maps.SIGMA_Y, "i2": np.eye(2), "i4": np.eye(4), "i2-sigma_y": np.kron(np.eye(2), maps.SIGMA_Y)}
SCALES = {"0": 0.0, "5e-324": 5e-324, "1": 1.0, "1e154": 1e154, "1.5e154": 1.5e154, "1e200": 1e200,
          "1e308": 1e308, "inf": np.inf, "nan": np.nan}
SIGMA_Y_TEXT = json.dumps(cli.matrix_to_payload(maps.SIGMA_Y))

# Matrix files by name; "dir" is the directory that holds them and "missing" names no file
PAYLOADS = {
    "int400": SIGMA_Y_TEXT.replace("[0.0, 1.0]", f"[0, {10 ** 400}]"),  # a Python int past float range
    "bool": SIGMA_Y_TEXT.replace("[0.0, 1.0]", "[0, true]"),
    "string-entry": SIGMA_Y_TEXT.replace("[0.0, 1.0]", '["0", "1"]'),
    "string-pair": SIGMA_Y_TEXT.replace("[0.0, 1.0]", '"01"'),
    "ragged": json.dumps({"d": 2, "rows": [[[0, 0]], [[0, 1], [0, 0]]]}),
    "wrong-d": SIGMA_Y_TEXT.replace('"d": 2', '"d": 3'),
    "missing-rows": json.dumps({"d": 2}),
    "missing-d": json.dumps({"rows": cli.matrix_to_payload(maps.SIGMA_Y)["rows"]}),
    "deep": "[" * 100_000 + "]" * 100_000,
}
with np.errstate(invalid="ignore"):  # 0 * inf is NaN, as the file should hold
    PAYLOADS |= {f"{base}*{scale}": json.dumps(cli.matrix_to_payload(value * matrix))
                 for base, matrix in BASES.items() for scale, value in SCALES.items()}
FILES = [*PAYLOADS, "invalid-utf8", "dir", "missing"]
# Valid matrix files, so that file inputs reach exit 0 and 1 too: U at N = 1 and 2, and V at N = 1
VALID = {"u-n1": maps.random_antisymmetric_unitary(1, 5), "u-n2": maps.random_antisymmetric_unitary(2, 5),
         "v-n1": maps.random_unitary(4, 1)}
PAYLOADS |= {name: json.dumps(cli.matrix_to_payload(matrix)) for name, matrix in VALID.items()}

OUTPUTS = {"build": ["json", "text"], "certify": ["text", "json"], "curve": ["csv", "text"], "spectrum": ["csv", "text"]}
# Wording of Python's and numpy's own exceptions, each of which once reached stderr as the error line
FOREIGN = ["invalid literal for int()", "set_int_max_str_digits", "expected non-negative integer",
           "could not convert string to float"]
OUT, OUT_DIR = "<out>", "<dir>"  # stand for the --out-path file and for a directory

# The valid values of each part of a request.  Every --tol check may be set to 0, which fails most checks: exit 1
VALID_N = ["1"] * 5 + ["2"] * 2 + ["3"]
VALID_SEEDS = ["seed:0", "seed:3", "seed:" + str(10 ** 30)]
VALID_POINTS = ["1", "11", "20"]
VALID_TOLS = ["spectrum=1e-3", "spa-threshold=1e-15", *(f"{check}=0" for check in certify.SUITE_CHECKS)]
# Invalid values of each part, each a usage error (exit 2), but for the few unitary matrices among the FILES
BAD_N = ["0", "-1", "1.5", "4", "1" + "0" * 19]  # N = 4 and up exceed MEMORY
BAD_SPECS = ["bogus", *(f"seed:{seed}" for seed in ("-1", "1.5", "", "abc", "9" * 5000)), *(f"file:{f}" for f in FILES)]
BAD_POINTS = ["0", "-1", "10000000000000"]
BAD_TOLS = ["spectrum=abc", "spectrum=-1", "spectrum=nan", "bogus=1", "spectrum"]


# Per command, (option, value) pairs that make a request invalid; the value None drops one of V1 and V2
INVALID = {command: [
    *(("--n", n) for n in BAD_N),
    *((option, spec) for option in ("--u", "--v1", "--v2") for spec in BAD_SPECS),
    *(("--v1", spec) for spec in ("file:u-n1", "file:u-n2", *(["seed:7"] if command == "curve" else []))),  # V1 != V2
    ("--v1", None), ("--v2", None),
    *(("--output", out) for outputs in OUTPUTS.values() for out in outputs if out not in OUTPUTS[command]),
    *(("--points", points) for points in (BAD_POINTS if command == "curve" else VALID_POINTS)),
    *(("--tol", [tol]) for tol in (BAD_TOLS if command == "certify" else VALID_TOLS)),
    ("--out-path", ""), ("--out-path", OUT_DIR),
] for command in OUTPUTS}


@st.composite
def requests(draw):
    """A command line: a valid request, in most draws with one or two of its parts made invalid.

    The valid parts fit one another: a U file of the request's N, V files at N = 1 only, and for
    ``curve`` V1 = V2.
    """
    command = draw(st.sampled_from(list(OUTPUTS)))
    n = draw(st.sampled_from(VALID_N))
    options = {"--n": n}
    if draw(st.booleans()):
        options["--u"] = draw(st.sampled_from(["canonical", *VALID_SEEDS, *([f"file:u-n{n}"] * 2 if n != "3" else [])]))
    if draw(st.booleans()):
        v_specs = [*VALID_SEEDS, *(["file:v-n1"] * 2 if n == "1" else [])]
        v1 = draw(st.sampled_from(v_specs))
        options |= {"--v1": v1, "--v2": v1 if command == "curve" else draw(st.sampled_from(v_specs))}
    if draw(st.booleans()):
        options["--output"] = draw(st.sampled_from(OUTPUTS[command]))
    if command == "curve" and draw(st.booleans()):
        options["--points"] = draw(st.sampled_from(VALID_POINTS))
    if command == "certify" and draw(st.booleans()):
        options["--tol"] = draw(st.lists(st.sampled_from(VALID_TOLS), min_size=1, max_size=2))
    if draw(st.integers(0, 3)) == 0:
        options["--out-path"] = OUT
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        option, value = draw(st.sampled_from(INVALID[command]))
        if value is not None:
            options[option] = value
        elif "--v1" in options:  # only one of V1 and V2 is given
            del options[option]
        else:
            options[option] = "seed:1"
    argv = [command]
    for option, value in options.items():
        for one in value if isinstance(value, list) else [value]:
            argv += [option, one]
    return argv


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The matrix files' directory; physical memory reads as ``MEMORY`` while the module's tests run."""
    folder = tmp_path_factory.mktemp("payloads")
    for name, text in PAYLOADS.items():
        (folder / name).write_text(text, encoding="utf-8")
    (folder / "invalid-utf8").write_bytes(b'{"d": 2, "rows": "\xff\xfe"}')
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli.os, "sysconf", {"SC_PHYS_PAGES": MEMORY, "SC_PAGE_SIZE": 1}.__getitem__)
        yield folder


def answer(argv):
    """(code, stdout, stderr, exited) of ``cli.main(argv)``, with every warning raised as an error."""
    out, err = io.StringIO(), io.StringIO()
    exited = False
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code, exited = exc.code, True
    return code, out.getvalue(), err.getvalue(), exited


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=requests())
@example(argv=["build", "--n", "1", "--u", "file:int400"])
@example(argv=["curve", "--n", "1", "--v1", "file:int400", "--v2", "seed:2"])
@example(argv=["certify", "--n", "1" + "0" * 19])
@example(argv=["spectrum", "--n", "4"])
@example(argv=["curve", "--n", "3", "--points", "21"])
@example(argv=["curve", "--n", "1", "--points", "10000000000000"])
@example(argv=["certify", "--n", "1", "--u", "file:u-n1", "--v1", "file:v-n1", "--v2", "file:v-n1", "--out-path", OUT])
@example(argv=["certify", "--n", "2", "--u", "file:u-n2", "--tol", "spa-threshold=1e-15", "--out-path", OUT])
@example(argv=["build", "--n", "1", "--u", "seed:abc"])
@example(argv=["certify", "--n", "1", "--u", "seed:-1"])
@example(argv=["spectrum", "--n", "1", "--v1", "seed:", "--v2", "seed:2"])
@example(argv=["curve", "--n", "1", "--v1", "seed:1.5", "--v2", "seed:1"])
@example(argv=["build", "--n", "2", "--v1", "seed:1", "--v2", "seed:" + "9" * 5000])
@example(argv=["curve", "--n", "1", "--points", "2", "--out-path", ""])
def test_every_request_keeps_the_exit_code_contract(files, argv):
    paths = {"dir": files, "missing": files / "missing"}
    argv = [f"file:{paths.get(a[5:], files / a[5:])}" if a.startswith("file:") else a for a in argv]
    out_path = files / "out"
    out_path.unlink(missing_ok=True)
    argv = [{OUT: str(out_path), OUT_DIR: str(files)}.get(a, a) for a in argv]
    code, out, err, exited = answer(argv)
    assert code in (0, 1, 2), code
    if code == 1:
        assert argv[0] == "certify"
    if code != 2:
        assert err == ""
        if "--out-path" in argv:  # the output went to the file alone
            assert out == "" and out_path.stat().st_size > 0
        return
    lines = err.splitlines()
    assert out == "" and "Traceback" not in err
    assert not any(text in err for text in FOREIGN), err
    assert lines and [line for line in lines if "error:" in line] == lines[-1:], err
    if not exited or "physical memory" in err:  # a refusal or a bad input: one line, without argparse's usage
        assert len(lines) == 1 and lines[0].startswith("error: "), err
