"""The CLI's exit-code contract as a property of every request.

Each drawn request runs through ``cli.main`` in process, with warnings as errors and
stdout and stderr captured.  The oracle: no exception but argparse's ``SystemExit``
leaves ``main``; the code is 0, 1 or 2, and 1 only from ``certify``; on exit 2,
stdout is empty, stderr holds no "Traceback" and its last line is its one ``error:``
line; on exit 0 or 1, stderr is empty.  Only argparse's own syntax errors carry its
usage lines: every other exit 2, a memory refusal included, is one ``error:`` line.
"""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robwit import cli, maps

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
    "deep": "[" * 100_000 + "]" * 100_000,
}
with np.errstate(invalid="ignore"):  # 0 * inf is NaN, as the file should hold
    PAYLOADS |= {f"{base}*{scale}": json.dumps(cli.matrix_to_payload(value * matrix))
                 for base, matrix in BASES.items() for scale, value in SCALES.items()}
FILES = [*PAYLOADS, "invalid-utf8", "dir", "missing"]

SEEDS = ["0", "3", "-1", str(10 ** 30), "1.5", "", "abc", "9" * 5000]
SPECS = st.one_of(st.just("canonical"), st.sampled_from(SEEDS).map("seed:".__add__),
                  st.sampled_from(FILES).map("file:".__add__))
OUTPUTS = {"build": ["json", "text"], "certify": ["text", "json"], "curve": ["csv", "text"], "spectrum": ["csv", "text"]}
POINTS = ["1", "11", "20", "0", "10000000000000"]
TOLS = ["spectrum=1e-3", "spa-threshold=1e-15", "positivity=0", "spectrum=abc", "spectrum=-1", "spectrum=nan",
        "bogus=1", "spectrum"]


@st.composite
def requests(draw):
    """A command line, mostly of options its subcommand takes, each drawn from valid and invalid values alike."""
    command = draw(st.sampled_from(list(OUTPUTS)))
    argv = [command, "--n", draw(st.sampled_from(["1"] * 4 + ["2"] * 3 + ["3"] * 2 + ["0", "-1", "1.5", "1" + "0" * 19]))]
    if draw(st.booleans()):
        argv += ["--u", draw(SPECS)]
    v1, v2 = draw(SPECS), draw(SPECS)
    argv += draw(st.sampled_from([[], [], ["--v1", v1, "--v2", v2], ["--v1", v1, "--v2", v1], ["--v1", v1], ["--v2", v2]]))
    if draw(st.booleans()):
        argv += ["--output", draw(st.sampled_from(OUTPUTS[command] * 3 + ["json", "csv"]))]
    # --points and --tol, mostly with the one subcommand that takes each, and now and then with another
    if draw(st.integers(0, 9)) < (6 if command == "curve" else 1):
        argv += ["--points", draw(st.sampled_from(POINTS))]
    if draw(st.integers(0, 9)) < (6 if command == "certify" else 1):
        for entry in draw(st.lists(st.sampled_from(TOLS), min_size=1, max_size=2)):
            argv += ["--tol", entry]
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
def test_every_request_keeps_the_exit_code_contract(files, argv):
    paths = {"dir": files, "missing": files / "missing"}
    argv = [f"file:{paths.get(a[5:], files / a[5:])}" if a.startswith("file:") else a for a in argv]
    code, out, err, exited = answer(argv)
    assert code in (0, 1, 2), code
    if code == 1:
        assert argv[0] == "certify"
    if code != 2:
        assert err == ""
        return
    lines = err.splitlines()
    assert out == "" and "Traceback" not in err
    assert lines and [line for line in lines if "error:" in line] == lines[-1:], err
    if not exited or "physical memory" in err:  # a refusal or a bad input: one line, without argparse's usage
        assert len(lines) == 1 and lines[0].startswith("error: "), err
