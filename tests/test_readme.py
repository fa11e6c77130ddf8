"""README's Library example and CLI block run as written; the example prints what its comments say."""

import re
import shlex
from pathlib import Path

from robwit import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_detects_its_ppt_state_and_passes_the_eight_checks(capsys):
    code = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    detected, *reports = capsys.readouterr().out.splitlines()
    assert abs(float(detected) + 1 / 9216) <= 1e-15
    assert len(reports) == 8 and all(line.startswith("[PASS] ") for line in reports)


def test_cli_block_runs_as_written(tmp_path):
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("robwit ")]
    assert len(lines) == 6
    for line in lines:
        argv = [str(tmp_path / arg) if arg == "curve.csv" else arg for arg in shlex.split(line)[1:]]  # --out-path
        assert cli.main(argv) == 0, line
    assert (tmp_path / "curve.csv").read_text(encoding="utf-8").startswith("lambda,closed_form,numeric,abs_difference")
