"""README's Library example runs as written and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_detects_its_ppt_state_and_passes_the_eight_checks(capsys):
    code = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    detected, *reports = capsys.readouterr().out.splitlines()
    assert abs(float(detected) + 1 / 9216) <= 1e-15
    assert len(reports) == 8 and all(line.startswith("[PASS] ") for line in reports)
