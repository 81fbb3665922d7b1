"""The README's library example runs as written."""

import contextlib
import io
import math
import re
from pathlib import Path

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    # The one python block under "## Library quick start": an API change that breaks it fails here.
    section = _README.read_text().split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    [code] = re.findall(r"```python\n(.*?)```", section, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, f"{_README}:quick start", "exec"), {})
    mean_thrust = float(out.getvalue())  # the block prints one number, which the text after it quotes
    assert math.isfinite(mean_thrust) and f"{mean_thrust:.4f} N" in section
