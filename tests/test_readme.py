"""README examples run as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_first_python_example_prints_its_scores():
    block = re.search(r"^```python\n(.*?)^```", README.read_text(),
                      re.DOTALL | re.MULTILINE).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, str(README), "exec"), {})
    labels, scores = zip(*(line.split() for line in
                           printed.getvalue().splitlines()))
    assert labels == ("AA", "B")
    assert [round(float(s), 6) for s in scores] == [-0.282366, -0.105361]
