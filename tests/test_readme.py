"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_prints_its_commented_values():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n+```python\n(.*?)```", text, re.S).group(1)
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, namespace)
    assert str(namespace["I"]) == "(t2*t3, t1*t2^2)"
    report = namespace["report"]  # t1*t2^2*t3 is in I^(2) \ I^2
    assert report.symbolic_min.contains((1, 2, 1)) and not report.ordinary.contains((1, 2, 1))
    assert out.getvalue() == (
        "(t2) ^ (t1, t3) ^ (t2^2, t3)\n"
        "False\n"
        "(2,)\n"
        "1 False\n"
        "2 False\n"
        "3 False\n"
    )
