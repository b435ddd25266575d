"""The README's library example runs and prints what the README says."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example(capsys):
    expected = "1 - 2*x - 6*x^2 + 2*x^3 + 1*x^4"
    code = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    assert "# " + expected in code  # the comment the README shows
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out == expected + "\n"
