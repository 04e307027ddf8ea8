"""Every ``python`` example in README.md runs as written, and prints what its
``# "..."`` comments say it prints."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(index, capsys):
    block = BLOCKS[index]
    exec(compile(block, f"{README}:python block {index}", "exec"), {})
    out = capsys.readouterr().out
    assert out
    promised = re.findall(r'^print\(.*\)\s+# "(.*)"$', block, re.M)
    if promised:
        assert out.splitlines() == promised
