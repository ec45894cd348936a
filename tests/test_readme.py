"""The README's Python examples run as written, and its version floors are
pyproject.toml's."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_states_the_version_floors_of_pyproject():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    python = re.search(r'^requires-python = ">=([\d.]+)"$', pyproject, flags=re.M)
    numpy = re.search(r'^dependencies = \[.*"numpy>=([\d.]+)"', pyproject, flags=re.M)
    assert python and numpy
    stated = re.search(r"needs Python ([\d.]+) or newer and numpy ([\d.]+) or newer",
                       README.read_text(encoding="utf-8"))
    assert stated and stated.groups() == (python.group(1), numpy.group(1))
