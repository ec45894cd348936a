"""The README's Python examples run as written, its version floors are
pyproject.toml's, and its CLI examples and exit codes are the CLI's."""

import re
import shlex
from pathlib import Path

import pytest

from loopless import cli

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


def test_readme_cli_examples_parse():
    """Every `loopless ...` line of a bash block, continuations joined, is
    a command the parser accepts, and every subcommand has one."""
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL)
    commands = [shlex.split(line)[1:] for block in blocks
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("loopless ")]
    parser = cli.build_parser()
    seen = set()
    for argv in commands:
        try:
            seen.add(parser.parse_args(argv).command)
        except SystemExit:
            pytest.fail(f"the parser rejects the README's `loopless {shlex.join(argv)}`")
    subcommands = re.search(r"\{(.+?)\}", parser.format_usage()).group(1).split(",")
    assert seen == set(subcommands)


def test_readme_exit_codes_are_the_clis():
    rows = re.findall(r"^\| (\d+) \| `(EXIT_\w+)` \|", README.read_text(encoding="utf-8"),
                      flags=re.M)
    listed = {name: int(code) for code, name in rows}
    assert len(listed) == len(rows)
    assert listed == {name: value for name, value in vars(cli).items()
                      if name.startswith("EXIT_")}
