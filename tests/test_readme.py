"""README command-line examples print what the README says they print,
and the README's dpsgd-audit config uses only keys the CLI accepts."""

import pathlib
import re
import shlex

import pytest

from dpaudit import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """(argv, stdout) of each `dpaudit ...` line followed by `# -> X`."""
    lines = README.read_text(encoding="utf-8").splitlines()
    return [(shlex.split(line)[1:], nxt.strip()[len("# -> "):])
            for line, nxt in zip(lines, lines[1:])
            if line.startswith("dpaudit ") and nxt.strip().startswith("# -> ")]


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 2


@pytest.mark.parametrize("argv, expected", EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_readme_example_output(argv, expected, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.strip() == expected


def test_readme_config_keys_are_known():
    block = README.read_text(encoding="utf-8").split("```ini\n", 1)[1]
    block = block.split("```", 1)[0]
    keys = re.findall(r"^#?\s*(\w+)\s*=", block, flags=re.MULTILINE)
    required = [key for key, (_, default) in cli._DPSGD_KEYS.items()
                if default is cli._REQUIRED]
    assert [k for k in required if k not in keys] == []
    assert [k for k in keys if k not in cli._DPSGD_KEYS] == []
