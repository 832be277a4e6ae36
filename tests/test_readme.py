import shlex
from pathlib import Path

import pytest

from annealsolve.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
SECTION = "## Reproducing the paper's numbers"


def recipe_lines():
    """The annealsolve lines of the first fenced block under SECTION."""
    text = README.read_text()
    block = text[text.index(SECTION):].split("```")[1]
    return [line for line in block.splitlines() if line.startswith("annealsolve ")]


def test_readme_has_recipes():
    assert len(recipe_lines()) >= 5


@pytest.mark.parametrize("line", recipe_lines())
def test_readme_recipe_runs(tmp_path, monkeypatch, capsys, line):
    monkeypatch.chdir(tmp_path)
    code = main(shlex.split(line)[1:])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "Traceback" not in captured.err
