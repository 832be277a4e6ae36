import shlex
from pathlib import Path

import pytest

from annealsolve.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
SECTION = "## Reproducing the paper's numbers"
QUICK_START = "## Library quick start"


def _first_block(section):
    """The first fenced block under section, without its language tag."""
    text = README.read_text()
    return text[text.index(section):].split("```")[1].partition("\n")[2]


def recipe_lines():
    """The annealsolve lines of the first fenced block under SECTION."""
    return [line for line in _first_block(SECTION).splitlines() if line.startswith("annealsolve ")]


def quick_start():
    """The Python source of the first fenced block under QUICK_START."""
    return _first_block(QUICK_START)


def test_readme_has_recipes():
    assert len(recipe_lines()) >= 5


@pytest.mark.parametrize("line", recipe_lines())
def test_readme_recipe_runs(tmp_path, monkeypatch, capsys, line):
    monkeypatch.chdir(tmp_path)
    code = main(shlex.split(line)[1:])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "Traceback" not in captured.err


def test_readme_quick_start_runs(capsys):
    exec(compile(quick_start(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # the solve line (final iterate and its error) and E_max's value
    assert len(lines) == 2
    assert float(lines[0].split()[1]) <= 1e-12
    assert float(lines[1]) == pytest.approx(0.0, abs=1e-12)
