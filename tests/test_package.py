import importlib
import shlex
from pathlib import Path

import pytest

import aoi_multicast
from aoi_multicast.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(lang: str, text: str | None = None) -> str:
    """The first fenced block of the given language in the README, or the
    first one after the heading text."""
    doc = README.read_text()
    if text is not None:
        doc = doc.split(text, 1)[1]
    return doc.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("module", ["analytic", "optimize", "orderstats", "sim"])
def test_package_reexports_each_module_all(module):
    mod = importlib.import_module(f"aoi_multicast.{module}")
    for name in mod.__all__:
        assert getattr(aoi_multicast, name) is getattr(mod, name), name


def test_optimize_attribute_is_the_submodule():
    assert aoi_multicast.optimize is importlib.import_module("aoi_multicast.optimize")


def test_readme_library_example_runs(capsys):
    example = _block("python")
    scope = {}
    exec(compile(example, str(README), "exec"), scope)
    age_line, result_line = capsys.readouterr().out.splitlines()
    assert float(age_line) == aoi_multicast.age_pair(scope["s"]).age_I
    assert result_line.startswith("SimResult(age_I=")


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    (tmp_path / "scen.json").write_text(_block("json"))
    monkeypatch.chdir(tmp_path)
    lines = _block("sh", "## CLI examples").replace("\\\n", " ").splitlines()
    assert len(lines) == 7
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "aoi-multicast", line
        assert main(argv[1:]) == 0, line
