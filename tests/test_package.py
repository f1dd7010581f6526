import importlib
from pathlib import Path

import pytest

import aoi_multicast

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("module", ["analytic", "optimize", "orderstats", "sim"])
def test_package_reexports_each_module_all(module):
    mod = importlib.import_module(f"aoi_multicast.{module}")
    for name in mod.__all__:
        assert getattr(aoi_multicast, name) is getattr(mod, name), name


def test_readme_library_example_runs(capsys):
    example = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(example, str(README), "exec"), scope)
    age_line, result_line = capsys.readouterr().out.splitlines()
    assert float(age_line) == aoi_multicast.age(scope["s"], aoi_multicast.Stream.TYPE_I)
    assert result_line.startswith("SimResult(age_I_hat=")
