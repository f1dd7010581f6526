import ast
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


def test_readme_library_example_imports():
    example = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    imports = [node for node in ast.parse(example).body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    exec(compile(ast.Module(body=imports, type_ignores=[]), str(README), "exec"), {})
