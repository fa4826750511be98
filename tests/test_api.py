"""The public surface: each module's ``__all__``, the package root, and the
README "Library" examples."""

import importlib
import inspect
import pkgutil
import re
import shutil
from pathlib import Path

import pytest

import episurv

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(episurv.__path__) if not name.startswith("_"))

README = Path(__file__).resolve().parents[1] / "README.md"
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


@pytest.mark.parametrize("name", ["episurv", *(f"episurv.{module}" for module in MODULES)])
def test_all_resolves_and_lists_every_public_definition(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    defined = {
        n for n, obj in vars(module).items()
        if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == name
    }
    assert sorted(defined - set(module.__all__)) == []


def test_package_root_exports_only_the_version():
    for module in MODULES:
        importlib.import_module(f"episurv.{module}")
    assert episurv.__all__ == ["__version__"]
    # Beside it only submodules and package data, set as they are imported.
    assert [n for n, obj in vars(episurv).items() if not n.startswith("_") and not inspect.ismodule(obj)] == []


def test_readme_library_blocks_run(annex_epi_path, annex_gisaid_path, tmp_path, monkeypatch, capsys):
    """Each block runs in turn in one namespace, as a reader would run them,
    next to the files they name."""
    assert len(README_BLOCKS) >= 3
    shutil.copyfile(annex_epi_path, tmp_path / "cases.csv")
    shutil.copyfile(annex_gisaid_path, tmp_path / "metadata.tsv")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in README_BLOCKS:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["stream"].stats.rows_read == 58739
    assert capsys.readouterr().out.count("\n") == 2
