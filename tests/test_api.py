"""The public surface: every exported name exists, and README's code runs."""

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import pytest

import clustergauss

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ["clustergauss"] + [
    f"clustergauss.{info.name}"
    for info in pkgutil.iter_modules(clustergauss.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing


# core declares its public names in _EXPORTS alone; each other module
# declares them in its __all__ too, where errormodel and simulate also
# re-export the mode and variant choices from core.
@pytest.mark.parametrize(
    "name", [m for m in clustergauss._EXPORTS if m != "core"])
def test_exports_match_module_all(name):
    module = importlib.import_module(f"clustergauss.{name}")
    own = [n for n in module.__all__ if n not in clustergauss._EXPORTS["core"]]
    assert sorted(clustergauss._EXPORTS[name]) == sorted(own)


def test_dir_lists_every_exported_name():
    assert set(clustergauss.__all__) <= set(dir(clustergauss))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        clustergauss.no_such_name


def test_readme_quickstart_runs():
    text = README.read_text()
    section = text[text.index("## Library quickstart"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert len(out.getvalue().splitlines()) == 3
