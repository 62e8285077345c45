"""The public surface: every exported name exists, and README's code runs."""

import ast
import contextlib
import importlib
import inspect
import io
import re
from pathlib import Path

import pytest

import clustergauss

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(clustergauss.__file__).parent


# Only the package has an ``__all__``; each submodule's names are checked
# against ``_EXPORTS`` below.
@pytest.mark.parametrize("name", ["clustergauss"])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing


def test_only_the_package_declares_all():
    """``__init__._EXPORTS`` is the one list of public names."""
    assigning = [
        path.name for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        and any(isinstance(node, ast.Name) and node.id == "__all__"
                and isinstance(node.ctx, ast.Store)
                for node in ast.walk(ast.parse(path.read_text())))]
    assert not assigning


@pytest.mark.parametrize("module", sorted(clustergauss._EXPORTS))
def test_exported_names_are_defined_where_listed(module):
    namespace = importlib.import_module(f"clustergauss.{module}")
    defined_elsewhere = []
    for name in clustergauss._EXPORTS[module]:
        value = getattr(namespace, name)
        if (inspect.isclass(value) or inspect.isfunction(value)) \
                and value.__module__ != f"clustergauss.{module}":
            defined_elsewhere.append(name)
    assert not defined_elsewhere


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
