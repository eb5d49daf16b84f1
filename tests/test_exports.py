"""Every exported name resolves, so a deletion cannot leave a stale export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mfcert

MODULES = sorted(info.name for info in pkgutil.iter_modules(mfcert.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"mfcert.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_package_root_imports_resolve():
    tree = ast.parse(Path(mfcert.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module, attr in imported:
        assert hasattr(importlib.import_module(f"mfcert.{module}"), attr), (module, attr)
