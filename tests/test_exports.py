"""The package's public names: every exported name exists."""

import ast
import importlib
import inspect

import psfc

MODULES = ("audit", "cli", "client", "field", "protocol", "rand", "runtime", "scheduler")


def test_every_all_name_resolves():
    for name in MODULES:
        module = importlib.import_module(f"psfc.{name}")
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, f"psfc.{name}.__all__ names missing attributes: {missing}"


def test_every_package_import_resolves():
    tree = ast.parse(inspect.getsource(psfc))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    for module, attr in imported:
        assert hasattr(psfc, attr), f"psfc.{attr} (from .{module}) does not resolve"
        assert attr in importlib.import_module(f"psfc.{module}").__all__, (module, attr)
