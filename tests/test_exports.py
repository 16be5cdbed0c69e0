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


# Public names that nothing in src/psfc loads, kept for a reader outside it.
KEPT_WITHOUT_A_CALLER = {
    "client.RunReport.transcript": "bench/workloads.py checks len(report.transcript) on every run",
}


def _loads(node, inside=()):
    """(name, whether an attribute, the definitions around it) of each load under `node`."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside += (node,)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id, False, inside
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr, True, inside
    for child in ast.iter_child_nodes(node):
        yield from _loads(child, inside)


def test_every_public_name_has_a_caller_in_src():
    # A name in a module's __all__ must be loaded, by name or as an
    # attribute, and a public method or property of a public class as an
    # attribute, somewhere in src/psfc outside its own definition.  An
    # import is not a load, so a re-export alone keeps nothing alive.
    modules = {name: importlib.import_module(f"psfc.{name}") for name in MODULES}
    trees = {name: ast.parse(inspect.getsource(module)) for name, module in modules.items()}
    loads = [load for tree in (*trees.values(), ast.parse(inspect.getsource(psfc))) for load in _loads(tree)]
    public = []  # (qualified name, its definition or None, loaded as an attribute only)
    for name, tree in trees.items():
        top = {node.name: node for node in tree.body if hasattr(node, "name")}
        public += [(f"{name}.{attr}", top.get(attr), False) for attr in modules[name].__all__]
        for cls in top.values():
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                public += [(f"{name}.{cls.name}.{node.name}", node, True) for node in cls.body
                           if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    uncalled = [qualified for qualified, definition, attribute_only in public
                if not any(name == qualified.rsplit(".", 1)[1] and (is_attribute or not attribute_only)
                           and definition not in inside for name, is_attribute, inside in loads)]
    assert sorted(uncalled) == sorted(KEPT_WITHOUT_A_CALLER)
