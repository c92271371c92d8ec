"""The public API: each module's ``__all__`` declares its part once, and
the package republishes exactly those names."""

import ast
import importlib
import inspect
import pkgutil

import asefilt


def _undocumented(module) -> list[str]:
    """The classes and functions ``module`` lists, and the public methods
    of such a class, that have no docstring."""
    missing = []
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in module.__all__:
            if not ast.get_docstring(node):
                missing.append(node.name)
            if isinstance(node, ast.ClassDef):
                missing += [f"{node.name}.{sub.name}" for sub in node.body if isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("_") and not ast.get_docstring(sub)]
    return missing


def test_each_public_name_is_declared_once_bound_and_documented():
    """The modules' ``__all__`` lists name nothing twice and together make
    ``asefilt.__all__`` but ``__version__``; every entry is bound in the
    module that lists it, to the object the package exports, and has a
    docstring if it is a class or function."""
    modules = [importlib.import_module(f"asefilt.{info.name}") for info in pkgutil.iter_modules(asefilt.__path__)]
    modules = [module for module in modules if hasattr(module, "__all__")]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(names + ["__version__"]) == sorted(asefilt.__all__)
    for module in modules:
        for name in module.__all__:
            assert name in vars(module) and getattr(asefilt, name) is vars(module)[name], f"{module.__name__}.{name}"
        assert _undocumented(module) == []
