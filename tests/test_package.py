"""The package namespace: what `from motionmanifold import *` exposes."""

import ast
import inspect
import pathlib

import motionmanifold


def test_public_api_resolves():
    missing = [name for name in motionmanifold.__all__
               if not hasattr(motionmanifold, name)]
    assert missing == []
    assert len(set(motionmanifold.__all__)) == len(motionmanifold.__all__)
    tree = ast.parse(inspect.getsource(motionmanifold))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    public = {name for name in imported if not name.startswith("_")}
    assert sorted(public - set(motionmanifold.__all__)) == []


def test_modules_have_no_unused_imports():
    unused = []
    package = pathlib.Path(motionmanifold.__file__).parent
    tests = pathlib.Path(__file__).parent
    for path in sorted([*package.glob("*.py"), *tests.glob("*.py")]):
        if path == package / "__init__.py":      # re-exports
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module == "__future__"):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
