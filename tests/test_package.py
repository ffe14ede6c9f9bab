"""The package namespace: what `from motionmanifold import *` exposes."""

import ast
import inspect

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
