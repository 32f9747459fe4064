import ast
import os

import shapley_forge


def test_every_export_resolves():
    # exports load lazily, so a stale entry would only fail at first access
    for name in shapley_forge.__all__:
        assert getattr(shapley_forge, name) is not None, name


def test_reference_imports_nothing_from_the_package():
    # the brute-force references must not share code with what they check
    path = os.path.join(os.path.dirname(__file__), "reference.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] if node.level == 0 else ["."]
        else:
            continue
        for name in names:
            assert name != "." and name.split(".")[0] != "shapley_forge", f"line {node.lineno}: {name}"
