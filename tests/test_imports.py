"""The package runs on the standard library plus click."""

import ast
import sys
from pathlib import Path

import overlay_repo

ALLOWED = set(sys.stdlib_module_names) | {"click"}


def test_absolute_imports_are_stdlib_or_click():
    outside = []
    for path in sorted(Path(overlay_repo.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in ALLOWED]
    assert not outside
