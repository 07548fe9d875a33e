"""The type hierarchy is stated once, in ontology.TYPE_EXPANSION.

A literal or a call naming two or more behavior names outside the
ontology restates which behaviors make up a type; such code asks
ontology.satisfies_type instead.
"""

import ast
from pathlib import Path

import overlay_repo
from overlay_repo.model import BEHAVIOR_NAMES


def _named(nodes) -> list[str]:
    return [n.value for n in nodes
            if isinstance(n, ast.Constant) and n.value in BEHAVIOR_NAMES]


def test_behavior_groups_are_named_only_in_the_ontology():
    restated = []
    for path in sorted(Path(overlay_repo.__file__).parent.glob("*.py")):
        if path.name == "ontology.py":
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, (ast.Set, ast.List, ast.Tuple)):
                names = _named(node.elts)
            elif isinstance(node, ast.Dict):
                names = _named([*node.keys, *node.values])
            elif isinstance(node, ast.Call):
                names = _named([*node.args, *(k.value for k in node.keywords)])
            else:
                continue
            if len(names) >= 2:
                restated.append(f"{path.name}:{node.lineno}: {names}")
    assert not restated
