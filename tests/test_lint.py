"""Source checks: every tolerance is named once, in ``linalg``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "torsionworks"

# a float literal below this is a tolerance, a floor or a threshold
SMALL = 1e-3


def module_constants(tree):
    """Value nodes of the module-level assignments to upper-case names."""
    return {id(node.value) for node in tree.body
            if isinstance(node, ast.Assign)
            and all(isinstance(t, ast.Name) and t.id.isupper() for t in node.targets)}


def small_literals(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = module_constants(tree) if path.name == "linalg.py" else set()
    return [f"{path.name}:{node.lineno}: {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0 < abs(node.value) < SMALL and id(node) not in allowed]


def test_small_float_literals_are_named_constants_of_linalg():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in small_literals(path)]
    assert found == []
