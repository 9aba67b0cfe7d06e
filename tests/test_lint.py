"""Source checks on tolerances: each is named once, in ``linalg``, and no
rejection against one lets a NaN through; and source checks that each
boundary map is factored once, by its SVD, and never by a solver."""

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


# a rejection written ``x > bound`` lets a NaN ``x`` through; ``not x <= bound`` does not
BOUNDS = {"tol", "DEFECT_TOL", "PASS_TOL"}


def names_a_bound(node):
    """Whether ``node`` is a bound alone or a product with a bound factor."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return names_a_bound(node.left) or names_a_bound(node.right)
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name in BOUNDS


def greater_than_bound(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno}"
            for node in ast.walk(tree) if isinstance(node, ast.Compare)
            for left, op, right in zip([node.left, *node.comparators], node.ops,
                                       node.comparators)
            if (isinstance(op, ast.Gt) and names_a_bound(right))
            or (isinstance(op, ast.Lt) and names_a_bound(left))]


def test_no_comparison_rejects_with_greater_than_a_tolerance():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in greater_than_bound(path)]
    assert found == []


# a least-squares solve or pseudo-inverse would factor a map a second time,
# and a solve against a basis is a determinant of its coordinates; inverses
# belong to the word images that ``algebra`` conjugates by
SOLVERS = {"lstsq", "pinv", "solve"}


def named(tree):
    """Line and identifier of every name, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name.rpartition(".")[2]


def solver_uses(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    banned = SOLVERS if path.name == "algebra.py" else SOLVERS | {"inv"}
    return [f"{path.name}:{line}: {name}" for line, name in named(tree) if name in banned]


def test_no_solver_and_no_inverse_outside_algebra():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in solver_uses(path)]
    assert found == []


# a change of basis enters a torsion only through its determinant, so a
# chain carries one scalar per step: no dense basis, and no determinants
# to rescale or coordinates to rebase by
CHAIN_TRANSPORT_BANNED = {"rescaled", "rebased", "eye", "empty_matrix"}


def test_verify_multiplicativity_names_no_dense_basis():
    tree = ast.parse((SRC / "glue.py").read_text())
    chain = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "verify_multiplicativity")
    found = [f"glue.py:{line}: {name}" for line, name in named(chain)
             if name in CHAIN_TRANSPORT_BANNED]
    assert found == []


# a chain is laid out and placed once per call: no step glues the CW data of
# a partial sum or places its complex again
CHAIN_BANNED = {"disk_sum", "placed_complex"}


def test_a_chain_glues_no_partial_sum_pairwise():
    tree = ast.parse((SRC / "glue.py").read_text())
    found = [f"glue.py:{line}: {name}" for node in tree.body
             if isinstance(node, ast.FunctionDef)
             and node.name in {"verify_multiplicativity", "_glued_chain"}
             for line, name in named(node) if name in CHAIN_BANNED]
    assert found == []


# the gluing identity is checked once, in canonical bases: its verifier in
# ``glue`` draws nothing at random
RANDOM_BANNED = {"default_rng", "standard_normal", "random_mixes", "DRAW_CHUNK"}


def test_glue_draws_nothing_at_random():
    tree = ast.parse((SRC / "glue.py").read_text())
    found = [f"glue.py:{line}: {name}" for line, name in named(tree) if name in RANDOM_BANNED]
    assert found == []
