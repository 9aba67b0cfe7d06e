"""Fuzz of scene input: every document parses to a Scene or raises SceneError.

Each sample scene in ``scenes/`` has one field or subtree replaced by a
random JSON value (or gains one optional field).  ``parse_scene`` must
return a ``Scene`` or raise ``SceneError``, and ``torsion`` on the file
must exit 0, 1 or 2 without raising.  Integers stay small so that a
mutated cell count never asks for a large chain group.
"""

import contextlib
import io
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from torsionworks.cli import main
from torsionworks.errors import SceneError
from torsionworks.scenes import Scene, parse_scene

SCENES = sorted((Path(__file__).resolve().parent.parent / "scenes").glob("*.json"))
DOCS = [json.loads(path.read_text()) for path in SCENES]

# optional top-level fields a mutation may add
OPTIONAL = ("name", "target", "relators", "boundaries", "h_bases", "tolerance")

keys = st.sampled_from(["0", "1", "2", "5", "-1", "x"]) | st.text(max_size=3)
leaves = (st.none() | st.booleans() | st.integers(-3, 30) | st.text(max_size=4)
          | st.floats(allow_nan=False, allow_infinity=False))
json_values = st.recursive(
    leaves,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(keys, children, max_size=3)),
    max_leaves=16,
)


def paths(node, prefix=()):
    """Every path to a subtree of ``node``, ``node`` itself included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from paths(child, prefix + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    out = json.loads(json.dumps(doc))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


@st.composite
def mutated_scenes(draw):
    doc = draw(st.sampled_from(DOCS))
    targets = list(paths(doc)) + [(key,) for key in OPTIONAL]
    return replaced(doc, draw(st.sampled_from(targets)), draw(json_values))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_scenes())
def test_mutated_scene_parses_or_raises_scene_error(tmp_path_factory, doc):
    text = json.dumps(doc)
    try:
        assert isinstance(parse_scene(text), Scene)
    except SceneError:
        pass
    path = tmp_path_factory.mktemp("fuzz") / "scene.json"
    path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["torsion", str(path)]) in (0, 1, 2)
