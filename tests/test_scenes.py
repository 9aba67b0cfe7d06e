import numpy as np
import pytest

from torsionworks.algebra import Representation, Target, Word
from torsionworks.complexes import homology, twist
from torsionworks.errors import SceneError
from torsionworks.glue import analyze_disk_sum
from torsionworks.scenes import (
    circle,
    diagonal_representation,
    disk,
    handlebody_model,
    parse_scene,
    point,
    scene_text,
    wedge_of_circles,
    word_from_string,
    word_to_string,
)
from torsionworks.torsion import torsion_of

from conftest import diag_rep, glued_data, random_sl2, sphere


# ---------------------------------------------------------------------------
# word strings
# ---------------------------------------------------------------------------

def test_word_string_basic():
    w = word_from_string("abA", 2)
    assert w == Word.from_letters([(0, 1), (1, 1), (0, -1)])
    assert word_to_string(w) == "abA"


def test_word_string_spaces_and_identity():
    assert word_from_string("a b A B", 2).is_identity is False
    assert word_from_string("1", 3).is_identity
    assert word_from_string("", 3).is_identity
    assert word_to_string(Word()) == "1"


def test_word_string_powers_flatten():
    w = Word.from_letters([(0, 3), (1, -2)])
    assert word_to_string(w) == "aaaBB"
    assert word_from_string("aaaBB", 2) == w


def test_word_string_rejects_bad_token():
    with pytest.raises(SceneError) as err:
        word_from_string("a⁻", 2)  # "a" followed by a superscript minus
    assert "token" in str(err.value)


def test_word_string_rejects_unknown_generator():
    with pytest.raises(SceneError):
        word_from_string("c", 2)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_point_and_disk():
    assert point().cells == [1]
    assert point().presentation.generator_count == 0
    assert disk() == point()


def test_wedge_boundary_row():
    cw = wedge_of_circles(2)
    assert cw.cells == [1, 2]
    row = cw.boundaries[0]
    for j in range(2):
        terms = dict(row.entry(0, j).terms)
        assert terms[Word.generator(j)] == 1
        assert terms[Word()] == -1


def test_handlebody_is_wedge():
    assert handlebody_model(1) == circle()
    assert handlebody_model(3) == wedge_of_circles(3)


def test_wedge_needs_positive_genus():
    with pytest.raises(ValueError):
        wedge_of_circles(0)


def test_builders_run_through_pipeline(basis):
    for cw in (point(), disk(), circle(), wedge_of_circles(2), handlebody_model(3)):
        rep = Representation.trivial(cw.presentation.generator_count)
        tc = twist(cw, rep, basis)
        hd = homology(tc)
        result = torsion_of(tc, hd)
        assert result.value == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# parse / print round trips
# ---------------------------------------------------------------------------

def reps_close(a, b):
    return (a.target == b.target and a.n == b.n
            and len(a.images) == len(b.images)
            and all(np.allclose(x, y) for x, y in zip(a.images, b.images)))


def test_round_trip_builders():
    cases = [
        (point(), Representation.trivial(0)),
        (circle(), diag_rep(2.0)),
        (circle(), diagonal_representation([1.0 + 1.0j])),
        (wedge_of_circles(2), diag_rep(2.0, 3.0)),
        (handlebody_model(3), diag_rep(2.0, 3.0, 5.0)),
    ]
    for cw, rep in cases:
        scene = parse_scene(scene_text(cw, rep))
        assert scene.cw == cw
        assert reps_close(scene.rep, rep)


def test_round_trip_sphere_with_an_empty_layer():
    # the boundary out of the 2-cell has no rows: its grid is written []
    cw, rep = sphere(), Representation.trivial(0)
    text = scene_text(cw, rep)
    scene = parse_scene(text)
    assert scene.cw == cw
    assert [(m.rows, m.cols) for m in scene.cw.boundaries] == [(1, 0), (0, 1)]
    assert scene_text(scene.cw, scene.rep) == text


def test_round_trip_h_bases_and_tolerance(basis):
    cw, rep = circle(), diag_rep(2.0)
    hd = homology(twist(cw, rep, basis))
    h_bases = {0: hd.h_basis[0], 1: hd.h_basis[1]}
    text = scene_text(cw, rep, h_bases=h_bases, tolerance=1e-9)
    scene = parse_scene(text)
    assert scene.tolerance == 1e-9
    for p in (0, 1):
        assert np.allclose(scene.h_bases[p], h_bases[p])


def test_round_trip_empty_homology_basis():
    rng = np.random.default_rng(32)
    factors = (wedge_of_circles(2),
               Representation.from_images([random_sl2(rng), random_sl2(rng)]),
               circle(), Representation.from_images([random_sl2(rng)]))
    pair = analyze_disk_sum(*factors)
    assert pair.hdm.betti[0] == 0
    h_bases = {p: pair.hdm.h_basis[p] for p in range(2)}
    text = scene_text(*glued_data(*factors), h_bases=h_bases)
    assert '"0": []' in text
    scene = parse_scene(text)
    assert scene.h_bases[0].shape == (3, 0)
    assert np.array_equal(scene.h_bases[1], h_bases[1])
    assert scene_text(scene.cw, scene.rep, h_bases=scene.h_bases) == text


def test_round_trip_relators():
    rel = Word.from_letters([(0, 2)])
    cw = circle()
    from torsionworks.algebra import GroupPresentation
    from torsionworks.complexes import CwComplexData
    cw2 = CwComplexData(name="order2", presentation=GroupPresentation(1, (rel,)),
                        cells=[1], boundaries=[])
    rep = Representation.from_images([-np.eye(2)])
    scene = parse_scene(scene_text(cw2, rep))
    assert scene.cw.presentation.relators == (rel,)


def test_round_trip_psl():
    img = np.array([[0, 1], [-1, 0]], dtype=complex)
    rel = Word.generator(0, 2)
    from torsionworks.algebra import GroupPresentation
    from torsionworks.complexes import CwComplexData
    cw = CwComplexData(name="psl", presentation=GroupPresentation(1, (rel,)),
                       cells=[1], boundaries=[])
    rep = Representation(Target.PSL, 2, (img,))
    scene = parse_scene(scene_text(cw, rep))
    assert scene.rep.target is Target.PSL


# ---------------------------------------------------------------------------
# negative cases
# ---------------------------------------------------------------------------

def test_parse_bad_json_reports_position():
    with pytest.raises(SceneError) as err:
        parse_scene("{\n  \"name\": \"x\",,\n}")
    assert err.value.line == 2
    assert err.value.column is not None


def test_parse_missing_field():
    with pytest.raises(SceneError) as err:
        parse_scene("{}")
    assert "generators" in str(err.value)


def test_parse_bad_word_token():
    text = scene_text(circle(), diag_rep(2.0))
    broken = text.replace('"a"', '"a-"')
    with pytest.raises(SceneError) as err:
        parse_scene(broken)
    assert "token" in str(err.value)


def test_parse_shape_mismatch():
    text = scene_text(wedge_of_circles(2), diag_rep(2.0, 3.0))
    broken = text.replace('"cells": [\n    1,\n    2\n  ]', '"cells": [\n    1,\n    3\n  ]')
    with pytest.raises(SceneError):
        parse_scene(broken)


def test_parse_rejects_relator_violation():
    from torsionworks.algebra import GroupPresentation
    from torsionworks.complexes import CwComplexData
    cw = CwComplexData(name="bad", presentation=GroupPresentation(1, (Word.generator(0, 2),)),
                       cells=[1], boundaries=[])
    text = scene_text(cw, diag_rep(2.0))
    with pytest.raises(SceneError) as err:
        parse_scene(text)
    assert "relator" in str(err.value)


def test_parse_rejects_non_unimodular_images():
    text = scene_text(circle(), diag_rep(2.0)).replace("2.0", "2.5", 1)
    with pytest.raises(SceneError) as err:
        parse_scene(text)
    assert "unimodular" in str(err.value)


def test_parse_rejects_bad_tolerance():
    text = scene_text(circle(), diag_rep(2.0), tolerance=1e-9)
    with pytest.raises(SceneError):
        parse_scene(text.replace("1e-09", "-1.0"))
