"""Scene files: a JSON dialect describing a complex plus a representation.

A scene carries a group presentation, cell counts, group-ring boundary
matrices, generator images, and optionally homology bases and a
tolerance.  Words are strings over ASCII letters: lowercase letters are
generators (a = generator 0), uppercase letters their inverses, and
"1" (or the empty string) is the identity; spaces are ignored.  Complex
numbers are two-element arrays [re, im].  See docs/scene_format.md for
the grammar.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    GroupPresentation,
    GroupRingElement,
    GroupRingMatrix,
    Representation,
    Target,
    Word,
    check_representation,
)
from .complexes import CwComplexData
from .errors import SceneError
from .linalg import DEFAULT_TOL

MAX_NAMED_GENERATORS = 26
MAX_COEFFICIENT = 2 ** 53  # so that every coefficient is an exact float
IMAGE_SHAPE = (2, 2)  # the library twists by the adjoint representation of SL2


# ---------------------------------------------------------------------------
# word strings
# ---------------------------------------------------------------------------

def word_from_string(text: str, generator_count: int) -> Word:
    """Parse letter-coded words: "abA" means g0 g1 g0^{-1}."""
    pairs = []
    for ch in text:
        if ch in (" ", "\t"):
            continue
        if ch == "1":
            continue
        if "a" <= ch <= "z":
            idx, exp = ord(ch) - ord("a"), 1
        elif "A" <= ch <= "Z":
            idx, exp = ord(ch) - ord("A"), -1
        else:
            raise SceneError(f"syntax error at token {ch!r} in word {text!r}")
        if idx >= generator_count:
            raise SceneError(
                f"word {text!r} uses generator {ch!r} but only "
                f"{generator_count} generators are declared"
            )
        pairs.append((idx, exp))
    return Word.from_letters(pairs)


def word_to_string(word: Word) -> str:
    if word.is_identity:
        return "1"
    out = []
    for gen, exp in word.letters:
        if gen >= MAX_NAMED_GENERATORS:
            raise SceneError(f"cannot letter-code generator index {gen}")
        ch = chr(ord("a") + gen) if exp > 0 else chr(ord("A") + gen)
        out.append(ch * abs(exp))
    return "".join(out)


def _element_from_json(terms, generator_count, where):
    # type(...) is int: a JSON boolean is not a coefficient
    if not isinstance(terms, list) or not all(
            isinstance(item, list) and len(item) == 2 and type(item[0]) is int
            and abs(item[0]) <= MAX_COEFFICIENT and isinstance(item[1], str)
            for item in terms):
        raise SceneError(f"malformed group-ring entry at {where}: expected "
                         "[integer coefficient up to 2^53, word] pairs", where=where)
    return GroupRingElement.from_terms(
        (word_from_string(text, generator_count), coeff) for coeff, text in terms)


def _element_to_json(elem: GroupRingElement):
    return [[coeff, word_to_string(word)] for word, coeff in elem.terms]


def _complex_from_json(arr, where):
    try:
        arr = np.asarray(arr)
        ok = (arr.dtype.kind in "iuf" and arr.ndim > 0 and arr.shape[-1] == 2
              and np.isfinite(arr).all())
    except ValueError:  # a ragged nesting
        ok = False
    if not ok:
        raise SceneError(f"complex numbers must be [re, im] pairs of finite numbers "
                         f"at {where}", where=where)
    return arr[..., 0] + 1j * arr[..., 1]


def _complex_to_json(arr):
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


# ---------------------------------------------------------------------------
# parse / serialize
# ---------------------------------------------------------------------------

@dataclass
class Scene:
    cw: CwComplexData
    rep: Representation
    h_bases: dict[int, np.ndarray] = field(default_factory=dict)
    tolerance: float | None = None


def parse_scene(text: str) -> Scene:
    """Parse and validate a scene document.

    Raises SceneError with line/column for malformed JSON and with a
    location path for semantic problems; the returned pair always
    satisfies the relator check at the scene tolerance.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneError(f"syntax error: {exc.msg}", line=exc.lineno,
                         column=exc.colno) from None
    if not isinstance(doc, dict):
        raise SceneError("scene document must be a JSON object")

    def get(key, types, default=None, required=False):
        """``doc[key]`` checked against ``types``; null counts as absent."""
        val = doc.get(key)
        if val is None and required:
            raise SceneError(f"missing required field {key!r}", where=key)
        if val is not None and (not isinstance(val, types) or isinstance(val, bool)):
            raise SceneError(f"field {key!r} has the wrong type", where=key)
        return default if val is None else val

    name = get("name", str, "scene")
    gens = get("generators", int, required=True)
    if gens < 0 or gens > MAX_NAMED_GENERATORS:
        raise SceneError(f"generator count {gens} outside 0..{MAX_NAMED_GENERATORS}",
                         where="generators")
    relator_strings = get("relators", list, [])
    if not all(isinstance(r, str) for r in relator_strings):
        raise SceneError("relators must be word strings", where="relators")
    relators = tuple(word_from_string(r, gens) for r in relator_strings)
    try:
        pres = GroupPresentation(gens, relators)
    except ValueError as exc:
        raise SceneError(f"bad presentation: {exc}", where="relators") from exc

    cells = get("cells", list, required=True)
    if not cells or not all(type(m) is int and m >= 0 for m in cells):
        raise SceneError("cells must be a nonempty list of nonnegative integers",
                         where="cells")

    raw_boundaries = get("boundaries", list, [])
    if len(raw_boundaries) != len(cells) - 1:
        raise SceneError(
            f"{len(raw_boundaries)} boundary matrices for {len(cells)} cell layers",
            where="boundaries")
    boundaries = []
    for p, grid in enumerate(raw_boundaries, start=1):
        rows, cols = cells[p - 1], cells[p]
        if not isinstance(grid, list) or len(grid) != rows or any(
                not isinstance(r, list) or len(r) != cols for r in grid):
            raise SceneError(
                f"boundary {p} is not a {rows}x{cols} grid", where=f"boundaries[{p - 1}]")
        entries = [
            [_element_from_json(grid[i][j], gens, f"boundaries[{p - 1}][{i}][{j}]")
             for j in range(cols)]
            for i in range(rows)
        ]
        boundaries.append(GroupRingMatrix(rows, cols, tuple(map(tuple, entries))))

    try:
        cw = CwComplexData(name=name, presentation=pres, cells=list(cells),
                           boundaries=boundaries)
    except Exception as exc:
        raise SceneError(f"inconsistent complex data: {exc}") from exc

    target_text = get("target", str, "SL")
    try:
        target = Target(target_text)
    except ValueError:
        raise SceneError(f"unknown target {target_text!r}", where="target") from None
    raw_images = get("images", list, required=True)
    if len(raw_images) != gens:
        raise SceneError(f"{len(raw_images)} images for {gens} generators",
                         where="images")
    images = [_complex_from_json(m, f"images[{k}]") for k, m in enumerate(raw_images)]
    for k, m in enumerate(images):
        if m.shape != IMAGE_SHAPE:
            raise SceneError(f"image {k} is not a 2x2 matrix", where=f"images[{k}]")
    n = IMAGE_SHAPE[0]
    rep = Representation(target, n, tuple(images))

    tolerance = get("tolerance", (int, float))
    if tolerance is not None and not 0 < tolerance <= sys.float_info.max:
        raise SceneError("tolerance must be a positive finite number",
                         where="tolerance")
    tol = float(tolerance) if tolerance is not None else DEFAULT_TOL

    h_bases = {}
    for key, vecs in get("h_bases", dict, {}).items():
        try:
            degree = int(key)
        except ValueError:
            degree = None
        if key != str(degree):  # one spelling per degree: not "00", "+1" or " 1"
            raise SceneError(f"h_bases key {key!r} is not a degree", where="h_bases")
        if not 0 <= degree < len(cells):
            raise SceneError(f"h_bases degree {degree} has no chain group",
                             where="h_bases")
        length = cells[degree] * (n * n - 1)
        if vecs == []:
            h_bases[degree] = np.zeros((length, 0), dtype=complex)
            continue
        block = np.atleast_2d(_complex_from_json(vecs, f"h_bases[{key}]"))
        if block.ndim != 2 or block.shape[1] != length:
            raise SceneError(f"h_bases degree {degree} needs vectors of length {length}",
                             where=f"h_bases[{key}]")
        h_bases[degree] = block.T.copy()

    with np.errstate(over="ignore", invalid="ignore"):  # NaN fails the test below
        bad = [r for r in rep.determinant_residuals() if not r <= tol]
    if bad:
        raise SceneError(f"images are not unimodular (det residuals {bad})",
                         where="images")
    ok, residuals = check_representation(pres, rep, tol)
    if not ok:
        raise SceneError(
            f"images do not satisfy the relators (residuals {residuals})",
            where="images")
    return Scene(cw=cw, rep=rep, h_bases=h_bases, tolerance=tolerance)


def scene_text(cw: CwComplexData, rep: Representation, h_bases=None,
               tolerance=None) -> str:
    """Serialize a complex/representation pair to scene-file text."""
    doc = {
        "name": cw.name,
        "target": rep.target.value,
        "generators": cw.presentation.generator_count,
        "relators": [word_to_string(r) for r in cw.presentation.relators],
        "cells": list(cw.cells),
        "boundaries": [
            [[_element_to_json(mat.entry(i, j)) for j in range(mat.cols)]
             for i in range(mat.rows)]
            for mat in cw.boundaries
        ],
        "images": [_complex_to_json(m) for m in rep.images],
    }
    if h_bases:
        doc["h_bases"] = {
            str(p): _complex_to_json(np.asarray(block).T)
            for p, block in sorted(h_bases.items())
        }
    if tolerance is not None:
        doc["tolerance"] = tolerance
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def point() -> CwComplexData:
    """A single 0-cell with trivial fundamental group."""
    return CwComplexData(name="point", presentation=GroupPresentation.free(0),
                         cells=[1], boundaries=[])


def disk() -> CwComplexData:
    """The gluing disk, modeled by its collapse to a point."""
    out = point()
    out.name = "disk"
    return out


def wedge_of_circles(g: int) -> CwComplexData:
    """One 0-cell and g loops; the boundary entries are g_i - 1."""
    if g < 1:
        raise ValueError(f"need at least one circle, got {g}")
    one = GroupRingElement.one()
    row = [GroupRingElement.gen(i) - one for i in range(g)]
    return CwComplexData(
        name="circle" if g == 1 else f"wedge_{g}",
        presentation=GroupPresentation.free(g),
        cells=[1, g],
        boundaries=[GroupRingMatrix.from_rows([row])],
    )


def circle() -> CwComplexData:
    return wedge_of_circles(1)


def handlebody_model(g: int) -> CwComplexData:
    """Spine model of the genus-g handlebody (a wedge of g circles)."""
    return wedge_of_circles(g)


def diagonal_representation(eigenvalues, target: Target = Target.SL) -> Representation:
    """diag(lambda, 1/lambda) images, one per generator."""
    images = [np.diag([lam, 1.0 / lam]).astype(complex) for lam in eigenvalues]
    return Representation.from_images(images, target)
