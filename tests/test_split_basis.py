"""The split basis shared by ``transport_bases`` and ``corrective_term``."""

import numpy as np
import pytest

from torsionworks.algebra import Representation
from torsionworks.complexes import homology
from torsionworks.glue import analyze_disk_sum, corrective_term, mv_sequence, transport_bases
from torsionworks.linalg import matrix_rank, random_recombination
from torsionworks.scenes import circle, point, wedge_of_circles
from torsionworks.torsion import build_splitting, torsion

from conftest import diag_rep, random_sl2


def build_sequence(pair, **kwargs):
    return mv_sequence(pair, **kwargs)


def gluing_models(rng):
    g0 = random_sl2(rng)
    conjugated = Representation.from_images(
        [g0 @ np.diag([3.0, 1 / 3.0]).astype(complex) @ np.linalg.inv(g0)])
    return [
        (point(), Representation.trivial(0), point(), Representation.trivial(0)),
        (circle(), diag_rep(2.0), point(), Representation.trivial(0)),
        (circle(), diag_rep(2.0), circle(), diag_rep(3.0)),
        (circle(), Representation.trivial(1), circle(), diag_rep(2.0)),
        (circle(), diag_rep(2.0), circle(), conjugated),
        (wedge_of_circles(2), diag_rep(2.0, 3.0), circle(), diag_rep(5.0)),
    ]


def test_corrective_value_independent_of_split_basis(rng):
    # the named boundary vectors change the per-degree determinants but
    # not their alternating product, which must match the default
    # orthonormal-image splitting in canonical, random and transported bases
    for m1, r1, m2, r2 in gluing_models(rng):
        pair = analyze_disk_sum(m1, r1, m2, r2)
        canonical = build_sequence(pair)
        drawn = build_sequence(
            pair,
            h1=random_recombination(pair.hd1.h_basis, rng),
            h2=random_recombination(pair.hd2.h_basis, rng),
            hm=random_recombination(pair.hdm.h_basis, rng),
        )
        transported = canonical.with_bases(
            transport_bases(canonical).coordinate_scalings)
        for seq in (canonical, drawn, transported):
            split = build_splitting(seq, homology(seq))
            expected = torsion(seq, split, reference_bases=seq.bases).value
            assert corrective_term(seq).value == pytest.approx(expected, rel=1e-9), (
                m1.name, m2.name)


def test_transported_determinants_one_whenever_disk_injects():
    models = [
        (point(), Representation.trivial(0), point(), Representation.trivial(0)),
        (circle(), diag_rep(2.0), point(), Representation.trivial(0)),
        (circle(), Representation.trivial(1), circle(), Representation.trivial(1)),
        (circle(), Representation.trivial(1), circle(), diag_rep(2.0)),
    ]
    for m1, r1, m2, r2 in models:
        seq = build_sequence(analyze_disk_sum(m1, r1, m2, r2))
        assert matrix_rank(seq.boundary(2), 1e-8) == seq.dims[2]
        transported = transport_bases(seq)
        assert transported.residual == pytest.approx(1.0, abs=1e-9)
        result = corrective_term(seq.with_bases(transported.coordinate_scalings))
        for p, det in enumerate(result.per_degree_determinants):
            assert det == pytest.approx(1.0, abs=1e-9), (m1.name, m2.name, p, det)

