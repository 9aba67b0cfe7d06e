"""The split basis shared by ``transport_bases`` and ``corrective_term``,
and the assigned bases ``transport_bases`` passes to ``corrective_term``."""

import itertools

import numpy as np
import pytest

from torsionworks.algebra import Representation
from torsionworks.complexes import homology
from torsionworks.glue import (
    analyze_disk_sum,
    corrective_term,
    mv_sequence,
    transport_bases,
    verify_multiplicativity,
    verify_mv_identity,
)
from torsionworks.linalg import matrix_rank, random_recombination
from torsionworks.scenes import circle, point, wedge_of_circles
from torsionworks.torsion import build_splitting, torsion

from conftest import bouquet, diag_rep, random_sl2, torus


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


def identity_bases(seq):
    """A dense identity for every space: the assigned bases by default."""
    return [np.eye(n, dtype=complex) for n in seq.dims]


def transported_dense_bases(seq, transported):
    """The assigned bases of ``transported`` as dense matrices in every space.

    Rebuilt from what ``transport_bases`` records, with its operations in
    its order: column 0 of each nonzero direct-sum space divided by that
    space's det A, then column 0 of the first one multiplied by the
    residual's power.
    """
    bases = identity_bases(seq)
    for p, det_a in enumerate(transported.det_a):
        if seq.dims[3 * p + 1]:
            bases[3 * p + 1][:, 0] /= det_a
    slot = next(q for q in range(1, len(seq.dims), 3) if seq.dims[q])
    bases[slot][:, 0] *= transported.residual ** ((-1) ** slot)
    return bases


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
        transported = transported_dense_bases(canonical, transport_bases(canonical))
        for seq, bases in ((canonical, None), (drawn, None), (canonical, transported)):
            split = build_splitting(seq, homology(seq))
            reference = identity_bases(seq) if bases is None else bases
            expected = torsion(seq, split, reference_bases=reference).value
            assert corrective_term(seq, bases).value == pytest.approx(expected, rel=1e-9), (
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
        for p, det in enumerate(transported.corrective.per_degree_determinants):
            assert det == pytest.approx(1.0, abs=1e-9), (m1.name, m2.name, p, det)


# ---------------------------------------------------------------------------
# assigned bases as an argument: no identity solves, no changed bit
# ---------------------------------------------------------------------------

def bit_models():
    """Point, circle, wedge_2, torus and bouquet at diagonal and generic images."""
    rng = np.random.default_rng(31)
    g0 = random_sl2(rng)

    def commuting(*lams):
        return Representation.from_images(
            [g0 @ np.diag([lam, 1 / lam]).astype(complex) @ np.linalg.inv(g0)
             for lam in lams])

    return [
        (point(), Representation.trivial(0)),
        (circle(), diag_rep(2.0)),
        (circle(), Representation.from_images([random_sl2(rng)])),
        (wedge_of_circles(2), diag_rep(2.0, 3.0)),
        (wedge_of_circles(2), Representation.from_images([random_sl2(rng),
                                                          random_sl2(rng)])),
        (torus(), diag_rep(2.0, 3.0)),
        (torus(), commuting(1.5, 2.5)),
        (bouquet(), diag_rep(2.5)),
        (bouquet(), Representation.from_images([random_sl2(rng)])),
    ]


def assert_same_bits(result, reference, where):
    assert np.complex128(result.value).tobytes() == \
        np.complex128(reference.value).tobytes(), where
    dets = np.array(result.per_degree_determinants, dtype=complex)
    expected = np.array(reference.per_degree_determinants, dtype=complex)
    assert dets.tobytes() == expected.tobytes(), where


def test_assigned_bases_as_an_argument_change_no_bit():
    # the former computation solved every space against a dense basis;
    # np.linalg.solve(I, M) returns M bit for bit, so skipping the
    # identities must leave every printed number as it was
    for (m1, r1), (m2, r2) in itertools.product(bit_models(), repeat=2):
        where = (m1.name, m2.name)
        seq = mv_sequence(analyze_disk_sum(m1, r1, m2, r2))
        assert_same_bits(corrective_term(seq),
                         torsion(seq, seq.split, reference_bases=identity_bases(seq)), where)
        transported = transport_bases(seq)
        dense = transported_dense_bases(seq, transported)
        rescaled = [b if q % 3 == 1 and seq.dims[q] else None for q, b in enumerate(dense)]
        for reference in (dense, rescaled):
            assert_same_bits(transported.corrective,
                             torsion(seq, seq.split, reference_bases=reference), where)


@pytest.fixture
def solve_calls(monkeypatch):
    """A list that grows by one at every ``np.linalg.solve`` call."""
    calls = []
    solve = np.linalg.solve

    def counting(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return calls


def test_verify_mv_identity_takes_no_solve(solve_calls):
    models = bit_models()
    for (m1, r1), (m2, r2) in ((models[0], models[0]), (models[2], models[4]),
                               (models[6], models[8])):
        report = verify_mv_identity(analyze_disk_sum(m1, r1, m2, r2), draws=3, seed=1)
        assert report.passed, (m1.name, m2.name)
    assert len(solve_calls) == 0


# the factors of the benchmark's chain workload, in its order
CHAIN = (circle(), wedge_of_circles(2), torus(), wedge_of_circles(3),
         circle(), torus(), bouquet(), wedge_of_circles(2))


def test_chain_solves_only_in_the_rescaled_spaces(solve_calls):
    # eigenvalues drawn as the chain workload draws them: modulus in
    # [1.3, 2.2] and a uniform phase
    rng = np.random.default_rng(1)
    reps = []
    for cw in CHAIN:
        k = cw.presentation.generator_count
        lams = rng.uniform(1.3, 2.2, size=k) * np.exp(2j * np.pi * rng.uniform(size=k))
        reps.append(diag_rep(*lams))
    report = verify_multiplicativity(list(CHAIN), reps)
    assert report.passed
    # one solve per nonzero direct-sum space in each of the two corrective
    # terms of a step; the dense identities took 102
    assert len(solve_calls) <= 44
    # the step that unfolds factor k glues CHAIN[:k + 1]
    for step, k in zip(report.steps, range(len(CHAIN) - 1, 0, -1)):
        assert len(step.det_a) == max(cw.dimension for cw in CHAIN[:k + 1]) + 1
