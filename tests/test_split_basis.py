"""The split basis shared by ``transport_bases`` and ``corrective_term``,
the assigned bases ``transport_bases`` passes to ``corrective_term``, and
the covariance by which every other basis enters a torsion."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionworks import glue, torsion
from torsionworks.algebra import Representation
from torsionworks.complexes import TwistedChainComplex
from torsionworks.errors import DimensionMismatchError, SplittingError, TransportError
from torsionworks.glue import (
    analyze_disk_sum,
    corrective_term,
    mv_sequence,
    transport_bases,
    verify_exactness,
    verify_multiplicativity,
    verify_mv_identity,
)
from torsionworks.linalg import random_recombination
from torsionworks.scenes import circle, point, wedge_of_circles
from torsionworks.torsion import determinants, rebased, rescaled, torsion_of

from conftest import bouquet, diag_rep, random_sl2, torus


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


def recorded_determinants(seq, transported):
    """The determinant of each space's assigned basis, from what
    ``transport_bases`` records: a factor block's in its direct-sum
    space, None elsewhere."""
    dets = [None] * len(seq.dims)
    for factor in (transported.dets_m1, transported.dets_m2):
        for p, det in enumerate(factor):
            if det is not None:
                assert dets[3 * p + 1] is None
                dets[3 * p + 1] = det
    return dets


def transported_dense_bases(seq, transported):
    """The assigned bases of ``transported`` as dense matrices in every
    space: identities, with the first vector of a factor block whose
    determinant is recorded scaled by it."""
    bases = identity_bases(seq)
    for p, det in enumerate(transported.dets_m1):
        if det is not None:
            bases[3 * p + 1][0, 0] = det
    for p, det in enumerate(transported.dets_m2):
        if det is not None:
            first = seq.dims[3 * p + 1] - seq.h_factors[1][p].shape[1]
            bases[3 * p + 1][first, first] = det
    return bases


def drawn_bases(pair, rng):
    """Random coordinates of bases of H(M1), H(M2), H(M) and H(D), one block
    per degree, placed as the sequence's bases."""
    c1, c2, cm, cd = (random_recombination([np.eye(k, dtype=complex) for k in hd.betti], rng)
                      for hd in (pair.hd1, pair.hd2, pair.hdm, pair.hdd))
    bases = []
    for p, coords in enumerate(cm):
        a = c1[p] if p < len(c1) else np.eye(0)
        b = c2[p] if p < len(c2) else np.eye(0)
        space = np.zeros((len(a) + len(b),) * 2, dtype=complex)
        space[:len(a), :len(a)], space[len(a):, len(a):] = a, b
        bases += [coords, space, cd[p] if p < len(cd) else np.eye(0)]
    return bases


def split_in_bases(seq, bases):
    """Torsion of the sequence rewritten in the assigned bases, split anew.

    Space q takes the basis whose coordinates are R_q = ``bases[q]`` (the
    identity where None), so the maps become R_{q-1}^-1 d_q R_q.  The new
    complex is checked and split with the default orthonormal image
    bases, not the named boundary vectors that ``mv_sequence`` splits with.
    """
    dense = [np.eye(n, dtype=complex) if b is None else b for n, b in zip(seq.dims, bases)]
    maps = [np.linalg.solve(dense[q - 1], seq.boundary(q) @ dense[q])
            for q in range(1, len(seq.dims))]
    rewritten = TwistedChainComplex(1, seq.dims, maps)
    return torsion_of(rewritten, verify_exactness(rewritten))


def test_corrective_value_independent_of_split_basis(rng):
    # the named boundary vectors change the per-degree determinants but
    # not their alternating product, which must match the default
    # orthonormal-image splitting in canonical, random and transported
    # bases, there taken of the sequence rewritten in those bases
    for m1, r1, m2, r2 in gluing_models(rng):
        pair = analyze_disk_sum(m1, r1, m2, r2)
        seq = mv_sequence(pair)
        drawn = drawn_bases(pair, rng)
        transported = transported_dense_bases(seq, transport_bases(seq.canonical, seq.h_factors))
        for bases in (None, drawn, transported):
            expected = split_in_bases(seq, bases or identity_bases(seq)).value
            assert corrective_term(seq, bases).value == pytest.approx(expected, rel=1e-9), (
                m1.name, m2.name)


def test_transport_cancels_the_residual_on_the_right_factor(rng):
    # the corrective term in the canonical bases is cancelled by one
    # scalar: the determinant of M2's basis in its first degree with
    # homology, so M1, the partial sum of a chain, keeps its canonical bases
    for m1, r1, m2, r2 in gluing_models(rng):
        seq = mv_sequence(analyze_disk_sum(m1, r1, m2, r2))
        transported = transport_bases(seq.canonical, seq.h_factors)
        assert transported.residual == corrective_term(seq).value
        p = next(p for p, h in enumerate(seq.h_factors[1]) if h.shape[1])
        expected = [None] * len(seq.h_factors[1])
        expected[p] = transported.residual ** ((-1) ** (p + 1))
        assert transported.dets_m2 == expected, (m1.name, m2.name)
        assert transported.dets_m1 == [None] * len(seq.h_factors[0])
        assert transported.corrective.value == pytest.approx(1.0, abs=1e-9)


def test_transport_falls_back_to_the_left_factor():
    # read as if M2 were acyclic: its blocks widen M1's, and the residual
    # goes on M1's first degree with homology; with no factor homology at
    # all only a residual of 1 can be cancelled
    seq = mv_sequence(analyze_disk_sum(circle(), diag_rep(2.0), circle(), diag_rep(3.0)))
    assert seq.canonical.value != 1
    acyclic = [np.zeros((n, 0), dtype=complex) for n in (3, 3)]
    widened = [np.hstack([h1, h2]) for h1, h2 in zip(*seq.h_factors)]
    left = transport_bases(seq.canonical, (widened, acyclic))
    assert left.dets_m1 == [left.residual ** -1, None]
    assert left.dets_m2 == [None, None]
    assert left.corrective.value == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(TransportError, match="no nonzero direct-sum space"):
        transport_bases(seq.canonical, (acyclic, acyclic))
    dets = [None] * len(seq.dims)
    dets[1] = 2.0
    with pytest.raises(TransportError, match="space 1: a direct-sum space takes no given basis"):
        transport_bases(seq.canonical, seq.h_factors, dets)


# ---------------------------------------------------------------------------
# assigned bases as an argument: identities change no bit, nothing is solved
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
    # the corrective term in the canonical bases is the sequence's own
    # torsion; an identity block multiplies by det I = 1 exactly, so dense
    # identities reproduce every printed number bit for bit, and so does
    # seq.canonical rescaled by the one determinant transport_bases records
    for (m1, r1), (m2, r2) in itertools.product(bit_models(), repeat=2):
        where = (m1.name, m2.name)
        seq = mv_sequence(analyze_disk_sum(m1, r1, m2, r2))
        for bases in (None, identity_bases(seq)):
            assert_same_bits(corrective_term(seq, bases), seq.canonical, where)
        transported = transport_bases(seq.canonical, seq.h_factors)
        dets = recorded_determinants(seq, transported)
        assert sum(det is not None for det in dets) == 1, where
        assert_same_bits(transported.corrective, rescaled(seq.canonical, dets, -1), where)


def covariance_models():
    """Point, circle, generic wedge_2, torus and bouquet."""
    rng = np.random.default_rng(41)
    return [
        (point(), Representation.trivial(0)),
        (circle(), diag_rep(2.0)),
        (wedge_of_circles(2), Representation.from_images([random_sl2(rng),
                                                          random_sl2(rng)])),
        (torus(), diag_rep(2.0, 3.0)),
        (bouquet(), diag_rep(2.5)),
    ]


COVARIANCE_MODELS = covariance_models()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_rebased_torsions_equal_a_split_in_the_new_bases(first, second, seed):
    # the per-draw re-split that verify_mv_identity no longer takes: each
    # complex split in its canonical homology basis times random
    # coordinates, and the sequence rewritten in random assigned bases
    (m1, r1), (m2, r2) = COVARIANCE_MODELS[first], COVARIANCE_MODELS[second]
    pair = analyze_disk_sum(m1, r1, m2, r2)
    rng = np.random.default_rng(seed)
    for tc, hd in ((pair.tc1, pair.hd1), (pair.tc2, pair.hd2),
                   (pair.tcm, pair.hdm), (pair.tcd, pair.hdd)):
        coords = random_recombination([np.eye(k, dtype=complex) for k in hd.betti], rng)
        rebased_torsion = rebased(torsion_of(tc, hd), coords, 1)
        split = torsion_of(tc, hd, [h @ c for h, c in zip(hd.h_basis, coords)])
        assert rebased_torsion.value == pytest.approx(split.value, rel=1e-9)
        assert rebased_torsion.per_degree_determinants == pytest.approx(
            split.per_degree_determinants, rel=1e-9)
    seq = mv_sequence(pair)
    bases = drawn_bases(pair, rng)
    assert corrective_term(seq, bases).value == pytest.approx(
        split_in_bases(seq, bases).value, rel=1e-9)


@pytest.mark.parametrize("space", [0, 2, 3])
@pytest.mark.parametrize("entry", [0.0, np.nan])
def test_singular_coordinates_are_an_input_error(space, entry):
    # space 0 is H_0(M), 2 is H_0(D) and 3 is H_1(M), none assigned by transport
    seq = mv_sequence(analyze_disk_sum(circle(), diag_rep(2.0), circle(), diag_rep(3.0)))
    bases = [None] * len(seq.dims)
    bases[space] = np.eye(seq.dims[space], dtype=complex)
    bases[space][:, 0] = entry
    message = f"degree {space}: singular change of basis"
    with pytest.raises(SplittingError, match=message):
        corrective_term(seq, bases)
    with pytest.raises(SplittingError, match=message):
        transport_bases(seq.canonical, seq.h_factors, determinants(bases))


def test_misshapen_coordinates_are_an_input_error():
    # transport_bases takes determinants, which have no shape to check
    seq = mv_sequence(analyze_disk_sum(circle(), diag_rep(2.0), circle(), diag_rep(3.0)))
    assert seq.dims[3] == 4
    bases = [None] * len(seq.dims)
    bases[3] = np.eye(3, dtype=complex)
    with pytest.raises(DimensionMismatchError, match=r"space 3: \(3, 3\) coordinates"):
        corrective_term(seq, bases)


def test_missing_trailing_bases_are_the_identity():
    seq = mv_sequence(analyze_disk_sum(circle(), diag_rep(2.0), circle(), diag_rep(3.0)))
    for short in ([], [None], [None] * 3):
        assert_same_bits(corrective_term(seq, short), seq.canonical, short)
        assert_same_bits(transport_bases(seq.canonical, seq.h_factors, short).corrective,
                         transport_bases(seq.canonical, seq.h_factors).corrective, short)
        assert_same_bits(rescaled(seq.canonical, short, 1), seq.canonical, short)
        assert_same_bits(rebased(seq.canonical, short, -1), seq.canonical, short)


def test_more_bases_than_degrees_are_an_input_error():
    seq = mv_sequence(analyze_disk_sum(circle(), diag_rep(2.0), circle(), diag_rep(3.0)))
    assert len(seq.dims) == 6
    calls = [
        (lambda: corrective_term(seq, [None] * 7), "7 changes of basis for a complex of 6"),
        (lambda: transport_bases(seq.canonical, seq.h_factors, [None] * 7),
         "7 changes of basis for a complex of 6"),
        (lambda: rescaled(seq.canonical, [None] * 7, 1), "7 changes of basis for a complex of 6"),
        (lambda: rebased(seq.canonical, [None] * 7, -1), "7 changes of basis for a complex of 6"),
    ]
    for call, message in calls:
        with pytest.raises(DimensionMismatchError, match=message):
            call()


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


def test_verify_mv_identity_builds_one_sequence(solve_calls, monkeypatch):
    built, splits = [], []
    build, split = glue.mv_sequence, torsion.build_splitting

    def counting(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    def splitting(*args, **kwargs):
        splits.append(None)
        return split(*args, **kwargs)

    monkeypatch.setattr(glue, "mv_sequence", counting)
    monkeypatch.setattr(glue, "build_splitting", splitting)
    monkeypatch.setattr(torsion, "build_splitting", splitting)
    models = bit_models()
    for (m1, r1), (m2, r2) in ((models[0], models[0]), (models[2], models[4]),
                               (models[6], models[8])):
        pair = analyze_disk_sum(m1, r1, m2, r2)
        built.clear()
        splits.clear()
        report = verify_mv_identity(pair)
        assert report.passed, (m1.name, m2.name)
        assert len(built) == 1
        # the four complexes and the sequence, each split once
        assert len(splits) == 5
        assert solve_calls == []


# the factors of the benchmark's chain workload, in its order
CHAIN = (circle(), wedge_of_circles(2), torus(), wedge_of_circles(3),
         circle(), torus(), bouquet(), wedge_of_circles(2))


def test_chain_solves_nothing(solve_calls, monkeypatch):
    built, transported, lstsq_calls = [], [], []
    build, transport, lstsq = glue.gluing_torsion, glue.transport_bases, np.linalg.lstsq

    def building(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    def transporting(*args, **kwargs):
        transported.append(transport(*args, **kwargs))
        return transported[-1]

    def counting(*args, **kwargs):
        lstsq_calls.append(None)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(glue, "gluing_torsion", building)
    monkeypatch.setattr(glue, "transport_bases", transporting)
    monkeypatch.setattr(np.linalg, "lstsq", counting)
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
    # one corrective term per step, each taken from its degree-0 block; the
    # transported bases and the carried basis of H(M) enter every corrective
    # term and factor torsion as determinants
    assert len(built) == len(CHAIN) - 1
    assert solve_calls == []
    # sections come from the SVDs of homology and class coordinates are
    # projections, so nothing is solved in the least-squares sense
    assert lstsq_calls == []
    # the step that unfolds factor k glues the partial sum of CHAIN[:k] to
    # CHAIN[k], and records one determinant per degree of each
    assert len(transported) == len(report.steps)
    for t, k in zip(transported, range(len(CHAIN) - 1, 0, -1)):
        assert len(t.dets_m1) == max(cw.dimension for cw in CHAIN[:k]) + 1
        assert len(t.dets_m2) == CHAIN[k].dimension + 1
