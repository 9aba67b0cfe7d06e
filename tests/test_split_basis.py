"""The split basis of the Mayer-Vietoris sequence, the bases a chain
step's one transported scalar assigns, and the covariance by which every
other basis enters a torsion."""

import dataclasses
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
    gluing_torsion,
    mv_sequence,
    verify_exactness,
    verify_multiplicativity,
    verify_mv_identity,
)
from torsionworks.linalg import DEFAULT_TOL, random_recombination
from torsionworks.scenes import circle, point, wedge_of_circles
from torsionworks.torsion import rebased, rescaled, torsion_of

from conftest import assigned_determinant, bouquet, diag_rep, random_sl2, torus


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


def chain_step(m1, r1, m2, r2):
    """The one step of the two-factor chain M1 # M2."""
    return verify_multiplicativity([m1, m2], [r1, r2]).steps[0]


def transported_dense_bases(seq, pair, step):
    """The bases the chain ``step`` on ``pair`` assigns, as dense matrices
    in every space: identities, with the first vector of M2's block scaled
    by the one determinant the step assigns there."""
    p, det = assigned_determinant(pair, step)
    bases = identity_bases(seq)
    first = seq.dims[3 * p + 1] - pair.hd2.betti[p]
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
        transported = transported_dense_bases(seq, pair, chain_step(m1, r1, m2, r2))
        for bases in (None, drawn, transported):
            expected = split_in_bases(seq, bases or identity_bases(seq)).value
            assert rebased(seq.canonical, bases, -1).value == pytest.approx(expected, rel=1e-9), (
                m1.name, m2.name)
        # re-split in the bases the chain assigns, the corrective term is 1
        assert split_in_bases(seq, transported).value == pytest.approx(1.0, abs=1e-9), (
            m1.name, m2.name)


def test_transport_cancels_the_residual_on_the_right_factor(rng):
    # the corrective term in the canonical bases is cancelled by one
    # scalar: the determinant of M2's basis in its first degree with
    # homology, so M1, the partial sum of a chain, keeps its canonical bases
    for m1, r1, m2, r2 in gluing_models(rng):
        pair = analyze_disk_sum(m1, r1, m2, r2)
        kappa = mv_sequence(pair).canonical.value
        step = chain_step(m1, r1, m2, r2)
        p, det = assigned_determinant(pair, step)
        assert det == pytest.approx(kappa ** ((-1) ** (p + 1)), rel=1e-12), (m1.name, m2.name)
        assert step.left_torsion == torsion_of(pair.tc1, pair.hd1).value
        assert step.corrective == pytest.approx(1.0, abs=1e-9)


def reading_acyclic(patch, *fields):
    """Make each step of a chain read the factors ``fields`` ("hd1" for M1,
    "hd2" for M2) as acyclic where it places the corrective term: their
    betti numbers are zeroed in the glued pairs, and restored from their
    homology bases wherever a torsion is split."""
    glued_chain, split = glue._glued_chain, glue.torsion_of

    def zeroed(*args):
        for pair in glued_chain(*args):
            yield dataclasses.replace(pair, **{
                field: dataclasses.replace(getattr(pair, field),
                                           betti=[0] * len(getattr(pair, field).betti))
                for field in fields})

    def splitting(tc, hd, tol):
        betti = [h.shape[1] for h in hd.h_basis]
        return split(tc, dataclasses.replace(hd, betti=betti), tol=tol)

    patch.setattr(glue, "_glued_chain", zeroed)
    patch.setattr(glue, "torsion_of", splitting)


def test_transport_falls_back_to_the_left_factor(monkeypatch):
    # read as if M2 were acyclic, the corrective term goes on M1's first
    # degree with homology, and the partial sum carries the inverse power of
    # that determinant into the next step; with no factor homology at all
    # only a corrective term of 1 can be cancelled
    factors, reps = [circle()] * 3, [diag_rep(2.0), diag_rep(3.0), diag_rep(5.0)]
    pairs = list(glue._glued_chain(factors, reps, DEFAULT_TOL))
    kappa = mv_sequence(pairs[-1]).canonical.value
    assert kappa != 1
    with monkeypatch.context() as patch:
        reading_acyclic(patch, "hd2")
        report = verify_multiplicativity(factors, reps)
    assert report.passed
    assert report.relative_error <= 1e-12
    for step, pair in zip(report.steps, reversed(pairs)):
        assert step.relative_error <= 1e-12
        assert step.corrective == pytest.approx(1.0, abs=1e-9)
        assert step.right_torsion == torsion_of(pair.tc2, pair.hd2).value
    # the top step's partial sum takes a basis of H_0 of determinant kappa^-1
    top = report.steps[0]
    t1 = torsion_of(pairs[-1].tc1, pairs[-1].hd1).value
    assert top.left_torsion == pytest.approx(t1 / kappa, rel=1e-12)

    with monkeypatch.context() as patch:
        reading_acyclic(patch, "hd1", "hd2")
        with pytest.raises(TransportError, match="cannot be normalized: neither factor"):
            verify_multiplicativity(factors[:2], reps[:2])
        # point # point's corrective term is 1 to the bit
        step = verify_multiplicativity([point(), point()],
                                       [Representation.trivial(0)] * 2).steps[0]
    assert step.corrective == 1.0


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


def same_bits(a, b):
    return np.complex128(a).tobytes() == np.complex128(b).tobytes()


def test_assigned_bases_as_an_argument_change_no_bit():
    # the corrective term in the canonical bases is the sequence's own
    # torsion; an identity block multiplies by det I = 1 exactly, so dense
    # identities reproduce every printed number bit for bit, and the one
    # scalar a chain step carries gives the numbers that rescaling the
    # block's torsion and M2's by its determinant gives
    for (m1, r1), (m2, r2) in itertools.product(bit_models(), repeat=2):
        where = (m1.name, m2.name)
        pair = analyze_disk_sum(m1, r1, m2, r2)
        seq = mv_sequence(pair)
        for bases in (None, identity_bases(seq)):
            assert_same_bits(rebased(seq.canonical, bases, -1), seq.canonical, where)
        block = gluing_torsion(pair)
        p = next(p for p, b in enumerate(pair.hd2.betti) if b)
        det = block.value ** ((-1) ** (p + 1))
        step = chain_step(m1, r1, m2, r2)
        corrective = rescaled(block, [None] * (3 * p + 1) + [det], -1)
        right = rescaled(torsion_of(pair.tc2, pair.hd2), [None] * p + [det], 1)
        assert same_bits(step.corrective, corrective.value), where
        assert same_bits(step.right_torsion, right.value), where
        assert same_bits(step.left_torsion, torsion_of(pair.tc1, pair.hd1).value), where


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
    assert rebased(seq.canonical, bases, -1).value == pytest.approx(
        split_in_bases(seq, bases).value, rel=1e-9)


@pytest.mark.parametrize("space", [0, 2, 3])
@pytest.mark.parametrize("entry", [0.0, np.nan])
def test_singular_coordinates_are_an_input_error(space, entry):
    # space 0 is H_0(M), 2 is H_0(D) and 3 is H_1(M)
    seq = mv_sequence(analyze_disk_sum(circle(), diag_rep(2.0), circle(), diag_rep(3.0)))
    bases = [None] * len(seq.dims)
    bases[space] = np.eye(seq.dims[space], dtype=complex)
    bases[space][:, 0] = entry
    with pytest.raises(SplittingError, match=f"degree {space}: singular change of basis"):
        rebased(seq.canonical, bases, -1)


def test_missing_trailing_bases_are_the_identity():
    seq = mv_sequence(analyze_disk_sum(circle(), diag_rep(2.0), circle(), diag_rep(3.0)))
    for short in ([], [None], [None] * 3):
        assert_same_bits(rescaled(seq.canonical, short, 1), seq.canonical, short)
        assert_same_bits(rebased(seq.canonical, short, -1), seq.canonical, short)


def test_more_bases_than_degrees_are_an_input_error():
    seq = mv_sequence(analyze_disk_sum(circle(), diag_rep(2.0), circle(), diag_rep(3.0)))
    assert len(seq.dims) == 6
    calls = [
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
    built, rescalings, lstsq_calls = [], [], []
    build, rescale, lstsq = glue.gluing_torsion, torsion.rescaled, np.linalg.lstsq

    def building(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    def rescaling(*args, **kwargs):
        rescalings.append(None)
        return rescale(*args, **kwargs)

    def counting(*args, **kwargs):
        lstsq_calls.append(None)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(glue, "gluing_torsion", building)
    monkeypatch.setattr(torsion, "rescaled", rescaling)
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
    # change of basis travels as one scalar, so no basis is transported,
    # rescaled or rebased
    assert len(built) == len(report.steps) == len(CHAIN) - 1
    assert rescalings == []
    assert solve_calls == []
    # sections come from the SVDs of homology and class coordinates are
    # projections, so nothing is solved in the least-squares sense
    assert lstsq_calls == []
