"""One factorization per boundary map, one exactness check per sequence."""

import sys

import numpy as np
import pytest

from torsionworks import glue, linalg, torsion
from torsionworks.algebra import Representation
from torsionworks.complexes import TwistedChainComplex, homology, twist
from torsionworks.errors import HomologyError, SequenceError, TorsionworksError
from torsionworks.scenes import circle, wedge_of_circles

from conftest import bouquet, diag_rep, random_sl2, torus


@pytest.mark.parametrize("name", ["circle", "wedge", "torus"])
def test_homology_factors_each_boundary_map_once(name, basis, rng, monkeypatch):
    cw, rep = {
        "circle": (circle(), diag_rep(2.0)),
        "wedge": (wedge_of_circles(2),
                  Representation.from_images([random_sl2(rng), random_sl2(rng)])),
        "torus": (torus(), diag_rep(2.0, 3.0)),
    }[name]
    tc = twist(cw, rep, basis)
    factored = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        factored.append(np.array(a, copy=True))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    homology(tc)
    for p in range(1, tc.dimension + 1):
        d = tc.boundary(p)
        times = sum(a.shape == d.shape and np.array_equal(a, d) for a in factored)
        assert times == 1, f"boundary {p} factored {times} times"


def test_exactness_checked_once_per_sequence(monkeypatch):
    counts = {"mv_sequence": 0, "verify_exactness": 0, "gluing_torsion": 0}

    def counting(name):
        original = getattr(glue, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(glue, name, wrapper)

    for name in counts:
        counting(name)
    factors = [circle(), wedge_of_circles(2), torus()]
    reps = [diag_rep(2.0), diag_rep(3.0, 1.5), diag_rep(2.0, 3.0)]
    report = glue.verify_multiplicativity(factors, reps)
    assert report.passed
    # a chain builds no sequence: each step takes its corrective term from
    # the degree-0 block, which restates the exactness of its sequence
    assert counts == {"mv_sequence": 0, "verify_exactness": 0, "gluing_torsion": 2}

    # verify-mv checks the exactness of each sequence it builds once
    counts.update(dict.fromkeys(counts, 0))
    assert glue.verify_mv_identity(glue.analyze_disk_sum(factors[0], reps[0],
                                                         factors[1], reps[1])).passed
    assert counts["verify_exactness"] == counts["mv_sequence"]


def test_chain_twists_and_factors_each_complex_once(monkeypatch):
    counts = {"twist": 0, "homology": 0, "build_splitting": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(glue, "twist")
    counting(glue, "homology")
    counting(glue, "build_splitting")
    counting(torsion, "build_splitting")

    # sections come from the SVDs of homology and the gluing maps are read
    # off orthonormal bases, so no least-squares problem is solved at all
    lstsq_calls = []
    lstsq = np.linalg.lstsq

    def recording_lstsq(a, *args, **kwargs):
        lstsq_calls.append(np.shape(a))
        return lstsq(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", recording_lstsq)
    factors = [circle(), wedge_of_circles(2), torus(), bouquet()]
    reps = [diag_rep(2.0), diag_rep(3.0, 1.5), diag_rep(2.0, 3.0), diag_rep(2.5)]
    report = glue.verify_multiplicativity(factors, reps)
    assert report.passed
    assert lstsq_calls == []
    n = len(factors)
    # each factor and the disk once; the glued spaces are placed, not twisted
    assert counts["twist"] == n + 1
    # the n factors, the n - 1 glued spaces and the disk; no sequence is
    # built, so none is factored or split
    assert counts["homology"] == 2 * n
    # one torsion per complex
    assert counts["build_splitting"] == 2 * n

    # a step's left factor is the glued space of the step unfolded after it
    assert report.steps[0].total_torsion == report.total_torsion
    for step, after in zip(report.steps, report.steps[1:]):
        assert after.total_torsion == step.left_torsion
    assert report.factor_torsions[0] == report.steps[-1].left_torsion
    assert len({step.disk_torsion for step in report.steps}) == 1


def test_torsion_and_gluing_solve_and_invert_nothing(basis, rng, monkeypatch):
    # one SVD per boundary map is the only factorization: no solve,
    # least-squares solve, pseudo-inverse or inverse, except the inverses
    # of the word images that twisting conjugates by, in ``algebra``
    calls = []

    def recording(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls.append((name, sys._getframe(1).f_globals["__name__"]))
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)

    wedge = Representation.from_images([random_sl2(rng), random_sl2(rng)])
    # the identity of a generic wedge_2 glued to a torus still flips its
    # sign, so the torus comes first
    factors = [torus(), wedge_of_circles(2), bouquet(), circle()]
    reps = [diag_rep(2.0, 3.0), wedge, diag_rep(2.5), diag_rep(1.5)]
    tc = twist(torus(), reps[0], basis)
    hd = homology(tc)
    pair = glue.analyze_disk_sum(factors[0], reps[0], factors[1], reps[1])
    for name in ("solve", "lstsq", "pinv", "inv"):
        recording(name)

    torsion.torsion_of(tc, hd)
    assert glue.verify_mv_identity(pair).passed
    assert calls == []
    assert glue.verify_multiplicativity(factors, reps).passed
    assert calls and set(calls) == {("inv", "torsionworks.algebra")}


def test_complement_in_span_inside_subspace():
    subspace = np.eye(3, dtype=complex)[:, :2]
    span = subspace @ np.array([[1.0, 2.0], [0.5, -1.0]], dtype=complex)
    with pytest.raises(HomologyError) as info:
        linalg.complement_in(span, subspace, 1, linalg.DEFAULT_TOL)
    assert isinstance(info.value, TorsionworksError)


def test_homology_error_names_degree(basis, monkeypatch):
    def failing(span, subspace, count, tol):
        raise HomologyError("too few directions")

    monkeypatch.setattr(linalg, "complement_in", failing)
    with pytest.raises(HomologyError, match="homology in degree 0"):
        homology(twist(circle(), diag_rep(2.0), basis))


def test_homology_rejects_more_boundaries_than_cycles():
    one = np.eye(1, dtype=complex)
    tc = TwistedChainComplex(1, [1, 1, 1], [one, one])
    with pytest.raises(HomologyError, match="homology in degree 1"):
        homology(tc)


def test_verify_exactness_rejects_image_larger_than_kernel():
    # the composition 1e-8 passes the composition-zero check, but space 1
    # has a 0-dimensional kernel and a 1-dimensional incoming image
    small = np.array([[1e-4]], dtype=complex)
    seq = TwistedChainComplex(1, [1, 1, 1], [small, small])
    with pytest.raises(SequenceError, match="homology in degree 1") as info:
        glue.verify_exactness(seq)
    assert isinstance(info.value, TorsionworksError)


def test_torsion_submodule_is_importable():
    from torsionworks import torsion

    assert callable(torsion.torsion_of)
    assert callable(torsion.torsion)


def test_chain_takes_no_matrix_two_norm(monkeypatch):
    two_norms = []
    norm = np.linalg.norm

    def recording_norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            two_norms.append(np.shape(x))
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", recording_norm)
    factors = [circle(), wedge_of_circles(2), torus(), bouquet()]
    reps = [diag_rep(2.0), diag_rep(3.0, 1.5), diag_rep(2.0, 3.0), diag_rep(2.5)]
    assert glue.verify_multiplicativity(factors, reps).passed
    assert two_norms == []


def count_svds(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def generic_diagonal_rep(rng, generators):
    """Eigenvalues of modulus in [1.3, 2.2] and uniform phase, as the benchmark draws."""
    modulus = rng.uniform(1.3, 2.2, size=generators)
    return diag_rep(*(modulus * np.exp(2j * np.pi * rng.uniform(size=generators))))


def fifteen_factors():
    """12 tori, wedge_2, wedge_3 and the bouquet glued in that order."""
    total = torus()
    for factor in [torus()] * 11 + [wedge_of_circles(2), wedge_of_circles(3), bouquet()]:
        total = glue.disk_sum(total, factor).total
    return total


@pytest.mark.parametrize("make", [torus, bouquet, fifteen_factors])
def test_canonical_split_bases_take_no_svd(make, basis, monkeypatch):
    # b and h are orthonormal and the min-norm sections normalize to right
    # singular vectors, so the Gram certificate decides every check
    cw = make()
    rng = np.random.default_rng(15)
    tc = twist(cw, generic_diagonal_rep(rng, cw.presentation.generator_count), basis)
    hd = homology(tc)
    svds = count_svds(monkeypatch)
    torsion.torsion_of(tc, hd)
    assert svds == []


def test_chain_split_bases_take_no_svd(monkeypatch):
    # an 8-factor chain splits 8 factors, 7 glued spaces, the disk and 7
    # sequences; homology takes 106 SVDs, and an SVD per split-basis check
    # would add 137
    factors = [circle(), wedge_of_circles(2), torus(), wedge_of_circles(3),
               circle(), torus(), bouquet(), wedge_of_circles(2)]
    rng = np.random.default_rng(16)
    reps = [generic_diagonal_rep(rng, f.presentation.generator_count) for f in factors]
    svds = count_svds(monkeypatch)
    assert glue.verify_multiplicativity(factors, reps).passed
    assert len(svds) <= 125
