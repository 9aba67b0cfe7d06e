"""A chain is laid out once: ``verify_multiplicativity`` against gluing it
pair by pair, with ``disk_sum`` and ``placed_complex`` at every step."""

import numpy as np
import pytest

from torsionworks import glue
from torsionworks.algebra import (
    GroupPresentation,
    Representation,
    Target,
    orthonormal_sl2_basis,
)
from torsionworks.complexes import CwComplexData, homology, twist
from torsionworks.glue import (
    GluedPair,
    disk_sum,
    free_product_rep,
    verify_multiplicativity,
)
from torsionworks.linalg import DEFAULT_TOL
from torsionworks.scenes import circle, disk, wedge_of_circles

from conftest import bouquet, diag_rep, placed_complex, random_sl2, sphere, torus


def factored(cw, rep, tol):
    tc = twist(cw, rep, orthonormal_sl2_basis(), tol)
    return tc, homology(tc, tol)


def pairwise_pairs(factors, reps, tol=DEFAULT_TOL):
    """The pairs of a chain glued one step at a time: the partial sum's CW
    data and free-product representation are built by ``disk_sum`` and
    ``free_product_rep``, which check both operands, and its complex is
    placed from the left factor's by ``placed_complex``."""
    m1, rep1, prev = factors[0], reps[0], None
    for m2, rep2 in zip(factors[1:], reps[1:]):
        ds = disk_sum(m1, m2)
        rep = free_product_rep(rep1, rep2, ds)
        if prev is None:
            tc1, hd1 = factored(m1, rep1, tol)
            tcd, hdd = factored(disk(), Representation.trivial(0, rep.n, rep1.target), tol)
        else:
            tc1, hd1, tcd, hdd = prev.tcm, prev.hdm, prev.tcd, prev.hdd
        tc2, hd2 = factored(m2, rep2, tol)
        tcm = placed_complex(ds, tc1, tc2)
        prev = GluedPair(ds.cell_maps, tc1, tc2, tcm, tcd, hd1, hd2, homology(tcm, tol), hdd)
        yield prev
        m1, rep1 = ds.total, rep


def run_chain(factors, reps, chain):
    """``verify_multiplicativity`` gluing with ``chain``, and the pairs it
    glued; an error is returned as its type and message."""
    pairs = []

    def recording(*args):
        for pair in chain(*args):
            pairs.append(pair)
            yield pair

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(glue, "_glued_chain", recording)
        try:
            return verify_multiplicativity(factors, reps), pairs
        except Exception as exc:  # the error itself is what is compared
            return (type(exc), str(exc)), pairs


def assert_same_as_pairwise(factors, reps):
    report, pairs = run_chain(factors, reps, glue._glued_chain)
    reference, ref_pairs = run_chain(factors, reps, pairwise_pairs)
    assert report == reference
    assert len(pairs) == len(ref_pairs)
    for pair, ref in zip(pairs, ref_pairs):
        assert pair.cell_maps == ref.cell_maps
        assert pair.tcm.dims == ref.tcm.dims
        for placed, glued in zip(pair.tcm.mats, ref.tcm.mats, strict=True):
            assert placed.shape == glued.shape and placed.dtype == glued.dtype
            assert placed.tobytes() == glued.tobytes()
    return report


def chain_shape_reps(seed):
    """Diagonal representations of the benchmark's chain shape, with
    |lambda| in [1.3, 2.2] and a uniform phase."""
    rng = np.random.default_rng(seed)
    factors = [circle(), wedge_of_circles(2), torus(), wedge_of_circles(3),
               circle(), torus(), bouquet(), wedge_of_circles(2)]
    counts = [m.presentation.generator_count for m in factors]
    reps = [diag_rep(*(rng.uniform(1.3, 2.2, k) * np.exp(2j * np.pi * rng.uniform(size=k))))
            for k in counts]
    return factors, reps


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_chain_shape_reports_equal_the_pairwise_gluing(seed):
    report = assert_same_as_pairwise(*chain_shape_reps(seed))
    assert report.passed


def test_chain_through_an_empty_layer_equals_the_pairwise_gluing():
    # the first partial sum has no 1-cells, and S^2 adds a 2-cell to none
    factors = [sphere(), sphere(), circle(), torus(), sphere()]
    reps = [Representation.trivial(0), Representation.trivial(0), diag_rep(2.0),
            diag_rep(2.0, 3.0), Representation.trivial(0)]
    assert assert_same_as_pairwise(factors, reps).passed


def test_forty_circles_at_distinct_eigenvalues_equal_the_pairwise_gluing():
    lams = range(2, 42)
    report = assert_same_as_pairwise([circle() for _ in lams],
                                     [diag_rep(float(lam)) for lam in lams])
    assert report.passed


def two_points():
    return CwComplexData(name="2pts", presentation=GroupPresentation.free(0),
                         cells=[2], boundaries=[])


def no_zero_cell():
    return CwComplexData(name="empty", presentation=GroupPresentation.free(0),
                         cells=[0], boundaries=[])


def broken_chains():
    """Chains whose inputs fail, named by what fails first."""
    rng = np.random.default_rng(7)
    # the torus's relator does not hold for non-commuting images
    bad_lifts = (torus(), Representation.from_images([random_sl2(rng), random_sl2(rng)]))
    good = (circle(), diag_rep(2.0))
    cases = {
        "lifts before a disconnected factor": [good, bad_lifts, (two_points(), diag_rep())],
        "disconnected before bad lifts": [good, (two_points(), diag_rep()), bad_lifts],
        "lifts before a factor with no 0-cell": [good, bad_lifts, (no_zero_cell(), diag_rep())],
        "disconnected first factor": [(two_points(), diag_rep()), good, bad_lifts],
        "no 0-cell in the second factor": [good, (no_zero_cell(), diag_rep()), bad_lifts],
        "target": [good, good, (circle(), Representation(Target.PSL, 2, diag_rep(3.0).images))],
        "rank": [good, good, (circle(), Representation(Target.SL, 3, (np.eye(3),)))],
        "generator count": [good, (circle(), diag_rep(2.0, 3.0)), bad_lifts],
        # the counts add up at the first step, so the twist rejects the factor
        "too few images": [(circle(), diag_rep(2.0, 3.0)), (circle(), diag_rep()), good],
        "non-finite twist": [good, (circle(), diag_rep(1e160)), (two_points(), diag_rep())],
        "fewer representations": [good, good, (two_points(), None)],
    }
    for name, chain in cases.items():
        factors, reps = zip(*chain)
        reps = [rep for rep in reps if rep is not None]
        yield pytest.param(list(factors), reps, id=name)


@pytest.mark.parametrize("factors, reps", broken_chains())
def test_broken_chain_raises_the_pairwise_error(factors, reps):
    error, _ = run_chain(factors, reps, glue._glued_chain)
    reference, _ = run_chain(factors, reps, pairwise_pairs)
    assert isinstance(error, tuple), error
    assert error == reference


def test_a_chain_places_each_factor_once(monkeypatch):
    writes = []
    place = glue._place

    def recording(mats, tc, maps):
        writes.append(tc)
        place(mats, tc, maps)

    monkeypatch.setattr(glue, "_place", recording)
    factors, reps = chain_shape_reps(3)
    verify_multiplicativity(factors, reps)
    assert len(writes) == len(factors)
