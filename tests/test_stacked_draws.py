"""The stacked draws of ``verify_mv_identity``: ``rescaled`` on
length-N arrays of determinants, taken of (N, k, k) stacks of mixes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionworks import glue
from torsionworks.algebra import Representation
from torsionworks.errors import SplittingError
from torsionworks.glue import (
    analyze_disk_sum,
    corrective_term,
    mv_sequence,
    verify_mv_identity,
)
from torsionworks.linalg import random_mixes, random_recombination
from torsionworks.scenes import circle, point, wedge_of_circles
from torsionworks.torsion import rebased, rescaled, torsion_of

from conftest import bouquet, diag_rep, random_sl2, torus


def generic_wedge(g, rng):
    return wedge_of_circles(g), Representation.from_images([random_sl2(rng) for _ in range(g)])


def models():
    """Point, circle, generic wedge_2 and wedge_3, torus and bouquet."""
    rng = np.random.default_rng(17)
    return [
        (point(), Representation.trivial(0)),
        (circle(), diag_rep(2.0)),
        generic_wedge(2, rng),
        generic_wedge(3, rng),
        (torus(), diag_rep(2.0, 3.0)),
        (bouquet(), diag_rep(2.5)),
    ]


MODELS = models()
WEDGE_2, WEDGE_3 = MODELS[2], MODELS[3]


def glued(first, second):
    (m1, r1), (m2, r2) = first, second
    return analyze_disk_sum(m1, r1, m2, r2)


def complexes(pair):
    return ((pair.tc1, pair.hd1), (pair.tc2, pair.hd2),
            (pair.tcm, pair.hdm), (pair.tcd, pair.hdd))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, len(MODELS) - 1), st.integers(1, 6), st.sampled_from([1, -1]),
       st.integers(0, 2**32 - 1))
def test_rescaled_by_stacked_determinants_equals_rebased_slices(model, n, sign, seed):
    cw, rep = MODELS[model]
    pair = glued((cw, rep), MODELS[1])
    rng = np.random.default_rng(seed)
    for tc, hd in complexes(pair):
        canonical = torsion_of(tc, hd)
        stacks = random_mixes(hd.betti, n, rng)
        stacked = rescaled(canonical, [np.linalg.det(s) for s in stacks], sign)
        assert np.shape(stacked.value) == (n,)
        for i in range(n):
            alone = rebased(canonical, [s[i] for s in stacks], sign)
            assert stacked.value[i] == pytest.approx(alone.value, rel=1e-15, abs=0)
            for d_stack, d_alone in zip(stacked.per_degree_determinants,
                                        alone.per_degree_determinants):
                assert np.shape(d_stack) == (n,)
                assert d_stack[i] == pytest.approx(d_alone, rel=1e-15, abs=0)


@pytest.mark.parametrize("entry", [0.0, np.nan, np.inf, complex(0, -np.inf)])
@pytest.mark.parametrize("draw", [0, 3])
def test_singular_determinant_in_an_array_names_the_degree(entry, draw):
    pair = glued(MODELS[1], MODELS[1])
    assert pair.hdm.betti == [1, 4]
    dets = np.linalg.det(random_mixes([4], 5, np.random.default_rng(3))[0])
    dets[draw] = entry
    with pytest.raises(SplittingError, match="degree 1: singular change of basis"):
        rescaled(torsion_of(pair.tcm, pair.hdm), [None, dets], 1)
    seq = mv_sequence(pair)
    with pytest.raises(SplittingError, match="degree 3: singular change of basis"):
        rescaled(seq.canonical, [None, None, None, dets], -1)


def test_zero_block_in_a_stack_is_a_zero_determinant():
    pair = glued(MODELS[1], MODELS[1])
    stack = random_mixes([4], 5, np.random.default_rng(3))[0]
    stack[2, :, 0] = 0.0
    with pytest.raises(SplittingError, match="degree 1: singular change of basis"):
        rescaled(torsion_of(pair.tcm, pair.hdm), [None, np.linalg.det(stack)], 1)


def test_draws_take_as_many_determinants_as_one(monkeypatch):
    calls = []
    det = np.linalg.det

    def counting(*args, **kwargs):
        calls.append(None)
        return det(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "det", counting)
    pair = glued(WEDGE_3, WEDGE_2)
    counts = []
    for draws in (1, 64):
        calls.clear()
        verify_mv_identity(pair, draws=draws, seed=2)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def direct_sum(a, b):
    out = np.zeros((len(a) + len(b),) * 2, dtype=complex)
    out[:len(a), :len(a)], out[len(a):, len(a):] = a, b
    return out


def per_draw_residuals(pair, draws, seed):
    """The residuals draw by draw, each draw's coordinates one 2-D block per
    degree, drawn in verify_mv_identity's rng order, and the corrective
    term taken of the sequence's bases, the factors' block-diagonally."""
    rng = np.random.default_rng(seed)
    seq = mv_sequence(pair)
    canonical = [torsion_of(tc, hd) for tc, hd in complexes(pair)]
    out = []
    for _ in range(draws):
        mixes = [random_recombination([np.eye(k, dtype=complex) for k in hd.betti], rng)
                 for _, hd in complexes(pair)]
        t1, t2, tm, td = (rebased(t, c, 1).value for t, c in zip(canonical, mixes))
        c1, c2, cm, cd = mixes
        bases = []
        for p, c in enumerate(cm):
            a, b = (f[p] if p < len(f) else np.zeros((0, 0)) for f in (c1, c2))
            bases += [c, direct_sum(a, b), cd[p] if p < len(cd) else None]
        th = corrective_term(seq, bases).value
        out.append(abs(t1 * t2 - tm * td * th) / abs(t1 * t2))
    return out


def canonical_residual(pair):
    t1, t2, tm, td = (torsion_of(tc, hd).value for tc, hd in complexes(pair))
    th = mv_sequence(pair).canonical.value
    return abs(t1 * t2 - tm * td * th) / abs(t1 * t2)


@pytest.mark.parametrize("first, second", [(0, 0), (1, 0), (2, 4), (3, 2), (5, 1), (4, 5)])
def test_residuals_are_per_draw_and_canonical(first, second):
    pair = glued(MODELS[first], MODELS[second])
    report = verify_mv_identity(pair, draws=12, seed=7)
    assert len(report.residuals) == report.draws == 12
    assert all(type(r) is float for r in report.residuals)
    assert report.residuals == verify_mv_identity(pair, draws=12, seed=7).residuals
    assert report.residuals == pytest.approx(per_draw_residuals(pair, 12, 7), rel=0, abs=1e-13)
    # in exact arithmetic no draw moves the residual off the canonical one
    assert report.residuals == pytest.approx([canonical_residual(pair)] * 12, rel=0, abs=1e-12)


def test_sign_flip_reads_two_in_every_draw():
    pair = glued(WEDGE_3, WEDGE_2)
    report = verify_mv_identity(pair, draws=40, seed=1)
    assert not report.passed
    assert canonical_residual(pair) == pytest.approx(2.0, abs=1e-12)
    assert report.residuals == pytest.approx([2.0] * 40, rel=0, abs=1e-12)


def test_chunks_do_not_change_the_residuals(monkeypatch):
    pair = glued(WEDGE_2, MODELS[4])
    whole = verify_mv_identity(pair, draws=11, seed=4)
    monkeypatch.setattr(glue, "DRAW_CHUNK", 4)
    split = verify_mv_identity(pair, draws=11, seed=4)
    assert split.residuals == whole.residuals
    assert verify_mv_identity(pair, draws=3, seed=4).residuals == whole.residuals[:3]


def test_random_mixes_are_single_draws_in_order():
    sizes = [2, 0, 3]
    stacks = random_mixes(sizes, 4, np.random.default_rng(8))
    rng = np.random.default_rng(8)
    for i in range(4):
        for k, stack in zip(sizes, stacks):
            assert stack.shape == (4, k, k)
            if k:
                mix = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
                mix += 3.0 * np.eye(k)
                assert stack[i].tobytes() == mix.tobytes()
