"""``verify_mv_identity``'s one residual, in canonical bases: it is the
residual in every other choice of bases, and a singular change of basis
is rejected by the degree it sits in."""

import numpy as np
import pytest

from torsionworks.algebra import Representation
from torsionworks.errors import SplittingError
from torsionworks.glue import MvIdentityReport, analyze_disk_sum, mv_sequence, verify_mv_identity
from torsionworks.linalg import random_recombination
from torsionworks.scenes import circle, point, wedge_of_circles
from torsionworks.torsion import rebased, rescaled, torsion_of

from conftest import bouquet, diag_rep, drawn_residual, random_sl2, torus


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


def canonical_residual(pair):
    t1, t2, tm, td = (torsion_of(tc, hd).value for tc, hd in
                      ((pair.tc1, pair.hd1), (pair.tc2, pair.hd2),
                       (pair.tcm, pair.hdm), (pair.tcd, pair.hdd)))
    th = mv_sequence(pair).canonical.value
    return abs(t1 * t2 - tm * td * th) / abs(t1 * t2)


@pytest.mark.parametrize("first, second", [(0, 0), (1, 0), (2, 4), (3, 2), (5, 1), (4, 5)])
def test_residual_is_the_canonical_one_in_every_basis(first, second):
    pair = glued(MODELS[first], MODELS[second])
    report = verify_mv_identity(pair)
    assert type(report.residual) is float
    assert report.residual == canonical_residual(pair)
    assert report == verify_mv_identity(pair)
    # in exact arithmetic no change of basis moves the residual
    rng = np.random.default_rng(7)
    for _ in range(4):
        assert drawn_residual(pair, rng) == pytest.approx(report.residual, rel=0, abs=1e-12)


def test_sign_flip_reads_two():
    # the identity fails by a sign on (wedge_3, wedge_2), in every basis
    pair = glued(WEDGE_3, WEDGE_2)
    report = verify_mv_identity(pair)
    assert not report.passed
    assert report.residual == pytest.approx(2.0, rel=0, abs=1e-12)
    rng = np.random.default_rng(1)
    assert [drawn_residual(pair, rng) for _ in range(4)] == pytest.approx([2.0] * 4, rel=0,
                                                                          abs=1e-12)


def test_nan_residual_fails():
    report = MvIdentityReport(dims=[], residual=float("nan"), dimension_tail=(0, 0, 0, 0),
                              tolerance=1e-6)
    assert not report.passed


@pytest.mark.parametrize("entry", [0.0, np.nan, np.inf, complex(0, -np.inf)])
@pytest.mark.parametrize("degree", [1, 3])
def test_singular_determinant_names_the_degree(entry, degree):
    # degree 1 of the middle complex, or degree 3 of the long exact sequence
    pair = glued(MODELS[1], MODELS[1])
    assert pair.hdm.betti == [1, 4]
    if degree == 1:
        torsion, sign = torsion_of(pair.tcm, pair.hdm), 1
    else:
        torsion, sign = mv_sequence(pair).canonical, -1
    dets = [None] * degree + [complex(entry)]
    with pytest.raises(SplittingError, match=f"degree {degree}: singular change of basis"):
        rescaled(torsion, dets, sign)


def test_zero_column_is_a_singular_change_of_basis():
    pair = glued(MODELS[1], MODELS[1])
    mix = random_recombination([np.eye(4, dtype=complex)], np.random.default_rng(3))[0]
    mix[:, 0] = 0.0
    with pytest.raises(SplittingError, match="degree 1: singular change of basis"):
        rebased(torsion_of(pair.tcm, pair.hdm), [None, mix], 1)


def test_random_recombination_draws_each_mix_in_order():
    blocks = [np.eye(k, dtype=complex) for k in (2, 0, 3)]
    mixed = random_recombination(blocks, np.random.default_rng(8))
    rng = np.random.default_rng(8)
    for block, out in zip(blocks, mixed):
        k = block.shape[1]
        assert out.shape == block.shape
        if k:
            mix = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            mix += 3.0 * np.eye(k)
            assert out.tobytes() == (block @ mix).tobytes()
