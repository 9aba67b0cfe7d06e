"""``gluing_torsion``: a chain step's corrective term from the degree-0
block of its sequence, against the torsion of the whole sequence, and
the exactness checks of the sequence that it restates."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionworks import glue, linalg
from torsionworks.algebra import Representation, Target
from torsionworks.errors import RankAmbiguityError, SequenceError
from torsionworks.glue import (
    analyze_disk_sum,
    gluing_torsion,
    mv_sequence,
    transport_bases,
    verify_multiplicativity,
)
from torsionworks.scenes import circle, point, wedge_of_circles

from conftest import bouquet, diag_rep, random_sl2, torus

REL = 1e-12


def generic(rng, generators):
    return Representation.from_images([random_sl2(rng) for _ in range(generators)])


def models():
    """The point; a diagonal, a generic and a PSL circle; a generic wedge_2
    and wedge_3; a diagonal wedge_2; the torus and the bouquet."""
    rng = np.random.default_rng(23)
    return [
        (point(), Representation.trivial(0)),
        (circle(), diag_rep(2.0)),
        (circle(), generic(rng, 1)),
        (circle(), Representation(Target.PSL, 2, (random_sl2(rng),))),
        (wedge_of_circles(2), generic(rng, 2)),
        (wedge_of_circles(3), generic(rng, 3)),
        (wedge_of_circles(2), diag_rep(3.0, 1.5)),
        (torus(), diag_rep(2.0, 3.0)),
        (bouquet(), diag_rep(2.5)),
    ]


MODELS = models()
# a PSL factor glues only to a PSL factor
PAIRS = [(i, j) for i, j in itertools.product(range(len(MODELS)), repeat=2)
         if MODELS[i][1].target == MODELS[j][1].target]


def relative(a, b):
    return abs(a - b) / abs(b)


def glued(first, second):
    (m1, r1), (m2, r2) = MODELS[first], MODELS[second]
    return analyze_disk_sum(m1, r1, m2, r2)


def assert_sequence_torsion(pair):
    """``gluing_torsion`` is the sequence's torsion, sign included, and its
    per-degree determinants are one per space and give its value."""
    block, whole = gluing_torsion(pair), mv_sequence(pair).canonical
    assert relative(block.value, whole.value) <= REL
    dets = block.per_degree_determinants
    assert len(dets) == len(whole.per_degree_determinants)
    product = complex(1.0)
    for q, det in enumerate(dets):
        product *= det ** ((-1) ** (q + 1))
    assert relative(product, block.value) <= REL


def test_every_ordered_pair_of_the_models_is_covered():
    assert len(PAIRS) == 65


@pytest.mark.parametrize("first, second", PAIRS)
def test_degree0_block_gives_the_sequence_torsion(first, second):
    assert_sequence_torsion(glued(first, second))


def test_point_sum_point_is_exact():
    # the named split vectors keep the clean pair exact, as mv_sequence's do
    assert gluing_torsion(glued(0, 0)).value == 1.0


@pytest.mark.parametrize("first, second", [(1, 4), (4, 5), (6, 8), (7, 1)])
def test_transport_cancels_the_degree0_corrective_term(first, second):
    # rescaled by the determinants transport_bases assigns, the block's
    # torsion is 1, as the whole sequence's is
    pair = glued(first, second)
    h_factors = (pair.hd1.h_basis, pair.hd2.h_basis)
    transported = transport_bases(gluing_torsion(pair), h_factors)
    assert transported.corrective.value == pytest.approx(1.0, rel=REL)
    reference = transport_bases(mv_sequence(pair).canonical, h_factors)
    assert relative(transported.residual, reference.residual) <= REL


# the factors of the benchmark's chain workload, in its order
CHAIN = (circle(), wedge_of_circles(2), torus(), wedge_of_circles(3),
         circle(), torus(), bouquet(), wedge_of_circles(2))


def drawn_diagonal(rng, generators):
    """Eigenvalues of modulus in [1.3, 2.2] and uniform phase, as the chain
    workload draws them."""
    modulus = rng.uniform(1.3, 2.2, size=generators)
    return diag_rep(*(modulus * np.exp(2j * np.pi * rng.uniform(size=generators))))


@pytest.mark.parametrize("seed", range(3))
def test_degree0_block_on_every_step_of_the_chain_shape(seed):
    rng = np.random.default_rng(seed)
    reps = [drawn_diagonal(rng, cw.presentation.generator_count) for cw in CHAIN]
    steps = list(glue._glued_chain(list(CHAIN), reps, linalg.DEFAULT_TOL))
    assert len(steps) == len(CHAIN) - 1
    for pair in steps:
        assert_sequence_torsion(pair)


def whole_sequence_chain(factors, reps):
    """``verify_multiplicativity`` with each corrective term taken from the
    whole sequence, as it was taken before the degree-0 block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(glue, "gluing_torsion",
                      lambda pair, tol: mv_sequence(pair, tol=tol).canonical)
        return verify_multiplicativity(factors, reps)


SHAPES = {"wedge_1": circle, "wedge_2": lambda: wedge_of_circles(2),
          "wedge_3": lambda: wedge_of_circles(3), "torus": torus, "bouquet": bouquet}


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(SHAPES)), st.booleans()),
                min_size=2, max_size=5),
       st.integers(0, 2 ** 32 - 1))
def test_chains_of_two_to_five_factors(shapes, seed):
    # a torus needs commuting images, so it is always diagonal
    rng = np.random.default_rng(seed)
    factors, reps = [], []
    for name, diagonal in shapes:
        cw = SHAPES[name]()
        k = cw.presentation.generator_count
        factors.append(cw)
        reps.append(drawn_diagonal(rng, k) if diagonal or name == "torus"
                    else generic(rng, k))
    for pair in glue._glued_chain(factors, reps, linalg.DEFAULT_TOL):
        assert_sequence_torsion(pair)
    report = verify_multiplicativity(factors, reps)
    reference = whole_sequence_chain(factors, reps)
    assert relative(report.total_torsion, reference.total_torsion) <= REL
    for got, want in zip(report.factor_torsions, reference.factor_torsions):
        assert relative(got, want) <= REL
    assert report.passed == reference.passed


# ---------------------------------------------------------------------------
# the exactness checks the degree-0 block restates
# ---------------------------------------------------------------------------

def with_factor(pair, which, **changes):
    """``pair`` with fields of the homology data of factor ``which`` replaced."""
    field = ("hd1", "hd2")[which]
    return dataclasses.replace(pair, **{field: dataclasses.replace(getattr(pair, field),
                                                                   **changes)})


def test_rank_too_close_to_call_names_degree_0(monkeypatch):
    # circle # circle at diagonal images: alpha_* is 2 x 3 of rank 1; its
    # second singular value is moved into the ambiguity window
    pair = glued(1, 1)
    svd_rank = linalg.svd_rank

    def ambiguous(sv, tol, check_ambiguity=False):
        sv = sv.copy()
        sv[-1] = 2 * tol * sv[0]
        return svd_rank(sv, tol, check_ambiguity)

    monkeypatch.setattr(linalg, "svd_rank", ambiguous)
    with pytest.raises(SequenceError, match="degree 0: singular values .* rank cutoff") as info:
        gluing_torsion(pair)
    assert not isinstance(info.value, RankAmbiguityError)


@pytest.mark.parametrize("which", [0, 1])
def test_lift_with_a_section_defect_names_degree_1(which):
    # generic wedges have no degree-0 homology, so every disk class lifts
    pair = glued(4, 5)
    hd = (pair.hd1, pair.hd2)[which]
    doubled = [2 * hd.section[0]] + hd.section[1:]
    with pytest.raises(SequenceError, match=f"degree 1: the lift of a disk class in "
                                            f"factor {which + 1} has section defect"):
        gluing_torsion(with_factor(pair, which, section=doubled))


@pytest.mark.parametrize("first, second, degree", [(4, 5, 1), (8, 7, 1), (8, 7, 2),
                                                   (1, 6, 0)])
def test_assembled_column_off_the_cycles_names_its_degree(first, second, degree):
    pair = glued(first, second)
    h = [b.copy() for b in pair.hd2.h_basis]
    # a unit vector along a coordinate that no cycle of this degree spans
    off = np.linalg.svd(pair.hd2.cycle_basis[degree].conj().T)[2][-1].conj()
    h[degree][:, 0] += 1e-3 * off
    with pytest.raises(SequenceError, match=f"degree {degree}: vector is not a cycle class"):
        gluing_torsion(with_factor(pair, 1, h_basis=h))


@pytest.mark.parametrize("first, second, degree", [(4, 5, 1), (7, 8, 2)])
def test_missing_class_names_its_degree(first, second, degree):
    pair = glued(first, second)
    h = list(pair.hd2.h_basis)
    h[degree] = h[degree][:, 1:]
    betti = pair.hdm.betti[degree]
    with pytest.raises(SequenceError, match=f"degree {degree}: {betti - 1} assembled "
                                            f"classes for betti {betti}"):
        gluing_torsion(with_factor(pair, 1, h_basis=h))


def test_degree0_class_count_names_degree_0():
    # point # point, with the second point's homology data claiming one of
    # its three degree-0 directions as a boundary: alpha_* still injects,
    # and the complement of its image is 2 classes short of H_0(M)
    pair = glued(0, 0)
    h = pair.hd2.h_basis[0]
    point = dict(h_basis=[h[:, :2]], boundary_basis=[h[:, 2:]], section=[np.zeros((0, 1))])
    with pytest.raises(SequenceError, match="degree 0: 2 assembled classes for betti 3"):
        gluing_torsion(with_factor(pair, 1, **point))


@pytest.mark.parametrize("first, second, degree", [(4, 5, 1), (7, 8, 2), (7, 8, 3)])
def test_dependent_classes_name_their_degree(first, second, degree):
    pair = glued(first, second)
    h = [b.copy() for b in pair.hd2.h_basis]
    h[degree][:, 1] = h[degree][:, 0]
    with pytest.raises(SequenceError,
                       match=f"degree {degree}: the assembled classes are dependent"):
        gluing_torsion(with_factor(pair, 1, h_basis=h))
