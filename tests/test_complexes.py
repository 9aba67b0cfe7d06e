import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionworks.algebra import (
    GroupPresentation,
    GroupRingElement,
    GroupRingMatrix,
    Representation,
    Target,
    Word,
    killing_form,
    orthonormal_sl2_basis,
)
from torsionworks.complexes import (
    CwComplexData,
    TwistedChainComplex,
    change_lift,
    euler_characteristic,
    homology,
    twist,
    untwisted_betti0,
)
from torsionworks.errors import (
    DimensionMismatchError,
    InconsistentLiftsError,
    RankAmbiguityError,
    TorsionworksError,
)
from torsionworks.glue import disk_sum
from torsionworks.scenes import circle, disk, point, wedge_of_circles

from conftest import block_ad, bouquet, diag_rep, random_sl2, sphere, torus


# ---------------------------------------------------------------------------
# euler characteristic and connectivity
# ---------------------------------------------------------------------------

def test_euler_characteristics():
    assert euler_characteristic(point()) == 1
    assert euler_characteristic(circle()) == 0
    assert euler_characteristic(wedge_of_circles(2)) == -1
    assert euler_characteristic(torus()) == 0


def test_untwisted_betti0():
    assert untwisted_betti0(point()) == 1
    assert untwisted_betti0(circle()) == 1
    two_points = CwComplexData(name="2pts", presentation=GroupPresentation.free(0),
                               cells=[2], boundaries=[])
    assert untwisted_betti0(two_points) == 2
    assert untwisted_betti0(sphere()) == 1


# ---------------------------------------------------------------------------
# twisting
# ---------------------------------------------------------------------------

def test_twist_point_trivial(basis):
    tc = twist(point(), Representation.trivial(0), basis)
    assert tc.dims == [3]
    assert tc.boundary(1).shape == (3, 0)
    hd = homology(tc)
    assert hd.betti == [3]


def test_twist_circle_trivial_rep_zero_boundary(basis):
    tc = twist(circle(), Representation.trivial(1), basis)
    assert np.allclose(tc.boundary(1), np.zeros((3, 3)))
    assert homology(tc).betti == [3, 3]


def test_twist_circle_diag_eigenvalues(basis):
    tc = twist(circle(), diag_rep(2.0), basis)
    eig = np.sort_complex(np.linalg.eigvals(tc.boundary(1)))
    want = np.sort_complex(np.array([3.0, 0.0, -0.75]))
    assert np.allclose(eig, want, atol=1e-10)
    assert homology(tc).betti == [1, 1]


def test_twist_torus_composes_to_zero(basis):
    rep = diag_rep(2.0, 3.0)  # commuting images satisfy the relator
    tc = twist(torus(), rep, basis)
    assert np.linalg.norm(tc.boundary(1) @ tc.boundary(2)) < 1e-10
    hd = homology(tc)
    # chi = 0 forces the alternating betti sum to vanish
    assert hd.betti[0] - hd.betti[1] + hd.betti[2] == 0


def test_twist_rejects_relator_violation(basis):
    rng = np.random.default_rng(3)
    rep = Representation.from_images([random_sl2(rng), random_sl2(rng)])
    with pytest.raises(InconsistentLiftsError):
        twist(torus(), rep, basis)


@pytest.mark.parametrize("cw, rep", [(torus(), diag_rep(1e160, 2.0)),
                                     (circle(), diag_rep(1e160))], ids=["torus", "circle"])
def test_twist_rejects_non_finite_blocks(cw, rep, basis):
    # Ad(diag(1e160, 1e-160)) has an eigenvalue 1e320, which overflows; the
    # homology SVD of such a map does not converge
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TorsionworksError, match=r"^twist: boundary map 1 \(degree 1"):
            twist(cw, rep, basis)


# ---------------------------------------------------------------------------
# homology internals
# ---------------------------------------------------------------------------

def test_rank_nullity_every_degree(basis):
    for cw, rep in [
        (circle(), diag_rep(2.0)),
        (wedge_of_circles(2), diag_rep(2.0, 3.0)),
        (torus(), diag_rep(2.0, 3.0)),
    ]:
        tc = twist(cw, rep, basis)
        hd = homology(tc)
        for p, dim in enumerate(tc.dims):
            z = hd.cycle_basis[p].shape[1]
            b_prev = hd.boundary_basis[p - 1].shape[1] if p >= 1 else 0
            assert z + b_prev == dim


def test_h_basis_vectors_are_cycles(basis):
    tc = twist(wedge_of_circles(2), diag_rep(2.0, 3.0), basis)
    hd = homology(tc)
    for p in range(len(tc.dims)):
        h = hd.h_basis[p]
        if h.shape[1]:
            assert np.linalg.norm(tc.boundary(p) @ h) < 1e-10


def test_rank_ambiguity_detected():
    mats = [np.diag([1.0, 2e-8, 0.0]).astype(complex)]
    tc = TwistedChainComplex(d=3, dims=[3, 3], mats=mats)
    with pytest.raises(RankAmbiguityError) as err:
        homology(tc, tol=1e-8)
    assert err.value.spectrum is not None


def test_betti_independent_of_tolerance_in_clean_range(basis):
    tc = twist(wedge_of_circles(2), diag_rep(2.0, 3.0), basis)
    assert homology(tc, 1e-6).betti == homology(tc, 1e-10).betti


# ---------------------------------------------------------------------------
# conjugation functoriality
# ---------------------------------------------------------------------------

def test_conjugation_preserves_betti_and_conjugates_boundaries(basis, rng):
    rep = diag_rep(2.0, 3.0)
    cw = wedge_of_circles(2)
    g0 = random_sl2(rng)
    conj = rep.conjugated(g0)
    tc = twist(cw, rep, basis)
    tc_conj = twist(cw, conj, basis)
    assert homology(tc).betti == homology(tc_conj).betti
    u0 = block_ad(g0, cw.cells[0])
    u1 = block_ad(g0, cw.cells[1])
    assert np.allclose(tc_conj.boundary(1), u0 @ tc.boundary(1) @ np.linalg.inv(u1),
                       atol=1e-9)


# ---------------------------------------------------------------------------
# lift changes
# ---------------------------------------------------------------------------

def test_change_lift_preserves_betti(basis, rng):
    cw = wedge_of_circles(2)
    rep = diag_rep(2.0, 3.0)
    gamma = Word.from_letters([(0, 1), (1, -1)])
    lifted = change_lift(cw, 1, 1, gamma)
    assert lifted.cells == cw.cells
    tc = twist(cw, rep, basis)
    tc_lift = twist(lifted, rep, basis)
    assert homology(tc).betti == homology(tc_lift).betti


def test_change_lift_two_dim_still_composes(basis):
    cw = torus()
    rep = diag_rep(2.0, 3.0)
    gamma = Word.generator(0, 2)
    lifted = change_lift(cw, 1, 0, gamma)
    tc = twist(lifted, rep, basis)  # raises if the rewrite broke d.d = 0
    assert homology(tc).betti == homology(twist(cw, rep, basis)).betti


def test_change_lift_across_an_empty_layer(basis):
    # circle wedge S^3: the boundary of the 3-cell has no rows
    one = GroupRingElement.one()
    cw = CwComplexData(name="circle+S3", presentation=GroupPresentation.free(1),
                       cells=[1, 1, 0, 1],
                       boundaries=[GroupRingMatrix.from_rows([[GroupRingElement.gen(0) - one]]),
                                   GroupRingMatrix.zeros(1, 0), GroupRingMatrix.zeros(0, 1)])
    lifted = change_lift(cw, 3, 0, Word.generator(0))
    assert lifted.boundaries == cw.boundaries
    rep = diag_rep(2.0)
    assert homology(twist(lifted, rep, basis)).betti == [1, 1, 0, 3]


def test_degenerate_layer_allowed(basis):
    cw = CwComplexData(name="degenerate", presentation=GroupPresentation.free(0),
                       cells=[1, 0], boundaries=[GroupRingMatrix.zeros(1, 0)])
    tc = twist(cw, Representation.trivial(0), basis)
    assert tc.dims == [3, 0]
    assert homology(tc).betti == [3, 0]


# ---------------------------------------------------------------------------
# the batched twist against a per-word reference
# ---------------------------------------------------------------------------

def per_word_twist(cw, rep, basis):
    """The boundary maps of ``twist``, built one word and one entry at a time.

    A word's image is the product of its letters' powers from the
    identity; each adjoint entry is one ``killing_form`` call; each
    group-ring entry's block is summed term by term from zero and
    written with a slice.
    """
    d = basis.dim
    cache = {}

    def ad(word):
        if word not in cache:
            g = np.eye(rep.n, dtype=complex)
            for gen, exp in word.letters:
                g = g @ np.linalg.matrix_power(rep.images[gen], exp)
            ginv = np.linalg.inv(g)
            out = np.empty((d, d), dtype=complex)
            for j, aj in enumerate(basis.vectors):
                conj = g @ aj @ ginv
                for i, ai in enumerate(basis.vectors):
                    out[i, j] = killing_form(ai, conj)
            cache[word] = out
        return cache[word]

    mats = []
    for g in cw.boundaries:
        big = np.zeros((g.rows * d, g.cols * d), dtype=complex)
        for i in range(g.rows):
            for j in range(g.cols):
                entry = g.entry(i, j)
                if entry.is_zero:
                    continue
                block = np.zeros((d, d), dtype=complex)
                for word, coeff in entry.terms:
                    block += coeff * ad(word)
                big[i * d:(i + 1) * d, j * d:(j + 1) * d] = block
        mats.append(big)
    return mats


def assert_twist_matches_reference(cw, rep, basis):
    got = twist(cw, rep, basis).mats
    want = per_word_twist(cw, rep, basis)
    assert len(got) == len(want)
    for p, (a, b) in enumerate(zip(got, want), start=1):
        assert a.dtype == b.dtype and a.shape == b.shape, (cw.name, p)
        assert a.tobytes() == b.tobytes(), (cw.name, p)


# the filter takes the 2 x 2 determinant by its formula: LAPACK's warns of a
# division by zero when the first column holds only subnormal entries
sl2_images = st.tuples(
    *[st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)) for _ in range(4)]
).map(lambda t: np.array(t, dtype=complex).reshape(2, 2)).filter(
    lambda m: abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) > 0.1
).map(lambda m: m / np.sqrt(np.linalg.det(m)))

GENERATORS = 3

words = st.lists(
    st.tuples(st.integers(0, GENERATORS - 1), st.integers(-3, 3).filter(bool)),
    max_size=4,
).map(Word.from_letters)


@st.composite
def graph_complexes(draw):
    """A 1-dimensional complex whose entries draw several terms from a
    small pool of words, so that words repeat within and across entries."""
    pool = draw(st.lists(words, min_size=1, max_size=5))
    term = st.tuples(st.sampled_from(pool), st.integers(-3, 3))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    grid = [[GroupRingElement.from_terms(draw(st.lists(term, max_size=4)))
             for _ in range(cols)] for _ in range(rows)]
    return CwComplexData(name="graph", presentation=GroupPresentation.free(GENERATORS),
                         cells=[rows, cols], boundaries=[GroupRingMatrix.from_rows(grid)])


@settings(max_examples=80, deadline=None)
@given(graph_complexes(), st.lists(sl2_images, min_size=GENERATORS, max_size=GENERATORS),
       st.sampled_from(list(Target)))
def test_twist_is_bitwise_the_per_word_twist_on_drawn_entries(cw, images, target):
    rep = Representation(target, 2, tuple(images))
    assert_twist_matches_reference(cw, rep, orthonormal_sl2_basis())


def fifteen_factor_complex():
    """The glued shape of the benchmark's complex workload: 12 tori, then a
    wedge of 2 circles, a wedge of 3 circles and the bouquet."""
    total = torus()
    for factor in [torus()] * 11 + [wedge_of_circles(2), wedge_of_circles(3), bouquet()]:
        total = disk_sum(total, factor).total
    return total


def test_twist_is_bitwise_the_per_word_twist_on_named_complexes(basis, rng):
    glued = fifteen_factor_complex()
    assert glued.cells == [1, 30, 13, 1]
    cases = [torus(), bouquet(), wedge_of_circles(3), glued]
    for cw in cases:
        count = cw.presentation.generator_count
        lams = rng.uniform(1.3, 2.2, count) * np.exp(2j * np.pi * rng.uniform(size=count))
        rep = diag_rep(*lams)
        assert_twist_matches_reference(cw, rep, basis)
        # conjugating keeps every relator and makes the images non-diagonal
        assert_twist_matches_reference(cw, rep.conjugated(random_sl2(rng)), basis)
    wedge = wedge_of_circles(3)
    generic = Representation.from_images([random_sl2(rng) for _ in range(3)], Target.PSL)
    assert_twist_matches_reference(wedge, generic, basis)


def test_twist_of_the_zero_word_disk(basis):
    cw = disk()
    tc = twist(cw, Representation.trivial(0), basis)
    assert tc.dims == [3] and tc.mats == []
    assert per_word_twist(cw, Representation.trivial(0), basis) == []


def test_twist_rejects_too_few_images(basis):
    with pytest.raises(DimensionMismatchError, match="2 generators.*1 images"):
        twist(wedge_of_circles(2), diag_rep(2.0), basis)
