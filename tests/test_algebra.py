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
    adjoint_matrix,
    check_representation,
    evaluate_word,
    killing_form,
    orthonormal_sl2_basis,
)
from torsionworks.errors import DimensionMismatchError

from conftest import diag_rep, random_sl2

E = np.array([[0, 1], [0, 0]], dtype=complex)
F = np.array([[0, 0], [1, 0]], dtype=complex)
H = np.array([[1, 0], [0, -1]], dtype=complex)


# ---------------------------------------------------------------------------
# killing form
# ---------------------------------------------------------------------------

def test_killing_form_zero():
    assert killing_form(np.zeros((2, 2)), H) == 0


def test_killing_form_diagonal():
    assert killing_form(H, H) == pytest.approx(8.0)


def test_killing_form_nilpotent():
    assert killing_form(E, E) == pytest.approx(0.0)


def test_killing_form_size_mismatch():
    with pytest.raises(DimensionMismatchError):
        killing_form(np.eye(2), np.eye(3))
    with pytest.raises(DimensionMismatchError):
        killing_form(np.zeros((2, 3)), np.zeros((3, 2)))


def test_from_rows_of_no_rows_is_rejected():
    # a grid of no rows says nothing of the column count, which an empty
    # layer's boundary needs; the constructor takes the shape instead
    with pytest.raises(DimensionMismatchError, match="shape"):
        GroupRingMatrix.from_rows([])
    assert GroupRingMatrix(0, 3, ()).cols == 3
    assert GroupRingMatrix.from_rows([[]]).cols == 0
    assert GroupRingMatrix.from_rows([[GroupRingElement.gen(0)] * 2]).cols == 2


@given(st.integers(-4, 4), st.integers(-4, 4))
def test_killing_form_symmetric_bilinear(a_seed, b_seed):
    rng = np.random.default_rng(1000 + 17 * a_seed + b_seed)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a -= np.trace(a) / 2 * np.eye(2)
    b -= np.trace(b) / 2 * np.eye(2)
    c -= np.trace(c) / 2 * np.eye(2)
    assert killing_form(a, b) == pytest.approx(killing_form(b, a))
    lam = 1.5 - 0.5j
    assert killing_form(a, lam * b + c) == pytest.approx(
        lam * killing_form(a, b) + killing_form(a, c))


# ---------------------------------------------------------------------------
# the orthonormal basis
# ---------------------------------------------------------------------------

def test_sl2_basis_orthonormal():
    basis = orthonormal_sl2_basis()
    assert basis.dim == 3
    gram = np.array([[killing_form(a, b) for b in basis.vectors]
                     for a in basis.vectors])
    assert np.max(np.abs(gram - np.eye(3))) < 1e-12


def test_sl2_basis_traceless():
    for a in orthonormal_sl2_basis().vectors:
        assert abs(np.trace(a)) < 1e-14


def test_sl2_basis_explicit_vectors():
    s = 2 * np.sqrt(2)
    expected = [H / s, (E + F) / s, (E - F) / (s * 1j)]
    for got, want in zip(orthonormal_sl2_basis().vectors, expected):
        assert np.allclose(got, want, atol=1e-14)


def test_sl2_basis_deterministic():
    first = orthonormal_sl2_basis()
    second = orthonormal_sl2_basis()
    assert first is second


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

def test_word_reduction_and_identity():
    w = Word.from_letters([(0, 1), (0, -1), (1, 2), (1, -1)])
    assert w == Word.from_letters([(1, 1)])
    assert Word().is_identity
    assert (w * w.inverse()).is_identity


def test_word_power():
    g = Word.generator(0)
    assert g ** 3 == Word.from_letters([(0, 3)])
    assert g ** -2 == Word.from_letters([(0, -2)])
    assert (g ** 0).is_identity


words_strategy = st.lists(
    st.tuples(st.integers(0, 2), st.integers(-3, 3).filter(lambda e: e != 0)),
    max_size=6,
).map(Word.from_letters)


@given(words_strategy, words_strategy, words_strategy)
def test_word_multiplication_associative(u, v, w):
    assert (u * v) * w == u * (v * w)


# ---------------------------------------------------------------------------
# group ring
# ---------------------------------------------------------------------------

elements_strategy = st.lists(
    st.tuples(words_strategy, st.integers(-3, 3)),
    max_size=5,
).map(GroupRingElement.from_terms)


@settings(max_examples=60)
@given(elements_strategy, elements_strategy, elements_strategy)
def test_group_ring_associative_distributive(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


def test_group_ring_units_and_zero():
    one = GroupRingElement.one()
    g = GroupRingElement.gen(0)
    assert one * g == g
    assert (g - g).is_zero
    assert (g * 0).is_zero
    assert 2 * g == g + g


def test_group_ring_augmentation():
    g = GroupRingElement.gen(0)
    elem = 3 * g - 2 * GroupRingElement.one()
    assert elem.coefficient_sum() == 1


# ---------------------------------------------------------------------------
# evaluate_word / adjoint
# ---------------------------------------------------------------------------

def test_evaluate_empty_word_identity():
    rep = diag_rep(2.0)
    assert np.allclose(evaluate_word(rep, Word()), np.eye(2))


def test_evaluate_cancellation():
    rep = Representation.from_images([random_sl2(np.random.default_rng(7))])
    w = Word.generator(0) * Word.generator(0, -1)
    assert np.allclose(evaluate_word(rep, w), np.eye(2))


def test_evaluate_word_square():
    rep = diag_rep(2.0)
    got = evaluate_word(rep, Word.generator(0, 2))
    assert np.allclose(got, np.diag([4.0, 0.25]))


def test_evaluate_word_bad_index():
    rep = diag_rep(2.0)
    with pytest.raises(IndexError):
        evaluate_word(rep, Word.generator(5))


@settings(max_examples=60, deadline=None)
@given(words_strategy)
def test_evaluate_word_is_bitwise_the_letter_loop(word):
    # signed zeros in the images: a product that skipped the identity
    # start would keep the -0 that identity @ image turns into +0
    signed = np.array([[2.0, -0.0], [complex(-0.0, -0.0), 0.5]], dtype=complex)
    rng = np.random.default_rng(5)
    rep = Representation.from_images([signed, random_sl2(rng), signed.T.copy()])
    want = np.eye(2, dtype=complex)
    for gen, exp in word.letters:
        want = want @ np.linalg.matrix_power(rep.images[gen], exp)
    assert evaluate_word(rep, word).tobytes() == want.tobytes()


def test_adjoint_identity_word(basis):
    rep = diag_rep(2.0)
    assert np.allclose(adjoint_matrix(rep, basis, Word()), np.eye(3))


def test_adjoint_kills_center(basis):
    rep = Representation.from_images([-np.eye(2)])
    got = adjoint_matrix(rep, basis, Word.generator(0))
    assert np.allclose(got, np.eye(3), atol=1e-12)


def test_adjoint_eigenvalues_diag(basis):
    rep = diag_rep(2.0)
    ad = adjoint_matrix(rep, basis, Word.generator(0))
    eig = np.sort_complex(np.linalg.eigvals(ad))
    assert np.allclose(eig, np.sort_complex(np.array([0.25, 1.0, 4.0])), atol=1e-10)


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(0, 1),
                          st.integers(-2, 2).filter(lambda e: e != 0)),
                max_size=4).map(Word.from_letters),
       st.lists(st.tuples(st.integers(0, 1),
                          st.integers(-2, 2).filter(lambda e: e != 0)),
                max_size=4).map(Word.from_letters))
def test_adjoint_homomorphism_unimodular(w1, w2):
    basis = orthonormal_sl2_basis()
    rng = np.random.default_rng(99)
    rep = Representation.from_images([random_sl2(rng), random_sl2(rng)])
    a1 = adjoint_matrix(rep, basis, w1)
    a2 = adjoint_matrix(rep, basis, w2)
    a12 = adjoint_matrix(rep, basis, w1 * w2)
    assert np.allclose(a1 @ a2, a12, atol=1e-9)
    assert abs(np.linalg.det(a12) - 1.0) < 1e-9


def killing_form_adjoint(rep, basis, word):
    """Entry (i, j) = B(a_i, g a_j g^{-1}), one ``killing_form`` call each."""
    g = evaluate_word(rep, word)
    ginv = np.linalg.inv(g)
    out = np.empty((basis.dim, basis.dim), dtype=complex)
    for j, aj in enumerate(basis.vectors):
        conj = g @ aj @ ginv
        for i, ai in enumerate(basis.vectors):
            out[i, j] = killing_form(ai, conj)
    return out


# the filter takes the 2 x 2 determinant by its formula: LAPACK's warns of a
# division by zero when the first column holds only zero or subnormal entries
sl2_strategy = st.tuples(
    *[st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)) for _ in range(4)]
).map(lambda t: np.array(t, dtype=complex).reshape(2, 2)).filter(
    lambda m: abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) > 0.1
).map(lambda m: m / np.sqrt(np.linalg.det(m)))


@settings(max_examples=150, deadline=None)
@given(st.lists(sl2_strategy, min_size=3, max_size=3),
       st.sampled_from(list(Target)), words_strategy)
def test_adjoint_matrix_equals_killing_form_definition(images, target, word):
    rep = Representation(target, 2, tuple(images))
    basis = orthonormal_sl2_basis()
    got = adjoint_matrix(rep, basis, word)
    want = killing_form_adjoint(rep, basis, word)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# check_representation
# ---------------------------------------------------------------------------

def test_check_free_group_any_images():
    pres = GroupPresentation.free(2)
    rng = np.random.default_rng(11)
    rep = Representation.from_images([random_sl2(rng), random_sl2(rng)])
    ok, residuals = check_representation(pres, rep)
    assert ok and residuals == []


def test_check_involution_minus_identity():
    pres = GroupPresentation(1, (Word.generator(0, 2),))
    rep = Representation.from_images([-np.eye(2)])
    ok, residuals = check_representation(pres, rep)
    assert ok
    assert residuals[0] < 1e-14


def test_check_involution_fails_for_diag():
    pres = GroupPresentation(1, (Word.generator(0, 2),))
    rep = diag_rep(2.0)
    ok, residuals = check_representation(pres, rep)
    assert not ok
    expected = np.linalg.norm(np.diag([4.0, 0.25]) - np.eye(2), 2)
    assert residuals[0] == pytest.approx(expected)


def test_check_psl_accepts_sign():
    pres = GroupPresentation(1, (Word.generator(0, 2),))
    img = np.array([[0, 1], [-1, 0]], dtype=complex)  # squares to -identity
    rep = Representation(Target.PSL, 2, (img,))
    ok, _ = check_representation(pres, rep)
    assert ok
    rep_sl = Representation(Target.SL, 2, (img,))
    ok_sl, _ = check_representation(pres, rep_sl)
    assert not ok_sl


def test_check_generator_count_mismatch():
    with pytest.raises(DimensionMismatchError):
        check_representation(GroupPresentation.free(2), diag_rep(2.0))
