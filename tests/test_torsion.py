import numpy as np
import pytest

from torsionworks.algebra import Representation, Word, adjoint_matrix
from torsionworks.complexes import TwistedChainComplex, change_lift, homology, twist
from torsionworks import linalg
from torsionworks.errors import BadHomologyBasisError, HomologyError, SplittingError
from torsionworks.scenes import circle, point, wedge_of_circles
from torsionworks.torsion import (
    build_splitting,
    torsion,
    torsion_independence_check,
    torsion_of,
)

from conftest import block_ad, diag_rep, random_sl2


def two_term_complex(matrix):
    m = np.asarray(matrix, dtype=complex)
    return TwistedChainComplex(d=3, dims=[m.shape[0], m.shape[1]], mats=[m])


def restricted_determinant_oracle(ad):
    """|det| of (ad - 1) on the orthogonal complement of its kernel.

    Independent of the torsion machinery: plain SVD restriction.
    """
    d = ad - np.eye(ad.shape[0])
    _, sv, vh = np.linalg.svd(d)
    rank = int(np.sum(sv > 1e-10 * sv[0]))
    comp = vh[:rank, :].conj().T
    return abs(np.linalg.det(comp.conj().T @ d @ comp)) / abs(
        np.linalg.det(comp.conj().T @ comp))


# ---------------------------------------------------------------------------
# normalization and small closed forms
# ---------------------------------------------------------------------------

def test_disk_torsion_is_one(basis):
    tc = twist(point(), Representation.trivial(0), basis)
    hd = homology(tc)
    result = torsion_of(tc, hd)  # h_0 = classes of the geometric basis
    assert abs(result.value - 1.0) <= 1e-12
    assert result.per_degree_determinants == [1.0]


def test_two_term_acyclic_equals_determinant(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m += 2 * np.eye(4)
    tc = two_term_complex(m)
    hd = homology(tc)
    assert hd.betti == [0, 0]
    result = torsion_of(tc, hd)
    assert result.value == pytest.approx(np.linalg.det(m), rel=1e-9)


def test_two_term_section_is_inverse(basis):
    m = np.diag([2.0, 3.0, 4.0]).astype(complex)
    tc = two_term_complex(m)
    hd = homology(tc)
    split = build_splitting(tc, hd)
    assert np.allclose(tc.boundary(1) @ split.s[1], split.b[0], atol=1e-10)
    assert np.allclose(split.s[1], np.linalg.inv(m) @ split.b[0], atol=1e-10)


def test_circle_modulus_against_oracle(basis):
    for lam in (2.0, 3.0, 1.0 + 1.0j):
        rep = diag_rep(lam)
        tc = twist(circle(), rep, basis)
        hd = homology(tc)
        value = torsion_of(tc, hd).value
        ad = adjoint_matrix(rep, basis, Word.generator(0))
        assert abs(value) == pytest.approx(restricted_determinant_oracle(ad),
                                           abs=1e-9)


def test_circle_lambda2_value(basis):
    lam = 2.0
    expected = abs((lam ** 2 - 1) * (lam ** -2 - 1))
    tc = twist(circle(), diag_rep(lam), basis)
    value = torsion_of(tc, homology(tc)).value
    assert abs(value) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(9 / 4)


@pytest.mark.parametrize("scale", [1e150, 1e155, 1e200])
def test_huge_homology_bases_keep_the_circle_torsion(basis, scale):
    # scaling every homology class by the same factor leaves the torsion
    # of the circle unchanged (one class in each degree); squares of the
    # entries overflow from about 1e154, which the column norms of the
    # independence check must survive
    tc = twist(circle(), diag_rep(2.0), basis)
    hd = homology(tc)
    reference = torsion_of(tc, hd).value
    value = torsion_of(tc, hd, [h * scale for h in hd.h_basis]).value
    assert value == pytest.approx(reference, rel=1e-12)
    assert value == pytest.approx(-2.25, rel=1e-12)


def test_homology_vectors_above_the_top_degree_are_rejected(basis):
    tc = twist(circle(), diag_rep(2.0), basis)
    hd = homology(tc)
    with pytest.raises(BadHomologyBasisError, match="degree 2: .* above the top degree 1"):
        torsion_of(tc, hd, list(hd.h_basis) + [np.ones((3, 1), dtype=complex)])
    # an empty basis there names no vector, and changes nothing
    padded = torsion_of(tc, hd, list(hd.h_basis) + [np.zeros((3, 0), dtype=complex)])
    assert padded.value == torsion_of(tc, hd).value


def test_circle_trivial_rep_torsion_one(basis):
    tc = twist(circle(), Representation.trivial(1), basis)
    hd = homology(tc)
    split = build_splitting(tc, hd)
    assert split.b[0].shape[1] == 0 and split.b[1].shape[1] == 0
    assert torsion(tc, split).value == pytest.approx(1.0)


def test_empty_degree_contributes_one(basis):
    tc = TwistedChainComplex(d=3, dims=[3, 0], mats=[np.zeros((3, 0), complex)])
    hd = homology(tc)
    result = torsion_of(tc, hd)
    assert result.per_degree_determinants[1] == 1.0


def test_value_matches_per_degree_invariant(basis, rng):
    tc = twist(wedge_of_circles(2), diag_rep(2.0, 3.0), basis)
    hd = homology(tc)
    result = torsion_of(tc, hd)
    recombined = complex(1.0)
    for p, det in enumerate(result.per_degree_determinants):
        recombined *= det ** ((-1) ** (p + 1))
    assert result.value == pytest.approx(recombined, rel=1e-9)


@pytest.mark.parametrize("scale", [1e-160, 1e-170])
def test_homology_bases_whose_column_norms_underflow(basis, scale):
    # both degrees scaled alike leave the value; below about 1e-162 the
    # squares of the entries underflow, so naive column norms read 0
    tc = twist(circle(), diag_rep(2.0), basis)
    hd = homology(tc)
    value = torsion_of(tc, hd, [h * scale for h in hd.h_basis]).value
    assert value == pytest.approx(-2.25, rel=1e-9)


# ---------------------------------------------------------------------------
# covariance and invariance
# ---------------------------------------------------------------------------

def test_h_rescaling_covariance(basis):
    """Scaling one degree-p homology vector by a scales the value by a^((-1)^p).

    The exponent follows the pinned transition-matrix direction; see the
    per-degree invariant above for how the stored determinants relate.
    """
    tc = twist(circle(), diag_rep(2.0), basis)
    hd = homology(tc)
    alpha = 1.7 - 0.3j
    base = torsion_of(tc, hd).value
    for p in (0, 1):
        scaled = [h.copy() for h in hd.h_basis]
        scaled[p] = scaled[p] * alpha
        value = torsion_of(tc, hd, scaled).value
        assert value == pytest.approx(base * alpha ** ((-1) ** p), rel=1e-9)


def test_lift_invariance_with_transported_classes(basis, rng):
    cw = wedge_of_circles(2)
    rep = diag_rep(2.0, 3.0)
    tc = twist(cw, rep, basis)
    hd = homology(tc)
    base = torsion_of(tc, hd).value
    gamma = Word.from_letters([(1, 1), (0, -1)])
    j = 1
    lifted = change_lift(cw, 1, j, gamma)
    tc_lift = twist(lifted, rep, basis)
    hd_lift = homology(tc_lift)
    # the relift multiplies the degree-1 coordinates of chains by the
    # inverse adjoint block at cell j
    ad = adjoint_matrix(rep, basis, gamma)
    u = np.eye(tc.dims[1], dtype=complex)
    u[j * 3:(j + 1) * 3, j * 3:(j + 1) * 3] = np.linalg.inv(ad)
    transported = [hd.h_basis[0], u @ hd.h_basis[1]]
    value = torsion_of(tc_lift, hd_lift, transported).value
    assert value == pytest.approx(base, rel=1e-9)


def test_conjugation_invariance_with_transported_classes(basis, rng):
    cw = wedge_of_circles(2)
    rep = diag_rep(2.0, 3.0)
    tc = twist(cw, rep, basis)
    hd = homology(tc)
    base = torsion_of(tc, hd).value
    g0 = random_sl2(rng)
    tc_conj = twist(cw, rep.conjugated(g0), basis)
    hd_conj = homology(tc_conj)
    transported = [block_ad(g0, cw.cells[p]) @ hd.h_basis[p] for p in range(2)]
    value = torsion_of(tc_conj, hd_conj, transported).value
    assert value == pytest.approx(base, rel=1e-9)


# ---------------------------------------------------------------------------
# independence from choices
# ---------------------------------------------------------------------------

def test_independence_point(basis):
    tc = twist(point(), Representation.trivial(0), basis)
    report = torsion_independence_check(tc, homology(tc), trials=5)
    assert report.max_relative_deviation == 0.0


def test_independence_circle(basis):
    tc = twist(circle(), diag_rep(2.0), basis)
    report = torsion_independence_check(tc, homology(tc), trials=20)
    assert report.passed
    assert report.max_relative_deviation <= 1e-6


def test_independence_two_term(rng):
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)) + 2 * np.eye(5)
    tc = two_term_complex(m)
    report = torsion_independence_check(tc, homology(tc), trials=20)
    assert report.max_relative_deviation <= 1e-9


# ---------------------------------------------------------------------------
# bad input
# ---------------------------------------------------------------------------

def test_rejects_non_cycles(basis):
    tc = twist(circle(), diag_rep(2.0), basis)
    hd = homology(tc)
    bad = [hd.h_basis[0], np.ones((3, 1), dtype=complex)]  # not in the kernel
    with pytest.raises(BadHomologyBasisError):
        build_splitting(tc, hd, bad)


def test_cycle_check_rejects_representatives_homology_chose(basis):
    # d1 has singular values 9.0e9, 1.9 and 1.3e-7; the relative rank
    # cutoff, 90, swallows the genuine 1.9, so homology reports betti
    # [2, 2] instead of [1, 1] and one of its own degree-1 representatives
    # is no cycle.  The cycle check is the only guard against it, and it
    # reports the misread rank as homology's, not as a bad supplied basis.
    g0 = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)
    image = g0 @ np.diag([3e4, 1 / 3e4]).astype(complex) @ np.linalg.inv(g0)
    tc = twist(circle(), Representation.from_images([image]), basis)
    hd = homology(tc)
    assert hd.betti == [2, 2]
    with pytest.raises(HomologyError,
                       match=r"degree 1: the homology representatives are not cycles "
                             r"\(defect 1\.9\d*e\+00\); the rank cutoff, tol times the "
                             r"largest singular value, dropped a genuine singular value"):
        torsion_of(tc, hd)
    # the same vectors supplied by the caller are a bad basis
    with pytest.raises(BadHomologyBasisError,
                       match=r"degree 1: homology vectors are not cycles \(defect 1\.9"):
        torsion_of(tc, hd, hd.h_basis)


def test_rejects_dependent_classes(basis):
    tc = twist(circle(), diag_rep(2.0), basis)
    hd = homology(tc)
    boundary_vector = hd.boundary_basis[0][:, :1]  # a class equal to zero
    with pytest.raises(BadHomologyBasisError):
        build_splitting(tc, hd, [boundary_vector, hd.h_basis[1]])


def test_rejects_wrong_count(basis):
    tc = twist(circle(), Representation.trivial(1), basis)
    hd = homology(tc)
    with pytest.raises(BadHomologyBasisError):
        build_splitting(tc, hd, [hd.h_basis[0][:, :2], hd.h_basis[1]])


def record_rank_decisions(monkeypatch):
    """The SVD rank decisions ``independent_columns`` falls back to."""
    decisions = []
    matrix_rank = linalg.matrix_rank

    def recording(a, tol):
        rank = matrix_rank(a, tol)
        decisions.append(rank == a.shape[1])
        return rank

    monkeypatch.setattr(linalg, "matrix_rank", recording)
    return decisions


def test_nearly_dependent_classes_raise_through_the_svd(basis, monkeypatch):
    # a class within 1e-12 of a boundary: the Gram certificate cannot
    # decide, and the SVD finds [B | h] rank deficient
    tc = twist(circle(), diag_rep(2.0), basis)
    hd = homology(tc)
    near_boundary = hd.boundary_basis[0][:, :1] + 1e-12 * hd.h_basis[0]
    decisions = record_rank_decisions(monkeypatch)
    with pytest.raises(BadHomologyBasisError, match="dependent modulo boundaries"):
        build_splitting(tc, hd, [near_boundary, hd.h_basis[1]])
    assert decisions == [False]


def test_nearly_singular_split_basis_raises_through_the_svd(basis, monkeypatch):
    # two boundary vectors of degree 0 within 1e-12 of each other pass the
    # homology checks, which use the orthonormal image basis, and make the
    # split basis of degree 0 singular in the SVD's judgement
    tc = twist(circle(), diag_rep(2.0), basis)
    hd = homology(tc)
    b = hd.boundary_basis[0]
    bases = [np.hstack([b[:, :1], b[:, :1] + 1e-12 * b[:, 1:]]), hd.boundary_basis[1]]
    decisions = record_rank_decisions(monkeypatch)
    with pytest.raises(SplittingError, match="degree 0: split basis is singular"):
        build_splitting(tc, hd, boundary_bases=bases)
    assert decisions == [False]
