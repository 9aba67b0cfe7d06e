"""Rank-revealing helpers of ``linalg`` and the norm bounds of the checks.

Every defect and composition check compares a Frobenius norm (at least
the 2-norm) with a scale made of largest column norms (at most the
2-norm).  The threshold tests build an input whose 2-norm test fails by
a relative margin of 1e-6, just past its threshold, and require the
check to raise.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from torsionworks import glue, linalg
from torsionworks.algebra import Representation, orthonormal_sl2_basis
from torsionworks.complexes import TwistedChainComplex, homology, twist
from torsionworks.errors import (
    BadHomologyBasisError,
    HomologyError,
    InconsistentLiftsError,
    RankAmbiguityError,
    SequenceError,
)
from torsionworks.scenes import wedge_of_circles
from torsionworks.torsion import build_splitting

from conftest import random_sl2, torus

# rounding slack of the bracket; the bounds are exact in real arithmetic
ULPS = 1e-12

# how far past its threshold the 2-norm test of each input is pushed
PAST = 1e-6


def two_norm(a):
    return float(np.linalg.norm(a, 2))


def test_sections_honor_tol():
    # a target's coordinates in the image basis, through the section, give
    # its minimum-norm preimage with the singular values below tol dropped
    a = np.diag([1.0, 1e-10]).astype(complex)
    targets = np.array([[0.0], [1e-10]], dtype=complex)
    _, image, section = linalg.kernel_and_image(a, 1e-8)
    assert image.shape == section.shape == (2, 1)
    assert np.allclose(section @ (image.conj().T @ targets), 0.0, atol=1e-12)
    _, image, section = linalg.kernel_and_image(a, 1e-12)
    x = section @ (image.conj().T @ targets)
    assert np.allclose(x, [[0.0], [1.0]], atol=1e-9)
    assert linalg.relative_defect(a @ x - targets, targets) < 1e-15


# ---------------------------------------------------------------------------
# exact integer rank
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda rows: st.integers(0, 6).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))))
def test_integer_rank_is_the_svd_rank_of_small_integer_matrices(rows):
    # singular values of such matrices are far from the cutoff, so the SVD
    # rank is trustworthy here
    assert linalg.integer_rank(rows) == linalg.matrix_rank(
        np.array(rows, dtype=complex).reshape(len(rows), -1), 1e-8)


def test_integer_rank_is_exact_beyond_the_float_mantissa():
    # 2^60 + 1 rounds to 2^60 as a float, so the SVD sees rank 1
    big = 2 ** 60
    assert linalg.integer_rank([[big, big + 1], [1, 1]]) == 2
    assert linalg.integer_rank([[big, big], [1, 1]]) == 1
    assert linalg.integer_rank([]) == linalg.integer_rank([[]]) == 0


# ---------------------------------------------------------------------------
# the two bounds bracket the 2-norm
# ---------------------------------------------------------------------------

# zero or between 1e-100 and 1e6 in modulus, so that no square under- or
# overflows
reals = st.floats(-1e6, 1e6).filter(lambda x: x == 0.0 or abs(x) >= 1e-100)
entries = st.builds(complex, reals, reals)
shapes = hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=7)


def dense(shape):
    return hnp.arrays(complex, shape, elements=entries)


def assert_brackets(a):
    two = two_norm(a)
    assert linalg.max_column_norm(a) <= two * (1 + ULPS)
    assert two <= linalg.frobenius_norm(a) * (1 + ULPS)


@settings(max_examples=200, deadline=None)
@given(shapes.flatmap(dense))
def test_bounds_bracket_two_norm(a):
    assert_brackets(a)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7).flatmap(dense), st.integers(1, 7).flatmap(dense))
def test_bounds_bracket_two_norm_rank_one(u, v):
    a = np.outer(u, v.conj())
    assert_brackets(a)
    # a rank-1 matrix has one singular value: the upper bound is attained
    assert linalg.frobenius_norm(a) == pytest.approx(two_norm(a), rel=ULPS, abs=0)


@pytest.mark.parametrize("scale", [1e-182, 1e-160, 1e-155])
def test_bounds_of_entries_whose_squares_underflow(scale):
    a = scale * np.array([[3.0, 4.0j], [0.0, 1.0]])
    assert_brackets(a)
    assert linalg.max_column_norm(a) == pytest.approx(np.sqrt(17.0) * scale, rel=ULPS)
    rank_one = np.array([[4.67447576e-182 + 0j]])
    assert linalg.frobenius_norm(rank_one) == two_norm(rank_one)


@pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
def test_norms_of_entries_whose_squares_overflow(scale):
    # the SVD overflows on these entries too, so the reference is the
    # norm of the same entries at scale 1, rescaled
    a = np.array([[3.0, 4.0j], [0.0, 1.0], [2.0 - 2.0j, 0.0]])
    norms = linalg.column_norms(scale * a)
    assert np.isfinite(norms).all()
    assert norms == pytest.approx(scale * linalg.column_norms(a), rel=ULPS)
    assert linalg.frobenius_norm(scale * a) == pytest.approx(
        scale * linalg.frobenius_norm(a), rel=ULPS)
    # one overflowing column leaves the others' sums as they were
    mixed = np.hstack([a, scale * a[:, :1]])
    assert linalg.column_norms(mixed)[:2].tobytes() == linalg.column_norms(a).tobytes()
    # and a NaN column does not hide an overflowed one
    with_nan = linalg.column_norms(np.hstack([np.full((3, 1), np.nan), scale * a]))
    assert np.isnan(with_nan[0])
    assert with_nan[1:] == pytest.approx(scale * linalg.column_norms(a), rel=ULPS)


@pytest.mark.parametrize("scale", [1e-310, 5e-324])
def test_norms_of_subnormal_entries(scale):
    # the second pass divides by at least the smallest normal number, whose
    # reciprocal is finite
    a = np.array([[3.0, 0.0], [4.0j, 1.0]]) * scale
    assert linalg.column_norms(a)[0] == pytest.approx(5.0 * scale, rel=1e-9, abs=5e-324)
    assert linalg.frobenius_norm(a) == pytest.approx(np.sqrt(26.0) * scale, rel=1e-9,
                                                     abs=5e-324)
    assert linalg.max_column_norm(a) == linalg.column_norms(a).max() > 0


NORMS = (linalg.frobenius_norm, linalg.column_norms, linalg.max_column_norm)


@pytest.mark.parametrize("entries", [
    [[3e200, 4e200j], [0.0, 1.0]],      # squares overflow
    [[1e154, 1.0], [1e154, 2.0]],       # squares fit, their sum overflows
    [[1.5e308 + 1.5e308j, 1.0]],        # so does the modulus
    [[np.inf, 1.0], [np.nan, 2.0j]],
])
def test_norms_of_overflowing_input_raise_no_warning(entries):
    a = np.array(entries, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for norm in NORMS:
            norm(a)


def test_norms_in_the_normal_range_enter_no_errstate(monkeypatch):
    entered = []
    errstate = np.errstate

    def recording(**kwargs):
        entered.append(kwargs)
        return errstate(**kwargs)

    monkeypatch.setattr(np, "errstate", recording)
    a = np.random.default_rng(3).normal(size=(12, 6)) * (1 + 1j)
    for norm in NORMS:
        norm(a)
    assert entered == []
    # the overflow takes the guarded path
    linalg.column_norms(1e200 * a)
    assert entered


def test_norms_beyond_the_float_range_are_infinite():
    a = np.array([[1.5e308, 1.0], [1.5e308, np.inf]])
    assert linalg.column_norms(a).tolist() == [np.inf, np.inf]
    assert linalg.frobenius_norm(a) == np.inf


@settings(max_examples=200, deadline=None)
@given(shapes.flatmap(dense))
def test_norms_in_the_normal_range_keep_every_bit(a):
    # the plain sums of squares, which the overflow and underflow
    # branches must leave untouched wherever no square leaves the range
    assert linalg.column_norms(a).tobytes() == \
        np.sqrt(np.add.reduce((a.conj() * a).real, axis=0)).tobytes()
    assert linalg.frobenius_norm(a) == float(np.linalg.norm(a))


# squares that may under- or overflow, and non-finite entries
extreme = st.sampled_from([0.0, 1e-310, 1e-200, 1e-160, 1e-155, 0.5, 1.0, 3.0, 1e155,
                           1e200, 1.5e308, np.inf, np.nan])


@settings(max_examples=300, deadline=None)
@given(shapes.flatmap(dense), hnp.arrays(float, st.integers(1, 7), elements=extreme))
def test_max_column_norm_is_the_largest_column_norm(a, scales):
    # the root of the largest sum of squares, or column_norms' rescaled
    # pass wherever a column leaves the range, bit for bit
    with np.errstate(all="ignore"):
        a = a * np.resize(scales, a.shape[1])
        expected = np.float64(linalg.column_norms(a).max(initial=0.0))
        got = np.float64(linalg.max_column_norm(a))
    assert got.tobytes() == expected.tobytes()


def full_kernel_and_image(a, tol):
    """``kernel_and_image`` with the full SVD on every shape."""
    if a.size == 0:
        return (np.eye(a.shape[1], dtype=complex), linalg.empty_matrix(a.shape[0]),
                linalg.empty_matrix(a.shape[1]))
    u, sv, vh = np.linalg.svd(a)
    rank = linalg.svd_rank(sv, tol, check_ambiguity=True)
    return vh[rank:, :].conj().T, u[:, :rank], vh[:rank, :].conj().T / sv[:rank]


def full_complement_in(span, subspace, count, tol):
    """``complement_in`` with the full SVD on every shape."""
    if count == 0:
        return linalg.empty_matrix(span.shape[0])
    resid = span - subspace @ (subspace.conj().T @ span)
    u, sv, _ = np.linalg.svd(resid)
    if sv.size < count or sv[count - 1] <= tol:
        raise HomologyError("too few directions")
    return u[:, :count]


def factor_bits(fn, *args):
    """The bytes of each output array, or the type of the error raised."""
    try:
        return [np.ascontiguousarray(x).tobytes() for x in fn(*args)]
    except (HomologyError, RankAmbiguityError) as exc:
        return type(exc)


def gaussian(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 150), st.integers(1, 40), st.floats(0, 1), st.integers(0, 2**32 - 1))
# tall maps on which the reduced SVD (full_matrices=False) rounds U's leading
# columns differently from the full one: 145 x 35 with one BLAS thread, 200
# x 32 with two; then square past LAPACK's block size, and wide
@example(145, 35, 1.0, 0)
@example(200, 32, 1.0, 0)
@example(33, 33, 0.5, 0)
@example(40, 70, 0.5, 0)
def test_factors_keep_the_full_svds_bits(rows, cols, fill, seed):
    # tall, square and wide maps, rank-deficient ones included: the kernel,
    # image, section and complement are the full SVD's to the bit, which a
    # reduced SVD on tall maps would not keep
    rng = np.random.default_rng(seed)
    rank = round(fill * min(rows, cols))
    a = gaussian(rng, rows, rank) @ gaussian(rng, rank, cols)
    assert factor_bits(linalg.kernel_and_image, a, 1e-8) == \
        factor_bits(full_kernel_and_image, a, 1e-8)
    # an orthonormal span, a subspace of it, and the complement's dimension
    span, _ = np.linalg.qr(gaussian(rng, rows, min(rows, cols)))
    inside = round(fill * span.shape[1])
    subspace, _ = np.linalg.qr(span @ gaussian(rng, span.shape[1], inside))
    count = span.shape[1] - inside
    assert factor_bits(lambda *args: [linalg.complement_in(*args)],
                       span, subspace, count, 1e-8) == \
        factor_bits(lambda *args: [full_complement_in(*args)], span, subspace, count, 1e-8)


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (1, 6), (6, 1), (2, 7), (7, 2)])
def test_bounds_of_zero_and_tall_wide_matrices(shape):
    zero = np.zeros(shape, dtype=complex)
    assert linalg.frobenius_norm(zero) == linalg.max_column_norm(zero) == 0.0
    a = np.arange(1, shape[0] * shape[1] + 1).reshape(shape) * (1 - 2j)
    assert_brackets(a)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_bounds_of_empty_matrices(shape):
    empty = np.zeros(shape, dtype=complex)
    assert linalg.frobenius_norm(empty) == linalg.max_column_norm(empty) == 0.0


# ---------------------------------------------------------------------------
# each check still raises just past its 2-norm threshold
# ---------------------------------------------------------------------------

def just_past(ratio, threshold, eps=1e-8):
    """A perturbation size at which ``ratio(eps) / threshold`` is 1 + PAST.

    ``ratio`` is the 2-norm test statistic of a check as a function of
    the size of the perturbation; it is close to linear for small sizes.
    """
    for _ in range(6):
        eps *= threshold * (1 + PAST) / ratio(eps)
    assert threshold < ratio(eps) < threshold * (1 + 2 * PAST)
    return eps


def test_twist_rejects_lifts_just_past_the_threshold():
    # the torus relator holds only for commuting images; a shear of size
    # delta breaks it by a composition of norm proportional to delta
    basis = orthonormal_sl2_basis()
    a = np.diag([2.0, 0.5]).astype(complex)

    def rep(delta):
        shear = np.array([[1.0, delta], [0.0, 1.0]], dtype=complex)
        b = shear @ np.diag([3.0, 1 / 3.0]) @ np.linalg.inv(shear)
        return Representation.from_images([a, b])

    def ratio(delta):
        tc = twist(torus(), rep(delta), basis, tol=1.0)
        d1, d2 = tc.boundary(1), tc.boundary(2)
        return two_norm(d1 @ d2) / (1.0 + two_norm(d1) * two_norm(d2))

    tol = 1e-8
    delta = just_past(ratio, tol)
    with pytest.raises(InconsistentLiftsError):
        twist(torus(), rep(delta), basis, tol=tol)


def test_build_splitting_rejects_non_cycles_just_past_the_threshold():
    rng = np.random.default_rng(11)
    basis = orthonormal_sl2_basis()
    rep = Representation.from_images([random_sl2(rng), random_sl2(rng)])
    tc = twist(wedge_of_circles(2), rep, basis)
    hd = homology(tc)
    cycles = hd.h_basis[1] @ (rng.normal(size=(3, 3)) + 4.0 * np.eye(3))
    noise = rng.normal(size=cycles.shape) + 1j * rng.normal(size=cycles.shape)
    d1 = tc.boundary(1)

    def supplied(eps):
        return cycles + eps * noise

    def ratio(eps):
        h = supplied(eps)
        return two_norm(d1 @ h) / max(1.0, two_norm(h))

    tol = 1e-8
    eps = just_past(ratio, tol)
    with pytest.raises(BadHomologyBasisError, match="not cycles"):
        build_splitting(tc, hd, [hd.h_basis[0], supplied(eps)], tol=tol)


def sequence_with(dout, din):
    """A three-space sequence with the maps ``din``: 2 -> 1 and ``dout``: 1 -> 0."""
    return TwistedChainComplex(1, [dout.shape[0], dout.shape[1], din.shape[1]], [dout, din])


def test_verify_exactness_rejects_compositions_just_past_the_threshold():
    rng = np.random.default_rng(12)
    dout = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    dout[2] = dout[0] + dout[1]  # rank 2, so the kernel has dimension 3
    kernel, _, _ = linalg.kernel_and_image(dout, linalg.DEFAULT_TOL)
    exact = kernel @ (rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)))
    noise = rng.normal(size=exact.shape) + 1j * rng.normal(size=exact.shape)

    def ratio(eps):
        din = exact + eps * noise
        return two_norm(dout @ din) / (1.0 + two_norm(dout) * two_norm(din))

    eps = just_past(ratio, linalg.DEFECT_TOL)
    with pytest.raises(SequenceError, match="compose"):
        glue.verify_exactness(sequence_with(dout, exact + eps * noise))


def test_class_coordinates_reject_a_defect_just_past_the_threshold():
    rng = np.random.default_rng(13)
    q = orthonormal(rng, 6, 3)
    h, boundary = q[:, :2], q[:, 2:]
    reachable = q @ complex_normal(rng, (3, 3))
    # off the span of [h | boundary]: no class coordinates reach it
    off = complex_normal(rng, reachable.shape)
    off -= q @ (q.conj().T @ off)

    def ratio(eps):
        vectors = reachable + eps * off
        return two_norm(eps * off) / max(two_norm(vectors), 1.0)

    eps = just_past(ratio, linalg.DEFECT_TOL)
    with pytest.raises(SequenceError, match="not a cycle class"):
        glue._class_coordinates(reachable + eps * off, h, boundary)


@pytest.mark.parametrize("scale", [1e-9, 4.08e-9, 4.09e-9, 1e-8, 1.0, 1e3])
def test_class_coordinates_in_a_zero_group_accept_only_a_tiny_frobenius_norm(scale):
    # with no basis the residue is the vectors themselves: the relative
    # defect accepts exactly when their Frobenius norm is within DEFECT_TOL,
    # since a column norm above 1 makes the Frobenius norm exceed 1
    vectors = scale * np.ones((3, 2), dtype=complex)  # Frobenius norm scale * sqrt(6)
    empty = linalg.empty_matrix(3)
    if linalg.frobenius_norm(vectors) <= linalg.DEFECT_TOL:
        assert glue._class_coordinates(vectors, empty, empty).shape == (0, 2)
    else:
        with pytest.raises(SequenceError):
            glue._class_coordinates(vectors, empty, empty)


# ---------------------------------------------------------------------------
# the Gram certificate of an independence check decides as the SVD does
# ---------------------------------------------------------------------------

def svd_independent(m, tol):
    """The decision of ``independent_columns`` taken by the SVD alone."""
    norms = linalg.column_norms(m)
    return bool(np.all(norms > 0)) and linalg.matrix_rank(m / norms, tol) == m.shape[1]


def complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def orthonormal(rng, n, k):
    q, _ = np.linalg.qr(complex_normal(rng, (n, n)))
    return q[:, :k]


# rank cutoffs from tight to past GRAM_TOL_LIMIT, where the SVD must decide
tols = st.one_of(st.floats(-12.0, np.log10(0.9)).map(lambda x: 10.0 ** x),
                 st.floats(0.3, 0.9))
seeds = st.integers(0, 2**32 - 1)


@st.composite
def near_orthonormal(draw):
    rng = np.random.default_rng(draw(seeds))
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, n))
    eps = 10.0 ** draw(st.floats(-14.0, 0.5))
    return orthonormal(rng, n, k) + eps * complex_normal(rng, (n, k)), draw(tols)


@st.composite
def dependent(draw):
    rng = np.random.default_rng(draw(seeds))
    n = draw(st.integers(1, 8))
    k = draw(st.integers(2, n + 1))
    m = complex_normal(rng, (n, k - 1))
    extra = m[:, :1] if draw(st.booleans()) else m @ complex_normal(rng, (k - 1, 1))
    m = np.hstack([m, extra])
    return m[:, rng.permutation(k)], draw(tols)


@st.composite
def at_cutoff(draw):
    """Two columns whose singular values have ratio tol (1 +- delta), among
    orthonormal others: [u, cos t u + sin t v] has ratio tan(t / 2)."""
    rng = np.random.default_rng(draw(seeds))
    n = draw(st.integers(2, 8))
    k = draw(st.integers(2, n))
    tol = draw(tols)
    delta = draw(st.sampled_from([-1e-3, -1e-6, 1e-6, 1e-3]))
    t = 2.0 * np.arctan(tol * (1.0 + delta))
    q = orthonormal(rng, n, k)
    q[:, 1] = np.cos(t) * q[:, 0] + np.sin(t) * q[:, 1]
    return q[:, rng.permutation(k)], tol


@st.composite
def wide(draw):
    rng = np.random.default_rng(draw(seeds))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(n + 1, n + 4))
    return complex_normal(rng, (n, k)), draw(tols)


@st.composite
def with_bad_column(draw):
    """A zero column, a NaN entry or an infinite entry among good columns."""
    m, tol = draw(near_orthonormal())
    i = draw(st.integers(0, m.shape[1] - 1))
    bad = draw(st.sampled_from([0.0, np.nan, np.inf]))
    if bad == 0.0:
        m[:, i] = 0.0
    else:
        m[draw(st.integers(0, m.shape[0] - 1)), i] = bad
    return m, tol


@st.composite
def rescaled(draw):
    """Any case above with its columns scaled by 1, 1e170 or 1e-170."""
    m, tol = draw(st.one_of(near_orthonormal(), dependent(), at_cutoff(), wide()))
    scales = draw(st.lists(st.sampled_from([1.0, 1e170, 1e-170]),
                           min_size=m.shape[1], max_size=m.shape[1]))
    return m * np.array(scales), tol


def outcome(check, m, tol):
    """The decision of ``check``, or the type of the error it raises."""
    try:
        with np.errstate(all="ignore"):
            return check(m, tol)
    except np.linalg.LinAlgError as exc:
        return type(exc)


def two_columns_at_ratio(r):
    """Unit columns [u, cos t u + sin t v] with singular value ratio tan(t / 2) = r."""
    t = 2.0 * np.arctan(r)
    return np.array([[1.0, np.cos(t)], [0.0, np.sin(t)]], dtype=complex)


# their Gram matrix is 0.40 from I: full rank at a cutoff of 0.7, and past
# GRAM_TOL_LIMIT, at 0.8, rank deficient in the SVD's judgement
@example((two_columns_at_ratio(0.75), 0.7))
@example((two_columns_at_ratio(0.75), 0.8))
@settings(max_examples=400, deadline=None)
@given(st.one_of(near_orthonormal(), dependent(), at_cutoff(), wide(),
                 with_bad_column(), rescaled()))
def test_independence_certificate_decides_as_the_svd(case):
    m, tol = case
    assert outcome(linalg.independent_columns, m, tol) == outcome(svd_independent, m, tol)


@st.composite
def rank_deficient(draw):
    """A complex U diag(s) V^H of rank r, its s in [0.1, 10], far from any cutoff."""
    rng = np.random.default_rng(draw(seeds))
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    r = draw(st.integers(0, min(m, n)))
    s = rng.uniform(0.1, 10.0, size=r)
    return (orthonormal(rng, m, r) * s) @ orthonormal(rng, n, r).conj().T


@settings(max_examples=300, deadline=None)
@given(rank_deficient(), st.sampled_from([1e-10, 1e-8, 1e-6]))
def test_section_is_the_least_squares_preimage_of_the_image_basis(a, tol):
    _, image, section = linalg.kernel_and_image(a, tol)
    reference, *_ = np.linalg.lstsq(a, image, rcond=tol)
    assert section.shape == reference.shape
    assert (linalg.frobenius_norm(section - reference)
            <= 1e-12 * linalg.frobenius_norm(reference))


def test_near_orthonormal_columns_take_no_svd(monkeypatch):
    rng = np.random.default_rng(14)
    scales = np.geomspace(1e-170, 1e150, 6)
    m = (orthonormal(rng, 8, 6) + 1e-3 * complex_normal(rng, (8, 6))) * scales

    def no_svd(*args, **kwargs):
        raise AssertionError("the certificate should decide")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert linalg.independent_columns(m, linalg.GRAM_TOL_LIMIT)
    assert linalg.independent_columns(m[:, :0], linalg.DEFAULT_TOL)


def composition_taking_each_norm_per_junction(maps, tol):
    """``nonzero_composition`` with both norms taken at every junction."""
    for p in range(1, len(maps)):
        a, b = maps[p - 1], maps[p]
        if not (a.size and b.size):
            continue
        resid = linalg.frobenius_norm(a @ b)
        if not resid <= tol * (1.0 + linalg.max_column_norm(a) * linalg.max_column_norm(b)):
            return p, resid
    return None


@settings(max_examples=150, deadline=None)
@given(shapes=st.lists(st.integers(0, 3), min_size=2, max_size=6),
       scales=st.lists(st.sampled_from([0.0, 1e-9, 1.0, 1e9]), min_size=5, max_size=5),
       seed=st.integers(0, 2**16))
def test_composition_takes_each_norm_once_and_decides_as_before(shapes, scales, seed):
    # maps between spaces of the drawn sizes, scaled so that some junctions
    # fail, with zero maps mixed in so that some vanish
    rng = np.random.default_rng(seed)
    maps = []
    for p, (rows, cols) in enumerate(zip(shapes, shapes[1:])):
        m = rng.normal(size=(rows, cols)) * scales[p % len(scales)]
        if p % 2 and maps and maps[-1].shape[1] == rows == cols:
            m = np.zeros((rows, cols))
        maps.append(m.astype(complex))
    expected = composition_taking_each_norm_per_junction(maps, linalg.DEFECT_TOL)
    normed = []
    norm = linalg.max_column_norm
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "max_column_norm", lambda a: normed.append(id(a)) or norm(a))
        assert linalg.nonzero_composition(maps, linalg.DEFECT_TOL) == expected
    assert len(normed) == len(set(normed))
