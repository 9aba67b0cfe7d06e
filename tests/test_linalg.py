"""Rank-revealing helpers of ``linalg`` and the norm bounds of the checks.

Every defect and composition check compares a Frobenius norm (at least
the 2-norm) with a scale made of largest column norms (at most the
2-norm).  The threshold tests build an input whose 2-norm test fails by
a relative margin of 1e-6, just past its threshold, and require the
check to raise.
"""

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
    InconsistentLiftsError,
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


def test_min_norm_preimage_honors_tol():
    a = np.diag([1.0, 1e-10]).astype(complex)
    targets = np.array([[0.0], [1e-10]], dtype=complex)
    x, _ = linalg.min_norm_preimage(a, targets, 1e-8)
    assert np.allclose(x, 0.0, atol=1e-12)
    x, defect = linalg.min_norm_preimage(a, targets, 1e-12)
    assert np.allclose(x, [[0.0], [1.0]], atol=1e-9)
    assert defect < 1e-15


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
    assert linalg.operator_norm(empty) == 0.0


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
    kernel, _ = linalg.kernel_and_image(dout, linalg.DEFAULT_TOL)
    exact = kernel @ (rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)))
    noise = rng.normal(size=exact.shape) + 1j * rng.normal(size=exact.shape)

    def ratio(eps):
        din = exact + eps * noise
        return two_norm(dout @ din) / (1.0 + two_norm(dout) * two_norm(din))

    eps = just_past(ratio, linalg.DEFECT_TOL)
    with pytest.raises(SequenceError, match="compose"):
        glue.verify_exactness(sequence_with(dout, exact + eps * noise))


def test_min_norm_preimage_defect_just_past_the_threshold():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    reachable = a @ (rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)))
    # off the column space of a: no solve reaches it
    off = rng.normal(size=reachable.shape) + 1j * rng.normal(size=reachable.shape)
    q, _ = np.linalg.qr(a)
    off -= q @ (q.conj().T @ off)

    def ratio(eps):
        targets = reachable + eps * off
        return two_norm(eps * off) / max(two_norm(targets), 1.0)

    eps = just_past(ratio, linalg.DEFECT_TOL)
    _, defect = linalg.min_norm_preimage(a, reachable + eps * off, linalg.DEFAULT_TOL)
    assert defect > linalg.DEFECT_TOL


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


def test_near_orthonormal_columns_take_no_svd(monkeypatch):
    rng = np.random.default_rng(14)
    scales = np.geomspace(1e-170, 1e150, 6)
    m = (orthonormal(rng, 8, 6) + 1e-3 * complex_normal(rng, (8, 6))) * scales

    def no_svd(*args, **kwargs):
        raise AssertionError("the certificate should decide")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert linalg.independent_columns(m, linalg.GRAM_TOL_LIMIT)
    assert linalg.independent_columns(m[:, :0], linalg.DEFAULT_TOL)
