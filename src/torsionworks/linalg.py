"""Rank-revealing helpers shared by the homology and torsion code.

All routines work on complex matrices whose "meaningful" scale is O(1);
a matrix whose largest singular value falls below ``ZERO_FLOOR`` is
treated as the zero map.  Rank decisions are otherwise relative to the
largest singular value.

Defect and composition checks take no SVD.  They bound the 2-norm from
both sides instead: the Frobenius norm of a defect is at least its
2-norm, and the largest column norm of a scale is at most its 2-norm.
A check that rejects unless ``frobenius_norm(defect) <= tol *
max_column_norm(scale)`` therefore rejects everything the same check in
2-norms rejects, and rejects a NaN defect.  This holds for the
composition check ``nonzero_composition`` that ``twist`` and
``verify_exactness`` share, the cycle check of ``build_splitting`` and
the defect of ``min_norm_preimage``.

Independence checks usually take no SVD either.  ``independent_columns``
forms the Gram matrix G of the k unit-norm columns, which has a unit
diagonal, and e = ||G - I||_F.  The eigenvalues of G are the squared
singular values (and 0 when k exceeds the column length, so then
e >= 1), and each lies within ||G - I||_2 <= e of 1 (Weyl).  So
e <= ``GRAM_RADIUS`` = 1/2 puts every singular value in [sqrt(1/2),
sqrt(3/2)], and the smallest is at least 1/sqrt(3) times the largest.
Rounding moves a computed Gram product of k unit columns of length n by
at most about n k 2^-53 in Frobenius norm (Higham, *Accuracy and
Stability of Numerical Algorithms*, 3.5), far inside that margin, so
for any rank cutoff ``tol <= GRAM_TOL_LIMIT`` the SVD would also find
full rank.  The certificate only ever accepts; where it cannot decide,
a NaN included, the SVD decides, so every answer is the SVD's.
"""

import numpy as np

from .errors import HomologyError, RankAmbiguityError

# default relative rank cutoff, which a caller's tol overrides
DEFAULT_TOL = 1e-8

# fixed threshold on the relative defect of a solve or a composition
DEFECT_TOL = DEFAULT_TOL

# default relative tolerance of a verdict, which a caller's pass_tol overrides
PASS_TOL = 1e-6

# matrices with operator norm below this are the zero map
ZERO_FLOOR = 1e-11

# a singular value within this factor of the cutoff is ambiguous
AMBIGUITY_FACTOR = 10.0

# unit columns whose Gram matrix lies within this Frobenius distance of
# the identity are independent: their singular values are within a factor
# sqrt(3) of each other
GRAM_RADIUS = 0.5

# the largest rank cutoff that the Gram certificate decides; it stays below
# the ratio 1/sqrt(3) that GRAM_RADIUS guarantees by far more than rounding
GRAM_TOL_LIMIT = 0.5

# a norm below this may have lost squares of entries to underflow, so it
# is taken again on the entries divided by the largest modulus, as is an
# infinite norm, whose squares overflowed
UNDERFLOW_FLOOR = 1e-150


def empty_matrix(rows, cols=0):
    return np.zeros((rows, cols), dtype=complex)


def operator_norm(a):
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


@np.errstate(over="ignore")
def frobenius_norm(a):
    """Frobenius norm, an upper bound on the 2-norm (0 when ``a`` is empty).

    A norm below ``UNDERFLOW_FLOOR``, where squares of entries underflow,
    or an infinite one, where they overflow, is taken again on ``a`` over
    its largest modulus when that is finite.
    """
    n = float(np.linalg.norm(a))
    if n < UNDERFLOW_FLOOR or n == np.inf:
        s = float(np.abs(a).max(initial=0.0))
        if 0 < s < np.inf:
            n = s * float(np.linalg.norm(a / s))
    return n


def _column_sums(a):
    """The 2-norm of each column as the plain root of its sum of squares."""
    return np.sqrt(np.add.reduce((a.conj() * a).real, axis=0))


# the sums with an overflow raised, or left at inf; a decorated call
# costs less than a ``with np.errstate`` block on the checks' small matrices
_sums_or_raise = np.errstate(over="raise", invalid="ignore")(_column_sums)
_sums_to_inf = np.errstate(over="ignore", invalid="ignore")(_column_sums)


def column_norms(a):
    """The 2-norm of each column of ``a``.

    A norm below ``UNDERFLOW_FLOOR``, where squares of entries underflow,
    or an infinite one, where they overflow, is taken again on its column
    over the column's largest modulus when that is finite.  The sum is
    the one ``numpy.linalg.norm(a, axis=0)`` takes, bit for bit, without
    that call's argument handling, which costs more than the sum on the
    small matrices of the checks.  An overflow raises as it happens, so
    norms in the normal range cost no second pass.
    """
    try:
        n, overflowed = _sums_or_raise(a), False
    except FloatingPointError:
        n, overflowed = _sums_to_inf(a), True
    # a NaN norm takes this branch too, so it cannot hide an underflowed one
    if overflowed or not UNDERFLOW_FLOOR <= n.min(initial=UNDERFLOW_FLOOR):
        redo = (n < UNDERFLOW_FLOOR) | (n == np.inf)
        s = np.abs(a[:, redo]).max(axis=0, initial=0.0)
        s[(s == 0) | (s == np.inf)] = 1.0
        with np.errstate(over="ignore"):
            n[redo] = s * _sums_to_inf(a[:, redo] / s)
    return n


def max_column_norm(a):
    """Largest column 2-norm, a lower bound on the 2-norm (0 when ``a`` is empty)."""
    return float(column_norms(a).max(initial=0.0))


def nonzero_composition(maps, tol):
    """The first junction at which consecutive maps do not compose to zero.

    ``maps[p - 1]`` maps into the space that ``maps[p]`` maps out of, as
    the boundary maps of a chain complex do.  Returns ``(p, norm)`` with
    the Frobenius norm of ``maps[p - 1] @ maps[p]`` for the first product
    whose norm is not within ``tol * (1 + |a| |b|)``, in largest column
    norms, or None when every product vanishes.  A NaN norm does not.
    A product with an empty factor is zero and is not formed.
    """
    for p in range(1, len(maps)):
        a, b = maps[p - 1], maps[p]
        if not (a.size and b.size):
            continue
        resid = frobenius_norm(a @ b)
        scale = 1.0 + max_column_norm(a) * max_column_norm(b)
        if not resid <= tol * scale:
            return p, resid
    return None


def random_recombination(blocks, rng):
    """Each column block times a random square matrix normal + 1j normal + 3I.

    The shift by 3I keeps the recombination well conditioned.  Empty
    blocks are kept as they are and draw nothing from ``rng``.
    """
    out = []
    for block in blocks:
        k = block.shape[1]
        if k == 0:
            out.append(block)
            continue
        mix = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        mix += 3.0 * np.eye(k)
        out.append(block @ mix)
    return out


def svd_rank(sv, tol, check_ambiguity=False):
    """Number of singular values above the relative cutoff ``tol * max(sv)``.

    With ``check_ambiguity`` set, raise RankAmbiguityError when any
    singular value lies within AMBIGUITY_FACTOR of the cutoff, since a
    rank decision there is not trustworthy.
    """
    if sv.size == 0 or sv[0] <= ZERO_FLOOR:
        return 0
    cutoff = tol * sv[0]
    if check_ambiguity:
        lo, hi = cutoff / AMBIGUITY_FACTOR, cutoff * AMBIGUITY_FACTOR
        bad = sv[(sv > lo) & (sv < hi)]
        if bad.size:
            raise RankAmbiguityError(
                f"singular values {bad.tolist()} lie within a factor "
                f"{AMBIGUITY_FACTOR:g} of the rank cutoff {cutoff:.3e}",
                spectrum=sv.tolist(),
            )
    return int(np.sum(sv > cutoff))


def matrix_rank(a, tol):
    if a.size == 0:
        return 0
    return svd_rank(np.linalg.svd(a, compute_uv=False), tol)


def independent_columns(m, tol):
    """Whether the columns of ``m`` are linearly independent.

    Column scales are legitimate degrees of freedom, so the rank is taken
    of the unit-norm columns U = m / ``column_norms(m)``: only genuine
    dependence fails, and a zero or NaN column is dependent.  The answer
    is ``matrix_rank(U, tol) == k`` for k columns; the Gram certificate of
    the module docstring gives it without the SVD when U is near
    orthonormal and ``tol <= GRAM_TOL_LIMIT``.
    """
    norms = column_norms(m)
    if not (norms > 0).all():
        return False
    u = m / norms
    k = m.shape[1]
    if tol <= GRAM_TOL_LIMIT:
        gram = u.conj().T @ u
        gram.flat[:: k + 1] -= 1.0  # G - I
        # e^2 = ||G - I||_F^2 in one dot; a NaN fails the comparison
        if np.vdot(gram, gram).real <= GRAM_RADIUS**2:
            return True
    return matrix_rank(u, tol) == k


def kernel_and_image(a, tol):
    """Orthonormal bases (columns) of the null space and the column space
    of ``a``, both read from one SVD.  Raises RankAmbiguityError when the
    rank is too close to call."""
    if a.size == 0:
        return np.eye(a.shape[1], dtype=complex), empty_matrix(a.shape[0])
    u, sv, vh = np.linalg.svd(a)
    rank = svd_rank(sv, tol, check_ambiguity=True)
    return vh[rank:, :].conj().T, u[:, :rank]


def complement_in(span, subspace, count, tol):
    """Orthonormal vectors of ``span`` orthogonal to ``subspace``.

    Projects the columns of ``span`` away from ``subspace`` (both given
    as orthonormal column blocks) and returns the ``count`` dominant
    left singular vectors of the residue.
    """
    if count == 0:
        return empty_matrix(span.shape[0])
    resid = span - subspace @ (subspace.conj().T @ span)
    u, sv, _ = np.linalg.svd(resid)
    if sv.size < count or sv[count - 1] <= tol:
        raise HomologyError(
            f"the span has fewer than {count} independent "
            "directions outside the subspace"
        )
    return u[:, :count]


def min_norm_preimage(a, targets, tol):
    """Least-squares minimum-norm solve ``a @ x = targets`` column-wise.

    Singular values of ``a`` below ``tol`` times the largest are treated
    as zero.  Returns ``(x, residual)`` where residual is the Frobenius
    norm of ``a @ x - targets`` over the larger of 1 and the largest
    column norm of ``targets``: at least the relative 2-norm defect.
    """
    if targets.shape[1] == 0:
        return empty_matrix(a.shape[1]), 0.0
    x, *_ = np.linalg.lstsq(a, targets, rcond=tol)
    defect = a @ x - targets
    scale = max(max_column_norm(targets), 1.0)
    return x, frobenius_norm(defect) / scale
