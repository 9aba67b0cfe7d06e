"""Rank-revealing helpers shared by the homology and torsion code.

All routines work on complex matrices whose "meaningful" scale is O(1);
a matrix whose largest singular value falls below ``ZERO_FLOOR`` is
treated as the zero map.  Rank decisions are otherwise relative to the
largest singular value.  Each map is factored once, by the SVD of
``kernel_and_image``, which also gives the image's minimum-norm section.

``kernel_and_image`` and ``complement_in`` take the full SVD on every
shape.  A reduced SVD (``full_matrices=False``) gives a tall map's
singular values and V to the bit, but not always its U: LAPACK forms U
through blocked Householder products whose rounding depends on whether
U has m or n columns, and with OpenBLAS 0.3.31 the leading columns
differ on a 145 x 35 map with one BLAS thread and on a 200 x 32 map with
two.  Those columns are the image and homology bases, so a reduced SVD
would move printed torsion digits on larger inputs.

Defect and composition checks take no SVD.  They bound the 2-norm from
both sides instead: the Frobenius norm of a defect is at least its
2-norm, and the largest column norm of a scale is at most its 2-norm.
A check that rejects unless ``frobenius_norm(defect) <= tol *
max_column_norm(scale)`` therefore rejects everything the same check in
2-norms rejects, and rejects a NaN defect.  This holds for the
composition check ``nonzero_composition`` that ``twist`` and
``verify_exactness`` share, the cycle check of ``build_splitting`` and
``relative_defect``, which the section, class-coordinate and pull-back
checks share.

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
``build_splitting`` certifies each split basis [b_p | h_p | s_p] once.
With its default bases, [B_p | h_p] is that matrix's leading block: its
Gram matrix is a principal block of the whole one, so ||G_sub - I||_F <=
||G - I||_F, and its singular values interlace the whole one's, so
whenever the whole is accepted, the block is too.  The torsion's
determinant is then taken of the matrix that was certified.
"""

import contextlib
import math

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

# the smallest normal float, the least divisor of that second pass: numpy
# divides a complex array through the divisor's reciprocal, which overflows
# for a subnormal divisor
SMALLEST_NORMAL = float(np.finfo(float).tiny)

# a total of nonnegative squares at most this leaves every square and every
# partial sum of them, in any order, below the largest float
SQUARES_LIMIT = float(np.finfo(float).max) / 2


def empty_matrix(rows, cols=0):
    return np.zeros((rows, cols), dtype=complex)


def _sum_of_squares(a):
    """The sum of squared moduli of the entries of ``a``, as
    ``numpy.linalg.norm`` sums it, bit for bit: a dot product of the real
    parts plus one of the imaginary parts.  ``numpy.vdot`` takes them
    through BLAS and, unlike ``ndarray.dot`` and the ufuncs, raises no
    floating-point warning: an overflow gives inf and a NaN entry NaN,
    with no ``np.errstate`` context."""
    x = a.ravel(order="K")
    return float(np.vdot(x.real, x.real)) + float(np.vdot(x.imag, x.imag))


def frobenius_norm(a):
    """Frobenius norm, an upper bound on the 2-norm (0 when ``a`` is empty).

    The norm ``numpy.linalg.norm(a)`` takes, bit for bit, with no warning
    on overflow (``_sum_of_squares``).  A norm below ``UNDERFLOW_FLOOR``,
    where squares of entries underflow, or an infinite one, where they
    overflow, is taken again on ``a`` over its largest modulus when that
    is finite and nonzero (over ``SMALLEST_NORMAL`` when it is subnormal).
    """
    n = math.sqrt(_sum_of_squares(a))
    if n < UNDERFLOW_FLOOR or n == math.inf:
        # only where the squares overflowed can a modulus overflow too
        with np.errstate(over="ignore") if n == math.inf else contextlib.nullcontext():
            s = float(np.abs(a).max(initial=0.0))
        if 0 < s < math.inf:
            s = max(s, SMALLEST_NORMAL)
            n = s * math.sqrt(_sum_of_squares(a / s))
    return n


def _column_squares(a):
    """The sum of squared moduli of each column."""
    return np.add.reduce((a.conj() * a).real, axis=0)


def _squares_fit(a):
    """Whether no square of an entry of ``a`` and no sum of them overflows:
    their total, which ``numpy.vdot`` takes with no warning, is at most
    ``SQUARES_LIMIT``.  A NaN total is not.

    The same total as ``_sum_of_squares``, taken in one complex dot rather
    than two real ones: only its bound is read, not its bits, and it runs
    before every column norm, where the second dot and the views of the
    real and imaginary parts would double its cost (about 3 against
    1.5 us on the checks' small matrices)."""
    return np.vdot(a, a).real <= SQUARES_LIMIT


def column_norms(a):
    """The 2-norm of each column of ``a``.

    A norm below ``UNDERFLOW_FLOOR``, where squares of entries underflow,
    or an infinite one, where they overflow, is taken again on its column
    over the column's largest modulus when that is finite and nonzero
    (over ``SMALLEST_NORMAL`` when it is subnormal).  The sum is
    the one ``numpy.linalg.norm(a, axis=0)`` takes, bit for bit, without
    that call's argument handling, which costs more than the sum on the
    small matrices of the checks.  Its ufuncs would warn on an overflow,
    so they run bare only where ``_squares_fit`` rules one out, and an
    ``np.errstate`` context is entered only on the rescale path.
    """
    if _squares_fit(a):
        n = np.sqrt(_column_squares(a))
        if UNDERFLOW_FLOOR <= n.min(initial=UNDERFLOW_FLOOR):
            return n
    # the rescale path; a NaN norm takes it too, so it cannot hide an
    # underflowed one
    with np.errstate(over="ignore", invalid="ignore"):
        n = np.sqrt(_column_squares(a))
        redo = (n < UNDERFLOW_FLOOR) | (n == np.inf)
        s = np.abs(a[:, redo]).max(axis=0, initial=0.0)
        s[(s == 0) | (s == np.inf)] = 1.0
        np.maximum(s, SMALLEST_NORMAL, out=s)
        n[redo] = s * np.sqrt(_column_squares(a[:, redo] / s))
    return n


def max_column_norm(a):
    """Largest column 2-norm, a lower bound on the 2-norm (0 when ``a`` is empty).

    The largest of ``column_norms(a)``, taken as the root of the largest
    sum of squares before any rescale pass: the square root is monotone
    and correctly rounded, so the largest root is the root of the largest
    sum.  A column that ``column_norms`` rescales for underflow has every
    entry below ``UNDERFLOW_FLOOR``, so its norm is below UNDERFLOW_FLOOR
    sqrt(m), m the row count, up to rounding; a finite largest root of at
    least twice that is the largest norm.  The zero map's is 0.  Otherwise,
    an overflow, an infinite entry or a NaN included, it is taken from
    ``column_norms``.
    """
    sums = _column_squares(a) if _squares_fit(a) else None
    if sums is not None and sums.size:
        top = math.sqrt(sums.max())
        if 2 * UNDERFLOW_FLOOR * math.sqrt(a.shape[0]) <= top < math.inf:
            return top
        if not a.any():
            return 0.0
    return float(column_norms(a).max(initial=0.0))


def nonzero_composition(maps, tol):
    """The first junction at which consecutive maps do not compose to zero.

    ``maps[p - 1]`` maps into the space that ``maps[p]`` maps out of, as
    the boundary maps of a chain complex do.  Returns ``(p, norm)`` with
    the Frobenius norm of ``maps[p - 1] @ maps[p]`` for the first product
    whose norm is not within ``tol * (1 + |a| |b|)``, in largest column
    norms, or None when every product vanishes.  A NaN norm does not.
    A product with an empty factor is zero and is not formed.  Each map's
    largest column norm is taken once, and a middle map's serves both of
    its junctions.
    """
    norm_a = None  # the largest column norm of maps[p - 1], once taken
    for p in range(1, len(maps)):
        a, b = maps[p - 1], maps[p]
        if not (a.size and b.size):
            norm_a = None
            continue
        resid = frobenius_norm(a @ b)
        if norm_a is None:
            norm_a = max_column_norm(a)
        norm_b = max_column_norm(b)
        if not resid <= tol * (1.0 + norm_a * norm_b):
            return p, resid
        norm_a = norm_b
    return None


def random_recombination(blocks, rng):
    """Each column block times its own random k x k mix, normal + 1j
    normal + 3I; the shift by 3I keeps the mix well conditioned.

    A mix's real parts are drawn before its imaginary parts, in one call
    to ``rng``.  Empty blocks are kept as they are and draw nothing.
    """
    out = []
    for block in blocks:
        k = block.shape[1]
        if k:
            real, imag = rng.standard_normal((2, k, k))
            mix = real + 1j * imag
            mix += 3.0 * np.eye(k)
            block = block @ mix
        out.append(block)
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


def integer_rank(rows):
    """Exact rank of an integer matrix given as rows of Python integers.

    Fraction-free (Bareiss) elimination: after k pivots every entry left
    is a (k + 1)-minor of the input, so each division is exact and no
    rounding or cutoff enters the answer.
    """
    m = [list(row) for row in rows]
    rank, prev = 0, 1
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        for i in range(rank + 1, len(m)):
            row = m[i]
            m[i] = [(top[c] * x - row[c] * y) // prev for x, y in zip(row, top)]
        prev = top[c]
        rank += 1
    return rank


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
    U_r of ``a``, and the section V_r S_r^-1 that ``a`` maps onto U_r, all
    read from one SVD a = U S V^H.  For y in the image, the section times
    U_r^H y is the minimum-norm solution of a x = y.  Raises
    RankAmbiguityError when the rank is too close to call."""
    if a.size == 0:
        return (np.eye(a.shape[1], dtype=complex), empty_matrix(a.shape[0]),
                empty_matrix(a.shape[1]))
    u, sv, vh = np.linalg.svd(a)
    rank = svd_rank(sv, tol, check_ambiguity=True)
    return vh[rank:, :].conj().T, u[:, :rank], vh[:rank, :].conj().T / sv[:rank]


def relative_defect(residue, targets):
    """Frobenius norm of ``residue`` over the larger of 1 and the largest
    column norm of ``targets``: at least the relative 2-norm defect.  An
    empty residue has defect 0, with no work."""
    if residue.size == 0:
        return 0.0
    return frobenius_norm(residue) / max(max_column_norm(targets), 1.0)


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
