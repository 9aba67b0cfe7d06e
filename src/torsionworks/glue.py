"""Disk sums, the Mayer-Vietoris sequence, and torsion multiplicativity.

The disk sum of two complexes identifies one 0-cell of each factor (the
gluing disk is contractible, so its simple-homotopy collapse to a point
is used as the chain model).  That gives a short exact sequence of
twisted complexes

    0 -> C(D) --(i1, -i2)--> C(M1) (+) C(M2) --j1 + j2--> C(M) -> 0

The map beta = j1 + j2 only relabels cells (a bijection above degree 0),
so it is never a matrix here: the glued complex and every beta-induced
map are placements at the coordinates ``GluedPair.cell_maps`` gives.
One rule lays out every disk sum: a factor's cells follow those of the
factors before it in each degree, and its cell 0 is the base cell 0.
So the partial sums of a left-associated chain are leading blocks of
the whole sum, and ``verify_multiplicativity`` lays a chain out once per
call, writes each factor's twisted blocks once into one placement, and
reads each partial sum's complex off its leading block; ``disk_sum``
and ``analyze_disk_sum`` serve single pairs from the same layout.
Alpha = (i1, -i2) embeds the disk's one cell as cell 0 of each factor;
it is a small matrix with orthogonal columns, and the connecting map
pulls back along it by projection.

The homology long exact sequence, read right to left, is the acyclic
complex of 3(n + 1) spaces, for M of dimension n:

    space 3p   : H_p(M)
    space 3p+1 : H_p(M1) (+) H_p(M2)
    space 3p+2 : H_p(D)          (zero above degree 0)

Its torsion in canonical homology bases is the corrective term, and a
basis enters it only through its determinant (Milnor, *Whitehead
torsion*, section 3).  D is a point, so above degree 1 the sequence only
places the factors' homology, and all its information sits in the
degree-0 map alpha_*.  ``gluing_torsion`` takes the corrective term of
each chain step from that degree-0 block, with H(M) in a basis assembled
from the factors' bases, and restates the exactness of the whole
sequence without building it.  ``MvSequence`` is the whole sequence as
a chain complex with d = 1, built, checked for exactness and split once
per pair by ``mv_sequence``; it serves ``verify_mv_identity`` and the
tests, where ``corrective_term`` takes its torsion in other bases from
their coordinates in the canonical ones.  ``transport_bases`` carries
every basis as its determinant: it cancels the corrective term with a
single scalar, the determinant of the right factor's basis in its first
degree with homology, which reduces the gluing formula

    T(M1) * T(M2) = T(M) * T(D) * (corrective term)

to plain multiplicativity T(M) = T(M1) * T(M2).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import (
    GroupPresentation,
    GroupRingElement,
    GroupRingMatrix,
    Representation,
    Word,
    orthonormal_sl2_basis,
)
from .complexes import (
    CwComplexData,
    HomologyData,
    TwistedChainComplex,
    euler_characteristic,
    homology,
    twist,
    untwisted_betti0,
)
from .errors import (
    DimensionMismatchError,
    DiskSumError,
    HomologyError,
    RankAmbiguityError,
    SequenceError,
    TransportError,
)
from .linalg import DEFAULT_TOL, DEFECT_TOL, PASS_TOL
from .scenes import disk
from .torsion import (
    TorsionResult,
    build_splitting,
    determinants,
    rebased,
    rescaled,
    torsion,
    torsion_of,
)

# ---------------------------------------------------------------------------
# disk sum of CW data
# ---------------------------------------------------------------------------

def _remap_word(word: Word, offset: int) -> Word:
    return Word(tuple((g + offset, e) for g, e in word.letters))


def _remap_element(elem: GroupRingElement, offset: int) -> GroupRingElement:
    return GroupRingElement.from_terms(
        (_remap_word(w, offset), c) for w, c in elem.terms
    )


@dataclass
class DiskSumResult:
    """Glued CW data plus the cell and generator index maps of the factors."""

    total: CwComplexData
    cell_maps: tuple[list[list[int]], list[list[int]]]
    generator_maps: tuple[list[int], list[int]]


def _layout(factors):
    """Where every factor's cells and generators sit in the left-associated
    disk sum of ``factors``, from their cell and generator counts alone.

    Returns ``(cell_maps, cells, generators)``.  ``cell_maps[i][p]`` lists
    the glued index of each p-cell of factor i, for every degree of the
    whole sum.  ``cells[k]`` are the cell counts of the partial sum of
    factors 0..k, in its own degrees.  ``generators[i]`` is the index of
    factor i's first generator, and ``generators[-1]`` the total count.
    Each factor's cells follow those of the factors before it in every
    degree, except its cell 0, which is the gluing point, cell 0 of
    factor 0.  So a partial sum's cells lead the next one's, and the
    partial sum of factors 0..k is the disk sum of the partial sum of
    0..k-1 with factor k.
    """
    dim = max(m.dimension for m in factors)
    totals = [0] * (dim + 1)
    cell_maps, cells, generators = [], [], [0]
    top = 0
    for i, m in enumerate(factors):
        maps = []
        for p in range(dim + 1):
            count = m.cells[p] if p <= m.dimension else 0
            shared = int(p == 0 and i > 0)
            own = max(count - shared, 0)
            maps.append([0] * shared + list(range(totals[p], totals[p] + own)))
            totals[p] += own
        cell_maps.append(maps)
        top = max(top, m.dimension)
        cells.append(totals[:top + 1])
        generators.append(generators[-1] + m.presentation.generator_count)
    return cell_maps, cells, generators


def _check_gluable(m: CwComplexData):
    if m.cells[0] < 1:
        raise DiskSumError(f"factor {m.name!r} has no 0-cell to glue")
    if untwisted_betti0(m) != 1:
        raise DiskSumError(f"factor {m.name!r} is not connected")


def disk_sum(m1: CwComplexData, m2: CwComplexData) -> DiskSumResult:
    """Glue two connected complexes along one 0-cell (index 0 of each).

    The fundamental group is the free product and the Euler
    characteristics satisfy chi(M) = chi(M1) + chi(M2) - 1.  The cell
    and generator maps come from the layout ``verify_multiplicativity``
    computes once for a whole chain, so a pair and a chain follow one
    gluing rule; the glued group-ring boundaries are built and checked
    here, for callers that need the glued CW data itself.
    """
    for m in (m1, m2):
        _check_gluable(m)
    (maps1, maps2), (_, cells), (_, g1, g) = _layout([m1, m2])
    relators = tuple(m1.presentation.relators) + tuple(
        _remap_word(r, g1) for r in m2.presentation.relators
    )
    pres = GroupPresentation(g, relators)

    boundaries = []
    for p in range(1, len(cells)):
        rows, cols = cells[p - 1], cells[p]
        grid = [[GroupRingElement.zero() for _ in range(cols)] for _ in range(rows)]
        if p <= m1.dimension:
            src = m1.boundary_matrix(p)
            for i in range(src.rows):
                for j in range(src.cols):
                    grid[maps1[p - 1][i]][maps1[p][j]] = src.entry(i, j)
        if p <= m2.dimension:
            src = m2.boundary_matrix(p)
            for i in range(src.rows):
                for j in range(src.cols):
                    entry = _remap_element(src.entry(i, j), g1)
                    ti, tj = maps2[p - 1][i], maps2[p][j]
                    grid[ti][tj] = grid[ti][tj] + entry
        boundaries.append(GroupRingMatrix(rows, cols, tuple(map(tuple, grid))))

    total = CwComplexData(
        name=f"{m1.name}+{m2.name}",
        presentation=pres,
        cells=cells,
        boundaries=boundaries,
    )
    assert euler_characteristic(total) == (
        euler_characteristic(m1) + euler_characteristic(m2) - 1
    )
    return DiskSumResult(
        total=total,
        cell_maps=(maps1, maps2),
        generator_maps=(list(range(g1)), list(range(g1, g))),
    )


def _check_reps(psi1: Representation, psi2: Representation, images: int, generators: int):
    """Reject gluing psi2 to psi1 when their targets or ranks differ, or when
    the glued representation's ``images`` do not match the glued
    presentation's ``generators``."""
    if psi1.target != psi2.target:
        raise DiskSumError(
            f"target mismatch: {psi1.target.value} vs {psi2.target.value}"
        )
    if psi1.n != psi2.n:
        raise DiskSumError(f"rank mismatch: {psi1.n} vs {psi2.n}")
    if images != generators:
        raise DiskSumError("generator counts do not match the glued presentation")


def free_product_rep(psi1: Representation, psi2: Representation,
                     ds: DiskSumResult) -> Representation:
    """The unique representation restricting to psi1 and psi2."""
    images = tuple(psi1.images) + tuple(psi2.images)
    _check_reps(psi1, psi2, len(images), ds.total.presentation.generator_count)
    return Representation(psi1.target, psi1.n, images)


# ---------------------------------------------------------------------------
# the gluing as cell placement
# ---------------------------------------------------------------------------

def _coordinates(cell_map, d):
    """Glued coordinate indices of a factor's cells, d per cell."""
    return (np.asarray(cell_map, dtype=int)[:, None] * d + np.arange(d)).ravel()


def _place(mats, tc: TwistedChainComplex, maps):
    """Write the boundary blocks of ``tc`` into the glued maps ``mats`` at the
    coordinates of its cell maps ``maps``."""
    d = tc.d
    for p in range(1, tc.dimension + 1):
        rows, cols = _coordinates(maps[p - 1], d), _coordinates(maps[p], d)
        mats[p - 1][np.ix_(rows, cols)] = tc.boundary(p)


def _zero_maps(cells, d):
    return [np.zeros((cells[p - 1] * d, cells[p] * d), dtype=complex)
            for p in range(1, len(cells))]


def _class_coordinates(vectors, h, boundary, degree=None):
    """Coordinates ``h^H v`` of cycle columns v in the basis ``h`` modulo
    boundaries: ``homology`` chooses ``h`` and ``boundary`` orthonormal and
    mutually orthogonal.  A column with a residue off both is rejected,
    with ``degree`` named when it is given."""
    coords = h.conj().T @ vectors
    residue = vectors - h @ coords - boundary @ (boundary.conj().T @ vectors)
    defect = linalg.relative_defect(residue, vectors)
    if not defect <= DEFECT_TOL:
        where = "" if degree is None else f"degree {degree}: "
        raise SequenceError(
            f"{where}vector is not a cycle class in the given basis (defect {defect:.3e})"
        )
    return coords


# ---------------------------------------------------------------------------
# the Mayer-Vietoris sequence
# ---------------------------------------------------------------------------

@dataclass
class GluedPair:
    """Everything needed to study one disk sum of twisted complexes.

    ``cell_maps`` holds, for M1 and for M2, the glued index of each of
    its p-cells in M, one list per degree of M.
    """

    cell_maps: tuple[list, list]
    tc1: TwistedChainComplex
    tc2: TwistedChainComplex
    tcm: TwistedChainComplex
    tcd: TwistedChainComplex
    hd1: HomologyData
    hd2: HomologyData
    hdm: HomologyData
    hdd: HomologyData


@dataclass
class MvSequence(TwistedChainComplex):
    """The homology long exact sequence of a disk sum, as a based complex.

    A chain complex with d = 1, three spaces per degree of the glued
    complex: ``mats[q - 1]`` maps space q into space q - 1.  Each space
    is written in the pair's canonical homology bases (cycle-vector
    columns), its default basis; every other basis is passed to
    ``corrective_term`` as coordinates in these.  In the direct-sum
    space 3p+1 the coordinates of ``h_factors[0][p]`` come first and
    those of ``h_factors[1][p]`` last.  ``mv_sequence`` checks exactness
    and takes ``canonical``, the torsion in these bases, once.
    """

    h_factors: tuple[list[np.ndarray], list[np.ndarray]]
    canonical: TorsionResult


def _padded(hlist, degrees):
    """``hlist`` with empty bases appended, one basis per degree below ``degrees``."""
    return [hlist[p] if p < len(hlist) else linalg.empty_matrix(0)
            for p in range(degrees)]


def mv_sequence(pair: GluedPair, tol: float = DEFAULT_TOL) -> MvSequence:
    """Assemble the sequence of ``pair`` in its canonical homology bases.

    It has 3(n + 1) spaces, n the dimension of ``pair.tcm``, each written
    in the representatives of ``pair``'s homology data; any other basis
    is passed as coordinates in these.  The maps are induced on homology
    coordinates: inclusion-induced maps in each degree, plus the
    connecting map by the usual zig-zag (lift along beta, take the
    boundary, pull back along alpha).  Beta only relabels cells, so its maps are
    placements at the coordinates of ``pair.cell_maps``: a factor's
    cycles are written there, and a cycle of M lifts by reading its
    factors' coordinates back, which is exact above degree 0.  Alpha,
    (v, -v) on the shared 0-cell, has orthogonal columns of squared norm
    2, so the pull-back is alpha^H / 2.  Exactness is verified, and the
    torsion that ``corrective_term`` and ``transport_bases`` rescale is
    taken at ``tol`` and stored in ``canonical``, before returning.
    """
    tc1, tc2, tcm = pair.tc1, pair.tc2, pair.tcm
    degrees = tcm.dimension + 1
    b1, b2, bm, bd = (_padded(hd.h_basis, degrees)
                      for hd in (pair.hd1, pair.hd2, pair.hdm, pair.hdd))

    d = tcm.d
    at1, at2 = [[_coordinates(cells, d) for cells in maps] for maps in pair.cell_maps]
    # alpha: C(D) -> C_0(M1) (+) C_0(M2), (v, -v) on cell 0 of each factor
    n1 = tc1.dims[0]
    alpha = np.zeros((n1 + tc2.dims[0], d), dtype=complex)
    alpha[:d] = np.eye(d)
    alpha[n1:n1 + d] = -np.eye(d)

    dims = [n for p in range(degrees)
            for n in (bm[p].shape[1], b1[p].shape[1] + b2[p].shape[1], bd[p].shape[1])]

    # maps[q - 1] maps space q into space q - 1
    maps: list[np.ndarray] = []
    for p in range(degrees):
        q = 3 * p
        # beta-induced: H_p(M1) (+) H_p(M2) -> H_p(M)
        mat = np.zeros((dims[q], dims[q + 1]), dtype=complex)
        if dims[q] and dims[q + 1]:
            k1 = b1[p].shape[1]
            images = np.zeros((tcm.dims[p], dims[q + 1]), dtype=complex)
            images[at1[p], :k1] = b1[p]
            images[at2[p], k1:] = b2[p]
            mat = _class_coordinates(images, bm[p], pair.hdm.boundary_basis[p])
        maps.append(mat)

        # alpha-induced: H_p(D) -> H_p(M1) (+) H_p(M2)   (degree 0 only)
        mat = np.zeros((dims[q + 1], dims[q + 2]), dtype=complex)
        if dims[q + 2]:
            images = alpha @ bd[p]
            c1 = _class_coordinates(images[:n1, :], b1[0], pair.hd1.boundary_basis[0])
            c2 = _class_coordinates(images[n1:, :], b2[0], pair.hd2.boundary_basis[0])
            mat = np.vstack([c1, c2])
        maps.append(mat)

        # connecting map: H_{p+1}(M) -> H_p(D)
        if p + 1 < degrees:
            mat = np.zeros((dims[q + 2], dims[q + 3]), dtype=complex)
            if dims[q + 3] and dims[q + 2]:
                z = bm[p + 1]
                bdry = np.vstack([tc1.boundary(p + 1) @ z[at1[p + 1]],
                                  tc2.boundary(p + 1) @ z[at2[p + 1]]])
                pulled = alpha.conj().T @ bdry / 2
                defect = linalg.relative_defect(alpha @ pulled - bdry, bdry)
                if not defect <= DEFECT_TOL:
                    raise SequenceError(
                        f"degree {p + 1}: connecting boundary misses the disk image "
                        f"(defect {defect:.3e})"
                    )
                mat = _class_coordinates(pulled, bd[p], pair.hdd.boundary_basis[p])
            maps.append(mat)

    tc = TwistedChainComplex(1, dims, maps)
    hd = verify_exactness(tc, tol)
    split = build_splitting(tc, hd, tol=tol,
                            boundary_bases=_split_boundary_bases(tc, hd.boundary_basis))
    return MvSequence(1, dims, maps, h_factors=(pair.hd1.h_basis, pair.hd2.h_basis),
                      canonical=torsion(tc, split))


def verify_exactness(tc: TwistedChainComplex, tol: float = DEFAULT_TOL) -> HomologyData:
    """Check that a chain complex is exact and return its homology data.

    Consecutive maps must compose to zero (``linalg.nonzero_composition``
    at ``DEFECT_TOL``) and every homology group must be zero, which
    makes the alternating sum of the dimensions zero as well.
    """
    bad = linalg.nonzero_composition(tc.mats, DEFECT_TOL)
    if bad is not None:
        p, resid = bad
        raise SequenceError(f"maps into and out of space {p} compose to norm {resid:.3e}")
    try:
        hd = homology(tc, tol)
    except HomologyError as exc:
        raise SequenceError(f"{exc}; the sequence is not exact") from None
    for p, k in enumerate(hd.betti):
        if k:
            raise SequenceError(
                f"space {p}: homology of dimension {k}; the sequence is not exact")
    return hd


def _split_boundary_bases(seq: TwistedChainComplex,
                          images: list[np.ndarray]) -> list[np.ndarray]:
    """Boundary bases b_q of the split bases b_q | s_q(b_{q-1}) of the sequence.

    ``images[q]`` is the orthonormal SVD image basis of the map into
    space q, so its width is that map's rank.  Where the sequence is
    clean it is replaced by the vectors the construction names: the
    disk-image vectors themselves when the disk inclusion injects, and
    the identity on H_p(M) when the gluing map onto it is surjective.
    The torsion does not depend on this choice, but its rounding does:
    the named vectors keep it exact on clean pairs, where the SVD bases
    leave an error in the last bits (``verify-theorem1`` on point # point
    printed a ``factor_product`` of 0.9999999999999987 with them).
    """
    out = list(images)
    if seq.dims[2] and images[1].shape[1] == seq.dims[2]:
        out[1] = seq.boundary(2)
    for q in range(0, len(seq.dims), 3):
        if seq.dims[q] and images[q].shape[1] == seq.dims[q]:
            out[q] = np.eye(seq.dims[q], dtype=complex)
    return out


def corrective_term(seq: MvSequence, bases=None) -> TorsionResult:
    """Torsion of the exact sequence in the assigned bases ``bases``.

    ``bases[q]`` holds the coordinates of the assigned basis of space q
    in the canonical one ``mv_sequence`` wrote it in, so it multiplies
    ``seq.canonical`` by det(bases[q])^((-1)^(q+1)); in a direct-sum space
    the factors' coordinates sit block-diagonally, the first factor's
    first.  None, for ``bases`` or an entry, and missing trailing entries
    are the identity; more entries than spaces, or an entry not n x n for
    a space of dimension n, raise DimensionMismatchError, a singular one
    SplittingError.  The value does not depend on the split of each
    space; the per-degree determinants do.
    """
    for q, (n, c) in enumerate(zip(seq.dims, bases or ())):
        if c is not None and np.shape(c) != (n, n):
            raise DimensionMismatchError(f"space {q}: {np.shape(c)} coordinates, dimension {n}")
    return rebased(seq.canonical, bases, -1)


def _lifts(pair: GluedPair, ends, kernel, coordinates):
    """The cycles s_1(v) + s_2(v) of M for the columns v of ``kernel``.

    ``ends[i]`` is the image (v, -v) of the disk's classes at cell 0 of
    factor i, s_i the minimum-norm preimage there under factor i's
    boundary, from its ``section[0]``, and ``coordinates[i]`` the glued
    coordinates of factor i's chains in each degree.  A preimage whose
    defect exceeds ``DEFECT_TOL`` raises SequenceError.
    """
    out = np.zeros((pair.tcm.dims[1] if pair.tcm.dimension else 0, kernel.shape[1]),
                   dtype=complex)
    if not kernel.shape[1]:
        return out
    for i, (tc, hd, y) in enumerate(zip((pair.tc1, pair.tc2), (pair.hd1, pair.hd2), ends)):
        target = y @ kernel
        s = hd.section[0] @ (hd.boundary_basis[0].conj().T @ target)
        defect = linalg.relative_defect(tc.boundary(1) @ s - target, target)
        if not defect <= DEFECT_TOL:
            raise SequenceError(
                f"degree 1: the lift of a disk class in factor {i + 1} has section defect "
                f"{defect:.3e}; the sequence is not exact")
        out[coordinates[i][1]] += s
    return out


def gluing_torsion(pair: GluedPair, tol: float = DEFAULT_TOL) -> TorsionResult:
    """The torsion of ``pair``'s sequence in canonical bases, from its degree-0 block.

    This is the value of ``mv_sequence(pair).canonical``, without the
    sequence.  D is a point, so above degree 1 the sequence only places
    the factors' homology, and its information sits in alpha_*, the class
    coordinates of (v, -v) at cell 0 of each factor, e = dim H_0(D)
    columns.  One SVD of alpha_* gives its rank r and, when 0 < r < e,
    its right singular vectors V, whose last e - r columns span its
    kernel K (V is the identity when r is 0 or e).  beta_*, the classes
    in H_0(M) of the factors' placed degree-0 classes, kills the image of
    alpha_*, so its rows span a complement W = beta_*^H of that image.

    The sequence is split in the assembled basis A_p of H_p(M): each
    factor's canonical basis placed, M1's first, plus the lifts
    s_1(v) + s_2(v) of K in degree 1 (``_lifts``), and the placed
    combinations W gives in degree 0.  Their class coordinates C_p in
    ``pair.hdm``'s basis are the split bases of the spaces 3p, so the
    canonical bases cost no other determinant (Milnor, *Whitehead
    torsion*, section 3).  The factors' and the disk's degree-0 spaces
    are split by [alpha_* V_r | W] and [K | V_r], the factors' spaces
    above degree 0 by the identity, and the disk's are zero there.  K is
    rebased so that its lifts are orthonormal; the rebasing enters the
    splits of spaces 2 and 3 and cancels.  Named vectors, not SVD bases,
    keep the torsion exact on clean pairs: point # point gives 1 to the
    bit.

    The exactness of the whole sequence is restated: a rank of alpha_*
    too close to call, a lift with a section defect, an assembled vector
    with a class-coordinate residue, or a C_p that is not square (a
    count other than b_p(M)) or not independent
    (``linalg.independent_columns``) raises SequenceError naming the
    degree.  beta_* alpha_* vanishes once the residues do, since the two
    placed images of a disk class cancel at the shared cell.
    """
    tcm, hdm, d = pair.tcm, pair.hdm, pair.tcm.d
    degrees = tcm.dimension + 1
    b1, b2 = (_padded(hd.h_basis, degrees) for hd in (pair.hd1, pair.hd2))
    at1, at2 = [[_coordinates(cells, d) for cells in maps] for maps in pair.cell_maps]
    disk_classes = pair.hdd.h_basis[0]
    e = disk_classes.shape[1]

    ends = []
    for sign, tc in ((1, pair.tc1), (-1, pair.tc2)):
        y = np.zeros((tc.dims[0], e), dtype=complex)
        y[:d] = sign * disk_classes
        ends.append(y)
    alpha = np.vstack([_class_coordinates(y, hd.h_basis[0], hd.boundary_basis[0], 0)
                       for y, hd in zip(ends, (pair.hd1, pair.hd2))])
    r, v = 0, np.eye(e, dtype=complex)
    if alpha.size:
        _, sv, vh = np.linalg.svd(alpha)
        try:
            r = linalg.svd_rank(sv, tol, check_ambiguity=True)
        except RankAmbiguityError as exc:
            raise SequenceError(f"degree 0: {exc}; the sequence is not exact") from None
        if 0 < r < e:
            v = vh.conj().T
    kernel = v[:, r:]
    lifts = _lifts(pair, ends, kernel, (at1, at2))
    # the lifts of an orthonormal K need not be orthogonal; rebasing K by
    # the inverse root of their Gram matrix makes them orthonormal, so the
    # Gram certificate decides C_1, and the rebasing cancels between the
    # split bases of spaces 2 and 3.  Near-dependent lifts are left as they
    # are, for the rank SVD of C_1's check to judge.
    lam, q = np.linalg.eigh(lifts.conj().T @ lifts)
    if lam.size and not lam[0] <= tol * lam[-1]:
        g = q / np.sqrt(lam)
        kernel, lifts = kernel @ g, lifts @ g

    dets = [complex(1.0)] * (3 * degrees)
    for p in range(degrees):
        k1, k2 = b1[p].shape[1], b2[p].shape[1]
        a = np.zeros((tcm.dims[p], k1 + k2 + (lifts.shape[1] if p == 1 else 0)),
                     dtype=complex)
        a[at1[p], :k1] = b1[p]
        a[at2[p], k1:k1 + k2] = b2[p]
        if p == 1:
            a[:, k1 + k2:] = lifts
        c = _class_coordinates(a, hdm.h_basis[p], hdm.boundary_basis[p], p)
        count = c.shape[1] - (r if p == 0 else 0)
        if count != hdm.betti[p]:
            raise SequenceError(f"degree {p}: {count} assembled classes for betti "
                                f"{hdm.betti[p]}; the sequence is not exact")
        if p == 0:
            complement = c.conj().T
            dets[1] = np.linalg.det(np.hstack([alpha @ v[:, :r], complement]))
            c = c @ complement
        if c.size and not linalg.independent_columns(c, tol):
            raise SequenceError(
                f"degree {p}: the assembled classes are dependent; the sequence is not exact")
        dets[3 * p] = np.linalg.det(c)
    dets[2] = np.linalg.det(np.hstack([kernel, v[:, :r]]))

    # dets holds det(M_q) of each split basis M_q; the torsion keeps 1 / det(M_q)
    value = complex(1.0)
    for q, det in enumerate(dets):
        det = complex(det)
        if det == 0 or not cmath.isfinite(det):
            raise SequenceError(f"space {q}: singular split basis; the sequence is not exact")
        value *= det ** ((-1) ** q)
        dets[q] = 1.0 / det
    return TorsionResult(value=value, per_degree_determinants=dets)


# ---------------------------------------------------------------------------
# basis transport
# ---------------------------------------------------------------------------

@dataclass
class TransportedBases:
    """Factor homology bases for which the corrective term equals 1.

    A basis enters a torsion only through the determinant of its
    coordinates in the canonical one, so each transported basis is that
    determinant: ``dets_m1[p]`` and ``dets_m2[p]`` for the bases of
    H_p(M1) and H_p(M2) in ``h_factors[0][p]`` and ``[1][p]``, None
    for the canonical basis itself.  ``residual`` is the corrective term
    in the given bases of the M and D spaces and the canonical factor
    bases; one entry carries the power of it that cancels it, so
    ``corrective``, the corrective term in the bases so assigned, is 1
    for every exact sequence.
    """

    dets_m1: list[complex | None]
    dets_m2: list[complex | None]
    residual: complex
    corrective: TorsionResult


def transport_bases(canonical: TorsionResult, h_factors, dets=None) -> TransportedBases:
    """Choose factor bases making the corrective term 1, one scalar per step.

    ``canonical`` is the sequence's torsion in canonical bases, one
    per-degree determinant per space, as ``mv_sequence`` and
    ``gluing_torsion`` give it; ``h_factors`` are the factors' canonical
    homology bases, M1's first, as ``MvSequence.h_factors`` holds them.
    ``dets[q]`` is the determinant of the given basis of space q, as
    ``rescaled`` takes it (``torsion.determinants`` turns coordinates into
    these); missing trailing entries are the identity and the direct-sum
    entries must be None, since they are assigned here.  The corrective
    term kappa in those bases is cancelled in the first degree where M2
    has homology, by a basis of H_p(M2) of determinant kappa^((-1)^(p+1)),
    so the partial sum M1 keeps its canonical bases and no scale
    compounds down a chain.  When M2 is acyclic, M1's first nonzero
    degree takes it; with no homology in either factor, kappa must be 1.
    """
    spaces = len(canonical.per_degree_determinants)
    dets = list(dets or ())
    dets += [None] * (spaces - len(dets))
    for q in range(1, spaces, 3):
        if dets[q] is not None:
            raise TransportError(f"space {q}: a direct-sum space takes no given basis")
    residual = rescaled(canonical, dets, -1).value

    dets_m1, dets_m2 = ([None] * len(h) for h in h_factors)
    for h, out in zip(reversed(h_factors), (dets_m2, dets_m1)):
        p = next((p for p, hp in enumerate(h) if hp.shape[1]), None)
        if p is not None:
            # a basis of determinant c in space 3p+1 multiplies the
            # corrective term by c^((-1)^p)
            out[p] = dets[3 * p + 1] = residual ** ((-1) ** (p + 1))
            break
    else:
        if not abs(residual - 1.0) <= PASS_TOL:
            raise TransportError(
                f"corrective term {residual} cannot be normalized: "
                "no nonzero direct-sum space"
            )
    return TransportedBases(dets_m1=dets_m1, dets_m2=dets_m2, residual=residual,
                            corrective=rescaled(canonical, dets, -1))


# ---------------------------------------------------------------------------
# assembled analyses and verifiers
# ---------------------------------------------------------------------------

def _factored(cw: CwComplexData, rep: Representation,
              tol: float) -> tuple[TwistedChainComplex, HomologyData]:
    tc = twist(cw, rep, orthonormal_sl2_basis(), tol)
    return tc, homology(tc, tol)


def _glued_chain(factors, reps, tol: float):
    """The pair of each step of the left-associated disk sum of ``factors``.

    Step k glues the partial sum of factors 0..k-1 to factor k.  The
    layout of the whole sum is computed once, from the factors' cell
    counts, and each factor's twisted blocks are written once into one
    placement of it; the complex of the partial sum of 0..k is a copy of
    that placement's leading block.  A factor is checked as ``disk_sum``
    and ``free_product_rep`` check it, connectivity first, then its
    representation's target, rank and generator count against the first
    factor's, just before it is twisted; the partial sums, built here,
    are not checked again.  The first factor and the disk are twisted
    with the second factor, each partial sum's homology is taken at its
    step, and the partial sum is the next step's left factor.  Every
    complex is twisted through the fixed sl2 basis ``orthonormal_sl2_basis``.
    """
    cell_maps, cells, generators = _layout(factors)
    first = reps[0]
    images = len(first.images)
    _check_gluable(factors[0])
    for k in range(1, len(factors)):
        _check_gluable(factors[k])
        images += len(reps[k].images)
        _check_reps(first, reps[k], images, generators[k + 1])
        # factor 0 and the disk are twisted after factor 1's checks, as a
        # pairwise gluing of the first two factors orders them
        if k == 1:
            tc1, hd1 = _factored(factors[0], first, tol)
            tcd, hdd = _factored(disk(), Representation.trivial(0, first.n, first.target), tol)
            d = tc1.d
            placement = _zero_maps(cells[-1], d)
            _place(placement, tc1, cell_maps[0])
        tc2, hd2 = _factored(factors[k], reps[k], tol)
        _place(placement, tc2, cell_maps[k])
        sizes = cells[k]
        tcm = TwistedChainComplex(d, [n * d for n in sizes], [
            placement[p - 1][:sizes[p - 1] * d, :sizes[p] * d].copy()
            for p in range(1, len(sizes))])
        hdm = homology(tcm, tol)
        # the partial sum of 0..k-1 leads that of 0..k in every degree
        left = [list(range(cells[k - 1][p] if p < len(cells[k - 1]) else 0))
                for p in range(len(sizes))]
        yield GluedPair((left, cell_maps[k][:len(sizes)]),
                        tc1, tc2, tcm, tcd, hd1, hd2, hdm, hdd)
        tc1, hd1 = tcm, hdm


def analyze_disk_sum(m1: CwComplexData, rep1: Representation,
                     m2: CwComplexData, rep2: Representation,
                     tol: float = DEFAULT_TOL) -> GluedPair:
    """Glue M1 and M2 and twist and factor the four complexes of the pair.

    This is the one step of a two-factor chain, so a pair is checked,
    laid out and placed exactly as each step of ``verify_multiplicativity``.
    """
    return next(_glued_chain([m1, m2], [rep1, rep2], tol))


@dataclass
class MvIdentityReport:
    """The residual of the gluing formula in canonical bases."""

    dims: list[int]
    residual: float
    dimension_tail: tuple[int, int, int, int]
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def verify_mv_identity(pair: GluedPair, tol: float = DEFAULT_TOL,
                       pass_tol: float = PASS_TOL) -> MvIdentityReport:
    """Check T(M1) T(M2) = T(M) T(D) T(sequence) in canonical bases.

    The sequence and the four torsions are taken once, in canonical
    bases, and the residual is |T1 T2 - Tm Td Tseq| / |T1 T2|.  Every
    other choice of bases gives the same residual in exact arithmetic: a
    change of basis multiplies a torsion by a power of its determinant
    (Milnor, *Whitehead torsion*, section 3), and the det(C_1) det(C_2)
    factors cancel on both sides.  A NaN residual fails.
    """
    seq = mv_sequence(pair, tol=tol)
    t1, t2, tm, td = (torsion_of(tc, hd, tol=tol).value for tc, hd in
                      ((pair.tc1, pair.hd1), (pair.tc2, pair.hd2),
                       (pair.tcm, pair.hdm), (pair.tcd, pair.hdd)))
    lhs = t1 * t2
    residual = abs(lhs - tm * td * seq.canonical.value) / abs(lhs)
    n0 = (pair.hd1.betti[0], pair.hd2.betti[0], pair.hdm.betti[0], pair.hdd.betti[0])
    return MvIdentityReport(dims=seq.dims, residual=residual, dimension_tail=n0,
                            tolerance=pass_tol)


@dataclass
class MultiplicativityStep:
    """One unfold step M = M' disk-sum M_k with transported bases."""

    left_name: str
    right_name: str
    corrective: complex
    total_torsion: complex
    left_torsion: complex
    right_torsion: complex
    disk_torsion: complex

    @property
    def relative_error(self) -> float:
        return abs(self.left_torsion * self.right_torsion / self.disk_torsion
                   - self.total_torsion) / abs(self.total_torsion)


@dataclass
class MultiplicativityReport:
    """Comparison of T(M) against the product of factor torsions."""

    factor_names: list[str]
    total_torsion: complex
    factor_torsions: list[complex]
    steps: list[MultiplicativityStep]
    tolerance: float

    @property
    def product(self) -> complex:
        out = complex(1.0)
        for t in self.factor_torsions:
            out *= t
        return out

    @property
    def relative_error(self) -> float:
        return abs(self.product - self.total_torsion) / abs(self.total_torsion)

    @property
    def passed(self) -> bool:
        step_ok = all(s.relative_error <= self.tolerance for s in self.steps)
        return step_ok and self.relative_error <= self.tolerance


def verify_multiplicativity(factors, reps, h_m=None, tol: float = DEFAULT_TOL,
                            pass_tol: float = PASS_TOL) -> MultiplicativityReport:
    """Verify T(M) = prod T(M_i) for a left-associated disk sum.

    The glued manifold's torsion is computed directly in the bases
    ``h_m`` (canonical homology representatives when omitted).  Bases
    are then transported down one gluing at a time, and each factor's
    torsion is evaluated in its transported basis; the two code paths
    meet in the final comparison.

    The chain is laid out once per call: the cell and generator offsets of
    every factor in every partial sum come from the factors' counts, each
    factor's twisted blocks are written once into one placement of the
    whole sum, and each partial sum's twisted complex is a copy of its
    leading block.  No partial sum's CW data is glued, placed or checked
    again.  Each factor's input checks (connectivity, then target, rank
    and generator count) run just before its twist, as gluing it pairwise
    would run them.  Each complex of the chain is twisted and factored
    once: each glued space is carried forward as the next step's left
    factor, and one disk serves every step.  No Mayer-Vietoris sequence
    is built: each step's corrective term, in canonical bases, comes from
    ``gluing_torsion``, the sequence's degree-0 block with H(M) in a
    basis assembled from the factors' bases, which restates the
    sequence's exactness.  The basis of H(M) travels down the chain as
    one determinant per degree, of its coordinates in the canonical one:
    those of the classes of ``h_m`` at the top (None when it is omitted),
    then the left factor's transported ones below.  Each torsion is taken
    once, in canonical bases, and ``rescaled`` by the transported
    determinants: a step's ``left_torsion`` is the ``total_torsion`` of
    the next step.
    """
    if len(factors) < 2:
        raise DiskSumError("need at least two factors")
    if len(factors) != len(reps):
        raise DiskSumError("one representation required per factor")

    pairs = list(_glued_chain(factors, reps, tol))
    left_names = [factors[0].name]
    for m in factors[1:-1]:
        left_names.append(f"{left_names[-1]}+{m.name}")

    top = pairs[-1]
    split = build_splitting(top.tcm, top.hdm, h_m, tol=tol)
    total_torsion = torsion(top.tcm, split).value
    dets_m = determinants([None if h_m is None else _class_coordinates(h, canonical, boundary)
                           for h, canonical, boundary in zip(split.h, top.hdm.h_basis,
                                                             top.hdm.boundary_basis)])
    t_disk = torsion_of(top.tcd, top.hdd, tol=tol).value

    steps: list[MultiplicativityStep] = []
    t_total = total_torsion
    for k in range(len(factors) - 1, 0, -1):
        pair = pairs[k - 1]
        canonical = gluing_torsion(pair, tol=tol)
        dets = [None] * len(canonical.per_degree_determinants)
        dets[0::3] = dets_m
        transported = transport_bases(canonical, (pair.hd1.h_basis, pair.hd2.h_basis), dets)
        t_left = rescaled(torsion_of(pair.tc1, pair.hd1, tol=tol), transported.dets_m1, 1).value
        t_right = rescaled(torsion_of(pair.tc2, pair.hd2, tol=tol), transported.dets_m2, 1).value
        steps.append(MultiplicativityStep(
            left_name=left_names[k - 1],
            right_name=factors[k].name,
            corrective=transported.corrective.value,
            total_torsion=t_total,
            left_torsion=t_left,
            right_torsion=t_right,
            disk_torsion=t_disk,
        ))
        dets_m = transported.dets_m1
        t_total = t_left
    factor_torsions = [t_total] + [step.right_torsion for step in reversed(steps)]

    return MultiplicativityReport(
        factor_names=[m.name for m in factors],
        total_torsion=total_torsion,
        factor_torsions=factor_torsions,
        steps=steps,
        tolerance=pass_tol,
    )
