"""Disk sums, the Mayer-Vietoris sequence, and torsion multiplicativity.

The disk sum of two complexes identifies one 0-cell of each factor (the
gluing disk is contractible, so its simple-homotopy collapse to a point
is used as the chain model).  That gives a short exact sequence of
twisted complexes

    0 -> C(D) --(i1, -i2)--> C(M1) (+) C(M2) --j1 + j2--> C(M) -> 0

The map beta = j1 + j2 only relabels cells (a bijection above degree 0),
so it is never a matrix here: the glued complex and every beta-induced
map are placements at the coordinates ``DiskSumResult.cell_maps`` gives.
Alpha = (i1, -i2) embeds the disk's one cell as cell 0 of each factor;
it is a small matrix, and the connecting map solves against it.

The homology long exact sequence, read right to left, is the acyclic
complex used here, of 3(n + 1) spaces for M of dimension n:

    space 3p   : H_p(M)
    space 3p+1 : H_p(M1) (+) H_p(M2)
    space 3p+2 : H_p(D)          (zero above degree 0)

``MvSequence`` is that sequence as a chain complex with d = 1 and its
split basis, built once.  Its torsion in assigned homology bases, an
argument of ``corrective_term``, is the corrective term; in the bases
``transport_bases`` assigns it equals 1 exactly, which reduces the
gluing formula

    T(M1) * T(M2) = T(M) * T(D) * (corrective term)

to plain multiplicativity T(M) = T(M1) * T(M2).
"""

from __future__ import annotations

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
    DiskSumError,
    HomologyError,
    SequenceError,
    TorsionworksError,
    TransportError,
)
from .linalg import DEFAULT_TOL, DEFECT_TOL, PASS_TOL
from .scenes import disk
from .torsion import (
    HomologySplitting,
    TorsionResult,
    assembled_matrix,
    build_splitting,
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


def disk_sum(m1: CwComplexData, m2: CwComplexData,
             tol: float = DEFAULT_TOL) -> DiskSumResult:
    """Glue two connected complexes along one 0-cell (index 0 of each).

    The fundamental group is the free product and the Euler
    characteristics satisfy chi(M) = chi(M1) + chi(M2) - 1.
    """
    for m in (m1, m2):
        if m.cells[0] < 1:
            raise DiskSumError(f"factor {m.name!r} has no 0-cell to glue")
        if untwisted_betti0(m, tol) != 1:
            raise DiskSumError(f"factor {m.name!r} is not connected")

    g1 = m1.presentation.generator_count
    g2 = m2.presentation.generator_count
    relators = tuple(m1.presentation.relators) + tuple(
        _remap_word(r, g1) for r in m2.presentation.relators
    )
    pres = GroupPresentation(g1 + g2, relators)

    dim = max(m1.dimension, m2.dimension)

    def count(m, p):
        return m.cells[p] if p <= m.dimension else 0

    cells = []
    maps1: list[list[int]] = []
    maps2: list[list[int]] = []
    for p in range(dim + 1):
        a, b = count(m1, p), count(m2, p)
        if p == 0:
            cells.append(a + b - 1)
            maps1.append(list(range(a)))
            maps2.append([0] + [a + j - 1 for j in range(1, b)])
        else:
            cells.append(a + b)
            maps1.append(list(range(a)))
            maps2.append([a + j for j in range(b)])

    boundaries = []
    for p in range(1, dim + 1):
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
        boundaries.append(GroupRingMatrix.from_rows(grid))

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
        generator_maps=(list(range(g1)), [g1 + j for j in range(g2)]),
    )


def free_product_rep(psi1: Representation, psi2: Representation,
                     ds: DiskSumResult) -> Representation:
    """The unique representation restricting to psi1 and psi2."""
    if psi1.target != psi2.target:
        raise DiskSumError(
            f"target mismatch: {psi1.target.value} vs {psi2.target.value}"
        )
    if psi1.n != psi2.n:
        raise DiskSumError(f"rank mismatch: {psi1.n} vs {psi2.n}")
    images = tuple(psi1.images) + tuple(psi2.images)
    if len(images) != ds.total.presentation.generator_count:
        raise DiskSumError("generator counts do not match the glued presentation")
    return Representation(psi1.target, psi1.n, images)


# ---------------------------------------------------------------------------
# the gluing as cell placement
# ---------------------------------------------------------------------------

def _coordinates(cell_map, d):
    """Glued coordinate indices of a factor's cells, d per cell."""
    return (np.asarray(cell_map, dtype=int)[:, None] * d + np.arange(d)).ravel()


def placed_complex(ds: DiskSumResult, tc1: TwistedChainComplex,
                   tc2: TwistedChainComplex) -> TwistedChainComplex:
    """The twisted complex of ``ds.total``, assembled from its factors' blocks.

    Every group-ring entry of the glued boundary comes from exactly one
    factor, so each factor's twisted boundary is written at the
    coordinates its cell maps give; the result equals
    ``twist(ds.total, rep, basis)`` entry for entry.  The columns of a
    glued boundary split between the factors, so the glued maps compose
    to the factors' compositions, which ``twist`` checked.
    """
    d = tc1.d
    cells = ds.total.cells
    mats = []
    for p in range(1, len(cells)):
        big = np.zeros((cells[p - 1] * d, cells[p] * d), dtype=complex)
        for tc, maps in zip((tc1, tc2), ds.cell_maps):
            rows, cols = _coordinates(maps[p - 1], d), _coordinates(maps[p], d)
            big[np.ix_(rows, cols)] = tc.boundary(p)
        mats.append(big)
    return TwistedChainComplex(d, [m * d for m in cells], mats)


def _class_coordinates(vectors, h, boundary, tol):
    """Coordinates of cycle columns in the basis ``h`` modulo boundaries."""
    cols = vectors.shape[1]
    blocks = [m for m in (h, boundary) if m.shape[1]]
    if not blocks:
        if not linalg.frobenius_norm(vectors) <= DEFECT_TOL:
            raise SequenceError("nonzero vector mapped into a zero homology group")
        return np.zeros((0, cols), dtype=complex)
    solve_in = np.hstack(blocks)
    coords, defect = linalg.min_norm_preimage(solve_in, vectors, tol)
    if not defect <= DEFECT_TOL:
        raise SequenceError(
            f"vector is not a cycle class in the given basis (defect {defect:.3e})"
        )
    return coords[:h.shape[1], :]


# ---------------------------------------------------------------------------
# the Mayer-Vietoris sequence
# ---------------------------------------------------------------------------

@dataclass
class GluedPair:
    """Everything needed to study one disk sum of twisted complexes."""

    ds: DiskSumResult
    rep: Representation
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
    complex: ``mats[q - 1]`` maps space q into space q - 1.  Each
    space's coordinates are taken in homology bases (cycle-vector
    columns), so the maps are plain matrices and the identity is each
    space's default basis; ``corrective_term`` takes any other as an
    argument.  In the direct-sum space 3p+1 the coordinates of
    ``h_factors[0][p]`` come first and those of ``h_factors[1][p]``
    last.  ``mv_sequence`` checks exactness and builds ``split`` once.
    """

    h_factors: tuple[list[np.ndarray], list[np.ndarray]]
    split: HomologySplitting


def _padded(hlist, dims, degrees):
    """``hlist`` with empty bases appended, one basis per degree below ``degrees``."""
    return [hlist[p] if p < len(hlist)
            else linalg.empty_matrix(dims[p] if p < len(dims) else 0)
            for p in range(degrees)]


def mv_sequence(pair: GluedPair, h1=None, h2=None, hm=None, hdisk=None,
                tol: float = DEFAULT_TOL) -> MvSequence:
    """Assemble the sequence of ``pair`` in the given homology bases.

    It has 3(n + 1) spaces, n the dimension of ``pair.tcm``.  Omitted
    bases are the canonical representatives of ``pair``'s homology
    data.  The maps are induced on homology coordinates:
    inclusion-induced maps in each degree, plus the connecting map
    computed by the usual zig-zag (lift along beta, take the boundary,
    pull back along alpha).  Beta only relabels cells, so its maps are
    placements at the coordinates of ``ds.cell_maps``: a factor's
    cycles are written there, and a cycle of M lifts by reading its
    factors' coordinates back, which is exact above degree 0.  Alpha,
    (v, -v) on the shared 0-cell, is a small matrix the pull-back solves
    against.  Exactness is verified, and the split that
    ``corrective_term`` and ``transport_bases`` share is built at
    ``tol`` and stored in ``split``, before returning.
    """
    tc1, tc2, tcm, tcd = pair.tc1, pair.tc2, pair.tcm, pair.tcd
    h1 = list(pair.hd1.h_basis if h1 is None else h1)
    h2 = list(pair.hd2.h_basis if h2 is None else h2)
    hm = list(pair.hdm.h_basis if hm is None else hm)
    hdisk = list(pair.hdd.h_basis if hdisk is None else hdisk)
    degrees = tcm.dimension + 1
    b1, b2 = _padded(h1, tc1.dims, degrees), _padded(h2, tc2.dims, degrees)
    bm, bd = _padded(hm, tcm.dims, degrees), _padded(hdisk, tcd.dims, degrees)

    ds, d = pair.ds, tcm.d
    at1, at2 = [[_coordinates(cells, d) for cells in maps] for maps in ds.cell_maps]
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
            mat = _class_coordinates(images, bm[p], pair.hdm.boundary_basis[p], tol)
        maps.append(mat)

        # alpha-induced: H_p(D) -> H_p(M1) (+) H_p(M2)   (degree 0 only)
        mat = np.zeros((dims[q + 1], dims[q + 2]), dtype=complex)
        if dims[q + 2]:
            images = alpha @ bd[p]
            c1 = _class_coordinates(images[:n1, :], b1[0],
                                    pair.hd1.boundary_basis[0], tol)
            c2 = _class_coordinates(images[n1:, :], b2[0],
                                    pair.hd2.boundary_basis[0], tol)
            mat = np.vstack([c1, c2])
        maps.append(mat)

        # connecting map: H_{p+1}(M) -> H_p(D)
        if p + 1 < degrees:
            mat = np.zeros((dims[q + 2], dims[q + 3]), dtype=complex)
            if dims[q + 3] and dims[q + 2]:
                z = bm[p + 1]
                bdry = np.vstack([tc1.boundary(p + 1) @ z[at1[p + 1]],
                                  tc2.boundary(p + 1) @ z[at2[p + 1]]])
                pulled, defect = linalg.min_norm_preimage(alpha, bdry, tol)
                if not defect <= DEFECT_TOL:
                    raise SequenceError(
                        f"degree {p + 1}: connecting boundary misses the disk image "
                        f"(defect {defect:.3e})"
                    )
                mat = _class_coordinates(pulled, bd[p], pair.hdd.boundary_basis[p], tol)
            maps.append(mat)

    tc = TwistedChainComplex(1, dims, maps)
    hd = verify_exactness(tc, tol)
    split = build_splitting(tc, hd, tol=tol,
                            boundary_bases=_split_boundary_bases(tc, hd.boundary_basis))
    return MvSequence(1, dims, maps, h_factors=(h1, h2), split=split)


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
    ``transport_bases`` and ``corrective_term`` both split with these
    bases, so the determinants one normalizes are the ones the other
    reports.
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

    ``bases[q]`` is the basis of space q in its homology coordinates;
    None, for ``bases`` or an entry, is the identity, which ``torsion``
    skips.  The sequence is acyclic, so each space splits as b_q +
    s_q(b_{q-1}), with the boundary bases b_q of ``_split_boundary_bases``
    that ``transport_bases`` normalizes.  The value does not depend on
    that choice; the per-degree determinants do.
    """
    return torsion(seq, seq.split, reference_bases=bases)


# ---------------------------------------------------------------------------
# basis transport
# ---------------------------------------------------------------------------

@dataclass
class TransportedBases:
    """Factor homology bases for which the corrective term equals 1.

    In each direct-sum space q = 3p+1 the natural factor basis is
    expressed in the split basis b_q | s_q(b_{q-1}) of
    ``_split_boundary_bases`` through the invertible matrix A recorded
    here; the leading vector of the space absorbs (det A)^{-1}.
    ``residual`` is the corrective term left after that step, folded
    into the leading vector of the first nonzero direct-sum space, so
    ``corrective``, the corrective term in the bases so assigned, is 1
    for every exact sequence.

    Each per-degree determinant of the corrective term depends on the
    boundary bases b_q; only their alternating product is basis-free.
    When the disk inclusion injects, the residual is 1 and every
    per-degree determinant is 1.  Otherwise the leftover factor sits in
    that one leading vector, and only the product is 1.
    """

    h_m1: list[np.ndarray]
    h_m2: list[np.ndarray]
    transport_matrices: list[np.ndarray]
    det_a: list[complex]
    residual: complex
    corrective: TorsionResult


def transport_bases(seq: MvSequence) -> TransportedBases:
    """Choose factor bases making the corrective term 1.

    Follows the split-basis construction degree by degree: in each
    direct-sum space the natural factor basis is rewritten in the basis
    [boundary basis | section of the previous boundary basis], with the
    boundary bases of ``_split_boundary_bases`` that ``corrective_term``
    also uses; the determinant of that rewrite is pushed into the first
    factor vector, a diagonal basis of the space; every other space
    keeps None, the identity.  A final rescale of one vector cancels
    whatever the fixed (M and D) spaces contribute; ``TransportedBases``
    says when every per-degree determinant is 1.
    """
    direct_sums = range(1, len(seq.dims), 3)
    bases: list[np.ndarray | None] = [None] * len(seq.dims)
    a_matrices = []
    det_as = []

    for q in direct_sums:
        if seq.dims[q] == 0:
            a_matrices.append(linalg.empty_matrix(0))
            det_as.append(complex(1.0))
            continue
        # rows of A express the natural (identity) factor basis in the split basis
        try:
            a = np.linalg.inv(assembled_matrix(seq, seq.split, q)).T
        except np.linalg.LinAlgError as exc:
            raise TransportError(f"space {q}: singular transport matrix") from exc
        det_a = complex(np.linalg.det(a))
        if det_a == 0 or not np.isfinite(det_a):
            raise TransportError(f"space {q}: transport matrix determinant is {det_a}")
        bases[q] = np.eye(seq.dims[q], dtype=complex)
        bases[q][:, 0] /= det_a
        a_matrices.append(a)
        det_as.append(det_a)

    residual = corrective_term(seq, bases).value
    slot = next((q for q in direct_sums if seq.dims[q]), None)
    if slot is None:
        if not abs(residual - 1.0) <= PASS_TOL:
            raise TransportError(
                f"corrective term {residual} cannot be normalized: "
                "no nonzero direct-sum space"
            )
    else:
        # scaling column 0 of the basis at slot q multiplies the torsion
        # of the sequence by kappa^((-1)^(q+1)); cancel the residual
        bases[slot][:, 0] *= residual ** ((-1) ** slot)

    def rescaled(h, p, factor):
        space = bases[3 * p + 1]
        if space is None:
            return h
        k, n = h.shape[1], space.shape[0]
        rows = slice(0, k) if factor == 0 else slice(n - k, n)
        return h @ space[rows, rows]

    return TransportedBases(
        h_m1=[rescaled(h, p, 0) for p, h in enumerate(seq.h_factors[0])],
        h_m2=[rescaled(h, p, 1) for p, h in enumerate(seq.h_factors[1])],
        transport_matrices=a_matrices,
        det_a=det_as,
        residual=residual,
        corrective=corrective_term(seq, bases),
    )


# ---------------------------------------------------------------------------
# assembled analyses and verifiers
# ---------------------------------------------------------------------------

def _factored(cw: CwComplexData, rep: Representation,
              tol: float) -> tuple[TwistedChainComplex, HomologyData]:
    tc = twist(cw, rep, orthonormal_sl2_basis(), tol)
    return tc, homology(tc, tol)


def _glue(m1: CwComplexData, rep1: Representation,
          m2: CwComplexData, rep2: Representation,
          tol: float, prev: GluedPair | None = None) -> GluedPair:
    """Glue M1 and M2, then twist and factor each complex once.

    ``prev`` is the pair whose glued space is M1.  Its twisted complex,
    homology and disk are reused rather than rebuilt; without it, M1 and
    the disk are twisted and factored here.  The glued complex is not
    twisted: it is placed from the factors' blocks.  Every complex is
    twisted through the fixed sl2 basis ``orthonormal_sl2_basis``.
    """
    ds = disk_sum(m1, m2, tol)
    rep = free_product_rep(rep1, rep2, ds)
    if prev is None:
        tc1, hd1 = _factored(m1, rep1, tol)
        tcd, hdd = _factored(disk(), Representation.trivial(0, rep.n, rep1.target), tol)
    else:
        tc1, hd1, tcd, hdd = prev.tcm, prev.hdm, prev.tcd, prev.hdd
    tc2, hd2 = _factored(m2, rep2, tol)
    tcm = placed_complex(ds, tc1, tc2)
    hdm = homology(tcm, tol)
    return GluedPair(ds, rep, tc1, tc2, tcm, tcd, hd1, hd2, hdm, hdd)


def analyze_disk_sum(m1: CwComplexData, rep1: Representation,
                     m2: CwComplexData, rep2: Representation,
                     tol: float = DEFAULT_TOL) -> GluedPair:
    """Glue M1 and M2 and twist and factor the four complexes of the pair."""
    return _glue(m1, rep1, m2, rep2, tol)


@dataclass
class MvIdentityReport:
    """Results of checking the gluing formula on random basis draws."""

    dims: list[int]
    draws: int
    residuals: list[float]
    dimension_tail: tuple[int, int, int, int]
    tolerance: float
    seed: int

    @property
    def max_residual(self) -> float:
        return max(self.residuals)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def verify_mv_identity(pair: GluedPair, draws: int = 10, seed: int = 0,
                       tol: float = DEFAULT_TOL,
                       pass_tol: float = PASS_TOL) -> MvIdentityReport:
    """Check T(M1) T(M2) = T(M) T(D) T(sequence) on ``draws`` >= 1 random bases."""
    if draws < 1:
        raise TorsionworksError(f"verify_mv_identity needs at least one draw, got {draws}")
    rng = np.random.default_rng(seed)
    residuals = []
    for _ in range(draws):
        h1 = linalg.random_recombination(pair.hd1.h_basis, rng)
        h2 = linalg.random_recombination(pair.hd2.h_basis, rng)
        hm = linalg.random_recombination(pair.hdm.h_basis, rng)
        hdisk = linalg.random_recombination(pair.hdd.h_basis, rng)
        seq = mv_sequence(pair, h1=h1, h2=h2, hm=hm, hdisk=hdisk, tol=tol)
        t1 = torsion_of(pair.tc1, pair.hd1, h1, tol=tol).value
        t2 = torsion_of(pair.tc2, pair.hd2, h2, tol=tol).value
        tm = torsion_of(pair.tcm, pair.hdm, hm, tol=tol).value
        td = torsion_of(pair.tcd, pair.hdd, hdisk, tol=tol).value
        th = corrective_term(seq).value
        lhs = t1 * t2
        residuals.append(abs(lhs - tm * td * th) / abs(lhs))
    n0 = (pair.hd1.betti[0], pair.hd2.betti[0], pair.hdm.betti[0], pair.hdd.betti[0])
    return MvIdentityReport(dims=seq.dims, draws=draws, residuals=residuals,
                            dimension_tail=n0, tolerance=pass_tol, seed=seed)


@dataclass
class MultiplicativityStep:
    """One unfold step M = M' disk-sum M_k with transported bases."""

    left_name: str
    right_name: str
    corrective: complex
    det_a: list[complex]
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

    Each complex of the chain is twisted and factored once: each glued
    space is carried forward as the next step's left factor, and one
    disk serves every step.  Each torsion is taken once, so a step's
    ``left_torsion`` is the ``total_torsion`` of the step unfolded after
    it, whose glued space is that left factor.
    """
    if len(factors) < 2:
        raise DiskSumError("need at least two factors")
    if len(factors) != len(reps):
        raise DiskSumError("one representation required per factor")

    pairs = [_glue(factors[0], reps[0], factors[1], reps[1], tol)]
    for m2, rep2 in zip(factors[2:], reps[2:]):
        prev = pairs[-1]
        pairs.append(_glue(prev.ds.total, prev.rep, m2, rep2, tol, prev))
    left_names = [factors[0].name] + [pair.ds.total.name for pair in pairs[:-1]]

    top = pairs[-1]
    current_h = list(top.hdm.h_basis) if h_m is None else h_m
    total_torsion = torsion_of(top.tcm, top.hdm, current_h, tol=tol).value
    t_disk = torsion_of(top.tcd, top.hdd, tol=tol).value

    steps: list[MultiplicativityStep] = []
    t_total = total_torsion
    for k in range(len(factors) - 1, 0, -1):
        pair = pairs[k - 1]
        transported = transport_bases(mv_sequence(pair, hm=current_h, tol=tol))
        t_left = torsion_of(pair.tc1, pair.hd1, transported.h_m1, tol=tol).value
        t_right = torsion_of(pair.tc2, pair.hd2, transported.h_m2, tol=tol).value
        steps.append(MultiplicativityStep(
            left_name=left_names[k - 1],
            right_name=factors[k].name,
            corrective=transported.corrective.value,
            det_a=transported.det_a,
            total_torsion=t_total,
            left_torsion=t_left,
            right_torsion=t_right,
            disk_torsion=t_disk,
        ))
        current_h = transported.h_m1
        t_total = t_left
    factor_torsions = [t_total] + [step.right_torsion for step in reversed(steps)]

    return MultiplicativityReport(
        factor_names=[m.name for m in factors],
        total_torsion=total_torsion,
        factor_torsions=factor_torsions,
        steps=steps,
        tolerance=pass_tol,
    )
