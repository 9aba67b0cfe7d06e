"""CW data with group-ring boundaries, twisting, and numerical homology.

A CW complex is stored as cell counts per dimension plus lifted boundary
matrices over the group ring of pi_1.  Twisting replaces each group-ring
entry by its adjoint-representation block, giving honest complex
matrices whose kernels and images are computed by rank-revealing SVD.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .algebra import (
    GroupPresentation,
    GroupRingMatrix,
    LieAlgebraBasis,
    Representation,
    Word,
    adjoint_matrices,
)
from .errors import (
    DimensionMismatchError,
    HomologyError,
    InconsistentLiftsError,
    TorsionworksError,
)
from .linalg import DEFAULT_TOL

MAX_DIMENSION = 3


@dataclass
class CwComplexData:
    """Cells and lifted boundary maps of a finite CW complex.

    ``cells[p]`` is the number of p-cells; ``boundaries[p-1]`` is the
    group-ring matrix of the boundary map from p-cells to (p-1)-cells,
    written in the chosen lifts.
    """

    name: str = field(compare=False)
    presentation: GroupPresentation = GroupPresentation.free(0)
    cells: list[int] = field(default_factory=lambda: [1])
    boundaries: list[GroupRingMatrix] = field(default_factory=list)

    def __post_init__(self):
        self.validate()

    @property
    def dimension(self) -> int:
        return len(self.cells) - 1

    def validate(self):
        if not self.cells or any(m < 0 for m in self.cells):
            raise DimensionMismatchError("cell counts must be nonnegative and nonempty")
        if self.dimension > MAX_DIMENSION:
            raise DimensionMismatchError(
                f"dimension {self.dimension} exceeds the supported maximum {MAX_DIMENSION}"
            )
        if len(self.boundaries) != self.dimension:
            raise DimensionMismatchError(
                f"{len(self.boundaries)} boundary matrices for dimension {self.dimension}"
            )
        for p, mat in enumerate(self.boundaries, start=1):
            if (mat.rows, mat.cols) != (self.cells[p - 1], self.cells[p]):
                raise DimensionMismatchError(
                    f"boundary {p} has shape {(mat.rows, mat.cols)}, expected "
                    f"{(self.cells[p - 1], self.cells[p])}"
                )
            if mat.max_generator() >= self.presentation.generator_count:
                raise DimensionMismatchError(
                    f"boundary {p} uses a generator outside the presentation"
                )

    def boundary_matrix(self, p: int) -> GroupRingMatrix:
        return self.boundaries[p - 1]


def euler_characteristic(cw: CwComplexData) -> int:
    """Alternating sum of cell counts."""
    return sum((-1) ** p * m for p, m in enumerate(cw.cells))


def untwisted_betti0(cw: CwComplexData) -> int:
    """b_0 with rational coefficients, from the exact rank of the integer
    boundary of the 1-cells; 1 means connected."""
    if cw.dimension == 0:
        return cw.cells[0]
    return cw.cells[0] - linalg.integer_rank(cw.boundaries[0].augmented())


def change_lift(cw: CwComplexData, p: int, j: int, gamma: Word) -> CwComplexData:
    """Rewrite the boundary data after re-choosing the lift of one p-cell.

    Column j of the boundary into degree p-1 picks up gamma on the
    right; the matching row of the boundary out of degree p+1 picks up
    gamma^{-1} on the left.  All torsion invariants are unchanged.
    """
    if not (1 <= p <= cw.dimension):
        raise DimensionMismatchError(f"no boundary matrix in degree {p}")
    boundaries = list(cw.boundaries)
    boundaries[p - 1] = boundaries[p - 1].column_right_multiplied(j, gamma)
    if p < cw.dimension:
        boundaries[p] = boundaries[p].row_left_multiplied(j, gamma.inverse())
    return CwComplexData(cw.name, cw.presentation, list(cw.cells), boundaries)


@dataclass
class TwistedChainComplex:
    """Complex-coefficient chain complex obtained by twisting CW data.

    ``dims[p] = cells[p] * d`` with d the Lie-algebra dimension; blocks
    are laid out cell-major (all d coordinates of cell 0, then cell 1,
    and so on).
    """

    d: int
    dims: list[int]
    mats: list[np.ndarray]

    @property
    def dimension(self) -> int:
        return len(self.dims) - 1

    def boundary(self, p: int) -> np.ndarray:
        """Matrix of the map from degree p to degree p-1 (empty off-range)."""
        if 1 <= p <= self.dimension:
            return self.mats[p - 1]
        if p <= 0:
            return np.zeros((0, self.dims[0]), dtype=complex)
        rows = self.dims[-1] if p == self.dimension + 1 else 0
        return np.zeros((rows, 0), dtype=complex)


def twist(cw: CwComplexData, rep: Representation, basis: LieAlgebraBasis,
          tol: float = DEFAULT_TOL) -> TwistedChainComplex:
    """Twist the CW data by the adjoint of a representation.

    Each group-ring entry sum(m_i * gamma_i) becomes the block
    sum(m_i * Ad(gamma_i)).  The distinct words of every boundary map
    are collected in one scan and their adjoint blocks taken in one
    ``adjoint_matrices`` call.  Each entry's block is summed term by
    term from zero, as a loop over ``adjoint_matrix`` would sum it, so
    every twisted matrix is the same bit for bit; the blocks of each
    map are then written in one scatter.  Every twisted map must be
    finite, and consecutive maps must compose to zero within tolerance,
    otherwise the lifts and the representation are inconsistent
    (``linalg.nonzero_composition``).
    """
    if rep.generator_count < cw.presentation.generator_count:
        raise DimensionMismatchError(
            f"presentation has {cw.presentation.generator_count} generators, "
            f"representation has {rep.generator_count} images"
        )
    d = basis.dim
    index: dict[Word, int] = {}
    layouts = []
    for g in cw.boundaries:
        cells, terms = [], []
        for i, row in enumerate(g.entries):
            for j, entry in enumerate(row):
                if entry.terms:
                    cells.append((i, j))
                    terms.append([(index.setdefault(w, len(index)), c) for w, c in entry.terms])
        layouts.append((g.rows, g.cols, cells, terms))
    # a zero block past the words' blocks pads the entries with fewer terms:
    # a sum started at +0 is never -0, so adding +0 leaves every bit of it
    ad = np.zeros((len(index) + 1, d, d), dtype=complex)
    ad[:-1] = adjoint_matrices(rep, basis, list(index))

    mats = []
    for rows, cols, cells, terms in layouts:
        big = np.zeros((rows, d, cols, d), dtype=complex)
        if cells:
            width = max(map(len, terms))
            pad = [(len(index), 0)]
            words, coeffs = np.array([ts + pad * (width - len(ts)) for ts in terms]).T
            blocks = np.zeros((len(cells), d, d), dtype=complex)
            for t in range(width):
                blocks += coeffs[t, :, None, None] * ad[words[t]]
            i, j = zip(*cells)
            big[i, :, j, :] = blocks
        mats.append(big.reshape(rows * d, cols * d))

    for p, m in enumerate(mats, start=1):
        if not np.isfinite(m).all():
            raise TorsionworksError(
                f"twist: boundary map {p} (degree {p} to {p - 1}) has non-finite entries"
            )
    bad = linalg.nonzero_composition(mats, tol)
    if bad is not None:
        p, resid = bad
        raise InconsistentLiftsError(
            f"boundary maps {p} and {p + 1} compose to norm {resid:.3e}; "
            "the lifts or the representation are inconsistent"
        )
    return TwistedChainComplex(d, [m * d for m in cw.cells], mats)


@dataclass
class HomologyData:
    """Numerical kernels, images, and chosen homology representatives."""

    betti: list[int]
    cycle_basis: list[np.ndarray]
    boundary_basis: list[np.ndarray]
    h_basis: list[np.ndarray]
    section: list[np.ndarray]  # section[p], in degree p + 1, maps onto boundary_basis[p]


def homology(tc, tol: float = DEFAULT_TOL) -> HomologyData:
    """Rank-revealing homology of a chain complex.

    Accepts any object with ``dims`` and ``boundary(p)``.  Each boundary
    map is factored once: its SVD gives the cycles in its source degree,
    the boundaries in its target degree and their section.  The chosen
    homology representatives are orthonormal cycles orthogonal to the
    boundary space; betti numbers do not depend on that choice.
    """
    n = len(tc.dims) - 1
    betti, cycles, bounds, hs, sections = [], [], [], [], []
    z, _, _ = linalg.kernel_and_image(tc.boundary(0), tol)
    for p in range(n + 1):
        z_next, b, section = linalg.kernel_and_image(tc.boundary(p + 1), tol)
        k = z.shape[1] - b.shape[1]
        if k < 0:
            raise HomologyError(f"homology in degree {p}: {b.shape[1]} boundaries "
                                f"exceed {z.shape[1]} cycles; the maps do not compose to zero")
        try:
            h = linalg.complement_in(z, b, k, tol)
        except HomologyError as exc:
            raise HomologyError(f"homology in degree {p}: {exc}") from None
        betti.append(k)
        cycles.append(z)
        bounds.append(b)
        hs.append(h)
        sections.append(section)
        z = z_next
    return HomologyData(betti, cycles, bounds, hs, sections)
