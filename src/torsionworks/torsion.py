"""Chain-group splittings and the alternating-determinant torsion.

Each chain group C_p splits as B_p + span(h_p) + s_p(B_{p-1}): chosen
boundaries, chosen homology representatives, and preimages of the
boundary basis one degree down.  Writing that split basis in the
reference (geometric) basis of C_p gives a square transition matrix
M_p, and the torsion is

    T = prod_p det(M_p)^{(-1)^p}.

Equivalently, with D_p the determinant of the inverse transition
(reference basis expressed in the split basis, which is what
``per_degree_determinants`` records), T = prod_p D_p^{(-1)^(p+1)}.
The value does not depend on the choice of boundary bases or sections,
and a change of basis multiplies it by a determinant (Milnor, *Whitehead
torsion*, section 3), which ``rescaled`` applies; empty degrees contribute
the empty-product value 1.  ``build_splitting`` certifies each M_p once
and keeps it, and ``torsion`` takes its determinant of that same matrix.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    BadHomologyBasisError,
    DimensionMismatchError,
    HomologyError,
    SplittingError,
)
from .linalg import DEFAULT_TOL, DEFECT_TOL, PASS_TOL


def _as_columns(dims_p, block) -> np.ndarray:
    arr = np.asarray(block, dtype=complex)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.shape[0] != dims_p:
        raise BadHomologyBasisError(
            f"homology vectors live in dimension {arr.shape[0]}, chain group has {dims_p}"
        )
    return arr


@dataclass
class HomologySplitting:
    """Per-degree split data: boundary bases, homology lifts, sections, and
    the square split bases [b_p | h_p | s_p] that ``build_splitting``
    certified, from which ``torsion`` takes its determinants."""

    b: list[np.ndarray]
    h: list[np.ndarray]
    s: list[np.ndarray]
    matrices: list[np.ndarray]


def _dependent_classes(hd, h, p, tol):
    """The error for classes ``h`` dependent modulo the image basis of
    degree ``p``, or None when [B_p | h] has independent columns."""
    if linalg.independent_columns(np.hstack([hd.boundary_basis[p], h]), tol):
        return None
    return BadHomologyBasisError(f"degree {p}: homology classes are dependent modulo boundaries")


def build_splitting(tc, hd, h_bases=None, tol: float = DEFAULT_TOL,
                    boundary_bases=None, section_cycles=None) -> HomologySplitting:
    """Split every chain group of ``tc`` using the homology data ``hd``.

    ``h_bases[p]`` supplies cycle vectors whose classes form a basis of
    H_p; it defaults to the representatives chosen by ``homology``.
    Vectors supplied above the top degree are rejected.
    The basis of each B_p defaults to the orthonormal image basis
    ``hd.boundary_basis``; ``boundary_bases`` overrides it (any spanning
    choice is valid) and ``section_cycles`` adds cycle components to the
    minimum-norm sections; both exist so that independence from these
    choices can be exercised directly.  Sections come from ``hd.section``,
    so no boundary map is factored again.

    Two conditions need independence: the homology classes modulo
    boundaries, [B_p | h_p] with B_p the image basis ``hd.boundary_basis``,
    and each split basis [b_p | h_p | s_p].  Each split basis is
    certified once, by ``linalg.independent_columns``, and kept in
    ``matrices``, whose determinants ``torsion`` takes.  Where h_p and
    b_p are both ``hd``'s, [B_p | h_p] is the split basis's leading
    block, which the same certificate or SVD accepts whenever it accepts
    the whole (``linalg``), so it is checked on its own only when a later
    check fails, in degree order and before that failure is raised: every
    error is the one that checking it first gives.  Supplied homology
    vectors or boundary bases have [B_p | h_p] checked first.  With the
    default bases the columns are near orthonormal and a Gram product
    certifies each check; supplied or recombined bases far from
    orthonormal, and any check that fails, take the rank SVD.

    Supplied vectors that are not cycles raise BadHomologyBasisError.
    Representatives chosen by ``homology`` that are not cycles raise
    HomologyError instead, with the degree and the defect: ``homology``
    misread a rank, its cutoff having dropped a genuine singular value.
    """
    deferred = []
    try:
        return _certified_split(tc, hd, h_bases, tol, boundary_bases, section_cycles,
                                deferred)
    except (BadHomologyBasisError, HomologyError, SplittingError):
        for p in deferred:
            error = _dependent_classes(hd, hd.h_basis[p], p, tol)
            if error is not None:
                raise error from None
        raise


def _certified_split(tc, hd, h_bases, tol, boundary_bases, section_cycles, deferred):
    """``build_splitting``'s checks and assembly; appends to ``deferred``
    each degree whose [B_p | h_p] check its split basis's check covers."""
    n = len(tc.dims) - 1
    for p in range(n + 1, 0 if h_bases is None else len(h_bases)):
        if h_bases[p] is not None and np.asarray(h_bases[p]).size:
            raise BadHomologyBasisError(
                f"degree {p}: homology vectors supplied above the top degree {n}")
    bs = list(boundary_bases if boundary_bases is not None else hd.boundary_basis)
    hs = []
    for p in range(n + 1):
        block = None if h_bases is None else (h_bases[p] if p < len(h_bases) else None)
        h = _as_columns(tc.dims[p], block) if block is not None else hd.h_basis[p]
        if h.shape[1] != hd.betti[p]:
            raise BadHomologyBasisError(
                f"degree {p}: {h.shape[1]} homology vectors supplied, betti is {hd.betti[p]}"
            )
        if h.shape[1]:
            cycle_defect = linalg.frobenius_norm(tc.boundary(p) @ h)
            if not cycle_defect <= tol * max(1.0, linalg.max_column_norm(h)):
                if block is None:
                    raise HomologyError(
                        f"degree {p}: the homology representatives are not cycles "
                        f"(defect {cycle_defect:.3e}); the rank cutoff, tol times the "
                        "largest singular value, dropped a genuine singular value")
                raise BadHomologyBasisError(
                    f"degree {p}: homology vectors are not cycles (defect {cycle_defect:.3e})"
                )
            if block is None and boundary_bases is None:
                deferred.append(p)
            else:
                error = _dependent_classes(hd, h, p, tol)
                if error is not None:
                    raise error
        hs.append(h)

    ss = [linalg.empty_matrix(tc.dims[0])]
    for p in range(1, n + 1):
        target = bs[p - 1]
        pre = hd.section[p - 1]
        if boundary_bases is not None:
            # the minimum-norm preimage, through target's image-basis coordinates
            pre = pre @ (hd.boundary_basis[p - 1].conj().T @ target)
        if target.shape[1]:
            defect = linalg.relative_defect(tc.boundary(p) @ pre - target, target)
            if not defect <= DEFECT_TOL:
                raise SplittingError(
                    f"degree {p}: section defect {defect:.3e} exceeds {DEFECT_TOL:.0e}"
                )
        if section_cycles is not None and pre.shape[1]:
            shift = section_cycles[p]
            if shift is not None:
                pre = pre + shift
        ss.append(pre)

    split = HomologySplitting(bs, hs, ss, [])
    for p in range(n + 1):
        m = assembled_matrix(tc, split, p)
        if m.shape[0] != m.shape[1]:
            raise SplittingError(
                f"degree {p}: split basis has {m.shape[1]} vectors in a "
                f"{m.shape[0]}-dimensional chain group"
            )
        if m.shape[0] and not linalg.independent_columns(m, tol):
            raise SplittingError(f"degree {p}: split basis is singular")
        split.matrices.append(m)
    return split


def assembled_matrix(tc, split: HomologySplitting, p: int) -> np.ndarray:
    """Columns [b_p | h_p | s_p(b_{p-1})] in the standard coordinates."""
    blocks = [split.b[p], split.h[p], split.s[p]]
    blocks = [blk for blk in blocks if blk.shape[1] > 0]
    if not blocks:
        return linalg.empty_matrix(tc.dims[p])
    return np.hstack(blocks)


@dataclass
class TorsionResult:
    """Torsion value with its per-degree transition determinants.

    ``per_degree_determinants[p]`` is the determinant expressing the
    reference basis in the split basis b_p | h_p | s_p(b_{p-1}) that
    ``build_splitting`` assembled: b_p is the orthonormal image basis
    that ``homology`` computed unless the caller passed
    ``boundary_bases`` (``mv_sequence`` passes named vectors).
    Each determinant depends on that choice of b_p; the value, their
    alternating product with exponent (-1)^(p+1), does not.
    """

    value: complex
    per_degree_determinants: list[complex]


def torsion(tc, split: HomologySplitting) -> TorsionResult:
    """Alternating product of transition determinants for a split complex,
    against the standard coordinate basis of each chain group.

    Each determinant is taken of ``split.matrices[p]``, the split basis
    that ``build_splitting`` certified; nothing is assembled again.
    """
    value = complex(1.0)
    dets = []
    for p, dim in enumerate(tc.dims):
        if dim == 0:
            dets.append(complex(1.0))
            continue
        det = complex(np.linalg.det(split.matrices[p]))
        if det == 0 or not np.isfinite(det):
            raise SplittingError(f"degree {p}: singular transition matrix")
        dets.append(1.0 / det)
        value *= det ** ((-1) ** p)
    return TorsionResult(value=value, per_degree_determinants=dets)


def rescaled(result: TorsionResult, dets, sign: int) -> TorsionResult:
    """``result`` after changes of basis whose determinants are ``dets``.

    ``dets[p]`` is det(C_p) for a change of basis C_p in degree p, None
    for the identity.  A homology basis change h_p -> h_p C_p (``sign`` 1)
    multiplies the value by det(C_p)^((-1)^p), a reference basis change
    (``sign`` -1) by det(C_p)^((-1)^(p+1)), and D_p by det(C_p)^(-sign).
    Missing trailing entries are the identity; more entries than degrees
    raise DimensionMismatchError, a zero or non-finite determinant
    SplittingError.
    """
    value, out = result.value, list(result.per_degree_determinants)
    if len(dets) > len(out):
        raise DimensionMismatchError(
            f"{len(dets)} changes of basis for a complex of {len(out)} degrees")
    for p, det in enumerate(dets):
        if det is None:
            continue
        if not (det != 0 and cmath.isfinite(det)):
            raise SplittingError(
                f"degree {p}: singular change of basis (determinant {complex(det)})")
        value = value * det ** (sign * (-1) ** p)
        out[p] = out[p] * det ** -sign
    return TorsionResult(value=value, per_degree_determinants=out)


def determinants(coords) -> list:
    """det(C_p) of each coordinate matrix C_p, as ``rescaled`` takes them.

    None and empty entries are the identity, None; a matrix with a
    non-finite entry gets NaN, which ``rescaled`` rejects.
    """
    dets = []
    for c in coords or ():
        if c is None or not np.size(c):
            dets.append(None)
        else:
            # a matrix with a non-finite entry can still have a finite LU determinant
            dets.append(complex(np.linalg.det(c)) if np.isfinite(c).all() else complex(np.nan))
    return dets


def rebased(result: TorsionResult, coords, sign: int) -> TorsionResult:
    """``result`` in the bases whose coordinates in the old ones are ``coords``:
    ``rescaled`` by their ``determinants``."""
    return rescaled(result, determinants(coords), sign)


def torsion_of(tc, hd, h_bases=None, tol: float = DEFAULT_TOL) -> TorsionResult:
    """Convenience wrapper: split with defaults, then take the torsion."""
    return torsion(tc, build_splitting(tc, hd, h_bases, tol=tol))


@dataclass
class IndependenceReport:
    """Outcome of re-computing torsion under randomized choices."""

    reference_value: complex
    values: list[complex]
    max_relative_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_relative_deviation <= self.tolerance


def _random_section_cycles(tc, hd, rng):
    shifts = [None]
    for p in range(1, len(tc.dims)):
        cols = hd.boundary_basis[p - 1].shape[1]
        z = hd.cycle_basis[p]
        if cols == 0 or z.shape[1] == 0:
            shifts.append(None)
            continue
        coeff = rng.normal(size=(z.shape[1], cols)) + 1j * rng.normal(size=(z.shape[1], cols))
        shifts.append(z @ coeff)
    return shifts


def torsion_independence_check(tc, hd, h_bases=None, trials: int = 20,
                               tol: float = DEFAULT_TOL,
                               pass_tol: float = PASS_TOL,
                               seed: int = 0) -> IndependenceReport:
    """Recompute torsion under random boundary bases and random sections.

    The torsion must not move: any valid basis of each B_p and any valid
    section gives the same value.  Reports the worst relative deviation
    over ``trials`` randomized recomputations.
    """
    rng = np.random.default_rng(seed)
    reference = torsion_of(tc, hd, h_bases, tol=tol).value
    values = []
    worst = 0.0
    for _ in range(trials):
        split = build_splitting(
            tc, hd, h_bases, tol=tol,
            boundary_bases=linalg.random_recombination(hd.boundary_basis, rng),
            section_cycles=_random_section_cycles(tc, hd, rng),
        )
        val = torsion(tc, split).value
        values.append(val)
        worst = max(worst, abs(val - reference) / abs(reference))
    return IndependenceReport(reference, values, worst, pass_tol)
