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
The value does not depend on the choice of boundary bases or sections
and rescales covariantly in the homology bases; empty degrees
contribute the empty-product value 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BadHomologyBasisError, SplittingError
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
    """Per-degree split data: boundary bases, homology lifts, sections."""

    b: list[np.ndarray]
    h: list[np.ndarray]
    s: list[np.ndarray]


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
    choices can be exercised directly.

    Two checks need independence: the homology vectors with the boundary
    basis of their degree, and each split basis [b_p | h_p | s_p].  Both
    go through ``linalg.independent_columns``.  With the default bases
    b_p and h_p are orthonormal and the sections' unit columns are too,
    so a Gram product certifies each check; supplied or recombined bases
    that are far from orthonormal, and any check that fails, take the
    rank SVD.
    """
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
                raise BadHomologyBasisError(
                    f"degree {p}: supplied vectors are not cycles (defect {cycle_defect:.3e})"
                )
            if not linalg.independent_columns(np.hstack([hd.boundary_basis[p], h]), tol):
                raise BadHomologyBasisError(
                    f"degree {p}: homology classes are dependent modulo boundaries"
                )
        hs.append(h)

    ss = [linalg.empty_matrix(tc.dims[0])]
    for p in range(1, n + 1):
        target = bs[p - 1]
        pre, defect = linalg.min_norm_preimage(tc.boundary(p), target, tol)
        if not defect <= DEFECT_TOL:
            raise SplittingError(
                f"degree {p}: section defect {defect:.3e} exceeds {DEFECT_TOL:.0e}"
            )
        if section_cycles is not None and pre.shape[1]:
            shift = section_cycles[p]
            if shift is not None:
                pre = pre + shift
        ss.append(pre)

    split = HomologySplitting(bs, hs, ss)
    for p in range(n + 1):
        m = assembled_matrix(tc, split, p)
        if m.shape[0] != m.shape[1]:
            raise SplittingError(
                f"degree {p}: split basis has {m.shape[1]} vectors in a "
                f"{m.shape[0]}-dimensional chain group"
            )
        if m.shape[0] and not linalg.independent_columns(m, tol):
            raise SplittingError(f"degree {p}: split basis is singular")
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
    ``boundary_bases`` (the corrective term passes the split basis that
    ``transport_bases`` normalizes).
    Each determinant depends on that choice of b_p; the value, their
    alternating product with exponent (-1)^(p+1), does not.
    """

    value: complex
    per_degree_determinants: list[complex]


def torsion(tc, split: HomologySplitting, reference_bases=None) -> TorsionResult:
    """Alternating product of transition determinants for a split complex.

    ``reference_bases[p]`` replaces the standard coordinate basis of
    C_p (used when the chain groups carry assigned bases, as in the
    corrective term); default is the geometric basis = identity.
    """
    n = len(tc.dims) - 1
    value = complex(1.0)
    dets = []
    for p in range(n + 1):
        if tc.dims[p] == 0:
            dets.append(complex(1.0))
            continue
        m = assembled_matrix(tc, split, p)
        if reference_bases is not None and reference_bases[p] is not None:
            m = np.linalg.solve(np.asarray(reference_bases[p], dtype=complex), m)
        det = complex(np.linalg.det(m))
        if det == 0 or not np.isfinite(det):
            raise SplittingError(f"degree {p}: singular transition matrix")
        dets.append(1.0 / det)
        value *= det ** ((-1) ** p)
    return TorsionResult(value=value, per_degree_determinants=dets)


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
