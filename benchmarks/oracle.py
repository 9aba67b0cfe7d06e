"""Torsion modulus of a CW complex under a diagonal representation.

Written with numpy only, apart from the library it checks.  A complex
is plain data (``Cw``): cell counts and group-ring boundary matrices
whose entries are lists of ``(coefficient, word)`` terms, a word being
a tuple of ``(generator, exponent)`` letters.

For rho(g_k) = diag(lambda_k, 1/lambda_k) the adjoint representation
splits into the three characters chi_w(g_k) = lambda_k^w, w in
{0, 2, -2}, through a change of coordinates that is unitary for the
orthonormal sl2 basis.  With orthonormal homology representatives the
torsion modulus is then

    |T| = prod_p prod_w sdet'(d_p(chi_w)) ** ((-1) ** (p + 1))

where d_p(chi) is the boundary matrix C_p -> C_{p-1} evaluated at chi
and sdet' is the product of its nonzero singular values.  On a wedge
of circles this is ||lambda^2 - 1|| * ||lambda^-2 - 1||.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WEIGHTS = (0, 2, -2)

# singular values below this share of the largest are zero
RANK_CUTOFF = 1e-9


@dataclass(frozen=True)
class Cw:
    """Cells per degree and boundaries[p-1]: rows C_{p-1}, columns C_p."""

    name: str
    generators: int
    relators: tuple
    cells: tuple
    boundaries: tuple


def _word(*letters):
    return tuple(letters)


def _matrix(rows):
    return tuple(tuple(tuple(entry) for entry in row) for row in rows)


def wedge(g: int) -> Cw:
    """One 0-cell and g loops: d_1 = [g_i - 1]."""
    row = [[(1, _word((i, 1))), (-1, _word())] for i in range(g)]
    return Cw("circle" if g == 1 else f"wedge_{g}", g, (), (1, g), (_matrix([row]),))


def torus() -> Cw:
    """Presentation complex of <a, b | a b a^-1 b^-1> (Fox derivatives)."""
    a, b, a_, b_ = (0, 1), (1, 1), (0, -1), (1, -1)
    d1 = [[[(1, _word(a)), (-1, _word())], [(1, _word(b)), (-1, _word())]]]
    d2 = [[[(1, _word()), (-1, _word(a, b, a_))]],
          [[(1, _word(a)), (-1, _word(a, b, a_, b_))]]]
    return Cw("torus", 2, (_word(a, b, a_, b_),), (1, 2, 1), (_matrix(d1), _matrix(d2)))


def bouquet() -> Cw:
    """Circle, 2-sphere and 3-sphere on one 0-cell: one cell per degree."""
    loop = [[[(1, _word((0, 1))), (-1, _word())]]]
    zero = [[[]]]
    return Cw("bouquet", 1, (), (1, 1, 1, 1), (_matrix(loop), _matrix(zero), _matrix(zero)))


def _shift(entry, offset):
    return tuple((c, tuple((g + offset, e) for g, e in word)) for c, word in entry)


def disk_sum(m1: Cw, m2: Cw) -> Cw:
    """Identify 0-cell 0 of both factors; m2's generators follow m1's."""
    dim = max(len(m1.cells), len(m2.cells)) - 1

    def count(m, p):
        return m.cells[p] if p < len(m.cells) else 0

    cells = [count(m1, p) + count(m2, p) - (1 if p == 0 else 0) for p in range(dim + 1)]

    def place2(p, j):
        """Index in the glued complex of m2's j-th p-cell; its 0-cell 0 is shared."""
        if p == 0:
            return 0 if j == 0 else count(m1, 0) + j - 1
        return count(m1, p) + j

    boundaries = []
    for p in range(1, dim + 1):
        grid = [[() for _ in range(cells[p])] for _ in range(cells[p - 1])]
        for m, place, offset in ((m1, lambda q, k: k, 0), (m2, place2, m1.generators)):
            if p < len(m.cells):
                for i, row in enumerate(m.boundaries[p - 1]):
                    for j, entry in enumerate(row):
                        ti, tj = place(p - 1, i), place(p, j)
                        grid[ti][tj] = grid[ti][tj] + _shift(entry, offset)
        boundaries.append(_matrix(grid))
    relators = m1.relators + tuple(
        tuple((g + m1.generators, e) for g, e in r) for r in m2.relators)
    return Cw(f"{m1.name}+{m2.name}", m1.generators + m2.generators, relators,
              tuple(cells), tuple(boundaries))


def chain_sum(factors) -> Cw:
    """Left-associated disk sum ((f0 # f1) # f2) # ..."""
    out = factors[0]
    for f in factors[1:]:
        out = disk_sum(out, f)
    return out


def euler_characteristic(cw: Cw) -> int:
    return sum((-1) ** p * m for p, m in enumerate(cw.cells))


def evaluated(matrix, values) -> np.ndarray:
    """Group-ring matrix at the character g_k -> values[k]."""
    out = np.zeros((len(matrix), len(matrix[0]) if matrix else 0), dtype=complex)
    for i, row in enumerate(matrix):
        for j, entry in enumerate(row):
            for coeff, word in entry:
                term = complex(coeff)
                for g, e in word:
                    term *= values[g] ** e
                out[i, j] += term
    return out


def sdet_prime(m: np.ndarray) -> float:
    """Product of the nonzero singular values (1 for the zero map)."""
    if m.size == 0:
        return 1.0
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[0] == 0:
        return 1.0
    return float(np.prod(sv[sv > RANK_CUTOFF * sv[0]]))


def torsion_modulus(cw: Cw, eigenvalues) -> float:
    """|T| of ``cw`` twisted by Ad(diag(lambda_k, 1/lambda_k))."""
    lam = np.asarray(eigenvalues, dtype=complex)
    if lam.shape != (cw.generators,):
        raise ValueError(f"{lam.size} eigenvalues for {cw.generators} generators")
    out = 1.0
    for w in WEIGHTS:
        values = lam ** w
        for p, matrix in enumerate(cw.boundaries, start=1):
            out *= sdet_prime(evaluated(matrix, values)) ** ((-1) ** (p + 1))
    return out
