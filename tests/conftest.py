import numpy as np
import pytest

from torsionworks import adjoint_matrix, orthonormal_sl2_basis
from torsionworks.algebra import (
    GroupPresentation,
    GroupRingElement,
    GroupRingMatrix,
    Representation,
    Word,
)
from torsionworks.complexes import CwComplexData


@pytest.fixture
def basis():
    return orthonormal_sl2_basis()


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def diag_rep(*eigenvalues):
    return Representation.from_images(
        [np.diag([lam, 1.0 / lam]).astype(complex) for lam in eigenvalues]
    )


def random_sl2(rng):
    """A well-conditioned random determinant-1 matrix."""
    while True:
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        det = np.linalg.det(m)
        if abs(det) > 0.3:
            return m / np.sqrt(det)


def glued_data(m1, rep1, m2, rep2):
    """The glued CW data and free-product representation of a disk sum."""
    from torsionworks.glue import disk_sum, free_product_rep
    ds = disk_sum(m1, m2)
    return ds.total, free_product_rep(rep1, rep2, ds)


def placed_complex(ds, tc1, tc2):
    """The twisted complex of the disk sum ``ds``, placed pair by pair from
    its factors' complexes: each factor's twisted boundary is written at
    the coordinates its cell maps give.  This is the pairwise reference
    for the one placement by which a chain is glued."""
    from torsionworks.complexes import TwistedChainComplex
    from torsionworks.glue import _place, _zero_maps
    d, cells = tc1.d, ds.total.cells
    mats = _zero_maps(cells, d)
    for tc, maps in zip((tc1, tc2), ds.cell_maps):
        _place(mats, tc, maps)
    return TwistedChainComplex(d, [m * d for m in cells], mats)


def _direct_sum(a, b):
    out = np.zeros((len(a) + len(b),) * 2, dtype=complex)
    out[:len(a), :len(a)], out[len(a):, len(a):] = a, b
    return out


def drawn_residual(pair, rng):
    """The gluing identity's residual in random bases: a random mix per
    nonzero homology degree of M1, M2, M and D, each torsion rebased by its
    mixes, and the corrective term taken in the sequence's bases so drawn,
    a direct-sum space's the factors' mixes block-diagonally."""
    from torsionworks.glue import mv_sequence
    from torsionworks.linalg import random_recombination
    from torsionworks.torsion import rebased, torsion_of
    complexes = ((pair.tc1, pair.hd1), (pair.tc2, pair.hd2),
                 (pair.tcm, pair.hdm), (pair.tcd, pair.hdd))
    mixes = [random_recombination([np.eye(k, dtype=complex) for k in hd.betti], rng)
             for _, hd in complexes]
    t1, t2, tm, td = (rebased(torsion_of(tc, hd), c, 1).value
                      for (tc, hd), c in zip(complexes, mixes))
    c1, c2, cm, cd = mixes
    bases = []
    for p, c in enumerate(cm):
        a, b = (f[p] if p < len(f) else np.zeros((0, 0)) for f in (c1, c2))
        bases += [c, _direct_sum(a, b), cd[p] if p < len(cd) else None]
    th = rebased(mv_sequence(pair).canonical, bases, -1).value
    return abs(t1 * t2 - tm * td * th) / abs(t1 * t2)


def block_ad(g0, cells, basis=None):
    """Block-diagonal adjoint change of coordinates, one block per cell."""
    basis = basis or orthonormal_sl2_basis()
    rep = Representation.from_images([np.asarray(g0, dtype=complex)])
    ad = adjoint_matrix(rep, basis, Word.generator(0))
    return np.kron(np.eye(cells), ad)


def torus():
    """Presentation 2-complex of the rank-2 abelian group.

    The single relator is the commutator; its boundary column holds the
    free-derivative entries (1 - aba^{-1}, a - aba^{-1}b^{-1}).
    """
    a, b = Word.generator(0), Word.generator(1)
    commutator = a * b * a.inverse() * b.inverse()
    one = GroupRingElement.one()
    d1 = GroupRingMatrix.from_rows([
        [GroupRingElement.gen(0) - one, GroupRingElement.gen(1) - one]
    ])
    d2 = GroupRingMatrix.from_rows([
        [one - GroupRingElement.from_word(a * b * a.inverse())],
        [GroupRingElement.from_word(a) - GroupRingElement.from_word(commutator)],
    ])
    return CwComplexData(
        name="torus",
        presentation=GroupPresentation(2, (commutator,)),
        cells=[1, 2, 1],
        boundaries=[d1, d2],
    )


def bouquet():
    """One cell in each degree 0..3; only the loop attaches nontrivially.

    Wedge of a circle, a 2-sphere, and a 3-sphere: makes every level of
    a 12-space gluing sequence nonzero.
    """
    one = GroupRingElement.one()
    zero = GroupRingElement.zero()
    return CwComplexData(
        name="bouquet",
        presentation=GroupPresentation.free(1),
        cells=[1, 1, 1, 1],
        boundaries=[
            GroupRingMatrix.from_rows([[GroupRingElement.gen(0) - one]]),
            GroupRingMatrix.from_rows([[zero]]),
            GroupRingMatrix.from_rows([[zero]]),
        ],
    )


def sphere():
    """The 2-sphere: one 0-cell and one 2-cell, with an empty layer between."""
    return CwComplexData(
        name="sphere",
        presentation=GroupPresentation.free(0),
        cells=[1, 0, 1],
        boundaries=[GroupRingMatrix.zeros(1, 0), GroupRingMatrix.zeros(0, 1)],
    )


def assigned_determinant(pair, step):
    """(p, det) for a two-factor chain's ``step`` on ``pair``: M2's first
    degree p with homology, where the chain's one transported scalar goes,
    and the determinant det of the basis of H_p(M2) it assigns there, read
    off the step's right torsion, T(M2) det^((-1)^p)."""
    from torsionworks.torsion import torsion_of
    p = next(p for p, b in enumerate(pair.hd2.betti) if b)
    factor = step.right_torsion / torsion_of(pair.tc2, pair.hd2).value
    return p, factor ** ((-1) ** p)
