"""An exact oracle for the torsion, sign included, in supplied homology bases.

The twisted complex is built again over Q(i) with sympy, from the same CW
data, the exact sl_2 basis and exact generator images.  Its torsion
prod_p det[b_p | h_p | s_p]^((-1)^p) is taken with b_p the pivot columns
of the next boundary map and s_p the unit vectors those columns come
from, choices the library never makes; the homology vectors h_p are exact
cycles, passed to ``torsion_of`` as its ``h_bases``.  The torsion does not
depend on b_p or s_p, so the two values agree, phase and sign included.
"""

import numpy as np
import pytest
import sympy as sp

from torsionworks.algebra import Representation, orthonormal_sl2_basis
from torsionworks.complexes import homology, twist
from torsionworks.scenes import circle
from torsionworks.torsion import torsion_of

from conftest import torus

HALF = sp.Rational(1, 2)
E = sp.Matrix([[0, 1], [0, 0]])
F = sp.Matrix([[0, 0], [1, 0]])
H = sp.Matrix([[1, 0], [0, -1]])
SCALE = 2 * sp.sqrt(2)
# the library's B-orthonormal basis of sl_2, B(X, Y) = 4 Tr(XY)
SL2_BASIS = (H / SCALE, (E + F) / SCALE, (E - F) / (SCALE * sp.I))


def exact_adjoint(g):
    """Entry (i, j) is B(a_i, g a_j g^-1), as ``algebra.adjoint_matrices`` takes it."""
    g_inv = g.inv()
    return sp.Matrix(3, 3, lambda i, j: sp.expand(
        4 * (SL2_BASIS[i] * g * SL2_BASIS[j] * g_inv).trace()))


def exact_word(images, word):
    out = sp.eye(2)
    for gen, exp in word.letters:
        out = out * images[gen] ** exp
    return out


def exact_boundaries(cw, images):
    """Each twisted boundary map over Q(i), blocks laid out as ``twist`` lays them."""
    mats = []
    for g in cw.boundaries:
        big = sp.zeros(3 * g.rows, 3 * g.cols)
        for i in range(g.rows):
            for j in range(g.cols):
                for word, coeff in g.entry(i, j).terms:
                    big[3 * i:3 * i + 3, 3 * j:3 * j + 3] += \
                        coeff * exact_adjoint(exact_word(images, word))
        mats.append(big.applyfunc(sp.expand))
    return mats


def exact_torsion(dims, mats):
    """The exact homology cycles per degree and the torsion in them."""
    n = len(dims) - 1
    value, h_bases = sp.Integer(1), []
    for p in range(n + 1):
        into = mats[p - 1] if p else sp.zeros(0, dims[0])
        out_of = mats[p] if p < n else sp.zeros(dims[p], 0)
        b = out_of[:, list(out_of.rref()[1])]
        cycles = into.nullspace() if into.rows else sp.eye(dims[p]).columnspace()
        h = sp.zeros(dims[p], 0)
        for z in cycles:
            if sp.Matrix.hstack(b, h, z).rank() > b.cols + h.cols:
                h = sp.Matrix.hstack(h, z)
        # the map into degree p - 1 takes unit vector j to its column j, so the
        # unit vectors of its pivot columns are sections of b_{p-1}
        s = sp.eye(dims[p])[:, list(into.rref()[1])]
        m = sp.Matrix.hstack(b, h, s)
        assert m.shape == (dims[p], dims[p])
        value *= m.det() ** ((-1) ** p)
        h_bases.append(h)
    return h_bases, sp.nsimplify(sp.simplify(value))


def numeric(m):
    return np.array(m.evalf(30).tolist(), dtype=complex).reshape(m.shape)


@pytest.mark.parametrize("cw, images", [
    (circle(), [sp.diag(2, HALF)]),
    (circle(), [sp.Matrix([[1, 1], [0, 1]])]),
    (torus(), [sp.diag(2, HALF), sp.diag(3, sp.Rational(1, 3))]),
], ids=["circle_diag", "circle_parabolic", "torus_diag"])
def test_torsion_in_exact_homology_bases_matches_the_exact_oracle(cw, images):
    mats = exact_boundaries(cw, images)
    dims = [3 * c for c in cw.cells]
    h_exact, expected = exact_torsion(dims, mats)
    assert expected != 0

    rep = Representation.from_images([numeric(g) for g in images])
    tc = twist(cw, rep, orthonormal_sl2_basis())
    for p, exact in enumerate(mats, start=1):
        np.testing.assert_allclose(tc.boundary(p), numeric(exact), atol=1e-14)
    hd = homology(tc)
    assert hd.betti == [h.cols for h in h_exact]
    value = torsion_of(tc, hd, [numeric(h) for h in h_exact]).value
    expected = complex(expected)
    assert abs(value - expected) <= 1e-12 * abs(expected), (value, expected)
