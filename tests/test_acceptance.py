"""Acceptance suite.

One test per criterion, each printing a single pass/fail line with its
worst-case evidence (run with ``pytest tests/test_acceptance.py -s`` to
see the lines).  Tolerances are fixed here, not configurable.
"""

import numpy as np

from torsionworks.algebra import (
    Representation,
    Word,
    adjoint_matrix,
    orthonormal_sl2_basis,
)
from torsionworks.complexes import change_lift, homology, twist
from torsionworks.glue import (
    analyze_disk_sum,
    mv_sequence,
    transport_bases,
    verify_multiplicativity,
    verify_mv_identity,
)
from torsionworks.linalg import matrix_rank
from torsionworks.scenes import (
    circle,
    disk,
    handlebody_model,
    point,
    wedge_of_circles,
)
from torsionworks.torsion import torsion_independence_check, torsion_of

from conftest import block_ad, diag_rep, random_sl2

BASIS = orthonormal_sl2_basis()
LAMBDAS = (2.0, 3.0, 1.0 + 1.0j)


def report(number, name, passed, evidence):
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {verdict} ({evidence})")
    assert passed, f"criterion {number} ({name}): {evidence}"


def rep_for(cw, seed=0):
    """Diagonal representation cycling through the lambda list."""
    g = cw.presentation.generator_count
    lams = [LAMBDAS[(seed + i) % len(LAMBDAS)] for i in range(g)]
    return diag_rep(*lams)


def glued_models():
    rng = np.random.default_rng(77)
    g0 = random_sl2(rng)
    conj3 = Representation.from_images(
        [g0 @ np.diag([3.0, 1 / 3.0]).astype(complex) @ np.linalg.inv(g0)])
    return [
        ("point+point", point(), Representation.trivial(0),
         point(), Representation.trivial(0)),
        ("circle2+point", circle(), diag_rep(2.0),
         point(), Representation.trivial(0)),
        ("circle2+circle3", circle(), diag_rep(2.0), circle(), diag_rep(3.0)),
        ("circle2+circle3conj", circle(), diag_rep(2.0), circle(), conj3),
        ("circleTriv+circle2", circle(), Representation.trivial(1),
         circle(), diag_rep(2.0)),
        ("wedge2+circle5", wedge_of_circles(2), diag_rep(2.0, 3.0),
         circle(), diag_rep(5.0)),
    ]


def test_criterion_1_disk_normalization():
    worst = 0.0
    for cw in (point(), disk()):
        tc = twist(cw, Representation.trivial(0), BASIS)
        value = torsion_of(tc, homology(tc)).value
        worst = max(worst, abs(value - 1.0))
    report(1, "disk-normalization", worst <= 1e-12, f"max |T-1| = {worst:.2e}")


def test_criterion_2_lift_invariance():
    rng = np.random.default_rng(101)
    worst = 0.0
    for cw in (circle(), wedge_of_circles(2), wedge_of_circles(3)):
        rep = rep_for(cw)
        tc = twist(cw, rep, BASIS)
        hd = homology(tc)
        base = torsion_of(tc, hd).value
        for _ in range(20):
            j = int(rng.integers(cw.cells[1]))
            letters = [(int(rng.integers(cw.presentation.generator_count)),
                        1 if rng.random() < 0.5 else -1)
                       for _ in range(int(rng.integers(1, 4)))]
            gamma = Word.from_letters(letters)
            if gamma.is_identity:
                continue
            lifted = change_lift(cw, 1, j, gamma)
            tc2 = twist(lifted, rep, BASIS)
            hd2 = homology(tc2)
            u = np.eye(tc.dims[1], dtype=complex)
            ad = adjoint_matrix(rep, BASIS, gamma)
            u[j * 3:(j + 1) * 3, j * 3:(j + 1) * 3] = np.linalg.inv(ad)
            transported = [hd.h_basis[0], u @ hd.h_basis[1]]
            value = torsion_of(tc2, hd2, transported).value
            worst = max(worst, abs(value - base) / abs(base))
    report(2, "lift-invariance", worst <= 1e-6, f"max rel change = {worst:.2e}")


def test_criterion_3_section_basis_independence():
    worst = 0.0
    cases = [point(), disk(), circle(), wedge_of_circles(2), handlebody_model(3)]
    for seed, cw in enumerate(cases):
        tc = twist(cw, rep_for(cw, seed), BASIS)
        outcome = torsion_independence_check(tc, homology(tc), trials=20,
                                             seed=seed)
        worst = max(worst, outcome.max_relative_deviation)
        assert outcome.passed
    report(3, "section-basis-independence", worst <= 1e-6,
           f"max rel deviation = {worst:.2e}")


def test_criterion_4_circle_oracle():
    lam = 2.0
    tc = twist(circle(), diag_rep(lam), BASIS)
    value = torsion_of(tc, homology(tc)).value
    # oracle: restrict Ad(g) - 1 to the orthogonal complement of its
    # kernel and take the plain determinant there
    ad = adjoint_matrix(diag_rep(lam), BASIS, Word.generator(0))
    d = ad - np.eye(3)
    _, sv, vh = np.linalg.svd(d)
    comp = vh[: int(np.sum(sv > 1e-10 * sv[0])), :].conj().T
    oracle = abs(np.linalg.det(comp.conj().T @ d @ comp))
    closed_form = abs((lam ** 2 - 1) * (lam ** -2 - 1))
    err = max(abs(abs(value) - oracle), abs(abs(value) - closed_form),
              abs(closed_form - 9 / 4))
    report(4, "circle-oracle-9/4", err <= 1e-9,
           f"|T| = {abs(value):.12f}, oracle = {oracle:.12f}")


def test_criterion_5_mv_identity_with_corrective_term():
    rng = np.random.default_rng(55)
    g0 = random_sl2(rng)
    conj3 = Representation.from_images(
        [g0 @ np.diag([3.0, 1 / 3.0]).astype(complex) @ np.linalg.inv(g0)])
    worst = 0.0
    for r2 in (diag_rep(3.0), conj3):
        pair = analyze_disk_sum(circle(), diag_rep(2.0), circle(), r2)
        outcome = verify_mv_identity(pair)
        worst = max(worst, outcome.residual)
        assert outcome.passed
    report(5, "mv-identity-canonical-bases", worst <= 1e-6,
           f"max rel residual = {worst:.2e}")


def test_criterion_6_corrective_term_vanishing():
    worst = 0.0
    for name, m1, r1, m2, r2 in glued_models():
        pair = analyze_disk_sum(m1, r1, m2, r2)
        seq = mv_sequence(pair)
        value = transport_bases(seq.canonical, seq.h_factors).corrective.value
        worst = max(worst, abs(value - 1.0))
    report(6, "corrective-term-unity", worst <= 1e-6,
           f"max |corrective - 1| = {worst:.2e}")


def test_criterion_7_multiplicativity():
    families = [
        [(circle(), diag_rep(2.0)), (circle(), diag_rep(3.0))],
        [(wedge_of_circles(2), diag_rep(2.0, 3.0)), (circle(), diag_rep(5.0))],
        [(circle(), diag_rep(2.0)), (circle(), diag_rep(3.0)),
         (circle(), diag_rep(5.0))],
        [(circle(), diag_rep(2.0)), (wedge_of_circles(2), diag_rep(3.0, 5.0)),
         (circle(), diag_rep(7.0))],
    ]
    worst = 0.0
    for family in families:
        outcome = verify_multiplicativity([f[0] for f in family],
                                          [f[1] for f in family])
        worst = max(worst, outcome.relative_error)
        assert outcome.passed
    report(7, "disk-sum-multiplicativity", worst <= 1e-6,
           f"max rel error 2- and 3-factor = {worst:.2e}")


def test_criterion_8_exactness_suite():
    worst_comp = 0.0
    identity_checked = 0
    for name, m1, r1, m2, r2 in glued_models():
        pair = analyze_disk_sum(m1, r1, m2, r2)
        seq = mv_sequence(pair)  # exactness asserted during assembly
        for p in range(1, len(seq.dims)):
            dout, din = seq.boundary(p), seq.boundary(p + 1)
            if dout.shape[1] and din.shape[1]:
                worst_comp = max(worst_comp, np.linalg.norm(dout @ din, 2))
            rank_in = matrix_rank(din, 1e-8)
            kernel = seq.dims[p] - matrix_rank(dout, 1e-8)
            assert rank_in == kernel, (name, p)
        n0_m1, n0_m2 = pair.hd1.betti[0], pair.hd2.betti[0]
        n0_m, n0_d = pair.hdm.betti[0], pair.hdd.betti[0]
        rank_disk = matrix_rank(seq.boundary(2), 1e-8)
        # bookkeeping: the direct-sum space is spanned by the disk image
        # and a section of the glued space in every case
        assert n0_m1 + n0_m2 == n0_m + rank_disk, name
        if rank_disk == n0_d:
            # injective disk inclusion: the printed identity holds verbatim
            assert n0_m1 + n0_m2 == n0_m + n0_d, name
            identity_checked += 1
    assert identity_checked >= 3
    report(8, "exactness-suite", worst_comp <= 1e-8,
           f"max composition norm = {worst_comp:.2e}, "
           f"degree-0 identity verified on {identity_checked} gluings")


def test_criterion_9_conjugation_invariance():
    rng = np.random.default_rng(606)
    worst = 0.0
    for cw in (circle(), wedge_of_circles(2)):
        rep = rep_for(cw)
        tc = twist(cw, rep, BASIS)
        hd = homology(tc)
        base = torsion_of(tc, hd).value
        for _ in range(5):
            g0 = random_sl2(rng)
            tc2 = twist(cw, rep.conjugated(g0), BASIS)
            hd2 = homology(tc2)
            transported = [block_ad(g0, cw.cells[p]) @ hd.h_basis[p]
                           for p in range(2)]
            value = torsion_of(tc2, hd2, transported).value
            worst = max(worst, abs(value - base) / abs(base))
    report(9, "conjugation-invariance", worst <= 1e-6,
           f"max rel change = {worst:.2e}")
