import dataclasses

import numpy as np
import pytest

from torsionworks import glue
from torsionworks import torsion as torsion_module
from torsionworks.algebra import (
    GroupPresentation,
    Representation,
    Target,
    Word,
    orthonormal_sl2_basis,
)
from torsionworks.complexes import (
    CwComplexData,
    TwistedChainComplex,
    euler_characteristic,
    twist,
)
from torsionworks.errors import DiskSumError, SequenceError
from torsionworks.glue import (
    analyze_disk_sum,
    disk_sum,
    free_product_rep,
    gluing_torsion,
    mv_sequence,
    verify_exactness,
    verify_multiplicativity,
    verify_mv_identity,
)
from torsionworks.linalg import DEFAULT_TOL, DEFECT_TOL, matrix_rank, relative_defect
from torsionworks.scenes import circle, point, wedge_of_circles
from torsionworks.torsion import (
    build_splitting,
    rebased,
    rescaled,
    torsion,
    torsion_of,
)

from conftest import (
    assigned_determinant,
    bouquet,
    diag_rep,
    drawn_residual,
    glued_data,
    placed_complex,
    random_sl2,
    sphere,
    torus,
)


def conjugated_diag(lam, g0):
    base = np.diag([lam, 1.0 / lam]).astype(complex)
    return Representation.from_images([g0 @ base @ np.linalg.inv(g0)])


# ---------------------------------------------------------------------------
# disk sums
# ---------------------------------------------------------------------------

def test_disk_sum_point_point():
    ds = disk_sum(point(), point())
    assert ds.total.cells == [1]
    assert euler_characteristic(ds.total) == 1
    assert ds.total.presentation.generator_count == 0


def test_disk_sum_circle_circle_is_wedge():
    ds = disk_sum(circle(), circle())
    assert ds.total.cells == [1, 2]
    assert ds.total.presentation.generator_count == 2
    assert ds.total.presentation.relators == ()
    assert euler_characteristic(ds.total) == -1
    # boundary row must read (a - 1, b - 1)
    expected = wedge_of_circles(2)
    assert ds.total.boundaries == expected.boundaries


def test_disk_sum_circle_point_is_circle():
    ds = disk_sum(circle(), point())
    assert ds.total == circle()  # name is excluded from equality
    assert euler_characteristic(ds.total) == 0


def test_disk_sum_euler_characteristic_additivity():
    ds = disk_sum(wedge_of_circles(2), wedge_of_circles(3))
    assert euler_characteristic(ds.total) == (-1) + (-2) - 1


def test_disk_sum_generator_and_cell_maps():
    ds = disk_sum(wedge_of_circles(2), circle())
    assert ds.generator_maps == ([0, 1], [2])
    maps1, maps2 = ds.cell_maps
    assert maps1[0] == [0] and maps2[0] == [0]
    assert maps1[1] == [0, 1] and maps2[1] == [2]


def test_disk_sum_relators_remapped():
    rel = Word.generator(0, 2)
    m2 = CwComplexData(name="rp2ish", presentation=GroupPresentation(1, (rel,)),
                       cells=[1], boundaries=[])
    ds = disk_sum(circle(), m2)
    assert ds.total.presentation.relators == (Word.generator(1, 2),)


def test_disk_sum_across_an_empty_layer():
    ds = disk_sum(sphere(), point())
    assert ds.total.cells == [1, 0, 1]
    assert [(m.rows, m.cols) for m in ds.total.boundaries] == [(1, 0), (0, 1)]
    assert disk_sum(circle(), sphere()).total.cells == [1, 1, 1]


def test_disk_sum_rejects_disconnected():
    two_points = CwComplexData(name="2pts", presentation=GroupPresentation.free(0),
                               cells=[2], boundaries=[])
    with pytest.raises(DiskSumError):
        disk_sum(two_points, point())


# ---------------------------------------------------------------------------
# free products of representations
# ---------------------------------------------------------------------------

def test_free_product_rep_concatenates():
    ds = disk_sum(circle(), circle())
    r1, r2 = diag_rep(2.0), diag_rep(3.0)
    rep = free_product_rep(r1, r2, ds)
    assert rep.generator_count == 2
    g1_map, g2_map = ds.generator_maps
    for local, total in enumerate(g1_map):
        assert np.array_equal(rep.images[total], r1.images[local])
    for local, total in enumerate(g2_map):
        assert np.array_equal(rep.images[total], r2.images[local])


def test_free_product_rep_trivial():
    ds = disk_sum(circle(), circle())
    rep = free_product_rep(Representation.trivial(1), Representation.trivial(1), ds)
    assert rep.generator_count == 2
    assert all(np.allclose(m, np.eye(2)) for m in rep.images)


def test_free_product_rep_target_mismatch():
    ds = disk_sum(circle(), circle())
    r1 = diag_rep(2.0)
    r2 = Representation(Target.PSL, 2, (np.diag([3.0, 1 / 3.0]).astype(complex),))
    with pytest.raises(DiskSumError):
        free_product_rep(r1, r2, ds)


# ---------------------------------------------------------------------------
# the Mayer-Vietoris sequence
# ---------------------------------------------------------------------------

def test_sequence_point_point_degree_zero_tail():
    pair = analyze_disk_sum(point(), Representation.trivial(0),
                            point(), Representation.trivial(0))
    seq = mv_sequence(pair)
    assert seq.dims == [3, 6, 3]
    # 0 -> C3 -> C6 -> C3 -> 0 exact, and the bookkeeping identity holds
    assert seq.dims[1] == seq.dims[0] + seq.dims[2]


def test_sequence_has_three_spaces_per_degree_of_the_glued_complex(monkeypatch):
    cases = [
        (point(), Representation.trivial(0), point(), Representation.trivial(0), 3),
        (circle(), diag_rep(2.0), circle(), diag_rep(3.0), 6),
        (circle(), diag_rep(2.0), torus(), diag_rep(3.0, 5.0), 9),
        (torus(), diag_rep(2.0, 3.0), bouquet(), diag_rep(2.5), 12),
    ]
    blocks, rescalings = [], []
    block, rescale = glue.gluing_torsion, torsion_module.rescaled

    def recording(*args, **kwargs):
        blocks.append(block(*args, **kwargs))
        return blocks[-1]

    def rescaling(*args, **kwargs):
        rescalings.append(None)
        return rescale(*args, **kwargs)

    monkeypatch.setattr(glue, "gluing_torsion", recording)
    monkeypatch.setattr(torsion_module, "rescaled", rescaling)
    for m1, r1, m2, r2, spaces in cases:
        pair = analyze_disk_sum(m1, r1, m2, r2)
        seq = mv_sequence(pair)
        assert len(seq.dims) == 3 * (pair.tcm.dimension + 1) == spaces
        assert len(seq.mats) == spaces - 1
        blocks.clear()
        verify_multiplicativity([m1, m2], [r1, r2])
        # one degree-0 block per step, with one determinant per space of the
        # sequence, and no basis transported or rescaled
        assert [len(b.per_degree_determinants) for b in blocks] == [spaces]
        assert rescalings == []
    for name in ("transport_bases", "TransportedBases", "corrective_term"):
        assert not hasattr(glue, name), name


def test_sequence_circle_circle_dimensions():
    pair = analyze_disk_sum(circle(), diag_rep(2.0), circle(), diag_rep(3.0))
    seq = mv_sequence(pair)
    # shared eigenbasis: both boundary images are the same 2-plane, so
    # the wedge has a 4-dimensional degree-1 homology (brute-forced in
    # test_complexes/test_glue) and the disk image has rank 1
    assert pair.hdm.betti == [1, 4]
    assert seq.dims == [1, 2, 3, 4, 2, 0]
    rank_alpha = matrix_rank(seq.boundary(2), 1e-8)
    assert seq.dims[1] == seq.dims[0] + rank_alpha
    # the printed identity with the full disk dimension needs an injective
    # disk-inclusion map, which fails here (1-dim image of a 3-dim space)
    assert rank_alpha == 1
    assert seq.dims[1] != seq.dims[0] + seq.dims[2]


def test_sequence_circle_circle_generic_conjugates(rng):
    g0 = random_sl2(rng)
    pair = analyze_disk_sum(circle(), diag_rep(2.0),
                            circle(), conjugated_diag(3.0, g0))
    seq = mv_sequence(pair)
    assert pair.hdm.betti == [0, 3]
    assert seq.dims[:6] == [0, 2, 3, 3, 2, 0]


def test_sequence_degree_zero_identity_when_disk_injects():
    # a trivial-representation factor has zero boundary image, so the
    # disk inclusion is injective and the printed identity holds exactly
    pair = analyze_disk_sum(circle(), Representation.trivial(1),
                            circle(), diag_rep(2.0))
    seq = mv_sequence(pair)
    assert matrix_rank(seq.boundary(2), 1e-8) == seq.dims[2]
    n0_m1, n0_m2 = pair.hd1.betti[0], pair.hd2.betti[0]
    assert n0_m1 + n0_m2 == pair.hdm.betti[0] + pair.hdd.betti[0]


def test_sequence_isomorphism_range_when_connecting_map_vanishes():
    pair = analyze_disk_sum(circle(), Representation.trivial(1),
                            circle(), Representation.trivial(1))
    seq = mv_sequence(pair)
    d1 = seq.boundary(4)  # degree-1 gluing map
    assert d1.shape == (6, 6)
    assert matrix_rank(d1, 1e-8) == 6


def test_sequence_exactness_suite():
    models = [
        (point(), Representation.trivial(0), point(), Representation.trivial(0)),
        (circle(), diag_rep(2.0), point(), Representation.trivial(0)),
        (circle(), diag_rep(2.0), circle(), diag_rep(3.0)),
        (wedge_of_circles(2), diag_rep(2.0, 3.0), circle(), diag_rep(5.0)),
    ]
    for m1, r1, m2, r2 in models:
        pair = analyze_disk_sum(m1, r1, m2, r2)
        seq = mv_sequence(pair)  # verify_exactness runs inside
        for p in range(1, len(seq.dims)):
            dout, din = seq.boundary(p), seq.boundary(p + 1)
            if dout.shape[1] and din.shape[1]:
                assert np.linalg.norm(dout @ din) <= 1e-8


def test_sequence_rejects_inconsistent_maps():
    pair = analyze_disk_sum(circle(), diag_rep(2.0), circle(), diag_rep(3.0))
    seq = mv_sequence(pair)
    mats = list(seq.mats)
    mats[0] = np.zeros_like(mats[0])  # kill the gluing map
    with pytest.raises(SequenceError):
        verify_exactness(TwistedChainComplex(1, seq.dims, mats))


def test_exactness_rejects_dimensions_that_do_not_alternate_to_zero():
    # consistent (a single map), but 2 - 1 != 0 leaves a homology class
    tc = TwistedChainComplex(1, [2, 1], [np.array([[1.0], [0.0]], dtype=complex)])
    with pytest.raises(SequenceError, match="space 0: homology of dimension 1"):
        verify_exactness(tc)


def test_copies_and_transport_read_the_split_mv_sequence_built(monkeypatch):
    # with the sequence's torsion in place of the degree-0 block, the step's
    # transport reads seq.canonical, the torsion mv_sequence took once, and
    # splits only the four complexes: the transported scalar is its value
    m1, r1, m2, r2 = wedge_of_circles(2), diag_rep(2.0, 3.0), circle(), diag_rep(5.0)
    pair = analyze_disk_sum(m1, r1, m2, r2)
    seq = mv_sequence(pair)
    splits = []
    split = torsion_module.build_splitting

    def splitting(*args, **kwargs):
        splits.append(None)
        return split(*args, **kwargs)

    monkeypatch.setattr(glue, "build_splitting", splitting)
    monkeypatch.setattr(torsion_module, "build_splitting", splitting)
    t2 = torsion_of(pair.tc2, pair.hd2).value
    for scale in (1, 2):
        canonical = dataclasses.replace(seq.canonical, value=scale * seq.canonical.value)
        monkeypatch.setattr(glue, "gluing_torsion", lambda pair, tol: canonical)
        splits.clear()
        step = verify_multiplicativity([m1, m2], [r1, r2]).steps[0]
        # M, M1, M2 and D, each split once
        assert len(splits) == 4
        # H_0(M2) takes the basis of determinant kappa^-1
        assert step.right_torsion == t2 * (scale * seq.canonical.value) ** -1
        assert step.corrective == pytest.approx(1.0, rel=1e-15)


# ---------------------------------------------------------------------------
# corrective term
# ---------------------------------------------------------------------------

def test_corrective_term_zero_sequence_is_one():
    # zero spaces are exact, and each contributes the empty product
    for n in range(4):
        spaces = 3 * (n + 1)
        zero = TwistedChainComplex(1, [0] * spaces,
                                   [np.zeros((0, 0), dtype=complex)] * (spaces - 1))
        split = build_splitting(zero, verify_exactness(zero))
        assert torsion(zero, split).value == pytest.approx(1.0)


def test_corrective_term_scaling_covariance():
    pair = analyze_disk_sum(circle(), diag_rep(2.0), circle(), diag_rep(3.0))
    seq = mv_sequence(pair)
    base = rebased(seq.canonical, None, -1).value
    alpha = 0.6 + 1.1j
    bases = [None] * len(seq.dims)
    bases[1] = np.eye(seq.dims[1], dtype=complex)
    bases[1][:, 0] *= alpha
    scaled = rebased(seq.canonical, bases, -1).value
    # scaling one assigned basis vector of the odd space C_1 multiplies
    # the torsion of the sequence by alpha
    assert scaled == pytest.approx(base * alpha, rel=1e-9)


def test_transport_makes_corrective_term_one():
    models = [
        (point(), Representation.trivial(0), point(), Representation.trivial(0)),
        (circle(), diag_rep(2.0), point(), Representation.trivial(0)),
        (circle(), diag_rep(2.0), circle(), diag_rep(3.0)),
        (circle(), Representation.trivial(1), circle(), diag_rep(2.0)),
        (wedge_of_circles(2), diag_rep(2.0, 3.0), circle(), diag_rep(5.0)),
    ]
    for m1, r1, m2, r2 in models:
        pair = analyze_disk_sum(m1, r1, m2, r2)
        step = verify_multiplicativity([m1, m2], [r1, r2]).steps[0]
        p, det = assigned_determinant(pair, step)
        assert abs(det) > 1e-12
        # the scalar is the sequence's torsion to the power (-1)^(p+1)
        kappa = mv_sequence(pair).canonical.value
        assert det == pytest.approx(kappa ** ((-1) ** (p + 1)), rel=1e-12)
        assert step.corrective == pytest.approx(1.0, abs=1e-9)


def test_transport_point_point_with_geometric_disk_basis():
    # H_0(M) of point # point is the disk's cell: given in its geometric
    # basis, the basis enters the corrective term by its determinant, and
    # the transport still cancels it
    factors, reps = [point(), point()], [Representation.trivial(0)] * 2
    pair = analyze_disk_sum(point(), reps[0], point(), reps[1])
    geometric = np.eye(3, dtype=complex)
    report = verify_multiplicativity(factors, reps, h_m=[geometric])
    step = report.steps[0]
    assert report.passed
    assert step.corrective == pytest.approx(1.0, abs=1e-12)
    # the geometric basis as coordinates in the canonical one
    bases = [pair.hdm.h_basis[0].conj().T @ geometric]
    kappa = rebased(mv_sequence(pair).canonical, bases, -1).value
    p, det = assigned_determinant(pair, step)
    assert p == 0
    assert det == pytest.approx(kappa ** -1, rel=1e-12)


def test_transport_identity_when_second_factor_empty():
    # degree 1 of circle + point: the right factor has no homology there
    # and the gluing map is the identity in canonical coordinates; the
    # residual goes on the point's degree-0 block, and the circle keeps
    # its canonical basis in every degree
    pair = analyze_disk_sum(circle(), diag_rep(2.0),
                            point(), Representation.trivial(0))
    seq = mv_sequence(pair)
    assert seq.dims[4] == 1
    assert seq.canonical.per_degree_determinants[4] == pytest.approx(1.0, abs=1e-9)
    step = verify_multiplicativity([circle(), point()],
                                   [diag_rep(2.0), Representation.trivial(0)]).steps[0]
    kappa = gluing_torsion(pair).value
    assert step.left_torsion == torsion_of(pair.tc1, pair.hd1).value
    assert step.right_torsion == torsion_of(pair.tc2, pair.hd2).value * kappa ** -1


# ---------------------------------------------------------------------------
# the gluing identity, whose residual no choice of bases moves
# ---------------------------------------------------------------------------

def test_mv_identity_random_bases(rng):
    g0 = random_sl2(rng)
    models = [
        (point(), Representation.trivial(0), point(), Representation.trivial(0)),
        (circle(), diag_rep(2.0), point(), Representation.trivial(0)),
        (circle(), diag_rep(2.0), circle(), diag_rep(3.0)),
        (circle(), diag_rep(2.0), circle(), conjugated_diag(3.0, g0)),
        (wedge_of_circles(2), diag_rep(2.0, 3.0), circle(), diag_rep(5.0)),
    ]
    for m1, r1, m2, r2 in models:
        pair = analyze_disk_sum(m1, r1, m2, r2)
        report = verify_mv_identity(pair)
        assert report.passed, (m1.name, m2.name, report.residual)
        assert report.residual <= 1e-9
        for _ in range(3):
            assert drawn_residual(pair, rng) == pytest.approx(report.residual, rel=0,
                                                              abs=1e-12)


def test_mv_identity_draws_nothing_at_random(monkeypatch):
    pair = analyze_disk_sum(circle(), diag_rep(2.0), circle(), diag_rep(3.0))
    a = verify_mv_identity(pair)

    def no_rng(*args, **kwargs):
        raise AssertionError("verify_mv_identity drew a random number")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    b = verify_mv_identity(pair)
    assert type(a.residual) is float
    assert a == b


# ---------------------------------------------------------------------------
# multiplicativity
# ---------------------------------------------------------------------------

def test_multiplicativity_point_point():
    report = verify_multiplicativity([point(), point()],
                                     [Representation.trivial(0)] * 2)
    assert report.passed
    assert report.total_torsion == pytest.approx(1.0)
    assert report.product == pytest.approx(1.0)


def test_multiplicativity_two_circles():
    report = verify_multiplicativity(
        [circle(), circle()], [diag_rep(2.0), diag_rep(3.0)])
    assert report.passed
    assert report.relative_error <= 1e-9
    lam, mu = 2.0, 3.0
    circle_moduli = sorted(abs(t) for t in report.factor_torsions)
    expected = sorted([abs((lam ** 2 - 1) * (lam ** -2 - 1)),
                       abs((mu ** 2 - 1) * (mu ** -2 - 1))])
    # transported factor bases differ from the canonical ones only in
    # degree-0/1 rescalings, which cancel between the two factors; the
    # product is pinned even though each factor modulus may move
    assert report.product == pytest.approx(report.total_torsion, rel=1e-9)
    assert len(circle_moduli) == len(expected)


def test_multiplicativity_three_factors():
    report = verify_multiplicativity(
        [circle(), circle(), circle()],
        [diag_rep(2.0), diag_rep(3.0), diag_rep(5.0)])
    assert report.passed
    assert report.relative_error <= 1e-9
    assert len(report.steps) == 2
    for step in report.steps:
        assert abs(step.corrective - 1.0) <= 1e-9
        assert step.disk_torsion == pytest.approx(1.0)
        assert step.relative_error <= 1e-9


def test_multiplicativity_with_wedge_factor():
    report = verify_multiplicativity(
        [wedge_of_circles(2), circle()],
        [diag_rep(2.0, 3.0), diag_rep(5.0)])
    assert report.passed


def test_multiplicativity_mixed_trivial():
    report = verify_multiplicativity(
        [circle(), circle()], [Representation.trivial(1), diag_rep(2.0)])
    assert report.passed


def test_multiplicativity_eight_circles_with_distinct_eigenvalues():
    # each unfold step rescales the right factor's degree-0 basis; the
    # dependence check of build_splitting must not read a scale as
    # dependence
    report = verify_multiplicativity(
        [circle() for _ in range(8)], [diag_rep(float(lam)) for lam in range(2, 10)])
    assert report.passed


def test_multiplicativity_twelve_circles_with_distinct_eigenvalues():
    report = verify_multiplicativity(
        [circle() for _ in range(12)], [diag_rep(float(lam)) for lam in range(2, 14)])
    assert report.passed


def assert_exact_chain(report, factors):
    assert report.passed
    assert len(report.steps) == factors - 1
    assert report.relative_error <= 1e-12
    assert all(step.relative_error <= 1e-12 for step in report.steps)


@pytest.mark.parametrize("lams", [[2.0] * 40, list(range(2, 42))],
                         ids=["shared", "distinct"])
def test_multiplicativity_forty_circles(lams):
    # each step's scale lands on the right factor, and the basis of the
    # partial sum travels as a determinant that never enters a sequence
    report = verify_multiplicativity([circle() for _ in lams],
                                     [diag_rep(float(lam)) for lam in lams])
    assert_exact_chain(report, 40)


def test_multiplicativity_hundred_twenty_circles_keep_factor_scales():
    # a step's scale lands on its right factor, so none compounds onto
    # factor 0: every transported factor torsion stays of order one, where
    # a scale carried by the partial sum underflows before 120 factors
    lams = range(2, 122)
    report = verify_multiplicativity([circle() for _ in lams],
                                     [diag_rep(float(lam)) for lam in lams])
    assert report.passed
    assert len(report.steps) == 119
    moduli = np.abs(report.factor_torsions)
    assert moduli.min() >= 1.0 and moduli.max() <= 5.0, (moduli.min(), moduli.max())


def test_multiplicativity_sixteen_generic_wedges_of_three_circles():
    rng = np.random.default_rng(7)
    reps = [Representation.from_images([random_sl2(rng) for _ in range(3)])
            for _ in range(16)]
    report = verify_multiplicativity([wedge_of_circles(3) for _ in range(16)], reps)
    assert_exact_chain(report, 16)


def test_multiplicativity_with_sphere_factors():
    # the first partial sum of the second chain has no 1-cells
    for names in ("sphere circle sphere torus", "sphere sphere circle torus"):
        models = {"sphere": (sphere(), Representation.trivial(0)),
                  "circle": (circle(), diag_rep(2.0)),
                  "torus": (torus(), diag_rep(2.0, 3.0))}
        factors, reps = zip(*(models[name] for name in names.split()))
        assert_exact_chain(verify_multiplicativity(list(factors), list(reps)), 4)


def test_multiplicativity_requires_two_factors():
    with pytest.raises(DiskSumError):
        verify_multiplicativity([circle()], [diag_rep(2.0)])


def test_multiplicativity_given_total_bases(rng):
    pair = analyze_disk_sum(circle(), diag_rep(2.0), circle(), diag_rep(3.0))
    mix0 = rng.normal(size=(1, 1)) + 1j * rng.normal(size=(1, 1)) + 2 * np.eye(1)
    mix1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) + 3 * np.eye(4)
    h_m = [pair.hdm.h_basis[0] @ mix0, pair.hdm.h_basis[1] @ mix1]
    report = verify_multiplicativity(
        [circle(), circle()], [diag_rep(2.0), diag_rep(3.0)], h_m=h_m)
    assert report.passed
    direct = torsion_of(pair.tcm, pair.hdm, h_m).value
    assert report.total_torsion == pytest.approx(direct, rel=1e-9)


def test_multiplicativity_given_total_bases_in_degrees_one_and_two():
    # torus # bouquet # wedge_2: the change of basis of H(M) spans degrees 1
    # and 2, and enters the top step's corrective term as one scalar,
    # det(C_1) / det(C_2), which only the top step's right factor absorbs
    factors = [torus(), bouquet(), wedge_of_circles(2)]
    reps = [diag_rep(2.0, 3.0), diag_rep(2.5), diag_rep(3.0, 1.5)]
    pairs = list(glue._glued_chain(factors, reps, DEFAULT_TOL))
    top = pairs[-1]
    assert top.hdm.betti == [1, 11, 4, 3]
    rng = np.random.default_rng(5)
    mixes = [np.eye(k, dtype=complex) for k in top.hdm.betti]
    for p in (1, 2):
        k = top.hdm.betti[p]
        mixes[p] = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)) + 3 * np.eye(k)
    h_m = [h @ mix for h, mix in zip(top.hdm.h_basis, mixes)]
    report = verify_multiplicativity(factors, reps, h_m=h_m)
    canonical = verify_multiplicativity(factors, reps)
    assert report.total_torsion == torsion_of(top.tcm, top.hdm, h_m).value
    assert report.passed
    assert report.relative_error <= 1e-12
    assert all(step.relative_error <= 1e-12 for step in report.steps)
    # factor 0 keeps its canonical torsion, and the factors below the top
    # step keep the torsions of the chain in canonical bases
    assert report.factor_torsions[0] == torsion_of(pairs[0].tc1, pairs[0].hd1).value
    assert report.factor_torsions[:-1] == canonical.factor_torsions[:-1]
    # the last factor absorbs kappa = det(C_1) / det(C_2) times the
    # sequence's torsion in canonical bases, on H_0 of wedge_2
    kappa = (mv_sequence(top).canonical.value
             * np.linalg.det(mixes[1]) / np.linalg.det(mixes[2]))
    expected = torsion_of(top.tc2, top.hd2).value / kappa
    assert abs(report.factor_torsions[-1] - expected) <= 1e-12 * abs(expected)


# ---------------------------------------------------------------------------
# higher-dimensional factors
# ---------------------------------------------------------------------------

def test_glue_two_dimensional_factor():
    from conftest import torus
    pair = analyze_disk_sum(torus(), diag_rep(2.0, 3.0), circle(), diag_rep(5.0))
    assert pair.tcm.dims == [3, 9, 3]
    seq = mv_sequence(pair)
    assert seq.dims[6] == pair.hdm.betti[2] > 0  # degree-2 spaces populated
    outcome = verify_mv_identity(pair)
    assert outcome.residual <= 1e-9
    report = verify_multiplicativity([torus(), circle()],
                                     [diag_rep(2.0, 3.0), diag_rep(5.0)])
    assert report.passed and report.relative_error <= 1e-9


def test_glue_three_dimensional_factor_fills_every_level():
    from conftest import bouquet, torus
    pair = analyze_disk_sum(bouquet(), diag_rep(2.0), torus(), diag_rep(3.0, 5.0))
    seq = mv_sequence(pair)
    # every degree of the sequence carries nonzero spaces
    for p in (0, 1, 3, 4, 6, 7, 9, 10):
        assert seq.dims[p] > 0, (p, seq.dims)
    outcome = verify_mv_identity(pair)
    assert outcome.residual <= 1e-9
    report = verify_multiplicativity([bouquet(), torus()],
                                     [diag_rep(2.0), diag_rep(3.0, 5.0)])
    assert report.passed and report.relative_error <= 1e-9


def test_transport_per_degree_determinants_clean_regime():
    # when the disk inclusion injects, every per-space transition
    # determinant of the transported corrective term is itself 1
    pair = analyze_disk_sum(point(), Representation.trivial(0),
                            point(), Representation.trivial(0))
    seq = mv_sequence(pair)
    step = verify_multiplicativity([point(), point()],
                                   [Representation.trivial(0)] * 2).steps[0]
    p, det = assigned_determinant(pair, step)
    transported = rescaled(seq.canonical, [None] * (3 * p + 1) + [det], -1)
    for q, det in enumerate(transported.per_degree_determinants):
        assert det == pytest.approx(1.0, abs=1e-9), (q, det)


# ---------------------------------------------------------------------------
# the glued complex placed from its factors' blocks
# ---------------------------------------------------------------------------

def gluing_models():
    rng = np.random.default_rng(21)
    psl = Representation(Target.PSL, 2, (random_sl2(rng),))
    return [
        (point(), Representation.trivial(0)),
        (circle(), diag_rep(2.0)),
        (circle(), Representation.from_images([random_sl2(rng)])),
        (circle(), psl),
        (wedge_of_circles(2), Representation.from_images([random_sl2(rng),
                                                          random_sl2(rng)])),
        (wedge_of_circles(3), Representation.from_images([random_sl2(rng)
                                                          for _ in range(3)])),
        (torus(), diag_rep(2.0, 3.0)),
        (bouquet(), diag_rep(2.5)),
    ]


def assert_twist_of_total(tc, total, rep):
    reference = twist(total, rep, orthonormal_sl2_basis())
    assert tc.d == reference.d and tc.dims == reference.dims
    assert len(tc.mats) == len(reference.mats)
    for placed, twisted in zip(tc.mats, reference.mats):
        assert placed.dtype == twisted.dtype
        assert np.array_equal(placed, twisted)


def test_placed_complex_is_the_twist_of_the_glued_data():
    models = gluing_models()
    for m1, r1 in models:
        for m2, r2 in models:
            if r1.target != r2.target:
                continue
            pair = analyze_disk_sum(m1, r1, m2, r2)
            total, rep = glued_data(m1, r1, m2, r2)
            assert_twist_of_total(pair.tcm, total, rep)
            # the pairwise reference of tests/test_place_once.py places the same
            assert_twist_of_total(placed_complex(disk_sum(m1, m2), pair.tc1, pair.tc2),
                                  total, rep)


def test_placed_complex_on_every_partial_sum_of_a_chain(monkeypatch):
    rng = np.random.default_rng(22)
    factors = [circle(), wedge_of_circles(2), torus(), bouquet()]
    reps = [Representation.from_images([random_sl2(rng)]),
            Representation.from_images([random_sl2(rng), random_sl2(rng)]),
            diag_rep(2.0, 3.0), diag_rep(2.5)]
    pairs = []
    original = glue._glued_chain

    def recording(*args):
        for pair in original(*args):
            pairs.append(pair)
            yield pair

    monkeypatch.setattr(glue, "_glued_chain", recording)
    # with generic images the factor product can come out as minus the
    # total (a known sign defect); only the placement is checked here
    verify_multiplicativity(factors, reps)
    assert len(pairs) == len(factors) - 1
    total = factors[0]
    for k, pair in enumerate(pairs, start=1):
        total = disk_sum(total, factors[k]).total
        images = [img for rep in reps[:k + 1] for img in rep.images]
        assert_twist_of_total(pair.tcm, total, Representation.from_images(images))


# ---------------------------------------------------------------------------
# the gluing maps as cell placement
# ---------------------------------------------------------------------------

def dense_inclusion_maps(pair, tol=DEFAULT_TOL):
    """The maps of ``mv_sequence(pair)``, with the gluing as dense matrices.

    beta = j1 + j2 is a 0/1 matrix applied to the block-diagonal factor
    bases, and a cycle of M is lifted through it by a least-squares
    solve; alpha is (v, -v) on the shared 0-cell, with orthogonal columns
    of squared norm 2, and the pull-back along it is alpha^H / 2.
    """
    tc1, tc2, tcm = pair.tc1, pair.tc2, pair.tcm
    d = tcm.d
    maps1, maps2 = pair.cell_maps

    def inclusion(cell_map, rows):
        out = np.zeros((rows, len(cell_map) * d), dtype=complex)
        coords = (np.asarray(cell_map, dtype=int)[:, None] * d + np.arange(d)).ravel()
        out[coords, np.arange(len(cell_map) * d)] = 1.0
        return out

    def block_diagonal(a, b):
        out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=complex)
        out[:a.shape[0], :a.shape[1]] = a
        out[a.shape[0]:, a.shape[1]:] = b
        return out

    beta = [np.hstack([inclusion(maps1[p], n), inclusion(maps2[p], n)])
            for p, n in enumerate(tcm.dims)]
    alpha = np.zeros((tc1.dims[0] + tc2.dims[0], d), dtype=complex)
    base1 = maps1[0].index(0) * d
    base2 = tc1.dims[0] + maps2[0].index(0) * d
    alpha[base1:base1 + d] = np.eye(d)
    alpha[base2:base2 + d] = -np.eye(d)

    degrees = tcm.dimension + 1
    b1, b2, bm, bd = (glue._padded(hd.h_basis, degrees)
                      for hd in (pair.hd1, pair.hd2, pair.hdm, pair.hdd))
    dims = []
    for p in range(degrees):
        dims += [bm[p].shape[1], b1[p].shape[1] + b2[p].shape[1], bd[p].shape[1]]
    # maps[q - 1] maps space q into space q - 1
    maps = []
    for p in range(degrees):
        q = 3 * p
        mat = np.zeros((dims[q], dims[q + 1]), dtype=complex)
        if dims[q] and dims[q + 1]:
            images = beta[p] @ block_diagonal(b1[p], b2[p])
            mat = glue._class_coordinates(images, bm[p], pair.hdm.boundary_basis[p])
        maps.append(mat)
        mat = np.zeros((dims[q + 1], dims[q + 2]), dtype=complex)
        if dims[q + 2]:
            images = alpha @ bd[p]
            mat = np.vstack([
                glue._class_coordinates(images[:tc1.dims[0]], b1[0],
                                        pair.hd1.boundary_basis[0]),
                glue._class_coordinates(images[tc1.dims[0]:], b2[0],
                                        pair.hd2.boundary_basis[0])])
        maps.append(mat)
        if p + 1 < degrees:
            mat = np.zeros((dims[q + 2], dims[q + 3]), dtype=complex)
            if dims[q + 3] and dims[q + 2]:
                lift, *_ = np.linalg.lstsq(beta[p + 1], bm[p + 1], rcond=tol)
                assert relative_defect(beta[p + 1] @ lift - bm[p + 1], bm[p + 1]) <= DEFECT_TOL
                bdry = block_diagonal(tc1.boundary(p + 1), tc2.boundary(p + 1)) @ lift
                pulled = alpha.conj().T @ bdry / 2
                assert relative_defect(alpha @ pulled - bdry, bdry) <= DEFECT_TOL
                mat = glue._class_coordinates(pulled, bd[p], pair.hdd.boundary_basis[p])
            maps.append(mat)
    return maps


def test_placed_gluing_maps_equal_the_dense_inclusion_maps():
    # point, circle, generic wedge_2, generic wedge_3, torus and bouquet
    models = gluing_models()
    models = models[:2] + models[4:]
    for m1, r1 in models:
        for m2, r2 in models:
            pair = analyze_disk_sum(m1, r1, m2, r2)
            seq = mv_sequence(pair)
            reference = dense_inclusion_maps(pair)
            assert len(seq.mats) == len(reference) == 3 * (pair.tcm.dimension + 1) - 1
            for q, (placed, dense) in enumerate(zip(seq.mats, reference), start=1):
                assert placed.shape == dense.shape, (m1.name, m2.name, q)
                assert placed.dtype == dense.dtype
                assert np.array_equal(placed, dense), (m1.name, m2.name, q)
