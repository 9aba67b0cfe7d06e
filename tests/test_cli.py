import importlib.util
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from torsionworks.algebra import Representation, Target
from torsionworks.cli import main
from torsionworks.errors import TorsionworksError
from torsionworks.glue import analyze_disk_sum, verify_mv_identity
from torsionworks.scenes import circle, point, scene_text, wedge_of_circles

from conftest import diag_rep, random_sl2


@pytest.fixture
def scene_dir(tmp_path):
    paths = {}

    def write(name, cw, rep, **kwargs):
        path = tmp_path / f"{name}.json"
        path.write_text(scene_text(cw, rep, **kwargs))
        paths[name] = str(path)

    write("point", point(), Representation.trivial(0))
    write("circle2", circle(), diag_rep(2.0))
    write("circle3", circle(), diag_rep(3.0))
    write("circle5", circle(), diag_rep(5.0))
    write("wedge2", wedge_of_circles(2), diag_rep(2.0, 3.0))
    psl = Representation(Target.PSL, 2, (np.diag([3.0, 1 / 3.0]).astype(complex),))
    write("circle3_psl", circle(), psl)
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# torsion subcommand
# ---------------------------------------------------------------------------

def test_torsion_point_scene(scene_dir, capsys):
    code, out, _ = run_cli(capsys, "torsion", scene_dir["point"], "--json")
    assert code == 0
    report = json.loads(out)
    assert report["betti"] == [3]
    assert report["torsion"] == [1.0, 0.0]


def test_torsion_circle_modulus(scene_dir, capsys):
    code, out, _ = run_cli(capsys, "torsion", scene_dir["circle2"], "--json")
    assert code == 0
    report = json.loads(out)
    assert report["betti"] == [1, 1]
    assert report["torsion_modulus"] == pytest.approx(9 / 4, abs=1e-9)


def test_torsion_unreadable_path(capsys):
    code, out, err = run_cli(capsys, "torsion", "/nonexistent/scene.json")
    assert code == 1
    assert "error" in err


def test_torsion_h_basis_file_mode(scene_dir, tmp_path, capsys):
    from torsionworks.complexes import homology, twist
    from torsionworks.algebra import orthonormal_sl2_basis
    cw, rep = circle(), diag_rep(2.0)
    hd = homology(twist(cw, rep, orthonormal_sl2_basis()))
    scaled = {0: 2.0 * hd.h_basis[0], 1: hd.h_basis[1]}
    path = tmp_path / "withh.json"
    path.write_text(scene_text(cw, rep, h_bases=scaled))
    code, out, _ = run_cli(capsys, "torsion", str(path),
                           "--h-basis-mode", "file", "--json")
    assert code == 0
    report = json.loads(out)
    # doubling the degree-0 class doubles the torsion modulus
    assert report["torsion_modulus"] == pytest.approx(2 * 9 / 4, abs=1e-8)


def test_torsion_file_mode_requires_bases(scene_dir, capsys):
    code, _, err = run_cli(capsys, "torsion", scene_dir["circle2"],
                           "--h-basis-mode", "file")
    assert code == 1
    assert "h_bases" in err


def test_torsion_file_mode_omitting_a_degree_is_an_input_error(tmp_path, capsys):
    from torsionworks.complexes import homology, twist
    from torsionworks.algebra import orthonormal_sl2_basis
    cw, rep = circle(), diag_rep(2.0)
    hd = homology(twist(cw, rep, orthonormal_sl2_basis()))
    path = tmp_path / "degree0_only.json"
    path.write_text(scene_text(cw, rep, h_bases={0: hd.h_basis[0]}))
    code, out, err = run_cli(capsys, "torsion", str(path), "--h-basis-mode", "file")
    assert code == 1
    assert out == ""
    assert "degree 1" in err


def test_torsion_rank_ambiguity_exit_code(tmp_path, capsys):
    # second generator nearly central but tilted out of the first one's
    # eigenplane: the boundary map gets a singular value right at the cutoff
    lam = 1.0 + 1e-8
    tilt = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    rep = Representation.from_images([
        np.diag([2.0, 0.5]).astype(complex),
        tilt @ np.diag([lam, 1.0 / lam]) @ np.linalg.inv(tilt),
    ])
    path = tmp_path / "ambiguous.json"
    path.write_text(scene_text(wedge_of_circles(2), rep))
    code, _, err = run_cli(capsys, "torsion", str(path))
    assert code == 2
    assert "ambiguity" in err


# a numpy RuntimeWarning, which the shell would print to stderr ahead of
# the error line, fails the test instead of being collected by pytest
@pytest.mark.filterwarnings("error")
def test_torsion_of_an_overflowing_twist_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "overflow.json"
    path.write_text(scene_text(circle(), diag_rep(1e160)))
    code, out, err = run_cli(capsys, "torsion", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: twist: boundary map 1 (degree 1 to 0) has non-finite entries\n"


def test_torsion_deterministic_output(scene_dir, capsys):
    _, first, _ = run_cli(capsys, "torsion", scene_dir["circle2"], "--seed", "0")
    _, second, _ = run_cli(capsys, "torsion", scene_dir["circle2"], "--seed", "0")
    assert first == second


def test_tolerance_env_override(scene_dir, capsys, monkeypatch):
    monkeypatch.setenv("TORSIONWORKS_TOL", "1e-7")
    code, out, _ = run_cli(capsys, "torsion", scene_dir["circle2"], "--json")
    assert code == 0
    assert json.loads(out)["tolerance"] == 1e-7
    monkeypatch.setenv("TORSIONWORKS_TOL", "not-a-number")
    code, _, err = run_cli(capsys, "torsion", scene_dir["circle2"])
    assert code == 1


def test_scene_tolerance_sets_the_rank_tolerance(scene_dir, tmp_path, capsys, monkeypatch):
    path = tmp_path / "circle2_tol.json"
    path.write_text(scene_text(circle(), diag_rep(2.0), tolerance=1e-7))
    monkeypatch.setenv("TORSIONWORKS_TOL", "1e-9")
    code, out, _ = run_cli(capsys, "torsion", str(path), "--json")
    assert code == 0
    assert json.loads(out)["tolerance"] == 1e-7
    code, out, _ = run_cli(capsys, "verify-mv", scene_dir["circle3"], str(path), "--json")
    assert code == 0
    assert json.loads(out)["tolerance"] == 1e-7
    code, out, _ = run_cli(capsys, "torsion", scene_dir["circle3"], "--json")
    assert json.loads(out)["tolerance"] == 1e-9


def test_tol_flag_beats_scene_tolerance(tmp_path, capsys):
    path = tmp_path / "circle2_tol.json"
    path.write_text(scene_text(circle(), diag_rep(2.0), tolerance=1e-7))
    code, out, _ = run_cli(capsys, "torsion", str(path), "--json", "--tol", "1e-10")
    assert code == 0
    assert json.loads(out)["tolerance"] == 1e-10


def test_scenes_with_different_tolerances_are_rejected(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(scene_text(circle(), diag_rep(2.0), tolerance=1e-7))
    b.write_text(scene_text(circle(), diag_rep(3.0), tolerance=1e-9))
    code, out, err = run_cli(capsys, "verify-theorem1", str(a), str(b), "--json")
    assert code == 1
    assert out == ""
    assert str(a) in err and str(b) in err


# each malformed variant of the circle scene at diag(2, 1/2): key, value
MALFORMED = {
    "h_bases_as_a_list": ("h_bases", [[[1.0, 0.0]] * 3]),
    "ragged_h_bases": ("h_bases", {"0": [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]]}),
    "non_numeric_h_bases": ("h_bases", {"0": [[["x", 0.0]] * 3]}),
    "non_numeric_images": ("images", [[["a", "b"], ["c", "d"]]]),
    "relator_not_a_string": ("relators", [5]),
    "1x1_image": ("images", [[[[1.0, 0.0]]]]),
    "3x3_image": ("images", [[[[float(i == j), 0.0] for j in range(3)] for i in range(3)]]),
    "image_whose_determinant_is_nan": (
        "images", [[[[1.7e308, 0.0], [1.7e308, 0.0]], [[1.7e308, 0.0], [-1.7e308, 0.0]]]]),
    "boolean_generators": ("generators", True),
    "boolean_cell_count": ("cells", [1, True]),
    "boolean_tolerance": ("tolerance", True),
    "tolerance_beyond_the_float_range": ("tolerance", 10 ** 400),
    "h_bases_degree_above_the_complex": ("h_bases", {"5": [[[1.0, 0.0]] * 3]}),
    "negative_h_bases_degree": ("h_bases", {"-1": [[[1.0, 0.0]] * 3]}),
    "h_bases_degree_spelt_with_a_leading_zero": ("h_bases", {"00": [[[1.0, 0.0]] * 3]}),
}


@pytest.mark.parametrize("key, value", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_scene_is_an_input_error(tmp_path, capsys, key, value):
    doc = json.loads(scene_text(circle(), diag_rep(2.0)))
    doc[key] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    for mode in ("canonical", "file"):
        code, out, err = run_cli(capsys, "torsion", str(path), "--h-basis-mode", mode)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


# each numeric flag outside its range: flag, value
BAD_FLAGS = {
    "zero_tol": ("--tol", "0"),
    "negative_tol": ("--tol", "-1e-8"),
    "infinite_tol": ("--tol", "inf"),
    "tol_beyond_the_float_range": ("--tol", "1e400"),
    "nan_tol": ("--tol", "nan"),
    "zero_pass_tol": ("--pass-tol", "0"),
    "infinite_pass_tol": ("--pass-tol", "inf"),
    "nan_pass_tol": ("--pass-tol", "nan"),
}


@pytest.mark.parametrize("flag, value", BAD_FLAGS.values(), ids=BAD_FLAGS.keys())
def test_tolerance_flags_must_be_positive_finite(scene_dir, capsys, flag, value):
    wedge = scene_dir["wedge2"]
    for argv in (["torsion", wedge], ["verify-mv", wedge, wedge],
                 ["verify-theorem1", wedge, wedge]):
        code, out, err = run_cli(capsys, *argv, f"{flag}={value}")
        assert code == 1, argv
        assert out == ""
        assert err == f"error: {flag} must be a positive finite number, got {float(value):g}\n"


@pytest.mark.parametrize("value", ["0", "-1e-8", "inf", "nan"])
def test_tolerance_env_must_be_positive_finite(scene_dir, capsys, monkeypatch, value):
    monkeypatch.setenv("TORSIONWORKS_TOL", value)
    code, out, err = run_cli(capsys, "torsion", scene_dir["wedge2"])
    assert code == 1
    assert out == ""
    assert err == ("error: TORSIONWORKS_TOL must be a positive finite number, "
                   f"got {float(value):g}\n")


@pytest.mark.parametrize("draws", ["0", "-3"])
def test_verify_mv_needs_a_random_basis(scene_dir, capsys, draws):
    wedge = scene_dir["wedge2"]
    code, out, err = run_cli(capsys, "verify-mv", wedge, wedge, "--random-bases", draws)
    assert code == 1
    assert out == ""
    assert err == f"error: --random-bases must be at least 1, got {draws}\n"
    pair = analyze_disk_sum(wedge_of_circles(2), diag_rep(2.0, 3.0),
                            wedge_of_circles(2), diag_rep(2.0, 3.0))
    with pytest.raises(TorsionworksError, match="at least one draw"):
        verify_mv_identity(pair, draws=int(draws))


# ---------------------------------------------------------------------------
# verify-mv subcommand
# ---------------------------------------------------------------------------

def test_verify_mv_sequence_has_three_spaces_per_degree(scene_dir, capsys):
    # two wedges glue to a 1-dimensional complex: 3 * (1 + 1) spaces
    code, out, _ = run_cli(capsys, "verify-mv", scene_dir["wedge2"], scene_dir["wedge2"],
                           "--random-bases", "2", "--json")
    assert code == 0
    dims = json.loads(out)["sequence_dims"]
    assert len(dims) == 6
    assert sum((-1) ** q * n for q, n in enumerate(dims)) == 0


def test_verify_mv_points(scene_dir, capsys):
    code, out, _ = run_cli(capsys, "verify-mv", scene_dir["point"],
                           scene_dir["point"], "--random-bases", "5", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["max_residual"] <= 1e-9
    assert report["degree0_dimensions"] == {
        "n0_m1": 3, "n0_m2": 3, "n0_m": 3, "n0_disk": 3}


def test_verify_mv_circles(scene_dir, capsys):
    code, out, _ = run_cli(capsys, "verify-mv", scene_dir["circle2"],
                           scene_dir["circle3"], "--random-bases", "10", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["max_residual"] <= 1e-6


def test_verify_mv_target_mismatch(scene_dir, capsys):
    code, _, err = run_cli(capsys, "verify-mv", scene_dir["circle2"],
                           scene_dir["circle3_psl"])
    assert code == 1
    assert "target" in err


@pytest.mark.parametrize("command", ["verify-mv", "verify-theorem1"])
def test_target_mismatch_is_reported_by_the_gluing(scene_dir, capsys, command):
    # the disk sum's free product of representations names both targets
    for first, second, names in (("circle2", "circle3_psl", "SL vs PSL"),
                                 ("circle3_psl", "circle2", "PSL vs SL")):
        code, out, err = run_cli(capsys, command, scene_dir[first], scene_dir[second])
        assert code == 1
        assert out == ""
        assert err == f"error: target mismatch: {names}\n"


def test_verify_mv_seeded_determinism(scene_dir, capsys):
    args = ("verify-mv", scene_dir["circle2"], scene_dir["circle3"],
            "--random-bases", "3", "--seed", "7")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


# ---------------------------------------------------------------------------
# verify-theorem1 subcommand
# ---------------------------------------------------------------------------

def test_verify_theorem1_points(scene_dir, capsys):
    code, out, _ = run_cli(capsys, "verify-theorem1", scene_dir["point"],
                           scene_dir["point"], "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["total_torsion"] == [1.0, 0.0]
    assert report["factor_product"] == [1.0, 0.0]


def test_verify_theorem1_three_circles(scene_dir, capsys):
    code, out, _ = run_cli(capsys, "verify-theorem1", scene_dir["circle2"],
                           scene_dir["circle3"], scene_dir["circle5"], "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["relative_error"] <= 1e-6
    assert len(report["steps"]) == 2
    for step in report["steps"]:
        assert step["disk_torsion"] == [1.0, 0.0]


def test_verify_theorem1_single_scene_usage_error(scene_dir, capsys):
    code, _, err = run_cli(capsys, "verify-theorem1", scene_dir["circle2"])
    assert code == 1
    assert "two scenes" in err


def test_verify_theorem1_text_report_stable_keys(scene_dir, capsys):
    code, out, _ = run_cli(capsys, "verify-theorem1", scene_dir["circle2"],
                           scene_dir["circle3"])
    assert code == 0
    keys = [line.split(":")[0] for line in out.splitlines() if not line.startswith(" ")]
    assert keys[:5] == ["command", "scenes", "sha256", "seed", "tolerance"]
    assert keys[-1] == "verdict"


def test_verify_theorem1_psl_scenes(scene_dir, tmp_path, capsys):
    psl2 = Representation(Target.PSL, 2, (np.diag([2.0, 0.5]).astype(complex),))
    psl5 = Representation(Target.PSL, 2, (np.diag([5.0, 0.2]).astype(complex),))
    p1 = tmp_path / "psl_a.json"
    p2 = tmp_path / "psl_b.json"
    p1.write_text(scene_text(circle(), psl2))
    p2.write_text(scene_text(circle(), psl5))
    code, out, _ = run_cli(capsys, "verify-theorem1", str(p1), str(p2), "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_verify_theorem1_h_from_file(scene_dir, tmp_path, capsys):
    from torsionworks.glue import analyze_disk_sum
    pair = analyze_disk_sum(circle(), diag_rep(2.0), circle(), diag_rep(3.0))
    h_bases = {p: 1.5 * pair.hdm.h_basis[p] for p in range(2)}
    h_path = tmp_path / "total_with_h.json"
    h_path.write_text(scene_text(pair.ds.total, pair.rep, h_bases=h_bases))
    code, out, _ = run_cli(capsys, "verify-theorem1", scene_dir["circle2"],
                           scene_dir["circle3"], "--h-from", "file",
                           "--h-file", str(h_path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["h_from"] == "file"


def test_h_file_tolerance_is_not_consulted(scene_dir, tmp_path, capsys):
    from torsionworks.glue import analyze_disk_sum
    pair = analyze_disk_sum(circle(), diag_rep(2.0), circle(), diag_rep(3.0))
    h_path = tmp_path / "total_with_h.json"
    h_path.write_text(scene_text(pair.ds.total, pair.rep, tolerance=1e-7,
                                 h_bases={p: pair.hdm.h_basis[p] for p in range(2)}))
    code, out, _ = run_cli(capsys, "verify-theorem1", scene_dir["circle2"],
                           scene_dir["circle3"], "--h-from", "file",
                           "--h-file", str(h_path), "--json")
    assert code == 0
    assert json.loads(out)["tolerance"] == 1e-8


def test_verify_theorem1_h_from_file_requires_path(scene_dir, capsys):
    code, _, err = run_cli(capsys, "verify-theorem1", scene_dir["circle2"],
                           scene_dir["circle3"], "--h-from", "file")
    assert code == 1
    assert "h-file" in err


def test_h_file_skipping_a_degree_is_an_input_error(scene_dir, tmp_path, capsys):
    from torsionworks.glue import analyze_disk_sum
    pair = analyze_disk_sum(circle(), diag_rep(2.0), circle(), diag_rep(3.0))
    h_path = tmp_path / "total_degree1_only.json"
    h_path.write_text(scene_text(pair.ds.total, pair.rep,
                                 h_bases={1: pair.hdm.h_basis[1]}))
    code, out, err = run_cli(capsys, "verify-theorem1", scene_dir["circle2"],
                             scene_dir["circle3"], "--h-from", "file",
                             "--h-file", str(h_path))
    assert code == 1
    assert out == ""
    assert "degree 0" in err and str(h_path) in err


def test_h_file_above_the_glued_dimension_is_an_input_error(scene_dir, tmp_path, capsys):
    # a 2-dimensional h-file scene can name degree-2 classes, which two
    # glued circles do not have
    from conftest import torus
    pair = analyze_disk_sum(circle(), diag_rep(2.0), circle(), diag_rep(3.0))
    h_bases = {p: pair.hdm.h_basis[p] for p in range(2)}
    h_bases[2] = np.ones((3, 1), dtype=complex)
    h_path = tmp_path / "torus_with_degree2.json"
    h_path.write_text(scene_text(torus(), diag_rep(2.0, 3.0), h_bases=h_bases))
    code, out, err = run_cli(capsys, "verify-theorem1", scene_dir["circle2"],
                             scene_dir["circle3"], "--h-from", "file",
                             "--h-file", str(h_path))
    assert code == 1
    assert out == ""
    assert err == "error: degree 2: homology vectors supplied above the top degree 1\n"


def test_h_file_with_an_empty_degree_matches_canonical(tmp_path, capsys):
    from torsionworks.glue import analyze_disk_sum
    rng = np.random.default_rng(31)
    wedge_rep = Representation.from_images([random_sl2(rng), random_sl2(rng)])
    circle_rep = Representation.from_images([random_sl2(rng)])
    pair = analyze_disk_sum(wedge_of_circles(2), wedge_rep, circle(), circle_rep)
    assert pair.hdm.betti[0] == 0
    paths = []
    for name, cw, rep in (("wedge", wedge_of_circles(2), wedge_rep),
                          ("circle", circle(), circle_rep)):
        path = tmp_path / f"{name}.json"
        path.write_text(scene_text(cw, rep))
        paths.append(str(path))
    h_path = tmp_path / "total_with_h.json"
    h_path.write_text(scene_text(pair.ds.total, pair.rep,
                                 h_bases={p: pair.hdm.h_basis[p] for p in range(2)}))
    reports = []
    for extra in (["--h-from", "canonical"], ["--h-from", "file", "--h-file", str(h_path)]):
        code, out, _ = run_cli(capsys, "verify-theorem1", *paths, "--json", *extra)
        reports.append((code, json.loads(out)))
    (code0, canonical), (code1, from_file) = reports
    assert code0 == code1
    assert from_file["total_torsion"] == canonical["total_torsion"]
    assert from_file["verdict"] == canonical["verdict"]


def test_report_matrix_exit_codes(monkeypatch):
    # every command of tools/report_matrix.py over scenes/, in process:
    # the four file-mode torsion runs lack h_bases, everything else passes
    root = Path(__file__).resolve().parent.parent
    # importing the script sets BLAS thread variables and prepends src/
    # to sys.path; both are restored after the test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "report_matrix", root / "tools" / "report_matrix.py")
    report_matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report_matrix)
    monkeypatch.chdir(root)
    scenes = sorted(f"scenes/{p.name}" for p in (root / "scenes").glob("*.json"))
    outcomes = [(argv, *report_matrix.run(argv)) for argv in report_matrix.commands(scenes)]
    assert len(outcomes) == 148
    file_mode = [o for o in outcomes if "--h-basis-mode" in o[0]]
    assert len(file_mode) == 4
    for argv, code, _, err in file_mode:
        assert code == 1 and "provides no h_bases" in err, argv
    for argv, code, _, err in outcomes:
        if "--h-basis-mode" not in argv:
            assert code == 0, (argv, err)


def test_verify_theorem1_seed_is_only_recorded(scene_dir, capsys):
    code, out, _ = run_cli(capsys, "verify-theorem1", "--help")
    assert code == 0
    assert "recorded in the report only" in " ".join(out.split())
    reports = []
    for seed in ("0", "7"):
        code, out, _ = run_cli(capsys, "verify-theorem1", scene_dir["circle2"],
                               scene_dir["circle3"], "--json", "--seed", seed)
        assert code == 0
        report = json.loads(out)
        assert report.pop("seed") == int(seed)
        reports.append(report)
    assert reports[0] == reports[1]
