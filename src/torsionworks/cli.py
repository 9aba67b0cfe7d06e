"""Command-line interface.

Subcommands: ``torsion`` (betti numbers and torsion of one scene),
``verify-mv`` (the gluing identity with corrective term, in canonical
bases), ``verify-theorem1`` (multiplicativity over a list of factors
with transported bases).  No subcommand draws anything at random.  The
verifiers record ``--seed``, and ``verify-mv`` its ``--random-bases``,
in the report only: a change of basis leaves the gluing identity's
residual as it is.

Exit codes: 0 success / verification passed, 1 input error or failed
verification, 2 rank ambiguity.  Reports are printed with a stable key
order; ``--json`` emits the same data as JSON.  The rank tolerance is
``--tol``, else the analysed scenes' ``tolerance``, else the environment
variable TORSIONWORKS_TOL, else the default.  Every tolerance, like a
scene's, must be a positive finite number, and ``--random-bases`` at
least 1.  Elapsed time goes to stderr so reports stay byte-identical
across runs.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time

import numpy as np

from .algebra import orthonormal_sl2_basis
from .complexes import homology, twist
from .errors import RankAmbiguityError, SceneError, TorsionworksError
from .glue import analyze_disk_sum, verify_multiplicativity, verify_mv_identity
from .linalg import DEFAULT_TOL, PASS_TOL
from .scenes import parse_scene
from .torsion import torsion_of

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RANK_AMBIGUITY = 2


def _complex_pair(z: complex):
    return [float(z.real), float(z.imag)]


def _render(report: dict, as_json: bool) -> str:
    if as_json:
        return json.dumps(report, indent=2) + "\n"
    lines = []

    def emit(key, value, indent=0):
        pad = "  " * indent
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for k, v in value.items():
                emit(k, v, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for i, v in enumerate(value):
                emit(str(i), v, indent + 1)
        else:
            lines.append(f"{pad}{key}: {json.dumps(value)}")

    for key, value in report.items():
        emit(key, value)
    return "\n".join(lines) + "\n"


def _load_scene(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SceneError(f"cannot read scene {path!r}: {exc}") from exc
    scene = parse_scene(text)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return scene, digest


def _positive_finite(name: str, value: float) -> float:
    """``value``, when it is a positive finite number as a scene's tolerance is."""
    if not 0 < value <= sys.float_info.max:
        raise TorsionworksError(f"{name} must be a positive finite number, got {value:g}")
    return value


def _check_flags(args):
    """Reject a numeric flag outside its range, naming the flag."""
    if args.tol is not None:
        _positive_finite("--tol", args.tol)
    _positive_finite("--pass-tol", args.pass_tol)
    if getattr(args, "random_bases", 1) < 1:
        raise TorsionworksError(f"--random-bases must be at least 1, got {args.random_bases}")


def _tolerance(args, scenes) -> float:
    """``--tol``, else the ``tolerance`` set by the analysed ``(path, scene)``
    pairs (which must agree), else TORSIONWORKS_TOL, else DEFAULT_TOL."""
    if args.tol is not None:
        return args.tol
    named = [(path, s.tolerance) for path, s in scenes if s.tolerance is not None]
    for path, value in named[1:]:
        if value != named[0][1]:
            raise SceneError(f"scenes {named[0][0]!r} and {path!r} set different "
                             f"tolerances {named[0][1]:g} and {value:g}")
    if named:
        return float(named[0][1])
    env = os.environ.get("TORSIONWORKS_TOL")
    if env:
        try:
            value = float(env)
        except ValueError:
            raise SceneError(f"TORSIONWORKS_TOL={env!r} is not a number") from None
        return _positive_finite("TORSIONWORKS_TOL", value)
    return DEFAULT_TOL


def _scene_h_bases(scene, hd, mode: str):
    if mode == "canonical":
        return None
    if not scene.h_bases:
        raise SceneError("scene provides no h_bases but file mode was requested")
    missing = [p for p, k in enumerate(hd.betti) if k and p not in scene.h_bases]
    if missing:
        p = missing[0]
        raise SceneError(f"scene gives no h_bases in degree {p}, where betti is {hd.betti[p]}")
    return [scene.h_bases.get(p) for p in range(len(hd.betti))]


def cmd_torsion(args) -> int:
    scene, digest = _load_scene(args.scene)
    tol = _tolerance(args, [(args.scene, scene)])
    basis = orthonormal_sl2_basis()
    tc = twist(scene.cw, scene.rep, basis, tol)
    hd = homology(tc, tol)
    h_bases = _scene_h_bases(scene, hd, args.h_basis_mode)
    result = torsion_of(tc, hd, h_bases, tol=tol)
    report = {
        "command": "torsion",
        "scene": args.scene,
        "sha256": digest,
        "name": scene.cw.name,
        "tolerance": tol,
        "h_basis_mode": args.h_basis_mode,
        "betti": hd.betti,
        "torsion": _complex_pair(result.value),
        "torsion_modulus": abs(result.value),
        "per_degree_determinants": [_complex_pair(d)
                                    for d in result.per_degree_determinants],
        "status": "ok",
    }
    sys.stdout.write(_render(report, args.json))
    return EXIT_OK


def cmd_verify_mv(args) -> int:
    scene1, digest1 = _load_scene(args.scene1)
    scene2, digest2 = _load_scene(args.scene2)
    tol = _tolerance(args, [(args.scene1, scene1), (args.scene2, scene2)])
    pair = analyze_disk_sum(scene1.cw, scene1.rep, scene2.cw, scene2.rep, tol=tol)
    outcome = verify_mv_identity(pair, tol=tol, pass_tol=args.pass_tol)
    n1, n2, nm, nd = outcome.dimension_tail
    report = {
        "command": "verify-mv",
        "scenes": [args.scene1, args.scene2],
        "sha256": [digest1, digest2],
        "seed": args.seed,
        "tolerance": tol,
        "random_bases": args.random_bases,
        "sequence_dims": outcome.dims,
        "degree0_dimensions": {"n0_m1": n1, "n0_m2": n2, "n0_m": nm, "n0_disk": nd},
        "max_residual": outcome.residual,
        "verdict": "pass" if outcome.passed else "fail",
    }
    sys.stdout.write(_render(report, args.json))
    return EXIT_OK if outcome.passed else EXIT_INPUT


def cmd_verify_theorem1(args) -> int:
    if len(args.scenes) < 2:
        raise SceneError("need at least two scenes")
    loaded = [_load_scene(path) for path in args.scenes]
    scenes = [scene for scene, _ in loaded]
    digests = [digest for _, digest in loaded]
    tol = _tolerance(args, list(zip(args.scenes, scenes)))
    h_m = None
    if args.h_from == "file":
        if args.h_file is None:
            raise SceneError("--h-from file requires --h-file")
        hscene, _ = _load_scene(args.h_file)
        if not hscene.h_bases:
            raise SceneError(f"{args.h_file!r} provides no h_bases")
        degrees = max(hscene.h_bases) + 1
        missing = [p for p in range(degrees) if p not in hscene.h_bases]
        if missing:
            raise SceneError(f"{args.h_file!r} gives no h_bases in degree {missing[0]}")
        h_m = [hscene.h_bases[p] for p in range(degrees)]
    report_obj = verify_multiplicativity(
        [s.cw for s in scenes], [s.rep for s in scenes],
        h_m=h_m, tol=tol, pass_tol=args.pass_tol,
    )
    steps = [
        {
            "left": step.left_name,
            "right": step.right_name,
            "corrective_term": _complex_pair(step.corrective),
            "total_torsion": _complex_pair(step.total_torsion),
            "left_torsion": _complex_pair(step.left_torsion),
            "right_torsion": _complex_pair(step.right_torsion),
            "disk_torsion": _complex_pair(step.disk_torsion),
            "relative_error": step.relative_error,
        }
        for step in report_obj.steps
    ]
    report = {
        "command": "verify-theorem1",
        "scenes": list(args.scenes),
        "sha256": digests,
        "seed": args.seed,
        "tolerance": tol,
        "h_from": args.h_from,
        "factors": report_obj.factor_names,
        "factor_torsions": [_complex_pair(t) for t in report_obj.factor_torsions],
        "factor_product": _complex_pair(report_obj.product),
        "total_torsion": _complex_pair(report_obj.total_torsion),
        "relative_error": report_obj.relative_error,
        "steps": steps,
        "verdict": "pass" if report_obj.passed else "fail",
    }
    sys.stdout.write(_render(report, args.json))
    return EXIT_OK if report_obj.passed else EXIT_INPUT


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing keeps no state on it.
    Each subcommand's ``func`` is the name of its ``cmd_*`` function, which
    ``main`` looks up on each call, so a later rebinding of it is seen."""
    parser = argparse.ArgumentParser(
        prog="torsionworks",
        description="Adjoint Reidemeister torsion of CW complexes and disk sums",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=None,
                       help="rank tolerance (default: the scenes' tolerance, "
                            f"then TORSIONWORKS_TOL, then {DEFAULT_TOL:g})")
        p.add_argument("--seed", type=int, default=0,
                       help="recorded in the report only, by verify-mv and "
                            "verify-theorem1; nothing is drawn at random (default 0)")
        p.add_argument("--pass-tol", type=float, default=PASS_TOL,
                       help="relative tolerance for verdicts (default %(default)g)")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("torsion", help="betti numbers and torsion of one scene")
    p.add_argument("scene")
    p.add_argument("--h-basis-mode", choices=["canonical", "file"],
                   default="canonical",
                   help="homology bases: computed representatives or the scene's")
    common(p)
    p.set_defaults(func="cmd_torsion")

    p = sub.add_parser("verify-mv",
                       help="gluing identity with corrective term in canonical bases")
    p.add_argument("scene1")
    p.add_argument("scene2")
    p.add_argument("--random-bases", type=int, default=10, metavar="N",
                   help="recorded in the report only, at least 1; every basis "
                        "gives the canonical residual (default 10)")
    common(p)
    p.set_defaults(func="cmd_verify_mv")

    p = sub.add_parser("verify-theorem1",
                       help="multiplicativity over a list of disk-sum factors")
    p.add_argument("scenes", nargs="+")
    p.add_argument("--h-from", choices=["canonical", "file"], default="canonical",
                   help="source of the glued manifold's homology bases")
    p.add_argument("--h-file", default=None,
                   help="scene file providing h_bases when --h-from file")
    common(p)
    p.set_defaults(func="cmd_verify_theorem1")
    return parser


# flags whose value may be a negative float in exponent notation, such as
# -1e-8, which argparse would otherwise read as an option
FLOAT_FLAGS = ("--tol", "--pass-tol")


def _names_float_flag(arg):
    """Whether ``arg`` is a float flag or a prefix of one, which argparse
    resolves to that flag when no other option shares the prefix."""
    return len(arg) > 2 and "=" not in arg and any(f.startswith(arg) for f in FLOAT_FLAGS)


def _attach_float_values(argv):
    """``argv`` with ``FLAG VALUE`` written ``FLAG=VALUE`` for a float flag
    followed by a number, so that a bad value gets the flag's own message."""
    out = []
    for arg in argv:
        if out and _names_float_flag(out[-1]) and arg.startswith("-"):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] = f"{out[-1]}={arg}"
                continue
        out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(_attach_float_values(argv))
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    start = time.perf_counter()
    try:
        _check_flags(args)
        code = globals()[args.func](args)
    except RankAmbiguityError as exc:
        sys.stderr.write(f"rank ambiguity: {exc}\n")
        return EXIT_RANK_AMBIGUITY
    except (TorsionworksError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    sys.stderr.write(f"elapsed: {time.perf_counter() - start:.3f}s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
