"""The benchmark's workloads: fixed operation shapes on inputs drawn per operation.

Each workload builds its fixed inputs once (``__init__`` is the set-up),
draws a fresh input for operation ``index`` from ``(seed, index)`` with
``inputs``, runs one operation with ``run`` and checks its output with
``check``.  ``check`` returns None when every check passes, otherwise
``(reason, known)``: ``known`` marks the one failure kept on purpose,
the sign flip of ``verify-mv`` on (wedge_3, wedge_2).

The library is called through module attributes (``glue.verify_...``)
so that the tracer's wrappers are the functions called.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os

import numpy as np

import oracle
from torsionworks import algebra, cli, complexes, glue

# the package exports the function ``torsion``, which hides the module
torsion = importlib.import_module("torsionworks.torsion")

# |lambda| of every generator is drawn from this range, with a uniform
# phase; |lambda^2 - 1| >= 0.69 keeps every rank decision far from its cutoff
LAMBDA_MODULUS = (1.3, 2.2)

REL_TOL = 1e-9

CHAIN_SHAPE = (oracle.wedge(1), oracle.wedge(2), oracle.torus(), oracle.wedge(3),
               oracle.wedge(1), oracle.torus(), oracle.bouquet(), oracle.wedge(2))

COMPLEX_SHAPE = (oracle.torus(),) * 12 + (oracle.wedge(2), oracle.wedge(3), oracle.bouquet())

# the cli scenes are fixed: the (wedge_3, wedge_2) operations fail on every input
CLI_SCENE_SEED = 1
CLI_GENUS = {"A": 3, "B": 2}


def to_library(cw: oracle.Cw) -> complexes.CwComplexData:
    """The library's CW data for a plain-data complex."""
    def element(entry):
        return algebra.GroupRingElement.from_terms(
            (algebra.Word.from_letters(word), coeff) for coeff, word in entry)

    pres = algebra.GroupPresentation(
        cw.generators, tuple(algebra.Word.from_letters(r) for r in cw.relators))
    mats = [algebra.GroupRingMatrix.from_rows([[element(e) for e in row] for row in m])
            for m in cw.boundaries]
    return complexes.CwComplexData(cw.name, pres, list(cw.cells), mats)


def diagonal_rep(eigenvalues) -> algebra.Representation:
    return algebra.Representation.from_images(
        [np.array([[lam, 0], [0, 1 / lam]], dtype=complex) for lam in eigenvalues])


def draw_eigenvalues(rng, count):
    modulus = rng.uniform(*LAMBDA_MODULUS, size=count)
    return modulus * np.exp(2j * np.pi * rng.uniform(size=count))


def relative(a, b):
    return abs(a - b) / abs(b)


class Chain:
    """glue.verify_multiplicativity on one 8-factor left-associated shape."""

    round_size = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.factors = [to_library(f) for f in CHAIN_SHAPE]
        self.glued = oracle.chain_sum(CHAIN_SHAPE)

    def inputs(self, index):
        rng = np.random.default_rng([self.seed, index])
        return [draw_eigenvalues(rng, f.generators) for f in CHAIN_SHAPE]

    def run(self, lams):
        return glue.verify_multiplicativity(self.factors, [diagonal_rep(x) for x in lams])

    def check(self, lams, report):
        expected = oracle.torsion_modulus(self.glued, np.concatenate(lams))
        err = relative(abs(report.total_torsion), expected)
        if err > REL_TOL:
            return f"|total torsion| is off the oracle by {err:.2e}", False
        if report.relative_error > REL_TOL:
            return f"factor product is off the total by {report.relative_error:.2e}", False
        worst = max((step.relative_error for step in report.steps), default=0.0)
        if len(report.steps) != len(CHAIN_SHAPE) - 1 or worst > REL_TOL:
            return f"{len(report.steps)} steps, worst relative error {worst:.2e}", False
        return None


class Complex:
    """twist -> homology -> torsion_of on one glued complex of fixed shape."""

    round_size = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        total = to_library(COMPLEX_SHAPE[0])
        for factor in COMPLEX_SHAPE[1:]:
            total = glue.disk_sum(total, to_library(factor)).total
        self.cw = total
        self.basis = algebra.orthonormal_sl2_basis()
        self.glued = oracle.chain_sum(COMPLEX_SHAPE)
        self.euler = 3 * oracle.euler_characteristic(self.glued)

    def inputs(self, index):
        rng = np.random.default_rng([self.seed, index])
        return draw_eigenvalues(rng, self.glued.generators)

    def run(self, lams):
        tc = complexes.twist(self.cw, diagonal_rep(lams), self.basis)
        hd = complexes.homology(tc)
        return hd.betti, torsion.torsion_of(tc, hd).value

    def check(self, lams, out):
        betti, value = out
        alternating = sum((-1) ** p * b for p, b in enumerate(betti))
        if alternating != self.euler:
            return f"betti {betti} sum to {alternating}, Euler characteristic {self.euler}", False
        err = relative(abs(value), oracle.torsion_modulus(self.glued, lams))
        if err > REL_TOL:
            return f"|T| is off the oracle by {err:.2e}", False
        return None


def random_sl2(rng):
    """A random determinant-1 matrix with |det| of the draw above 0.3."""
    while True:
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        det = np.linalg.det(m)
        if abs(det) > 0.3:
            return m / np.sqrt(det)


def wedge_scene(g, rng) -> str:
    """Scene text of a wedge of g circles with generic SL2 images."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    images = [random_sl2(rng) for _ in range(g)]
    doc = {
        "name": f"wedge_{g}",
        "target": "SL",
        "generators": g,
        "relators": [],
        "cells": [1, g],
        "boundaries": [[[[[-1, "1"], [1, letters[i]]] for i in range(g)]]],
        "images": [np.stack([m.real, m.imag], axis=-1).tolist() for m in images],
    }
    return json.dumps(doc, indent=2) + "\n"


class Cli:
    """In-process ``torsionworks verify-mv A B --json``, alternating the order.

    Even operations run (A, B) = (wedge_3, wedge_2), which hits the sign
    flip: verdict fail, max_residual 2.0, exit code 1.  Their basis-draw
    seed is the operation index, so the operations kept failing on
    purpose run on inputs that do not depend on the run's seed.  Odd
    operations run (B, A) and must pass.
    """

    round_size = 2

    def __init__(self, seed, workdir):
        self.seed = seed
        rng = np.random.default_rng(CLI_SCENE_SEED)
        self.paths = {}
        for key in ("A", "B"):
            path = os.path.join(workdir, f"{key}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(wedge_scene(CLI_GENUS[key], rng))
            self.paths[key] = path

    def inputs(self, index):
        if index % 2 == 0:
            return ("A", "B"), index
        draw = int(np.random.default_rng([self.seed, index]).integers(2 ** 31))
        return ("B", "A"), draw

    def run(self, inp):
        order, draw = inp
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify-mv", self.paths[order[0]], self.paths[order[1]],
                             "--json", "--seed", str(draw)])
        return code, out.getvalue()

    def check(self, inp, out):
        (first, second), _ = inp
        code, text = out
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return f"exit code {code} with no JSON report", False
        dims = report["sequence_dims"]
        g1, g2 = CLI_GENUS[first], CLI_GENUS[second]
        if sum((-1) ** q * n for q, n in enumerate(dims)) != 0:
            return f"sequence dims {dims} do not alternate to 0", False
        if report["degree0_dimensions"] != {"n0_m1": 0, "n0_m2": 0, "n0_m": 0, "n0_disk": 3}:
            return f"degree-0 dimensions {report['degree0_dimensions']}", False
        if dims[3] != 3 * (g1 + g2) - 3 or dims[4] != 3 * g1 - 3 + 3 * g2 - 3:
            return f"b1 in {dims} is not 3g - 3", False
        residual = report["max_residual"]
        if code == 0 and report["verdict"] == "pass" and residual <= REL_TOL:
            return None
        if ((first, second) == ("A", "B") and code == 1 and report["verdict"] == "fail"
                and abs(residual - 2.0) <= REL_TOL):
            return "sign flip: max_residual 2.0", True
        return f"exit code {code}, verdict {report['verdict']}, max_residual {residual}", False


WORKLOADS = {"chain": Chain, "complex": Complex, "cli": Cli}
