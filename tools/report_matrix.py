"""Print every CLI report on the sample scenes, for byte-identity checks.

Runs ``torsionworks.cli.main`` in-process on a fixed matrix of commands
over ``scenes/`` (four scenes give 164 commands):

* per scene: ``torsion`` in canonical mode, in file mode and with ``--json``;
* per ordered pair: ``verify-mv``, ``verify-mv --json --seed 3``,
  ``verify-mv --json --random-bases 300 --seed 5`` and ``verify-theorem1``;
* per ordered triple: ``verify-theorem1 --json``;
* per ordering of all the scenes: ``verify-theorem1 --json``, a chain
  whose glued partial sums are each reused as the next left factor.

For each command it prints the command line, the exit code, stdout and
stderr without the ``elapsed:`` timing line.  Usage, from the root of a
checkout (the script imports the package from that checkout's ``src/``):

    python tools/report_matrix.py > reports.txt

Two checkouts give the same reports when ``cmp`` finds their outputs
equal; copy the script into the older checkout to run it there.  When
they differ, ``python tools/compare_reports.py A B`` says whether only
numbers moved, and by how much under each key.
"""

import contextlib
import io
import itertools
import os
import sys
from pathlib import Path

# one BLAS thread, so that no floating-point sum depends on a thread split
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from torsionworks import cli  # noqa: E402


def commands(scenes):
    for s in scenes:
        yield ["torsion", s]
        yield ["torsion", s, "--h-basis-mode", "file"]
        yield ["torsion", s, "--json"]
    for a, b in itertools.product(scenes, repeat=2):
        yield ["verify-mv", a, b]
        yield ["verify-mv", a, b, "--json", "--seed", "3"]
        yield ["verify-mv", a, b, "--json", "--random-bases", "300", "--seed", "5"]
        yield ["verify-theorem1", a, b]
    for triple in itertools.product(scenes, repeat=3):
        yield ["verify-theorem1", *triple, "--json"]
    for ordering in itertools.permutations(scenes):
        yield ["verify-theorem1", *ordering, "--json"]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    kept = [line for line in err.getvalue().splitlines(keepends=True)
            if not line.startswith("elapsed:")]
    return code, out.getvalue(), "".join(kept)


def main():
    os.chdir(ROOT)
    scenes = sorted(f"scenes/{p.name}" for p in (ROOT / "scenes").glob("*.json"))
    for argv in commands(scenes):
        code, out, err = run(argv)
        sys.stdout.write(f"$ torsionworks {' '.join(argv)}\nexit: {code}\n")
        sys.stdout.write(f"--- stdout\n{out}--- stderr\n{err}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
