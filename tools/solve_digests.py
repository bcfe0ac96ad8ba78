"""Print one digest line per template and solve, to show that two checkouts
enroll and solve alike.

    python3 tools/solve_digests.py [--root DIR] [--seeds 101 301] [--pytest ARGS]

The first lines cover the forward scheme (``enroll_lines``): the
templates of one face-size image (112x92 pixels, 256 bits) under two
passwords, plain and orthonormalized, and the sha256 of one plain
derive_matrix of that size, which the draw loop fills in many blocks.
Next come the integer repair's move tables (``table_lines``): one sha256
per move group of the image shapes in ``TABLE_SHAPES``, 112x92 among
them, a size at which no solve below runs.  Then every call of the
continuous stage (``solver._continuous_stage``, one per restart of a
QCQP solve) prints a ``continuous`` line: the sha256 of the iterate it
returns and the repr of its smallest constraint violation, which show a
change to the continuous iterates that the integer rounding after them
hides.  Then every call of ``solver.solve_qp`` and
``solver.solve_qcqp`` prints its status, objective, the sha256 of its
solution and its certification map.  Continuous and solve lines are
labelled with the operation or test that made them.  After them come
the ``calls`` lines: how often the whole run called each stage and
scorer test of ``COUNTED``, one ``calls <name> <count>`` line per name
that ran, so a diff compares the work done as well as the answers.
The solves are those of the checked cycles of attack-desk,
attack-repair and attack-scale for each seed (inputs from
``perfbench/workloads.py``, which this tool only imports), then those
of a pytest selection, run in this process.  The selection defaults
to acceptance criteria 2-6 and the pinned solver tests
(``DEFAULT_PYTEST``); ``--pytest ""`` runs no tests.  The pytest output
goes to stderr.

``--root`` names the checkout whose ``src/``, ``perfbench/`` and tests
run (default: the one holding this file), so the same tool compares a
parent commit with a change:

    python3 tools/solve_digests.py --root ../parent > parent.txt
    python3 tools/solve_digests.py > change.txt
    diff parent.txt change.txt

The BLAS thread count can change the continuous stage's answers, so the
tool pins OpenBLAS, OpenMP and MKL to one thread unless the environment
already sets them.  Wall times are left out: they differ between runs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shlex
import sys
from collections import Counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("attack-desk", "attack-repair", "attack-scale")
DEFAULT_PYTEST = (
    "tests/test_acceptance.py tests/test_solver.py -k "
    "'criterion_2 or criterion_3 or criterion_4 or criterion_5 or criterion_6 or pinned'"
)


#: Stages of the solver module, then methods of its scorers, whose calls
#: the ``calls`` lines count.
COUNTED = (
    "_continuous_stage",
    "_spg_minimize",
    "_repair",
    "_window_polish",
    "_SignScorer.clean_feasible",
    "_SignScorer.local_scores",
    "_FeatureScorer.clean_feasible",
    "_FeatureScorer.local_scores",
)

#: Passwords of the enroll lines.
ENROLL_PASSWORDS = ("digest-a", "digest-b")


def enroll_lines(biopreimage, workloads) -> list[str]:
    """The templates of a fixed face-size image under each password,
    plain then orthonormalized, as hex, and the sha256 of the plain
    derive_matrix of the first password at that size."""
    face = workloads.face_image(np.random.default_rng(2021))
    bits = workloads.FACE_BITS
    size = f"{face.height}x{face.width}/{bits}"
    lines = []
    for pw in ENROLL_PASSWORDS:
        for ortho in (False, True):
            template = biopreimage.enroll(face, pw, bits, orthonormalize=ortho)
            kind = "orthonormalized" if ortho else "plain"
            lines.append(f"enroll {size} pw={pw} {kind} {template.to_hex()}")
    matrix = biopreimage.derive_matrix(ENROLL_PASSWORDS[0], face.n, bits)
    sha = hashlib.sha256(matrix.tobytes()).hexdigest()[:16]
    lines.append(f"enroll derive_matrix {face.n}x{bits} pw={ENROLL_PASSWORDS[0]} plain {sha}")
    return lines


#: Image shapes of the table lines: attack-desk's two, attack-repair's,
#: attack-scale's merged solves, and the face size.
TABLE_SHAPES = ((2, 5), (4, 4), (4, 6), (16, 16), (112, 92))


def table_lines(solver) -> list[str]:
    """The sha256 of each move group's tables (tuples, steps, feats,
    valid, du, dv) for every shape of ``TABLE_SHAPES``."""
    lines = []
    for height, width in TABLE_SHAPES:
        for k, group in enumerate(solver._move_groups(height, width)):
            sha = hashlib.sha256()
            for table in (group.tuples, group.steps, group.feats, group.valid, group.du, group.dv):
                sha.update(table.tobytes())
            lines.append(f"table {height}x{width} group={k} {sha.hexdigest()[:16]}")
    return lines


def digest_line(label: str, report) -> str:
    """Status, objective, solution sha256 and certification of a report."""
    solution = report.solution
    if solution is None:
        sha = "-"
    else:
        # GrayImage pixels are int64, feature-phase solutions float64.
        sha = hashlib.sha256(getattr(solution, "pixels", solution).tobytes()).hexdigest()[:16]
    cert = json.dumps(report.certification, sort_keys=True, separators=(",", ":"))
    return f"{label} {report.status.value} {report.objective!r} {sha} {cert}"


def continuous_line(label: str, z, best_violation: float) -> str:
    """The sha256 of a continuous stage's iterate and the repr of its
    smallest violation."""
    sha = hashlib.sha256(z.tobytes()).hexdigest()[:16]
    return f"continuous {label} {sha} {float(best_violation)!r}"


class Recorder:
    """Wraps the two solve entry points of the solver module (and the
    package's re-exports of them) and keeps one digest line per call in
    ``lines``; wraps the module's continuous stage, which the QCQP solve
    calls by its module name, and keeps one line per call in
    ``continuous``; and counts the calls of each name of ``COUNTED`` in
    ``work``, the stages where the module looks them up and the methods
    on their classes."""

    def __init__(self, package, solver):
        self.lines: list[str] = []
        self.continuous: list[str] = []
        self.label = ""
        self.calls: Counter[str] = Counter()
        self.stages: Counter[str] = Counter()
        self.work: Counter[str] = Counter()
        for name in ("solve_qp", "solve_qcqp"):
            wrapped = self._wrap(getattr(solver, name))
            setattr(solver, name, wrapped)
            setattr(package, name, wrapped)
        solver._continuous_stage = self._wrap_stage(solver._continuous_stage)
        for name in COUNTED:
            owner, _, attr = name.rpartition(".")
            target = getattr(solver, owner) if owner else solver
            setattr(target, attr, self._count(name, getattr(target, attr)))

    def calls_lines(self) -> list[str]:
        """One ``calls <name> <count>`` line per name of ``COUNTED`` that
        was called, in that order."""
        return [f"calls {name} {self.work[name]}" for name in COUNTED if self.work[name]]

    def _count(self, name, fn):
        # A plain function, so that on a class it binds as a method.
        def counted(*args, **kwargs):
            self.work[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _current(self) -> str:
        # Tests name themselves in PYTEST_CURRENT_TEST ("path::test (call)").
        return os.environ.get("PYTEST_CURRENT_TEST", "").rsplit(" ", 1)[0] or self.label

    def _wrap(self, fn):
        def recorded(*args, **kwargs):
            report = fn(*args, **kwargs)
            label = self._current()
            self.calls[label] += 1
            self.lines.append(digest_line(f"{label} #{self.calls[label]}", report))
            return report

        return recorded

    def _wrap_stage(self, fn):
        def recorded(*args, **kwargs):
            z, best_violation = fn(*args, **kwargs)
            label = self._current()
            self.stages[label] += 1
            self.continuous.append(continuous_line(f"{label} #{self.stages[label]}", z, best_violation))
            return z, best_violation

        return recorded


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=os.path.dirname(HERE), help="checkout to run")
    parser.add_argument("--seeds", type=int, nargs="*", default=[101, 301])
    parser.add_argument(
        "--pytest", default=DEFAULT_PYTEST, help='pytest arguments, relative to --root ("" runs none)'
    )
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import biopreimage
    import workloads
    from biopreimage import solver

    lines = enroll_lines(biopreimage, workloads) + table_lines(solver)
    recorder = Recorder(biopreimage, solver)
    for name in WORKLOADS:
        for seed in args.seeds:
            workload = workloads.WORKLOADS[name](seed)
            for i in range(workload.checked_cycles):
                for j, op in enumerate(workload.cycle(i)):
                    recorder.label = f"{name} seed={seed} cycle={i} op={j}:{op.kind}"
                    op.run()
    status = 0
    if args.pytest:
        import pytest

        os.chdir(root)
        with contextlib.redirect_stdout(sys.stderr):
            status = int(pytest.main(shlex.split(args.pytest) + ["-q", "-p", "no:cacheprovider"]))
    print("\n".join(lines + recorder.continuous + recorder.lines + recorder.calls_lines()))
    if status:
        print(f"pytest exited with status {status}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
