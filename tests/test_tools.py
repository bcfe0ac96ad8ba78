"""Tests of tools/solve_digests.py, whose digest lines back every claim
that a change leaves the solver's answers and the scheme's templates as
they were."""

import hashlib
import importlib.util
import os
import shlex
import sys

import numpy as np
import pytest

import biopreimage
from biopreimage import (
    GrayImage,
    SolveReport,
    SolverConfig,
    SolveStatus,
    build_merged,
    enroll,
)
from biopreimage import solver as solver_module

_TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "solve_digests.py")
_spec = importlib.util.spec_from_file_location("solve_digests", _TOOL)
solve_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(solve_digests)


def _sha(array):
    return hashlib.sha256(array.tobytes()).hexdigest()[:16]


def test_digest_line_of_image_feature_and_no_solution():
    image = GrayImage.from_flat(2, 2, [10, 200, 35, 90])
    report = SolveReport(SolveStatus.CERTIFIED_FEASIBLE, image, 25.0, 1.5, {"1": True, "0": False})
    pixels = np.array([10, 200, 35, 90], dtype=np.int64)
    line = f'op #1 certified_feasible 25.0 {_sha(pixels)} {{"0":false,"1":true}}'
    assert solve_digests.digest_line("op #1", report) == line
    # the wall time is left out
    slower = SolveReport(SolveStatus.CERTIFIED_FEASIBLE, image, 25.0, 9.0, {"0": False, "1": True})
    assert solve_digests.digest_line("op #1", slower) == line

    feature = np.array([0.5, 1.25, 3.0])
    report = SolveReport(SolveStatus.CONTINUOUS_ONLY, feature, 0.1, 0.0, {"0": False})
    line = f'op #2 continuous_only 0.1 {_sha(feature)} {{"0":false}}'
    assert solve_digests.digest_line("op #2", report) == line

    report = SolveReport(SolveStatus.INFEASIBLE, None, float("inf"), 0.0, {})
    assert solve_digests.digest_line("op #3", report) == "op #3 infeasible inf - {}"


def _restore_wrapped(monkeypatch):
    """Register the entry points a Recorder wraps, so that undoing them
    after the test restores the unwrapped ones."""
    for name in ("solve_qp", "solve_qcqp"):
        monkeypatch.setattr(solver_module, name, getattr(solver_module, name))
        monkeypatch.setattr(biopreimage, name, getattr(biopreimage, name))
    monkeypatch.setattr(solver_module, "_continuous_stage", solver_module._continuous_stage)


def test_continuous_line_format():
    z = np.array([0.25, 1.0, 0.0])
    line = f"continuous op #1 {_sha(z)} 1.5e-08"
    assert solve_digests.continuous_line("op #1", z, 1.5e-8) == line
    # a NumPy scalar prints as the float it holds
    assert solve_digests.continuous_line("op #1", z, np.float64(1.5e-8)) == line
    assert solve_digests.continuous_line("op #2", z, float("inf")).endswith(" inf")


def test_recorder_records_solves_through_the_package(monkeypatch):
    _restore_wrapped(monkeypatch)
    recorder = solve_digests.Recorder(biopreimage, solver_module)
    assert biopreimage.solve_qcqp is solver_module.solve_qcqp

    rng = np.random.default_rng(5)
    victim, anchor = (GrayImage(2, 2, rng.integers(0, 256, (2, 2))) for _ in range(2))
    problem = build_merged(anchor, enroll(victim, "pw", 4), password=b"pw")
    config = SolverConfig(restarts=1, time_limit=30.0)
    first = biopreimage.solve_qcqp(problem, config)
    # Under pytest the label is the running test's name; elsewhere, the
    # recorder's own label.
    test_id = os.environ["PYTEST_CURRENT_TEST"].rsplit(" ", 1)[0]
    monkeypatch.delenv("PYTEST_CURRENT_TEST")
    recorder.label = "desk op=0"
    second = biopreimage.solve_qcqp(problem, config)
    assert recorder.lines == [
        solve_digests.digest_line(f"{test_id} #1", first),
        solve_digests.digest_line("desk op=0 #1", second),
    ]
    assert recorder.lines[0] == recorder.lines[1].replace("desk op=0", test_id)


def test_recorder_records_each_continuous_stage(monkeypatch):
    """A QCQP solve from an infeasible anchor runs one continuous stage
    per restart, and each yields one continuous line, labelled like the
    solve, with the iterate and violation the stage returned."""
    _restore_wrapped(monkeypatch)
    stage = solver_module._continuous_stage
    returned = []

    def kept(*args):
        result = stage(*args)
        returned.append(result)
        return result

    monkeypatch.setattr(solver_module, "_continuous_stage", kept)
    recorder = solve_digests.Recorder(biopreimage, solver_module)
    monkeypatch.delenv("PYTEST_CURRENT_TEST")
    recorder.label = "desk op=1"
    rng = np.random.default_rng(7)
    victim, anchor = (GrayImage(3, 2, rng.integers(0, 256, (2, 3))) for _ in range(2))
    problem = build_merged(anchor, enroll(victim, "pw", 6), password=b"pw")
    assert not solver_module.certify(anchor, problem)["0"]
    report = biopreimage.solve_qcqp(problem, SolverConfig(restarts=2, time_limit=30.0))
    assert len(returned) == 2
    assert recorder.continuous == [
        solve_digests.continuous_line(f"desk op=1 #{k}", z, vio) for k, (z, vio) in enumerate(returned, 1)
    ]
    assert recorder.lines == [solve_digests.digest_line("desk op=1 #1", report)]


@pytest.mark.parametrize("given,selection", [(None, solve_digests.DEFAULT_PYTEST), ("", None)])
def test_default_pytest_selection(monkeypatch, given, selection):
    """Without --pytest the tool runs criteria 2-6 and the pinned tests;
    --pytest "" runs none."""
    calls = []
    monkeypatch.setattr(pytest, "main", lambda args: calls.append(args) or 0)
    # the enroll lines, two orthonormalized face-size enrolls, have their own test
    monkeypatch.setattr(solve_digests, "enroll_lines", lambda biopreimage, workloads: [])
    _restore_wrapped(monkeypatch)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.chdir(os.getcwd())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    argv = ["--seeds"] + ([] if given is None else ["--pytest", given])
    assert solve_digests.main(argv) == 0
    if selection is None:
        assert calls == []
    else:
        assert calls == [shlex.split(selection) + ["-q", "-p", "no:cacheprovider"]]


#: The pinned enroll lines: a change to the draw or to Gram-Schmidt must
#: leave every template and the matrix hash as they are.
ENROLL_LINES = [
    "enroll 112x92/256 pw=digest-a plain e40465cea09fcd5fb8aebb9faba08ca6e100eb661a6288f616fb3df50c2a014a",
    "enroll 112x92/256 pw=digest-a orthonormalized e40465cea09fcd5fb8aebb9faba08ca6e120ab661a6288f616fb2df50822014e",
    "enroll 112x92/256 pw=digest-b plain ede0b2a65d8d40e51d7877db1bd61baf412b00ca3ccb245f6160b9fb9a003bf8",
    "enroll 112x92/256 pw=digest-b orthonormalized ede0b2a74d8d40e51d7877db9bd61baf412b09ca386b245f6160b9fb9a003bd8",
    "enroll derive_matrix 10304x256 pw=digest-a plain 9b0926709bba60a3",
]

#: The pinned table lines: a change to how the repair builds its move
#: tables must leave every group's bytes as they are, face size included.
TABLE_LINES = [
    "table 2x5 group=0 06ed8eaca752721b",
    "table 2x5 group=1 fd54d9bec733ed9e",
    "table 2x5 group=2 e601738bef39a4cd",
    "table 4x4 group=0 16f0ccadb7ddf515",
    "table 4x4 group=1 4c953326da633707",
    "table 4x4 group=2 d8717f8871581335",
    "table 4x6 group=0 ffcd789b0dfd3ef4",
    "table 4x6 group=1 185bb720514f5ff1",
    "table 4x6 group=2 3264de911a46133b",
    "table 16x16 group=0 8e47936a9a4940a9",
    "table 112x92 group=0 b1db2a5b3cc3844e",
]


def test_enroll_lines_come_first_and_are_pinned(monkeypatch, capsys):
    """With no seeds and no tests the tool prints the enroll lines and
    the table lines alone."""
    _restore_wrapped(monkeypatch)
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    assert solve_digests.main(["--seeds", "--pytest", ""]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ENROLL_LINES + TABLE_LINES
    # the matrix line hashes derive_matrix's bytes
    matrix = biopreimage.derive_matrix("digest-a", 10304, 256)
    assert lines[len(ENROLL_LINES) - 1].endswith(" " + _sha(matrix))
    # a table line hashes its group's tables in order
    (group,) = solver_module._move_groups(112, 92)
    tables = (group.tuples, group.steps, group.feats, group.valid, group.du, group.dv)
    assert lines[-1].endswith(" " + hashlib.sha256(b"".join(t.tobytes() for t in tables)).hexdigest()[:16])
