"""Tests of the benchmark itself: span arithmetic, metric names, and
output checks that are not vacuous."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from biopreimage import pipeline, problems, solver  # noqa: E402
from biopreimage.pipeline import GrayImage  # noqa: E402


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children():
    # op [0, 10] > a [1, 4] > b [2, 3]; op > c [5, 9]; then a second op [10, 12].
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10, 10, 12]))
    op = tracer.begin("op")
    a = tracer.begin("a")
    b = tracer.begin("b")
    tracer.end(b)
    tracer.end(a)
    c = tracer.begin("c")
    tracer.end(c)
    tracer.end(op)
    tracer.end(tracer.begin("op"))
    self_s, calls = spans.self_times(tracer.spans)
    assert self_s == {"op": 3 + 2, "a": 2, "b": 1, "c": 4}
    assert calls == {"op": 2, "a": 1, "b": 1, "c": 1}
    assert sum(self_s.values()) == 10 + 2
    assert tracer.spans[b][spans.PARENT] == a and tracer.spans[a][spans.PARENT] == op


def test_missing_hook_target_is_absent_not_an_error():
    class Owner:
        pass

    tracer = spans.Tracer()
    tracer.hook(Owner, "gone", "layer.gone")
    tracer.count(Owner, "gone_too", lambda args: None)
    assert len(tracer.absent) == 2
    tracer.uninstall()


def test_hooks_restore_the_package():
    from biopreimage import prng

    before = (pipeline.enroll, solver.enroll, solver._repair, solver.MergedModel.al_value)
    tracer = spans.Tracer()
    spans.install(tracer, prng, pipeline, problems, solver)
    assert pipeline.enroll is not before[0] and solver.enroll is pipeline.enroll
    assert tracer.absent == set()
    tracer.uninstall()
    assert (pipeline.enroll, solver.enroll, solver._repair, solver.MergedModel.al_value) == before


def _run_benchmark(trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "attack-repair",
         "--seed", "3", "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = {m["name"]: m["unit"] for m in _benchmark_spec()[section]}
    result = _run_benchmark(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == spec
    if trace == 0:  # the checked cycles complete however short the run
        assert result["attempted"] >= workloads.AttackRepair.checked_cycles


def test_workload_reasons_record_solver_configs():
    whys = {w["name"]: w["why"] for w in _benchmark_spec()["workloads"]}
    assert set(whys) == set(workloads.WORKLOADS)
    for name, cls in workloads.WORKLOADS.items():
        c = cls.config
        if c is not None:
            text = (
                f"SolverConfig(restarts={c.restarts}, max_outer_iterations={c.max_outer_iterations}, "
                f"repair_budget={c.repair_budget}, time_limit={c.time_limit:g})"
            )
            assert text in whys[name]


def _one_pixel_change(image: GrayImage, changed) -> GrayImage:
    """First single-pixel edit (scanning pixels, then values) for which
    ``changed(edited)`` holds."""
    flat = image.flat()
    for p in range(flat.size):
        for value in (0, 255, 128, 64, 192):
            if value == flat[p]:
                continue
            edited = flat.copy()
            edited[p] = value
            candidate = GrayImage.from_flat(image.width, image.height, edited)
            if changed(candidate):
                return candidate
    raise AssertionError("no single-pixel edit changes the output")


def _merged_attack(seed: int):
    """A certified desk-size merged attack and the pair it must match."""
    rng = np.random.default_rng(seed)
    victim, anchor = workloads.noise_image(rng, 2, 5), workloads.noise_image(rng, 2, 5)
    t = pipeline.enroll(victim, "pw", 20)
    report = solver.solve(
        problems.build_merged(anchor, t, password=b"pw"), workloads.AttackDesk.config
    )
    assert workloads.check_image_attack(report, [(t, "pw")]).ok
    return report, t


def test_image_check_rejects_a_one_pixel_edit():
    report, t = _merged_attack(seed=4)
    edited = _one_pixel_change(report.solution, lambda img: pipeline.enroll(img, "pw", 20) != t)
    outcome = workloads.check_image_attack(dataclasses.replace(report, solution=edited), [(t, "pw")])
    assert not outcome.ok and outcome.wrong


def test_multi_auth_check_rejects_a_forgery_outside_the_radius():
    report, t = _merged_attack(seed=4)
    far = _one_pixel_change(
        report.solution,
        lambda img: pipeline.hamming_distance(pipeline.enroll(img, "pw", 20), t) > workloads.AUTH_EPSILON,
    )
    assert workloads.check_multi_auth((report, (0,)), "pw", [t]).ok
    outcome = workloads.check_multi_auth((dataclasses.replace(report, solution=far), (0,)), "pw", [t])
    assert not outcome.ok and outcome.wrong


def test_image_phase_feature_check_rejects_a_one_pixel_edit():
    rng = np.random.default_rng(1)
    image = workloads.noise_image(rng, 2, 5)
    target = pipeline.sobel(image)
    assert workloads.features_match(image, target)
    edited = _one_pixel_change(image, lambda img: True)
    assert not workloads.features_match(edited, target)


def test_same_seed_same_outcome():
    a = workloads.AttackRepair(seed=11).cycle(0)[0].run()
    b = workloads.AttackRepair(seed=11).cycle(0)[0].run()
    assert a.status is b.status and a.objective == b.objective and a.solution == b.solution


def _op(kind, run_fn, outcome=None):
    return workloads.Op(kind, run_fn, lambda _: outcome)


def test_failed_counts_errors_timeouts_and_wrong_outputs_only():
    tally = run.Tally()
    tally.run(_op("a", lambda: None, workloads.Outcome(ok=True)))
    tally.run(_op("a", lambda: None, workloads.Outcome(ok=False)))  # uncertified
    tally.run(_op("a", lambda: None, workloads.Outcome(ok=False, timed_out=True)))
    tally.run(_op("a", lambda: None, workloads.Outcome(ok=False, wrong="bad output")))
    tally.run(_op("a", lambda: 1 / 0))
    assert tally.failed == 3 and tally.wrong == ["a: bad output"] and len(tally.errors) == 1
    assert run.quality(tally.ops)["success_rate"] == pytest.approx(1 / 5)


def test_uncertified_solves_are_not_timeouts_unless_timed_out():
    for status in set(solver.SolveStatus) - {solver.SolveStatus.CERTIFIED_FEASIBLE}:
        outcome = workloads.check_image_attack(types.SimpleNamespace(status=status), [])
        assert not outcome.ok and outcome.timed_out == (status is solver.SolveStatus.TIMED_OUT)


def test_throughput_weights_kind_means_by_their_count_in_a_cycle():
    tally = run.Tally()
    tally.ops = [{"kind": "a"}, {"kind": "a"}, {"kind": "b"}]
    # Mean a = 2 s, b = 6 s; a cycle of a, a, b takes 10 s for 3 operations.
    assert tally.throughput([1.0, 3.0, 6.0], {"a": 2, "b": 1}) == pytest.approx(0.3)


def test_normalized_time_uses_the_probes_around_each_operation():
    tally = run.Tally()
    tally.ops = [{"cpu": 1.0}, {"cpu": 1.0}]
    ref = run.PROBE_REF_S
    tally.probes = [ref, 3 * ref, ref]
    assert tally.normalized() == pytest.approx([0.5, 0.5])
