"""Benchmark driver for biopreimage.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One process runs one workload as a closed loop with a single
client: operations back to back, each on fresh inputs, until
``--seconds`` have passed; the workload's checked cycles always
complete.  Every output is checked outside the timed region.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
set-up time, throughput in operations per CPU-second at reference host
speed (``ops_per_norm_s``, see :class:`HostProbe`), the success rate
over the checked cycles and peak RSS.

With ``--trace 1`` every operation runs twice, once under the span tracer
and once without it (alternating which goes first); the last line holds
the per-layer metrics of the traced passes and the tracing overhead
measured against the untraced passes of the same operations.  The line
before the last records the environment and per-kind details.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Input generation repeats this often; setup_s takes the median.
SETUP_REPEATS = 3


def _import_package():
    """Import biopreimage from this checkout's src/ and nowhere else, with
    BLAS pinned to one thread (two threads made the repair-heavy batches
    slower and noisier on a 2-core machine)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "biopreimage", "__init__.py")):
        raise SystemExit(f"error: no biopreimage sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import biopreimage

    if os.path.dirname(os.path.dirname(os.path.abspath(biopreimage.__file__))) != SRC:
        raise SystemExit(f"error: biopreimage imported from {biopreimage.__file__}, not {SRC}")


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
    }


def fresh_import_seconds() -> float:
    """Wall time of a new interpreter that imports numpy and the package."""
    import subprocess

    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import numpy, biopreimage"],
        env={**os.environ, "PYTHONPATH": SRC},
        check=True,
        timeout=60,
    )
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: CPU seconds the host probe takes on an uncontended 2-core VM.  An
#: operation's normalized time is its CPU time scaled by PROBE_REF_S over
#: the probe time measured around it.
PROBE_REF_S = 0.002


class HostProbe:
    """CPU seconds of a fixed slice of interpreter and BLAS work.

    It is the benchmark's own code, so a change to the program cannot
    move it; only the speed the host gives this process can.  On a shared
    host that speed moves by up to 2x within seconds, and the probe moves
    with it, so dividing by the probe removes most of that noise."""

    def __init__(self):
        import numpy as np

        self.matrix = np.random.default_rng(0).standard_normal((120, 120))

    def __call__(self) -> float:
        start = time.process_time()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        for _ in range(10):
            self.matrix @ self.matrix
        return time.process_time() - start


class Tally:
    """Latencies and outcomes of the operations of one pass.

    Each operation is timed as wall time and as CPU time of this process.
    The process is single-threaded with BLAS pinned to one thread, so CPU
    time is the work the program did; unlike wall time it leaves out the
    time a shared host keeps the process off its core.  With a ``probe``
    (a :class:`HostProbe`), it runs before every operation and once after
    the last.
    """

    def __init__(self, probe: HostProbe | None = None):
        self.probe = probe
        self.ops: list[dict] = []
        self.probes: list[float] = []
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: list[str] = []

    def run(self, op) -> None:
        if self.probe is not None:
            self.probes.append(self.probe())
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            result = op.run()
        except Exception as exc:  # an operation that raises is a failed operation
            result, error = None, f"{op.kind}: {type(exc).__name__}: {exc}"
        else:
            error = None
        rec = {"kind": op.kind, "cpu": time.process_time() - start_cpu, "wall": time.perf_counter() - start}
        self.ops.append(rec)
        if error is not None:
            self.failed += 1
            self.errors.append(error)
            rec["ok"] = False
            return
        outcome = op.check(result)
        rec["ok"] = outcome.ok
        if outcome.wrong:
            self.wrong.append(f"{op.kind}: {outcome.wrong}")
        if outcome.wrong or outcome.timed_out:
            self.failed += 1
        rec["pixel"], rec["feature"] = outcome.pixel_distance, outcome.feature_distance

    def finish(self) -> None:
        if self.probe is not None and self.ops:
            self.probes.append(self.probe())

    def normalized(self) -> list[float]:
        """Each operation's CPU time at reference host speed, using the
        mean of the probes taken just before and just after it."""
        return [
            rec["cpu"] * PROBE_REF_S / ((self.probes[i] + self.probes[i + 1]) / 2)
            for i, rec in enumerate(self.ops)
        ]

    def throughput(self, times: list[float], per_cycle: dict[str, int]) -> float:
        """Operations per second of the workload's cycle mix: the mean
        time of each kind, weighted by its count in a cycle.  This uses
        every operation of the run, whichever kind it stopped at."""
        by_kind: dict[str, list[float]] = {}
        for rec, t in zip(self.ops, times):
            by_kind.setdefault(rec["kind"], []).append(t)
        cycle_s = sum(n * statistics.fmean(by_kind[k]) for k, n in per_cycle.items())
        return sum(per_cycle.values()) / cycle_s


def operations(workload):
    """(operation, cycle index) in order, cycle after cycle."""
    i = 0
    while True:
        for op in workload.cycle(i):
            yield op, i
        i += 1


def run_loop(workload, seconds: float, tracer=None, install=None):
    """Operations back to back until ``seconds`` have passed and the
    checked cycles are done.  Past the checked cycles, an operation whose
    kind's mean time so far would carry the run past ``seconds`` is not
    started.  With a tracer, each operation runs traced and untraced,
    alternating which goes first.  Returns (plain tally, traced tally)."""
    plain, traced = Tally(probe=HostProbe() if tracer is None else None), Tally()
    kind_s: dict[str, list[float]] = {}
    start = time.perf_counter()
    for op_id, (op, cycle) in enumerate(operations(workload)):
        if cycle >= workload.checked_cycles:
            past = kind_s.get(op.kind, [0.0, 0])
            elapsed = time.perf_counter() - start
            if elapsed >= seconds or elapsed + past[0] / max(past[1], 1) > seconds:
                break
        t = time.perf_counter()
        if tracer is None:
            plain.run(op)
        else:
            for which in ("traced", "plain") if op_id % 2 == 0 else ("plain", "traced"):
                if which == "plain":
                    plain.run(op)
                    continue
                install()
                tracer.op_id = op_id
                idx = tracer.begin("op")
                try:
                    traced.run(op)
                finally:
                    tracer.end(idx)
                    tracer.uninstall()
        entry = kind_s.setdefault(op.kind, [0.0, 0])
        entry[0] += time.perf_counter() - t
        entry[1] += 1
    plain.finish()
    return plain, traced


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def quality(ops: list[dict]) -> dict:
    """Success rate and distance means over the given operations."""
    pixel = [r["pixel"] for r in ops if r.get("pixel") is not None]
    feature = [r["feature"] for r in ops if r.get("feature") is not None]
    return {
        "success_rate": sum(r["ok"] for r in ops) / len(ops),
        "pixel_distance_mean": statistics.fmean(pixel) if pixel else None,
        "feature_distance_mean": statistics.fmean(feature) if feature else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    import warnings

    import workloads
    from biopreimage import pipeline, prng, problems, solver

    import spans as tracing

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    # Multi-collision warns when stacked bits exceed the pixel count; the
    # warning is part of the attack, not a benchmark failure.
    warnings.simplefilter("ignore")

    # Set-up is imports plus input generation.  Each repeat times the
    # imports in a fresh interpreter, then regenerates the inputs here.
    workload = workloads.WORKLOADS[args.workload](args.seed)
    import_s, gen_s = [], []
    for _ in range(SETUP_REPEATS):
        import_s.append(fresh_import_seconds())
        t = time.perf_counter()
        workload.prepare()
        gen_s.append(time.perf_counter() - t)
    setup_s = statistics.median(a + b for a, b in zip(import_s, gen_s))

    tracer = tracing.Tracer() if args.trace else None

    def install():
        tracing.install(tracer, prng, pipeline, problems, solver)

    plain, traced = run_loop(workload, args.seconds, tracer, install)

    passes = (plain, traced)
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(p.failed for p in passes)
    wrong = [w for p in passes for w in p.wrong]
    per_cycle = Counter(op.kind for op in workload.cycle(0))
    n_checked = sum(len(workload.cycle(i)) for i in range(workload.checked_cycles))
    kinds = {}
    for rec in plain.ops:
        kinds.setdefault(rec["kind"], []).append(rec)
    info = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "config": repr(workload.config) if workload.config else None,
        "kinds": {
            k: {
                "attempted": len(v),
                "succeeded": sum(r["ok"] for r in v),
                "p50_s": statistics.median(r["wall"] for r in v),
                "mean_cpu_s": statistics.fmean(r["cpu"] for r in v),
            }
            for k, v in kinds.items()
        },
        "setup_import_s": import_s,
        "setup_generate_s": gen_s,
        "wrong": wrong[:20],
        "errors": [e for p in passes for e in p.errors][:20],
    }

    if args.trace:
        layers = tracing.layer_metrics(tracer)
        op_total = sum(r["wall"] for r in traced.ops)
        self_s, _ = tracing.self_times(tracer.spans)
        q = quality(traced.ops)
        # Every operation of an attack workload is an attack.
        layers["attack.certified_rate"] = (q["success_rate"] if workload.config else 0.0, "ratio")
        layers["attack.pixel_distance_mean"] = (q["pixel_distance_mean"] or 0.0, "px")
        layers["attack.feature_distance_mean"] = (q["feature_distance_mean"] or 0.0, "feature")
        layers["trace.overhead"] = (op_total / sum(r["wall"] for r in plain.ops) - 1.0, "ratio")
        layers["trace.unattributed_share"] = (self_s.get("op", 0.0) / op_total, "ratio")
        layers["trace.spans"] = (len(tracer.spans), "count")
        info["absent"] = sorted(tracer.absent)
        metrics = {name: _metric(v, unit) for name, (v, unit) in layers.items()}
    else:
        checked = quality(plain.ops[:n_checked])
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "ops_per_norm_s": _metric(plain.throughput(plain.normalized(), per_cycle), "1/s"),
            "success_rate": _metric(checked["success_rate"], "ratio"),
            "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
        }
        # Raw throughput and the median latency move with the host's speed
        # (and the median with the seed's mix of kinds), so they are
        # recorded here rather than bounded as end-to-end metrics.
        info["ops_per_s"] = plain.throughput([r["wall"] for r in plain.ops], per_cycle)
        info["ops_per_cpu_s"] = plain.throughput([r["cpu"] for r in plain.ops], per_cycle)
        info["op_s.p50"] = statistics.median(r["wall"] for r in plain.ops)
        info["ops"] = len(plain.ops)
        info["checked_ops"] = n_checked
        info["pixel_distance_mean"] = checked["pixel_distance_mean"]
        info["feature_distance_mean"] = checked["feature_distance_mean"]
        info["probe_ms"] = {
            "min": 1000 * min(plain.probes),
            "p50": 1000 * statistics.median(plain.probes),
            "max": 1000 * max(plain.probes),
        }

    print(json.dumps(info, sort_keys=True))
    result = {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
