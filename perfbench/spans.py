"""Span tracing around calls into biopreimage's modules.

The tracer patches module and class attributes from the outside, so the
package itself carries no tracing code.  Each patched callable records a
span (name, start, end, parent span, operation id); a layer's self time
is its spans' durations minus the time covered by their direct
children.  A hook whose target no longer exists is recorded as absent
instead of failing, so a later change that fuses or deletes a stage
still runs.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

#: Span layout: [name, start, end, parent index (-1 for a root), op id].
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self.op_id: int | None = None
        self._undo: list[tuple[object, str, object]] = []
        # Per solver.solve span index: [first, last] certificate times,
        # seconds after the solve started.
        self.certificates: dict[int, list[float]] = {}

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, self.op_id])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = self.clock()
        self.stack.pop()

    def innermost(self) -> str | None:
        return self.spans[self.stack[-1]][NAME] if self.stack else None

    def wrap(self, name: str, fn, after=None):
        """Callable that runs ``fn`` inside a span; ``after(args, result)``
        runs once the span has closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def hook(self, owner, attr: str, name: str, after=None, also=()) -> None:
        """Trace ``owner.attr`` as span ``name``.  Modules in ``also`` that
        imported the same object under the same name are patched too, so
        internal calls through them are traced."""
        orig = owner.__dict__.get(attr)
        if orig is None:
            self.absent.add(f"{name} ({getattr(owner, '__name__', owner)}.{attr})")
            return
        traced = self.wrap(name, orig, after)
        self._patch(owner, attr, traced)
        for mod in also:
            if mod.__dict__.get(attr) is orig:
                self._patch(mod, attr, traced)

    def count(self, owner, attr: str, counter) -> None:
        """Call ``counter(args)`` before every call of ``owner.attr``,
        without opening a span."""
        orig = owner.__dict__.get(attr)
        if orig is None:
            self.absent.add(f"counter ({getattr(owner, '__name__', owner)}.{attr})")
            return

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            counter(args)
            return orig(*args, **kwargs)

        self._patch(owner, attr, counted)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- certificates ------------------------------------------------------

    def note_certificate(self) -> None:
        """Record an exact certificate against the innermost open solve."""
        for idx in reversed(self.stack):
            if self.spans[idx][NAME] == "solver.solve":
                t = self.clock() - self.spans[idx][START]
                entry = self.certificates.setdefault(idx, [t, t])
                entry[1] = t
                return


def self_times(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Per-name total self time and call count of closed spans.

    Spans nest (one thread, strict call order), so a span's children are
    disjoint sub-intervals of it; self time is its duration minus theirs.
    """
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for name, start, end, parent, _ in spans:
        dur = end - start
        self_s[name] += dur
        calls[name] += 1
        if parent >= 0:
            self_s[spans[parent][NAME]] -= dur
    return dict(self_s), dict(calls)


def install(tracer: Tracer, prng, pipeline, problems, solver) -> None:
    """Hook every layer boundary the benchmark reports on."""
    mods = (prng, pipeline, problems, solver)

    def derive_entries(args, result):
        tracer.counts["prng.derive_matrix.entries"] += result.size

    tracer.hook(prng, "derive_matrix", "prng.derive_matrix", derive_entries, also=mods)
    tracer.hook(prng, "gram_schmidt", "prng.gram_schmidt", also=mods)

    for fn in ("enroll", "sobel", "project", "binarize", "verify"):
        tracer.hook(pipeline, fn, f"pipeline.{fn}", also=mods)

    for fn in (
        "build_feature_phase",
        "build_image_phase",
        "build_merged",
        "build_multi_auth",
        "build_multi_collision",
    ):
        tracer.hook(problems, fn, "problems.build", also=mods)
    tracer.hook(problems, "hamming_center", "problems.hamming_center", also=mods)

    tracer.hook(solver, "solve", "solver.solve")
    tracer.hook(solver, "solve_qp", "solver.qp")
    tracer.hook(solver, "certify", "solver.certify")
    tracer.hook(solver, "_continuous_stage", "solver.continuous")
    tracer.hook(solver, "_spg_minimize", "solver.spg")
    tracer.hook(solver, "_repair", "solver.repair")
    tracer.hook(solver, "_window_polish", "solver.window")

    ops = solver.__dict__.get("conv_operators")
    seen = [ops.cache_info().misses if hasattr(ops, "cache_info") else 0]

    def conv_misses(args, result):
        if hasattr(ops, "cache_info"):
            misses = ops.cache_info().misses
            tracer.counts["solver.conv_operators.misses"] += misses - seen[0]
            seen[0] = misses

    tracer.hook(solver, "conv_operators", "solver.conv_operators", conv_misses)

    for model in ("MergedModel", "ImageModel"):
        cls = solver.__dict__.get(model)
        if cls is None:
            tracer.absent.add(f"solver.al_value/al_grad (solver.{model})")
            continue
        tracer.hook(cls, "al_value", "solver.al_value")
        tracer.hook(cls, "al_grad", "solver.al_grad")

    def exact_result(args, result):
        if result:
            tracer.counts["solver.exact_certified"] += 1
            tracer.note_certificate()

    def scored(args):
        where = tracer.innermost()
        if where in ("solver.repair", "solver.window"):
            tracer.counts[f"{where}.candidates"] += len(args[1])

    def accepted(args):
        tracer.counts["solver.moves_accepted"] += 1

    for scorer in ("_SignScorer", "_FeatureScorer"):
        cls = solver.__dict__.get(scorer)
        if cls is None:
            tracer.absent.add(f"solver.exact (solver.{scorer})")
            continue
        tracer.hook(cls, "exact_certified", "solver.exact", exact_result)
        tracer.count(cls, "score_batch", scored)
    state = solver.__dict__.get("_RepairState")
    if state is None:
        tracer.absent.add("solver.moves_accepted (solver._RepairState)")
    else:
        tracer.count(state, "apply", accepted)


def p50(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans and counters."""
    self_s, calls = self_times(tracer.spans)
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}

    def span(name: str, with_calls: bool = True) -> None:
        if with_calls:
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    span("prng.derive_matrix")
    entries = counts.get("prng.derive_matrix.entries", 0)
    out["prng.derive_matrix.entries"] = (entries, "count")
    out["prng.derive_matrix.entries_per_s"] = (
        ratio(entries, self_s.get("prng.derive_matrix", 0.0)),
        "1/s",
    )
    span("prng.gram_schmidt")
    for fn in ("enroll", "sobel", "project", "binarize", "verify"):
        span(f"pipeline.{fn}")
    span("problems.build")
    span("problems.hamming_center", with_calls=False)

    span("solver.continuous")
    out["solver.spg.calls"] = (calls.get("solver.spg", 0), "count")
    out["solver.spg.self_s"] = (self_s.get("solver.spg", 0.0), "s")
    out["solver.al_value.calls"] = (calls.get("solver.al_value", 0), "count")
    out["solver.al_grad.calls"] = (calls.get("solver.al_grad", 0), "count")
    out["solver.al_eval.self_s"] = (
        self_s.get("solver.al_value", 0.0) + self_s.get("solver.al_grad", 0.0),
        "s",
    )

    span("solver.repair")
    candidates = counts.get("solver.repair.candidates", 0)
    moves = counts.get("solver.moves_accepted", 0)
    out["solver.candidates"] = (candidates, "count")
    out["solver.candidates_per_s"] = (ratio(candidates, self_s.get("solver.repair", 0.0)), "1/s")
    out["solver.moves_accepted"] = (moves, "count")
    out["solver.move_yield"] = (ratio(moves, candidates), "ratio")

    span("solver.window")
    out["solver.window.candidates"] = (counts.get("solver.window.candidates", 0), "count")

    for name in ("solver.solve", "solver.qp", "solver.certify"):
        span(name)
    span("solver.exact", with_calls=False)
    exact = calls.get("solver.exact", 0)
    out["solver.exact_checks"] = (exact, "count")
    out["solver.exact_yield"] = (ratio(counts.get("solver.exact_certified", 0), exact), "ratio")
    span("solver.conv_operators")
    out["solver.conv_operators.misses"] = (counts.get("solver.conv_operators.misses", 0), "count")
    certs = list(tracer.certificates.values())
    out["solver.first_certificate_s.p50"] = (p50([c[0] for c in certs]), "s")
    out["solver.final_certificate_s.p50"] = (p50([c[1] for c in certs]), "s")
    return out
