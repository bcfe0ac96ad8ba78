"""Seeded inputs, timed operations and output checks for each workload.

Cycle ``i`` of a workload draws its inputs from ``default_rng([seed, i])``
without filtering, so a seed fixes every input whatever the number of
cycles a run completes.  An operation is one enroll, one verify or one
attack (problem build, any Hamming-center call, and the solve).  Every
operation returns an :class:`Outcome`; its check runs outside the timed
region.  An attack that ends uncertified but not timed out is a valid
result of a heuristic solver: it lowers the success rate and is not a
failed operation.  A timed-out solve, an exception or an output that
fails its check is a failed operation.

The package modules are called through their module attributes
(``pipeline.enroll``, ``solver.solve``, ...) so that the tracer's hooks
see every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from biopreimage import pipeline, prng, problems, solver
from biopreimage.pipeline import GrayImage, Template

FACE_H, FACE_W, FACE_BITS = 112, 92, 256
#: Verify threshold for face-size templates (1/8 of the bits).
FACE_THRESHOLD = 32
#: Multi-auth: victims sharing one password, and the verify radius.
AUTH_VICTIMS, AUTH_EPSILON = 3, 3


@dataclass
class Outcome:
    ok: bool  # the operation succeeded (certified attack, enroll, verify)
    wrong: str | None = None  # a claimed success that failed its check
    timed_out: bool = False  # the solve hit its time limit
    pixel_distance: float | None = None
    feature_distance: float | None = None


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


# ---------------------------------------------------------------------------
# Input generation


def _password(rng) -> str:
    return rng.bytes(8).hex()


def noise_image(rng, h: int, w: int) -> GrayImage:
    return GrayImage(w, h, rng.integers(0, 256, (h, w)))


def face_image(rng) -> GrayImage:
    """Blocky 112x92 image (8x8 cells plus fine noise): strong edges on a
    smooth background, which is what the Sobel features respond to."""
    cells = rng.integers(40, 216, (FACE_H // 8 + 1, FACE_W // 8 + 1))
    base = np.kron(cells, np.ones((8, 8), dtype=np.int64))[:FACE_H, :FACE_W]
    return GrayImage(FACE_W, FACE_H, np.clip(base + rng.integers(-8, 9, base.shape), 0, 255))


def probe_of(rng, face: GrayImage) -> GrayImage:
    """A second capture of the same face: small per-pixel noise."""
    noisy = face.pixels + rng.integers(-6, 7, face.pixels.shape)
    return GrayImage(face.width, face.height, np.clip(noisy, 0, 255))


# ---------------------------------------------------------------------------
# Output checks


def uncertified(report) -> Outcome | None:
    """The outcome of a solve that did not certify, else None."""
    if report.status is solver.SolveStatus.CERTIFIED_FEASIBLE:
        return None
    return Outcome(ok=False, timed_out=report.status is solver.SolveStatus.TIMED_OUT)


def check_image_attack(report, pairs, extra=None) -> Outcome:
    """A certified image must re-enroll, through the public enroll, to
    every victim's (template, password)."""
    if (miss := uncertified(report)) is not None:
        return miss
    image = report.solution
    if not all(pipeline.enroll(image, pw, len(t)) == t for t, pw in pairs):
        return Outcome(ok=False, wrong="certified image does not re-enroll to the victim template")
    if extra is not None and not extra(image):
        return Outcome(ok=False, wrong="certified image fails its attack-specific check")
    return Outcome(ok=True, pixel_distance=report.euclidean_distance)


def check_multi_auth(result, password, templates) -> Outcome:
    """A multi-auth forgery must pass verify at epsilon against each
    member the Hamming center covers."""
    report, members = result
    if (miss := uncertified(report)) is not None:
        return miss
    got = pipeline.enroll(report.solution, password, len(templates[0]))
    if not all(pipeline.verify(got, templates[i], AUTH_EPSILON).accepted for i in members):
        return Outcome(ok=False, wrong="multi-auth forgery is rejected by a covered member")
    return Outcome(ok=True, pixel_distance=report.euclidean_distance)


def features_match(image: GrayImage, target: np.ndarray) -> bool:
    """Squared gradient magnitudes of an integer image are integers; the
    image phase must reproduce the target's exactly."""
    resid = np.abs(pipeline.sobel(image) ** 2 - np.asarray(target) ** 2)
    return bool(resid.max(initial=0.0) <= 0.5)


def check_feature_attack(result) -> Outcome:
    """A feature-phase solution x must satisfy
    binarize(project(x, M)) == template, with x non-negative."""
    report, problem = result
    if (miss := uncertified(report)) is not None:
        return miss
    cs = problem.constraint_sets[0]
    x = np.asarray(report.solution)
    if (x < 0).any() or pipeline.binarize(pipeline.project(x, cs.matrix)) != cs.template:
        return Outcome(ok=False, wrong="feature-phase solution misses the template")
    return Outcome(ok=True, feature_distance=report.euclidean_distance)


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Seeded operations, one cycle (a fixed list of operation kinds) at a
    time.  Every run completes the first ``checked_cycles`` cycles, which
    give the success rate and distance means, so those repeat exactly for
    a seed.  ``prepared_cycles`` (at least ``checked_cycles``) is about
    what one run consumes; those are generated during set-up."""

    name = ""
    config: solver.SolverConfig | None = None
    checked_cycles = 1
    prepared_cycles = 1

    def __init__(self, seed: int):
        self.seed = seed
        self._cycles: dict[int, list[Op]] = {}

    def prepare(self) -> None:
        """Generate the inputs of the first ``prepared_cycles`` cycles
        afresh; later cycles are generated when the loop reaches them."""
        self._cycles = {}
        for i in range(self.prepared_cycles):
            self.cycle(i)

    def cycle(self, i: int) -> list[Op]:
        if i not in self._cycles:
            self._cycles[i] = self.make_cycle(np.random.default_rng([self.seed, i]))
        return self._cycles[i]

    def make_cycle(self, rng) -> list[Op]:
        raise NotImplementedError

    def attack(self, build: Callable[[], problems.AttackProblem]):
        return lambda: solver.solve(build(), self.config)

    def merged(self, rng, h: int, w: int, bits: int) -> Op:
        """Merged attack on a fresh victim: the attacker holds the stolen
        template and its password and starts from an unrelated anchor."""
        victim, anchor, pw = noise_image(rng, h, w), noise_image(rng, h, w), _password(rng)
        t = pipeline.enroll(victim, pw, bits)
        return Op(
            "merged",
            self.attack(lambda: problems.build_merged(anchor, t, password=pw.encode())),
            lambda r: check_image_attack(r, [(t, pw)]),
        )


class FaceEnroll(Workload):
    """Scheme traffic at face size.  One cycle: user A enrolls, presents a
    fresh capture and then the enrolled image again under the same
    password, and is revoked by re-enrolling under a new one; user B
    enrolls with an orthonormalized matrix."""

    name = "face-enroll"
    prepared_cycles = 2

    def make_cycle(self, rng) -> list[Op]:
        face, face_b = face_image(rng), face_image(rng)
        probe = probe_of(rng, face)
        pw, pw_new, pw_b = _password(rng), _password(rng), _password(rng)
        enrolled: dict[str, Template] = {}

        def enroll():
            enrolled["t"] = pipeline.enroll(face, pw, FACE_BITS)
            return enrolled["t"]

        def check_enroll(t) -> Outcome:
            if len(t) != FACE_BITS:
                return Outcome(ok=False, wrong="template has the wrong length")
            return Outcome(ok=True)

        def present(image):
            def run():
                got = pipeline.enroll(image, pw, FACE_BITS)
                return got, pipeline.verify(enrolled["t"], got, FACE_THRESHOLD)

            return run

        def check_verify(result, same: bool) -> Outcome:
            got, decision = result
            distance = int(np.count_nonzero(got.bits != enrolled["t"].bits))
            if decision.distance != distance or decision.accepted != (distance <= FACE_THRESHOLD):
                return Outcome(ok=False, wrong="verify decision disagrees with the Hamming distance")
            if same and got != enrolled["t"]:
                return Outcome(ok=False, wrong="re-enrolling the same face and password changed the template")
            return Outcome(ok=True)

        def check_revoke(t) -> Outcome:
            if t == enrolled["t"]:
                return Outcome(ok=False, wrong="revoked template equals the original")
            return Outcome(ok=True)

        return [
            Op("enroll", enroll, check_enroll),
            Op("verify", present(probe), lambda r: check_verify(r, same=False)),
            Op("verify", present(face), lambda r: check_verify(r, same=True)),
            Op("revoke", lambda: pipeline.enroll(face, pw_new, FACE_BITS), check_revoke),
            Op(
                "enroll_ortho",
                lambda: pipeline.enroll(face_b, pw_b, FACE_BITS, orthonormalize=True),
                check_enroll,
            ),
        ]


class AttackDesk(Workload):
    """Desk-scale attacks under a mid-size budget: merged and multi-auth on
    2x5 images with 20 bits, image phase on 2x5, multi-collision on 4x4
    with two 8-bit victims."""

    name = "attack-desk"
    config = solver.SolverConfig(restarts=1, max_outer_iterations=6, repair_budget=10, time_limit=60.0)
    checked_cycles = 18
    prepared_cycles = 24

    def make_cycle(self, rng) -> list[Op]:
        h, w, bits = 2, 5, 20
        ops = [self.merged(rng, h, w, bits)]

        shared_pw = _password(rng)
        victims = [noise_image(rng, h, w) for _ in range(AUTH_VICTIMS)]
        templates = [pipeline.enroll(v, shared_pw, bits) for v in victims]
        auth_anchor = noise_image(rng, h, w)

        def multi_auth():
            center = problems.hamming_center(templates, AUTH_EPSILON)
            problem = problems.build_multi_auth(auth_anchor, center.center, password=shared_pw.encode())
            return solver.solve(problem, self.config), center.members

        ops.append(Op("multi_auth", multi_auth, lambda r: check_multi_auth(r, shared_pw, templates)))

        img_victim, img_anchor, img_pw = noise_image(rng, h, w), noise_image(rng, h, w), _password(rng)
        target = pipeline.sobel(img_victim)
        img_t = pipeline.enroll(img_victim, img_pw, bits)
        ops.append(
            Op(
                "image_phase",
                self.attack(lambda: problems.build_image_phase(img_anchor, target)),
                lambda r: check_image_attack(r, [(img_t, img_pw)], lambda x: features_match(x, target)),
            )
        )

        pairs = []
        for _ in range(2):
            v, vpw = noise_image(rng, 4, 4), _password(rng)
            pairs.append((pipeline.enroll(v, vpw, 8), vpw))
        mc_anchor = noise_image(rng, 4, 4)
        ops.append(
            Op(
                "multi_collision",
                self.attack(
                    lambda: problems.build_multi_collision(mc_anchor, [(t_, p.encode()) for t_, p in pairs])
                ),
                lambda r: check_image_attack(r, pairs),
            )
        )
        return ops


class AttackRepair(Workload):
    """Merged 4x6/20 with one restart and two outer rounds: the integer
    repair (single, pair and triple moves; n = 24) dominates."""

    name = "attack-repair"
    config = solver.SolverConfig(restarts=1, max_outer_iterations=2, repair_budget=12, time_limit=60.0)
    checked_cycles = 32
    prepared_cycles = 128

    def make_cycle(self, rng) -> list[Op]:
        return [self.merged(rng, 4, 6, 20)]


class AttackScale(Workload):
    """Per cycle, one feature-phase attack at 32x32/64 (matrix derivation
    plus the QP) and two merged 16x16/64 attacks, whose dense-operator
    continuous stage dominates."""

    name = "attack-scale"
    config = solver.SolverConfig(restarts=1, max_outer_iterations=10, repair_budget=5, time_limit=120.0)
    checked_cycles = 6
    prepared_cycles = 6

    def make_cycle(self, rng) -> list[Op]:
        victim, anchor, pw = noise_image(rng, 32, 32), noise_image(rng, 32, 32), _password(rng)
        stolen = pipeline.enroll(victim, pw, 64)
        anchor_feature = pipeline.sobel(anchor)

        def feature_phase():
            matrix = prng.derive_matrix(pw, anchor.n, len(stolen))
            problem = problems.build_feature_phase(anchor_feature, stolen, matrix, password=pw.encode())
            return solver.solve(problem, self.config), problem

        return [
            Op("feature_phase", feature_phase, check_feature_attack),
            self.merged(rng, 16, 16, 64),
            self.merged(rng, 16, 16, 64),
        ]


WORKLOADS = {w.name: w for w in (FaceEnroll, AttackDesk, AttackRepair, AttackScale)}
