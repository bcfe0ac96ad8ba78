"""Solvers for the attack programs, with forward-pipeline certification.

Two engines:

* :func:`solve_qp` - the convex feature-phase program (closest point of
  a polyhedron).  A dual projected-gradient loop with Nesterov momentum
  gets near the optimum, an active-set refinement lands exactly on the
  optimal face, and a Farkas-style certificate flags infeasible sign
  patterns.

* :func:`solve_qcqp` - the non-convex image programs.  Each restart
  (the first from the anchor, later ones from perturbations of it) runs
  one continuous pass: a relaxation of the pixels with an augmented
  Lagrangian over the squared gradient-magnitude equalities and the sign
  inequalities, whose margin is inflated so that the rounding lands
  inside the sign cone (inner loop: spectral projected gradient, one
  forward pass per trial point).  The rounded pass goes through a greedy
  integer repair over single-pixel moves and, on small images,
  coordinated two- and three-pixel moves, scored by (mismatched bits,
  constraint violation, objective).  A move changes only the features
  around its pixels, so the repair scores each candidate from those
  features alone.  The best certificate of all restarts gets a last
  repair and, on images of at most 13 pixels, a window polish that
  searches the whole integer box around it, split into two halves of
  the pixels whose objective and gradient shares are tabulated once and
  summed per candidate (meet in the middle), in batches of bounded size.

Every stage applies the two Sobel convolutions through
:class:`SobelStencil`: 8-slot gather tables (the ELL sparse format), so
memory stays O(n) and no dense n x n operator is built; the window
polish takes the operator columns of its halves from the stencil too.
The repair's gradients of integer pixels are exact in any order, but the
continuous stage still sums each slot product as a BLAS call, so its
iterates are not yet independent of the BLAS build.

A candidate only counts as a success when re-running the full forward
pipeline reproduces every target template bit-for-bit; that check is the
ground truth, never the solver's internal bookkeeping.  :func:`certify`
alone runs it: sobel -> project -> binarize through each victim's stored
matrix, which the builders guarantee is the password's derivation.  The
repair scorers' exact checks call it.  In
:func:`solve_qcqp` a certificate comes from one of three places: the
anchor itself, checked once before any restart; the integer repair,
which checks every move that clears all mismatches (and its starting
rounding); and the window polish.  The continuous stage never certifies:
its iterates reach a certificate only through the repair of their
rounding.  All reported statuses short of certification are advisory:
the non-convex stage cannot prove infeasibility.

Determinism: with a fixed ``rng_seed`` the whole pipeline is
deterministic as long as the time limit does not bite (the clock is
polled only at coarse stage boundaries).
"""

from __future__ import annotations

import itertools
import math
import numbers
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .pipeline import (
    SOBEL_X,
    SOBEL_Y,
    GrayImage,
    PipelineError,
    Template,
    binarize,
    convolve,
    enroll,  # noqa: F401  not called; the benchmark hook test asserts solver.enroll is pipeline.enroll
    project,
    sobel,
)
from .problems import AttackProblem, ProblemKind, SignConstraintSet

_PIXEL_SCALE = 255.0
#: Scaled upper bound for the auxiliary magnitude variables; slightly
#: above the largest attainable gradient magnitude (4 * 255 * sqrt(2)).
_Y_BOUND = 4.0 * np.sqrt(2.0) * 1.01
#: Extra margin (raw pixel units) imposed on the sign constraints in the
#: continuous stage, the one continuous pass of each restart, so the
#: rounded iterate lands inside the feasible cone instead of on its
#: boundary.  The integer repair and the window polish then walk the
#: objective back down under the problem's own margin.
_CONTINUOUS_MARGIN = 4.0
#: Absolute tolerance on |S^2 - target^2| under which an integer image
#: counts as matching a target feature.  Squared magnitudes of integer
#: images are integers, so 0.5 separates exact preimages from everything
#: else while tolerating the float round-trip of squaring a square root.
_IMAGE_CERT_TOL = 0.5

_INNER_ITERS = 250
_QP_MAX_ITERS = 60_000
_RHO_INIT = 10.0
_RHO_MAX = 1e9
#: Factor by which the continuous stage raises the penalty after a round
#: that cut the constraint violation by less than a quarter.
_PENALTY_GROWTH = 4.0
#: Violation under which a continuous iterate counts as feasible, and the
#: feature QP's relative primal and duality-gap tolerance.
_FEASIBILITY_TOL = 1e-7


class SolverError(ValueError):
    """Configuration or problem/solver mismatch."""


class SolveStatus(Enum):
    CERTIFIED_FEASIBLE = "certified_feasible"
    CONTINUOUS_ONLY = "continuous_only"
    INFEASIBLE = "infeasible"
    TIMED_OUT = "timed_out"


@dataclass(frozen=True)
class SolverConfig:
    time_limit: float = 150.0
    max_outer_iterations: int = 30
    repair_budget: int = 20_000
    rng_seed: int = 1
    restarts: int = 8

    def __post_init__(self):
        # A JSON config file can hold a string, null, bool or float for any
        # field; reject the wrong kind here, not with a TypeError mid-solve.
        # bool is an int subclass.
        for name in ("max_outer_iterations", "repair_budget", "rng_seed", "restarts"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise SolverError(f"{name} must be an integer, got {value!r}")
        if isinstance(self.time_limit, bool) or not isinstance(self.time_limit, numbers.Real):
            raise SolverError(f"time_limit must be a number, got {self.time_limit!r}")
        # NaN compares False with everything, so it would slip past the
        # range checks below (a NaN time limit never expires).
        if not math.isfinite(self.time_limit):
            raise SolverError("time_limit must be finite")
        if self.time_limit <= 0:
            raise SolverError("time_limit must be positive")
        lows = (("restarts", 1), ("max_outer_iterations", 1), ("rng_seed", 0), ("repair_budget", 0))
        for name, low in lows:
            value = getattr(self, name)
            if value < low:
                raise SolverError(f"{name} must be at least {low}, got {value!r}")


@dataclass(frozen=True)
class SolveReport:
    status: SolveStatus
    solution: GrayImage | np.ndarray | None
    objective: float
    wall_time: float
    certification: dict[str, bool] = field(default_factory=dict)

    @property
    def certified(self) -> bool:
        return self.status is SolveStatus.CERTIFIED_FEASIBLE

    @property
    def euclidean_distance(self) -> float:
        """sqrt(objective), the solution's distance from the anchor."""
        return math.sqrt(self.objective)


def report_to_json(report: SolveReport) -> dict:
    from .pgm import dumps_pgm

    if report.solution is None:
        solution = None
    elif isinstance(report.solution, GrayImage):
        solution = {"type": "image", "pgm": dumps_pgm(report.solution)}
    else:
        solution = {"type": "feature", "values": [float(v) for v in report.solution]}

    def finite(v: float) -> float | None:
        return float(v) if np.isfinite(v) else None

    return {
        "status": report.status.value,
        "objective": finite(report.objective),
        "euclidean_distance": finite(report.euclidean_distance),
        "wall_time": report.wall_time,
        "certification": dict(report.certification),
        "solution": solution,
    }


# ---------------------------------------------------------------------------
# Linearized gradient operators


@lru_cache(maxsize=64)
def conv_operators(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense matrices applying the two gradient convolutions to a
    flattened image; built through the forward pipeline itself so the
    solver's linear algebra cannot drift from the oracle's.

    This is the dense reference for :class:`SobelStencil`, which is what
    the solver itself uses."""
    n = height * width
    a1 = np.zeros((n, n))
    a2 = np.zeros((n, n))
    basis = np.zeros((height + 2, width + 2))
    for k in range(n):
        basis[1 + k // width, 1 + k % width] = 1.0
        a1[:, k] = convolve(SOBEL_X, basis).reshape(-1)
        a2[:, k] = convolve(SOBEL_Y, basis).reshape(-1)
        basis[1 + k // width, 1 + k % width] = 0.0
    a1.flags.writeable = False
    a2.flags.writeable = False
    return a1, a2


#: The kernels flipped as :func:`convolve` flips them, stacked as (3, 3, 2):
#: entry [a, b] weights the neighbour at offset (a - 1, b - 1) in A1 and A2.
_FLIPPED = np.stack([SOBEL_X[::-1, ::-1], SOBEL_Y[::-1, ::-1]], axis=-1)
#: (a, b) of the 8 neighbours that either kernel weights.
_TAPS = np.argwhere(_FLIPPED.any(axis=-1))


@lru_cache(maxsize=64)
def _stencil_tables(height: int, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only forward and adjoint tables of :class:`SobelStencil`, and
    the adjoint's positions in a flattened (n + 1, 2) buffer."""
    n = height * width
    row, col = np.divmod(np.arange(n), width)
    tables = []
    for sign in (1, -1):
        r = row[:, None] + sign * (_TAPS[:, 0] - 1)
        c = col[:, None] + sign * (_TAPS[:, 1] - 1)
        inside = (r >= 0) & (r < height) & (c >= 0) & (c < width)
        tables.append(np.where(inside, r * width + c, n))
    forward, adjoint = tables
    pairs = (2 * adjoint[:, :, None] + np.arange(2)).reshape(n, -1)
    for t in (forward, adjoint, pairs):
        t.flags.writeable = False
    return forward, adjoint, pairs


class SobelStencil:
    """The two gradient convolutions A1, A2 of a height x width image as
    padded gather tables (the ELL sparse format).

    ``weights`` holds, for each of the 8 neighbour offsets that either
    kernel weights, the pair (A1 weight, A2 weight), taken from the
    pipeline's own kernels.  ``forward[p, k]`` is the pixel that feature
    p reads through slot k, and ``adjoint[q, k]`` the feature that pixel q
    feeds through slot k.  Slots that fall off the image point at index
    n, a zero sentinel.

    ``apply`` and ``transpose`` pad their input into buffers the instance
    owns, so an instance serves one caller at a time.
    """

    weights = _FLIPPED[_TAPS[:, 0], _TAPS[:, 1]]
    weights.flags.writeable = False
    _pair_weights = weights.reshape(-1)

    def __init__(self, height: int, width: int):
        n = height * width
        self.n = n
        self.forward, self.adjoint, self._pair_index = _stencil_tables(height, width)
        x_pad, r_pad = np.zeros(n + 1), np.zeros((n + 1, 2))
        # apply and transpose write their input into the first n rows; the
        # last row is the sentinel and stays zero.
        self._x_pad, self._x_head = x_pad, x_pad[:n]
        self._r_flat, self._r_head = r_pad.reshape(-1), r_pad[:n]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """(n, 2) array whose columns are u = A1 x and v = A2 x."""
        self._x_head[...] = x
        return self._x_pad[self.forward] @ self.weights

    def transpose(self, r: np.ndarray, scale: np.ndarray | None = None) -> np.ndarray:
        """A1^T r[:, 0] + A2^T r[:, 1] for an (n, 2) array r, with each row
        of r first multiplied by ``scale`` when it is given."""
        if scale is None:
            self._r_head[...] = r
        else:
            np.multiply(r, scale[:, None], out=self._r_head)
        return self._r_flat[self._pair_index] @ self._pair_weights

    def entries(self, features: np.ndarray, pixels: np.ndarray) -> np.ndarray:
        """Operator entries (A1[f, p], A2[f, p]) for broadcast index
        arrays ``features`` and ``pixels``; shape (..., 2)."""
        hit = self.adjoint[pixels] == np.asarray(features)[..., None]
        return hit.astype(np.float64) @ self.weights


# ---------------------------------------------------------------------------
# Certification


def _signs_match(feature: np.ndarray, cs: SignConstraintSet) -> bool:
    """Whether the feature's binarized projections are cs's template.
    Problems hold finite matrices and features, but a projection can
    still overflow to NaN; one with no sign matches no template."""
    try:
        return binarize(project(feature, cs.matrix)) == cs.template
    except PipelineError:
        return False


def certify(candidate: GrayImage, problem: AttackProblem) -> dict[str, bool]:
    """Ground-truth success map for a candidate image.

    Sign problems get one entry per victim: sobel -> project -> binarize
    re-run through the victim's stored matrix, which the builders
    guarantee is the password's derivation, must give the template.  The
    image-phase problem gets a single ``feature`` entry comparing
    squared gradient magnitudes against the target.
    """
    if (candidate.height, candidate.width) != (problem.height, problem.width):
        raise SolverError("candidate dimensions do not match the problem")
    feat = sobel(candidate)
    if problem.kind is ProblemKind.IMAGE_PHASE:
        resid = np.abs(feat**2 - problem.target_feature**2)
        return {"feature": bool(resid.max(initial=0.0) <= _IMAGE_CERT_TOL)}
    return {str(i): _signs_match(feat, cs) for i, cs in enumerate(problem.constraint_sets)}


# ---------------------------------------------------------------------------
# Feature-phase QP


def _qp_constraints(problem: AttackProblem) -> tuple[np.ndarray, np.ndarray]:
    """Rows g, offsets c with the feasible set {x >= 0 : g @ x <= c}."""
    cs = problem.constraint_sets[0]
    mat = cs.matrix
    g = np.vstack([mat[:, cs.zero_idx].T, -mat[:, cs.one_idx].T])
    c = np.concatenate(
        [np.full(cs.zero_idx.size, -problem.delta), np.zeros(cs.one_idx.size)]
    )
    return g, c


def _active_set_polish(
    a: np.ndarray, g: np.ndarray, c: np.ndarray, x0: np.ndarray, tol: float
) -> np.ndarray | None:
    """Exact projection onto the polyhedron via primal active-set steps,
    seeded near the optimum.  Returns None if the working set cycles."""
    n = a.size
    slack0 = c - g @ x0
    active = set(np.flatnonzero(slack0 <= 10 * tol + 1e-9))
    bound = set(np.flatnonzero(x0 <= 10 * tol + 1e-9))
    for _ in range(120):
        act = sorted(active)
        free = np.array(sorted(set(range(n)) - bound), dtype=np.intp)
        x = np.zeros(n)
        nu = np.zeros(len(act))
        if free.size:
            if act:
                ga = g[np.array(act, dtype=np.intp)][:, free]
                rhs = ga @ a[free] - c[np.array(act, dtype=np.intp)]
                try:
                    nu = np.linalg.lstsq(ga @ ga.T / 2.0, rhs, rcond=None)[0]
                except np.linalg.LinAlgError:
                    return None
                x[free] = a[free] - ga.T @ nu / 2.0
            else:
                x[free] = a[free]
        # Multipliers of the active bounds from stationarity.
        grad = 2.0 * (x - a)
        if act:
            grad += g[np.array(act, dtype=np.intp)].T @ nu
        changed = False
        worst_drop, worst_val = None, -1e-9
        for j, row in enumerate(act):
            if nu[j] < worst_val:
                worst_val, worst_drop = nu[j], ("c", row)
        for i in sorted(bound):
            if grad[i] < worst_val:
                worst_val, worst_drop = grad[i], ("b", i)
        if worst_drop is not None:
            kind, idx = worst_drop
            (active if kind == "c" else bound).discard(idx)
            changed = True
        else:
            viol = g @ x - c
            adds = np.flatnonzero(viol > 1e-11)
            neg = np.flatnonzero(x < -1e-11)
            if adds.size:
                active.add(int(adds[np.argmax(viol[adds])]))
                changed = True
            if neg.size:
                bound.update(int(i) for i in neg)
                changed = True
        if not changed:
            return np.maximum(x, 0.0)
    return None


def _sign_score(x: np.ndarray, problem: AttackProblem) -> tuple[int, float]:
    cs = problem.constraint_sets[0]
    proj = project(x, cs.matrix)
    wrong = int((proj[cs.zero_idx] >= 0).sum() + (proj[cs.one_idx] < 0).sum())
    worst = max(
        float(np.maximum(proj[cs.zero_idx], 0.0).max(initial=0.0)),
        float(np.maximum(-proj[cs.one_idx], 0.0).max(initial=0.0)),
    )
    return wrong, worst


def _nudge_onto_signs(x: np.ndarray, problem: AttackProblem, kappa: float) -> np.ndarray:
    """Lift every non-negative-side projection sitting at or just below
    zero to a small positive value in one joint correction; keep the
    result only if the overall sign picture improves."""
    cs = problem.constraint_sets[0]
    mat = cs.matrix
    best = x
    best_score = _sign_score(x, problem)
    cur = x
    for _ in range(8):
        proj = project(cur, mat)
        if not (proj[cs.one_idx] < 0).any():
            break
        group = cs.one_idx[proj[cs.one_idx] < kappa]
        cols = mat[:, group]
        try:
            w = np.linalg.lstsq(cols.T @ cols, kappa - proj[group], rcond=None)[0]
        except np.linalg.LinAlgError:
            break
        cur = np.maximum(0.0, cur + cols @ w)
        score = _sign_score(cur, problem)
        if score < best_score:
            best, best_score = cur, score
    return best


def solve_qp(problem: AttackProblem, config: SolverConfig | None = None) -> SolveReport:
    """Closest non-negative feature vector satisfying the sign pattern.

    Dual projected gradient with momentum, then an active-set polish;
    certification re-binarizes the solution's projections.
    """
    if problem.kind is not ProblemKind.FEATURE_PHASE:
        raise SolverError(f"solve_qp expects a feature-phase problem, got {problem.kind}")
    config = config or SolverConfig()
    start = time.monotonic()
    deadline = start + config.time_limit
    a = np.asarray(problem.anchor_feature, dtype=np.float64)
    cs = problem.constraint_sets[0]
    g, c = _qp_constraints(problem)
    scale = max(1.0, float(np.linalg.norm(a)))
    tol_p = _FEASIBILITY_TOL * scale
    lip = max(1e-12, float(np.linalg.norm(g, 2)) ** 2 / 2.0)
    step = 1.0 / lip

    def primal(lam: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, a - 0.5 * (g.T @ lam))

    lam = np.zeros(g.shape[0])
    mom = lam.copy()
    t_mom = 1.0
    status = SolveStatus.CONTINUOUS_ONLY
    x = primal(lam)
    prev_norm = 0.0
    growth_checks = 0
    for it in range(_QP_MAX_ITERS):
        grad = g @ primal(mom) - c
        lam_new = np.maximum(0.0, mom + step * grad)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
        mom = lam_new + ((t_mom - 1.0) / t_new) * (lam_new - lam)
        if (mom - lam_new) @ (lam_new - lam) > 0:  # momentum restart
            mom = lam_new.copy()
            t_new = 1.0
        lam, t_mom = lam_new, t_new
        if it % 128 == 0 or it == _QP_MAX_ITERS - 1:
            x = primal(lam)
            resid = g @ x - c
            pviol = float(np.maximum(resid, 0.0).max(initial=0.0))
            gap = abs(float(lam @ resid))
            if pviol <= tol_p and gap <= tol_p * scale:
                break
            # An unbounded dual ray is the footprint of an empty feasible
            # set.  Track sustained norm growth; once the direction has
            # had time to stabilize, test it as a Farkas certificate:
            # y >= 0 with G^T y >= 0 and c.y < 0 proves infeasibility.
            norm = float(np.linalg.norm(lam))
            if norm > max(1.0, prev_norm * (1.0 + 1e-9)):
                growth_checks += 1
            else:
                growth_checks = 0
            prev_norm = norm
            if growth_checks >= 20 or norm > 1e4 * scale:
                y = lam / norm
                if (g.T @ y).min(initial=0.0) >= -1e-10 and c @ y < 0.0:
                    status = SolveStatus.INFEASIBLE
                    break
            if time.monotonic() > deadline:
                status = SolveStatus.TIMED_OUT
                break

    if status not in (SolveStatus.INFEASIBLE, SolveStatus.TIMED_OUT):
        # Bias the zero-threshold rows a hair into their strict interior
        # before the exact polish, so float noise cannot flip the active
        # ones to the wrong side of the binarization threshold.
        kappa = 1e-10 * scale
        c_solve = np.where(c == 0.0, -kappa, c)
        polished = _active_set_polish(a, g, c_solve, x, tol_p)
        if polished is not None:
            pv_new = float(np.maximum(g @ polished - c, 0.0).max(initial=0.0))
            pv_old = float(np.maximum(g @ x - c, 0.0).max(initial=0.0))
            obj_new = float(np.sum((polished - a) ** 2))
            obj_old = float(np.sum((x - a) ** 2))
            # The polish verifies KKT, which certifies optimality here;
            # the dual iterate may be slightly infeasible, so its lower
            # objective is no reason to reject the polished point.  Only
            # guard against a degenerate linear solve blowing up.
            if pv_new <= max(1e-9 * scale, pv_old) and obj_new <= 1.01 * obj_old + scale:
                x = polished
        x = _nudge_onto_signs(x, problem, kappa)

    if status is SolveStatus.INFEASIBLE:
        return SolveReport(
            status=status,
            solution=None,
            objective=float("inf"),
            wall_time=time.monotonic() - start,
            certification={"0": False},
        )
    certified = _signs_match(x, cs)
    if certified:
        status = SolveStatus.CERTIFIED_FEASIBLE
    objective = float(np.sum((x - a) ** 2))
    return SolveReport(
        status=status,
        solution=x,
        objective=objective,
        wall_time=time.monotonic() - start,
        certification={"0": bool(certified)},
    )


# ---------------------------------------------------------------------------
# Continuous models (scaled units: pixels / 255)


class MergedModel:
    """Augmented Lagrangian of the sign-constrained image programs.

    Variables are the scaled pixels followed by the scaled magnitude
    auxiliaries: z = [x (n), y (n)].  Equalities y_p^2 = u_p^2 + v_p^2
    tie the auxiliaries to the gradients; inequalities put each victim's
    sign pattern on y's projections.
    """

    def __init__(self, problem: AttackProblem, margin: float | None = None):
        self.n = problem.n
        self.stencil = SobelStencil(problem.height, problem.width)
        self.anchor = problem.anchor_image.flat() / _PIXEL_SCALE
        margin = problem.delta if margin is None else margin
        rows, offs = [], []
        for cs in problem.constraint_sets:
            rows.append(cs.matrix[:, cs.zero_idx].T)
            offs.append(np.full(cs.zero_idx.size, margin / _PIXEL_SCALE))
            rows.append(-cs.matrix[:, cs.one_idx].T)
            offs.append(np.full(cs.one_idx.size, margin / _PIXEL_SCALE))
        self.rows = np.vstack(rows)
        self.offsets = np.concatenate(offs)
        self.n_eq = self.n
        self.n_ineq = self.rows.shape[0]
        self.lower = np.zeros(2 * self.n)
        self.upper = np.concatenate([np.ones(self.n), np.full(self.n, _Y_BOUND)])

    def initial_point(self, x_scaled: np.ndarray) -> np.ndarray:
        u, v = self.stencil.apply(x_scaled).T
        return np.concatenate([x_scaled, np.sqrt(u * u + v * v)])

    def project(self, z: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(z, self.lower), self.upper)

    def _forward(self, z: np.ndarray):
        x, y = z[: self.n], z[self.n :]
        uv = self.stencil.apply(x)
        u, v = uv.T
        h = y * y - u * u - v * v
        g = self.rows @ y + self.offsets
        return uv, h, g

    def residuals(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        _, h, g = self._forward(z)
        return h, g

    def evaluate(self, z, lam, mu, rho, mu_sq=None):
        """Augmented Lagrangian value at ``z`` from one forward pass, and a
        function that forms the gradient there from the same arrays.
        ``mu_sq`` is ``mu @ mu`` when the caller already has it."""
        y = z[self.n :]
        uv, h, g = self._forward(z)
        hinge = np.maximum(0.0, mu + rho * g)
        if mu_sq is None:
            mu_sq = mu @ mu
        dx = z[: self.n] - self.anchor
        # np.add.reduce is np.sum without its Python-level dispatch, which
        # costs as much as the sum itself at desk sizes.
        value = float(
            np.add.reduce(dx * dx) + lam @ h + 0.5 * rho * h @ h + (hinge @ hinge - mu_sq) / (2.0 * rho)
        )

        def grad() -> np.ndarray:
            w = lam + rho * h
            gx = 2.0 * dx - 2.0 * self.stencil.transpose(uv, w)
            gy = 2.0 * w * y + self.rows.T @ hinge
            return np.concatenate([gx, gy])

        return value, grad

    def al_value(self, z, lam, mu, rho) -> float:
        return self.evaluate(z, lam, mu, rho)[0]

    def al_grad(self, z, lam, mu, rho) -> np.ndarray:
        return self.evaluate(z, lam, mu, rho)[1]()


class ImageModel:
    """Augmented Lagrangian of the feature-matching image program:
    squared gradient magnitudes must equal the target feature squared.
    Variables are the scaled pixels only."""

    def __init__(self, problem: AttackProblem):
        self.n = problem.n
        self.stencil = SobelStencil(problem.height, problem.width)
        self.anchor = problem.anchor_image.flat() / _PIXEL_SCALE
        self.target_sq = (problem.target_feature / _PIXEL_SCALE) ** 2
        self.n_eq = self.n
        self.n_ineq = 0
        self.lower = np.zeros(self.n)
        self.upper = np.ones(self.n)

    def initial_point(self, x_scaled: np.ndarray) -> np.ndarray:
        return x_scaled.copy()

    def project(self, z: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(z, 0.0), 1.0)

    def _forward(self, z: np.ndarray):
        uv = self.stencil.apply(z)
        u, v = uv.T
        return uv, u * u + v * v - self.target_sq

    def residuals(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._forward(z)[1], np.zeros(0)

    def evaluate(self, z, lam, mu, rho, mu_sq=None):
        """Value at ``z`` and a gradient function, as in
        :meth:`MergedModel.evaluate`; there are no inequalities."""
        uv, h = self._forward(z)
        dz = z - self.anchor
        value = float(np.add.reduce(dz * dz) + lam @ h + 0.5 * rho * h @ h)

        def grad() -> np.ndarray:
            w = lam + rho * h
            return 2.0 * dz + 2.0 * self.stencil.transpose(uv, w)

        return value, grad

    def al_value(self, z, lam, mu, rho) -> float:
        return self.evaluate(z, lam, mu, rho)[0]

    def al_grad(self, z, lam, mu, rho) -> np.ndarray:
        return self.evaluate(z, lam, mu, rho)[1]()


def _spg_minimize(model, z0, lam, mu, rho, max_iter, tol, deadline):
    """Spectral projected gradient (Barzilai-Borwein step, nonmonotone
    Armijo over the last 8 values).  Each trial point costs one forward
    pass; the gradient is formed only at the accepted one."""
    z = model.project(z0)
    mu_sq = mu @ mu
    f, grad_at = model.evaluate(z, lam, mu, rho, mu_sq)
    grad = grad_at()
    alpha = 1.0 / max(1e-10, float(np.abs(grad).max(initial=0.0)))
    history = [f]
    for it in range(max_iter):
        d = model.project(z - alpha * grad) - z
        if float(np.abs(d).max(initial=0.0)) <= tol:
            break
        gtd = float(grad @ d)
        step_len = 1.0
        f_ref = max(history)
        while True:
            zn = z + step_len * d
            fn, grad_at = model.evaluate(zn, lam, mu, rho, mu_sq)
            if fn <= f_ref + 1e-4 * step_len * gtd or step_len < 1e-12:
                break
            step_len *= 0.5
        gn = grad_at()
        s = zn - z
        yv = gn - grad
        sy = float(s @ yv)
        alpha = min(1e8, max(1e-12, float(s @ s) / sy)) if sy > 1e-18 else min(1e8, 4.0 * alpha)
        z, f, grad = zn, fn, gn
        history.append(f)
        if len(history) > 8:
            history.pop(0)
        if it % 64 == 0 and time.monotonic() > deadline:
            break
    return z


def _continuous_stage(model, z0, config, deadline):
    """Outer augmented-Lagrangian loop; returns the last iterate and the
    smallest constraint violation of any round."""
    lam = np.zeros(model.n_eq)
    mu = np.zeros(model.n_ineq)
    rho = _RHO_INIT
    z = model.project(z0)
    best_vio = np.inf
    for _ in range(config.max_outer_iterations):
        inner_tol = max(1e-10, 1e-4 / rho)
        z = _spg_minimize(model, z, lam, mu, rho, _INNER_ITERS, inner_tol, deadline)
        h, g = model.residuals(z)
        vio = max(
            float(np.abs(h).max(initial=0.0)), float(np.maximum(g, 0.0).max(initial=0.0))
        )
        if vio <= _FEASIBILITY_TOL:
            best_vio = min(best_vio, vio)
            break
        if vio <= 0.25 * best_vio or not np.isfinite(best_vio):
            lam = lam + rho * h
            if model.n_ineq:
                mu = np.maximum(0.0, mu + rho * g)
        else:
            rho = min(_RHO_MAX, rho * _PENALTY_GROWTH)
        best_vio = min(best_vio, vio)
        if time.monotonic() > deadline:
            break
    return z, best_vio


# ---------------------------------------------------------------------------
# Integer repair


class _Scorer:
    """What the sign and feature scorers share: the problem, its gradient
    operators and anchor, and the repair's move tables."""

    def __init__(self, problem: AttackProblem):
        self.problem = problem
        self.stencil = SobelStencil(problem.height, problem.width)
        self.anchor = problem.anchor_image.flat().astype(np.float64)

    @property
    def move_groups(self) -> tuple[tuple[np.ndarray, tuple[_MoveChunk, ...]], ...]:
        return _move_groups(self.problem.height, self.problem.width)

    def _local_sq(self, state, feats, du, dv) -> np.ndarray:
        """u^2 + v^2 on each candidate's footprint, shape (tuples, steps,
        footprint)."""
        sq = state.u[feats][:, None, :] + du
        sq *= sq
        vv = state.v[feats][:, None, :] + dv
        vv *= vv
        sq += vv
        return sq


def _exact_certified(scorer: _Scorer, pixels: np.ndarray) -> bool:
    """Whether :func:`certify` passes the pixels on every entry.  Each
    scorer binds this in its own class body, where benchmark hooks look."""
    problem = scorer.problem
    image = GrayImage(problem.width, problem.height, pixels.reshape(problem.height, problem.width))
    return all(certify(image, problem).values())


class _SignScorer(_Scorer):
    """Scoring of integer candidates for sign-constrained problems; exact
    confirmation goes through the forward pipeline.

    ``score_batch`` scores whole gradient fields.  ``local_state`` and
    ``local_scores`` serve the repair: the state keeps its magnitudes s
    and projections proj, and a move that changes the features F is
    scored from ``proj + (s_new[F] - s[F]) @ M[F]``."""

    def __init__(self, problem: AttackProblem):
        super().__init__(problem)
        self.big_m = np.hstack([cs.matrix for cs in problem.constraint_sets])
        want_zero = np.concatenate([cs.template.bits == 0 for cs in problem.constraint_sets])
        self.want_one = ~want_zero
        # Hinge term of bit j: max(0, sign_j * proj_j + offset_j), i.e.
        # proj + delta for a 0 bit and -proj for a 1 bit.
        self.sign = np.where(want_zero, 1.0, -1.0)
        self.offset = np.where(want_zero, problem.delta, 0.0)

    def _terms(self, proj, out=None):
        """(mismatched bits, hinge violation) along the last axis; ``out``
        may be ``proj`` itself when the caller no longer needs it."""
        bits = proj >= 0
        mism = np.count_nonzero(np.not_equal(bits, self.want_one, out=bits), axis=-1)
        hinge = np.multiply(proj, self.sign, out=out)
        hinge += self.offset
        np.maximum(hinge, 0.0, out=hinge)
        return mism, hinge.sum(axis=-1)

    def score_batch(self, u_batch, v_batch):
        """Mismatched bits of each row of gradient fields."""
        s = u_batch * u_batch
        s += v_batch * v_batch
        proj = np.sqrt(s, out=s) @ self.big_m
        return np.count_nonzero(np.not_equal(proj >= 0, self.want_one), axis=-1)

    def local_state(self, u, v):
        s = np.sqrt(u * u + v * v)
        proj = s @ self.big_m
        mism, viol = self._terms(proj)
        return int(mism), float(viol), (s, proj)

    def local_scores(self, state, feats, du, dv):
        s, proj = state.local
        ds = self._local_sq(state, feats, du, dv)
        np.sqrt(ds, out=ds)
        ds -= s[feats][:, None, :]
        moved = ds @ self.big_m[feats]
        moved += proj
        return self._terms(moved, out=moved)

    exact_certified = _exact_certified


class _FeatureScorer(_Scorer):
    """Scoring against a target feature (image-phase repair).  The repair
    state keeps the per-feature residuals; a move adds the change of the
    residuals on its features to the state's totals."""

    def __init__(self, problem: AttackProblem):
        super().__init__(problem)
        self.target_sq = np.asarray(problem.target_feature, dtype=np.float64) ** 2

    def score_batch(self, u_batch, v_batch):
        """Mismatched features of each row of gradient fields."""
        resid = u_batch * u_batch
        resid += v_batch * v_batch
        resid -= self.target_sq
        np.abs(resid, out=resid)
        return np.count_nonzero(resid > _IMAGE_CERT_TOL, axis=-1)

    def local_state(self, u, v):
        resid = np.abs(u * u + v * v - self.target_sq)
        return int(np.count_nonzero(resid > _IMAGE_CERT_TOL)), float(resid.sum()), resid

    def local_scores(self, state, feats, du, dv):
        new = self._local_sq(state, feats, du, dv)
        new -= self.target_sq[feats][:, None, :]
        np.abs(new, out=new)
        old = state.local[feats][:, None, :]
        mism = (
            state.score[0]
            + np.count_nonzero(new > _IMAGE_CERT_TOL, axis=-1)
            - np.count_nonzero(old > _IMAGE_CERT_TOL, axis=-1)
        )
        new -= old
        return mism, state.score[1] + new.sum(axis=-1)

    exact_certified = _exact_certified


_SINGLE_STEPS = np.array([[d * s] for d in range(1, 9) for s in (1, -1)], dtype=np.int64)
_PAIR_RANGE = (-3, -2, -1, 1, 2, 3)
_PAIR_STEPS = np.array([(a, b) for a in _PAIR_RANGE for b in _PAIR_RANGE], dtype=np.int64)
_TRIPLE_STEPS = np.array(
    [(a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)], dtype=np.int64
)
#: Pair moves cost O(n^2) per sweep and triples O(n^3); past these many
#: pixels the respective stage is skipped.
_PAIR_MOVE_LIMIT = 64
_TRIPLE_MOVE_LIMIT = 24
#: Candidates (pixel tuples x steps) per chunk of a move group's tables.
_MOVE_CHUNK = 8_192


def _pixel_footprints(stencil: SobelStencil) -> np.ndarray:
    """Row p lists the features whose u or v depends on pixel p, in
    increasing order, padded with n.  Every slot of the stencil carries a
    nonzero weight in one kernel or the other, so these are the adjoint
    table's rows."""
    out = np.sort(stencil.adjoint, axis=1)
    return out[:, : int((out < stencil.n).sum(axis=1).max(initial=0))]


class _MoveChunk:
    """Pixel tuples of one chunk, with the union footprint ``feats`` of each
    (padded with feature 0 where ``valid`` is False) and the exact change
    ``du``/``dv`` of u and v on it for every step, shape (tuples, steps,
    footprint).  Padding slots change nothing.  All arrays are read-only:
    back-to-back solves of one image shape share the chunks."""

    def __init__(self, stencil, footprints, tuples, steps):
        n = stencil.n
        feats = footprints[tuples].reshape(tuples.shape[0], -1)
        feats.sort(axis=1)
        # Union: repeats become padding, which the second sort moves last.
        feats[:, 1:][feats[:, 1:] == feats[:, :-1]] = n
        feats.sort(axis=1)
        feats = feats[:, : int((feats < n).sum(axis=1).max(initial=0))]
        self.tuples = tuples
        self.valid = feats < n
        self.feats = np.where(self.valid, feats, 0)
        # Operator entries (feature, pixel), shape (tuples, pixels,
        # footprint, 2).
        entry = stencil.entries(self.feats[:, None, :], tuples[:, :, None])
        entry *= self.valid[:, None, :, None]
        stepf = steps.astype(np.float64)
        # Integer steps times integer kernel entries: exact in any order.
        self.du = stepf @ entry[..., 0]
        self.dv = stepf @ entry[..., 1]
        for a in (self.tuples, self.valid, self.feats, self.du, self.dv):
            a.flags.writeable = False


@lru_cache(maxsize=1)
def _move_groups(height: int, width: int) -> tuple[tuple[np.ndarray, tuple[_MoveChunk, ...]], ...]:
    """(shared steps, chunks) for single moves, then pair moves and triple
    moves where the image is small enough.  They depend on the image shape
    alone; the groups of the last shape are kept, so back-to-back solves
    of one shape build them once.  Keeping more shapes would hold their
    tables through every other solve and raise peak memory."""
    stencil = SobelStencil(height, width)
    n = stencil.n
    groups = [(np.arange(n)[:, None], _SINGLE_STEPS)]
    if n <= _PAIR_MOVE_LIMIT:
        groups.append((np.stack(np.triu_indices(n, 1), axis=1), _PAIR_STEPS))
    if 3 <= n <= _TRIPLE_MOVE_LIMIT:
        groups.append((np.array(list(itertools.combinations(range(n), 3))), _TRIPLE_STEPS))
    footprints = _pixel_footprints(stencil)
    out = []
    for tuples, steps in groups:
        per = max(1, _MOVE_CHUNK // len(steps))
        chunks = [
            _MoveChunk(stencil, footprints, tuples[lo : lo + per].astype(np.intp), steps)
            for lo in range(0, tuples.shape[0], per)
        ]
        out.append((steps, tuple(chunks)))
    return tuple(out)


class _RepairState:
    """Integer candidate: its exact gradients u and v, and the scorer's
    summary of them, recomputed from scratch after every move so that
    rounding error never builds up."""

    def __init__(self, scorer, pixels: np.ndarray):
        self.scorer = scorer
        self.x = pixels.astype(np.int64).copy()
        self.u, self.v = scorer.stencil.apply(self.x).T.copy()
        self._refresh()

    def _refresh(self):
        mism, viol, self.local = self.scorer.local_state(self.u, self.v)
        self.obj = float(np.sum((self.x - self.scorer.anchor) ** 2))
        self.score = (mism, viol, self.obj)

    def candidates(self, steps: np.ndarray, chunk: _MoveChunk):
        """New pixel values, shape (tuples, steps, pixels), and the
        (mismatched bits, violation, objective) of every move of
        ``chunk``, each of shape (tuples, steps)."""
        old = self.x[chunk.tuples]
        vals = old[:, None, :] + steps
        mism, viol = self.scorer.local_scores(self, chunk.feats, chunk.du, chunk.dv)
        a = self.scorer.anchor[chunk.tuples]
        obj = self.obj + ((vals - a[:, None, :]) ** 2 - ((old - a) ** 2)[:, None, :]).sum(axis=2)
        return vals, mism, viol, obj

    def apply(self, chunk: _MoveChunk, t: int, step: int, vals: np.ndarray):
        """Move tuple ``t`` of ``chunk`` to ``vals`` by step ``step``.
        Pixels and kernel entries are integers, so u and v stay exact."""
        keep = chunk.valid[t]
        self.x[chunk.tuples[t]] = vals
        self.u[chunk.feats[t][keep]] += chunk.du[t, step][keep]
        self.v[chunk.feats[t][keep]] += chunk.dv[t, step][keep]
        self._refresh()


def _repair(scorer, pixels: np.ndarray, budget: int, deadline: float):
    """Greedy hill climb over pixel moves, accepted only on strict
    lexicographic improvement of (mismatched bits, hinge violation,
    objective).

    Single-pixel moves of magnitude 1..8 run until they stall.  Then, on
    images of at most 64 pixels, the best coordinated two-pixel move
    (each pixel by +-1..+-3) is taken, or on images of at most 24 pixels
    a three-pixel move (each by +-1) when no pair improves; such moves
    walk along constraint boundaries where any lone pixel change breaks a
    sign.  After each multi-pixel move the single moves resume.

    A move changes only the features in the union of its pixels'
    footprints (at most 8 per pixel), so each candidate is scored from
    the state and the change on those features alone.  Every
    improvement that clears all mismatches is re-checked through the
    exact forward pipeline.  Returns (best certified pixels or None, its
    objective, final pixels, final score).
    """
    state = _RepairState(scorer, pixels)
    groups = scorer.move_groups
    best_cert = None
    best_cert_obj = np.inf

    def note():
        nonlocal best_cert, best_cert_obj
        if state.score[0] == 0 and state.obj < best_cert_obj and scorer.exact_certified(state.x):
            best_cert, best_cert_obj = state.x.copy(), state.obj

    note()
    out_of_time = False

    def best_move(steps: np.ndarray, chunks: tuple[_MoveChunk, ...]):
        """Best candidate of a group as (score, chunk, tuple, step, pixel
        values); ties go to the first in tuple-major, step-minor order."""
        nonlocal out_of_time
        best = None
        for ch in chunks:
            vals, mism, viol, obj = state.candidates(steps, ch)
            sel = np.flatnonzero(((vals >= 0) & (vals <= 255)).all(axis=2))
            if sel.size == 0:
                continue
            # Lexicographic minimum of (mism, viol, obj), first on ties.
            for key in (mism, viol, obj):
                kv = key.ravel()[sel]
                sel = sel[kv == kv.min()]
            b = int(sel[0])
            cand = (int(mism.flat[b]), float(viol.flat[b]), float(obj.flat[b]))
            if best is None or cand < best[0]:
                t, k = divmod(b, len(steps))
                best = (cand, ch, t, k, vals[t, k])
            if time.monotonic() > deadline:
                out_of_time = True
                break
        return best

    def take(mv) -> bool:
        if mv is None or mv[0] >= state.score:
            return False
        state.apply(*mv[1:])
        note()
        return True

    moves = 0
    while moves < budget and not out_of_time:
        # Single-pixel descent until it stalls.
        while moves < budget and not out_of_time and take(best_move(*groups[0])):
            moves += 1
        if out_of_time:
            break
        # One accepted multi-pixel move, then back to single moves.
        if not any(take(best_move(*group)) for group in groups[1:]):
            break
        moves += 1
    return best_cert, best_cert_obj, state.x, state.score


#: Ceiling on box points searched by the window polish.
_WINDOW_BUDGET = 2_000_000
#: Candidates the window polish scores per batch; the best objective so
#: far tightens the cut between batches.
_WINDOW_BATCH = 4_096


def _window_radius(n: int) -> int:
    for w in range(16, 0, -1):
        if (2 * w + 1) ** n <= _WINDOW_BUDGET:
            return w
    return 0


def _half_table(scorer, pixels: np.ndarray, cols: np.ndarray, w: int):
    """Every in-range offset row of the pixels ``cols`` within +-w, in
    mixed-radix order (first pixel most significant): the rows' pixel
    values, their share of the objective and their shares of u = A1 x and
    v = A2 x, from the operator columns ``cols`` that the stencil gives."""
    axes = [np.arange(max(0, x - w), min(255, x + w) + 1) for x in pixels[cols]]
    vals = np.empty((math.prod(a.size for a in axes), cols.size), dtype=np.int64)
    for j, grid in enumerate(np.meshgrid(*axes, indexing="ij")):
        vals[:, j] = grid.ravel()
    obj = ((vals - scorer.anchor[cols]) ** 2).sum(axis=1)
    entry = scorer.stencil.entries(np.arange(pixels.size)[:, None], cols[None, :])
    return vals, obj, vals @ entry[..., 0].T, vals @ entry[..., 1].T


def _window_polish(scorer, pixels: np.ndarray, obj_limit: float, deadline: float):
    """Search of the integer box of radius ``_window_radius(n)`` around a
    feasible point.

    Greedy moves coordinate at most three pixels; on tiny images the
    optimum often needs a simultaneous shift of every pixel, so when the
    box fits the candidate budget it is searched whole.

    The objective and (u, v) are sums over pixels, so the box is split
    into a leading half P (the first n // 2 pixels, the high-order digits
    of the box index) and a trailing half Q, each tabulated once over its
    in-range offset rows.  A candidate's objective and (u, v) are a P
    row's plus a Q row's; pixels and weights are integers, so these sums
    are exact and equal the dense products bit for bit.  P rows are
    walked in order, each paired with the Q rows that keep the objective
    below the best so far: a prefix of Q sorted by objective.  Candidates
    are scored in batches of at most ``_WINDOW_BATCH`` (or one P row's,
    when that is more), and the cut tightens between batches.  Memory is
    the two tables (at most 4,913 rows under ``_WINDOW_BUDGET``) plus one
    batch: a few megabytes, where the whole box at 3x3 is 1.95M points.

    Returns the candidate with no mismatched bit below ``obj_limit`` that
    has the smallest (objective, box index) and passes the exact check,
    with its objective; else (None, obj_limit)."""
    n = pixels.size
    w = _window_radius(n)
    if w == 0:
        return None, obj_limit
    cols = np.arange(n)
    p_vals, p_obj, p_u, p_v = _half_table(scorer, pixels, cols[: n // 2], w)
    q_table = _half_table(scorer, pixels, cols[n // 2 :], w)
    q_order = np.argsort(q_table[1], kind="stable")
    q_vals, q_obj, q_u, q_v = (t[q_order] for t in q_table)
    best = None
    best_obj = obj_limit
    start = 0
    while start < p_obj.size:
        # For each remaining P row, the Q rows that keep the sum below the cut.
        counts = np.searchsorted(q_obj, best_obj - p_obj[start:])
        ends = np.cumsum(counts)
        if ends[-1] == 0:
            break
        stop = max(1, int(np.searchsorted(ends, _WINDOW_BATCH, side="right")))
        first, start = start, start + stop
        ends = ends[:stop]
        lows = ends - counts[:stop]
        # Each P row's candidates are a prefix of the sorted Q rows, so
        # they are contiguous slices plus one P row.
        obj = np.empty(ends[-1])
        u, v = np.empty((obj.size, n)), np.empty((obj.size, n))
        for i, lo, hi in zip(range(first, start), lows, ends):
            np.add(q_obj[: hi - lo], p_obj[i], out=obj[lo:hi])
            np.add(q_u[: hi - lo], p_u[i], out=u[lo:hi])
            np.add(q_v[: hi - lo], p_v[i], out=v[lo:hi])
        mism = scorer.score_batch(u, v)
        hits = np.flatnonzero(mism == 0)
        rows_p = np.searchsorted(ends, hits, side="right")
        rows_q = hits - lows[rows_p]
        rows_p += first
        # Box order is (P row, Q row).  Equal objectives within one P row
        # mean equal Q objectives, which the stable sort keeps in box order,
        # so (objective, P row, sorted Q row) puts ties in box order; a
        # later batch must be strictly better.
        for j in np.lexsort((rows_q, rows_p, obj[hits])):
            cand = np.concatenate([p_vals[rows_p[j]], q_vals[rows_q[j]]])
            if scorer.exact_certified(cand):
                best, best_obj = cand, float(obj[hits[j]])
                break
        if time.monotonic() > deadline:
            break
    return best, best_obj


# ---------------------------------------------------------------------------
# Non-convex driver


def solve_qcqp(problem: AttackProblem, config: SolverConfig | None = None) -> SolveReport:
    """Continuous relaxation + rounding + integer repair + restarts for
    the image-side programs; success means exact forward certification
    of every target."""
    if problem.kind is ProblemKind.FEATURE_PHASE:
        raise SolverError("feature-phase problems go to solve_qp")
    config = config or SolverConfig()
    start = time.monotonic()
    deadline = start + config.time_limit
    rng = np.random.Generator(np.random.PCG64(config.rng_seed))

    if problem.kind is ProblemKind.IMAGE_PHASE:
        scorer = _FeatureScorer(problem)
        model = ImageModel(problem)
    else:
        scorer = _SignScorer(problem)
        model = MergedModel(problem, margin=max(problem.delta, _CONTINUOUS_MARGIN))

    anchor_pixels = problem.anchor_image.flat().astype(np.int64)
    anchor_scaled = anchor_pixels / _PIXEL_SCALE

    best_cert: np.ndarray | None = None
    best_cert_obj = np.inf
    best_attempt = anchor_pixels.copy()
    best_attempt_score = None
    best_vio = np.inf
    timed_out = False

    # The float count screens the anchor, so an uncertified one costs no
    # exact forward check.
    u, v = scorer.stencil.apply(anchor_pixels).T
    if scorer.score_batch(u[None, :], v[None, :])[0] == 0 and scorer.exact_certified(anchor_pixels):
        best_cert, best_cert_obj = anchor_pixels.copy(), 0.0
    # Certification does not stop the scan: later restarts regularly
    # land in better basins, and the best certified objective wins.
    for k in range(config.restarts):
        if best_cert_obj == 0.0:
            break
        if time.monotonic() > deadline:
            timed_out = True
            break
        if k == 0:
            x0 = anchor_scaled.copy()
        else:
            sigma = min(0.5, 0.08 * k)
            x0 = np.clip(anchor_scaled + sigma * rng.standard_normal(problem.n), 0.0, 1.0)
        z, vio = _continuous_stage(model, model.initial_point(x0), config, deadline)
        best_vio = min(best_vio, vio)
        rounded = np.clip(np.rint(z[: problem.n] * _PIXEL_SCALE), 0, 255).astype(np.int64)
        cert, cert_obj, attempt, attempt_score = _repair(scorer, rounded, config.repair_budget, deadline)
        if cert is not None and cert_obj < best_cert_obj:
            best_cert, best_cert_obj = cert, cert_obj
        if best_attempt_score is None or attempt_score < best_attempt_score:
            best_attempt, best_attempt_score = attempt, attempt_score
        if time.monotonic() > deadline:
            timed_out = True
            break

    if best_cert is not None and best_cert_obj > 0.0 and not timed_out:
        # Final descent from the best certificate, with a fresh repair
        # budget: a restart's repair that ran out of budget (not one that
        # stalled) can still improve it.
        cert, cert_obj, _, _ = _repair(scorer, best_cert, config.repair_budget, deadline)
        if cert is not None and cert_obj < best_cert_obj:
            best_cert, best_cert_obj = cert, cert_obj
        # Alternate exhaustive-window and greedy descent to a fixpoint.
        for _ in range(4):
            win, win_obj = _window_polish(scorer, best_cert, best_cert_obj, deadline)
            if win is None:
                break
            best_cert, best_cert_obj = win, win_obj
            cert, cert_obj, _, _ = _repair(scorer, best_cert, config.repair_budget, deadline)
            if cert is not None and cert_obj < best_cert_obj:
                best_cert, best_cert_obj = cert, cert_obj
            if time.monotonic() > deadline:
                break

    if best_cert is not None:
        status = SolveStatus.CERTIFIED_FEASIBLE
        pixels = best_cert
    elif timed_out:
        status = SolveStatus.TIMED_OUT
        pixels = best_attempt
    elif best_vio <= _FEASIBILITY_TOL:
        status = SolveStatus.CONTINUOUS_ONLY
        pixels = best_attempt
    else:
        # The continuous relaxation itself never came close to feasible;
        # report that instead of a best-effort image.
        status = SolveStatus.INFEASIBLE
        pixels = None

    if pixels is None:
        return SolveReport(
            status=status,
            solution=None,
            objective=float("inf"),
            wall_time=time.monotonic() - start,
            certification={},
        )
    image = GrayImage(problem.width, problem.height, pixels.reshape(problem.height, problem.width))
    objective = float(np.sum((pixels - anchor_pixels).astype(np.float64) ** 2))
    return SolveReport(
        status=status,
        solution=image,
        objective=objective,
        wall_time=time.monotonic() - start,
        certification=certify(image, problem),
    )


def solve(problem: AttackProblem, config: SolverConfig | None = None) -> SolveReport:
    """Dispatch on problem kind."""
    if problem.kind is ProblemKind.FEATURE_PHASE:
        return solve_qp(problem, config)
    return solve_qcqp(problem, config)
