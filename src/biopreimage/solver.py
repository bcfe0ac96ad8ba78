"""Solvers for the attack programs, with forward-pipeline certification.

Two engines:

* :func:`solve_qp` - the convex feature-phase program (closest point of
  a polyhedron).  A dual projected-gradient loop with Nesterov momentum
  reaches the optimum, a sign nudge lifts the one-bit projections that
  float noise leaves just below zero, and a Farkas-style certificate
  flags infeasible sign patterns.

* :func:`solve_qcqp` - the non-convex image programs.  Each restart
  (the first from the anchor, later ones from perturbations of it) runs
  one continuous pass: a relaxation of the pixels with an augmented
  Lagrangian over the squared gradient-magnitude equalities and the sign
  inequalities, whose margin is inflated so that the rounding lands
  inside the sign cone.  Each outer round binds its objective once
  (the models' ``objective``: a value function and a gradient function
  with the round's multipliers, penalty, scratch buffers and the
  stencil's arrays as closure locals), and its inner loop, spectral
  projected gradient, costs one forward pass per trial point and one
  backward pass per accepted point but the last.  The rounded pass
  goes through a greedy integer repair over single-pixel moves and, on
  small images,
  coordinated two- and three-pixel moves, scored by (mismatched bits,
  constraint violation, objective); from a state with neither
  mismatches nor violation that rule reduces to one feasibility test per
  candidate and the lowest objective.  A move changes only the features
  around its pixels, so the repair scores each candidate from those
  features alone.  Each kind of move is one group: one read-only table
  of its pixel tuples, steps, footprints and exact changes of u and v
  (int8, 256 bytes per pixel for the single moves), in which any
  (tuple, step) is one index.  The tables are built, and a sweep
  scores them, in slices of 2,048 candidates.  A repair accepts at most
  ``repair_budget`` moves.  The best certificate of all restarts gets a last
  repair and, on images of at most 13 pixels, a window polish that
  searches the whole integer box around it, split into two halves of
  the pixels whose objective and gradient shares are tabulated once and
  summed per candidate (meet in the middle), in batches of bounded size.

Every stage applies the two Sobel convolutions through
:class:`SobelStencil`: 8-slot gather tables (the ELL sparse format), so
memory stays O(n) and no dense n x n operator is built; the window
polish and the repair's move tables take their operator entries from
the stencil too.
The repair's gradients of integer pixels are exact in any order, but the
continuous stage still sums each slot product as a BLAS call, so its
iterates are not yet independent of the BLAS build.

A candidate only counts as a success when re-running the full forward
pipeline reproduces every target template bit-for-bit; that check is the
ground truth, never the solver's internal bookkeeping.  :func:`certify`
alone runs it: sobel, then the exact template signs of enroll
(``pipeline.template_bits``) through each victim's stored matrix, which
the builders guarantee is the password's derivation.  The
repair scorers' exact checks call it.  In
:func:`solve_qcqp` a certificate comes from one of three places: the
anchor itself, checked once before any restart; the integer repair,
which at its end checks the states it passed with no mismatched bit
(its starting rounding included), lowest objective first, until one
passes; and the window polish.  The continuous stage never certifies:
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
    template_bits,
)
from .prng import _check_count
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
        for name in ("max_outer_iterations", "repair_budget", "rng_seed", "restarts"):
            _check_count(name, getattr(self, name), SolverError)
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
def _stencil_tables(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only forward and adjoint tables of :class:`SobelStencil`."""
    n = height * width
    row, col = np.divmod(np.arange(n), width)
    tables = []
    for sign in (1, -1):
        r = row[:, None] + sign * (_TAPS[:, 0] - 1)
        c = col[:, None] + sign * (_TAPS[:, 1] - 1)
        inside = (r >= 0) & (r < height) & (c >= 0) & (c < width)
        table = np.where(inside, r * width + c, n)
        table.flags.writeable = False
        tables.append(table)
    forward, adjoint = tables
    return forward, adjoint


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
    owns, so an instance serves one caller at a time.  ``transpose``
    gathers both columns of a row of its (n + 1, 2) buffer at once,
    through ``_r_pairs``, a view that reads each row as one complex128
    (a copy of its two floats, bit for bit), and sums the (n, 8, 2)
    gather against ``weights`` flattened to 16 entries.
    """

    weights = _FLIPPED[_TAPS[:, 0], _TAPS[:, 1]]
    weights.flags.writeable = False
    _pair_weights = weights.reshape(-1)
    _int8_weights = weights.astype(np.int8)

    def __init__(self, height: int, width: int):
        n = height * width
        self.n = n
        self.forward, self.adjoint = _stencil_tables(height, width)
        x_pad, r_pad = np.zeros(n + 1), np.zeros((n + 1, 2))
        # apply and transpose write their input into the first n rows; the
        # last row is the sentinel and stays zero.
        self._x_pad, self._x_head = x_pad, x_pad[:n]
        self._r_pairs, self._r_head = r_pad.view(np.complex128)[:, 0], r_pad[:n]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """(n, 2) array whose columns are u = A1 x and v = A2 x."""
        self._x_head[...] = x
        return self._x_pad[self.forward].dot(self.weights)

    def transpose(self, r: np.ndarray, scale: np.ndarray) -> np.ndarray:
        """A1^T (scale * r[:, 0]) + A2^T (scale * r[:, 1]) for an (n, 2)
        array r and a length-n ``scale``."""
        np.multiply(r, scale[:, None], out=self._r_head)
        return self._r_pairs[self.adjoint].view(np.float64).dot(self._pair_weights)

    def entries(self, features: np.ndarray, pixels: np.ndarray) -> np.ndarray:
        """Operator entries (A1[f, p], A2[f, p]) for broadcast index
        arrays ``features`` and ``pixels``; shape (..., 2).

        The one-hot of matching slots is multiplied in int8, one byte per
        (index, slot): at most one slot of a pixel feeds a given feature
        and every weight is at most 2 in magnitude, so the int8 sums are
        the entries exactly."""
        hit = self.adjoint[pixels] == np.asarray(features)[..., None]
        return (hit.view(np.int8) @ self._int8_weights).astype(np.float64)


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


def _bits_match(feature: np.ndarray, cs: SignConstraintSet) -> bool:
    """Whether the feature's template bits through cs's matrix, exact
    signs as enroll takes them, are cs's template.  An entry from 2**256
    up has no exact sign and matches no template."""
    try:
        return bool(np.array_equal(template_bits(feature, cs.matrix.T), cs.template.bits))
    except PipelineError:
        return False


def certify(candidate: GrayImage, problem: AttackProblem) -> dict[str, bool]:
    """Ground-truth success map for a candidate image.

    Sign problems get one entry per victim: the template bits of the
    candidate's Sobel feature through the victim's stored matrix, which
    the builders guarantee is the password's derivation, must be the
    template.  The bits are the exact signs of the projections
    (:func:`template_bits`), the rule enroll follows, so a certificate
    and a re-enroll agree on every BLAS build and thread count.  The
    image-phase problem gets a single ``feature`` entry comparing
    squared gradient magnitudes against the target.
    """
    if (candidate.height, candidate.width) != (problem.height, problem.width):
        raise SolverError("candidate dimensions do not match the problem")
    feat = sobel(candidate)
    if problem.kind is ProblemKind.IMAGE_PHASE:
        resid = np.abs(feat**2 - problem.target_feature**2)
        return {"feature": bool(resid.max(initial=0.0) <= _IMAGE_CERT_TOL)}
    return {str(i): _bits_match(feat, cs) for i, cs in enumerate(problem.constraint_sets)}


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


def _nudge_onto_signs(x: np.ndarray, cs: SignConstraintSet, kappa: float) -> np.ndarray | None:
    """Lift every one-bit projection below kappa to kappa in one joint
    least-squares correction; None when no one-bit projection is negative
    or the least-squares solve fails."""
    mat = cs.matrix
    proj = project(x, mat)
    if not (proj[cs.one_idx] < 0).any():
        return None
    group = cs.one_idx[proj[cs.one_idx] < kappa]
    cols = mat[:, group]
    try:
        w = np.linalg.lstsq(cols.T @ cols, kappa - proj[group], rcond=None)[0]
    except np.linalg.LinAlgError:
        return None
    return np.maximum(0.0, x + cols @ w)


def solve_qp(problem: AttackProblem, config: SolverConfig | None = None) -> SolveReport:
    """Closest non-negative feature vector satisfying the sign pattern.

    Dual projected gradient with momentum, then, if its primal point
    does not certify, one sign nudge, kept only if it certifies;
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

    if status is SolveStatus.INFEASIBLE:
        return SolveReport(
            status=status,
            solution=None,
            objective=float("inf"),
            wall_time=time.monotonic() - start,
            certification={"0": False},
        )
    certified = _signs_match(x, cs)
    if not certified and status is SolveStatus.CONTINUOUS_ONLY:
        # The dual iterate puts the one-bit projections on the optimal
        # face at zero only up to float noise, and one at -1e-17
        # binarizes to 0.  The nudge lifts them to kappa, a hair inside
        # their sign, which is what certifies most such optima; a lift
        # that does not certify is dropped.
        lifted = _nudge_onto_signs(x, cs, 1e-10 * scale)
        if lifted is not None and _signs_match(lifted, cs):
            x, certified = lifted, True
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

    def objective(self, lam, mu, rho):
        """The augmented Lagrangian of one outer round, as ``value(z) ->
        (f, state)`` from one forward pass and ``gradient(state)``, which
        forms the gradient at that z from the arrays ``value`` kept.  The
        state starts with the residuals h = y^2 - u^2 - v^2 of the
        equalities and g = rows y + offsets of the inequalities, which
        :func:`_continuous_stage` reads.

        The round's constants and the stencil's arrays are bound here
        once, and both passes run the stencil's gather and product inline
        (what its ``apply`` and ``transpose`` do), so a trial point costs
        numpy calls only.  The arrays in the state are new on every call;
        the rest lives in buffers of the round: ``sq`` (n, 2) holds uv
        squared, ``tmp`` (n) the squares of dx and then ``half_rho * h``,
        and ``w`` (n, held as the column ``w_col``) the weights
        ``lam + rho h`` of the gradient; ``w * uv`` goes into the
        stencil's own padded buffer.  Every rewrite keeps the bits of the
        formulas written out:

        * h is ``y*y`` minus the two columns of ``sq`` in turn, the order
          of ``(y*y - u*u) - v*v``;
        * the hinge is built in place as ``rho*g``, then ``+= mu`` and
          ``np.maximum(0.0, hinge)`` with the operands in that order
          (IEEE addition and multiplication commute, but ``maximum``
          returns its second operand for equal signed zeros);
        * ``w`` is ``rho*h`` then ``+= lam``, and the x-gradient is
          ``2 * (dx - A^T(w uv))``, bit-equal to ``2 dx - 2 A^T(w uv)``
          because doubling is exact;
        * the scalar sums are Python floats, the same IEEE additions as
          numpy's float64 scalars.

        The round's constants are 0-d arrays, which numpy takes with
        less work than Python floats.  Products call the arrays' own
        ``dot``: the routine of ``np.dot`` without its Python-level
        dispatch, cheaper per call than ``@``, with the same bits."""
        n, anchor, rows, offsets = self.n, self.anchor, self.rows, self.offsets
        rows_t = rows.T
        st = self.stencil
        x_pad, x_head, forward, weights = st._x_pad, st._x_head, st.forward, st.weights
        r_pairs, r_head, adjoint, pair_weights = st._r_pairs, st._r_head, st.adjoint, st._pair_weights
        mu_sq = float(mu @ mu)
        two_rho = 2.0 * rho
        rho, half_rho = np.array(rho), np.array(0.5 * rho)
        zero, two = np.array(0.0), np.array(2.0)
        sq, tmp, w_col = np.empty((n, 2)), np.empty(n), np.empty((n, 1))
        sq_u, sq_v, w = sq[:, 0], sq[:, 1], w_col[:, 0]

        def value(z):
            x, y = z[:n], z[n:]
            x_head[...] = x
            uv = x_pad[forward].dot(weights)
            np.multiply(uv, uv, out=sq)
            h = y * y
            h -= sq_u
            h -= sq_v
            g = rows.dot(y)
            g += offsets
            hinge = np.multiply(g, rho)
            hinge += mu
            np.maximum(zero, hinge, out=hinge)
            dx = x - anchor
            np.multiply(dx, dx, out=tmp)
            # np.add.reduce is np.sum without its Python-level dispatch,
            # which costs as much as the sum itself at desk sizes.
            f = float(np.add.reduce(tmp)) + float(lam.dot(h))
            np.multiply(h, half_rho, out=tmp)
            f += float(tmp.dot(h))
            f += (float(hinge.dot(hinge)) - mu_sq) / two_rho
            return f, (h, g, y, uv, hinge, dx)

        def gradient(state):
            h, _, y, uv, hinge, dx = state
            np.multiply(h, rho, out=w)
            np.add(w, lam, out=w)
            np.multiply(uv, w_col, out=r_head)
            grad = np.empty(2 * n)
            gx, gy = grad[:n], grad[n:]
            r_pairs[adjoint].view(np.float64).dot(pair_weights, out=gx)
            np.subtract(dx, gx, out=gx)
            np.multiply(gx, two, out=gx)
            np.multiply(w, two, out=w)
            np.multiply(w, y, out=gy)
            gy += rows_t.dot(hinge)
            return grad

        return value, gradient

    def al_value(self, z, lam, mu, rho) -> float:
        return self.objective(lam, mu, rho)[0](z)[0]

    def al_grad(self, z, lam, mu, rho) -> np.ndarray:
        value, gradient = self.objective(lam, mu, rho)
        return gradient(value(z)[1])


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

    def objective(self, lam, mu, rho):
        """``value`` and ``gradient`` of one outer round, as in
        :meth:`MergedModel.objective`; the state's h is u^2 + v^2 - t^2,
        there are no inequalities (g is empty), and the gradient is
        ``2 * (dz + A^T(w uv))``.  The buffers ``sq``, ``tmp`` and ``w``
        and the bit-keeping rewrites are those of the merged model: h is
        the sum of ``sq``'s columns minus t^2, the order of
        ``(u*u + v*v) - t^2``."""
        n, anchor, target_sq = self.n, self.anchor, self.target_sq
        st = self.stencil
        x_pad, x_head, forward, weights = st._x_pad, st._x_head, st.forward, st.weights
        r_pairs, r_head, adjoint, pair_weights = st._r_pairs, st._r_head, st.adjoint, st._pair_weights
        rho, half_rho, two = np.array(rho), np.array(0.5 * rho), np.array(2.0)
        sq, tmp, w_col = np.empty((n, 2)), np.empty(n), np.empty((n, 1))
        sq_u, sq_v, w = sq[:, 0], sq[:, 1], w_col[:, 0]
        no_ineq = np.zeros(0)

        def value(z):
            x_head[...] = z
            uv = x_pad[forward].dot(weights)
            np.multiply(uv, uv, out=sq)
            h = np.add(sq_u, sq_v)
            h -= target_sq
            dz = z - anchor
            np.multiply(dz, dz, out=tmp)
            f = float(np.add.reduce(tmp)) + float(lam.dot(h))
            np.multiply(h, half_rho, out=tmp)
            f += float(tmp.dot(h))
            return f, (h, no_ineq, uv, dz)

        def gradient(state):
            h, _, uv, dz = state
            np.multiply(h, rho, out=w)
            np.add(w, lam, out=w)
            np.multiply(uv, w_col, out=r_head)
            g = r_pairs[adjoint].view(np.float64).dot(pair_weights)
            g += dz
            np.multiply(g, two, out=g)
            return g

        return value, gradient

    def al_value(self, z, lam, mu, rho) -> float:
        return self.objective(lam, mu, rho)[0](z)[0]

    def al_grad(self, z, lam, mu, rho) -> np.ndarray:
        value, gradient = self.objective(lam, mu, rho)
        return gradient(value(z)[1])


def _spg_minimize(model, z0, lam, mu, rho, max_iter, tol, deadline):
    """Spectral projected gradient (Barzilai-Borwein step, nonmonotone
    Armijo over the last 8 values) on the round's objective, which
    ``model.objective`` binds once.  Each trial point costs one forward
    pass (``value``); the gradient is formed only at the accepted one,
    from the arrays its ``value`` kept, and not at the last iterate,
    which nothing reads.  Returns the last accepted point and the state
    its ``value`` kept.

    The vectors of an iteration live in buffers of the call: ``d`` holds
    the projected step, ``zn`` the trial point, ``s`` the accepted step
    and ``scratch`` |d| and then the gradient change; the accepted trial
    point becomes ``z`` and the old ``z`` the next trial's buffer.  They
    keep the bits of the loop written out: ``alpha * grad`` and
    ``step_len * d`` are formed as ``grad * alpha`` and ``d * step_len``
    and ``z + step_len * d`` as ``step_len * d + z``, because IEEE
    multiplication and addition commute; the first trial ``z + d``
    equals ``z + 1.0 * d``; and the projection keeps the operand order
    of ``model.project``, ``minimum(maximum(z, lower), upper)``."""
    value, gradient = model.objective(lam, mu, rho)
    lower, upper = model.lower, model.upper
    z = model.project(z0)
    f, state = value(z)
    grad = gradient(state)
    # np.maximum.reduce is max() without its Python-level wrapper.
    alpha = 1.0 / max(1e-10, float(np.maximum.reduce(np.abs(grad))))
    zn, d, s, scratch = (np.empty_like(z) for _ in range(4))
    history = [f]
    for it in range(max_iter):
        np.multiply(grad, alpha, out=d)
        np.subtract(z, d, out=d)
        np.maximum(d, lower, out=d)
        np.minimum(d, upper, out=d)
        d -= z
        if float(np.maximum.reduce(np.abs(d, out=scratch))) <= tol:
            break
        gtd = float(grad.dot(d))
        step_len = 1.0
        f_ref = max(history)
        np.add(z, d, out=zn)
        while True:
            fn, state = value(zn)
            if fn <= f_ref + 1e-4 * step_len * gtd or step_len < 1e-12:
                break
            step_len *= 0.5
            np.multiply(d, step_len, out=zn)
            zn += z
        z, zn = zn, z
        history.append(fn)
        if len(history) > 8:
            history.pop(0)
        if it + 1 == max_iter or (it % 64 == 0 and time.monotonic() > deadline):
            break
        gn = gradient(state)
        np.subtract(z, zn, out=s)
        np.subtract(gn, grad, out=scratch)
        sy = float(s.dot(scratch))
        alpha = min(1e8, max(1e-12, float(s.dot(s)) / sy)) if sy > 1e-18 else min(1e8, 4.0 * alpha)
        grad = gn
    return z, state


def _continuous_stage(model, z0, config, deadline):
    """Outer augmented-Lagrangian loop; returns the last iterate and the
    smallest constraint violation of any round, read from the residuals h
    and g in the state ``_spg_minimize`` returns with each iterate."""
    lam = np.zeros(model.n_eq)
    mu = np.zeros(model.n_ineq)
    rho = _RHO_INIT
    z = model.project(z0)
    best_vio = np.inf
    for _ in range(config.max_outer_iterations):
        inner_tol = max(1e-10, 1e-4 / rho)
        z, state = _spg_minimize(model, z, lam, mu, rho, _INNER_ITERS, inner_tol, deadline)
        h, g = state[:2]
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
    def move_groups(self) -> tuple[_MoveGroup, ...]:
        return _move_groups(self.problem.height, self.problem.width)

    def _local_sq(self, state, feats, du, dv) -> np.ndarray:
        """u^2 + v^2 on each candidate's footprint, shape (tuples, steps,
        footprint), as int32 from the state's int16 u and v and the int8
        changes.  The values are exact: pixels in 0..255 give |u|, |v| <=
        4 * 255 and a change is at most 16 in magnitude for the step sets
        here (127 at the int8 limit), so |u + du| <= 1147 fits an int16,
        each square is below 2^21 and the sum below 2^22, inside an int32.
        These are the integers the float64 formula forms, so a square
        root taken in float64 is the same double."""
        sq = np.add(state.u16[feats][:, None, :], du, dtype=np.int32)
        sq *= sq
        vv = np.add(state.v16[feats][:, None, :], dv, dtype=np.int32)
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
        # Signs and offsets of the hinge terms (``_hinge``), and the
        # signed matrix and bounds of ``clean_feasible``.
        self.sign = np.where(want_zero, 1.0, -1.0)
        self.offset = np.where(want_zero, problem.delta, 0.0)
        self.signed_m = self.big_m * self.sign
        self.neg_offset = -self.offset

    def _hinge(self, proj, out=None):
        """Hinge term of each bit j, max(0, sign_j * proj_j + offset_j):
        proj + delta for a 0 bit and -proj for a 1 bit.  ``out`` may be
        ``proj`` itself when the caller no longer needs it."""
        hinge = np.multiply(proj, self.sign, out=out)
        hinge += self.offset
        return np.maximum(hinge, 0.0, out=hinge)

    def _terms(self, proj, out=None):
        """(mismatched bits, hinge violation) along the last axis; ``out``
        as for ``_hinge``."""
        bits = proj >= 0
        mism = np.add.reduce(np.not_equal(bits, self.want_one, out=bits), axis=-1, dtype=np.intp)
        return mism, np.add.reduce(self._hinge(proj, out=out), axis=-1)

    def score_batch(self, u_batch, v_batch):
        """Mismatched bits of each row of gradient fields."""
        s = u_batch * u_batch
        s += v_batch * v_batch
        proj = np.sqrt(s, out=s) @ self.big_m
        return np.add.reduce(np.not_equal(proj >= 0, self.want_one), axis=-1, dtype=np.intp)

    def local_state(self, u, v):
        s = np.sqrt(u * u + v * v)
        proj = s @ self.big_m
        mism, viol = self._terms(proj)
        return int(mism), float(viol), (s, proj)

    def _change(self, state, feats, du, dv, matrix):
        """``(s_new[F] - s[F]) @ matrix[F]`` for each candidate, shape
        (tuples, steps, bits)."""
        ds = np.sqrt(self._local_sq(state, feats, du, dv), dtype=np.float64)
        ds -= state.local[0][feats][:, None, :]
        return ds @ matrix[feats]

    def _moved(self, state, feats, du, dv):
        """Each candidate's projections, ``proj + (s_new[F] - s[F]) @ M[F]``,
        shape (tuples, steps, bits)."""
        moved = self._change(state, feats, du, dv, self.big_m)
        moved += state.local[1]
        return moved

    def local_scores(self, state, feats, du, dv):
        moved = self._moved(state, feats, du, dv)
        return self._terms(moved, out=moved)

    def clean_feasible(self, state, feats, du, dv):
        """Whether each candidate move from a clean state (0 mismatched
        bits, violation 0) keeps it clean: no hinge term of ``_terms`` is
        positive.  The margin delta is positive, so such a projection lies
        on its bit's side, and this is exactly ``mism == 0 and viol == 0``
        of ``local_scores``, whose clipped terms are not negative and sum
        to 0 only when every one is 0.

        The test is one signed comparison, ``sign * moved <= -offset`` on
        every bit, with ``sign * moved`` formed as the change through
        ``signed_m`` (M with its columns negated where sign is -1) plus
        ``sign * proj``.  That is the hinge test bit for bit: negating a
        column negates every product and partial sum of its gemm output
        exactly, as it does the sum with ``proj``; and ``fl(x + offset) >
        0`` holds exactly when ``x > -offset``, because rounding is
        monotone and a sum of two doubles is 0 only when it is exactly 0.
        NaN fails both forms."""
        moved = self._change(state, feats, du, dv, self.signed_m)
        moved += state.local[1] * self.sign
        return np.logical_and.reduce(moved <= self.neg_offset, axis=-1)

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
        return np.add.reduce(resid > _IMAGE_CERT_TOL, axis=-1, dtype=np.intp)

    def local_state(self, u, v):
        resid = np.abs(u * u + v * v - self.target_sq)
        return int(np.count_nonzero(resid > _IMAGE_CERT_TOL)), float(resid.sum()), resid

    def _residuals(self, state, feats, du, dv):
        """|u^2 + v^2 - t^2| on each candidate's footprint, shape (tuples,
        steps, footprint); the exact integer squares of ``_local_sq``
        minus t^2, in float64."""
        new = np.subtract(self._local_sq(state, feats, du, dv), self.target_sq[feats][:, None, :])
        return np.abs(new, out=new)

    def clean_feasible(self, state, feats, du, dv):
        """Whether each candidate move from a clean state (every residual
        exactly 0) keeps it clean: no residual on its footprint is
        nonzero.  The state's residuals are 0, so ``local_scores`` gives a
        violation of exactly the footprint's residual sum, which is 0 only
        when every residual is, and then 0 mismatches."""
        return ~self._residuals(state, feats, du, dv).any(axis=-1)

    def local_scores(self, state, feats, du, dv):
        new = self._residuals(state, feats, du, dv)
        old = state.local[feats][:, None, :]
        mism = (
            state.score[0]
            + np.add.reduce(new > _IMAGE_CERT_TOL, axis=-1, dtype=np.intp)
            - np.add.reduce(old > _IMAGE_CERT_TOL, axis=-1, dtype=np.intp)
        )
        new -= old
        return mism, state.score[1] + np.add.reduce(new, axis=-1)

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
#: Candidates (pixel tuples x steps) the repair scores at once: it takes a
#: move group in slices of ``_MOVE_CHUNK // len(steps)`` tuples, and
#: :class:`_MoveGroup` builds its tables in the same slices.  A sign
#: scorer's slice holds a few (tuples, steps, bits) float64 arrays; at
#: 112x92/256 a slice is 128 single-move tuples x 16 steps, 4 MiB per
#: array.  The answer does not depend on this size.
_MOVE_CHUNK = 2_048


class _MoveGroup:
    """One kind of move (single, pair or triple): every pixel tuple, the
    steps each tuple can take, the union footprint ``feats`` of each tuple
    (padded with feature 0 where ``valid`` is False) and the exact change
    ``du``/``dv`` of u and v on it for every step, shape (tuples, steps,
    footprint).  The footprint axis is padded to the group's widest, and
    padding slots change nothing, so (tuple, step) indexes any candidate of
    the group.  All arrays are read-only: back-to-back solves of one image
    shape share the groups.

    ``du`` and ``dv`` are int8: each entry is a sum of integer steps times
    integer kernel entries, at most 16 in magnitude for the step sets
    here, and construction checks that every one fits.  Added to the
    float64 u and v they give the same exact integers as float64 tables
    would, at one byte each: single moves take 16 steps x 8 footprint
    slots x 2 tables = 256 bytes per pixel, 2.5 MiB at 112x92.  The
    tables are built ``_MOVE_CHUNK // len(steps)`` tuples at a time."""

    def __init__(self, stencil, tuples, steps):
        n = stencil.n
        count = tuples.shape[0]
        # A pixel's adjoint row lists the features it feeds, n off the image.
        feats = np.sort(stencil.adjoint[tuples].reshape(count, -1), axis=1)
        # Union: repeats become padding, which the second sort moves last.
        feats[:, 1:][feats[:, 1:] == feats[:, :-1]] = n
        feats.sort(axis=1)
        width = int((feats < n).sum(axis=1).max(initial=0))
        feats = feats[:, :width]
        valid = feats < n
        # Padding as feature -1, which no pixel feeds: as n it would match
        # the off-image slots.
        footprint = np.where(valid, feats, -1)
        shape = (count, len(steps), width)
        self.du, self.dv = np.empty(shape, np.int8), np.empty(shape, np.int8)
        stepf = steps.astype(np.float64)
        limit = np.iinfo(np.int8)
        per = max(1, _MOVE_CHUNK // len(steps))
        for lo in range(0, count, per):
            sl = slice(lo, lo + per)
            # (A1 or A2, tuple, pixel, footprint)
            entry = np.moveaxis(stencil.entries(footprint[sl, None], tuples[sl, :, None]), -1, 0)
            for table, part in zip((self.du, self.dv), entry):
                # Integer steps times integer kernel entries: exact in any order.
                change = stepf @ part
                if change.size and not (limit.min <= change.min() and change.max() <= limit.max):
                    raise SolverError("a move changes a feature by more than an int8 holds")
                table[sl] = change
        self.tuples = tuples
        self.steps = steps
        self.valid = valid
        self.feats = np.where(valid, feats, 0)
        # Constants of the step set that ``_RepairState.moves`` reads.
        self.step_sq = (steps * steps).sum(axis=1)
        self.step_min = steps.min(axis=0)
        self.step_max = steps.max(axis=0)
        tables = (self.tuples, self.steps, self.valid, self.feats, self.du, self.dv)
        for a in (*tables, self.step_sq, self.step_min, self.step_max):
            a.flags.writeable = False


@lru_cache(maxsize=2)
def _move_groups(height: int, width: int) -> tuple[_MoveGroup, ...]:
    """Single moves, then pair moves and triple moves where the image is
    small enough.  They depend on the image shape alone; the groups of the
    last two shapes are kept, so solves that alternate between two shapes
    (2x5 and 4x4 hold under 0.5 MiB together) build them once.  Every kept
    shape holds its tables through the other's solves: at 112x92 (single
    moves only) the group holds about 3.3 MiB, 2.5 MiB of it the int8
    ``du``/``dv`` tables; at 4x6 all three groups hold about 1.4 MiB."""
    stencil = SobelStencil(height, width)
    n = stencil.n
    groups = [(np.arange(n)[:, None], _SINGLE_STEPS)]
    if 2 <= n <= _PAIR_MOVE_LIMIT:
        groups.append((np.stack(np.triu_indices(n, 1), axis=1), _PAIR_STEPS))
    if 3 <= n <= _TRIPLE_MOVE_LIMIT:
        groups.append((np.array(list(itertools.combinations(range(n), 3))), _TRIPLE_STEPS))
    return tuple(_MoveGroup(stencil, tuples.astype(np.intp), steps) for tuples, steps in groups)


class _RepairState:
    """Integer candidate: its exact gradients u and v, and the scorer's
    summary of them, recomputed from scratch after every move so that
    rounding error never builds up.

    ``u16`` and ``v16`` are int16 copies of u and v, refreshed with the
    summary, from which the scorers form the squares of a move exactly
    (``_Scorer._local_sq``).  The pixels must lie in 0..255, which every
    accepted move keeps: then |u|, |v| <= 4 * 255 and the copies are
    exact."""

    def __init__(self, scorer, pixels: np.ndarray):
        self.scorer = scorer
        self.x = pixels.astype(np.int64).copy()
        if self.x.min() < 0 or self.x.max() > 255:
            raise SolverError("repair pixels must lie in 0..255")
        self.u, self.v = scorer.stencil.apply(self.x).T.copy()
        self._refresh()

    def _refresh(self):
        self.u16, self.v16 = self.u.astype(np.int16), self.v.astype(np.int16)
        mism, viol, self.local = self.scorer.local_state(self.u, self.v)
        self.obj = float(np.sum((self.x - self.scorer.anchor) ** 2))
        self.score = (mism, viol, self.obj)

    def moves(self, group: _MoveGroup, sl: slice):
        """Whether every pixel of a move of the tuples ``sl`` of ``group``
        stays in 0..255, and its objective, each of shape (tuples, steps).

        A step s changes the objective by ``2 (x - a) s + s^2`` per pixel,
        a sum of integers and so exact in any order.  A tuple whose pixels
        stay in range under its step set's extremes keeps every step in
        range; only tuples near 0 or 255 are tested step by step."""
        tuples, steps = group.tuples[sl], group.steps
        old = self.x[tuples]
        slope = 2.0 * (old - self.scorer.anchor[tuples])
        obj = self.obj + (slope @ steps.T + group.step_sq)
        ok = np.empty(obj.shape, dtype=bool)
        ok.fill(True)
        leaves = (old + group.step_min < 0) | (old + group.step_max > 255)
        near = np.logical_or.reduce(leaves, axis=1).nonzero()[0]
        if near.size:
            vals = old[near][:, None, :] + steps
            ok[near] = ((vals >= 0) & (vals <= 255)).all(axis=2)
        return ok, obj

    def apply(self, group: _MoveGroup, t: int, step: int):
        """Move tuple ``t`` of ``group`` by step ``step``.  Pixels and
        kernel entries are integers, so u and v stay exact."""
        keep = group.valid[t]
        self.x[group.tuples[t]] += group.steps[step]
        self.u[group.feats[t][keep]] += group.du[t, step][keep]
        self.v[group.feats[t][keep]] += group.dv[t, step][keep]
        self._refresh()


def _repair(scorer, pixels: np.ndarray, budget: int, deadline: float):
    """Greedy hill climb over pixel moves, accepted only on strict
    lexicographic improvement of (mismatched bits, hinge violation,
    objective).

    The moves form groups, tried in order: single-pixel moves of
    magnitude 1..8; on images of at most 64 pixels, coordinated two-pixel
    moves (each pixel by +-1..+-3); on images of at most 24 pixels,
    three-pixel moves (each by +-1).  Each accepted move is the best of
    the first group with an improving candidate, so single moves run
    until they stall, then one pair or triple move is taken and the
    single moves resume; multi-pixel moves walk along constraint
    boundaries where any lone pixel change breaks a sign.  At most
    ``budget`` moves are accepted, multi-pixel ones included.

    A move changes only the features in the union of its pixels'
    footprints (at most 8 per pixel), so each candidate is scored from
    the state and the change on those features alone, read from the
    group's tables (:class:`_MoveGroup`).  From a clean
    state (0 mismatches, violation exactly 0) only a candidate that keeps
    it clean can improve, so such a sweep asks the scorer's
    ``clean_feasible`` test alone and takes the feasible candidate of
    lowest objective.

    Certification is lazy.  The climb logs each accepted move's pixels
    and their old values, and the (objective, move index) of every state
    with no mismatched bit.  At the end those states are rebuilt from the
    final pixels by undoing the log, in (objective, move index) order,
    and the first that passes the exact forward check is the certificate:
    the lowest objective, earliest on ties, as checking every such state
    on the way would give.  Returns (certified pixels or None, its
    objective, final pixels, final score).
    """
    state = _RepairState(scorer, pixels)
    groups = scorer.move_groups
    log: list[tuple[np.ndarray, np.ndarray]] = []
    unmismatched: list[tuple[float, int]] = []

    def note():
        if state.score[0] == 0:
            unmismatched.append((state.obj, len(log)))

    note()
    out_of_time = False

    def best_move(group: _MoveGroup):
        """Best candidate of a group as (score, group, tuple, step); ties
        go to the first in tuple-major, step-minor order.  The group is
        scored in slices of about ``_MOVE_CHUNK`` candidates, and the
        deadline is polled after each."""
        nonlocal out_of_time
        clean = state.score[:2] == (0, 0.0)
        per = max(1, _MOVE_CHUNK // len(group.steps))
        best = None
        for lo in range(0, group.tuples.shape[0], per):
            sl = slice(lo, lo + per)
            ok, obj = state.moves(group, sl)
            local = (state, group.feats[sl], group.du[sl], group.dv[sl])
            if clean:
                # Only a move that keeps the state clean can improve it.
                ok &= scorer.clean_feasible(*local)
                keys = (obj,)
            else:
                keys = (*scorer.local_scores(*local), obj)
            sel = ok.ravel().nonzero()[0]
            if sel.size == 0:
                continue
            # Lexicographic minimum of the keys, first on ties.
            for key in keys:
                kv = key.ravel()[sel]
                sel = sel[kv == kv.min()]
            b = int(sel[0])
            mism, viol = (0, 0.0) if clean else (int(keys[0].flat[b]), float(keys[1].flat[b]))
            cand = (mism, viol, float(obj.flat[b]))
            if best is None or cand < best[0]:
                t, k = divmod(b, len(group.steps))
                best = (cand, group, lo + t, k)
            if time.monotonic() > deadline:
                out_of_time = True
                break
        return best

    def take(mv) -> bool:
        if mv is None or mv[0] >= state.score:
            return False
        moved = mv[1].tuples[mv[2]]
        log.append((moved, state.x[moved]))
        state.apply(*mv[1:])
        note()
        return True

    moves = 0
    # Once out of time, no further group is scanned.
    while moves < budget and any(take(best_move(g)) for g in groups if not out_of_time):
        moves += 1
    for obj, k in sorted(unmismatched):
        x = state.x.copy()
        for moved, old in reversed(log[k:]):
            x[moved] = old
        if scorer.exact_certified(x):
            return x, obj, state.x, state.score
    return None, np.inf, state.x, state.score


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
