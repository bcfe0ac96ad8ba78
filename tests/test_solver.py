"""Solver tests.

The feature-phase oracle is Dykstra's alternating projection onto the
constraint halfspaces and the non-negative orthant; it converges to the
exact projection of the anchor onto the feasible polyhedron, providing
an independent check of the dual ascent + active-set path.
"""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from biopreimage import (
    GrayImage,
    SolveReport,
    SolveStatus,
    SolverConfig,
    SolverError,
    Template,
    binarize,
    build_feature_phase,
    build_image_phase,
    build_merged,
    build_multi_collision,
    certify,
    conv_operators,
    derive_matrix,
    enroll,
    loads_pgm,
    project,
    report_to_json,
    sign_violations,
    sobel,
    solve,
    solve_qcqp,
    solve_qp,
)
from biopreimage import pipeline as pipeline_module
from biopreimage import prng as prng_module
from biopreimage import solver as solver_module
from biopreimage.solver import (
    ImageModel,
    MergedModel,
    SobelStencil,
    _FeatureScorer,
    _pixel_footprints,
    _RepairState,
    _SignScorer,
    _window_polish,
    _window_radius,
)


def dykstra_project(anchor, halfspaces, sweeps=4000):
    """Project `anchor` onto {x >= 0} ∩ {g @ x >= b for (g, b) given}."""
    x = anchor.astype(np.float64).copy()
    corrections = [np.zeros_like(x) for _ in range(len(halfspaces) + 1)]
    for _ in range(sweeps):
        prev = x.copy()
        for i, hs in enumerate(halfspaces + ["orthant"]):
            y = x + corrections[i]
            if hs == "orthant":
                z = np.maximum(y, 0.0)
            else:
                g, b = hs
                gap = b - g @ y
                z = y + g * (gap / (g @ g)) if gap > 0 else y.copy()
            corrections[i] = y - z
            x = z
        if np.abs(x - prev).max() < 1e-13:
            break
    return x


def qp_halfspaces(problem):
    cs = problem.constraint_sets[0]
    out = []
    for j in cs.one_idx:
        out.append((cs.matrix[:, j].copy(), 0.0))
    for j in cs.zero_idx:
        out.append((-cs.matrix[:, j].copy(), problem.delta))
    return out


def feasible_feature_instance(rng, n, m):
    """Random instance whose constraints are satisfiable by construction:
    the template is read off a random non-negative witness point."""
    mat = rng.uniform(-0.5, 0.5, size=(n, m))
    witness = np.maximum(rng.uniform(-50, 300, size=n), 0.0)
    template = binarize(witness @ mat)
    anchor = rng.uniform(0, 300, size=n)
    return build_feature_phase(anchor, template, mat)


class TestFeatureQp:
    def test_kkt_hand_case_bit_one(self):
        # one halfspace x1 >= x2; the projection of (1, 2) is the
        # midpoint (1.5, 1.5) with squared distance 0.5
        mat = np.array([[0.5], [-0.5]])
        prob = build_feature_phase(np.array([1.0, 2.0]), Template.from_bitstring("1"), mat)
        rep = solve_qp(prob)
        assert rep.status is SolveStatus.CERTIFIED_FEASIBLE
        assert np.allclose(rep.solution, [1.5, 1.5], atol=1e-6)
        assert rep.objective == pytest.approx(0.5, abs=1e-9)
        assert rep.euclidean_distance == pytest.approx(np.sqrt(0.5), abs=1e-9)

    def test_kkt_hand_case_bit_zero(self):
        # mirrored case: x1 <= x2 - 2*delta, anchor on the wrong side
        mat = np.array([[0.5], [-0.5]])
        prob = build_feature_phase(np.array([2.0, 1.0]), Template.from_bitstring("0"), mat)
        rep = solve_qp(prob)
        assert rep.status is SolveStatus.CERTIFIED_FEASIBLE
        d = prob.delta
        assert np.allclose(rep.solution, [1.5 - d, 1.5 + d], atol=1e-6)
        assert rep.objective == pytest.approx(2 * (0.5 + d) ** 2, rel=1e-6)

    def test_feasible_anchor_is_fixed_point(self):
        rng = np.random.default_rng(43)
        mat = rng.uniform(-0.5, 0.5, size=(5, 3))
        anchor = rng.uniform(1, 200, size=5)
        template = binarize(anchor @ mat)
        prob = build_feature_phase(anchor, template, mat)
        rep = solve_qp(prob)
        assert rep.status is SolveStatus.CERTIFIED_FEASIBLE
        # anchor may sit within delta of a zero-bit boundary, so allow
        # a delta-sized correction but nothing larger
        assert rep.objective <= (prob.delta * 3) ** 2

    def test_matches_dykstra_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(8):
            prob = feasible_feature_instance(rng, 6, 4)
            rep = solve_qp(prob)
            assert rep.status is SolveStatus.CERTIFIED_FEASIBLE
            want = dykstra_project(prob.anchor_feature, qp_halfspaces(prob))
            want_obj = float(np.sum((want - prob.anchor_feature) ** 2))
            assert rep.objective == pytest.approx(want_obj, rel=1e-4, abs=1e-6)

    def test_certified_solution_reproduces_template(self):
        rng = np.random.default_rng(53)
        prob = feasible_feature_instance(rng, 10, 8)
        rep = solve_qp(prob)
        assert rep.status is SolveStatus.CERTIFIED_FEASIBLE
        cs = prob.constraint_sets[0]
        assert binarize(project(rep.solution, cs.matrix)) == cs.template
        assert (rep.solution >= 0).all()

    def test_infeasible_all_positive_column(self):
        # a column with only positive entries can never project a
        # non-negative feature vector to a strictly negative value
        mat = np.array([[0.3], [0.2], [0.4]])
        prob = build_feature_phase(np.array([5.0, 5.0, 5.0]), Template.from_bitstring("0"), mat)
        rep = solve_qp(prob)
        assert rep.status is SolveStatus.INFEASIBLE
        assert rep.solution is None

    def test_solve_qp_rejects_merged(self):
        img = GrayImage.from_flat(2, 2, [1, 2, 3, 4])
        prob = build_merged(img, enroll(img, "pw", 4), password=b"pw")
        with pytest.raises(SolverError):
            solve_qp(prob)


class TestMergedQcqp:
    def test_anchor_feasible_short_circuit(self, monkeypatch):
        img = GrayImage.from_flat(2, 2, [10, 200, 35, 90])
        prob = build_merged(img, enroll(img, "pw", 12), password=b"pw")
        rep = solve_qcqp(prob, SolverConfig(time_limit=30, rng_seed=1))
        assert rep.status is SolveStatus.CERTIFIED_FEASIBLE
        assert rep.objective == 0.0
        assert rep.solution == img

        def no_stage(*args):
            raise AssertionError("a certified anchor needs no continuous stage")

        monkeypatch.setattr(solver_module, "_continuous_stage", no_stage)
        rep = solve_qcqp(prob, SolverConfig(time_limit=30, rng_seed=1))
        assert rep.certified
        assert rep.objective == 0.0
        assert rep.solution == img

    def test_no_exact_check_inside_continuous_stage(self, monkeypatch):
        # Certificates come from the anchor check, the repair and the
        # window polish; the continuous stage's iterates reach them only
        # through the repair of their rounding.
        open_stages, checks = [], []
        stage = solver_module._continuous_stage

        def tracked(*args):
            open_stages.append(True)
            try:
                return stage(*args)
            finally:
                open_stages.pop()

        exact = solver_module._SignScorer.exact_certified

        def counted(self, pixels):
            checks.append(bool(open_stages))
            return exact(self, pixels)

        monkeypatch.setattr(solver_module, "_continuous_stage", tracked)
        monkeypatch.setattr(solver_module._SignScorer, "exact_certified", counted)
        img = GrayImage.from_flat(2, 2, [200, 9, 77, 130])
        anchor = GrayImage.from_flat(2, 2, [0, 255, 32, 64])
        prob = build_merged(anchor, enroll(img, "pw", 16), password=b"pw")
        rep = solve_qcqp(prob, SolverConfig(time_limit=60, rng_seed=7, restarts=2))
        assert rep.certified
        assert checks and not any(checks)

    def test_random_2x2_certifies(self):
        cfg = SolverConfig(time_limit=60, rng_seed=2, restarts=4)
        rng = np.random.default_rng(59)
        for _ in range(3):
            victim = GrayImage(2, 2, rng.integers(0, 256, size=(2, 2)))
            anchor = GrayImage(2, 2, rng.integers(0, 256, size=(2, 2)))
            t = enroll(victim, "victim-pw", 20)
            prob = build_merged(anchor, t, password=b"victim-pw")
            rep = solve_qcqp(prob, cfg)
            assert rep.status is SolveStatus.CERTIFIED_FEASIBLE
            assert enroll(rep.solution, "victim-pw", 20) == t
            assert all(rep.certification.values())
            assert rep.objective == pytest.approx(
                float(((rep.solution.flat() - anchor.flat()) ** 2).sum())
            )

    def test_1x1_zero_bit_infeasible(self):
        # a single pixel has zero gradient, so every projection is zero
        # and every bit comes out 1; a 0 bit is unreachable
        img = GrayImage(1, 1, [[128]])
        t = Template.from_bitstring("10")
        mat = derive_matrix("pw", 1, 2)
        prob = build_merged(img, t, matrix=mat)
        rep = solve_qcqp(prob, SolverConfig(time_limit=20, rng_seed=3, restarts=2))
        assert rep.status in (SolveStatus.INFEASIBLE, SolveStatus.CONTINUOUS_ONLY)
        assert rep.solution is None

    def test_timeout_status(self):
        rng = np.random.default_rng(61)
        anchor = GrayImage(3, 3, rng.integers(0, 256, size=(3, 3)))
        t = Template(rng.integers(0, 2, size=20))
        prob = build_merged(anchor, t, password=b"nobody")
        rep = solve_qcqp(prob, SolverConfig(time_limit=0.05, rng_seed=4))
        assert rep.status in (SolveStatus.TIMED_OUT, SolveStatus.CERTIFIED_FEASIBLE)
        assert rep.wall_time < 10.0

    def test_one_continuous_pass_per_restart(self, monkeypatch):
        models = []
        stage = solver_module._continuous_stage

        def counted(model, *args):
            models.append(model)
            return stage(model, *args)

        monkeypatch.setattr(solver_module, "_continuous_stage", counted)
        img = GrayImage.from_flat(2, 2, [200, 9, 77, 130])
        anchor = GrayImage.from_flat(2, 2, [0, 255, 32, 64])
        prob = build_merged(anchor, enroll(img, "pw", 16), password=b"pw")
        assert not all(certify(anchor, prob).values())  # no early certificate
        rep = solve_qcqp(prob, SolverConfig(time_limit=60, rng_seed=7, restarts=2))
        assert rep.certified
        assert len(models) == 2
        assert models[0] is models[1]  # one model per problem

    def test_deterministic_given_seed(self):
        img = GrayImage.from_flat(2, 2, [200, 9, 77, 130])
        anchor = GrayImage.from_flat(2, 2, [0, 255, 32, 64])
        prob = build_merged(anchor, enroll(img, "pw", 16), password=b"pw")
        cfg = SolverConfig(time_limit=60, rng_seed=7, restarts=3)
        r1 = solve_qcqp(prob, cfg)
        r2 = solve_qcqp(prob, cfg)
        assert r1.status == r2.status
        assert r1.objective == r2.objective
        assert r1.solution == r2.solution


class TestImagePhase:
    def test_attainable_target(self):
        rng = np.random.default_rng(67)
        hidden = GrayImage(2, 2, rng.integers(0, 256, size=(2, 2)))
        anchor = GrayImage(2, 2, rng.integers(0, 256, size=(2, 2)))
        prob = build_image_phase(anchor, sobel(hidden))
        rep = solve_qcqp(prob, SolverConfig(time_limit=60, rng_seed=5))
        assert rep.status is SolveStatus.CERTIFIED_FEASIBLE
        assert np.abs(sobel(rep.solution) ** 2 - prob.target_feature**2).max() <= 0.5

    def test_zero_target_solved_by_flat_image(self):
        anchor = GrayImage(1, 1, [[99]])
        prob = build_image_phase(anchor, np.zeros(1))
        rep = solve_qcqp(prob, SolverConfig(time_limit=10, rng_seed=6))
        assert rep.status is SolveStatus.CERTIFIED_FEASIBLE
        assert rep.objective == 0.0

    def test_unattainable_1x1_target(self):
        anchor = GrayImage(1, 1, [[99]])
        prob = build_image_phase(anchor, np.array([100.0]))
        rep = solve_qcqp(prob, SolverConfig(time_limit=10, rng_seed=7))
        assert rep.status is SolveStatus.INFEASIBLE


class TestInterfaces:
    def test_solve_dispatch(self):
        img = GrayImage.from_flat(2, 2, [10, 200, 35, 90])
        t = enroll(img, "pw", 8)
        feat_prob = build_feature_phase(sobel(img), t, derive_matrix("pw", 4, 8))
        merged_prob = build_merged(img, t, password=b"pw")
        assert solve(feat_prob).status is SolveStatus.CERTIFIED_FEASIBLE
        assert solve(merged_prob, SolverConfig(time_limit=30)).status is (
            SolveStatus.CERTIFIED_FEASIBLE
        )
        with pytest.raises(SolverError):
            solve_qcqp(feat_prob)

    def test_config_validation(self):
        with pytest.raises(SolverError):
            SolverConfig(time_limit=0)
        with pytest.raises(SolverError):
            SolverConfig(restarts=0)
        with pytest.raises(SolverError):
            SolverConfig(rng_seed=-1)

    @pytest.mark.parametrize("field", ["time_limit"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(SolverError, match=field):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("restarts", 2.5),
            ("restarts", True),
            ("max_outer_iterations", "3"),
            ("repair_budget", 2.5),
            ("rng_seed", 1.5),
            ("time_limit", "30"),
            ("time_limit", None),
            ("time_limit", True),
        ],
    )
    def test_config_rejects_mistyped_values(self, field, value):
        with pytest.raises(SolverError, match=field):
            SolverConfig(**{field: value})

    def test_certify_keys_and_mismatch(self):
        img = GrayImage.from_flat(2, 2, [10, 200, 35, 90])
        prob = build_merged(img, enroll(img, "pw", 8), password=b"pw")
        assert certify(img, prob) == {"0": True}
        with pytest.raises(SolverError):
            certify(GrayImage(1, 1, [[0]]), prob)

    def test_certify_nan_projection_is_uncertified(self, monkeypatch):
        # finite matrix entries can still overflow to inf - inf = NaN in
        # some summation orders; a NaN has no sign and matches no bit
        img = GrayImage.from_flat(2, 2, [10, 200, 35, 90])
        mat = np.array([[1e308], [-1e308], [1e308], [-1e308]])
        prob = build_merged(img, Template.from_bitstring("1"), matrix=mat, delta=1.0)
        monkeypatch.setattr(solver_module, "project", lambda f, m: np.full(m.shape[1], np.nan))
        assert certify(img, prob) == {"0": False}

    def test_conv_operators_match_sobel(self):
        rng = np.random.default_rng(71)
        a1, a2 = conv_operators(3, 4)
        img = GrayImage(4, 3, rng.integers(0, 256, size=(3, 4)))
        gx = a1 @ img.flat()
        gy = a2 @ img.flat()
        assert np.allclose(np.sqrt(gx**2 + gy**2), sobel(img))

    def test_report_json_with_image_solution(self):
        img = GrayImage.from_flat(2, 2, [10, 200, 35, 90])
        prob = build_merged(img, enroll(img, "pw", 8), password=b"pw")
        rep = solve_qcqp(prob, SolverConfig(time_limit=30))
        doc = report_to_json(rep)
        assert doc["status"] == "certified_feasible"
        assert doc["objective"] == 0.0
        assert doc["solution"]["type"] == "image"
        assert loads_pgm(doc["solution"]["pgm"]) == img
        assert doc["certification"] == {"0": True}
        json.dumps(doc)

    def test_report_json_with_feature_solution(self):
        mat = np.array([[0.5], [-0.5]])
        prob = build_feature_phase(np.array([1.0, 2.0]), Template.from_bitstring("1"), mat)
        doc = report_to_json(solve_qp(prob))
        assert doc["solution"]["type"] == "feature"
        assert doc["solution"]["values"] == pytest.approx([1.5, 1.5], abs=1e-6)
        json.dumps(doc)

    def test_report_json_without_solution(self):
        mat = np.array([[0.3], [0.2], [0.4]])
        prob = build_feature_phase(
            np.array([5.0, 5.0, 5.0]), Template.from_bitstring("0"), mat
        )
        doc = report_to_json(solve_qp(prob))
        assert doc["status"] == "infeasible"
        assert doc["solution"] is None
        assert doc["objective"] is None
        json.dumps(doc)

    def test_euclidean_distance_is_root_of_objective(self):
        assert SolveReport(SolveStatus.CERTIFIED_FEASIBLE, None, 2.25, 0.0).euclidean_distance == 1.5
        infeasible = SolveReport(SolveStatus.INFEASIBLE, None, float("inf"), 0.0)
        assert infeasible.euclidean_distance == float("inf")
        assert report_to_json(infeasible)["euclidean_distance"] is None


# ---------------------------------------------------------------------------
# Certification: one forward check through the stored matrices


def _noise(rng, h, w):
    return GrayImage(w, h, rng.integers(0, 256, size=(h, w)))


class TestCertify:
    @pytest.mark.parametrize("orthonormalize", [False, True])
    def test_derives_no_matrix(self, monkeypatch, orthonormalize):
        rng = np.random.default_rng(131)
        v1, v2, other = (_noise(rng, 4, 4) for _ in range(3))
        t1, t2 = enroll(v1, "pw-1", 6, orthonormalize), enroll(v2, "pw-2", 6, orthonormalize)
        merged = build_merged(other, t1, password=b"pw-1", orthonormalize=orthonormalize)
        collision = build_multi_collision(
            other, [(t1, b"pw-1"), (t2, b"pw-2")], orthonormalize=orthonormalize
        )
        want = {
            img: (enroll(img, "pw-1", 6, orthonormalize) == t1, enroll(img, "pw-2", 6, orthonormalize) == t2)
            for img in (v1, v2, other)
        }

        def refuse(*args, **kwargs):
            raise AssertionError("certification derived a matrix")

        monkeypatch.setattr(pipeline_module, "derive_matrix", refuse)
        monkeypatch.setattr(prng_module, "derive_matrix", refuse)
        for img, (ok1, ok2) in want.items():
            assert certify(img, merged) == {"0": ok1}
            assert certify(img, collision) == {"0": ok1, "1": ok2}
        assert want[v1][0] and want[v2][1] and not any(want[other])

    def test_feature_scorer_runs_the_pipeline(self, monkeypatch):
        rng = np.random.default_rng(137)
        hidden, anchor = _noise(rng, 3, 4), _noise(rng, 3, 4)
        scorer = _FeatureScorer(build_image_phase(anchor, sobel(hidden)))

        def refuse(self, x):
            raise AssertionError("certified through the solver's stencil")

        monkeypatch.setattr(SobelStencil, "apply", refuse)
        assert scorer.exact_certified(hidden.flat().astype(np.int64))
        assert not scorer.exact_certified(anchor.flat().astype(np.int64))

    @pytest.mark.parametrize("kind", ["merged", "collision", "image"])
    def test_scorers_agree_with_certify(self, kind):
        rng = np.random.default_rng(139)
        h, w = 3, 4
        victim, anchor = _noise(rng, h, w), _noise(rng, h, w)
        if kind == "image":
            problem = build_image_phase(anchor, sobel(victim))
        elif kind == "merged":
            problem = build_merged(anchor, enroll(victim, "pw-0", 4), password=b"pw-0")
        else:
            victims = [(enroll(victim, pw, 4), pw.encode()) for pw in ("pw-0", "pw-1")]
            problem = build_multi_collision(anchor, victims)
        scorer = _FeatureScorer(problem) if kind == "image" else _SignScorer(problem)
        candidates = [victim.flat()] + [rng.integers(0, 256, size=h * w) for _ in range(40)]
        verdicts = set()
        for pixels in candidates:
            want = all(certify(GrayImage(w, h, pixels.reshape(h, w)), problem).values())
            assert scorer.exact_certified(pixels.astype(np.int64)) is want
            verdicts.add(want)
        assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# Incremental scoring inside solve_qcqp


def _random_problem(rng, h, w, bits, kind="merged"):
    victim = GrayImage(w, h, rng.integers(0, 256, size=(h, w)))
    anchor = GrayImage(w, h, rng.integers(0, 256, size=(h, w)))
    if kind == "image":
        return build_image_phase(anchor, sobel(victim))
    return build_merged(anchor, enroll(victim, "pw", bits), password=b"pw")


def _al_reference(model, z, lam, mu, rho):
    """Value and gradient written out as separate forward passes through
    the model's own operator, the formulas that evaluate() fuses."""
    op, n = model.stencil, model.n

    def grads(x):
        uv = op.apply(x)
        return uv[:, 0], uv[:, 1]

    def adjoint(ru, rv):
        return op.transpose(np.stack([ru, rv], axis=1))

    if isinstance(model, ImageModel):
        u, v = grads(z)
        h = u * u + v * v - model.target_sq
        value = float(np.sum((z - model.anchor) ** 2) + lam @ h + 0.5 * rho * h @ h)
        u, v = grads(z)
        h = u * u + v * v - model.target_sq
        w = lam + rho * h
        return value, 2.0 * (z - model.anchor) + 2.0 * adjoint(w * u, w * v)
    x, y = z[:n], z[n:]
    u, v = grads(x)
    h = y * y - u * u - v * v
    g = model.rows @ y + model.offsets
    hinge = np.maximum(0.0, mu + rho * g)
    value = float(
        np.sum((x - model.anchor) ** 2)
        + lam @ h
        + 0.5 * rho * h @ h
        + (hinge @ hinge - mu @ mu) / (2.0 * rho)
    )
    u, v = grads(x)
    h = y * y - u * u - v * v
    g = model.rows @ y + model.offsets
    w = lam + rho * h
    gx = 2.0 * (x - model.anchor) - 2.0 * adjoint(w * u, w * v)
    gy = 2.0 * w * y + model.rows.T @ np.maximum(0.0, mu + rho * g)
    return value, np.concatenate([gx, gy])


_STENCIL_SHAPES = [(1, 1), (1, 7), (7, 1), (2, 5), (3, 4), (16, 16)]


class TestSobelStencil:
    @pytest.mark.parametrize("shape", _STENCIL_SHAPES)
    def test_tables_match_dense_operators(self, shape):
        h, w = shape
        n = h * w
        op = SobelStencil(h, w)
        dense = np.stack(conv_operators(h, w), axis=-1)  # (feature, pixel, kernel)
        from_forward = np.zeros((n + 1, n + 1, 2))
        from_adjoint = np.zeros((n + 1, n + 1, 2))
        for k in range(op.weights.shape[0]):
            from_forward[np.arange(n), op.forward[:, k]] += op.weights[k]
            from_adjoint[op.adjoint[:, k], np.arange(n)] += op.weights[k]
        assert np.array_equal(from_forward[:n, :n], dense)
        assert np.array_equal(from_adjoint[:n, :n], dense)
        feats, pixels = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        assert np.array_equal(op.entries(feats, pixels), dense)

    @pytest.mark.parametrize("shape", _STENCIL_SHAPES)
    def test_adjoint_identity(self, shape):
        h, w = shape
        rng = np.random.default_rng(97)
        op = SobelStencil(h, w)
        a1, a2 = conv_operators(h, w)
        for _ in range(5):
            x = rng.standard_normal(op.n)
            r = rng.standard_normal((op.n, 2))
            lhs = float(np.sum(op.apply(x) * r))
            rhs = float(x @ op.transpose(r))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
            want = a1.T @ r[:, 0] + a2.T @ r[:, 1]
            assert np.allclose(op.transpose(r), want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("shape", _STENCIL_SHAPES)
    def test_integer_images_bitwise_equal_to_dense(self, shape):
        h, w = shape
        rng = np.random.default_rng(101)
        op = SobelStencil(h, w)
        a1, a2 = conv_operators(h, w)
        for _ in range(5):
            x = rng.integers(0, 256, size=op.n).astype(np.float64)
            uv = op.apply(x)
            assert uv.tobytes() == np.stack([a1 @ x, a2 @ x], axis=1).tobytes()
            img = GrayImage(w, h, x.reshape(h, w))
            assert np.array_equal(np.sqrt(uv[:, 0] ** 2 + uv[:, 1] ** 2), sobel(img))

    def test_scale_builds_no_dense_operator(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("dense operator built")

        rng = np.random.default_rng(103)
        merged = _random_problem(rng, 64, 64, 64)
        image = _random_problem(rng, 64, 64, 64, kind="image")
        monkeypatch.setattr(solver_module, "conv_operators", refuse)
        tracemalloc.start()
        try:
            MergedModel(merged)
            ImageModel(image)
            groups = _SignScorer(merged).move_groups
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(groups) == 1  # single moves only past 64 pixels
        # the dense pair alone would take 2 * 4096**2 * 8 bytes = 268 MB
        assert peak < 40e6


class TestFusedEvaluation:
    @pytest.mark.parametrize("shape", [(2, 5, 20), (4, 6, 20), (16, 16, 64)])
    def test_bitwise_equal_to_separate_passes(self, shape):
        rng = np.random.default_rng(81)
        h, w, bits = shape
        models = [
            MergedModel(_random_problem(rng, h, w, bits), margin=4.0),
            ImageModel(_random_problem(rng, h, w, bits, kind="image")),
        ]
        for model in models:
            for _ in range(5):
                z = rng.uniform(0.05, 0.95, size=model.upper.size) * model.upper
                lam = rng.standard_normal(model.n_eq)
                mu = np.abs(rng.standard_normal(model.n_ineq))
                rho = float(10 ** rng.uniform(0, 4))
                want_value, want_grad = _al_reference(model, z, lam, mu, rho)
                value, grad_at = model.evaluate(z, lam, mu, rho)
                grad = grad_at()
                assert value == want_value
                assert grad.tobytes() == want_grad.tobytes()
                assert model.evaluate(z, lam, mu, rho, mu @ mu)[0] == want_value
                assert model.al_value(z, lam, mu, rho) == want_value
                assert model.al_grad(z, lam, mu, rho).tobytes() == want_grad.tobytes()


def _dense_violation(problem, u, v):
    """Constraint violation of each row of gradient fields, written out:
    the summed sign hinges of ``sign_violations``, or for the image phase
    the summed |u^2 + v^2 - t^2|."""
    sq = u * u + v * v
    if problem.target_feature is not None:
        return np.abs(sq - problem.target_feature**2).sum(axis=-1)
    return np.array([sign_violations(np.sqrt(row), problem).sum() for row in sq])


def _dense_scores(scorer, x, steps, chunk):
    """Every candidate of a chunk scored the direct way: move the pixels,
    recompute u and v over the whole image, count mismatches with
    score_batch and write the violation out."""
    tuples = chunk.tuples
    cand = np.repeat(x[None, :], tuples.shape[0] * len(steps), axis=0)
    rows = np.arange(cand.shape[0])[:, None]
    cols = np.repeat(tuples, len(steps), axis=0)
    cand[rows, cols] += np.tile(steps, (tuples.shape[0], 1))
    candf = cand.astype(np.float64)
    obj = ((candf - scorer.anchor) ** 2).sum(axis=1)
    a1, a2 = conv_operators(scorer.problem.height, scorer.problem.width)
    u, v = candf @ a1.T, candf @ a2.T
    return scorer.score_batch(u, v), _dense_violation(scorer.problem, u, v), obj


def _exact_mismatches(problem, pixels):
    """Template bits (or image-phase features) the forward pipeline gets
    wrong for these pixels."""
    img = GrayImage.from_flat(problem.width, problem.height, pixels)
    if problem.target_feature is not None:
        return int((np.abs(sobel(img) ** 2 - problem.target_feature**2) > 0.5).sum())
    feat = sobel(img)
    return sum(
        int((binarize(project(feat, cs.matrix)).bits != cs.template.bits).sum())
        for cs in problem.constraint_sets
    )


def _close(got, want):
    return np.abs(got - want).max(initial=0.0) <= 1e-9 * max(1.0, np.abs(want).max(initial=0.0))


class TestFootprintScoring:
    @pytest.mark.parametrize(
        "shape,kind,groups",
        [
            ((2, 5, 20), "merged", 3),
            ((2, 5, 20), "image", 3),
            ((4, 6, 20), "merged", 3),
            ((16, 16, 64), "merged", 1),
        ],
        ids=["2x5-sign", "2x5-image", "4x6-sign", "16x16-sign"],
    )
    def test_matches_dense_scores(self, shape, kind, groups):
        rng = np.random.default_rng(83)
        h, w, bits = shape
        problem = _random_problem(rng, h, w, bits, kind)
        scorer = _FeatureScorer(problem) if kind == "image" else _SignScorer(problem)
        assert len(scorer.move_groups) == groups
        a1, a2 = conv_operators(h, w)
        black = np.zeros(problem.n, dtype=np.int64)  # every projection is exactly 0
        for pixels in [black] + [rng.integers(0, 256, size=problem.n) for _ in range(3)]:
            state = _RepairState(scorer, pixels)
            assert state.score[0] == _exact_mismatches(problem, pixels)
            for steps, chunks in scorer.move_groups:
                for chunk in chunks:
                    vals, mism, viol, obj = state.candidates(steps, chunk)
                    d_mism, d_viol, d_obj = _dense_scores(scorer, state.x, steps, chunk)
                    assert np.array_equal(mism.ravel(), d_mism)
                    assert _close(viol.ravel(), d_viol)
                    assert _close(obj.ravel(), d_obj)
                    # the state's own score is the dense score of its pixels
                    xf = state.x.astype(np.float64)
                    u, v = (a1 @ xf)[None], (a2 @ xf)[None]
                    assert state.score[0] == scorer.score_batch(u, v)[0]
                    assert _close(state.score[1], _dense_violation(problem, u, v))

    def test_applied_moves_keep_gradients_exact(self):
        rng = np.random.default_rng(89)
        problem = _random_problem(rng, 4, 6, 20)
        scorer = _SignScorer(problem)
        a1, a2 = conv_operators(4, 6)
        state = _RepairState(scorer, rng.integers(20, 236, size=problem.n))
        for steps, chunks in scorer.move_groups:
            chunk = chunks[0]
            t = int(rng.integers(chunk.tuples.shape[0]))
            k = int(rng.integers(len(steps)))
            state.apply(chunk, t, k, state.x[chunk.tuples[t]] + steps[k])
            xf = state.x.astype(np.float64)
            assert np.array_equal(state.u, a1 @ xf)
            assert np.array_equal(state.v, a2 @ xf)

    def test_footprints_cover_exactly_the_changed_features(self):
        for h, w in [(1, 1), (1, 7), (7, 1), (2, 5), (3, 4)]:
            n = h * w
            a1, a2 = conv_operators(h, w)
            fp = _pixel_footprints(SobelStencil(h, w))
            counts = []
            for p in range(n):
                touched = np.flatnonzero((a1[:, p] != 0) | (a2[:, p] != 0))
                assert np.array_equal(fp[p][: touched.size], touched)
                assert (fp[p][touched.size :] == n).all()
                assert touched.size <= 8
                counts.append(touched.size)
            # padded to the widest footprint, no wider
            assert fp.shape == (n, max(counts))


# ---------------------------------------------------------------------------
# Window polish against a scan of the whole box


def _box_polish_oracle(scorer, pixels, obj_limit):
    """The window polish as a scan of the whole box: mixed-radix digits
    for every box point (first pixel most significant), the 0..255 range
    check, the cut below ``obj_limit``, dense u and v and ``score_batch``,
    in chunks of 2**18 box points.  Returns the candidate with no
    mismatched bit and the smallest (objective, box index) that passes
    the exact check, with its objective, else (None, obj_limit)."""
    n = pixels.size
    w = _window_radius(n)
    base = 2 * w + 1
    a1, a2 = conv_operators(scorer.problem.height, scorer.problem.width)
    best, best_obj = None, obj_limit
    for lo in range(0, base**n, 1 << 18):
        idx = np.arange(lo, min(base**n, lo + (1 << 18)))
        digits = np.empty((idx.size, n), dtype=np.int64)
        q = idx
        for t in range(n - 1, -1, -1):
            digits[:, t] = q % base
            q = q // base
        cand = pixels + digits - w
        obj = ((cand - scorer.anchor) ** 2).sum(axis=1)
        keep = ((cand >= 0) & (cand <= 255)).all(axis=1) & (obj < obj_limit)
        cand, obj, idx = cand[keep], obj[keep], idx[keep]
        candf = cand.astype(np.float64)
        mism = scorer.score_batch(candf @ a1.T, candf @ a2.T)
        ok = np.flatnonzero(mism == 0)
        # a later chunk holds larger box indices: it must be strictly better
        for i in ok[np.lexsort((idx[ok], obj[ok]))]:
            if obj[i] >= best_obj:
                break
            if scorer.exact_certified(cand[i]):
                best, best_obj = cand[i], float(obj[i])
                break
    return best, best_obj


def _polish_case(h, w, kind, border, seed):
    """A problem whose victim image is certified by construction, the
    victim's pixels and its objective.  ``border`` draws the victim from
    values next to 0 and 255, so the box is cut off on both sides."""
    rng = np.random.default_rng(seed)
    values = [0, 1, 2, 253, 254, 255] if border else np.arange(256)
    victim = GrayImage(w, h, rng.choice(values, size=(h, w)))
    anchor = GrayImage(w, h, rng.integers(0, 256, size=(h, w)))
    if kind == "image":
        problem = build_image_phase(anchor, sobel(victim))
        scorer = _FeatureScorer(problem)
    else:
        problem = build_merged(anchor, enroll(victim, "pw", 20), password=b"pw")
        scorer = _SignScorer(problem)
    pixels = victim.flat().astype(np.int64)
    assert scorer.exact_certified(pixels)
    return scorer, pixels, float(((pixels - scorer.anchor) ** 2).sum())


class _SymmetricScorer(_FeatureScorer):
    """Feasible when u on ``features`` lies at least ``reach`` (in L1)
    from the anchor's.  The rule is symmetric under x - anchor ->
    anchor - x, so feasible candidates tie in pairs.  The exact check
    follows the same rule but refuses the pixels ``refuse``."""

    def __init__(self, problem, reach, features, refuse=None):
        super().__init__(problem)
        self.features = features
        self.a1 = conv_operators(problem.height, problem.width)[0][features]
        self.reach = reach
        self.refuse = refuse
        self.u0 = self.a1 @ self.anchor

    def score_batch(self, u_batch, v_batch):
        moved = np.abs(u_batch[:, self.features] - self.u0).sum(axis=-1)
        return (moved < self.reach).astype(np.int64)

    def exact_certified(self, pixels):
        if self.refuse is not None and np.array_equal(pixels, self.refuse):
            return False
        return bool(np.abs(self.a1 @ pixels - self.u0).sum() >= self.reach)


class TestWindowPolish:
    @pytest.mark.parametrize("kind", ["merged", "image"])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 3), (2, 2), (2, 3), (2, 5), (3, 3)])
    def test_matches_box_oracle(self, monkeypatch, shape, kind):
        def refuse(*args):
            raise AssertionError("dense operator built")

        # The polish takes its operator columns from the stencil; only the
        # oracle reads the dense reference.
        monkeypatch.setattr(solver_module, "conv_operators", refuse)
        h, w = shape
        improved = 0
        for border, seed in [(False, 107), (True, 109)]:
            scorer, pixels, limit = _polish_case(h, w, kind, border, seed)
            got, got_obj = _window_polish(scorer, pixels, limit, np.inf)
            want, want_obj = _box_polish_oracle(scorer, pixels, limit)
            assert got_obj == want_obj
            if want is None:
                assert got is None
            else:
                assert np.array_equal(got, want)
                assert got_obj < limit and scorer.exact_certified(got)
                improved += 1
        if kind == "merged":
            assert improved > 0

    @pytest.mark.parametrize("batch", [None, 1], ids=["default-batch", "one-row-batches"])
    @pytest.mark.parametrize(
        "width,features,pixel",
        [(2, [0, 1], 0), (4, [0, 1, 2, 3], 0), (4, [3], 2)],
        ids=["1x2-across-rows", "1x4-across-rows", "1x4-within-a-row"],
    )
    def test_ties_go_to_the_smallest_box_index(self, monkeypatch, width, features, pixel, batch):
        """Stepping ``pixel`` by one either way is feasible at objective 1,
        and down has the smaller box index.  In the 1x4-within-a-row case
        only u[3] counts, which reads pixel 2 alone, so the tie lies
        inside one row of the leading half."""
        if batch is not None:
            monkeypatch.setattr(solver_module, "_WINDOW_BATCH", batch)
        anchor = GrayImage(width, 1, np.full((1, width), 100))
        problem = build_image_phase(anchor, sobel(anchor))
        pixels = anchor.flat().astype(np.int64)
        down, up = pixels.copy(), pixels.copy()
        down[pixel] -= 1
        up[pixel] += 1
        scorer = _SymmetricScorer(problem, 2.0, features)
        assert scorer.exact_certified(down) and scorer.exact_certified(up)
        for got, got_obj in (
            _window_polish(scorer, pixels, np.inf, np.inf),
            _box_polish_oracle(scorer, pixels, np.inf),
        ):
            assert got_obj == 1.0 and np.array_equal(got, down)
        # When the exact check refuses the float winner, the next candidate
        # in (objective, box index) order wins.
        scorer = _SymmetricScorer(problem, 2.0, features, refuse=down)
        got, got_obj = _window_polish(scorer, pixels, np.inf, np.inf)
        want, want_obj = _box_polish_oracle(scorer, pixels, np.inf)
        assert got_obj == want_obj == 1.0 and np.array_equal(got, want)
        assert not np.array_equal(got, down)

    @pytest.mark.parametrize("kind", ["merged", "image"])
    def test_nothing_below_the_limit_returns_none(self, kind):
        scorer, pixels, limit = _polish_case(2, 3, kind, False, 113)
        best, best_obj = _box_polish_oracle(scorer, pixels, limit)
        floor = limit if best is None else best_obj
        for cut in (floor, 0.0):
            assert _window_polish(scorer, pixels, cut, np.inf) == (None, cut)

    def test_memory_stays_bounded_at_3x3(self):
        scorer, pixels, limit = _polish_case(3, 3, "merged", False, 127)
        pixels = np.clip(pixels, 2, 253)  # the whole box is in range
        limit = float(((pixels - scorer.anchor) ** 2).sum())
        tracemalloc.start()
        try:
            _window_polish(scorer, pixels, limit, np.inf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole-box scan of the 1.95M box points peaks near 165 MB
        assert peak < 32e6


# Status, objective and a pixel digest of fixed seeded solves, recorded
# with numpy 2.4.6 and OpenBLAS 0.3.31.  The rows were first recorded
# when the continuous stage applied the gradient operators as dense BLAS
# products; the merged-4x6 seeds 0 and 3, merged-16x16 and collision rows
# were re-recorded when it moved to the stencil tables, which sum u and v
# in another order.  The three merged-4x6 rows were re-recorded again when
# each restart dropped its second continuous pass (at a sign margin of
# 0.25); the image-phase, 16x16 and collision rows did not move.  A change
# that alters what the solver does fails here.
_DESK = SolverConfig(restarts=1, max_outer_iterations=6, repair_budget=10, time_limit=60.0)
_REPAIR = SolverConfig(restarts=1, max_outer_iterations=2, repair_budget=12, time_limit=60.0)
_SCALE = SolverConfig(restarts=1, max_outer_iterations=10, repair_budget=5, time_limit=120.0)


def _pinned_problem(kind, seed):
    rng = np.random.default_rng(seed)

    def noise(h, w):
        return GrayImage(w, h, rng.integers(0, 256, (h, w)))

    if kind == "image":
        hidden, anchor = noise(2, 5), noise(2, 5)
        return build_image_phase(anchor, sobel(hidden))
    if kind == "collision":
        pairs = []
        for k in range(2):
            pw = f"pin-{seed}-{k}"
            pairs.append((enroll(noise(4, 4), pw, 8), pw.encode()))
        return build_multi_collision(noise(4, 4), pairs)
    h, w, bits = {"merged-4x6": (4, 6, 20), "merged-16x16": (16, 16, 64)}[kind]
    victim, anchor = noise(h, w), noise(h, w)
    pw = f"pin-{seed}"
    return build_merged(anchor, enroll(victim, pw, bits), password=pw.encode())


@pytest.mark.parametrize(
    "kind,seed,config,status,objective,digest",
    [
        ("merged-4x6", 0, _REPAIR, "certified_feasible", 295.0, "cec678dc215f3d7a"),
        ("merged-4x6", 1, _REPAIR, "certified_feasible", 38.0, "0cdc01a159fb9cb8"),
        ("merged-4x6", 3, _REPAIR, "certified_feasible", 69462.0, "876c33cc658ee9e9"),
        ("merged-16x16", 0, _SCALE, "certified_feasible", 41759.0, "a6daebd912737bc2"),
        ("image", 0, _DESK, "infeasible", float("inf"), None),
        ("image", 1, _DESK, "certified_feasible", 54471.0, "a2c0b940c2ee905d"),
        ("image", 3, _DESK, "certified_feasible", 70886.0, "94055cb7abbe00b8"),
        ("collision", 1, _DESK, "certified_feasible", 605.0, "adf8086f7af2a39d"),
        ("collision", 2, _DESK, "certified_feasible", 2332.0, "fddd8700be6b3ce0"),
    ],
)
def test_pinned_solver_output(kind, seed, config, status, objective, digest):
    rep = solve_qcqp(_pinned_problem(kind, seed), config)
    assert rep.status.value == status
    assert rep.objective == objective
    if digest is None:
        assert rep.solution is None
    else:
        pixels = rep.solution.flat().astype(np.uint8).tobytes()
        assert hashlib.sha256(pixels).hexdigest()[:16] == digest
