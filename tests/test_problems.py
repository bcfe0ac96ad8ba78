"""Attack-problem construction, Hamming centers, capacity analysis,
and archival JSON."""

import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from biopreimage import problems
from biopreimage import (
    AttackProblem,
    GrayImage,
    ProblemError,
    ProblemKind,
    SignConstraintSet,
    Template,
    build_feature_phase,
    build_image_phase,
    build_merged,
    build_multi_auth,
    build_multi_collision,
    capacity,
    default_margin,
    derive_matrix,
    enroll,
    hamming_center,
    hamming_distance,
    independence_probability,
    problem_from_json,
    problem_to_json,
    sign_violations,
    sobel,
    template_mismatches,
)


def minimax_oracle(bit_rows):
    """Exhaustive minimax center over all 2^m candidates.

    Ties prefer the candidate agreeing with the first row at the
    lowest-index disagreeing bit (bit 0 is most significant in the
    comparison).  Returns (center_bits, radius).
    """
    rows = np.asarray(bit_rows, dtype=np.uint8)
    t, m = rows.shape
    best_center, best_key = None, None
    for code in range(1 << m):
        cand = np.array([(code >> (m - 1 - i)) & 1 for i in range(m)], dtype=np.uint8)
        radius = int((rows != cand).sum(axis=1).max())
        mism = int("".join("1" if b else "0" for b in cand ^ rows[0]), 2)
        key = (radius, mism)
        if best_key is None or key < best_key:
            best_key, best_center = key, cand
    return best_center, best_key[0]


def center_oracle(bit_rows, epsilon):
    """Greedy farthest-drop loop around minimax_oracle."""
    rows = np.asarray(bit_rows, dtype=np.uint8)
    alive = list(range(len(rows)))
    while True:
        center, radius = minimax_oracle(rows[alive])
        if radius <= epsilon or len(alive) == 1:
            return center, radius, tuple(alive)
        dist = (rows[alive] != center).sum(axis=1)
        alive.pop(int(np.argmax(dist)))


class TestSignConstraintSet:
    def test_partition_follows_template_bits(self):
        t = Template.from_bitstring("0110")
        cs = SignConstraintSet(np.zeros((5, 4)), t)
        assert cs.zero_idx.tolist() == [0, 3]
        assert cs.one_idx.tolist() == [1, 2]
        assert cs.n == 5 and cs.m == 4

    def test_rejects_matrix_width_mismatch(self):
        t = Template.from_bitstring("01")
        with pytest.raises(ProblemError):
            SignConstraintSet(np.zeros((2, 3)), t)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_matrix(self, bad):
        mat = np.zeros((2, 2))
        mat[1, 0] = bad
        with pytest.raises(ProblemError, match="finite"):
            SignConstraintSet(mat, Template.from_bitstring("01"))


class TestProblemValidation:
    def test_rejects_nonpositive_delta(self):
        t = Template.from_bitstring("1")
        cs = SignConstraintSet(np.ones((1, 1)), t)
        with pytest.raises(ProblemError):
            AttackProblem(ProblemKind.FEATURE_PHASE, 1, 1, 0.0, constraint_sets=(cs,))

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_rejects_non_finite_delta(self, delta):
        t = Template.from_bitstring("1")
        cs = SignConstraintSet(np.ones((1, 1)), t)
        with pytest.raises(ProblemError):
            AttackProblem(ProblemKind.FEATURE_PHASE, 1, 1, delta, constraint_sets=(cs,))

    def test_rejects_row_count_mismatch(self):
        t = Template.from_bitstring("1")
        cs = SignConstraintSet(np.ones((3, 1)), t)
        with pytest.raises(ProblemError):
            AttackProblem(ProblemKind.FEATURE_PHASE, 2, 2, 1.0, constraint_sets=(cs,))

    def test_multi_collision_needs_two_sets(self):
        img = GrayImage.from_flat(2, 2, [10, 200, 35, 90])
        with pytest.raises(ProblemError, match="two"):
            build_multi_collision(img, [(enroll(img, "pw", 4), b"pw")])

    @pytest.mark.parametrize(
        "kind, count", [(ProblemKind.SIGN, 0), (ProblemKind.FEATURE_PHASE, 0), (ProblemKind.FEATURE_PHASE, 2)]
    )
    def test_constraint_set_count(self, kind, count):
        cs = SignConstraintSet(np.ones((1, 1)), Template.from_bitstring("1"))
        with pytest.raises(ProblemError, match="constraint set"):
            AttackProblem(kind, 1, 1, 1.0, anchor_feature=[1.0], constraint_sets=(cs,) * count)

    def test_rejects_non_finite_anchor_feature(self):
        cs = SignConstraintSet(np.ones((2, 1)), Template.from_bitstring("1"))
        with pytest.raises(ProblemError, match="finite"):
            AttackProblem(
                ProblemKind.FEATURE_PHASE, 1, 2, 1.0, anchor_feature=[1.0, np.nan], constraint_sets=(cs,)
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_target_feature(self, bad):
        img = GrayImage.from_flat(2, 2, [10, 200, 35, 90])
        target = sobel(img).copy()
        target[1] = bad
        with pytest.raises(ProblemError, match="finite"):
            build_image_phase(img, target)

    def test_image_phase_needs_target(self):
        with pytest.raises(ProblemError):
            AttackProblem(ProblemKind.IMAGE_PHASE, 2, 2, 1.0)

    @pytest.mark.parametrize("kind", [ProblemKind.SIGN, ProblemKind.IMAGE_PHASE])
    def test_image_kinds_need_a_fitting_anchor_image(self, kind):
        if kind is ProblemKind.SIGN:
            fields = {"constraint_sets": (SignConstraintSet(np.ones((4, 1)), Template.from_bitstring("1")),)}
        else:
            fields = {"target_feature": np.zeros(4)}
        with pytest.raises(ProblemError, match="anchor image"):
            AttackProblem(kind, 2, 2, 1.0, **fields)
        with pytest.raises(ProblemError, match="anchor image"):
            AttackProblem(kind, 2, 2, 1.0, anchor_image=GrayImage.from_flat(4, 1, [0] * 4), **fields)

    def test_feature_phase_needs_an_anchor_feature(self):
        cs = SignConstraintSet(np.ones((2, 1)), Template.from_bitstring("1"))
        with pytest.raises(ProblemError, match="anchor feature"):
            AttackProblem(ProblemKind.FEATURE_PHASE, 1, 2, 1.0, constraint_sets=(cs,))

    @pytest.mark.parametrize("build", ["merged", "feature"])
    def test_only_image_phase_takes_a_target_feature(self, build):
        img = GrayImage.from_flat(2, 2, [10, 200, 35, 90])
        t = enroll(img, "pw", 4)
        if build == "merged":
            prob = build_merged(img, t, password=b"pw")
        else:
            prob = build_feature_phase(sobel(img), t, password=b"pw")
        with pytest.raises(ProblemError, match="target feature"):
            dataclasses.replace(prob, target_feature=sobel(img))

    def test_image_phase_takes_no_constraint_sets(self):
        img = GrayImage.from_flat(2, 2, [10, 200, 35, 90])
        sets = build_merged(img, enroll(img, "pw", 4), password=b"pw").constraint_sets
        with pytest.raises(ProblemError, match="constraint sets"):
            dataclasses.replace(build_image_phase(img, sobel(img)), constraint_sets=sets)

    def test_default_margin_hand_value(self):
        mat = np.array([[3.0, 0.0], [4.0, 1.0]])  # column norms 5 and 1
        assert default_margin(mat) == pytest.approx(5e-6)


class TestBuilders:
    def setup_method(self):
        self.img = GrayImage.from_flat(2, 2, [10, 200, 35, 90])
        self.t = enroll(self.img, "victim-pw", 8)

    def test_merged_password_derives_matrix(self):
        prob = build_merged(self.img, self.t, password=b"victim-pw")
        want = derive_matrix(b"victim-pw", 4, 8)
        assert np.array_equal(prob.constraint_sets[0].matrix, want)
        assert prob.kind is ProblemKind.SIGN
        assert prob.anchor_image == self.img

    def test_merged_explicit_matrix(self):
        mat = derive_matrix("other", 4, 8)
        prob = build_merged(self.img, self.t, matrix=mat)
        assert np.array_equal(prob.constraint_sets[0].matrix, mat)

    def test_merged_needs_matrix_or_password(self):
        with pytest.raises(ProblemError):
            build_merged(self.img, self.t)

    @pytest.mark.parametrize("build", [build_merged, build_feature_phase])
    def test_matrix_must_match_password(self, build):
        # a matrix from one password filed under another would be
        # certified against the first and archived as the second
        img = GrayImage.from_flat(3, 2, [10, 200, 35, 90, 4, 77])
        t = enroll(img, "pwA", 12)
        anchor = img if build is build_merged else sobel(img)
        mat = derive_matrix(b"pwA", 6, 12)
        with pytest.raises(ProblemError, match="password"):
            build(anchor, t, mat, password=b"pwB")
        t4 = enroll(img, "pwA", 4)
        with pytest.raises(ProblemError, match="password"):
            build(anchor, t4, derive_matrix(b"pwA", 6, 4), password=b"pwA", orthonormalize=True)
        prob = build(anchor, t, mat, password=b"pwA")
        assert prob.constraint_sets[0].password == b"pwA"

    def test_feature_phase_password_derives_matrix(self):
        prob = build_feature_phase(sobel(self.img), self.t, password=b"victim-pw")
        assert np.array_equal(prob.constraint_sets[0].matrix, derive_matrix(b"victim-pw", 4, 8))

    def test_anchor_of_own_template_has_no_mismatch(self):
        prob = build_merged(self.img, self.t, password=b"victim-pw")
        assert template_mismatches(sobel(self.img), prob) == 0

    def test_feature_phase_carries_anchor_feature(self):
        feat = sobel(self.img)
        mat = derive_matrix("victim-pw", 4, 8)
        prob = build_feature_phase(feat, self.t, mat)
        assert prob.kind is ProblemKind.FEATURE_PHASE
        assert np.array_equal(prob.anchor_feature, feat)
        assert prob.anchor_image is None

    def test_image_phase_carries_target(self):
        target = sobel(self.img)
        prob = build_image_phase(self.img, target)
        assert prob.kind is ProblemKind.IMAGE_PHASE
        assert np.array_equal(prob.target_feature, target)
        assert not prob.constraint_sets

    def test_multi_auth_kind(self):
        prob = build_multi_auth(self.img, self.t, password=b"attacker-pw")
        assert prob.kind is ProblemKind.SIGN
        assert prob.constraint_sets[0].m == 8
        merged = build_merged(self.img, self.t, password=b"attacker-pw")
        assert problem_to_json(prob) == problem_to_json(merged)

    def test_multi_collision_stacks_victims(self):
        t2 = enroll(self.img, "second-pw", 8)
        with pytest.warns(UserWarning):
            prob = build_multi_collision(self.img, [(self.t, b"victim-pw"), (t2, b"second-pw")])
        assert prob.kind is ProblemKind.SIGN
        assert len(prob.constraint_sets) == 2
        assert np.array_equal(prob.constraint_sets[1].matrix, derive_matrix("second-pw", 4, 8))

    def test_multi_collision_capacity_warning(self):
        t2 = enroll(self.img, "second-pw", 8)
        with pytest.warns(UserWarning):
            # 8 + 8 constraint bits over only 4 pixels
            build_multi_collision(self.img, [(self.t, b"victim-pw"), (t2, b"second-pw")])

    def test_multi_collision_within_capacity_quiet(self):
        img = GrayImage.from_flat(4, 4, range(16))
        ta = enroll(img, "a", 8)
        tb = enroll(img, "b", 8)
        with __import__("warnings").catch_warnings():
            __import__("warnings").simplefilter("error")
            build_multi_collision(img, [(ta, b"a"), (tb, b"b")])


class TestHammingCenter:
    def test_single_template(self):
        t = Template.from_bitstring("1010")
        res = hamming_center([t], 0)
        assert res.center == t and res.radius == 0 and res.members == (0,)

    def test_two_template_worked_example(self):
        t1 = Template.from_bitstring("0000")
        t2 = Template.from_bitstring("0011")
        res = hamming_center([t1, t2], 1)
        assert res.radius == 1
        assert res.members == (0, 1)
        # tie between 0001 and 0010 resolves toward agreeing with t1
        # on the lower-index disagreeing bit
        assert res.center.to_bitstring() == "0001"

    def test_three_template_drop_example(self):
        ts = [Template.from_bitstring(s) for s in ("0000", "0011", "1100")]
        res = hamming_center(ts, 1)
        assert len(res.members) == 2
        assert res.radius <= 1
        for i in res.members:
            assert hamming_distance(res.center, ts[i]) <= 1

    def test_two_templates_split_rule(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            m = int(rng.integers(1, 20))
            a = Template(rng.integers(0, 2, size=m))
            b = Template(rng.integers(0, 2, size=m))
            d = hamming_distance(a, b)
            res = hamming_center([a, b], m)
            assert res.members == (0, 1)
            assert res.radius == -(-d // 2)
            assert hamming_distance(res.center, a) + hamming_distance(res.center, b) == d

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            m = int(rng.integers(1, 9))
            k = int(rng.integers(1, 5))
            eps = int(rng.integers(0, m + 1))
            ts = [Template(rng.integers(0, 2, size=m)) for _ in range(k)]
            want_center, want_radius, want_members = center_oracle(
                np.stack([t.bits for t in ts]), eps
            )
            res = hamming_center(ts, eps)
            assert res.radius == want_radius
            assert res.members == want_members
            assert np.array_equal(res.center.bits, want_center)

    def test_deterministic(self):
        rng = np.random.default_rng(41)
        ts = [Template(rng.integers(0, 2, size=10)) for _ in range(4)]
        r1 = hamming_center(ts, 2)
        r2 = hamming_center(ts, 2)
        assert r1.center == r2.center and r1.members == r2.members

    def test_rejects_bad_input(self):
        with pytest.raises(ProblemError):
            hamming_center([], 1)
        with pytest.raises(ProblemError):
            hamming_center([Template.from_bitstring("10")], -1)
        with pytest.raises(ProblemError):
            hamming_center(
                [Template.from_bitstring("10"), Template.from_bitstring("101")], 1
            )

    @pytest.mark.parametrize("epsilon", [True, 1.5, 1.0, None])
    def test_rejects_bool_or_non_integral_epsilon(self, epsilon):
        ts = [Template.from_bitstring("1010"), Template.from_bitstring("1001")]
        with pytest.raises(ProblemError, match="epsilon must be an integer"):
            hamming_center(ts, epsilon)
        assert hamming_center(ts, np.int64(2)).members == (0, 1)

    def test_blocks_keep_the_first_minimum(self, monkeypatch):
        # Blocks of 4 codes split every search with more than 2
        # disagreeing bits, so ties straddle block boundaries.
        monkeypatch.setattr(problems, "_CENTER_BLOCK", 4)
        rng = np.random.default_rng(43)
        for _ in range(60):
            m = int(rng.integers(1, 9))
            ts = [Template(rng.integers(0, 2, size=m)) for _ in range(int(rng.integers(1, 5)))]
            want_center, want_radius = minimax_oracle(np.stack([t.bits for t in ts]))
            res = hamming_center(ts, m)
            assert res.radius == want_radius
            assert np.array_equal(res.center.bits, want_center)

    def test_exhaustive_search_memory_is_bounded(self):
        # 20 disagreeing bits; scoring all 2**20 codes at once peaked near 48 MB
        bits = np.zeros((3, 20), dtype=np.uint8)
        bits[1, :10] = 1
        bits[2, 6:] = 1
        tracemalloc.start()
        try:
            res = hamming_center([Template(b) for b in bits], 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.radius == 8
        assert peak < 8e6

    def test_popcount_table_counts_set_bits(self):
        assert problems._POPCOUNT16.tolist() == [bin(i).count("1") for i in range(1 << 16)]


class TestCapacityAnalysis:
    def test_probability_hand_values(self):
        assert independence_probability(10, 1, 8) == 1.0
        assert independence_probability(2, 2, 1) == 0.5
        assert independence_probability(4, 2, 1) == 0.875

    def test_probability_matches_exact_fraction(self):
        for n, k, eta in [(6, 4, 2), (5, 3, 1), (8, 2, 3), (4, 4, 1)]:
            exact = Fraction(1)
            for i in range(2, k + 1):
                e = eta * (n - i + 1)
                exact *= Fraction(2**e - 1, 2**e)
            got = independence_probability(n, k, eta)
            assert got == pytest.approx(float(exact), rel=1e-12)

    def test_probability_more_vectors_than_dims(self):
        # the i = n+1 factor is (2^0 - 1)/2^0 = 0
        assert independence_probability(3, 4, 2) == 0.0

    def test_probability_rejects_bad_args(self):
        with pytest.raises(ProblemError):
            independence_probability(0, 1, 1)
        with pytest.raises(ProblemError):
            independence_probability(1, 1, 0)

    @pytest.mark.parametrize(
        "n, k, eta",
        [(10, True, 1), (True, 2, 1), (10, 2, True), (10.5, 2, 1), (10.0, 2, 1), (10, 2.0, 1), (10, 2, 1.0)],
    )
    def test_probability_rejects_bool_or_non_integral_args(self, n, k, eta):
        with pytest.raises(ProblemError, match="must be an integer"):
            independence_probability(n, k, eta)

    def test_capacity_values(self):
        assert capacity(16, 8) == 2
        assert capacity(256, 16) == 16
        assert capacity(7, 8) == 0
        with pytest.raises(ProblemError):
            capacity(0, 4)

    @pytest.mark.parametrize("n, w", [(10, True), (True, 1), (10, 2.0), (10.5, 2), (10, None)])
    def test_capacity_rejects_bool_or_non_integral_args(self, n, w):
        with pytest.raises(ProblemError, match="must be an integer"):
            capacity(n, w)


class TestJson:
    def setup_method(self):
        self.img = GrayImage.from_flat(2, 2, [10, 200, 35, 90])
        self.t = enroll(self.img, "victim-pw", 8)

    def _round_trip(self, prob):
        doc = problem_to_json(prob)
        back = problem_from_json(doc)
        assert back.kind is prob.kind
        assert back.height == prob.height and back.width == prob.width
        assert back.delta == prob.delta
        assert back.anchor_image == prob.anchor_image
        assert len(back.constraint_sets) == len(prob.constraint_sets)
        for a, b in zip(back.constraint_sets, prob.constraint_sets):
            assert np.array_equal(a.matrix, b.matrix)
            assert a.template == b.template
            assert a.password == b.password
        if prob.target_feature is None:
            assert back.target_feature is None
        else:
            assert np.array_equal(back.target_feature, prob.target_feature)
        if prob.anchor_feature is None:
            assert back.anchor_feature is None
        else:
            assert np.array_equal(back.anchor_feature, prob.anchor_feature)
        return doc

    def test_merged(self):
        self._round_trip(build_merged(self.img, self.t, password=b"victim-pw"))

    def test_feature_phase(self):
        mat = derive_matrix("victim-pw", 4, 8)
        self._round_trip(build_feature_phase(sobel(self.img), self.t, mat))

    def test_image_phase(self):
        self._round_trip(build_image_phase(self.img, sobel(self.img)))

    def test_multi_collision(self):
        t2 = enroll(self.img, "second", 8)
        with pytest.warns(UserWarning):
            prob = build_multi_collision(self.img, [(self.t, b"victim-pw"), (t2, b"second")])
        self._round_trip(prob)

    @pytest.mark.parametrize("old_kind", ["merged", "multi_auth", "multi_collision"])
    def test_old_kind_strings_load_as_sign(self, old_kind):
        doc = problem_to_json(build_merged(self.img, self.t, password=b"victim-pw"))
        assert doc["kind"] == "sign"
        doc["kind"] = old_kind
        back = problem_from_json(doc)
        assert back.kind is ProblemKind.SIGN
        assert problem_to_json(back)["kind"] == "sign"

    def test_doc_is_json_serializable(self):
        import json

        doc = problem_to_json(build_merged(self.img, self.t, password=b"victim-pw"))
        assert json.loads(json.dumps(doc)) == doc

    def test_rejects_unknown_kind(self):
        doc = problem_to_json(build_merged(self.img, self.t, password=b"victim-pw"))
        doc["kind"] = "bogus"
        with pytest.raises(ProblemError):
            problem_from_json(doc)


class TestResidualHelpers:
    def test_sign_violations_shape_and_zero_case(self):
        img = GrayImage.from_flat(2, 2, [10, 200, 35, 90])
        t = enroll(img, "pw", 6)
        prob = build_merged(img, t, password=b"pw")
        v = sign_violations(sobel(img), prob)
        assert v.shape == (6,)
        # bit-1 columns are exactly satisfied; bit-0 columns may sit
        # within delta of the boundary, never beyond it
        assert (v <= prob.delta + 1e-12).all()

    def test_template_mismatches_counts_flips(self):
        img = GrayImage.from_flat(2, 2, [10, 200, 35, 90])
        t = enroll(img, "pw", 6)
        flipped = Template(1 - t.bits)
        prob = build_merged(img, flipped, password=b"pw")
        assert template_mismatches(sobel(img), prob) == 6
