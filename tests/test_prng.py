"""Keyed matrix generation tests: hash vectors, stream statistics,
column order, orthonormalization, and frozen golden outputs."""

import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import biopreimage
from biopreimage import prng
from biopreimage import (
    SeedError,
    SplitMix64,
    derive_matrix,
    derive_seed,
    fnv1a64,
    gram_schmidt,
    matrix_digest,
)
from biopreimage.prng import (
    _BLOCK,
    _CUT_BITS,
    _DRAW_BLOCK,
    _GAMMA,
    FNV_OFFSET_BASIS,
    _filtered_dots,
    _slice_budget,
    _split,
)


def _rounded_dot(x, y):
    """The exact dot product of two float sequences, rounded once to the
    nearest double (int / int true division is correctly rounded)."""
    return float(sum(Fraction(a) * Fraction(b) for a, b in zip(x, y)))


def _mgs_oracle(columns, fresh=()):
    """Modified Gram-Schmidt as the gram_schmidt docstring defines it,
    in Python floats and exact rationals: no BLAS, no numpy arithmetic.
    ``fresh`` supplies the replacements for degenerate columns."""
    fresh = iter(fresh)
    cols = [[float(e) for e in c] for c in np.asarray(columns).T]
    out = []
    j = 0
    while j < len(cols):
        v = cols[j]
        # degenerate: the residual norm is at most 1e-12 times the norm of
        # the column as it entered
        scale = math.sqrt(_rounded_dot(v, v))
        for q in out:
            c = _rounded_dot(q, v)
            v = [a - c * b for a, b in zip(v, q)]
        norm = math.sqrt(_rounded_dot(v, v))
        if norm <= 1e-12 * scale:
            cols[j] = [float(e) for e in next(fresh)]
            continue
        out.append([a / norm for a in v])
        j += 1
    return np.array(out).T


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _oracle_case(name):
    rng = np.random.default_rng(7)
    if name == "uniform":
        return rng.uniform(-0.5, 0.5, size=(9, 5)), []
    if name == "tall":
        return rng.uniform(-0.5, 0.5, size=(40, 3)), []
    if name == "wide-range":
        # entries from subnormal to 2**249; one unit entry per column keeps
        # every residual clear of the degenerate threshold
        cols = rng.uniform(-0.5, 0.5, size=(8, 4)) * 2.0 ** rng.integers(-1070, 250, size=(8, 4))
        cols[np.arange(4), np.arange(4)] = 1.0
        return cols, []
    if name == "regenerate":
        cols = rng.uniform(-0.5, 0.5, size=(6, 3))
        cols[:, 1] = 2.0 * cols[:, 0]  # dependent on the first column
        return cols, [rng.uniform(-0.5, 0.5, size=6)]
    if name == "small-scale":
        # well conditioned, but every column norm is below 1e-12
        return np.random.default_rng(0).uniform(-0.5, 0.5, (3, 2)) * 1e-12, []
    if name == "blocks":
        # several blocks of _BLOCK rows, and a partial last block
        return rng.uniform(-0.5, 0.5, size=(30, 19)), []
    if name == "shrinking":
        # the last five columns repeat the first five up to 1e-6 noise, so
        # their residuals fall by about six orders of magnitude
        cols = rng.uniform(-0.5, 0.5, size=(24, 10))
        cols[:, 5:] = cols[:, :5] + 1e-6 * rng.uniform(-0.5, 0.5, size=(24, 5))
        return cols, []
    if name == "growing":
        # projecting q_0 = (0.8, -0.6, 0, ...) out of (0.49, 0.49, ...)
        # lifts the second entry to 0.5488, past 0.5
        cols = rng.uniform(-0.5, 0.5, size=(8, 3))
        cols[:, 0] = [0.8, -0.6, 0, 0, 0, 0, 0, 0]
        cols[:, 1] = 0.49
        return cols, []
    raise ValueError(name)


ORACLE_CASES = ["uniform", "tall", "wide-range", "regenerate", "small-scale", "blocks", "shrinking", "growing"]


def _oracle_gram_schmidt(name):
    """gram_schmidt of an oracle case, fed that case's fresh columns."""
    cols, fresh = _oracle_case(name)
    supply = iter([f.copy() for f in fresh])
    return gram_schmidt(cols, regenerate=lambda: next(supply))


class TestHashing:
    def test_fnv1a64_vectors(self):
        # published reference values for 64-bit FNV-1a
        assert fnv1a64(b"") == FNV_OFFSET_BASIS
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_derive_seed_str_bytes_equivalent(self):
        assert derive_seed("hunter2") == derive_seed(b"hunter2")

    def test_derive_seed_rejects_empty(self):
        with pytest.raises(SeedError):
            derive_seed("")
        with pytest.raises(SeedError):
            derive_seed(b"")

    def test_distinct_passwords_distinct_seeds(self):
        seeds = {derive_seed(f"pw-{i}") for i in range(500)}
        assert len(seeds) == 500


class TestSplitMix64:
    def test_deterministic(self):
        a = SplitMix64(12345)
        b = SplitMix64(12345)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_uniform_range(self):
        s = SplitMix64(999)
        draws = np.array([s.next_uniform() for _ in range(10_000)])
        assert draws.min() >= -0.5
        assert draws.max() < 0.5

    def test_uniform_moments(self):
        s = SplitMix64(42)
        draws = np.array([s.next_uniform() for _ in range(50_000)])
        assert abs(draws.mean()) < 0.01
        assert abs(draws.var() - 1.0 / 12.0) < 0.005

    def test_next_byte_range(self):
        s = SplitMix64(7)
        vals = [s.next_byte() for _ in range(2000)]
        assert min(vals) >= 0 and max(vals) <= 255
        assert len(set(vals)) > 200

    def test_fill_column_matches_scalar_stream(self):
        col = SplitMix64(31337).fill_column(16)
        s = SplitMix64(31337)
        assert np.array_equal(col, [s.next_uniform() for _ in range(16)])


class TestDeriveMatrix:
    def test_shape_and_range(self):
        mat = derive_matrix("pw", 7, 5)
        assert mat.shape == (7, 5)
        assert (mat >= -0.5).all() and (mat < 0.5).all()

    def test_read_only(self):
        mat = derive_matrix("pw", 3, 3)
        with pytest.raises(ValueError):
            mat[0, 0] = 0.0

    def test_column_major_fill(self):
        # the first column consumes the first n stream draws
        mat = derive_matrix("column-check", 5, 3)
        s = SplitMix64(derive_seed("column-check"))
        assert np.array_equal(mat[:, 0], [s.next_uniform() for _ in range(5)])
        assert np.array_equal(mat[:, 1], [s.next_uniform() for _ in range(5)])

    def test_deterministic(self):
        assert np.array_equal(derive_matrix("pw", 6, 4), derive_matrix("pw", 6, 4))

    def test_distinct_passwords_fuzz(self):
        mats = [derive_matrix(f"k{i}", 4, 4) for i in range(100)]
        digests = {matrix_digest(m) for m in mats}
        assert len(digests) == 100

    def test_rejects_bad_dims(self):
        with pytest.raises(SeedError):
            derive_matrix("pw", 0, 4)
        with pytest.raises(SeedError):
            derive_matrix("pw", 4, 0)

    @pytest.mark.parametrize("n, m", [(10, True), (True, 4), (10, 1.5), (10.0, 4), (4, np.float64(2.0))])
    def test_rejects_bool_or_non_integral_dims(self, n, m, monkeypatch):
        # the check comes before the password is hashed or anything drawn
        monkeypatch.setattr(prng, "derive_seed", lambda password: pytest.fail("derived a seed"))
        with pytest.raises(SeedError, match="must be an integer"):
            derive_matrix("pw", n, m)

    @pytest.mark.parametrize("n, m", [(10, True), (True, 4), (10, 1.5), (10.0, 4)])
    def test_column_blocks_rejects_bool_or_non_integral_dims(self, n, m, monkeypatch):
        monkeypatch.setattr(prng, "derive_seed", lambda password: pytest.fail("derived a seed"))
        for ortho in (False, True):
            with pytest.raises(SeedError, match="must be an integer"):
                prng.column_blocks("pw", n, m, ortho)

    def test_numpy_integer_dims_accepted(self):
        assert np.array_equal(derive_matrix("pw", np.int64(5), np.int32(3)), derive_matrix("pw", 5, 3))

    def test_golden_entries(self):
        mat = derive_matrix("golden-password", 4, 3)
        want_col0 = [
            -0.4376287067387634,
            0.45305227129039993,
            -0.032874586839024,
            0.4326307618543208,
        ]
        assert np.allclose(mat[:, 0], want_col0, rtol=0, atol=0)

    def test_golden_digest(self):
        mat = derive_matrix("golden-password", 4, 3)
        assert matrix_digest(mat) == 0xCEF07648CE7A8314

    def test_digest_sensitive_to_entries(self):
        mat = derive_matrix("pw", 4, 3)
        bumped = mat.copy()
        bumped[2, 1] += 1e-12
        assert matrix_digest(bumped) != matrix_digest(mat)


class TestGramSchmidt:
    def test_orthonormal_output(self):
        rng = np.random.default_rng(1)
        cols = rng.uniform(-0.5, 0.5, size=(20, 8))
        q = gram_schmidt(cols)
        assert np.abs(q.T @ q - np.eye(8)).max() < 1e-9

    def test_span_preserved(self):
        rng = np.random.default_rng(2)
        cols = rng.uniform(-0.5, 0.5, size=(10, 4))
        q = gram_schmidt(cols)
        # projecting the original columns onto the Q basis reconstructs them
        back = q @ (q.T @ cols)
        assert np.allclose(back, cols, atol=1e-9)

    def test_degenerate_column_regenerated(self):
        cols = np.zeros((4, 2))
        cols[:, 0] = [1.0, 0, 0, 0]
        cols[:, 1] = [2.0, 0, 0, 0]  # linearly dependent on the first
        fresh = iter([np.array([0.0, 1.0, 0, 0])])

        def regenerate():
            return next(fresh).copy()

        q = gram_schmidt(cols, regenerate=regenerate)
        assert np.abs(q.T @ q - np.eye(2)).max() < 1e-12

    def test_degenerate_without_regenerator_raises(self):
        cols = np.ones((3, 2))
        with pytest.raises(SeedError):
            gram_schmidt(cols)

    def test_orthonormalized_matrix(self):
        mat = derive_matrix("ortho-pw", 30, 6, orthonormalize=True)
        assert np.abs(mat.T @ mat - np.eye(6)).max() < 1e-9

    def test_orthonormalized_golden_digest(self):
        mat = derive_matrix("golden-password", 4, 3, orthonormalize=True)
        assert matrix_digest(mat) == 0x5D0DE64EF0DDF54F

    def test_rejects_m_exceeding_n(self):
        with pytest.raises(SeedError):
            derive_matrix("pw", 3, 4, orthonormalize=True)

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_matches_exact_rational_oracle(self, name):
        cols, fresh = _oracle_case(name)
        supply = iter([f.copy() for f in fresh])
        got = gram_schmidt(cols, regenerate=lambda: next(supply))
        assert next(supply, None) is None  # every fresh column was used
        assert _same_bits(got, _mgs_oracle(cols, fresh))

    @pytest.mark.parametrize(
        "cols",
        [
            # 1e-300 next to 1, with subnormals
            [[1.0, 1e-300, 0.3, -2.5e-301, 5e-324], [0.7, 3e-300, 1.0, 1e-310, -0.2]],
            # the first column is its own unit vector, so the projection
            # coefficient is 1 + 2**-53 + 2**-1200: just above a tie, which
            # rounds to 1 + 2**-52.  Dropping the underflowing 2**-1200
            # would leave the tie, and ties to even give 1.0.
            [[1.0, 2.0**-53, 2.0**-600, 0.0], [1.0, 1.0, 2.0**-600, 0.5]],
        ],
        ids=["subnormal", "tie"],
    )
    def test_wide_exponent_range_correctly_rounded(self, cols):
        cols = np.array(cols).T
        assert _same_bits(gram_schmidt(cols), _mgs_oracle(cols))

    @pytest.mark.parametrize("shape", [(4,), (), (2, 2, 2)])
    def test_non_matrix_input_raises(self, shape):
        with pytest.raises(SeedError, match=re.escape(str(shape))):
            gram_schmidt(np.ones(shape))

    @pytest.mark.parametrize(
        "password, digest",
        [
            ("a", "82b7905d924fa4f1756662ad0939309448d07b65d35f9d6fb25a18ee265ecb55"),
            ("face-b", "59689d2be7be296f83d8c175605a6556c1b2e51c4ac4fb08ef3377e86c821dcd"),
            ("zz9", "653da5721a3c979e503b9ce1b9ca512708b8957ccdf61b35680fe267a723a41f"),
        ],
    )
    def test_face_size_sha256(self, password, digest):
        # a 112x92 image's pixel count and a 256-bit template
        mat = derive_matrix(password, 10304, 256, orthonormalize=True)
        assert hashlib.sha256(mat.tobytes()).hexdigest() == digest

    def test_no_columns(self):
        assert gram_schmidt(np.empty((3, 0))).shape == (3, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2.0**256])
    def test_non_finite_or_oversized_entries_raise(self, bad):
        cols = np.eye(4, 2)
        cols[2, 1] = bad
        with pytest.raises(SeedError):
            gram_schmidt(cols)

    def test_non_finite_regenerated_column_raises(self):
        cols = np.zeros((3, 2))
        cols[0] = [1.0, 2.0]  # the second column is degenerate
        with pytest.raises(SeedError):
            gram_schmidt(cols, regenerate=lambda: np.array([0.0, np.nan, 1.0]))

    def test_orthonormalized_digest_independent_of_blas_threads(self):
        code = (
            "from biopreimage import derive_matrix, matrix_digest\n"
            "print(matrix_digest(derive_matrix('pw', 2000, 32, orthonormalize=True)))"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(biopreimage.__file__)))
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = threads
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
            digests.add(run.stdout)
        assert len(digests) == 1


def _scalar_matrix(password, n, m):
    """derive_matrix's fill, one next_uniform call per entry."""
    s = SplitMix64(derive_seed(password))
    return np.array([[s.next_uniform() for _ in range(n)] for _ in range(m)]).T


class TestBlockStream:
    @pytest.mark.parametrize(
        "n, m",
        [
            (_DRAW_BLOCK + 3, 2),  # one column per block, longer than a block
            (1000, 70),  # 65 columns a block, then a partial block of 5
            (7, 5),  # everything in one block
            (100, 1500),  # two full blocks in the reused buffers, then a short one
        ],
        ids=["column-over-block", "partial-last-block", "single-block", "several-blocks"],
    )
    def test_derive_matrix_matches_scalar_fill(self, n, m):
        assert _same_bits(derive_matrix("block-pw", n, m), _scalar_matrix("block-pw", n, m))

    def test_blocks_bounded(self, monkeypatch):
        sizes = []
        mix = SplitMix64._mix
        monkeypatch.setattr(SplitMix64, "_mix", lambda self, o, z, t: sizes.append(len(z)) or mix(self, o, z, t))
        derive_matrix("block-pw", 1000, 200)
        assert max(sizes) <= _DRAW_BLOCK and sum(sizes) == 1000 * 200

    @pytest.mark.parametrize("n", [0, 1, 5, 1000])
    def test_state_after_block_continues_the_stream(self, n):
        block, scalar = SplitMix64(2024), SplitMix64(2024)
        block.fill_column(n)
        for _ in range(n):
            scalar.next_u64()
        assert block.state == scalar.state
        # so a column drawn afterwards, as regenerate does, is the next one
        assert np.array_equal(block.fill_column(4), [scalar.next_uniform() for _ in range(4)])

    @pytest.mark.parametrize("seed", [2**64 - 1, 2**64 - _GAMMA, -3 * _GAMMA % 2**64])
    def test_seed_near_the_top_wraps(self, seed):
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        assert block.next_u64s(8).tolist() == [scalar.next_u64() for _ in range(8)]
        assert block.state == scalar.state

    @pytest.mark.parametrize(
        "n, m", [(1000, 70), (_DRAW_BLOCK + 3, 2)], ids=["partial-last-block", "column-over-block"]
    )
    def test_orthonormalized_is_gram_schmidt_of_plain(self, n, m):
        want = gram_schmidt(derive_matrix("block-pw", n, m))
        assert _same_bits(derive_matrix("block-pw", n, m, orthonormalize=True), want)

    def test_orthonormalized_peak_memory(self):
        # the filled rows and the transposed result, plus one draw block
        tracemalloc.start()
        try:
            mat = derive_matrix("pw", 4096, 64, orthonormalize=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * mat.nbytes

    @pytest.mark.parametrize("n, m, ortho", [(_DRAW_BLOCK + 3, 2, False), (1000, 70, False), (40, 6, True)])
    def test_result_c_contiguous_and_read_only(self, n, m, ortho):
        mat = derive_matrix("layout-pw", n, m, orthonormalize=ortho)
        assert mat.flags.c_contiguous
        assert not mat.flags.writeable

    def test_uniform_conversion_edge_values(self):
        edges = [
            0, 1, 2**53 + 1, 2**53 + 3, 2**63 + 2**10,
            2**64 - 2**10 - 1, 2**64 - 2**10, 2**64 - 2**11 + 2**10, 2**64 - 2**11 - 2**10, 2**64 - 1,
        ]
        u = edges + np.random.default_rng(3).integers(0, 2**64, size=10_000, dtype=np.uint64).tolist()
        block = SplitMix64(0)
        block.next_u64s = lambda n: np.array(u, dtype=np.uint64)
        scalar = SplitMix64(0)
        scalar.next_u64 = iter(u).__next__
        got = block.fill_column(len(u))
        assert _same_bits(got, np.array([scalar.next_uniform() for _ in u]))
        # 0.5 itself is reachable: u rounds up to 2**64 from 2**64 - 2**10 on
        assert got[0] == -0.5 and got[5] < 0.5 and got[6] == 0.5 and got[9] == 0.5


#: Outputs u whose uniform draws probe the conversion: exact, halfway
#: and near-top values.
_EDGE_U64 = [
    0, 1, 2**53 + 1, 2**53 + 3, 2**63 + 2**10,
    2**64 - 2**10 - 1, 2**64 - 2**10, 2**64 - 2**11 + 2**10, 2**64 - 2**11 - 2**10, 2**64 - 1,
]


def _drawn(stream, n, m, into_rows):
    """All m columns of _draw_blocks, copied out block by block, as rows."""
    rows = np.empty((m, n)) if into_rows else None
    out = np.empty((m, n))
    for j, block in prng._draw_blocks(stream, n, m, rows):
        out[j : j + len(block)] = block
    if into_rows:
        assert _same_bits(rows, out)
    return out


class TestReusedDraw:
    @pytest.mark.parametrize("into_rows", [False, True], ids=["plain", "rows"])
    def test_block_path_conversion_edge_values(self, monkeypatch, into_rows):
        u = _EDGE_U64 + np.random.default_rng(4).integers(0, 2**64, size=10_000, dtype=np.uint64).tolist()
        scalar = SplitMix64(0)
        scalar.next_u64 = iter(u).__next__
        want = np.array([scalar.next_uniform() for _ in u])

        def mixed(self, offsets, z, t):
            z[:] = np.array(u, dtype=np.uint64)
            return z

        monkeypatch.setattr(SplitMix64, "_mix", mixed)
        # 1001 columns of 10 fit one block, so z holds all of u
        got = _drawn(SplitMix64(0), 10, len(u) // 10, into_rows).reshape(-1)
        assert _same_bits(got, want)
        assert got[0] == -0.5 and got[5] < 0.5 and got[6] == 0.5 and got[9] == 0.5

    def test_next_u64s_longer_than_a_block(self):
        # as the synth command asks for a 300x300 image
        n = _DRAW_BLOCK + 5
        block, scalar = SplitMix64(77), SplitMix64(77)
        assert block.next_u64s(n).tolist() == [scalar.next_u64() for _ in range(n)]
        assert block.state == scalar.state

    @pytest.mark.parametrize("into_rows", [False, True], ids=["plain", "rows"])
    def test_state_after_reused_blocks_continues_the_stream(self, into_rows):
        # 655 columns a block: two full blocks, then a short one of 190
        n, m = 100, 1500
        block, scalar = SplitMix64(31), SplitMix64(31)
        got = _drawn(block, n, m, into_rows)
        want = np.array([scalar.next_uniform() for _ in range(n * m)]).reshape(m, n)
        assert _same_bits(got, want)
        assert block.state == scalar.state
        assert np.array_equal(block.fill_column(4), [scalar.next_uniform() for _ in range(4)])

    def test_plain_blocks_are_read_only_views_of_one_buffer(self):
        blocks = [block for _, block in prng._draw_blocks(SplitMix64(5), 1000, 200)]
        assert len(blocks) == 4
        for block in blocks:
            assert not block.flags.writeable
            with pytest.raises(ValueError):
                block[0, 0] = 0.0
        assert all(np.shares_memory(blocks[0], b) for b in blocks[1:])


def _count_exact_norms(monkeypatch):
    """Record the vector of every prng._exact_norm call."""
    calls = []
    exact_norm = prng._exact_norm

    def counted(v):
        calls.append(np.array(v))
        return exact_norm(v)

    monkeypatch.setattr(prng, "_exact_norm", counted)
    return calls


class TestLazyScale:
    def test_face_size_derivation_takes_one_exact_norm_per_column(self, monkeypatch):
        # the residual norms only: the bound settles every column, where
        # the exact scale of each input column doubled the count
        calls = _count_exact_norms(monkeypatch)
        derive_matrix("lazy-pw", 10304, 256, orthonormalize=True)
        assert len(calls) == 256

    @pytest.mark.parametrize(
        "y, exact_path, degenerate",
        [
            (np.nextafter(1e-12, 1.0), True, False),  # within the bound, above the rule's threshold
            (1e-12, True, True),  # on the threshold itself
            (1e-12 * (1 + 2.0**-40), False, False),  # above the bound: decided without the scale
        ],
        ids=["inside-kept", "inside-degenerate", "outside"],
    )
    def test_residual_inside_the_bound_takes_the_exact_path(self, monkeypatch, y, exact_path, degenerate):
        # the second column's residual is (0, y, 0) and its exact scale 1.0
        cols = np.array([[1.0, 0.0, 0.0], [1.0, y, 0.0]]).T
        fresh = [np.array([0.0, 0.0, 1.0])]
        supply = iter([f.copy() for f in fresh])
        calls = _count_exact_norms(monkeypatch)
        got = gram_schmidt(cols, regenerate=lambda: next(supply))
        assert _same_bits(got, _mgs_oracle(cols, fresh if degenerate else ()))
        assert (next(supply, None) is None) == degenerate
        assert any(_same_bits(c, cols[:, 1]) for c in calls) == exact_path

    def test_exact_path_redraws_the_input_columns(self, monkeypatch):
        # with bounds that decide nothing, every column takes the exact
        # path, which redraws its input column from the counter-based stream
        want = derive_matrix("redraw-pw", 300, 12, orthonormalize=True)
        monkeypatch.setattr(prng, "_norm_bounds", lambda rows: [math.inf] * len(rows))
        calls = _count_exact_norms(monkeypatch)
        got = derive_matrix("redraw-pw", 300, 12, orthonormalize=True)
        assert _same_bits(got, want)
        # residual norm, then the input column's, for each column
        assert _same_bits(np.array(calls[1::2]), derive_matrix("redraw-pw", 300, 12).T)

    def test_norm_bounds_are_upper_bounds(self):
        rng = np.random.default_rng(12)
        rows = rng.uniform(-0.5, 0.5, (40, 50))
        rows[:4] *= 2.0 ** rng.integers(-1074, 250, (4, 50))  # wide exponent range
        rows[4] = 5e-324  # every square underflows
        rows[5] = 0.0
        tops = prng._norm_bounds(rows)
        for row, top in zip(rows, tops):
            exact = sum(Fraction(e) ** 2 for e in row.tolist())
            assert Fraction(top) ** 2 >= exact
            assert top >= prng._exact_norm(row)
        # and tight for ordinary rows
        assert all(top <= prng._exact_norm(row) * (1 + 2.0**-40) for row, top in zip(rows[6:], tops[6:]))


class TestDegenerateThreshold:
    def test_small_independent_columns_accepted(self):
        # condition number 3.3, but every column norm is below 1e-12
        cols = np.random.default_rng(0).uniform(-0.5, 0.5, (3, 2)) * 1e-12
        q = gram_schmidt(cols)
        assert np.abs(q.T @ q - np.eye(2)).max() < 1e-12

    def test_power_of_two_scaling_gives_the_same_bits(self):
        cols = np.random.default_rng(0).uniform(-0.5, 0.5, (3, 2))
        assert _same_bits(gram_schmidt(cols * 2.0**-40), gram_schmidt(cols))

    @pytest.mark.parametrize("cols", [np.ones((3, 2)) * 1e-20, np.zeros((3, 1))], ids=["tiny-dependent", "zero"])
    def test_dependent_columns_of_any_scale_raise(self, cols):
        with pytest.raises(SeedError):
            gram_schmidt(cols)


def _filter_case(name):
    """(q, block, the rows of the block passed to _exact_dots, call by call)."""
    if name == "near-midpoint":
        # q . row = row.sum(); the cut leaves err = 2**-78 around each sum,
        # and the second cut 2**-108.  No err, however small, settles an
        # exact tie, so only the third row goes on to full slicing.
        q = np.ones(4)
        block = np.array(
            [
                [1.0, 2.0**-53, 2.0**-80, 0.0],  # 2**-80 above the tie 1 + 2**-53: within err
                [1.0, 2.0**-53 + 2.0**-70, 0.0, 0.0],  # 2**-70 above it: resolved
                [1.0, 2.0**-53, 0.0, 0.0],  # the tie itself, to even: 1.0
                [1.0, -(2.0**-54) - 2.0**-75, 0.0, 0.0],  # 2**-75 below the tie 1 - 2**-54
            ]
        )
        return q, block, [[2]]
    if name == "tie":
        # the "tie" columns above: 1 + 2**-53 + 2**-1200, whose last term
        # the BLAS dot loses to underflow at either cut
        return np.array([1.0, 2.0**-53, 2.0**-600, 0.0]), np.array([[1.0, 1.0, 2.0**-600, 0.5]]), [[0]]
    if name == "subnormal":
        # the "subnormal" columns above: q's finest slice is on the grid
        # 2**-1074, so a product with the cut's grid could underflow
        q = np.array([1.0, 1e-300, 0.3, -2.5e-301, 5e-324])
        block = np.array([[0.7, 3e-300, 1.0, 1e-310, -0.2], [0.5, 0.25, -1.0, 0.0, 2.0]])
        return q, block, [[0, 1]]
    if name == "uniform":
        rng = np.random.default_rng(11)
        q = rng.standard_normal(64)
        return q / np.linalg.norm(q), rng.uniform(-0.5, 0.5, (_BLOCK, 64)), []
    raise ValueError(name)


def _count_exact_dots(monkeypatch):
    """Record the rows of every block passed to prng._exact_dots, one
    list of rows per call; the slices of a row sum to it exactly."""
    calls = []
    exact_dots = prng._exact_dots

    def counted(xs, xg, ys, yg):
        calls.append([[math.fsum(e) for e in row.T] for row in ys.transpose(1, 0, 2)])
        return exact_dots(xs, xg, ys, yg)

    monkeypatch.setattr(prng, "_exact_dots", counted)
    return calls


def _e_top(block):
    """The exponent of a scan: |block| < 2**e_top."""
    return math.frexp(np.abs(block).max())[1]


class TestFilteredDots:
    @pytest.mark.parametrize("name", ["near-midpoint", "tie", "subnormal", "uniform"])
    def test_matches_exact_dots(self, name, monkeypatch):
        q, block, want_rows = _filter_case(name)
        n = block.shape[1]
        q_sliced = (*_split(q, _slice_budget(n) - _CUT_BITS), float(np.abs(q).sum()))
        want = prng._exact_dots(*q_sliced[:2], *_split(block, _CUT_BITS))
        calls = _count_exact_dots(monkeypatch)
        got, recut = _filtered_dots(q, q_sliced, block, _e_top(block), _CUT_BITS, np.empty((_BLOCK, n)))
        assert recut == (name in ("near-midpoint", "tie"))
        assert _same_bits(np.array(got), np.array(want))
        assert _same_bits(np.array(got), np.array([_rounded_dot(q, row) for row in block]))
        # the underflow guard passes the whole block, a row that the second
        # cut leaves open only that row
        assert calls == [[block[i].tolist() for i in rows] for rows in want_rows]

    @pytest.mark.parametrize("name", ["near-midpoint", "tie", "uniform"])
    def test_stale_high_exponent_gives_the_same_dots(self, name):
        q, block, _ = _filter_case(name)
        n = block.shape[1]
        q_sliced = (*_split(q, _slice_budget(n) - _CUT_BITS), float(np.abs(q).sum()))
        want = [_rounded_dot(q, row) for row in block]
        for slack in (1, 12, 40):
            got, _ = _filtered_dots(q, q_sliced, block, _e_top(block) + slack, _CUT_BITS, np.empty((_BLOCK, n)))
            assert _same_bits(np.array(got), np.array(want))

    def test_fallback_is_rare(self, monkeypatch):
        calls = _count_exact_dots(monkeypatch)
        derive_matrix("fallback-pw", 2000, 32, orthonormalize=True)
        # each of the 32 columns takes one norm, one call; the other calls
        # are rows that neither cut resolved, out of 32 * 31 / 2 projections
        assert {len(rows) for rows in calls} == {1} and len(calls) - 32 < 0.05 * 496


def _count_loop_paths(monkeypatch):
    """Count the row scans after the first (the rescans) and the
    _filtered_dots calls in which a row took the second cut."""
    counts = {"scans": 0, "second_cuts": 0}
    row_maxima, filtered_dots = prng._row_maxima, prng._filtered_dots

    def scanned(block):
        counts["scans"] += 1
        return row_maxima(block)

    def filtered(*args):
        dots, recut = filtered_dots(*args)
        counts["second_cuts"] += recut
        return dots, recut

    monkeypatch.setattr(prng, "_row_maxima", scanned)
    monkeypatch.setattr(prng, "_filtered_dots", filtered)
    return counts


class TestTrackedExponent:
    def test_growing_residual_is_scanned_again(self, monkeypatch):
        # no row takes the second cut, so the rescan after the first scan
        # comes from the bound passing 2**-1
        counts = _count_loop_paths(monkeypatch)
        _oracle_gram_schmidt("growing")
        assert counts["scans"] > 1 and counts["second_cuts"] == 0

    def test_shrinking_residuals_take_the_second_cut(self, monkeypatch):
        counts = _count_loop_paths(monkeypatch)
        _oracle_gram_schmidt("shrinking")
        assert counts["second_cuts"] > 0

    def test_exponent_bounds_every_block(self, monkeypatch):
        # every e_top the loop passes is a true bound on its block
        checked = []
        filtered_dots = prng._filtered_dots

        def bounded(q, q_sliced, block, e_top, vbits, buf):
            checked.append(np.abs(block).max() < 2.0**e_top)
            return filtered_dots(q, q_sliced, block, e_top, vbits, buf)

        monkeypatch.setattr(prng, "_filtered_dots", bounded)
        derive_matrix("fallback-pw", 2000, 32, orthonormalize=True)
        for name in ORACLE_CASES:
            _oracle_gram_schmidt(name)
        assert len(checked) > 100 and all(checked)
