"""Forward pipeline tests.

The convolution oracle here is written as a literal quadruple loop over
the flipped kernel so it shares no code path with the vectorized
implementation under test.
"""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import biopreimage
from biopreimage import (
    GrayImage,
    PipelineError,
    SeedError,
    Template,
    binarize,
    convolve,
    derive_matrix,
    enroll,
    hamming_distance,
    pad_image,
    project,
    sobel,
    verify,
)
from biopreimage.pipeline import MAX_FEATURE, SOBEL_X, SOBEL_Y, template_bits
from biopreimage.prng import _DRAW_BLOCK


def conv_oracle(kernel, pixels):
    """True 2-D convolution with a zero border, one scalar at a time.

    For each output position the accumulated term is
    kernel[km-1-i][kn-1-j] * window[i][j], i.e. the kernel is rotated by
    180 degrees before the sliding dot product.
    """
    h, w = pixels.shape
    km, kn = kernel.shape
    padded = np.zeros((h + 2, w + 2))
    padded[1:-1, 1:-1] = pixels
    out = np.zeros((h, w))
    for r in range(h):
        for c in range(w):
            acc = 0.0
            for i in range(km):
                for j in range(kn):
                    acc += kernel[km - 1 - i, kn - 1 - j] * padded[r + i, c + j]
            out[r, c] = acc
    return out


def sobel_oracle(pixels):
    gx = conv_oracle(SOBEL_X, pixels)
    gy = conv_oracle(SOBEL_Y, pixels)
    return np.sqrt(gx * gx + gy * gy).ravel()


def random_image(rng, max_side=8):
    h = int(rng.integers(1, max_side + 1))
    w = int(rng.integers(1, max_side + 1))
    return GrayImage(w, h, rng.integers(0, 256, size=(h, w)))


def blocky_image(rng, h, w):
    """8x8 cells plus fine noise, in the manner of a synthetic face:
    strong edges on a smooth background."""
    cells = rng.integers(40, 216, (h // 8 + 1, w // 8 + 1))
    base = np.kron(cells, np.ones((8, 8), dtype=np.int64))[:h, :w]
    return GrayImage(w, h, np.clip(base + rng.integers(-8, 9, base.shape), 0, 255))


#: Bytes of one n x m float64 matrix at face size (112x92 pixels, 256 bits).
FACE_MATRIX_BYTES = 112 * 92 * 256 * 8


class TestGrayImage:
    def test_basic_construction(self):
        img = GrayImage(2, 3, [[1, 2], [3, 4], [5, 6]])
        assert img.width == 2
        assert img.height == 3
        assert img.n == 6
        assert np.array_equal(img.flat(), [1, 2, 3, 4, 5, 6])

    def test_from_flat_round_trip(self):
        img = GrayImage.from_flat(3, 2, [10, 20, 30, 40, 50, 60])
        assert img.pixels[1, 2] == 60
        assert np.array_equal(GrayImage(3, 2, img.pixels).flat(), img.flat())

    def test_rejects_out_of_range(self):
        with pytest.raises(PipelineError):
            GrayImage(1, 1, [[256]])
        with pytest.raises(PipelineError):
            GrayImage(1, 1, [[-1]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(PipelineError):
            GrayImage(2, 2, [[1, 2, 3], [4, 5, 6]])
        with pytest.raises(PipelineError):
            GrayImage.from_flat(2, 2, [1, 2, 3])

    def test_rejects_empty(self):
        with pytest.raises(PipelineError):
            GrayImage(0, 1, np.zeros((1, 0)))

    def test_rejects_non_integer(self):
        with pytest.raises(PipelineError):
            GrayImage(1, 1, [[0.5]])

    @pytest.mark.parametrize("width,height", [(2.0, 2), (2, 2.0), (True, 1), (1, False), ("2", 2)])
    def test_rejects_non_integer_dims(self, width, height):
        """A float dimension used to pass, give a float n and fail only in
        enroll's seed check; a bool passed as 1 or 0."""
        with pytest.raises(PipelineError, match="must be an integer"):
            GrayImage(width, height, np.zeros((2, 2)))

    def test_accepts_numpy_integer_dims(self):
        img = GrayImage(np.int64(2), np.int32(3), np.zeros((3, 2)))
        assert img.n == 6

    def test_pixels_read_only(self):
        img = GrayImage(1, 1, [[7]])
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 9


class TestConvolution:
    def test_pad_puts_zero_ring(self):
        img = GrayImage(2, 2, [[1, 2], [3, 4]])
        p = pad_image(img)
        assert p.shape == (4, 4)
        assert p[0].sum() == 0 and p[-1].sum() == 0
        assert p[:, 0].sum() == 0 and p[:, -1].sum() == 0
        assert np.array_equal(p[1:-1, 1:-1], img.pixels)

    def test_matches_oracle_fuzz(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            img = random_image(rng)
            got = convolve(SOBEL_X, pad_image(img))
            want = conv_oracle(SOBEL_X, img.pixels.astype(np.float64))
            assert np.allclose(got, want, atol=1e-9)

    def test_impulse_reproduces_kernel(self):
        # convolving a centered impulse reproduces the kernel itself,
        # which is what distinguishes convolution from correlation
        img = GrayImage(3, 3, [[0, 0, 0], [0, 1, 0], [0, 0, 0]])
        out = convolve(SOBEL_X, pad_image(img))
        assert np.array_equal(out, SOBEL_X)

    def test_2x2_hand_values(self):
        a, b, c, d = 10, 200, 35, 90
        img = GrayImage(2, 2, [[a, b], [c, d]])
        s = sobel(img)
        want = [
            np.hypot(2 * b + d, 2 * c + d),
            np.hypot(-2 * a - c, 2 * d + c),
            np.hypot(2 * d + b, -2 * a - b),
            np.hypot(-2 * c - a, -2 * b - a),
        ]
        assert np.allclose(s, want, atol=1e-12)

    def test_1x1_feature_is_zero(self):
        # a single pixel has no neighbors, so both gradients vanish
        assert np.array_equal(sobel(GrayImage(1, 1, [[255]])), [0.0])

    def test_uniform_image_interior_is_zero(self):
        img = GrayImage(5, 5, np.full((5, 5), 77))
        s = sobel(img).reshape(5, 5)
        assert np.allclose(s[1:-1, 1:-1], 0.0)

    def test_sobel_non_negative_and_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            s = sobel(random_image(rng))
            assert (s >= 0).all()
            assert (s <= MAX_FEATURE + 1e-9).all()

    def test_correlation_equivalence_after_squaring(self):
        # flipping both Sobel kernels only negates the gradients, so the
        # magnitude image is the same whether one convolves or correlates
        rng = np.random.default_rng(13)
        img = random_image(rng)
        pix = img.pixels.astype(np.float64)
        gx = conv_oracle(SOBEL_X[::-1, ::-1], pix)
        gy = conv_oracle(SOBEL_Y[::-1, ::-1], pix)
        assert np.allclose(sobel(img), np.sqrt(gx**2 + gy**2).ravel())


class TestProjection:
    def test_matches_matmul(self):
        rng = np.random.default_rng(3)
        feat = rng.uniform(0, 100, size=6)
        mat = rng.uniform(-0.5, 0.5, size=(6, 4))
        assert np.allclose(project(feat, mat), feat @ mat)

    def test_dimension_mismatch(self):
        with pytest.raises(PipelineError):
            project(np.zeros(3), np.zeros((4, 2)))


class TestBinarize:
    def test_sign_rule(self):
        t = binarize(np.array([-1.0, 1.0, -1e-300, 1e-300]))
        assert t.to_bitstring() == "0101"

    def test_nan_raises_and_infinities_keep_their_sign(self):
        with pytest.raises(PipelineError, match="NaN"):
            binarize(np.array([np.nan, -1.0, np.inf]))
        assert binarize(np.array([-np.inf, np.inf])).to_bitstring() == "01"

    def test_exact_zero_is_one(self):
        assert binarize(np.zeros(5)).to_bitstring() == "11111"

    def test_fuzz_against_scalar_rule(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(200)
        v[::7] = 0.0
        t = binarize(v)
        for bit, x in zip(t.bits, v):
            assert bit == (0 if x < 0 else 1)


class TestTemplateBits:
    def test_exact_sign_where_blas_rounds_to_zero(self):
        # fl(1 - 1e-17) = 1, so every summation order gives 0.0 and bit 1;
        # the exact dot is -1e-17
        f = np.array([1.0, 1.0, 1.0])
        column = np.array([1.0, -1e-17, -1.0])
        assert project(f, column[:, None]).tolist() == [0.0]
        assert binarize(project(f, column[:, None])).to_bitstring() == "1"
        assert template_bits(f, column[None]).tolist() == [0]
        assert template_bits(f, -column[None]).tolist() == [1]

    def test_negative_dot_below_the_smallest_double_is_zero_bit(self):
        # the exact dot -2**-1200 rounds to -0.0; it is still negative
        f = np.array([2.0**-600, 1.0])
        column = np.array([-(2.0**-600), 0.0])
        assert binarize(project(f, column[:, None])).to_bitstring() == "1"
        assert template_bits(f, column[None]).tolist() == [0]
        assert template_bits(f, -column[None]).tolist() == [1]

    def test_exact_zero_is_one(self):
        assert template_bits(np.array([3.0, 3.0]), np.array([[1.0, -1.0], [0.0, 0.0]])).tolist() == [1, 1]
        assert template_bits(np.zeros(4), np.array([[0.5, -0.5, 0.1, 0.2]])).tolist() == [1]

    def test_matches_float_signs_and_ignores_column_order(self):
        rng = np.random.default_rng(23)
        f = np.abs(rng.normal(size=50)) * 100
        cols = rng.uniform(-0.5, 0.5, size=(40, 50))
        bits = template_bits(f, cols)
        assert bits.dtype == np.uint8
        assert np.array_equal(bits, binarize(cols @ f).bits)
        assert np.array_equal(template_bits(f, cols[::-1])[::-1], bits)
        assert np.array_equal(template_bits(f, np.asfortranarray(cols)), bits)
        assert np.array_equal(np.concatenate([template_bits(f, c[None]) for c in cols]), bits)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2.0**256, -(2.0**256)])
    @pytest.mark.parametrize("where", ["feature", "column"])
    def test_unusable_entries_raise(self, bad, where):
        f = np.ones(3)
        cols = np.full((2, 3), 0.25)
        if where == "feature":
            f[1] = bad
        else:
            cols[1, 2] = bad
        with pytest.raises(PipelineError):
            template_bits(f, cols)

    @pytest.mark.parametrize("shape", [(3,), (2, 4), (1, 2, 3)])
    def test_shape_mismatch_raises(self, shape):
        with pytest.raises(PipelineError):
            template_bits(np.ones(3), np.ones(shape))


class TestTemplate:
    def test_bitstring_round_trip(self):
        t = Template.from_bitstring("1011001")
        assert t.to_bitstring() == "1011001"
        assert len(t) == 7

    def test_hex_round_trip(self):
        t = Template.from_bitstring("10110")
        assert t.to_hex() == "b0"
        assert Template.from_hex("b0", 5) == t

    def test_hex_rejects_nonzero_padding(self):
        with pytest.raises(PipelineError):
            Template.from_hex("b1", 5)

    def test_hex_rejects_wrong_length(self):
        with pytest.raises(PipelineError):
            Template.from_hex("ff", 9)

    def test_rejects_non_bits(self):
        with pytest.raises(PipelineError):
            Template([0, 1, 2])
        with pytest.raises(PipelineError):
            Template.from_bitstring("10x")

    @pytest.mark.parametrize("bits", [[2], [0, 1, 255], np.array([1, 2], dtype=np.uint8)])
    def test_rejects_values_above_one(self, bits):
        with pytest.raises(PipelineError):
            Template(bits)

    @pytest.mark.parametrize(
        "bits",
        [
            [0.5, 1],
            np.array([0.9, 1.0]),
            np.array([256, 1]),
            np.array([-255, 1]),
            [-1, 0],
            np.array([np.nan, 1.0]),
            ["0", "1"],
        ],
        ids=["half", "fraction", "wraps-to-0", "wraps-to-1", "negative", "nan", "strings"],
    )
    def test_rejects_values_other_than_zero_and_one(self, bits):
        """These used to be cast to uint8: truncated to [0 1], wrapped to
        [0 1] or [1 1], or failed with a bare OverflowError."""
        with pytest.raises(PipelineError, match="0 or 1"):
            Template(bits)

    @pytest.mark.parametrize(
        "bits",
        [
            np.array([True, False, True]),
            np.array([1, 0, 1], dtype=np.uint8),
            np.array([1.0, 0.0, 1.0]),
            np.array([1, -0.0, 1]),
        ],
        ids=["bool", "uint8", "float", "negative-zero"],
    )
    def test_accepts_exact_bits_of_any_numeric_dtype(self, bits):
        t = Template(bits)
        assert t.bits.dtype == np.uint8 and t.bits.tolist() == [1, 0, 1]

    @pytest.mark.parametrize("bits", [[], [0], [1], [1, 0, 1]])
    def test_accepts_bits(self, bits):
        t = Template(bits)
        assert t.bits.dtype == np.uint8 and t.bits.tolist() == bits

    def test_round_trip_fuzz(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = int(rng.integers(1, 40))
            t = Template(rng.integers(0, 2, size=m))
            assert Template.from_bitstring(t.to_bitstring()) == t
            assert Template.from_hex(t.to_hex(), m) == t


class TestEnroll:
    def test_golden_template(self):
        img = GrayImage.from_flat(2, 2, [10, 200, 35, 90])
        t = enroll(img, "golden-password", 16)
        assert t.to_bitstring() == "1111110010110010"
        assert t.to_hex() == "fcb2"

    def test_matches_manual_composition(self):
        img = GrayImage.from_flat(2, 2, [10, 200, 35, 90])
        mat = derive_matrix("golden-password", 4, 16)
        manual = binarize(project(sobel(img), mat))
        assert manual == enroll(img, "golden-password", 16)

    def test_deterministic(self):
        rng = np.random.default_rng(19)
        img = random_image(rng)
        assert enroll(img, b"pw", 12) == enroll(img, b"pw", 12)

    def test_all_zero_image_gives_all_ones(self):
        img = GrayImage(3, 3, np.zeros((3, 3), dtype=int))
        assert enroll(img, "anything", 10).to_bitstring() == "1" * 10

    def test_password_matters(self):
        img = GrayImage.from_flat(2, 2, [10, 200, 35, 90])
        assert enroll(img, "pw-one", 32) != enroll(img, "pw-two", 32)

    def test_rejects_bad_m(self):
        img = GrayImage(1, 1, [[0]])
        with pytest.raises((PipelineError, ValueError)):
            enroll(img, "pw", 0)

    @pytest.mark.parametrize("m", [True, 1.5, 16.0, None])
    def test_rejects_bool_or_non_integral_m(self, m, monkeypatch):
        # the check comes before the features or any column
        monkeypatch.setattr(biopreimage.pipeline, "sobel", lambda image: pytest.fail("ran sobel"))
        monkeypatch.setattr(biopreimage.prng, "derive_seed", lambda password: pytest.fail("derived a seed"))
        img = GrayImage.from_flat(2, 2, [10, 200, 35, 90])
        for ortho in (False, True):
            with pytest.raises(SeedError, match="m must be an integer"):
                enroll(img, "pw", m, orthonormalize=ortho)

    @pytest.mark.parametrize(
        "h, w, m, ortho",
        [
            (2, 5, 20, False),
            (2, 5, 10, True),
            (16, 16, 64, False),
            (16, 16, 64, True),
            (112, 92, 256, False),
            (112, 92, 256, True),
            (25, 40, 70, False),  # 65 columns a draw block, then a partial block of 5
            (25, 40, 70, True),
            (1, _DRAW_BLOCK + 3, 2, False),  # one column per block, longer than a block
            (1, _DRAW_BLOCK + 3, 2, True),
        ],
    )
    def test_matches_binarized_projection_through_derived_matrix(self, h, w, m, ortho):
        rng = np.random.default_rng(h * w + m)
        matrix = derive_matrix("sweep-pw", h * w, m, orthonormalize=ortho)
        images = [GrayImage(w, h, rng.integers(0, 256, size=(h, w))), blocky_image(rng, h, w)]
        for img in images:
            assert enroll(img, "sweep-pw", m, orthonormalize=ortho) == binarize(project(sobel(img), matrix))

    @pytest.mark.parametrize(
        "ortho, bound", [(False, 4_000_000), (True, 1.25 * FACE_MATRIX_BYTES)], ids=["plain", "orthonormalized"]
    )
    def test_face_size_peak_memory(self, ortho, bound):
        # plain: one draw block and its temporaries; orthonormalized: the
        # rows Gram-Schmidt works on, no transposed copy
        img = blocky_image(np.random.default_rng(29), 112, 92)
        tracemalloc.start()
        try:
            enroll(img, "pw", 256, orthonormalize=ortho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_face_size_templates_independent_of_blas_threads(self):
        code = (
            "import numpy as np\n"
            "from biopreimage import GrayImage, enroll\n"
            "img = GrayImage(92, 112, np.random.default_rng(31).integers(0, 256, (112, 92)))\n"
            "print(enroll(img, 'pw', 256).to_hex(), enroll(img, 'pw', 256, orthonormalize=True).to_hex())"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(biopreimage.__file__)))
        templates = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = threads
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
            templates.add(run.stdout)
        assert len(templates) == 1


class TestVerify:
    def test_distances(self):
        t1 = Template.from_bitstring("10101")
        t2 = Template.from_bitstring("10011")
        assert hamming_distance(t1, t2) == 2
        assert hamming_distance(t1, t1) == 0

    def test_length_mismatch(self):
        with pytest.raises(PipelineError):
            hamming_distance(Template.from_bitstring("10"), Template.from_bitstring("101"))

    def test_threshold_inclusive(self):
        t1 = Template.from_bitstring("10101")
        t2 = Template.from_bitstring("10011")
        assert verify(t1, t2, 2).accepted
        assert not verify(t1, t2, 1).accepted
        assert verify(t1, t2, 1).distance == 2

    @pytest.mark.parametrize("threshold", [1.5, 2.0, True, False, "2", None])
    def test_rejects_bool_or_non_integral_threshold(self, threshold):
        t = Template.from_bitstring("10101")
        with pytest.raises(PipelineError, match="threshold must be an integer"):
            verify(t, t, threshold)
        assert verify(t, t, np.int64(0)).accepted

    def test_hamming_axioms_fuzz(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            m = int(rng.integers(1, 30))
            a, b, c = (Template(rng.integers(0, 2, size=m)) for _ in range(3))
            dab = hamming_distance(a, b)
            assert dab == hamming_distance(b, a)
            assert dab <= hamming_distance(a, c) + hamming_distance(c, b)
            assert (dab == 0) == (a == b)
