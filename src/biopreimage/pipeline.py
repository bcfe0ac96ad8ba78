"""Forward cancelable-biometric pipeline.

The protected template of a grayscale image is computed in four steps:
Sobel gradient magnitudes, flattening to a feature vector, projection
through a password-derived matrix, and sign binarization.  Verification
compares two templates under the Hamming distance.  Everything here is a
pure function of its inputs; the attack code uses this module unchanged
as the ground-truth success check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .prng import _MAX_ENTRY, _MIN_GRID, _check_count, _exact_dots, _slice_budget, _split, column_blocks

# Horizontal / vertical gradient kernels.  Convolution below flips the
# kernel, so the raw gradients come out negated relative to plain
# correlation; the magnitude step squares them, which makes the template
# independent of that orientation choice.
SOBEL_X = np.array([[1, 0, -1], [2, 0, -2], [1, 0, -1]], dtype=np.float64)
SOBEL_Y = np.array([[1, 2, 1], [0, 0, 0], [-1, -2, -1]], dtype=np.float64)

#: Largest gradient magnitude a single Sobel component can reach for
#: 8-bit pixels (kernel positive taps sum to 4).
MAX_GRADIENT = 4 * 255
#: Largest attainable feature value: both components at MAX_GRADIENT.
MAX_FEATURE = MAX_GRADIENT * np.sqrt(2.0)


class PipelineError(ValueError):
    """Invalid input to a pipeline operation (bad dims, bad values)."""


@dataclass(frozen=True)
class GrayImage:
    """Rectangular grid of integer pixel intensities in [0, 255].

    ``pixels`` is a read-only (height, width) int64 array.
    """

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        # A float or bool dimension would pass the range check and fail
        # only later, in enroll's seed check (n = 2.0 * 2 is a float).
        _check_count("width", self.width, PipelineError)
        _check_count("height", self.height, PipelineError)
        if self.width < 1 or self.height < 1:
            raise PipelineError(f"image dims must be positive, got {self.height}x{self.width}")
        raw = np.asarray(self.pixels)
        if raw.dtype.kind == "f":
            if not np.isfinite(raw).all() or (raw % 1 != 0).any():
                raise PipelineError("pixel values must be integral")
        elif raw.dtype.kind not in "iub":
            raise PipelineError(f"pixel dtype {raw.dtype} is not numeric")
        px = raw.astype(np.int64)
        if px.shape != (self.height, self.width):
            raise PipelineError(
                f"pixel grid shape {px.shape} does not match {self.height}x{self.width}"
            )
        if px.size and (px.min() < 0 or px.max() > 255):
            raise PipelineError("pixel values must lie in [0, 255]")
        px = px.copy()
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    @classmethod
    def from_flat(cls, width: int, height: int, values) -> "GrayImage":
        """Build from row-major flat pixel values."""
        arr = np.asarray(list(values))
        if arr.size != width * height:
            raise PipelineError(f"expected {width * height} pixels, got {arr.size}")
        return cls(width, height, arr.reshape(height, width))

    @property
    def n(self) -> int:
        """Pixel count; also the feature-vector length."""
        return self.width * self.height

    def flat(self) -> np.ndarray:
        return self.pixels.reshape(-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GrayImage):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and bool(np.array_equal(self.pixels, other.pixels))
        )

    def __hash__(self):
        return hash((self.width, self.height, self.pixels.tobytes()))


def pad_image(image: GrayImage) -> np.ndarray:
    """Zero-pad with a one-pixel border ring, as float64.

    Border pixels of the measurement are treated as absent: the ring is
    fixed to 0 so the 3x3 kernels stay total on every interior cell.
    """
    out = np.zeros((image.height + 2, image.width + 2), dtype=np.float64)
    out[1:-1, 1:-1] = image.pixels
    return out


def convolve(kernel: np.ndarray, padded: np.ndarray) -> np.ndarray:
    """True 2-D convolution of a 3x3 kernel over a zero-padded grid.

    The kernel is flipped (180 degrees) before the sliding dot product,
    matching the textbook double-sum definition.  Output has the
    un-padded dimensions.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.shape != (3, 3):
        raise PipelineError(f"kernel must be 3x3, got {kernel.shape}")
    padded = np.asarray(padded, dtype=np.float64)
    if padded.shape[0] < 3 or padded.shape[1] < 3:
        raise PipelineError(f"padded grid too small: {padded.shape}")
    h, w = padded.shape[0] - 2, padded.shape[1] - 2
    flipped = kernel[::-1, ::-1]
    out = np.zeros((h, w), dtype=np.float64)
    for a in range(3):
        for b in range(3):
            out += flipped[a, b] * padded[a : a + h, b : b + w]
    return out


def sobel(image: GrayImage) -> np.ndarray:
    """Row-major feature vector of per-pixel gradient magnitudes.

    Entry (i, j) is sqrt(Gx(i,j)^2 + Gy(i,j)^2) with Gx, Gy the two
    kernel convolutions over the zero-padded image.  All entries are
    non-negative; length equals the pixel count.
    """
    padded = pad_image(image)
    gx = convolve(SOBEL_X, padded)
    gy = convolve(SOBEL_Y, padded)
    return np.sqrt(gx * gx + gy * gy).reshape(-1)


def project(feature: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Row-vector times matrix: the raw (pre-binarization) template."""
    feature = np.asarray(feature, dtype=np.float64)
    matrix = np.asarray(matrix, dtype=np.float64)
    if feature.ndim != 1 or matrix.ndim != 2 or feature.shape[0] != matrix.shape[0]:
        raise PipelineError(
            f"feature of length {feature.shape} incompatible with matrix {matrix.shape}"
        )
    return feature @ matrix


@dataclass(frozen=True)
class Template:
    """Length-m bit vector; the protected template."""

    bits: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.bits)
        if raw.ndim != 1:
            raise PipelineError("template bits must be a flat vector")
        # Compared before the cast: a cast to uint8 would truncate 0.5 to 0
        # and wrap 256 to 0 and -255 to 1.
        if raw.dtype.kind not in "biuf" or not np.logical_or(raw == 0, raw == 1).all():
            raise PipelineError("template bits must be 0 or 1")
        b = raw.astype(np.uint8)
        b.flags.writeable = False
        object.__setattr__(self, "bits", b)

    def __len__(self) -> int:
        return int(self.bits.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Template):
            return NotImplemented
        return bool(np.array_equal(self.bits, other.bits))

    def __hash__(self):
        return hash(self.bits.tobytes())

    def to_bitstring(self) -> str:
        """ASCII bit string, first character = first template bit."""
        return "".join("1" if b else "0" for b in self.bits)

    @classmethod
    def from_bitstring(cls, s: str) -> "Template":
        s = s.strip()
        if not s or any(c not in "01" for c in s):
            raise PipelineError(f"not a bit string: {s!r}")
        return cls(np.frombuffer(s.encode("ascii"), dtype=np.uint8) - ord("0"))

    def to_hex(self) -> str:
        """Lowercase hex, bit string left-aligned (first bit = MSB of the
        first nibble), zero-padded on the right to a nibble boundary.
        The bit length must travel alongside to invert this."""
        n = len(self)
        padded = np.zeros((-(-n // 4)) * 4, dtype=np.uint8)
        padded[:n] = self.bits
        digits = padded.reshape(-1, 4) @ np.array([8, 4, 2, 1], dtype=np.uint8)
        return "".join(format(int(d), "x") for d in digits)

    @classmethod
    def from_hex(cls, s: str, bit_length: int) -> "Template":
        s = s.strip().lower()
        if bit_length < 0 or len(s) * 4 < bit_length:
            raise PipelineError(f"hex string {s!r} too short for {bit_length} bits")
        bits = []
        for c in s:
            v = int(c, 16)
            bits.extend((v >> 3 & 1, v >> 2 & 1, v >> 1 & 1, v & 1))
        if any(bits[bit_length:]):
            raise PipelineError("nonzero padding bits beyond declared bit length")
        return cls(np.array(bits[:bit_length], dtype=np.uint8))


def binarize(projected: np.ndarray) -> Template:
    """Sign threshold: bit is 0 where the projection is strictly
    negative, 1 otherwise (an exact 0 maps to 1).  A NaN projection has
    no sign and raises :class:`PipelineError`."""
    projected = np.asarray(projected, dtype=np.float64)
    if np.isnan(projected).any():
        raise PipelineError("cannot binarize a NaN projection")
    return Template(np.where(projected < 0, 0, 1).astype(np.uint8))


def template_bits(feature: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Template bits of a feature through matrix columns, given as the
    rows of ``columns``: bit i is 0 where the exact dot product of the
    feature with ``columns[i]`` is negative, 1 otherwise (an exact 0
    maps to 1), as a uint8 array.

    The BLAS product decides every bit whose value lies outside
    err = n 2**-52 sum(|f|) max|c| + n 2**-1074, twice a rigorous bound
    on its rounding error in any summation order, with or without fused
    multiply-adds (the bound of ``prng._filtered_dots``).  The rest take
    the sign of the correctly rounded dot product (``prng._exact_dots``).
    So the bits depend neither on the BLAS build nor on its threads, and
    not on the order or layout in which the columns come.  Entries of
    both arrays must be finite and below 2**256 in magnitude; other
    inputs raise :class:`PipelineError` and yield no bit.
    """
    feature = np.asarray(feature, dtype=np.float64)
    columns = np.asarray(columns, dtype=np.float64)
    if feature.ndim != 1 or columns.ndim != 2 or columns.shape[1] != feature.shape[0]:
        raise PipelineError(
            f"feature of length {feature.shape} incompatible with columns {columns.shape}"
        )
    if not columns.size:
        return np.ones(columns.shape[0], dtype=np.uint8)
    return _block_bits(feature, _feature_size(feature), columns)


def _feature_size(feature: np.ndarray) -> float:
    """sum(|f|) of a float64 feature vector, the feature's share of the
    bound in :func:`template_bits`; raises :class:`PipelineError` unless
    every entry is finite and below 2**256 in magnitude."""
    size = np.abs(feature)
    # max propagates NaN, which then fails the comparison
    if not size.max() < _MAX_ENTRY:
        raise PipelineError("feature and matrix entries must be finite and below 2**256 in magnitude")
    return float(size.sum())


def _block_bits(feature: np.ndarray, size: float, columns: np.ndarray) -> np.ndarray:
    """:func:`template_bits` of a non-empty (k, n) float64 block, given the
    feature's ``_feature_size``, so that a caller with many blocks of one
    feature forms it once."""
    k, n = columns.shape
    lo, hi = columns.min(), columns.max()
    # min and max propagate NaN, which then fails every comparison
    if not (-_MAX_ENTRY < lo and hi < _MAX_ENTRY):
        raise PipelineError("feature and matrix entries must be finite and below 2**256 in magnitude")
    dots = columns @ feature
    err = math.ldexp(n * size * max(hi, -lo), -52) + n * 2.0**_MIN_GRID
    bits = (dots >= 0).astype(np.uint8)
    near = np.flatnonzero(np.abs(dots) <= err)
    if near.size:
        budget = _slice_budget(n)
        exact = _exact_dots(*_split(feature, budget // 2), *_split(columns[near], budget - budget // 2))
        # a negative dot too small for a double rounds to -0.0, which keeps its sign
        bits[near] = [math.copysign(1.0, d) > 0 for d in exact]
    return bits


def enroll(image: GrayImage, password: bytes | str, m: int, orthonormalize: bool = False) -> Template:
    """Full pipeline: feature extraction, keyed projection, binarization.

    Deterministic in (image, password, m, orthonormalize), and equal to
    ``binarize(project(sobel(image), derive_matrix(password, image.n, m,
    orthonormalize)))`` except where a projection lies within float
    rounding of zero: each bit is the exact sign of its projection
    (:func:`template_bits`), so the template does not depend on the BLAS
    build either.  With orthonormalization (BioHash-style matrices) m
    must not exceed the pixel count.

    The matrix is never stored.  Plain columns are projected one draw
    block at a time as the stream yields them.  The blocks are read-only
    views of buffers the draw reuses, each valid until the next is
    drawn, so the bits of a block are taken before the next is asked
    for, and a face-size enroll (112x92, 256 bits) peaks near 1.6 MB.
    Orthonormalized columns are drawn straight into the rows that
    Gram-Schmidt works on and projected from them, one n x m float64
    array (about 21 MB at face size).
    """
    # column_blocks checks m before it draws anything
    blocks = column_blocks(password, image.n, m, orthonormalize)
    feature = sobel(image)
    # sum(|f|) is the feature's share of every block's error bound
    size = _feature_size(feature)
    bits = np.empty(m, dtype=np.uint8)
    for j, block in blocks:
        bits[j : j + len(block)] = _block_bits(feature, size, block)
    return Template(bits)


@dataclass(frozen=True)
class VerifyDecision:
    distance: int
    threshold: int
    accepted: bool


def hamming_distance(t1: Template, t2: Template) -> int:
    if len(t1) != len(t2):
        raise PipelineError(f"template lengths differ: {len(t1)} vs {len(t2)}")
    return int(np.count_nonzero(t1.bits != t2.bits))


def verify(t1: Template, t2: Template, threshold: int) -> VerifyDecision:
    """Accept when the Hamming distance is at most the threshold."""
    _check_count("threshold", threshold, PipelineError)
    if threshold < 0:
        raise PipelineError("threshold must be non-negative")
    d = hamming_distance(t1, t2)
    return VerifyDecision(distance=d, threshold=threshold, accepted=d <= threshold)
