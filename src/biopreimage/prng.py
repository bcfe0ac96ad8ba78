"""Deterministic password-keyed generation of projection matrices.

The password is hashed with 64-bit FNV-1a and the result seeds a
splitmix64 stream; both recurrences are fixed here bit-for-bit so that
any reimplementation (any language) produces identical matrices.  The
same holds for orthonormalized matrices: :func:`gram_schmidt` fixes its
arithmetic down to the rounding of every operation, so the result does
not depend on the BLAS build.  Each of its dot products is the exact
value rounded once.  A filter (:func:`_filtered_dots`) gets most of them
cheaply: one cut of the residual gives an exact part and an ordinary
BLAS dot with a rigorous error bound.  Only where the bound leaves the
rounding open is the dot formed in full by error-free slicing
(:func:`_exact_dots`).  The generator is deliberately not cryptographic: the threat model hands
the password to the attacker anyway.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1

FNV_OFFSET_BASIS = 14695981039346656037
FNV_PRIME = 1099511628211

#: Golden-ratio increment of the splitmix64 state.
_GAMMA = 0x9E3779B97F4A7C15

#: Stream outputs computed per numpy block by :func:`derive_matrix`: as
#: many whole columns as fit (one column when n exceeds it).  Keeps a
#: block's temporaries near 1.5 MB instead of growing with the matrix.
_DRAW_BLOCK = 1 << 16

#: A column counts as linearly dependent during orthonormalization when
#: its residual norm is at most this fraction of its input norm.
_DEGENERATE_NORM = 1e-12

#: Bound on the magnitude of entries to orthonormalize.  Below it no
#: product, dot product or squared norm formed on the way can overflow.
_MAX_ENTRY = 2.0**256

#: Exponent of the smallest subnormal: every double is a multiple of
#: 2**_MIN_GRID.
_MIN_GRID = -1074

#: Rows a finished column is projected out of at once: enough to spread
#: the per-call overhead, few enough that their slices stay in cache.
_BLOCK = 4

#: Bits above its grid of the one cut :func:`_filtered_dots` takes of a
#: residual block.  More bits leave a smaller low part, so fewer dot
#: products need the exact fallback (2.2-2.3% at face size), but give
#: q_k fewer bits per slice and so more slices.
_CUT_BITS = 30


class SeedError(ValueError):
    """Raised for unusable password or matrix dimensions."""


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash (xor byte, multiply by the FNV prime)."""
    h = FNV_OFFSET_BASIS
    for b in data:
        h ^= b
        h = (h * FNV_PRIME) & _MASK64
    return h


def _as_bytes(password: bytes | str) -> bytes:
    if isinstance(password, str):
        password = password.encode("utf-8")
    return password


def derive_seed(password: bytes | str) -> int:
    """Password bytes to 64-bit seed state. Empty passwords are refused."""
    password = _as_bytes(password)
    if not password:
        raise SeedError("password must be non-empty")
    return fnv1a64(password)


class SplitMix64:
    """splitmix64 stream: state += golden-gamma; output = mixed state.

    The stream is counter-based: output k (from 1) is mix(seed + k*gamma
    mod 2**64), so :meth:`next_u64s` computes a block of outputs at once
    in wrapping uint64 arithmetic.  The scalar methods are the reference
    definition of the stream.

    Owns its state; do not share one instance across concurrent
    derivations.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_uniform(self) -> float:
        """Uniform draw u / 2^64 - 0.5 on [-0.5, 0.5].

        u is rounded to a double before the division, so the outputs
        u >= 2^64 - 2^10 give exactly 0.5 (probability about 2^-54).
        """
        return self.next_u64() / 18446744073709551616.0 - 0.5

    def next_byte(self) -> int:
        """Top 8 bits of the next output; unbiased uniform on [0, 255]."""
        return self.next_u64() >> 56

    def next_u64s(self, n: int) -> np.ndarray:
        """The next n outputs as a uint64 array, equal to n calls of
        :meth:`next_u64`, which leave the same state behind."""
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self.state)
        t = np.empty_like(z)
        for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            z ^= np.right_shift(z, np.uint64(shift), out=t)
            z *= np.uint64(mult)
        z ^= np.right_shift(z, np.uint64(31), out=t)
        self.state = (self.state + n * _GAMMA) & _MASK64
        return z

    def fill_column(self, n: int) -> np.ndarray:
        """The next n uniform draws, bit for bit those of n calls of
        :meth:`next_uniform`."""
        u = self.next_u64s(n).astype(np.float64)
        u /= 18446744073709551616.0
        u -= 0.5
        return u


def _slice_budget(n: int) -> int:
    """Bits that a slice of x and a slice of y may hold between them so
    that their length-n dot product is exact in any summation order:
    n products of at most that many bits sum to at most 2**53 units."""
    return 53 - (n - 1).bit_length()


def _split(x: np.ndarray, bits: int) -> tuple[np.ndarray, list[int]]:
    """Error-free slicing of a vector, or of the rows of a block (Ozaki,
    Ogita, Oishi & Rump 2012).

    Returns slices ``s`` of shape (k,) + x.shape and grid exponents ``g``
    (k ints, shared by all rows); the slices sum exactly to x.
    ``s[i]`` holds multiples of ``2**g[i]`` of magnitude at most
    ``2**(g[i] + bits)``, so a product of two slices is exact when their
    bits fit in ``_slice_budget``; ``g[-1]`` is the finest grid.  Every
    slice but the last is rounded off the remainder onto its grid by
    adding and subtracting a constant whose unit in the last place is
    that grid; the last slice is what remains, which lies on the grid of
    the lowest bit among x's entries.  x must be finite and below
    ``_MAX_ENTRY`` in magnitude.
    """
    a = np.abs(x)
    top = a.max()
    low = a.min()
    if low == 0.0:  # the smallest nonzero magnitude; 0.0 if x is all zero
        low = a[a > 0].min(initial=top)
    e_top = math.frexp(top)[1]  # |x| < 2**e_top
    grid = max(math.frexp(low)[1] - 53, _MIN_GRID)  # x is a multiple of 2**grid
    k = -((grid - e_top) // bits)  # ceil((e_top - grid) / bits)
    g = [e_top - (i + 1) * bits for i in range(k - 1)] + [grid]
    s = np.empty((k,) + x.shape)
    if k == 1:
        s[0] = x
    r = x
    for i in range(k - 1):
        sigma = math.ldexp(1.5, g[i] + 52)
        np.add(r, sigma, out=s[i])
        np.subtract(s[i], sigma, out=s[i])
        r = np.subtract(r, s[i], out=s[k - 1])
    return s, g


def _exact_dots(xs: np.ndarray, xg: list[int], ys: np.ndarray, yg: list[int]) -> list[float]:
    """Correctly rounded dot products of one sliced vector with each row
    of a sliced block: ``xs``/``xg`` are the slices and grids of a single
    row and ``ys``/``yg`` those of the block, as :func:`_split` returns
    them.

    Each pairwise product of slices is an exact BLAS dot product, and
    ``math.fsum`` rounds their exact sum once.  Where the product of the
    two finest grids falls below the smallest subnormal, the slices are
    first scaled to integers and their products summed in Python
    integers, so no partial product underflows.
    """
    k, rows, n = ys.shape
    scaled = xg[-1] + yg[-1] < _MIN_GRID
    if scaled:
        xs = np.ldexp(xs, -np.array(xg)[:, None])
        ys = np.ldexp(ys, -np.array(yg)[:, None, None])
    parts = (xs @ ys.reshape(k * rows, n).T).reshape(len(xs), k, rows)
    parts = parts.transpose(2, 0, 1).reshape(rows, -1).tolist()
    if not scaled:
        # + 0.0 turns an exact zero into +0.0 whatever the zero signs BLAS produced
        return [math.fsum(p) + 0.0 for p in parts]
    shifts = [a + b for a in xg for b in yg]
    low = min(shifts)
    return [sum(int(v) << (e - low) for v, e in zip(p, shifts)) / (1 << -low) for p in parts]


def _filtered_dots(q: np.ndarray, q_sliced: tuple, block: np.ndarray, vbits: int, scratch: np.ndarray) -> list[float]:
    """Correctly rounded dot products of q with each row of a block: the
    values :func:`_exact_dots` gives, at a fraction of its cost.

    ``q_sliced`` is ``(slices, grids, l1)``: q split by :func:`_split` at
    ``_slice_budget(n) - vbits`` bits, and sum(|q|) summed in floating
    point in any order.  ``scratch`` holds two (_BLOCK, n) buffers.

    The block is cut once, at grid g0 = e_top - vbits (|block| <
    2**e_top), into vh on that grid and vl = block - vh, both exact.  The
    products of vh with the slices of q are exact BLAS dot products, for
    the reason those of :func:`_exact_dots` are; a = vl @ q is an ordinary
    one, within err of the exact value.  So each exact dot lies in
    [s - err, s + err], s being the exact sum of its parts and a; rounding
    is monotone, so where ``math.fsum`` rounds both ends to the same
    double, that double is the dot.  Where it does not, the row falls
    back to :func:`_exact_dots`; so does the whole block when a product of
    vh and a slice of q could fall below the smallest subnormal.
    """
    qs, qg, l1 = q_sliced
    rows, n = block.shape
    g0 = math.frexp(max(block.max(), -block.min()))[1] - vbits
    if qg[-1] + g0 < _MIN_GRID:
        return _exact_dots(qs, qg, *_split(block, vbits))
    vh, vl = scratch[:, :rows]
    sigma = math.ldexp(1.5, g0 + 52)
    np.add(block, sigma, out=vh)
    vh -= sigma
    np.subtract(block, vh, out=vl)  # |vl| <= 2**(g0 - 1)
    # The bound on the error of a = fl(vl @ q).  In any summation order,
    # with or without fused multiply-adds, each term passes through at
    # most n roundings of relative error u = 2**-53, so the normal part of
    # the error is at most gamma_n * 2**(g0 - 1) * sum(|q|), with gamma_n
    # = n*u / (1 - n*u).  Each rounding that underflows adds at most
    # 2**-1075 instead, and at most n of them do.  err takes twice both
    # terms: n * 2**(g0 - 53) * l1, that is 2*n*u against gamma_n, and
    # n * 2**-1074.  For n below 2**50
    # the factor 2 also covers l1 falling short of sum(|q|) (by a relative
    # gamma_n at most) and the roundings of n * l1, of ldexp and of the
    # final sum.
    # 2 * err >= 2**-1073 is wider than the interval of reals that round
    # to zero, so a zero never passes the filter: every zero dot comes
    # from the exact path, with that path's sign.
    err = math.ldexp(n * l1, g0 - 53) + n * 2.0**_MIN_GRID
    parts = (qs @ vh.T).T.tolist()
    approx = (vl @ q).tolist()
    dots = []
    for i, (p, a) in enumerate(zip(parts, approx)):
        lo = math.fsum(p + [a, -err])
        if lo != math.fsum(p + [a, err]):
            lo = _exact_dots(qs, qg, *_split(block[i : i + 1], vbits))[0]
        dots.append(lo)
    return dots


def _check_entries(a: np.ndarray) -> None:
    # min and max propagate NaN, which then fails both comparisons
    if a.size and not (-_MAX_ENTRY < a.min() and a.max() < _MAX_ENTRY):
        raise SeedError("column entries must be finite and below 2**256 in magnitude")


def gram_schmidt(columns: np.ndarray, regenerate=None) -> np.ndarray:
    """Modified Gram-Schmidt over matrix columns, each normalized to unit
    length.

    The arithmetic is fixed so that any reimplementation reproduces the
    output bit for bit.  Column j starts as v = the input column; then

    * for k = 0, 1, ..., j-1 in that order: c = dot(q_k, v), then
      v = v - c * q_k elementwise, rounding the product and then the
      difference (two roundings, no fused multiply-add);
    * norm = sqrt(dot(v, v)) and q_j = v / norm elementwise.

    Here dot is the exact dot product rounded once to the nearest double
    (ties to even, +0.0 for an exact zero), and sqrt and / are the
    correctly rounded IEEE-754 operations.  Each c comes from a filter
    (:func:`_filtered_dots`): the residual is cut once, at ``_CUT_BITS``
    below its largest entry, into a high part whose products with the
    slices of q_k are exact and a low part whose BLAS dot with q_k is
    within err = n 2**(g0 - 53) sum(|q_k|) + n 2**-1074 of its exact
    value (err is twice a rigorous bound; 2**g0 is the cut's grid).  When
    the exact sum plus and minus err rounds to one double, that double
    is c; otherwise c, like every norm, comes from error-free slicing
    (:func:`_exact_dots`).  Either way no result depends on BLAS
    summation order, threading or use of FMA.

    Entries must be finite and below 2**256 in magnitude, so that no
    dot product can overflow; other columns raise :class:`SeedError`.
    A column is degenerate when norm is not above ``_DEGENERATE_NORM``
    times sqrt(dot(a, a)), a being the column as it entered (a zero
    column always is).  ``regenerate``, when given, is called to supply a
    fresh column in its place; without it the degenerate case raises.

    The input is never modified.  Besides it, the call holds two n x m
    float64 arrays at its peak: a row-major copy of the columns, worked
    on in place, and the returned C-contiguous result.
    """
    columns = np.asarray(columns, dtype=np.float64)
    if columns.ndim != 2:
        raise SeedError(f"gram_schmidt needs a 2-D array of columns, got shape {columns.shape}")
    n, m = columns.shape
    if m > n:
        raise SeedError(f"cannot orthonormalize {m} columns in dimension {n}")
    _check_entries(columns)
    return _orthonormalize_rows(np.array(columns.T, order="C"), regenerate)


def _orthonormalize_rows(rows: np.ndarray, regenerate) -> np.ndarray:
    """:func:`gram_schmidt` of the columns ``rows.T``, given as the rows
    of a C-contiguous (m, n) array with checked entries, which it
    overwrites; returns the n x m result as a new C-contiguous array."""
    m, n = rows.shape
    # Each column is a contiguous row, orthogonalized and then normalized
    # in place.  Once q_k is final it is projected out of every later row,
    # a block of rows at a time; each row still sees q_0, q_1, ... in
    # order, so this is the modified Gram-Schmidt gram_schmidt defines.
    # The residual block is cut once per projection at _CUT_BITS, and each
    # q_k sliced once with the rest of the budget; columns longer than
    # 2**15 get a lower cut, so that q_k's slices keep 8 bits.
    budget = _slice_budget(n)
    vbits = min(_CUT_BITS, budget - 8)
    scratch = np.empty((2, _BLOCK, n))

    def sliced(q):
        return *_split(q, budget - vbits), float(np.abs(q).sum())

    def project_out(block, q, q_sliced):
        dots = _filtered_dots(q, q_sliced, block, vbits, scratch)
        # the products reuse the low part's buffer, free once the dots are back
        block -= np.multiply(np.array(dots)[:, None], q, out=scratch[1, : len(block)])

    def norm(v):
        s, g = _split(v, budget // 2)
        return math.sqrt(_exact_dots(s, g, s[:, None], g)[0])

    scales = [norm(v) for v in rows]
    attempts = 0
    for j, v in enumerate(rows):
        scale = scales[j]
        while (length := norm(v)) <= _DEGENERATE_NORM * scale:
            attempts += 1
            if regenerate is None or attempts > 64:
                raise SeedError("degenerate column during orthonormalization")
            v[:] = regenerate()
            _check_entries(v)
            scale = norm(v)
            for q in rows[:j]:
                project_out(v[None], q, sliced(q))
        v /= length
        q_sliced = sliced(v)
        for b in range(j + 1, m, _BLOCK):
            project_out(rows[b : b + _BLOCK], v, q_sliced)
    return np.ascontiguousarray(rows.T)


def derive_matrix(password: bytes | str, n: int, m: int, orthonormalize: bool = False) -> np.ndarray:
    """n x m projection matrix with entries uniform on [-0.5, 0.5].

    Entries are :meth:`SplitMix64.next_uniform` draws (0.5 itself has
    probability about 2**-54), taken column by column from the stream
    (first column fully before the second), so the layout is
    reproducible across implementations.  The result is C-contiguous.
    With ``orthonormalize`` the columns are passed through
    :func:`gram_schmidt` afterwards; a linearly dependent column (never
    seen in practice) is replaced by further draws from the same stream.

    At its peak a plain derivation holds one n x m float64 array and an
    orthonormalized one two (about 42 MB at n = 112 * 92, m = 256): the
    stream fills the columns as the rows of an (m, n) array, which is
    orthonormalized in place and then transposed into the result.
    """
    if n < 1 or m < 1:
        raise SeedError(f"matrix dims must be positive, got {n}x{m}")
    if orthonormalize and m > n:
        raise SeedError(f"orthonormalization needs m <= n, got n={n} m={m}")
    stream = SplitMix64(derive_seed(password))
    # Row j of rows is column j of the matrix, so the stream's column-major
    # order is rows' row-major order.  Orthonormalization works on rows
    # itself, C-contiguous, so that each block is one contiguous write; a
    # plain matrix is filled through rows = out.T.
    if orthonormalize:
        rows = np.empty((m, n), dtype=np.float64)
    else:
        out = np.empty((n, m), dtype=np.float64)
        rows = out.T
    per_block = max(1, _DRAW_BLOCK // n)
    for j in range(0, m, per_block):
        k = min(per_block, m - j)
        rows[j : j + k] = stream.fill_column(k * n).reshape(k, n)
    if orthonormalize:
        out = _orthonormalize_rows(rows, regenerate=lambda: stream.fill_column(n))
    out.flags.writeable = False
    return out


def matrix_digest(matrix: np.ndarray) -> int:
    """64-bit conformance checksum of a projection matrix.

    FNV-1a over each entry rendered as a 17-significant-digit decimal
    (the shortest form that round-trips IEEE doubles), newline after
    each, taken in fill order (column by column).  Two implementations
    agree on this digest iff they produce bit-identical matrices.
    """
    h = FNV_OFFSET_BASIS
    matrix = np.asarray(matrix, dtype=np.float64)
    for j in range(matrix.shape[1]):
        for i in range(matrix.shape[0]):
            for b in format(matrix[i, j], ".17g").encode("ascii") + b"\n":
                h ^= b
                h = (h * FNV_PRIME) & _MASK64
    return h
