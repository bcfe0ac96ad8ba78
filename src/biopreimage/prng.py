"""Deterministic password-keyed generation of projection matrices.

The password is hashed with 64-bit FNV-1a and the result seeds a
splitmix64 stream; both recurrences are fixed here bit-for-bit so that
any reimplementation (any language) produces identical matrices.  The
same holds for orthonormalized matrices: :func:`gram_schmidt` fixes its
arithmetic down to the rounding of every operation, so the result does
not depend on the BLAS build.  Each of its dot products is the exact
value rounded once.  A filter (:func:`_filtered_dots`) gets most of them
cheaply: one cut of the residual gives an exact part and an ordinary
BLAS dot with a rigorous error bound.  The cut's exponent comes from a
bound on each residual's largest entry that the loop keeps up to date,
so a row is scanned only when that bound passes a power of two.  Where
the error bound leaves the rounding open, a second cut of the low part
narrows it 2**30-fold; only a row still open after that is formed in
full by error-free slicing (:func:`_exact_dots`).  The generator is
deliberately not cryptographic: the threat model hands the password to
the attacker anyway.

The draw loop (:func:`_draw_blocks`) mixes and converts each block of
the stream in place, in buffers it reuses from block to block: a plain
block it yields is read-only and valid until the next one is drawn.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

_MASK64 = (1 << 64) - 1

FNV_OFFSET_BASIS = 14695981039346656037
FNV_PRIME = 1099511628211

#: Golden-ratio increment of the splitmix64 state.
_GAMMA = 0x9E3779B97F4A7C15

#: Stream outputs computed per numpy block by :func:`_draw_blocks`, the
#: draw loop of :func:`derive_matrix` and of enroll: as many whole
#: columns as fit (one column when n exceeds it).  Keeps the draw's
#: buffers (the counter offsets and two work arrays of uint64) near
#: 1.5 MB instead of growing with the matrix.
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
#: the per-call overhead, few enough that a block, the scratch buffer
#: and the slices of q_k stay near a 2 MB L2 cache at face size.
_BLOCK = 8

#: Bits above its grid of each cut :func:`_filtered_dots` takes of a
#: residual block.  More bits leave a smaller low part, so fewer rows
#: need the second cut (about 2.2% at face size), but give q_k fewer bits
#: per slice and so more slices.
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


def _check_count(name: str, value, error: type[ValueError] = SeedError) -> None:
    """Raise ``error`` unless ``value`` is an integer.  A bool is an int
    subclass but not a count, and numpy would take a float or a bool for
    a size without complaint, or fail with its own TypeError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")


def derive_seed(password: bytes | str) -> int:
    """Password bytes to 64-bit seed state. Empty passwords and anything
    but str, bytes or bytearray are refused."""
    if not isinstance(password, (str, bytes, bytearray)):
        raise SeedError(f"password must be str, bytes or bytearray, got {type(password).__name__}")
    password = _as_bytes(password)
    if not password:
        raise SeedError("password must be non-empty")
    return fnv1a64(password)


def _u64(x: int) -> np.ndarray:
    # Constants of the block path are 0-d arrays: a ufunc takes one as it
    # is, where a scalar operand is converted anew at every call, which
    # costs more than the arithmetic on a block of a few hundred entries.
    return np.array(x, dtype=np.uint64)


#: The xorshift-multiply steps of the splitmix64 output function, then
#: its last xorshift.
_MIX_STEPS = ((_u64(30), _u64(0xBF58476D1CE4E5B9)), (_u64(27), _u64(0x94D049BB133111EB)))
_MIX_LAST_SHIFT = _u64(31)


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
        z = _offsets(n)
        return self._mix(z, z, np.empty_like(z))

    def fill_column(self, n: int) -> np.ndarray:
        """The next n uniform draws, bit for bit those of n calls of
        :meth:`next_uniform`."""
        z = self.next_u64s(n)
        return _uniforms(z, np.empty_like(z), z.view(np.float64))

    def _mix(self, offsets: np.ndarray, z: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Write the next len(z) outputs into z and return it: the block
        path of :meth:`next_u64s`.  ``offsets`` is :func:`_offsets`
        ``(len(z))`` and may be z itself; t is scratch of z's size."""
        np.add(offsets, _u64(self.state), z)
        for shift, mult in _MIX_STEPS:
            np.bitwise_xor(z, np.right_shift(z, shift, t), z)
            np.multiply(z, mult, z)
        np.bitwise_xor(z, np.right_shift(z, _MIX_LAST_SHIFT, t), z)
        self.state = (self.state + len(z) * _GAMMA) & _MASK64
        return z


def _offsets(n: int) -> np.ndarray:
    """The counter offsets k*gamma mod 2**64, k = 1..n, as uint64."""
    z = np.arange(1, n + 1, dtype=np.uint64)
    return np.multiply(z, _u64(_GAMMA), z)


#: Bit patterns of 2**20 and 2**-12: or-ed with a value below 2**32 they
#: give 2**20 + hi * 2**-32 and 2**-12 + lo * 2**-64 exactly.
_HI_BIAS = _u64(0x4130000000000000)
_LO_BIAS = _u64(0x3F30000000000000)
_LOW_32 = _u64(0xFFFFFFFF)
_SHIFT_32 = _u64(32)
_BIAS_SUM = np.array(2.0**20 + 2.0**-12)
_HALF = np.array(0.5)


def _uniforms(z: np.ndarray, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The draws u / 2**64 - 0.5 of the outputs u in z, bit for bit those
    of :meth:`SplitMix64.next_uniform`, written into out and returned.

    z and t (scratch) are clobbered; out may be ``z.view(np.float64)``.
    u = hi * 2**32 + lo is split into its two 32-bit halves, each turned
    into a double by or-ing it into the significand of a power of two
    (the exponent-bias form compilers emit; integer and float share their
    byte order, so no uint32 view of u is needed).  Then
    (2**20 + hi 2**-32) - (2**20 + 2**-12) is exact, and adding
    2**-12 + lo 2**-64 rounds u 2**-64 once: the scaled double of u,
    since no step comes near the subnormals.  This is several times
    faster than numpy's uint64 to float64 conversion.
    """
    np.bitwise_or(np.bitwise_and(z, _LOW_32, t), _LO_BIAS, t)
    np.bitwise_or(np.right_shift(z, _SHIFT_32, z), _HI_BIAS, z)
    np.subtract(z.view(np.float64), _BIAS_SUM, out)
    np.add(out, t.view(np.float64), out)
    return np.subtract(out, _HALF, out)


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


def _row_maxima(block: np.ndarray) -> list[float]:
    """max|row| of each row of a block, from one max and one min scan."""
    return np.maximum(block.max(axis=1), -block.min(axis=1)).tolist()


def _filtered_dots(
    q: np.ndarray, q_sliced: tuple, block: np.ndarray, e_top: int, vbits: int, buf: np.ndarray
) -> tuple[list[float], bool]:
    """Correctly rounded dot products of q with each row of a block: the
    values :func:`_exact_dots` gives, at a fraction of its cost.

    ``q_sliced`` is ``(slices, grids, l1)``: q split by :func:`_split` at
    ``_slice_budget(n) - vbits`` bits, and sum(|q|) summed in floating
    point in any order.  ``e_top`` is any exponent with |block| <
    2**e_top.  :func:`_orthonormalize_rows` passes one it tracks instead
    of scanning the block; one that is too high only widens the error
    bounds below.  ``buf`` is a (_BLOCK, n) scratch buffer: it holds vh,
    then vl in vh's place.  Returns the dots and whether any row took the
    second cut.

    The block is cut at grid g0 = e_top - vbits into vh on that grid and
    vl = block - vh, both exact, |vl| <= 2**(g0 - 1).  vh has at most
    vbits bits, so its products with the slices of q are exact BLAS dot
    products, for the reason those of :func:`_exact_dots` are; a = vl @ q
    is an ordinary one, within err of the exact value.  So each exact dot
    lies in [s - err, s + err], s being the exact sum of its parts and a;
    rounding is monotone, so where ``math.fsum`` rounds both ends to the
    same double, that double is the dot.  Where they differ, the row's vl
    is cut again at grid g0 - vbits (its high part has at most vbits - 1
    bits): its exact parts replace a, with one more approximate dot whose
    err is 2**-vbits times the first plus the same underflow term.  A row
    still open after that, and the whole block when a product of a cut
    and a slice of q could fall below the smallest subnormal, is formed
    by :func:`_exact_dots`.
    """
    qs, qg, l1 = q_sliced
    rows, n = block.shape

    def bound(g):
        # The bound on the error of a = fl(x @ q) for |x| <= 2**(g - 1).
        # In any summation order, with or without fused multiply-adds,
        # each term passes through at most n roundings of relative error
        # u = 2**-53, so the normal part of the error is at most gamma_n *
        # 2**(g - 1) * sum(|q|), with gamma_n = n*u / (1 - n*u).  Each
        # rounding that underflows adds at most 2**-1075 instead, and at
        # most n of them do.  The bound takes twice both terms: n * 2**(g -
        # 53) * l1, that is 2*n*u against gamma_n, and n * 2**-1074.  For n
        # below 2**50 the factor 2 also covers l1 falling short of sum(|q|)
        # (by a relative gamma_n at most) and the roundings of n * l1, of
        # ldexp and of the final sum.
        # 2 * bound >= 2**-1073 is wider than the interval of reals that
        # round to zero, so a zero never passes the filter: every zero dot
        # comes from the exact path, with that path's sign.
        return math.ldexp(n * l1, g - 53) + n * 2.0**_MIN_GRID

    def second_cut(i, p):
        g1 = g0 - vbits
        if qg[-1] + g1 >= _MIN_GRID:
            sigma1 = math.ldexp(1.5, g1 + 52)
            vlh = (v[i] + sigma1) - sigma1
            p = p + np.dot(vlh, qs.T).tolist() + [float((v[i] - vlh) @ q)]
            err1 = bound(g1)
            lo = math.fsum(p + [-err1])
            if lo == math.fsum(p + [err1]):
                return lo
        return _exact_dots(qs, qg, *_split(block[i : i + 1], vbits))[0]

    g0 = e_top - vbits
    if qg[-1] + g0 < _MIN_GRID:
        return _exact_dots(qs, qg, *_split(block, vbits)), False
    v = buf[:rows]
    sigma = math.ldexp(1.5, g0 + 52)
    np.add(block, sigma, out=v)
    v -= sigma  # vh
    parts = np.dot(v, qs.T).tolist()
    np.subtract(block, v, out=v)  # vl, in vh's place
    approx = (v @ q).tolist()
    err = bound(g0)
    dots = []
    recut = False
    for i, (p, a) in enumerate(zip(parts, approx)):
        lo = math.fsum(p + [a, -err])
        if lo != math.fsum(p + [a, err]):
            recut = True
            lo = second_cut(i, p)
        dots.append(lo)
    return dots, recut


def _exact_norm(v: np.ndarray) -> float:
    """sqrt(dot(v, v)) as :func:`gram_schmidt` defines it: the exact dot
    product rounded once, then the correctly rounded square root."""
    s, g = _split(v, _slice_budget(len(v)) // 2)
    return math.sqrt(_exact_dots(s, g, s[:, None], g)[0])


def _norm_bounds(rows: np.ndarray) -> list[float]:
    """A float upper bound on the exact norm sqrt(row . row) of each row,
    from one floating-point dot product per row.

    The terms are non-negative, so in any summation order, with or
    without fused multiply-adds, the dot s is within gamma_n = n u / (1 -
    n u) (u = 2**-53) of the exact value relative, plus at most 2**-1075
    for each of the n products that underflows.  So the exact value is
    at most (s + n 2**-1074) (1 + n 2**-50): for n below 2**50 the factor
    covers 1 / (1 - gamma_n), the roundings of the bound itself and the
    rounding of the exact value to a double.  Its correctly rounded
    square root is then at least the rounded square root of the exact
    value rounded once, which is the norm the exact rule uses."""
    n = rows.shape[1]
    sums = np.einsum("ij,ij->i", rows, rows)
    return [math.sqrt((s + n * 2.0**_MIN_GRID) * (1.0 + n * 2.0**-50)) for s in sums.tolist()]


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
    (:func:`_filtered_dots`): the residual is cut at 2**g0, ``_CUT_BITS``
    below a power of two 2**e above its largest entry, into a high part
    whose products with the slices of q_k are exact and a low part whose
    BLAS dot with q_k is within err = n 2**(g0 - 53) sum(|q_k|) + n
    2**-1074 of its exact value (err is twice a rigorous bound).  When the
    exact sum plus and minus err rounds to one double, that double is c.
    Otherwise the low part is cut again, ``_CUT_BITS`` further down, which
    shrinks the normal part of err 2**30-fold; c comes from error-free
    slicing (:func:`_exact_dots`), like every norm, only when that too
    leaves the rounding open.  Either way no result depends on BLAS
    summation order, threading or use of FMA.

    e is tracked rather than scanned for: each row keeps the exponent of
    its last scan and a bound on its largest entry, raised after each
    update by |c| max|q_k| (see :func:`_orthonormalize_rows`).  A row is
    scanned again only when the bound passes 2**e, and every row of a
    block in which a row needed the second cut.  A stale-high e widens
    err but never changes c.

    Entries must be finite and below 2**256 in magnitude, so that no
    dot product can overflow; other columns raise :class:`SeedError`.
    A column is degenerate when norm is not above ``_DEGENERATE_NORM``
    times sqrt(dot(a, a)), a being the column as it entered (a zero
    column always is).  The exact scale sqrt(dot(a, a)) is formed only
    when it can decide: a float upper bound on it, from one floating-point
    dot product of a with itself, settles every column whose norm is
    above 1e-12 times the bound, which is the same rule's verdict since
    rounding is monotone.
    ``regenerate``, when given, is called to supply a fresh column in its
    place; without it the degenerate case raises.

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
    rows = np.array(columns.T, order="C")
    return np.ascontiguousarray(_orthonormalize_rows(rows, regenerate, lambda j: columns[:, j]).T)


def _orthonormalize_rows(rows: np.ndarray, regenerate, original) -> np.ndarray:
    """:func:`gram_schmidt` of the columns ``rows.T``, given as the rows
    of a C-contiguous (m, n) array with checked entries: orthonormalizes
    the rows in place and returns ``rows`` itself, so that the caller
    decides whether to pay for a transposed copy.  ``original(j)``
    returns row j as it entered; it is called only for a residual that
    the bound on the column's norm leaves undecided."""
    m, n = rows.shape
    # Each column is a contiguous row, orthogonalized and then normalized
    # in place.  Once q_k is final it is projected out of every later row,
    # a block of rows at a time; each row still sees q_0, q_1, ... in
    # order, so this is the modified Gram-Schmidt gram_schmidt defines.
    # The residual block is cut at _CUT_BITS, and each q_k sliced once
    # with the rest of the budget; columns longer than 2**15 get a lower
    # cut, so that q_k's slices keep 8 bits.
    budget = _slice_budget(n)
    vbits = min(_CUT_BITS, budget - 8)
    buf = np.empty((_BLOCK, n))
    # The cut needs an exponent e with |row| < 2**e.  Rather than scan the
    # block before every projection, each row keeps the e of its last scan
    # and an upper bound on max|row|.  Entrywise, fl(row - fl(c * q)) is
    # at most (|row| + |c| |q| + 2**-1075) (1 + 2**-53)**2, so after each
    # update the bound rises by |c| max|q|, plus 2**-1074 for a product
    # that underflows, times 1 + 2**-40, which covers those two roundings
    # and the four of the bound itself.  A row is scanned again only when
    # its bound reaches 2**e.  So is every row of a block in which a row
    # needed the second cut: a residual that shrank leaves e stale-high,
    # which widens err and sends more rows there.
    bounds = [0.0] * m
    expo = [0] * m
    tiny, grow = 2.0**_MIN_GRID, 1.0 + 2.0**-40

    def scan(lo, hi):
        bounds[lo:hi] = top = _row_maxima(rows[lo:hi])
        expo[lo:hi] = [math.frexp(t)[1] for t in top]

    def project_out(lo, hi, q, q_sliced, q_max):
        block = rows[lo:hi]
        dots, recut = _filtered_dots(q, q_sliced, block, max(expo[lo:hi]), vbits, buf)
        # the products reuse the scratch buffer, free once the dots are back
        block -= np.multiply(np.array(dots)[:, None], q, out=buf[: hi - lo])
        if recut:
            scan(lo, hi)
            return
        for i, c in enumerate(dots, lo):
            bounds[i] = (bounds[i] + abs(c) * q_max + tiny) * grow
            if math.frexp(bounds[i])[1] > expo[i]:
                scan(i, i + 1)

    def project_all(lo, hi, q):
        q_sliced = *_split(q, budget - vbits), float(np.abs(q).sum())
        q_max = float(max(q.max(), -q.min()))
        for b in range(lo, hi, _BLOCK):
            project_out(b, min(b + _BLOCK, hi), q, q_sliced, q_max)

    # The degenerate rule compares the residual norm with 1e-12 times the
    # exact norm of the column as it entered.  A float bound decides it
    # first: tops[j] >= that exact norm (see _norm_bounds), and rounding
    # is monotone, so a residual norm above 1e-12 * tops[j] is above the
    # rule's threshold too.  Only a residual norm below it takes the exact
    # norm of the input column.
    tops = _norm_bounds(rows)
    scan(0, m)
    attempts = 0
    for j, v in enumerate(rows):
        length = _exact_norm(v)
        if length <= _DEGENERATE_NORM * tops[j]:
            scale = _exact_norm(original(j))
            while length <= _DEGENERATE_NORM * scale:
                attempts += 1
                if regenerate is None or attempts > 64:
                    raise SeedError("degenerate column during orthonormalization")
                v[:] = regenerate()
                _check_entries(v)
                scale = _exact_norm(v)
                scan(j, j + 1)
                for q in rows[:j]:
                    project_all(j, j + 1, q)
                length = _exact_norm(v)
        v /= length
        project_all(j + 1, m, v)
    return rows


def _draw_blocks(stream: SplitMix64, n: int, m: int, rows: np.ndarray | None = None):
    """The stream's next m columns of n draws, in stream order, as the
    rows of (k, n) blocks of at most ``_DRAW_BLOCK`` entries (a single
    column when n exceeds that); yields (j, block), block[i] being
    column j + i.

    The counter offsets are built once, and every block is mixed and
    converted in place in the same buffers.  So without ``rows`` each
    block is a read-only view of one reused buffer: it is valid until
    the next block is drawn, and a caller that keeps it must copy it.
    With ``rows``, a C-contiguous (m, n) float64 array, the draws are
    written straight into it and the blocks are its rows.  The buffers
    are freed when the loop ends."""
    per_block = max(1, _DRAW_BLOCK // n)
    offsets = _offsets(min(per_block, m) * n)
    z, t = np.empty_like(offsets), np.empty_like(offsets)
    for j in range(0, m, per_block):
        k = min(per_block, m - j)
        if k * n < len(z):  # a short last block
            offsets, z, t = offsets[: k * n], z[: k * n], t[: k * n]
        stream._mix(offsets, z, t)
        if rows is None:
            block = _uniforms(z, t, z.view(np.float64)).reshape(k, n)
            block.flags.writeable = False
        else:
            block = rows[j : j + k]
            _uniforms(z, t, block.reshape(-1))
        yield j, block


def column_blocks(password: bytes | str, n: int, m: int, orthonormalize: bool = False):
    """The columns of :func:`derive_matrix` ``(password, n, m,
    orthonormalize)``, in order, as the rows of (k, n) blocks: an
    iterator of (j, block), block[i] being column j + i.

    Plain columns come straight from the stream, one draw block at a
    time (:func:`_draw_blocks`): each block is read-only and valid only
    until the next one, since the next is drawn into the same buffer.
    So a caller never holds more than ``_DRAW_BLOCK`` entries of the
    matrix, or one column when n exceeds that.  Orthonormalized columns
    are drawn straight into one (m, n) array, orthonormalized in place
    and yielded as a single block: one n x m float64 array at the peak.
    Dimensions, the password's type and the bool ``orthonormalize`` are
    checked, and the orthonormalization done, before this returns.
    """
    _check_count("n", n)
    _check_count("m", m)
    if n < 1 or m < 1:
        raise SeedError(f"matrix dims must be positive, got {n}x{m}")
    if not isinstance(orthonormalize, (bool, np.bool_)):
        raise SeedError(f"orthonormalize must be a bool, got {orthonormalize!r}")
    if orthonormalize and m > n:
        raise SeedError(f"orthonormalization needs m <= n, got n={n} m={m}")
    seed = derive_seed(password)
    stream = SplitMix64(seed)
    if not orthonormalize:
        return _draw_blocks(stream, n, m)
    rows = np.empty((m, n), dtype=np.float64)
    for _ in _draw_blocks(stream, n, m, rows):
        pass

    def drawn(j):
        # the stream is counter-based: column j follows the state after j columns
        return SplitMix64(seed + j * n * _GAMMA).fill_column(n)

    # regeneration draws continue the stream after the m columns
    return iter([(0, _orthonormalize_rows(rows, lambda: stream.fill_column(n), drawn))])


def derive_matrix(password: bytes | str, n: int, m: int, orthonormalize: bool = False) -> np.ndarray:
    """n x m projection matrix with entries uniform on [-0.5, 0.5].

    Entries are :meth:`SplitMix64.next_uniform` draws (0.5 itself has
    probability about 2**-54), taken column by column from the stream
    (first column fully before the second), so the layout is
    reproducible across implementations.  The result is C-contiguous
    and read-only.  With ``orthonormalize`` the columns are passed
    through :func:`gram_schmidt` afterwards; a linearly dependent column
    (never seen in practice) is replaced by further draws from the same
    stream.

    The columns come from :func:`column_blocks`, each block written
    into the result as it arrives.  At its peak a plain derivation holds
    one n x m float64 array and an orthonormalized one two (about 42 MB
    at n = 112 * 92, m = 256): the orthonormalized rows and their
    transposed copy, the result.  :func:`biopreimage.pipeline.enroll`
    needs neither: it projects the blocks without storing them.
    """
    blocks = column_blocks(password, n, m, orthonormalize)
    out = np.empty((n, m), dtype=np.float64)
    # column j of out is row j of out.T, so each block is one slice of it
    for j, block in blocks:
        out.T[j : j + len(block)] = block
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
