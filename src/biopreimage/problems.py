"""Attack problems: stolen material turned into constrained programs.

Each builder produces an immutable :class:`AttackProblem` of one of
three kinds:

* feature phase - convex QP over the feature vector (sign constraints
  on its projections, closest to the attacker's own feature);
* image phase - recover an image whose squared gradient magnitudes
  match a target feature vector;
* sign - one program over the image, with auxiliary magnitude variables
  and the sign constraints of k >= 1 templates.  ``build_merged`` (one
  stolen template), ``build_multi_auth`` (a Hamming center of several
  victims' templates under the attacker's own password) and
  ``build_multi_collision`` (several victims, each under their own
  password) all build this kind.

Strict "< 0" sign constraints are encoded as "<= -delta" with a small
positive margin: numerical solvers cannot express strictness, and the
margin also shields the final binarization from round-off flips.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .pipeline import GrayImage, Template, binarize, hamming_distance, project, sobel
from .prng import _as_bytes, _check_count, derive_matrix

DEFAULT_MARGIN_SCALE = 1e-6

#: Support size above which the Hamming-center search falls back from
#: exhaustive enumeration to local search.
_EXHAUSTIVE_BITS = 24
#: Candidate centers scored per block of the exhaustive search.
_CENTER_BLOCK = 1 << 16


def _popcount_table(bits: int) -> np.ndarray:
    """Set-bit counts of 0 .. 2**bits - 1: the numbers in [2**k, 2**(k+1))
    are those below 2**k with bit k added."""
    table = np.zeros(1 << bits, dtype=np.uint8)
    for k in range(bits):
        table[1 << k : 2 << k] = table[: 1 << k] + 1
    return table


_POPCOUNT16 = _popcount_table(16)


class ProblemError(ValueError):
    """Inconsistent dimensions or malformed attack inputs."""


class ProblemKind(Enum):
    FEATURE_PHASE = "feature_phase"
    IMAGE_PHASE = "image_phase"
    SIGN = "sign"


#: Kind strings written by earlier versions, read as :attr:`ProblemKind.SIGN`.
_KIND_ALIASES = {"merged": "sign", "multi_auth": "sign", "multi_collision": "sign"}


@dataclass(frozen=True)
class SignConstraintSet:
    """One victim's sign pattern: which projection columns must come out
    negative (bit 0) and which non-negative (bit 1).  The column index
    sets are read off the template."""

    matrix: np.ndarray
    template: Template
    password: bytes | None = None
    orthonormalize: bool = False
    zero_idx: np.ndarray = field(init=False)
    one_idx: np.ndarray = field(init=False)

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=np.float64).copy()
        m = len(self.template)
        if matrix.ndim != 2 or matrix.shape[1] != m:
            raise ProblemError(f"matrix shape {matrix.shape} does not fit {m}-bit template")
        if not np.isfinite(matrix).all():
            raise ProblemError("matrix entries must be finite")
        bits = self.template.bits
        for name, arr in (
            ("matrix", matrix),
            ("zero_idx", np.flatnonzero(bits == 0)),
            ("one_idx", np.flatnonzero(bits == 1)),
        ):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def m(self) -> int:
        return int(self.matrix.shape[1])


@dataclass(frozen=True)
class AttackProblem:
    """Immutable description of one constrained program."""

    kind: ProblemKind
    height: int
    width: int
    delta: float
    anchor_image: GrayImage | None = None
    anchor_feature: np.ndarray | None = None
    constraint_sets: tuple[SignConstraintSet, ...] = ()
    target_feature: np.ndarray | None = None

    def __post_init__(self):
        if not math.isfinite(self.delta) or self.delta <= 0:
            raise ProblemError("margin delta must be positive and finite")
        n = self.height * self.width
        for cs in self.constraint_sets:
            if cs.n != n:
                raise ProblemError(
                    f"constraint matrix row count {cs.n} does not match pixel count {n}"
                )
        if self.kind is ProblemKind.IMAGE_PHASE:
            if self.target_feature is None:
                raise ProblemError("image phase needs a target feature")
        elif not self.constraint_sets:
            raise ProblemError(f"{self.kind.value} problem needs at least one constraint set")
        elif self.kind is ProblemKind.FEATURE_PHASE and len(self.constraint_sets) > 1:
            # solve_qp reads only constraint_sets[0]
            raise ProblemError("feature phase takes exactly one constraint set")
        for name in ("anchor_feature", "target_feature"):
            value = getattr(self, name)
            if value is None:
                continue
            label = name.replace("_", " ")
            arr = np.asarray(value, dtype=np.float64).copy()
            if arr.shape != (n,):
                raise ProblemError(f"{label} length {arr.shape} != pixel count {n}")
            if not np.isfinite(arr).all():
                raise ProblemError(f"{label} entries must be finite")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        # Each kind's solver reads exactly these fields: a missing one
        # would fail mid-solve, a stray one would be silently ignored, so
        # both are rejected.
        if self.kind is ProblemKind.FEATURE_PHASE:
            if self.anchor_feature is None:
                raise ProblemError("feature phase needs an anchor feature")
            if self.anchor_image is not None:
                raise ProblemError("feature phase takes no anchor image")
        elif self.anchor_feature is not None:
            raise ProblemError(f"{self.kind.value} problem takes no anchor feature")
        elif self.anchor_image is None:
            raise ProblemError(f"{self.kind.value} problem needs an anchor image")
        elif (self.anchor_image.height, self.anchor_image.width) != (self.height, self.width):
            raise ProblemError(
                f"anchor image is {self.anchor_image.height}x{self.anchor_image.width}, "
                f"problem is {self.height}x{self.width}"
            )
        if self.kind is ProblemKind.IMAGE_PHASE:
            if self.constraint_sets:
                raise ProblemError("image phase takes no constraint sets")
        elif self.target_feature is not None:
            raise ProblemError(f"{self.kind.value} problem takes no target feature")

    @property
    def n(self) -> int:
        return self.height * self.width


def default_margin(*matrices: np.ndarray) -> float:
    """Margin used to encode strict negativity: 1e-6 times the largest
    column norm across the projection matrices involved."""
    top = 0.0
    for mat in matrices:
        norms = np.linalg.norm(np.asarray(mat, dtype=np.float64), axis=0)
        if norms.size:
            top = max(top, float(norms.max()))
    if top == 0.0:
        raise ProblemError("cannot derive a margin from all-zero matrices")
    return DEFAULT_MARGIN_SCALE * top


def _constraint_set(
    template: Template,
    n: int,
    matrix: np.ndarray | None = None,
    password: bytes | str | None = None,
    orthonormalize: bool = False,
) -> SignConstraintSet:
    """The one place a password becomes a projection matrix.

    With only a password the n x len(template) matrix is derived here.
    A matrix given together with a password must be exactly that
    password's derivation: the archive stores only the password, and
    certification projects through the stored matrix in its place.
    """
    password = _as_bytes(password)
    shape = (n, len(template))
    if matrix is not None:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape != shape:
            raise ProblemError(f"matrix shape {matrix.shape} != {shape}")
    if password is not None:
        derived = derive_matrix(password, *shape, orthonormalize)
        if matrix is None:
            matrix = derived
        elif not np.array_equal(matrix, derived):
            raise ProblemError("matrix differs from the one its password derives")
    elif matrix is None:
        raise ProblemError("need a projection matrix or a password to derive one")
    return SignConstraintSet(matrix, template, password, orthonormalize)


def _feature_dims(feature: np.ndarray) -> int:
    feature = np.asarray(feature, dtype=np.float64)
    if feature.ndim != 1:
        raise ProblemError("feature must be a flat vector")
    return feature.shape[0]


def build_feature_phase(
    anchor_feature: np.ndarray,
    template: Template,
    matrix: np.ndarray | None = None,
    delta: float | None = None,
    password: bytes | None = None,
    orthonormalize: bool = False,
) -> AttackProblem:
    """Closest non-negative feature vector whose projections carry the
    target sign pattern.  Convex; image dims are carried as 1 x n.

    Either the projection matrix or the password it derives from must be
    given; with only the password the matrix is derived here.
    """
    n = _feature_dims(anchor_feature)
    cs = _constraint_set(template, n, matrix, password, orthonormalize)
    return AttackProblem(
        kind=ProblemKind.FEATURE_PHASE,
        height=1,
        width=n,
        delta=default_margin(cs.matrix) if delta is None else delta,
        anchor_feature=anchor_feature,
        constraint_sets=(cs,),
    )


def build_image_phase(anchor_image: GrayImage, target_feature: np.ndarray) -> AttackProblem:
    """Integer image whose squared gradient magnitudes equal the target
    feature squared, closest to the anchor image."""
    if _feature_dims(target_feature) != anchor_image.n:
        raise ProblemError(
            f"target feature length {len(target_feature)} != pixel count {anchor_image.n}"
        )
    return AttackProblem(
        kind=ProblemKind.IMAGE_PHASE,
        height=anchor_image.height,
        width=anchor_image.width,
        delta=DEFAULT_MARGIN_SCALE,
        anchor_image=anchor_image,
        target_feature=target_feature,
    )


def _sign_problem(
    anchor_image: GrayImage, sets: tuple[SignConstraintSet, ...], delta: float | None
) -> AttackProblem:
    return AttackProblem(
        kind=ProblemKind.SIGN,
        height=anchor_image.height,
        width=anchor_image.width,
        delta=default_margin(*(cs.matrix for cs in sets)) if delta is None else delta,
        anchor_image=anchor_image,
        constraint_sets=sets,
    )


def build_merged(
    anchor_image: GrayImage,
    template: Template,
    matrix: np.ndarray | None = None,
    delta: float | None = None,
    password: bytes | None = None,
    orthonormalize: bool = False,
) -> AttackProblem:
    """Single program over the image: auxiliary magnitude variables tied
    to the squared gradients, sign constraints on their projections.

    Either the projection matrix or the password it derives from must be
    given; with only the password the matrix is derived here.
    """
    cs = _constraint_set(template, anchor_image.n, matrix, password, orthonormalize)
    return _sign_problem(anchor_image, (cs,), delta)


def build_multi_auth(
    anchor_image: GrayImage,
    center: Template,
    matrix: np.ndarray | None = None,
    delta: float | None = None,
    password: bytes | None = None,
    orthonormalize: bool = False,
) -> AttackProblem:
    """Merged program whose target is a Hamming-center template (see
    :func:`hamming_center`) and whose matrix belongs to the attacker; no
    victim password is involved.  The program is :func:`build_merged`'s."""
    return build_merged(anchor_image, center, matrix, delta, password, orthonormalize)


def build_multi_collision(
    anchor_image: GrayImage,
    victims: list[tuple[Template, bytes | str]],
    delta: float | None = None,
    orthonormalize: bool = False,
) -> AttackProblem:
    """One program stacking every victim's sign constraints over a single
    magnitude vector; each victim's matrix comes from their password.

    Warns when the combined template size exceeds the pixel count: the
    stacked system may then be infeasible (see :func:`capacity`).
    """
    if len(victims) < 2:
        raise ProblemError("multi-collision needs at least two (template, password) pairs")
    n = anchor_image.n
    sets = tuple(
        _constraint_set(template, n, password=password, orthonormalize=orthonormalize)
        for template, password in victims
    )
    total_bits = sum(cs.m for cs in sets)
    if total_bits > n:
        warnings.warn(
            f"stacked template bits ({total_bits}) exceed feature dimension ({n}); "
            f"the combined system may be infeasible",
            stacklevel=2,
        )
    return _sign_problem(anchor_image, sets, delta)


# ---------------------------------------------------------------------------
# Hamming center


@dataclass(frozen=True)
class CenterResult:
    """Minimax center over the covered subset of the input templates.

    ``members`` holds indices into the input list; every member is
    within ``radius`` of ``center``.
    """

    center: Template
    radius: int
    members: tuple[int, ...]


def _popcount(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64)
    total = _POPCOUNT16[(x & np.uint64(0xFFFF)).astype(np.intp)].astype(np.int64)
    for shift in (16, 32, 48):
        total += _POPCOUNT16[((x >> np.uint64(shift)) & np.uint64(0xFFFF)).astype(np.intp)]
    return total


def _minimax_center(bits: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact or local-search minimax center of a (t, m) bit matrix.

    Only positions where the templates disagree matter; an optimal
    center always copies the unanimous bits.  Ties prefer the center
    that agrees with the first template on the lowest-index disagreeing
    positions.
    """
    t, m = bits.shape
    base = bits[0].copy()
    support = np.flatnonzero((bits != bits[0]).any(axis=0))
    k = support.size
    if k == 0:
        return base, 0

    # Encode disagreement patterns relative to the first template as
    # k-bit integers, lowest support index in the most significant bit,
    # so ascending numeric order matches the tie-break preference.
    weights = (1 << np.arange(k - 1, -1, -1, dtype=np.uint64)).astype(np.uint64)
    codes = ((bits[:, support] != base[support]).astype(np.uint64) @ weights).astype(np.uint64)

    if k <= _EXHAUSTIVE_BITS:
        # Scan the 2**k candidates in blocks so memory stays bounded.  A
        # block's winner replaces the incumbent only when strictly better,
        # which keeps the first minimum in code order.
        best, best_radius = 0, k + 1
        for lo in range(0, 1 << k, _CENTER_BLOCK):
            candidates = np.arange(lo, min(lo + _CENTER_BLOCK, 1 << k), dtype=np.uint64)
            radius = np.zeros(candidates.size, dtype=np.int64)
            for code in codes:
                np.maximum(radius, _popcount(candidates ^ code), out=radius)
            i = int(np.argmin(radius))
            if radius[i] < best_radius:
                best, best_radius = lo + i, int(radius[i])
        flip = np.array([(best >> int(s)) & 1 for s in range(k - 1, -1, -1)], dtype=np.uint8)
        center = base.copy()
        center[support] ^= flip
        return center, best_radius

    # Large support: majority vote start, then steepest-descent bit flips.
    ones = bits.sum(axis=0)
    center = np.where(2 * ones > t, 1, np.where(2 * ones < t, 0, bits[0])).astype(np.uint8)
    dist = (bits != center).sum(axis=1)
    for _ in range(4 * m):
        radius = int(dist.max())
        best_pos, best_key = -1, (radius, int(dist.sum()))
        for pos in support:
            delta = np.where(bits[:, pos] == center[pos], 1, -1)
            nd = dist + delta
            key = (int(nd.max()), int(nd.sum()))
            if key < best_key:
                best_key, best_pos = key, pos
        if best_pos < 0:
            break
        dist = dist + np.where(bits[:, best_pos] == center[best_pos], 1, -1)
        center[best_pos] ^= 1
    return center, int(dist.max())


def hamming_center(templates: list[Template], epsilon: int) -> CenterResult:
    """Center template covering as many inputs as possible within radius
    ``epsilon``.

    The minimax center of the full set is returned when its radius fits;
    otherwise the template farthest from the current center is dropped
    (greedily, first occurrence on ties) and the center recomputed until
    the survivors are covered.
    """
    _check_count("epsilon", epsilon, ProblemError)
    if not templates:
        raise ProblemError("need at least one template")
    if epsilon < 0:
        raise ProblemError("epsilon must be non-negative")
    m = len(templates[0])
    if any(len(t) != m for t in templates):
        raise ProblemError("templates must share one length")
    bits = np.stack([t.bits for t in templates]).astype(np.uint8)
    alive = list(range(len(templates)))
    while True:
        center, radius = _minimax_center(bits[alive])
        if radius <= epsilon or len(alive) == 1:
            return CenterResult(Template(center), radius, tuple(alive))
        dist = (bits[alive] != center).sum(axis=1)
        alive.pop(int(np.argmax(dist)))


# ---------------------------------------------------------------------------
# Multi-collision capacity analysis


def independence_probability(n: int, k: int, eta: int) -> float:
    """Probability that k random vectors of dimension n, with eta bits of
    numeric precision per coordinate, are linearly independent.

    Product over i = 2..k of (2^(eta(n-i+1)) - 1) / 2^(eta(n-i+1)),
    evaluated in log space; the empty product (k = 1) is 1.
    """
    for name, value in (("n", n), ("k", k), ("eta", eta)):
        _check_count(name, value, ProblemError)
    if n < 1 or k < 1 or eta < 1:
        raise ProblemError("n, k, eta must be positive")
    log_p = 0.0
    for i in range(2, k + 1):
        exponent = eta * (n - i + 1)
        if exponent <= 0:
            return 0.0
        log_p += math.log1p(-math.pow(2.0, -exponent))
    return math.exp(log_p)


def capacity(n: int, w: int) -> int:
    """How many victims of template size w a single n-pixel image can
    plausibly cover at once: floor(n / w)."""
    _check_count("n", n, ProblemError)
    _check_count("w", w, ProblemError)
    if n < 1 or w < 1:
        raise ProblemError("n and w must be positive")
    return n // w


# ---------------------------------------------------------------------------
# Archival JSON


def _password_json(password: bytes | None) -> str | None:
    return password.hex() if password is not None else None


def problem_to_json(problem: AttackProblem) -> dict:
    """JSON-serializable archive of a problem.

    Matrices reachable from a stored password are written by reference
    (password hex plus dimensions); matrices supplied directly are
    inlined entry by entry.
    """
    doc: dict = {
        "kind": problem.kind.value,
        "height": problem.height,
        "width": problem.width,
        "delta": problem.delta,
    }
    if problem.anchor_image is not None:
        doc["anchor_image"] = [[int(v) for v in row] for row in problem.anchor_image.pixels]
    if problem.anchor_feature is not None:
        doc["anchor_feature"] = [float(v) for v in problem.anchor_feature]
    if problem.target_feature is not None:
        doc["target_feature"] = [float(v) for v in problem.target_feature]
    sets = []
    for cs in problem.constraint_sets:
        entry: dict = {
            "template": cs.template.to_bitstring(),
            "orthonormalize": cs.orthonormalize,
            "password_hex": _password_json(cs.password),
        }
        if cs.password is None:
            entry["matrix"] = [[float(v) for v in row] for row in cs.matrix]
        sets.append(entry)
    doc["constraint_sets"] = sets
    return doc


def _archived(doc: dict, key: str, kinds: tuple, what: str, default=None):
    """``doc[key]`` (``default`` when absent) if it is an instance of
    ``kinds``.  A JSON file can hold any type in any field; reject the
    wrong one here, not with a TypeError later or a silently coerced
    value.  bool is an int subclass, so it passes only where listed."""
    value = doc.get(key, default)
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise ProblemError(f"{key} must be {what}, got {value!r}")
    return value


def _archived_numbers(doc: dict, key: str, rows: bool = False) -> list | None:
    """``doc[key]`` if it is absent, null or a list of numbers, or with
    ``rows`` a list of equal-length lists of numbers.  numpy would read
    bools as 0 and 1, ragged rows as objects, and fail on strings or
    objects with its own errors."""
    what = "a list of equal-length lists of numbers" if rows else "a list of numbers"
    value = _archived(doc, key, (list, type(None)), f"{what} or null")
    listed = [] if value is None else (value if rows else [value])
    for row in listed:
        if not (
            isinstance(row, list)
            and len(row) == len(listed[0])
            and all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in row)
        ):
            raise ProblemError(f"{key} must be {what}, got {value!r}")
    return value


def problem_from_json(doc: dict) -> AttackProblem:
    if not isinstance(doc, dict):
        raise ProblemError(f"a problem archive is a JSON object, not {type(doc).__name__}")
    kind_value = doc.get("kind")
    try:
        kind = ProblemKind(_KIND_ALIASES.get(kind_value, kind_value))
    except (TypeError, ValueError):
        raise ProblemError(f"unknown problem kind {kind_value!r}") from None
    height = _archived(doc, "height", (numbers.Integral,), "an integer")
    width = _archived(doc, "width", (numbers.Integral,), "an integer")
    anchor_image = None
    if "anchor_image" in doc:
        # GrayImage takes bools as 0/1 pixels and integral floats as
        # integers; an archive holds neither, as problem_to_json writes it
        pixels = _archived_numbers(doc, "anchor_image", rows=True)
        if pixels is None or not all(isinstance(v, numbers.Integral) for row in pixels for v in row):
            raise ProblemError(f"anchor_image must be a list of equal-length lists of integers, got {pixels!r}")
        try:
            anchor_image = GrayImage(width, height, np.asarray(pixels))
        except ValueError as exc:
            raise ProblemError(f"anchor_image: {exc}") from None
    sets = []
    for entry in _archived(doc, "constraint_sets", (list,), "a list", []):
        if not isinstance(entry, dict):
            raise ProblemError(f"a constraint set is a JSON object, got {entry!r}")
        pw_hex = _archived(entry, "password_hex", (str, type(None)), "a hex string or null")
        try:
            password = bytes.fromhex(pw_hex) if pw_hex is not None else None
        except ValueError:
            raise ProblemError(f"password_hex is not hex: {pw_hex!r}") from None
        matrix = _archived_numbers(entry, "matrix", rows=True) if password is None else None
        template = Template.from_bitstring(_archived(entry, "template", (str,), "a bit string"))
        ortho = _archived(entry, "orthonormalize", (bool,), "true or false", False)
        sets.append(_constraint_set(template, height * width, matrix, password, ortho))
    return AttackProblem(
        kind=kind,
        height=height,
        width=width,
        delta=float(_archived(doc, "delta", (numbers.Real,), "a number")),
        anchor_image=anchor_image,
        anchor_feature=_archived_numbers(doc, "anchor_feature"),
        constraint_sets=tuple(sets),
        target_feature=_archived_numbers(doc, "target_feature"),
    )


# ---------------------------------------------------------------------------
# Feasibility helpers: the sign constraints written out through the
# forward pipeline, for callers and tests; the solver scores candidates
# with its own tables.


def sign_violations(feature: np.ndarray, problem: AttackProblem) -> np.ndarray:
    """Concatenated hinge violations of every sign constraint at the
    given magnitude vector, margin included for the strict side."""
    chunks = []
    for cs in problem.constraint_sets:
        proj = project(feature, cs.matrix)
        chunks.append(np.maximum(0.0, proj[cs.zero_idx] + problem.delta))
        chunks.append(np.maximum(0.0, -proj[cs.one_idx]))
    return np.concatenate(chunks) if chunks else np.zeros(0)


def template_mismatches(feature: np.ndarray, problem: AttackProblem) -> int:
    """Bits of the binarized projections that disagree with the targets."""
    total = 0
    for cs in problem.constraint_sets:
        total += hamming_distance(binarize(project(feature, cs.matrix)), cs.template)
    return total
