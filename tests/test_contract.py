"""The input contract of the public entry points: a malformed argument
raises its module's own error (``PipelineError``, ``SeedError``,
``SolverError``), never a bare Python or numpy error and never a silent
cast.  Each row substitutes one wrong input into one entry point."""

import numpy as np
import pytest

from biopreimage import (
    GrayImage,
    PipelineError,
    SeedError,
    SolverError,
    SplitMix64,
    Template,
    build_feature_phase,
    build_merged,
    certify,
    enroll,
    fnv1a64,
    solve,
    solve_qcqp,
    solve_qp,
)


def _merged():
    rng = np.random.default_rng(5)
    victim, anchor = (GrayImage(5, 2, rng.integers(0, 256, (2, 5))) for _ in range(2))
    return build_merged(anchor, enroll(victim, "pw", 4), password=b"pw")


def _feature():
    rng = np.random.default_rng(7)
    return build_feature_phase(np.array([1.0, 2.0]), Template.from_bitstring("1"), rng.uniform(-0.5, 0.5, (2, 1)))


#: (entry point, arguments, expected error).  Problems are built lazily
#: so that a broken builder fails its own rows only.
CASES = [
    ("hex-bool-length", lambda: Template.from_hex("80", True), PipelineError),
    ("hex-float-length", lambda: Template.from_hex("ab", 8.0), PipelineError),
    ("hex-none-length", lambda: Template.from_hex("ab", None), PipelineError),
    ("hex-int-string", lambda: Template.from_hex(5, 8), PipelineError),
    ("hex-bytes-string", lambda: Template.from_hex(b"ab", 8), PipelineError),
    ("hex-bad-digits", lambda: Template.from_hex("zz", 8), PipelineError),
    ("hex-non-ascii-digit", lambda: Template.from_hex("٣0", 8), PipelineError),
    ("bitstring-int", lambda: Template.from_bitstring(5), PipelineError),
    ("bitstring-list", lambda: Template.from_bitstring(["1", "0"]), PipelineError),
    ("solve-dict-config", lambda: solve(_merged(), {"restarts": 1}), SolverError),
    ("solve-empty-dict-config", lambda: solve(_merged(), {}), SolverError),
    ("solve-qcqp-dict-config", lambda: solve_qcqp(_merged(), {}), SolverError),
    ("solve-qp-dict-config", lambda: solve_qp(_feature(), {}), SolverError),
    ("solve-qp-through-solve", lambda: solve(_feature(), {"restarts": 1}), SolverError),
    ("certify-array", lambda: certify(np.zeros((2, 5)), _merged()), SolverError),
    ("certify-none", lambda: certify(None, _merged()), SolverError),
    ("fnv1a64-str", lambda: fnv1a64("abc"), SeedError),
    ("fnv1a64-list", lambda: fnv1a64([1, 2]), SeedError),
    ("fnv1a64-none", lambda: fnv1a64(None), SeedError),
    ("splitmix-str", lambda: SplitMix64("s"), SeedError),
    ("splitmix-float", lambda: SplitMix64(1.0), SeedError),
    ("splitmix-bool", lambda: SplitMix64(True), SeedError),
]


@pytest.mark.parametrize("call,error", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_malformed_input_raises_the_modules_error(call, error):
    with pytest.raises(error) as info:
        call()
    # the module's own class, not a subclass shared with a bare error
    assert type(info.value) is error


def test_well_formed_inputs_still_work():
    """The checks refuse only the wrong kinds: numpy integers, bytearrays,
    upper-case hex and padded strings pass as before."""
    assert Template.from_hex(" B0 ", np.int64(5)) == Template.from_bitstring("10110")
    assert Template.from_bitstring(" 101 ") == Template.from_bitstring("101")
    assert fnv1a64(bytearray(b"abc")) == fnv1a64(b"abc")
    assert SplitMix64(np.uint64(3)).next_u64() == SplitMix64(3).next_u64()
    assert SplitMix64(-1).state == SplitMix64(2**64 - 1).state
