"""Profile container: serialization and parsing round-trip byte for byte.

Library logs: strict parsing refuses a foreign line, lenient parsing skips it.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lbound
from lbound.errors import ProfileFormatError
from lbound.profile_ingest import (
    ApiCall,
    ExecutionProfile,
    KernelRecord,
    parse_cudnn_log,
    parse_profile,
    serialize_profile,
)
from records import fields

# One META value: no line breaks, and no whitespace at either end, which
# the parser strips.
_value = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
                 max_size=12).map(str.strip)
_latency = st.floats(min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False)


@st.composite
def profiles(draw):
    seqs = sorted(draw(st.sets(st.integers(1, 10_000), max_size=8)))
    calls = [ApiCall(seq, draw(st.text(max_size=10)),
                     draw(st.dictionaries(st.text(max_size=4), st.text(max_size=6), max_size=3)),
                     draw(st.none() | st.lists(st.text(max_size=8), max_size=3)))
             for seq in seqs]
    kernels = draw(st.lists(st.builds(
        KernelRecord, st.text(max_size=10), _latency,
        st.none() | st.tuples(st.integers(0, 10_000), st.integers(0, 10_000))), max_size=5))
    return ExecutionProfile(draw(_value), draw(_value), draw(st.integers(1, 1024)),
                            draw(_latency), calls, kernels)


@settings(max_examples=200, deadline=None)
@given(profiles())
def test_profile_round_trips_byte_for_byte(profile):
    text = serialize_profile(profile)
    parsed = parse_profile(text)
    assert fields(parsed) == fields(profile)
    assert serialize_profile(parsed) == text


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=5e-324, allow_infinity=False))
def test_every_positive_finite_latency_round_trips(latency):
    """The latency spelling that ``parse_profile`` takes covers every
    ``repr`` of a positive finite float, subnormals and exponents included."""
    text = serialize_profile(ExecutionProfile("m", "s", 1, latency))
    assert parse_profile(text).measured_latency_ms == latency


_LOG = "\n".join([
    "I! CuDNN (v7605) function cudnnConvolutionForward() called:",
    "    x: type=dims; val=1x3x8x8;",
    "    algo: type=cudnnConvolutionFwdAlgo_t; val=CUDNN_CONVOLUTION_FWD_ALGO_WINOGRAD (6);",
    "some foreign line from another logger",
    "I! cuBLAS (v10.2) function cublasSgemm_v2() called:",
    "    m: type=int; val=16;",
]) + "\n"


def test_strict_log_parse_refuses_a_foreign_line():
    with pytest.raises(ProfileFormatError, match="line 4"):
        parse_cudnn_log(_LOG, strict=True)


def test_lenient_log_parse_skips_a_foreign_line_and_keeps_the_blocks():
    assert fields(parse_cudnn_log(_LOG)) == fields([
        ApiCall(1, "cudnnConvolutionForward", {"x": "1x3x8x8", "algo": "WING"}),
        ApiCall(2, "cublasSgemm_v2", {"m": "16"}),
    ])


def test_lenient_convert_prints_each_skipped_line_to_stderr(tmp_path):
    """Through a process of its own, where nothing captures the line in between."""
    log, out = tmp_path / "cudnn.log", tmp_path / "p.prof"
    log.write_text(_LOG, "utf-8")
    src = str(pathlib.Path(lbound.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "lbound.cli", "profile", "convert",
                           "--cudnn-log", str(log), "--latency-ms", "1", "--model", "m",
                           "--system", "s", "-o", str(out)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == \
        "skipping unparseable logger line 4: 'some foreign line from another logger'\n"
    assert [call.api_name for call in parse_profile(out.read_text("utf-8")).api_calls] \
        == ["cudnnConvolutionForward", "cublasSgemm_v2"]
