"""Property tests for the serving wire codec: parse∘serialize is a fixed
point, malformed frames are rejected with exact field paths, and the frame
assembler reconstructs frames across arbitrary chunk splits."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygraphmr.errors import ConfigError, ServeError
from polygraphmr.serve import (
    MAX_ID_CHARS,
    MAX_SAMPLES_PER_REQUEST,
    FrameAssembler,
    ServeRequest,
    parse_request,
    request_frame,
)

_ids = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_.", min_size=1, max_size=24
)
_models = _ids
_samples = st.lists(st.integers(min_value=0, max_value=2**31 - 1), min_size=1, max_size=32)
_deadlines = st.one_of(
    st.none(),
    st.floats(min_value=0.001, max_value=1e6, allow_nan=False, allow_infinity=False).map(float),
)


@st.composite
def classify_requests(draw) -> ServeRequest:
    return ServeRequest(
        id=draw(_ids),
        model=draw(_models),
        samples=tuple(draw(_samples)),
        deadline_ms=draw(_deadlines),
    )


@st.composite
def classify_dicts(draw) -> dict:
    """Always-valid classify wire mappings (the raw-JSON view)."""

    d: dict = {
        "id": draw(_ids),
        "model": draw(_models),
        "samples": draw(_samples),
    }
    if draw(st.booleans()):
        d["deadline_ms"] = draw(
            st.floats(min_value=0.001, max_value=1e6, allow_nan=False, allow_infinity=False)
        )
    return d


class TestCodecFixedPoint:
    @given(classify_requests())
    def test_parse_of_serialize_is_a_fixed_point(self, request_):
        frame = request_frame(request_)
        assert frame.endswith(b"\n")
        again = parse_request(frame[:-1])
        assert again == request_
        assert request_frame(again) == frame

    @given(st.sampled_from(["ping", "metrics"]), st.one_of(st.just(""), _ids))
    def test_op_frames_round_trip(self, op, rid):
        request_ = ServeRequest(id=rid, op=op)
        assert parse_request(request_frame(request_)[:-1]) == request_

    @given(classify_dicts())
    def test_key_order_never_matters(self, d):
        shuffled = dict(reversed(list(d.items())))
        assert parse_request(json.dumps(shuffled)) == parse_request(json.dumps(d))

    @given(classify_dicts())
    def test_parse_accepts_bytes_and_str_identically(self, d):
        text = json.dumps(d)
        assert parse_request(text) == parse_request(text.encode("utf-8"))


class TestMalformedFramesNameTheField:
    @given(classify_dicts(), st.sampled_from(["id", "model", "samples", "deadline_ms"]))
    def test_structurally_wrong_value_names_the_exact_field(self, d, field):
        corrupted = {**d, field: {"not": "valid"}}
        with pytest.raises(ConfigError) as exc_info:
            parse_request(json.dumps(corrupted))
        assert exc_info.value.field == f"request.{field}"
        assert exc_info.value.reason == "bad-type"

    @given(classify_dicts(), _ids)
    def test_unknown_fields_are_rejected_by_name(self, d, extra_key):
        if extra_key in ("id", "model", "samples", "deadline_ms", "op"):
            return
        with pytest.raises(ConfigError) as exc_info:
            parse_request(json.dumps({**d, extra_key: 1}))
        assert exc_info.value.field == f"request.{extra_key}"
        assert exc_info.value.reason == "unknown-field"

    @given(classify_dicts(), st.integers(min_value=0, max_value=31), st.integers(max_value=-1))
    def test_negative_sample_is_named_by_index(self, d, pos, bad):
        samples = list(d["samples"])
        pos = pos % len(samples)
        samples[pos] = bad
        with pytest.raises(ConfigError) as exc_info:
            parse_request(json.dumps({**d, "samples": samples}))
        assert exc_info.value.field == f"request.samples[{pos}]"
        assert exc_info.value.reason == "out-of-range"

    @given(classify_dicts(), st.integers(min_value=0, max_value=31), st.sampled_from([True, False, 1.5, "7", None]))
    def test_non_integer_sample_is_named_by_index(self, d, pos, bad):
        samples = list(d["samples"])
        pos = pos % len(samples)
        samples[pos] = bad
        with pytest.raises(ConfigError) as exc_info:
            parse_request(json.dumps({**d, "samples": samples}))
        assert exc_info.value.field == f"request.samples[{pos}]"
        assert exc_info.value.reason == "bad-type"

    @given(classify_dicts(), st.sampled_from(["model", "samples"]))
    def test_missing_required_field_is_named(self, d, field):
        del d[field]
        with pytest.raises(ConfigError) as exc_info:
            parse_request(json.dumps(d))
        assert exc_info.value.field == f"request.{field}"
        assert exc_info.value.reason == "missing-field"

    @given(classify_dicts(), st.sampled_from([0, 0.0, -1, -0.5, float("nan"), float("inf")]))
    def test_non_positive_or_non_finite_deadline_is_rejected(self, d, bad):
        text = json.dumps({**d, "deadline_ms": bad}, allow_nan=True)
        with pytest.raises(ConfigError) as exc_info:
            parse_request(text)
        assert exc_info.value.field == "request.deadline_ms"
        assert exc_info.value.reason == "out-of-range"

    @given(st.sampled_from(["ping", "metrics"]), st.sampled_from(["model", "samples", "deadline_ms"]))
    def test_classify_fields_are_rejected_on_admin_ops(self, op, field):
        with pytest.raises(ConfigError) as exc_info:
            parse_request(json.dumps({"op": op, field: 1}))
        assert exc_info.value.field == f"request.{field}"
        assert exc_info.value.reason == "unexpected-field"

    @given(st.text(max_size=64))
    def test_non_json_or_non_object_frames_blame_the_request(self, text):
        try:
            decoded = json.loads(text)
        except json.JSONDecodeError:
            decoded = ...  # not JSON at all
        if isinstance(decoded, dict):
            return
        with pytest.raises(ConfigError) as exc_info:
            parse_request(text)
        assert exc_info.value.field == "request"
        assert exc_info.value.reason in ("bad-json", "not-an-object")

    def test_bad_utf8_and_oversize_limits(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_request(b"\xff\xfe{}")
        assert (exc_info.value.field, exc_info.value.reason) == ("request", "bad-utf8")
        with pytest.raises(ConfigError) as exc_info:
            parse_request(json.dumps({"id": "x" * (MAX_ID_CHARS + 1), "model": "m", "samples": [0]}))
        assert (exc_info.value.field, exc_info.value.reason) == ("request.id", "too-long")
        with pytest.raises(ConfigError) as exc_info:
            parse_request(
                json.dumps({"id": "r", "model": "m", "samples": [0] * (MAX_SAMPLES_PER_REQUEST + 1)})
            )
        assert (exc_info.value.field, exc_info.value.reason) == ("request.samples", "too-many")


class TestFrameAssembly:
    @given(
        st.lists(classify_requests(), min_size=1, max_size=8),
        st.data(),
    )
    @settings(max_examples=60)
    def test_reassembly_across_arbitrary_chunk_splits(self, requests, data):
        """However the byte stream is sliced, the assembler yields exactly
        the original frames, in order, each parseable back to its request."""

        stream = b"".join(request_frame(r) for r in requests)
        cuts = sorted(
            data.draw(
                st.lists(st.integers(min_value=0, max_value=len(stream)), max_size=16),
                label="cuts",
            )
        )
        chunks, prev = [], 0
        for cut in [*cuts, len(stream)]:
            chunks.append(stream[prev:cut])
            prev = cut

        assembler = FrameAssembler()
        frames = [frame for chunk in chunks for frame in assembler.feed(chunk)]
        assert assembler.pending_bytes == 0
        assert frames == [request_frame(r)[:-1] for r in requests]
        assert [parse_request(f) for f in frames] == requests

    @given(st.integers(min_value=1, max_value=64))
    def test_unterminated_oversize_frame_poisons_the_connection(self, limit):
        oversize = b"x" * (limit + 1)
        for chunks in (
            [oversize],  # unterminated
            [oversize + b"\n"],  # terminated, in one chunk
            [oversize[: limit // 2], oversize[limit // 2 :] + b"\n"],  # terminated, each chunk under the bound
        ):
            assembler = FrameAssembler(max_frame_bytes=limit)
            with pytest.raises(ServeError) as exc_info:
                for chunk in chunks:
                    assembler.feed(chunk)
            assert exc_info.value.reason == "frame-too-large"
        # a terminated frame of any length under the bound is still fine
        ok = FrameAssembler(max_frame_bytes=limit)
        assert ok.feed(b"y" * limit + b"\n") == [b"y" * limit]
